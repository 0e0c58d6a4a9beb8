"""`obscert audit`: replaying written certify reports through the step table.

One certify report per branch is written through the CLI.  Each must replay
cleanly; moving any derived output by one ulp, raising any inequality's
lhs_log above its rhs_log, moving an input away from the output it copies,
or moving the reported log10 C must stop the audit with exit code 5; a file
that holds no certificate is a configuration error.
"""

import json
import math

import pytest

from obscert.certify import STEP_KINDS, STEP_LINKS
from obscert.cli import EXIT_CONFIG, EXIT_OK, EXIT_UNSOUND, main
from obscert.functions import TrigSum, UcpCertificate, derive_gevrey, verify_ucp
from obscert.geometry import Domain, Grid

HEAD = """
[run]
seed = 11
[domain]
kind = box
extent = 1.0
[grid]
cells = 256
[function]
kind = trig
modes = 1:1.0:0.0; 2:0.4:0.9
[set]
kind = random
fraction = 0.2
[certify]
search = 4
[sweep]
axis = fraction
values = 0.5, 0.25
"""


def _hypotheses():
    """The [hypotheses] section of each branch's run."""
    domain = Domain.box([1.0])
    grid = Grid(domain, (256,))
    f = TrigSum.of([([1], 1.0, 0.0), ([2], 0.4, 0.9)], 1)
    gc = derive_gevrey(f, domain, grid)
    probe = verify_ucp(f, UcpCertificate(10.0, 1.0, 0.5), domain, grid)
    a = max(2.0 * probe.min_sufficient_a, 0.05)
    return {
        "sigma1": "gevrey = auto\ndoubling = estimate",
        "sigma-gt1": f"gevrey = {gc.M!r}, {gc.delta!r}, 2.0\ndoubling = estimate",
        "ucp": f"gevrey = auto\nucp = {a!r}, 1.0, 0.5",
    }


@pytest.fixture(scope="module")
def reports(tmp_path_factory):
    """Branch -> path of a certify report written by the CLI, plus the
    verify and sweep reports of the σ = 1 run."""
    out = {}
    for branch, hypotheses in _hypotheses().items():
        root = tmp_path_factory.mktemp(branch)
        cfg = root / "run.cfg"
        cfg.write_text(HEAD + "[hypotheses]\n" + hypotheses + "\n")
        assert main(["certify", str(cfg), "--output-dir", str(root)]) == EXIT_OK
        out[branch] = root / "report.json"
        if branch == "sigma1":
            for command in ("verify", "sweep"):
                (root / command).mkdir()
                main([command, str(cfg), "--output-dir", str(root / command)])
                out[command] = root / command / ("report.json" if command == "verify"
                                                 else "sweep.json")
    return out


def _kind(record):
    (kind,) = [k for k in STEP_KINDS.values()
               if (k.step, k.detail) == (record["step"], record["detail"])]
    return kind


def _audit(path, capsys):
    rc = main(["audit", str(path)])
    return rc, capsys.readouterr().err


@pytest.mark.parametrize("branch", ["sigma1", "sigma-gt1", "ucp"])
def test_audit_passes_a_written_certify_report(reports, capsys, branch):
    payload = json.loads(reports[branch].read_text())
    assert payload["certificate"]["branch"] == branch
    rc, err = _audit(reports[branch], capsys)
    assert (rc, err) == (EXIT_OK, "")


@pytest.mark.parametrize("branch", ["sigma1", "sigma-gt1", "ucp"])
def test_audit_names_a_derived_output_moved_by_one_ulp(reports, capsys, tmp_path, branch):
    payload = json.loads(reports[branch].read_text())
    trace = payload["certificate"]["trace"]
    moved = 0
    for index, record in enumerate(trace):
        for key in _kind(record).derive(record["inputs"], record["outputs"]):
            value = record["outputs"][key]
            record["outputs"][key] = math.nextafter(value, math.inf)
            path = tmp_path / "moved.json"
            path.write_text(json.dumps(payload))
            record["outputs"][key] = value
            rc, err = _audit(path, capsys)
            assert rc == EXIT_UNSOUND, (index, key)
            assert f"trace step {index} {record['step']!r}: {key} is recorded as" in err
            moved += 1
    assert moved >= 12


@pytest.mark.parametrize("branch", ["sigma1", "sigma-gt1", "ucp"])
def test_audit_names_an_inequality_whose_lhs_exceeds_its_rhs(reports, capsys, tmp_path, branch):
    payload = json.loads(reports[branch].read_text())
    trace = payload["certificate"]["trace"]
    raised = 0
    for index, record in enumerate(trace):
        outputs = record["outputs"]
        if "lhs_log" not in outputs:
            continue
        lhs = outputs["lhs_log"]
        outputs["lhs_log"] = outputs["rhs_log"] + 1.0
        path = tmp_path / "raised.json"
        path.write_text(json.dumps(payload))
        outputs["lhs_log"] = lhs
        rc, err = _audit(path, capsys)
        assert rc == EXIT_UNSOUND, index
        assert f"trace step {index} {record['step']!r}" in err
        raised += 1
    assert raised >= 7


def _write(tmp_path, payload):
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(payload))
    return path


@pytest.mark.parametrize("branch", ["sigma1", "sigma-gt1", "ucp"])
def test_audit_names_an_input_moved_off_the_output_it_copies(reports, capsys, tmp_path, branch):
    # the step is re-derived from the moved input, so it replays by itself:
    # only the comparison with its source can catch it
    payload = json.loads(reports[branch].read_text())
    trace = payload["certificate"]["trace"]
    linked = 0
    for index, record in enumerate(trace):
        kind = _kind(record)
        for (name, key) in STEP_LINKS:
            if name != kind.name:
                continue
            inputs, outputs = dict(record["inputs"]), dict(record["outputs"])
            record["inputs"][key] = math.nextafter(inputs[key], math.inf)
            record["outputs"].update(kind.derive(record["inputs"], record["outputs"]))
            path = _write(tmp_path, payload)
            record["inputs"], record["outputs"] = inputs, outputs
            rc, err = _audit(path, capsys)
            assert rc == EXIT_UNSOUND, (index, key)
            assert f"trace step {index} {record['step']!r}: input {key} is" in err
            linked += 1
    assert linked == {"sigma1": 8, "sigma-gt1": 8, "ucp": 7}[branch]


@pytest.mark.parametrize("branch", ["sigma1", "sigma-gt1"])
def test_audit_rejects_a_resolution_step_that_lowers_log_a(reports, capsys, tmp_path, branch):
    payload = json.loads(reports[branch].read_text())
    (resolution,) = [s for s in payload["certificate"]["trace"] if s["step"] == "resolution"]
    resolution["inputs"]["log_A"] -= 1.0
    resolution["outputs"].update(_kind(resolution).derive(resolution["inputs"], {}))
    rc, err = _audit(_write(tmp_path, payload), capsys)
    assert rc == EXIT_UNSOUND
    assert "'resolution': input log_A is" in err


@pytest.mark.parametrize("branch", ["sigma1", "sigma-gt1", "ucp"])
def test_audit_rejects_a_log10_c_off_the_last_resolution(reports, capsys, tmp_path, branch):
    payload = json.loads(reports[branch].read_text())
    certificate = payload["certificate"]
    certificate["log10_C"] = math.nextafter(certificate["log10_C"], -math.inf)
    rc, err = _audit(_write(tmp_path, payload), capsys)
    assert rc == EXIT_UNSOUND
    assert "is not the constant of the last resolution step" in err


def test_audit_names_an_unknown_step(reports, capsys, tmp_path):
    payload = json.loads(reports["sigma1"].read_text())
    payload["certificate"]["trace"][3]["detail"] = "a step no table holds"
    path = tmp_path / "unknown.json"
    path.write_text(json.dumps(payload))
    rc, err = _audit(path, capsys)
    assert rc == EXIT_UNSOUND
    assert "trace step 3 cannot be replayed" in err


def test_audit_rejects_files_without_a_certificate(reports, capsys, tmp_path):
    (tmp_path / "not.json").write_text("branch sigma1 | log10 C = 11.108\n")
    for path in (reports["verify"], reports["sweep"], tmp_path / "not.json",
                 tmp_path / "missing.json"):
        rc, err = _audit(path, capsys)
        assert rc == EXIT_CONFIG, path
        assert "not a readable certify report" in err
