"""`obscert audit`: replaying written certify reports through the step table.

One certify report per branch is written through the CLI.  Each must replay
cleanly; moving any derived output by one ulp, or raising any inequality's
lhs_log above its rhs_log, must stop the audit at that step with exit code
5; a file that holds no certificate is a configuration error.
"""

import json
import math

import pytest

from obscert.certify import STEP_KINDS
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
