import argparse
import json
import threading

import numpy as np
import pytest

from obscert import cli
from obscert.cli import (
    EXIT_CONFIG,
    EXIT_HYPOTHESIS,
    EXIT_INFEASIBLE,
    EXIT_OK,
    RunConfig,
    build_domain,
    build_function,
    build_grid,
    build_hypotheses,
    build_set,
    main,
)
from obscert.errors import HypothesisError
from obscert.functions import FunctionModel, Gaussian, Product, TrigSum, derive_gevrey
from obscert.geometry import MeasurableSet, write_mask_raster, Grid, Domain

BASE_CONFIG = """
[run]
seed = 11
label = demo

[domain]
kind = box
extent = 1.0

[grid]
cells = 512

[function]
kind = trig
modes = 1:1.0:0.0; 2:0.4:0.9

[set]
kind = random
fraction = 0.2

[hypotheses]
gevrey = auto
doubling = estimate

[certify]
branch = auto
search = 4

[output]
report = report.json
"""


def write_config(tmp_path, text, name="run.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return p


# ---------------------------------------------------------------------------
# Config parsing
# ---------------------------------------------------------------------------

def test_parse_base_config(tmp_path):
    cfg = RunConfig.load(write_config(tmp_path, BASE_CONFIG))
    assert cfg.seed == 11
    domain = build_domain(cfg)
    assert domain.kind == "box"
    grid = build_grid(cfg, domain)
    assert grid.cells == (512,)
    f = build_function(cfg, domain)
    assert isinstance(f, TrigSum)
    assert len(f.modes) == 2
    rng = np.random.default_rng(cfg.seed)
    mset = build_set(cfg, grid, rng)
    assert mset.fraction == pytest.approx(0.2, abs=0.01)


def test_parse_gaussian_and_product(tmp_path):
    text = """
[run]
seed = 1
[domain]
kind = box
extent = 1.0, 1.0
[function]
kind = product
factors = part-a, part-b
[part-a]
kind = trig
modes = 1 0:1.0:0.0
[part-b]
kind = gaussian
center = 0.5, 0.5
width = 0.3
amplitude = 2.0
[set]
kind = full
"""
    cfg = RunConfig.load(write_config(tmp_path, text))
    domain = build_domain(cfg)
    f = build_function(cfg, domain)
    assert isinstance(f, Product)
    assert isinstance(f.first, TrigSum)
    assert isinstance(f.second, Gaussian)
    assert f.second.amplitude == 2.0


def test_missing_config_file():
    assert main(["certify", "/nonexistent/run.cfg"]) == EXIT_CONFIG


def test_bad_domain_kind(tmp_path):
    bad = BASE_CONFIG.replace("kind = box", "kind = pentagon", 1)
    assert main(["certify", str(write_config(tmp_path, bad))]) == EXIT_CONFIG


def test_malformed_values_are_config_errors(tmp_path):
    for old, new in (
        ("cells = 512", "cells = many"),
        ("search = 4", "search = wide"),
        ("search = 4", "search = -3"),
        ("modes = 1:1.0:0.0; 2:0.4:0.9", "modes = one:1.0:0.0"),
        ("fraction = 0.2", "fraction = lots"),
    ):
        cfg = write_config(tmp_path, BASE_CONFIG.replace(old, new), name="bad.cfg")
        assert main(["certify", str(cfg), "--output-dir", str(tmp_path)]) == EXIT_CONFIG, old


def test_a_non_finite_mode_is_a_config_error(tmp_path, capsys):
    bad = BASE_CONFIG.replace("modes = 1:1.0:0.0; 2:0.4:0.9", "modes = 1:inf:0.0")
    cfg = write_config(tmp_path, bad)
    assert main(["certify", str(cfg), "--output-dir", str(tmp_path)]) == EXIT_CONFIG
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["certify", "verify"])
def test_a_polynomial_without_coefficients_is_a_config_error(tmp_path, capsys, command):
    bad = BASE_CONFIG.replace("kind = trig\nmodes = 1:1.0:0.0; 2:0.4:0.9",
                              "kind = polynomial\ncoeffs =")
    cfg = write_config(tmp_path, bad)
    assert main([command, str(cfg), "--output-dir", str(tmp_path)]) == EXIT_CONFIG
    assert "at least one coefficient" in capsys.readouterr().err


BOX_SET = BASE_CONFIG.replace("kind = random\nfraction = 0.2", "kind = box\nbounds = {}")


def test_a_reversed_box_is_a_config_error_and_an_empty_one_is_infeasible(tmp_path, capsys):
    cfg = write_config(tmp_path, BOX_SET.format("0.8, 0.2"))
    assert main(["certify", str(cfg), "--output-dir", str(tmp_path)]) == EXIT_CONFIG
    assert "lo <= hi" in capsys.readouterr().err
    # well ordered, between the first two cell centres (1/1024 and 3/1024)
    cfg = write_config(tmp_path, BOX_SET.format("0.0011, 0.0012"))
    assert main(["certify", str(cfg), "--output-dir", str(tmp_path)]) == EXIT_INFEASIBLE
    assert "no grid sample points" in capsys.readouterr().err


BALL_SET_2D = (BASE_CONFIG
               .replace("extent = 1.0", "extent = 1.0, 1.0")
               .replace("cells = 512", "cells = 128, 128")
               .replace("modes = 1:1.0:0.0; 2:0.4:0.9", "modes = 1 1:1.0:0.0")
               .replace("kind = random\nfraction = 0.2", "kind = ball\ncenter = {}\nradius = 0.1"))


@pytest.mark.parametrize("center", ["0.5", "", "0.5, 0.5, 0.5"])
def test_a_ball_set_centre_of_the_wrong_dimension_is_a_config_error(tmp_path, capsys, center):
    ok = RunConfig.load(write_config(tmp_path, BALL_SET_2D.format("0.5, 0.5"), name="ok.cfg"))
    grid = build_grid(ok, build_domain(ok))
    assert build_set(ok, grid, np.random.default_rng(0)).cell_count == 524
    cfg = write_config(tmp_path, BALL_SET_2D.format(center))
    assert main(["certify", str(cfg), "--output-dir", str(tmp_path)]) == EXIT_CONFIG
    assert "ball centre" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# certify command
# ---------------------------------------------------------------------------

def test_certify_constant_function(tmp_path):
    text = """
[run]
seed = 3
[domain]
kind = box
extent = 1.0
[grid]
cells = 512
[function]
kind = polynomial
coeffs = 1.0
[set]
kind = random
fraction = 0.25
[hypotheses]
gevrey = auto
doubling = estimate
[certify]
search = 2
"""
    cfg_path = write_config(tmp_path, text)
    out = tmp_path / "out"
    assert main(["certify", str(cfg_path), "--output-dir", str(out)]) == EXIT_OK
    report = json.loads((out / "report.json").read_text())
    assert report["soundness"]["passed"] is True
    assert report["certificate"]["log10_C"] >= 0.0
    assert report["generator"] == "numpy-pcg64-v1"


def test_certify_sine_report_contents(tmp_path):
    cfg_path = write_config(tmp_path, BASE_CONFIG)
    out = tmp_path / "out"
    assert main(["certify", str(cfg_path), "--output-dir", str(out)]) == EXIT_OK
    report = json.loads((out / "report.json").read_text())
    assert report["command"] == "certify"
    assert report["hypotheses"]["gevrey"]["verified"] is True
    assert report["certificate"]["branch"] == "sigma1"
    steps = [s["step"] for s in report["certificate"]["trace"]]
    assert "master-inequality" in steps
    assert report["soundness"]["passed"] is True


def test_certify_ucp_hypothesis_violation_exit_code(tmp_path):
    text = """
[run]
seed = 5
[domain]
kind = box
extent = 1.0
[grid]
cells = 512
[function]
kind = trig
modes = 1:1.0:0.0
[set]
kind = box
bounds = 0.1, 0.6
[hypotheses]
gevrey = 1.0, 0.15, 2.0
ucp = 0.5, 1.0, 0.5
[certify]
branch = ucp
"""
    # sigma = 2 >= 1 + 1/b = 2 violates the branch hypothesis
    cfg_path = write_config(tmp_path, text)
    code = main(["certify", str(cfg_path), "--output-dir", str(tmp_path / "o")])
    assert code == EXIT_HYPOTHESIS


@pytest.mark.parametrize("claim, message", [
    ("doubling = 2.0, 0.5", "doubling certificate fails"),
    ("ucp = 0.0001, 1.0, 0.5", "unique-continuation certificate fails"),
], ids=["doubling", "ucp"])
def test_certify_rejects_a_constant_below_the_sampled_one(tmp_path, capsys, claim, message):
    # kappa = 2 is below the sampled doubling ratio of this Gaussian, and
    # a = 1e-4 below the smallest sufficient a: the hypothesis layer says so
    text = (BASE_CONFIG.replace("kind = trig\nmodes = 1:1.0:0.0; 2:0.4:0.9",
                                "kind = gaussian\ncenter = 0.5\nwidth = 0.15")
            .replace("doubling = estimate", claim))
    cfg_path = write_config(tmp_path, text)
    code = main(["certify", str(cfg_path), "--output-dir", str(tmp_path / "o")])
    assert code == EXIT_HYPOTHESIS
    assert message in capsys.readouterr().err


def test_certify_gevrey_failure_exit_code(tmp_path):
    bad = BASE_CONFIG.replace("gevrey = auto", "gevrey = 1.0, 1.0, 1.0")
    cfg_path = write_config(tmp_path, bad)
    code = main(["certify", str(cfg_path), "--output-dir", str(tmp_path / "o")])
    assert code == EXIT_HYPOTHESIS


def test_certify_null_data_exit_code(tmp_path):
    text = """
[run]
seed = 5
[domain]
kind = box
extent = 1.0
[grid]
cells = 64
[function]
kind = polynomial
coeffs = 0.0, 1.0
[set]
kind = box
bounds = 0.0, 0.005
[hypotheses]
gevrey = auto
doubling = 4.0, 0.5
"""
    # the only selected cell centre sits at h/2 where f = h/2 > 0, so shrink
    # the bound below half a cell to make the set empty -> infeasible
    cfg_path = write_config(tmp_path, text)
    code = main(["certify", str(cfg_path), "--output-dir", str(tmp_path / "o")])
    assert code == EXIT_INFEASIBLE


def test_certify_mask_file_input(tmp_path):
    grid = Grid(Domain.box([1.0]), (256,))
    rng = np.random.default_rng(9)
    mset = MeasurableSet.random(grid, 0.3, rng)
    write_mask_raster(tmp_path / "mask.txt", mset)
    text = """
[run]
seed = 2
[domain]
kind = box
extent = 1.0
[grid]
cells = 256
[function]
kind = trig
modes = 1:1.0:0.0
[set]
kind = mask
file = mask.txt
[hypotheses]
gevrey = auto
doubling = estimate
[certify]
search = 2
[output]
report = r.json
mask_out = echo.txt
"""
    cfg_path = write_config(tmp_path, text)
    out = tmp_path / "out"
    assert main(["certify", str(cfg_path), "--output-dir", str(out)]) == EXIT_OK
    assert (out / "echo.txt").read_text() == (tmp_path / "mask.txt").read_text()


@pytest.mark.parametrize("set_section, raster", [
    ("kind = mask", None),
    ("kind = mask\nfile = mask.txt", None),
    ("kind = mask\nfile = mask.txt", "MASKRASTER\n1 4\n0.25\n1 0 1\n"),
], ids=["no-file-key", "missing-raster", "too-few-values"])
def test_a_malformed_mask_set_is_a_config_error(tmp_path, capsys, set_section, raster):
    if raster is not None:
        (tmp_path / "mask.txt").write_text(raster)
    text = BASE_CONFIG.replace("kind = random\nfraction = 0.2", set_section)
    cfg = write_config(tmp_path, text)
    assert main(["certify", str(cfg), "--output-dir", str(tmp_path / "o")]) == EXIT_CONFIG
    assert "mask" in capsys.readouterr().err


@pytest.mark.parametrize("sections", [
    "[function]\nkind = product\nfactors = function, function\n",
    "[function]\nkind = product\nfactors = left, right\n"
    "[left]\nkind = trig\nmodes = 1:1.0:0.0\n"
    "[right]\nkind = product\nfactors = left, function\n",
], ids=["itself", "through-another-product"])
def test_a_product_that_is_its_own_factor_is_a_config_error(tmp_path, capsys, sections):
    text = BASE_CONFIG.replace("[function]\nkind = trig\nmodes = 1:1.0:0.0; 2:0.4:0.9\n", sections)
    cfg = write_config(tmp_path, text)
    assert main(["certify", str(cfg), "--output-dir", str(tmp_path / "o")]) == EXIT_CONFIG
    assert "product factors form a cycle" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# verify command
# ---------------------------------------------------------------------------

def test_verify_doubling_claim_too_small(tmp_path):
    # an explicit kappa below the sampled ratio must fail verification
    text = """
[run]
seed = 1
[domain]
kind = box
extent = 1.0
[grid]
cells = 1024
[function]
kind = gaussian
center = 0.5
width = 0.15
[hypotheses]
gevrey = auto
doubling = 2.0, 0.5
"""
    cfg = write_config(tmp_path, text, name="d.cfg")
    assert main(["verify", str(cfg), "--output-dir", str(tmp_path / "o")]) == EXIT_HYPOTHESIS


def test_verify_pass_and_fail(tmp_path):
    good = """
[run]
seed = 1
[domain]
kind = box
extent = 1.0
[grid]
cells = 512
[function]
kind = trig
modes = 1:1.0:0.0
[hypotheses]
gevrey = 1.0, 0.159154943091895, 1.0
"""
    cfg_path = write_config(tmp_path, good)
    assert main(["verify", str(cfg_path), "--output-dir", str(tmp_path / "a")]) == EXIT_OK
    bad = good.replace("0.159154943091895", "1.0")
    cfg_bad = write_config(tmp_path, bad, name="bad.cfg")
    assert main(["verify", str(cfg_bad), "--output-dir", str(tmp_path / "b")]) == EXIT_HYPOTHESIS


def test_verify_rejects_a_ucp_model_that_is_nan_on_half_the_domain(tmp_path, monkeypatch, capsys):
    class HalfNan(FunctionModel):
        kind = "half-nan"
        dimension = 1

        def evaluate(self, points):
            x = np.asarray(points)[..., 0]
            return np.where(x < 0.5, np.nan, 1.0)

        def directional_derivative(self, points, direction, order):
            return np.zeros(np.asarray(points).shape[:-1])

    monkeypatch.setattr(cli, "build_function", lambda cfg, domain: HalfNan())
    cfg = write_config(tmp_path, """
[run]
seed = 1
[domain]
kind = box
extent = 1.0
[grid]
cells = 256
[function]
kind = trig
modes = 1:1.0:0.0
[hypotheses]
gevrey = 1.0, 0.1, 1.0
ucp = 1e-3, 1.0, 0.5
""")
    assert main(["verify", str(cfg), "--output-dir", str(tmp_path)]) == EXIT_HYPOTHESIS
    assert "not finite" in capsys.readouterr().err


def test_verify_passes_a_ucp_certificate_whose_r_to_the_b_underflows(tmp_path, capsys):
    # at the smallest default radius r^b underflows to 0: the check takes
    # a / r^b as +inf there, which passes, instead of dividing by zero
    cfg = write_config(tmp_path, """
[run]
seed = 1
[domain]
kind = box
extent = 1.0
[grid]
cells = 256
[function]
kind = trig
modes = 1:1.0:0.0
[hypotheses]
gevrey = 1.0, 0.1, 1.0
ucp = 1.0, 400, 0.5
""")
    out = tmp_path / "out"
    assert main(["verify", str(cfg), "--output-dir", str(out)]) == EXIT_OK
    assert "Traceback" not in capsys.readouterr().err
    ucp = json.loads((out / "report.json").read_text())["hypotheses"]["ucp"]
    assert ucp["verified"] is True
    assert ucp["min_sufficient_a"] == 0.0


@pytest.mark.parametrize("ucp", ["1.0, 400, 0.5", "1000, 1, 0.5"])
def test_certify_ucp_threshold_beyond_float_range_is_infeasible(tmp_path, capsys, ucp):
    # 10^b and e^(a/b) overflow a float; the threshold is bounded in log space
    cfg = write_config(tmp_path, f"""
[run]
seed = 1
[domain]
kind = box
extent = 1.0
[grid]
cells = 256
[function]
kind = trig
modes = 1:1.0:0.0
[set]
kind = box
bounds = 0.1, 0.6
[hypotheses]
gevrey = auto
ucp = {ucp}
[certify]
branch = ucp
""")
    assert main(["certify", str(cfg), "--output-dir", str(tmp_path)]) == EXIT_INFEASIBLE
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "beyond desk scale" in err


def test_verify_zero_frequency_trig_sum(tmp_path, capsys):
    # every mode has frequency 0, so f is the constant sin(0.5): all its
    # derivatives vanish and any delta certifies it
    text = """
[run]
seed = 1
[domain]
kind = box
extent = 1.0
[grid]
cells = 256
[function]
kind = trig
modes = 0:1.0:0.5
[hypotheses]
gevrey = auto
doubling = estimate
"""
    cfg_path = write_config(tmp_path, text)
    out = tmp_path / "out"
    assert main(["verify", str(cfg_path), "--output-dir", str(out)]) == EXIT_OK
    assert "Traceback" not in capsys.readouterr().err
    gevrey = json.loads((out / "report.json").read_text())["hypotheses"]["gevrey"]
    assert gevrey["verified"] is True
    assert gevrey["delta"] == 1.0
    assert gevrey["max_ratio"] == 0.0


# ---------------------------------------------------------------------------
# sweep command
# ---------------------------------------------------------------------------

SWEEP_CONFIG = """
[run]
seed = 17

[domain]
kind = box
extent = 1.0

[grid]
cells = 512

[function]
kind = trig
modes = 1:1.0:0.0

[set]
kind = random
fraction = 0.2

[hypotheses]
gevrey = auto
doubling = estimate

[certify]
branch = sigma1

[sweep]
axis = fraction
values = 0.5, 0.25, 0.125, 0.0625
search = 4

[output]
sweep_report = sweep.json
csv = sweep.csv
"""


def test_sweep_fraction_axis(tmp_path):
    cfg_path = write_config(tmp_path, SWEEP_CONFIG)
    out = tmp_path / "out"
    assert main(["sweep", str(cfg_path), "--output-dir", str(out)]) == EXIT_OK
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0] == "axis,value,C_log10,C,ratio,slack_log10,n,r,branch,status"
    assert len(lines) == 5
    report = json.loads((out / "sweep.json").read_text())
    ratios = [row["ratio"] for row in report["rows"]]
    # growing data set (first column is the largest fraction): ratio rises as
    # the fraction falls
    assert all(a <= b + 1e-12 for a, b in zip(ratios, ratios[1:]))
    assert all(row["status"] == "ok" for row in report["rows"])


def test_sweep_degree_axis(tmp_path):
    text = SWEEP_CONFIG.replace(
        "axis = fraction", "axis = degree"
    ).replace("values = 0.5, 0.25, 0.125, 0.0625", "values = 4, 6, 8, 10")
    cfg_path = write_config(tmp_path, text)
    out = tmp_path / "out"
    assert main(["sweep", str(cfg_path), "--output-dir", str(out)]) == EXIT_OK
    report = json.loads((out / "sweep.json").read_text())
    ns = [row["n"] for row in report["rows"]]
    assert ns == [4, 6, 8, 10]


SMALL_SWEEP = SWEEP_CONFIG.replace("cells = 512", "cells = 128")
AXES = {
    "fraction": "values = 0.5, 0.25, 0.125, 0.0625",
    "degree": "values = 4, 6, 8, 10",
    "mode-scale": "values = 1, 2, 3",
}


def _sweep_config(tmp_path, axis, name, workers=1, extra=()):
    text = (SMALL_SWEEP.replace("axis = fraction", f"axis = {axis}")
            .replace("values = 0.5, 0.25, 0.125, 0.0625", AXES[axis])
            .replace("seed = 17", f"seed = 17\nworkers = {workers}"))
    for old, new in extra:
        text = text.replace(old, new)
    return write_config(tmp_path, text, name=name)


@pytest.mark.parametrize("axis, calls", [("fraction", 1), ("degree", 1), ("mode-scale", 3)])
def test_sweep_shares_hypotheses_across_rows_of_one_function(tmp_path, monkeypatch, axis, calls):
    import obscert.cli as cli

    counted = []
    build = cli.build_hypotheses

    def counting(*args, **kwargs):
        counted.append(1)
        return build(*args, **kwargs)

    monkeypatch.setattr(cli, "build_hypotheses", counting)
    outs = []
    for workers in (1, 2):
        counted.clear()
        run_dir = tmp_path / f"workers-{workers}"
        run_dir.mkdir()
        cfg = _sweep_config(run_dir, axis, "sweep.cfg", workers)
        out = run_dir / "out"
        assert main(["sweep", str(cfg), "--output-dir", str(out)]) == EXIT_OK
        assert len(counted) == calls
        outs.append(out)
    for name in ("sweep.json", "sweep.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_sweep_shared_hypothesis_failure_is_every_rows_error(tmp_path):
    # a delta far too large fails verification; the 0.0 fraction row fails
    # earlier, on its set, as it does when each row builds its own hypotheses
    cfg_path = _sweep_config(tmp_path, "fraction", "bad.cfg", workers=2, extra=[
        ("gevrey = auto", "gevrey = 1.0, 1.0, 1.0"),
        ("values = 0.5, 0.25, 0.125, 0.0625", "values = 0.5, 0.0, 0.25"),
    ])
    cfg = RunConfig.load(cfg_path)
    domain = build_domain(cfg)
    with pytest.raises(HypothesisError) as exc:
        build_hypotheses(cfg, build_function(cfg, domain), domain, build_grid(cfg, domain))
    out = tmp_path / "out"
    assert main(["sweep", str(cfg_path), "--output-dir", str(out)]) == EXIT_INFEASIBLE
    statuses = [row["status"] for row in json.loads((out / "sweep.json").read_text())["rows"]]
    assert statuses[0] == statuses[2] == f"error: {exc.value}"
    assert statuses[1] == "error: fraction must lie in (0, 1]"


@pytest.mark.parametrize("hypotheses, status", [
    ("gevrey = auto\n", "error: degree sweeps need a doubling certificate"),
    ("gevrey = auto\nucp = 5.0, 1.0, 0.2\n",
     "error: degree sweeps apply to the doubling branches only"),
])
def test_sweep_degree_rows_without_a_doubling_branch_fail(tmp_path, hypotheses, status):
    cfg_path = _sweep_config(tmp_path, "degree", "sweep.cfg", extra=[
        ("gevrey = auto\ndoubling = estimate\n", hypotheses)])
    out = tmp_path / "out"
    assert main(["sweep", str(cfg_path), "--output-dir", str(out)]) == EXIT_INFEASIBLE
    report = json.loads((out / "sweep.json").read_text())
    assert "set" not in report
    assert [row["status"] for row in report["rows"]] == [status] * 4


def test_sweep_degree_beyond_the_cap_is_a_row_error(tmp_path):
    cfg_path = _sweep_config(tmp_path, "degree", "sweep.cfg", extra=[
        ("values = 4, 6, 8, 10", "values = 6, 1e8")])
    out = tmp_path / "out"
    assert main(["sweep", str(cfg_path), "--output-dir", str(out)]) == EXIT_INFEASIBLE
    rows = json.loads((out / "sweep.json").read_text())["rows"]
    assert rows[0]["status"] == "ok"
    assert rows[1]["status"].startswith("error: degree 100000000 is beyond desk scale")


@pytest.mark.parametrize("axis, values", [("degree", "values = 6, 2.5"),
                                          ("mode-scale", "values = 1, 1.5")])
def test_sweep_values_that_are_not_integers_are_row_errors(tmp_path, axis, values):
    cfg_path = _sweep_config(tmp_path, axis, "sweep.cfg", extra=[(AXES[axis], values)])
    out = tmp_path / "out"
    assert main(["sweep", str(cfg_path), "--output-dir", str(out)]) == EXIT_INFEASIBLE
    rows = json.loads((out / "sweep.json").read_text())["rows"]
    assert rows[0]["status"] == "ok"
    bad = float(values.split(", ")[1])
    assert rows[1] == {"axis": axis, "value": bad,
                       "status": f"error: {axis} values must be integers, got {bad!r}"}


def test_sweep_empty_axis_is_config_error(tmp_path):
    text = SWEEP_CONFIG.replace("values = 0.5, 0.25, 0.125, 0.0625", "values =")
    cfg_path = write_config(tmp_path, text)
    assert main(["sweep", str(cfg_path), "--output-dir", str(tmp_path / "o")]) == EXIT_CONFIG


@pytest.mark.parametrize("axis, values", [("fraction", "values = 0.5, nan"),
                                          ("degree", "values = inf")])
def test_sweep_values_that_are_not_finite_are_config_errors(tmp_path, capsys, axis, values):
    cfg_path = _sweep_config(tmp_path, axis, "sweep.cfg", extra=[(AXES[axis], values)])
    assert main(["sweep", str(cfg_path), "--output-dir", str(tmp_path / "o")]) == EXIT_CONFIG
    assert "sweep values must be finite" in capsys.readouterr().err


def test_sweep_partial_failure_recorded(tmp_path):
    # degree 3 sits below the feasibility floor for kappa = 64 (exponent
    # log2(kappa)/(n+1) >= 1), so that row fails while the other succeeds
    text = (
        SWEEP_CONFIG.replace("axis = fraction", "axis = degree")
        .replace("values = 0.5, 0.25, 0.125, 0.0625", "values = 16, 3")
        .replace("doubling = estimate", "doubling = 64.0, 0.5")
    )
    cfg_path = write_config(tmp_path, text)
    out = tmp_path / "out"
    code = main(["sweep", str(cfg_path), "--output-dir", str(out)])
    report = json.loads((out / "sweep.json").read_text())
    statuses = [row["status"] for row in report["rows"]]
    assert statuses[0] == "ok"
    assert statuses[1].startswith("error")
    assert code == EXIT_INFEASIBLE


# ---------------------------------------------------------------------------
# Determinism
# ---------------------------------------------------------------------------

def test_reports_byte_identical_across_runs(tmp_path):
    cfg_path = write_config(tmp_path, BASE_CONFIG)
    out1, out2 = tmp_path / "one", tmp_path / "two"
    assert main(["certify", str(cfg_path), "--output-dir", str(out1)]) == EXIT_OK
    assert main(["certify", str(cfg_path), "--output-dir", str(out2)]) == EXIT_OK
    assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()

    cfg_sweep = write_config(tmp_path, SWEEP_CONFIG, name="sweep.cfg")
    s1, s2 = tmp_path / "s1", tmp_path / "s2"
    assert main(["sweep", str(cfg_sweep), "--output-dir", str(s1)]) == EXIT_OK
    assert main(["sweep", str(cfg_sweep), "--output-dir", str(s2)]) == EXIT_OK
    assert (s1 / "sweep.json").read_bytes() == (s2 / "sweep.json").read_bytes()
    assert (s1 / "sweep.csv").read_bytes() == (s2 / "sweep.csv").read_bytes()


def test_sweep_workers_match_sequential(tmp_path):
    cfg_seq = write_config(tmp_path, SWEEP_CONFIG, name="seq.cfg")
    parallel = SWEEP_CONFIG.replace("seed = 17", "seed = 17\nworkers = 2")
    cfg_par = write_config(tmp_path, parallel, name="par.cfg")
    a, b = tmp_path / "seq", tmp_path / "par"
    assert main(["sweep", str(cfg_seq), "--output-dir", str(a)]) == EXIT_OK
    assert main(["sweep", str(cfg_par), "--output-dir", str(b)]) == EXIT_OK
    assert (a / "sweep.csv").read_bytes() == (b / "sweep.csv").read_bytes()


def test_seed_override_changes_mask(tmp_path):
    cfg_path = write_config(tmp_path, BASE_CONFIG)
    out1, out2 = tmp_path / "one", tmp_path / "two"
    assert main(["certify", str(cfg_path), "--output-dir", str(out1)]) == EXIT_OK
    assert main(["certify", str(cfg_path), "--output-dir", str(out2), "--seed", "99"]) == EXIT_OK
    a = json.loads((out1 / "report.json").read_text())
    b = json.loads((out2 / "report.json").read_text())
    assert a["seed"] != b["seed"]


def test_main_builds_its_parser_once_and_parses_as_before(tmp_path, monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    cli._parser.cache_clear()
    try:
        cfg_path = write_config(tmp_path, BASE_CONFIG)
        for seed in ("99", "7"):
            out = tmp_path / seed
            assert main(["certify", str(cfg_path), "--output-dir", str(out),
                         "--seed", seed]) == EXIT_OK
            assert json.loads((out / "report.json").read_text())["seed"] == int(seed)
            assert main(["audit", str(out / "report.json")]) == EXIT_OK
        assert main(["certify", "/nonexistent/run.cfg"]) == EXIT_CONFIG
        capsys.readouterr()
        for argv, code in ((["--help"], 0), (["certify", "--help"], 0), ([], 2),
                           (["certify", str(cfg_path), "--seed", "x"], 2)):
            with pytest.raises(SystemExit) as stop:
                main(argv)
            assert stop.value.code == code
        out, err = capsys.readouterr()
        assert "usage: obscert [-h] {certify,sweep,verify,audit}" in out
        assert "--seed SEED" in out and "override the config seed" in out
        assert "the following arguments are required: command" in err
        assert "argument --seed: invalid int value: 'x'" in err
        # one build: the parser and its four sub-command parsers
        assert built == ["obscert", "obscert certify", "obscert sweep", "obscert verify",
                         "obscert audit"]
    finally:
        cli._parser.cache_clear()


# ---------------------------------------------------------------------------
# One |f| field per model and grid
# ---------------------------------------------------------------------------

CONFIG_2D = """
[run]
seed = 5
[domain]
kind = box
extent = 1.0, 1.0
[grid]
cells = 128, 128
[function]
kind = trig
modes = 1 2:1.0:0.3; 2 -1:0.5:0.9
[set]
kind = random
fraction = 0.1
[hypotheses]
gevrey = auto
doubling = estimate
[certify]
search = 2
"""


def _count_full_grid_evaluations(monkeypatch, cells):
    """Wrap TrigSum.grid_values, the one full-grid entry, and TrigSum.evaluate
    at the full grid's points outside it; return the list of models either
    evaluated on the grid of the given cell counts."""
    seen, inside = [], threading.local()
    grid_values, evaluate = TrigSum.grid_values, TrigSum.evaluate

    def counting_grid(self, grid):
        if grid.cells == cells:
            seen.append(self)
        inside.active = True
        try:
            return grid_values(self, grid)
        finally:
            inside.active = False

    def counting_points(self, points):
        if np.shape(points)[:-1] == cells and not getattr(inside, "active", False):
            seen.append(self)
        return evaluate(self, points)

    monkeypatch.setattr(TrigSum, "grid_values", counting_grid)
    monkeypatch.setattr(TrigSum, "evaluate", counting_points)
    return seen


def test_certify_2d_evaluates_f_on_the_full_grid_once(tmp_path, monkeypatch):
    # hypothesis derivation and checks, the doubling estimate, the certifier
    # and the oracle all read one field
    seen = _count_full_grid_evaluations(monkeypatch, (128, 128))
    cfg = write_config(tmp_path, CONFIG_2D)
    out = tmp_path / "out"
    assert main(["certify", str(cfg), "--output-dir", str(out)]) == EXIT_OK
    assert json.loads((out / "report.json").read_text())["soundness"]["passed"] is True
    assert len(seen) == 1


@pytest.mark.parametrize("domain", ["kind = box\nextent = 1.0, 1.0",
                                    "kind = torus\nextent = 1.0, 1.0",
                                    "kind = disk\nradius = 0.5"], ids=["box", "torus", "disk"])
@pytest.mark.parametrize("function", [
    "kind = trig\nmodes = 1 2:1.0:0.3; 2 -1:0.5:0.9",
    "kind = gaussian\ncenter = 0.45, 0.55\nwidth = 0.25",
], ids=["trig", "gaussian"])
def test_certify_and_verify_on_a_512_grid_never_build_the_grid_points(
        tmp_path, monkeypatch, domain, function):
    def no_points(grid):
        raise AssertionError(f"Grid.points built for {grid.cells}")

    monkeypatch.setattr(Grid, "points", property(no_points))
    text = (CONFIG_2D.replace("cells = 128, 128", "cells = 512, 512")
            .replace("kind = box\nextent = 1.0, 1.0", domain)
            .replace("kind = trig\nmodes = 1 2:1.0:0.3; 2 -1:0.5:0.9", function))
    cfg = write_config(tmp_path, text)
    assert main(["verify", str(cfg), "--output-dir", str(tmp_path / "verify")]) == EXIT_OK
    out = tmp_path / "certify"
    assert main(["certify", str(cfg), "--output-dir", str(out)]) == EXIT_OK
    assert json.loads((out / "report.json").read_text())["soundness"]["passed"] is True


@pytest.mark.parametrize("workers", [1, 2])
def test_mode_scale_sweep_evaluates_each_rows_own_model(tmp_path, monkeypatch, workers):
    seen = _count_full_grid_evaluations(monkeypatch, (128,))
    cfg = _sweep_config(tmp_path, "mode-scale", "sweep.cfg", workers)
    out = tmp_path / "out"
    assert main(["sweep", str(cfg), "--output-dir", str(out)]) == EXIT_OK
    # one full-grid evaluation per row, each of that row's scaled model
    assert sorted(f.modes[0].freq for f in seen) == [(1,), (2,), (3,)]


@pytest.mark.parametrize("function", [
    "kind = trig\nmodes = 1 2:1.0:0.3; 2 -1:0.5:0.9",
    "kind = gaussian\ncenter = 0.45, 0.55\nwidth = 0.15",
], ids=["trig", "gaussian"])
def test_verify_rejects_a_delta_inflated_tenfold_2d(tmp_path, function):
    # negative control: the derived certificate passes, delta x10 must exit 3
    text = CONFIG_2D.replace("kind = trig\nmodes = 1 2:1.0:0.3; 2 -1:0.5:0.9", function)
    cfg = RunConfig.load(write_config(tmp_path, text, name="derive.cfg"))
    domain = build_domain(cfg)
    gc = derive_gevrey(build_function(cfg, domain), domain, build_grid(cfg, domain))
    for delta, code in ((gc.delta, EXIT_OK), (10.0 * gc.delta, EXIT_HYPOTHESIS)):
        run = write_config(
            tmp_path, text.replace("gevrey = auto", f"gevrey = {gc.M!r}, {delta!r}, 1.0"),
            name=f"verify-{code}.cfg",
        )
        out = tmp_path / f"out-{code}"
        assert main(["verify", str(run), "--output-dir", str(out)]) == code
