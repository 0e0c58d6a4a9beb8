import math
from types import SimpleNamespace

import numpy as np
import pytest

import obscert.eigensum as eigensum_module
from obscert.certify import certify_sigma1, empirical_ratio, soundness_check
from obscert.errors import ConfigError, ResolutionError
from obscert.eigensum import (
    EigenSum,
    build_eigensum,
    calibrate_gamma,
    certify_eigensum,
    doubling_growth_study,
    eigensum_study_csv,
    gamma_params,
    l2_inner,
    l2_norm,
    orthogonality_check,
    shape_constant,
)
from obscert.functions import (
    DoublingCertificate,
    FunctionModel,
    GridField,
    TrigSum,
    default_radii,
    derive_gevrey,
    halton_points,
)
from obscert.geometry import Domain, Grid, MeasurableSet

TWO_PI = 2 * math.pi
TORUS_1D = Domain.torus([1.0])
TORUS_2D = Domain.torus([1.0, 1.0])


def torus_grid(cells=1024):
    return Grid(TORUS_1D, (cells,))


# ---------------------------------------------------------------------------
# Construction and eigenvalue grouping
# ---------------------------------------------------------------------------

def test_single_mode_eigenvalue():
    es = build_eigensum([([1], 1.0, 0.0)], 1)
    assert es.m == 1
    assert es.max_eigenvalue == pytest.approx(4 * math.pi ** 2, rel=1e-12)


def test_two_modes_distinct_eigenvalues():
    es = build_eigensum([([1], 1.0, 0.0), ([2], 0.5, 0.1)], 1)
    assert es.m == 2
    assert es.max_eigenvalue == pytest.approx(16 * math.pi ** 2, rel=1e-12)


def test_equal_norm_frequencies_grouped():
    es = build_eigensum([([1, 0], 1.0, 0.0), ([0, 1], 1.0, 0.0)], 2)
    assert es.m == 1


def test_duplicate_mode_rejected():
    with pytest.raises(ConfigError):
        build_eigensum([([1], 1.0, 0.0), ([1], 1.0, 0.0)], 1)


def test_zero_frequency_requires_flag():
    with pytest.raises(ConfigError):
        build_eigensum([([0], 1.0, 0.5)], 1)
    es = build_eigensum([([0], 1.0, 0.5), ([1], 1.0, 0.0)], 1, allow_constant=True)
    assert es.m == 2


def test_eigensum_is_its_trig_sum():
    modes = [([1, 0], 1.0, 0.2), ([1, 1], 0.5, 0.4), ([0, 2], 0.3, 1.1)]
    es = build_eigensum(modes, 2)
    trig = TrigSum.of(modes, 2)
    assert isinstance(es, TrigSum)
    assert (es.modes, es.dimension, es.kind) == (trig.modes, trig.dimension, trig.kind)
    assert es.max_freq_norm == trig.max_freq_norm == 2.0
    pts = np.random.default_rng(8).uniform(0, 1, size=(200, 2))
    assert np.array_equal(es.evaluate(pts), trig.evaluate(pts))


@pytest.mark.parametrize("build,match", [
    (lambda: build_eigensum([([1], 1.0, 0.0), ([1], 1.0, 0.0)], 1), "duplicate identical mode"),
    (lambda: build_eigensum([([0], 1.0, 0.5)], 1), "zero frequency requires allow_constant"),
    (lambda: build_eigensum([([1, 0], 1.0, 0.0)], 1), "dimension mismatch"),
    (lambda: EigenSum(TrigSum.sine([1, 0]).modes, 1), "dimension mismatch"),
    (lambda: build_eigensum([], 1), "a trigonometric sum needs at least one mode"),
    (lambda: EigenSum((), 1, allow_constant=True), "a trigonometric sum needs at least one mode"),
], ids=["repeated", "zero-frequency", "wrong-dimension", "wrong-dimension-direct", "empty",
        "empty-direct"])
def test_malformed_sum_raises_config_error(build, match):
    with pytest.raises(ConfigError, match=match):
        build()


def test_laplacian_identity_at_random_points():
    # -Lap h = sum lambda_i phi_i, via exact axis second derivatives
    rng = np.random.default_rng(6)
    es = build_eigensum([([1], 1.0, 0.2), ([3], 0.4, 1.0), ([5], 0.25, 2.2)], 1)
    pts = rng.uniform(0, 1, size=(1000, 1))
    lap = -es.directional_derivative(pts, np.array([1.0]), 2)
    want = es.laplace_power(1).evaluate(pts)
    assert np.allclose(lap, want, rtol=1e-8, atol=1e-8 * np.max(np.abs(want)))


def test_laplacian_identity_2d():
    rng = np.random.default_rng(7)
    es = build_eigensum([([1, 0], 1.0, 0.0), ([1, 1], 0.5, 0.4), ([2, 1], 0.3, 1.1)], 2)
    pts = rng.uniform(0, 1, size=(500, 2))
    lap = -(
        es.directional_derivative(pts, np.array([1.0, 0.0]), 2)
        + es.directional_derivative(pts, np.array([0.0, 1.0]), 2)
    )
    want = es.laplace_power(1).evaluate(pts)
    assert np.allclose(lap, want, rtol=1e-8, atol=1e-8 * np.max(np.abs(want)))


# ---------------------------------------------------------------------------
# Orthogonality and power bounds
# ---------------------------------------------------------------------------

def test_orthogonality_exact_for_aligned_modes():
    g = torus_grid(256)
    u = TrigSum.sine([1])
    v = TrigSum.sine([2])
    assert abs(l2_inner(u, v, g)) <= 1e-14


def test_orthogonality_report_passes():
    g = torus_grid(512)
    es = build_eigensum([([1], 1.0, 0.0), ([2], 0.7, 0.4), ([4], 0.2, 1.3)], 1)
    rep = orthogonality_check(es, g)
    assert rep.passed
    assert rep.max_inner <= 1e-10
    assert rep.pairs_checked == 3


def test_power_bound_single_mode_equality():
    g = torus_grid(512)
    es = build_eigensum([([2], 1.0, 0.3)], 1)
    lam = es.max_eigenvalue
    h_norm = l2_norm(es, g)
    for order in (1, 2, 3, 4):
        lhs = l2_norm(es.laplace_power(order), g)
        assert lhs == pytest.approx(lam ** order * h_norm, rel=1e-10)


def test_orthogonality_rejects_aliased_grid():
    g = torus_grid(16)
    es = build_eigensum([([7], 1.0, 0.0)], 1)
    with pytest.raises(ResolutionError):
        orthogonality_check(es, g)


# ---------------------------------------------------------------------------
# Gamma parameters
# ---------------------------------------------------------------------------

def test_gamma_single_mode():
    es = build_eigensum([([1], 1.0, 0.0)], 1)
    gp = gamma_params(es, 1.0)
    assert gp.gamma == pytest.approx(TWO_PI + 1.0, rel=1e-12)


def test_gamma_two_modes():
    es = build_eigensum([([1], 1.0, 0.0), ([2], 1.0, 0.0)], 1)
    gp = gamma_params(es, 1.0)
    assert gp.gamma == pytest.approx(4 * math.pi + 4 * math.log(2.0) + 1.0, rel=1e-12)


def test_gamma_linear_in_calibration():
    es = build_eigensum([([3], 1.0, 0.0)], 1)
    assert gamma_params(es, 2.0).gamma == pytest.approx(2 * gamma_params(es, 1.0).gamma)


def test_gamma_monotone_in_lambda_and_m():
    g1 = gamma_params(build_eigensum([([1], 1.0, 0.0)], 1)).gamma
    g2 = gamma_params(build_eigensum([([4], 1.0, 0.0)], 1)).gamma
    g3 = gamma_params(build_eigensum([([1], 1.0, 0.0), ([4], 1.0, 0.0)], 1)).gamma
    assert g1 < g2 < g3


# ---------------------------------------------------------------------------
# Growth study
# ---------------------------------------------------------------------------

def family_k(kmax):
    return [build_eigensum([([k], 1.0, 0.0)], 1) for k in range(1, kmax + 1)]


def test_growth_study_eigen_family_within_bound():
    g = torus_grid()
    fam = family_k(6)
    c_cal = calibrate_gamma(fam, TORUS_1D, g)
    study = doubling_growth_study(fam, TORUS_1D, g, calibration=c_cal, slope_bound=c_cal)
    assert not study.flagged
    assert study.slope <= c_cal
    assert all(row.kappa_hat >= 2.0 for row in study.rows)


def test_calibration_estimates_each_member_once(monkeypatch):
    # the first member's kappa_hat needs c >= 3, so c rises five times
    fam = family_k(3)
    target = 3.0 * gamma_params(fam[0]).gamma
    calls = []

    def fake_estimate(f, domain, grid):
        calls.append(f)
        return None, SimpleNamespace(kappa_hat=math.exp(target) if f.modes == fam[0].modes else 2.0)

    monkeypatch.setattr(eigensum_module, "estimate_doubling", fake_estimate)
    c = calibrate_gamma(fam, TORUS_1D, torus_grid(256))
    assert len(calls) == len(fam)
    assert all(f is es for f, es in zip(calls, fam))
    assert c == 1.25 ** 5
    assert gamma_params(fam[0], c / 1.25).gamma < target <= gamma_params(fam[0], c).gamma


def test_one_study_estimates_each_members_doubling_once(monkeypatch, tmp_path):
    # calibration, growth study and study table all read a member's default
    # doubling estimate: one call of default-ladder ball maxima per member,
    # over all its centres at once
    g = torus_grid(256)
    fam = family_k(3)
    msets = [MeasurableSet.random(g, 0.3, np.random.default_rng(4))]
    radii = default_radii(TORUS_1D)
    ladder = sorted(set(radii) | {2.0 * r for r in radii})
    centers_all = halton_points(TORUS_1D, 64)
    passes = []
    ball_maxima = GridField.ball_maxima

    def counting(self, centers, radii):
        if list(radii) == ladder:
            assert np.array_equal(centers, centers_all)
            passes.append(self)
        return ball_maxima(self, centers, radii)

    monkeypatch.setattr(GridField, "ball_maxima", counting)
    c_cal = calibrate_gamma(fam, TORUS_1D, g)
    doubling_growth_study(fam, TORUS_1D, g, calibration=c_cal)
    eigensum_study_csv(tmp_path / "study.csv", fam, msets, g, calibration=c_cal, search=2)
    assert len(passes) == len(fam)
    assert {id(gf) for gf in passes} == {id(GridField.of(es, g)) for es in fam}


def test_growth_study_flags_exponential_control():
    class ExpGrowth(FunctionModel):
        kind = "exp"
        dimension = 1

        def __init__(self, c):
            self.c = c

        def evaluate(self, points):
            x = np.asarray(points)[..., 0]
            return np.exp(self.c * x)

    g = Grid(Domain.box([1.0]), (1024,))
    fam = family_k(6)
    eigen = doubling_growth_study(fam, TORUS_1D, torus_grid())
    controls = [(ExpGrowth(c), c * c) for c in (4.0, 8.0, 16.0, 24.0)]
    bound = 3 * abs(eigen.slope) + 0.05
    study = doubling_growth_study(controls, g.domain, g, slope_bound=bound)
    assert study.flagged


def test_growth_study_csv(tmp_path):
    g = torus_grid(512)
    study = doubling_growth_study(family_k(3), TORUS_1D, g)
    path = tmp_path / "growth.csv"
    study.write_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "lambda,m,gamma,kappa_hat"
    assert len(lines) == 4


# ---------------------------------------------------------------------------
# Eigen-sum certification
# ---------------------------------------------------------------------------

def test_certify_eigensum_half_torus():
    g = torus_grid()
    es = build_eigensum([([1], 1.0, 0.0)], 1)
    e = MeasurableSet.from_box(g, [(0.0, 0.5)])
    cert = certify_eigensum(es, e, gamma_params(es), search=4)
    ratio = empirical_ratio(es, e)
    assert soundness_check(cert, ratio).passed
    assert cert.aux["shape_constant"] >= 1.0
    # growth shape: log C <= c2 * gamma * log(c2 / |E|)
    c2, gam = cert.aux["shape_constant"], cert.aux["gamma"]
    assert cert.log_constant <= c2 * gam * (math.log(c2) - math.log(e.measure)) + 1e-9


def test_certify_eigensum_extends_the_sigma1_certificate():
    g = torus_grid(512)
    es = build_eigensum([([1], 1.0, 0.0), ([3], 0.5, 0.2)], 1)
    e = MeasurableSet.from_box(g, [(0.0, 0.3)])
    gp = gamma_params(es)
    cert = certify_eigensum(es, e, gp, search=2)
    dc = DoublingCertificate(max(2.0, math.exp(gp.gamma)), TORUS_1D.max_ball_radius)
    gc = derive_gevrey(es, TORUS_1D, g)
    base = certify_sigma1(es, e, dc, gc, search=2)
    added = {"gamma", "calibration", "m", "lambda", "shape_constant"}
    assert set(cert.aux) == set(base.aux) | added
    assert {k: v for k, v in cert.aux.items() if k not in added} == {
        k: v for k, v in base.aux.items() if k not in added
    }
    assert cert.aux["gamma"] == gp.gamma and cert.aux["m"] == float(es.m)
    assert [s.to_dict() for s in cert.trace] == [s.to_dict() for s in base.trace]
    assert (cert.branch, cert.log_constant, cert.n, cert.r) == (
        base.branch, base.log_constant, base.n, base.r
    )


def test_certifier_and_oracle_read_the_sums_own_field(monkeypatch):
    g = torus_grid(512)
    es = build_eigensum([([1], 1.0, 0.0), ([3], 0.5, 0.2)], 1)
    e = MeasurableSet.from_box(g, [(0.0, 0.3)])
    field = GridField.of(es, g)
    full_grid = []
    evaluate = TrigSum.evaluate

    def counting(self, points):
        if np.shape(points)[:-1] == g.cells:
            full_grid.append(self)
        return evaluate(self, points)

    monkeypatch.setattr(TrigSum, "evaluate", counting)
    cert = certify_eigensum(es, e, gamma_params(es), search=2)
    ratio = empirical_ratio(es, e)
    assert GridField.of(es, g) is field
    assert full_grid == []
    assert (cert.aux["sup_domain"], cert.aux["sup_set"]) == (ratio.sup_domain, ratio.sup_set)
    assert ratio.sup_domain == field.sup_domain().value


def test_certify_eigensum_two_dimensional():
    g = Grid(TORUS_2D, (192, 192))
    es = build_eigensum([([1, 0], 1.0, 0.0), ([0, 1], 0.7, 0.5), ([1, 1], 0.4, 1.1)], 2)
    rng = np.random.default_rng(15)
    e = MeasurableSet.random(g, 0.2, rng)
    cert = certify_eigensum(es, e, gamma_params(es), search=2)
    ratio = empirical_ratio(es, e)
    assert soundness_check(cert, ratio).passed
    assert es.m == 2  # |k| = 1 twice, |k| = sqrt(2) once


def test_certify_eigensum_full_torus_trivial():
    g = torus_grid(512)
    es = build_eigensum([([1], 1.0, 0.0), ([2], 0.5, 0.7)], 1)
    e = MeasurableSet.full(g)
    cert = certify_eigensum(es, e, gamma_params(es), search=2)
    ratio = empirical_ratio(es, e)
    assert ratio.ratio == pytest.approx(1.0)
    assert soundness_check(cert, ratio).passed


def test_certify_eigensum_shrinking_set_slope():
    g = torus_grid()
    es = build_eigensum([([1], 1.0, 0.0)], 1)
    gp = gamma_params(es)
    logs, shapes = [], []
    for k in (1, 2, 3, 4, 5):
        e = MeasurableSet.from_box(g, [(0.0, 2.0 ** -k)])
        cert = certify_eigensum(es, e, gp, search=4)
        logs.append(cert.log_constant)
        shapes.append(cert.aux["shape_constant"])
    c2 = max(shapes)
    # growth shape with the sweep-wide constant: log C <= c2 g log(c2/|E|)
    for k, log_c in zip((1, 2, 3, 4, 5), logs):
        assert log_c <= c2 * gp.gamma * (math.log(c2) + k * math.log(2.0)) + 1e-9
    # fitted slope of log C against log(1/|E|) stays under c2 * gamma
    xs = np.array([k * math.log(2.0) for k in (1, 2, 3, 4, 5)])
    slope = float(np.polyfit(xs, np.array(logs), 1)[0])
    assert slope <= c2 * gp.gamma + 1e-9


def test_derived_gevrey_for_eigensum():
    g = torus_grid(512)
    es = build_eigensum([([1], 1.0, 0.0), ([3], 0.5, 0.2)], 1)
    gc = derive_gevrey(es, TORUS_1D, g)
    assert gc.sigma == 1.0
    assert gc.delta == pytest.approx(1.0 / (TWO_PI * 3.0), rel=1e-12)
    assert gc.M >= 1.0


def test_derived_gevrey_for_constant_eigensum():
    # every frequency 0: every derivative vanishes, so delta = 1 as for a TrigSum
    es = build_eigensum([([0], 1.0, 0.5)], 1, allow_constant=True)
    gc = derive_gevrey(es, TORUS_1D, torus_grid(256))
    assert (gc.delta, gc.sigma) == (1.0, 1.0)
    assert gc.M == pytest.approx(1.0 / math.sin(0.5), rel=1e-12)


def test_shape_constant_monotone():
    assert shape_constant(0.5, 10.0, 0.5) >= 1.0
    small = shape_constant(5.0, 10.0, 0.25)
    large = shape_constant(50.0, 10.0, 0.25)
    assert small <= large


@pytest.mark.parametrize("empty", ["family", "msets"])
def test_empty_study_raises_config_error(tmp_path, empty):
    g = torus_grid(256)
    family = [] if empty == "family" else [build_eigensum([([2], 1.0, 0.3)], 1)]
    msets = [] if empty == "msets" else [MeasurableSet.from_box(g, [(0.0, 0.5)])]
    with pytest.raises(ConfigError, match="at least one eigen-sum and one set"):
        eigensum_study_csv(tmp_path / "study.csv", family, msets, g, search=2)
    assert not (tmp_path / "study.csv").exists()


def test_study_rejects_a_set_on_another_grid(tmp_path):
    # the doubling column comes from the study grid and the constant from
    # the set's grid, so the two must agree
    family = [build_eigensum([([2], 1.0, 0.3)], 1)]
    msets = [MeasurableSet.random(torus_grid(512), 0.1, np.random.default_rng(1))]
    with pytest.raises(ConfigError, match="study grid"):
        eigensum_study_csv(tmp_path / "study.csv", family, msets, torus_grid(), search=2)
