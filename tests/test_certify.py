import math
import time

import numpy as np
import pytest

import obscert.certify as certify_module
from obscert.certify import (
    STEP_KINDS,
    ObservabilityCertificate,
    certify_auto,
    certify_sigma1,
    certify_sigma_gt1,
    certify_ucp,
    choose_r_sigma1,
    choose_r_sigma_gt1,
    empirical_ratio,
    hat_radius,
    propagate_doubling,
    soundness_check,
)
from obscert.errors import ConfigError, HypothesisError, InfeasibleError
from obscert.functions import (
    DoublingCertificate,
    Gaussian,
    GevreyCertificate,
    Polynomial1D,
    TrigSum,
    UcpCertificate,
    default_radii,
    derive_gevrey,
    estimate_doubling,
    verify_ucp,
)
from obscert.geometry import Domain, Grid, MeasurableSet, cover_domain
from obscert.interp import poly_sup_bound
from obscert.logspace import LOG2, NEG_INF

ONE_D = Domain.box([1.0])


def grid_1d(cells=1024):
    return Grid(ONE_D, (cells,))


# ---------------------------------------------------------------------------
# Propagation factor
# ---------------------------------------------------------------------------

def test_propagate_no_concentric_at_r0():
    dc = DoublingCertificate(3.0, 0.5)
    chain = [np.array([0.1]), np.array([0.3]), np.array([0.5])]
    prop = propagate_doubling(dc, 0.5, chain)
    assert prop.concentric_steps == 0
    assert math.exp(prop.log_factor) == pytest.approx(2 * 3.0 ** 2, rel=1e-12)


def test_propagate_plugin_example():
    dc = DoublingCertificate(2.0, 1.0)
    chain = [np.array([0.1 * i]) for i in range(5)]  # K = 4
    prop = propagate_doubling(dc, 1.0 / 8.0, chain)
    assert prop.chain_steps == 4
    assert prop.concentric_steps == 3
    assert prop.r_hat == pytest.approx(1.0)
    assert math.exp(prop.log_factor) == pytest.approx(256.0, rel=1e-12)


def test_propagate_halving_doubles_factor():
    dc = DoublingCertificate(2.0, 1.0)
    chain = [np.array([0.0]), np.array([0.2])]
    for r in (0.3, 0.11, 0.07):
        a = propagate_doubling(dc, r, chain).log_factor
        b = propagate_doubling(dc, r / 2, chain).log_factor
        assert b - a == pytest.approx(math.log(2.0), rel=1e-12)


def test_propagate_rejects_radius_above_r0():
    dc = DoublingCertificate(2.0, 0.25)
    with pytest.raises(ConfigError):
        hat_radius(dc, 0.3)


# ---------------------------------------------------------------------------
# Radius choices
# ---------------------------------------------------------------------------

def test_choose_r_sigma1_examples():
    assert choose_r_sigma1(5, 1.0, 1.0, 1.0, 0.4) == pytest.approx(0.4)
    assert choose_r_sigma1(9, 2.0 ** -10, 1.0, 1.0, 0.4) == pytest.approx(0.2)
    rs = [choose_r_sigma1(n, 0.01, 1.0, 1.0, 0.4) for n in range(4, 40)]
    assert all(b > a for a, b in zip(rs, rs[1:]))
    assert rs[-1] < 0.4


def test_choose_r_rejects_null_data():
    with pytest.raises(InfeasibleError):
        choose_r_sigma1(4, 0.0, 1.0, 1.0, 0.4)


def test_master_bound_degenerate_remainder():
    pb = poly_sup_bound(2, 0.5, 0.1, 1.0)
    inputs = {"log_total_factor": 1.5, "log_poly": pb.log_value, "log_remainder": NEG_INF}
    rhs = STEP_KINDS["master-inequality"].derive(inputs, {})["rhs_log"]
    assert rhs == pytest.approx(1.5 + pb.log_value, rel=1e-12)


# ---------------------------------------------------------------------------
# sigma = 1 branch
# ---------------------------------------------------------------------------

def test_sigma1_prescribed_degree_and_gamma():
    # kappa = 4: degree floor 2*2+2 = 6, exponent 2/7
    g = grid_1d()
    e = MeasurableSet.from_box(g, [(0.0, 0.3)])
    f = TrigSum.sine([1])
    dc = DoublingCertificate(4.0, 0.5)
    gc = derive_gevrey(f, ONE_D, g)
    cert = certify_sigma1(f, e, dc, gc, search=2)
    assert cert.aux["n_base"] == 6.0
    assert cert.aux["gamma"] == pytest.approx(2.0 / 7.0, rel=1e-12)
    assert cert.aux["prescribed_n"] == 6.0
    assert cert.n >= 6
    assert cert.log_constant <= cert.aux["prescribed_log_C"] + 1e-12


def test_sigma1_constant_function_sound():
    g = grid_1d(512)
    rng = np.random.default_rng(1)
    e = MeasurableSet.random(g, 0.2, rng)
    f = Polynomial1D((1.0,))
    dc, _ = estimate_doubling(f, ONE_D, g)
    gc = derive_gevrey(f, ONE_D, g)
    cert = certify_sigma1(f, e, dc, gc, search=4)
    ratio = empirical_ratio(f, e)
    assert ratio.ratio == pytest.approx(1.0)
    check = soundness_check(cert, ratio)
    assert check.passed
    assert cert.log_constant >= 0.0


def test_sigma1_sine_full_pipeline_sound():
    g = grid_1d()
    f = TrigSum.sine([1])
    e = MeasurableSet.from_box(g, [(0.0, 0.1)])
    dc, _ = estimate_doubling(f, ONE_D, g)
    gc = derive_gevrey(f, ONE_D, g)
    cert = certify_sigma1(f, e, dc, gc)
    ratio = empirical_ratio(f, e)
    assert soundness_check(cert, ratio).passed
    assert cert.branch == "sigma1"
    # master inequality dominates the domain sup
    master = [s for s in cert.trace if s.step == "master-inequality"][0]
    assert master.holds


def test_sigma1_rejects_sigma_gt1_certificate():
    g = grid_1d(256)
    f = TrigSum.sine([1])
    e = MeasurableSet.from_box(g, [(0.0, 0.5)])
    dc = DoublingCertificate(2.0, 0.5)
    gc = GevreyCertificate(1.0, 0.1, 2.0)
    with pytest.raises(ConfigError):
        certify_sigma1(f, e, dc, gc)


def test_sigma1_rejects_null_data_set():
    g = grid_1d(256)
    f = TrigSum.sine([2])
    mask = np.zeros(g.cells, dtype=bool)
    mask[255] = True  # cell centre 0.4990; sin(4 pi x) ~ -0.012 there, not 0
    e = MeasurableSet(g, mask)
    dc = DoublingCertificate(2.0, 0.5)
    gc = derive_gevrey(f, ONE_D, g)
    # a set where f vanishes identically on all sampled cells
    zero = Polynomial1D((0.0, 1.0))
    mask2 = np.zeros(g.cells, dtype=bool)
    mask2[0] = True
    e2 = MeasurableSet(g, mask2)
    cert_ok = certify_sigma1(f, e, dc, gc, search=4)
    assert cert_ok.log_constant >= 0.0
    gc2 = derive_gevrey(zero, ONE_D, g)
    dc2 = DoublingCertificate(2.0, 0.5)
    # zero(0-th cell centre) = h/2 > 0, so this still certifies; shrink to a
    # genuinely-null set via a function that vanishes there exactly
    vanishing = TrigSum.sine([1], phase=-2 * math.pi * g.h / 2)  # zero at first centre
    with pytest.raises(InfeasibleError):
        certify_sigma1(vanishing, e2, dc2, derive_gevrey(vanishing, ONE_D, g))


def _three_branch_certs():
    """One certificate per branch on the same function, set and grid."""
    g = grid_1d()
    f = TrigSum.sine([1])
    e = MeasurableSet.from_box(g, [(0.0, 0.2)])
    dc, _ = estimate_doubling(f, ONE_D, g)
    gc = derive_gevrey(f, ONE_D, g)
    probe = verify_ucp(f, UcpCertificate(5.0, 1.0, 0.5), ONE_D, g)
    uc = UcpCertificate(max(2.0 * probe.min_sufficient_a, 0.05), 1.0, 0.5)
    return (
        certify_sigma1(f, e, dc, gc, search=2),
        certify_sigma_gt1(f, e, dc, GevreyCertificate(gc.M, gc.delta, 2.0), search=2),
        certify_ucp(f, e, uc, gc),
    )


GEOMETRY_STEPS = [
    "cover", "pigeonhole-ball", "ray-selection", "point-separation",
    "polynomial-sup-bound", "remainder-bound",
]


def test_trace_has_complete_step_chain():
    sigma1, sigma_gt1, ucp = _three_branch_certs()
    doubling = ["radius-choice", *GEOMETRY_STEPS] + [
        "global-max-slack", "chain-propagation", "concentric-reduction",
        "near-max-point", "propagation-factor", "interpolation-split",
        "master-inequality", "prefactor-split", "assembly", "resolution",
        "degree-search",
    ]
    assert [s.step for s in sigma1.trace] == doubling
    assert [s.step for s in sigma_gt1.trace] == doubling
    assert [s.step for s in ucp.trace] == ["ucp-threshold", "radius-choice", *GEOMETRY_STEPS] + [
        "ucp-propagation", "near-max-point", "interpolation-split",
        "master-inequality", "shape-poly-term", "shape-remainder-term",
        "contraction", "ucp-assembly", "resolution",
    ]
    # the ray selection records the fan it searched: both axis directions
    # in 1D, the full fan in 2D
    domain = Domain.box([1.0, 1.0])
    g = Grid(domain, (64, 64))
    f = TrigSum.of([([1, 0], 1.0, 0.0), ([1, 1], 0.6, 0.5)], 2)
    e = MeasurableSet.random(g, 0.2, np.random.default_rng(3))
    dc, _ = estimate_doubling(f, domain, g)
    plane = certify_sigma1(f, e, dc, derive_gevrey(f, domain, g), search=2)
    assert [s.step for s in plane.trace] == doubling
    for cert, fan in [(sigma1, 2.0), (sigma_gt1, 2.0), (ucp, 2.0), (plane, 64.0)]:
        rays = [s for s in cert.trace if s.step == "ray-selection"]
        assert [s.inputs["n_directions"] for s in rays] == [fan]


def test_aux_key_sets_per_branch():
    sigma1, sigma_gt1, ucp = _three_branch_certs()
    shared = {
        "cover_count", "intersection_measure", "trace_length", "t_max", "gap",
        "data_sup", "r0_eff", "sup_domain", "sup_set", "M", "delta", "sigma",
    }
    doubling = shared | {
        "kappa", "chain_steps", "concentric_steps", "r_hat", "exponent", "log_X",
        "log_A", "log_total_factor", "n_base", "prescribed_n", "prescribed_log_C",
        "prescribed_r",
    }
    assert set(sigma1.aux) == doubling | {"gamma"}
    assert set(sigma_gt1.aux) == doubling | {"B", "eta", "shape_factor_log"}
    assert set(ucp.aux) == shared | {
        "C0", "log_C1", "xi", "n0", "gamma", "m_star", "log_D", "contraction_factor",
    }


def _break_step(monkeypatch, name, times=None):
    """Build trace step `name` with rhs_log one below lhs_log, the first
    `times` times it is built (every time when None)."""
    real = certify_module.TraceStep
    broken = []

    def make(step, detail, inputs=None, outputs=None):
        built = real(step, detail, dict(inputs or {}), dict(outputs or {}))
        if step == name and (times is None or len(broken) < times):
            built.outputs["rhs_log"] = built.outputs["lhs_log"] - 1.0
            broken.append(built)
        return built

    monkeypatch.setattr(certify_module, "TraceStep", make)
    return broken


def _sine_problem():
    g = grid_1d()
    f = TrigSum.sine([1])
    e = MeasurableSet.from_box(g, [(0.0, 0.2)])
    dc, _ = estimate_doubling(f, ONE_D, g)
    return g, f, e, dc, derive_gevrey(f, ONE_D, g)


def test_runtime_check_rejects_a_failing_non_master_step(monkeypatch):
    g, f, e, dc, gc = _sine_problem()
    probe = verify_ucp(f, UcpCertificate(5.0, 1.0, 0.5), ONE_D, g)
    uc = UcpCertificate(max(2.0 * probe.min_sufficient_a, 0.05), 1.0, 0.5)
    _break_step(monkeypatch, "chain-propagation")
    with pytest.raises(InfeasibleError, match="'chain-propagation' does not hold"):
        certify_sigma1(f, e, dc, gc, search=2)
    with pytest.raises(InfeasibleError, match="'chain-propagation' does not hold"):
        certify_sigma_gt1(f, e, dc, GevreyCertificate(gc.M, gc.delta, 2.0), search=2)
    _break_step(monkeypatch, "ucp-propagation")
    with pytest.raises(InfeasibleError, match="'ucp-propagation' does not hold"):
        certify_ucp(f, e, uc, gc)


def test_runtime_check_makes_one_degree_infeasible(monkeypatch):
    g, f, e, dc, gc = _sine_problem()
    whole = certify_sigma1(f, e, dc, gc, search=2)
    broken = _break_step(monkeypatch, "chain-propagation", times=1)
    cert = certify_sigma1(f, e, dc, gc, search=2)
    assert len(broken) == 1
    # the prescribed degree failed, the search went on past it
    assert "prescribed_n" not in cert.aux
    assert cert.n > cert.aux["n_base"] == whole.aux["n_base"]
    assert all(s.holds is not False for s in cert.trace)


def test_runtime_check_rejects_an_unverified_ucp_certificate():
    # a far below the verified value: the master inequality still holds on
    # this function, only the propagation step shows the certificate is wrong
    g, f, e, _, gc = _sine_problem()
    uc = UcpCertificate(1e-4, 1.0, 0.5)
    assert not verify_ucp(f, uc, ONE_D, g).passed
    with pytest.raises(InfeasibleError, match="'ucp-propagation' does not hold"):
        certify_ucp(f, e, uc, gc)


def test_trace_steps_compose():
    g = grid_1d()
    f = TrigSum.of([([1], 1.0, 0.0), ([2], 0.5, 0.3)], 1)
    rng = np.random.default_rng(5)
    e = MeasurableSet.random(g, 0.15, rng)
    dc, _ = estimate_doubling(f, ONE_D, g)
    gc = derive_gevrey(f, ONE_D, g)
    cert = certify_sigma1(f, e, dc, gc, search=4)
    for step in cert.trace:
        if step.holds is not None:
            assert step.holds, f"step {step.step} fails: {step.outputs}"


def test_sigma1_monotone_in_set_size():
    g = grid_1d()
    f = TrigSum.sine([1])
    dc, _ = estimate_doubling(f, ONE_D, g)
    gc = derive_gevrey(f, ONE_D, g)
    logs = []
    for stride in (2, 4, 8, 16):
        e = MeasurableSet.strided(g, stride)
        cert = certify_sigma1(f, e, dc, gc, search=8)
        logs.append(cert.log_constant)
    assert all(a <= b + 1e-9 for a, b in zip(logs, logs[1:]))


# ---------------------------------------------------------------------------
# sigma > 1 branch
# ---------------------------------------------------------------------------

def test_sigma_gt1_degree_floor_example():
    # kappa=2, delta=1, r0_eff=1/2, sigma=2: B = 2, n1 = 5, eta = 1/6
    g = grid_1d()
    f = TrigSum.sine([1])
    e = MeasurableSet.from_box(g, [(0.0, 0.3)])
    dc = DoublingCertificate(2.0, 0.5)
    gc = GevreyCertificate(1.0, 1.0, 2.0)
    cert = certify_sigma_gt1(f, e, dc, gc, search=3)
    assert cert.aux["B"] == pytest.approx(2.0, rel=1e-12)
    assert cert.aux["n_base"] == 5.0
    assert cert.aux["eta"] == pytest.approx(1.0 / 6.0, rel=1e-12)


def test_sigma_gt1_b_vanishes_near_sigma_one():
    g = grid_1d(256)
    f = TrigSum.sine([1])
    e = MeasurableSet.from_box(g, [(0.0, 0.5)])
    dc = DoublingCertificate(2.0, 0.5)
    gc = GevreyCertificate(1.0, 0.25, 1.01)  # delta < r0_eff
    cert = certify_sigma_gt1(f, e, dc, gc, search=2)
    assert cert.aux["B"] < 1e-10
    assert cert.aux["n_base"] == 2 * math.floor(dc.log2_kappa) + 1


def test_sigma_gt1_radius_below_bound_and_sound():
    g = grid_1d()
    f = TrigSum.of([([1], 1.0, 0.0), ([3], 0.3, 1.0)], 1)
    rng = np.random.default_rng(8)
    e = MeasurableSet.random(g, 0.2, rng)
    dc, _ = estimate_doubling(f, ONE_D, g)
    base = derive_gevrey(f, ONE_D, g)
    gc = GevreyCertificate(base.M, base.delta, 2.0)  # sigma=2 is also valid
    cert = certify_sigma_gt1(f, e, dc, gc)
    r0_eff = cert.aux["r0_eff"]
    assert cert.r <= r0_eff * (1 + 1e-12)
    # independent recomputation of the radius rule at the certified degree
    want = choose_r_sigma_gt1(
        cert.n, cert.aux["sup_set"], cert.aux["sup_domain"], gc.M, gc.delta, gc.sigma
    )
    assert cert.r == pytest.approx(want, rel=1e-12)
    assert soundness_check(cert, empirical_ratio(f, e)).passed


# ---------------------------------------------------------------------------
# unique-continuation branch
# ---------------------------------------------------------------------------

def test_ucp_rejects_hypothesis_violation():
    g = grid_1d(256)
    f = TrigSum.sine([1])
    e = MeasurableSet.from_box(g, [(0.0, 0.5)])
    uc = UcpCertificate(1.0, 1.0, 0.5)
    gc = GevreyCertificate(1.0, 0.15, 2.0)  # sigma = 2 >= 1 + 1/b = 2
    with pytest.raises(HypothesisError):
        certify_ucp(f, e, uc, gc)


def test_ucp_radius_rule():
    # b = 1, n+1 = 40 -> r = 0.25 (plain formula check)
    assert 10.0 * (1.0 / 40.0) ** (1.0 / 1.0) == pytest.approx(0.25)
    # contraction exponent at b=1, sigma=1.5
    assert 1.0 / 1.0 - 1.5 + 1.0 == pytest.approx(0.5)


def test_ucp_full_run_contraction_and_soundness():
    g = grid_1d()
    f = TrigSum.sine([1])
    e = MeasurableSet.from_box(g, [(0.2, 0.45)])
    gc = derive_gevrey(f, ONE_D, g)
    rep = verify_ucp(f, UcpCertificate(5.0, 1.0, 0.5), ONE_D, g)
    a = max(2.0 * rep.min_sufficient_a, 0.05)
    uc = UcpCertificate(a, 1.0, 0.5)
    assert verify_ucp(f, uc, ONE_D, g).passed
    cert = certify_ucp(f, e, uc, gc)
    assert cert.branch == "ucp"
    assert cert.aux["contraction_factor"] <= 0.5
    assert cert.n == math.floor(cert.aux["xi"])
    assert cert.r <= cert.aux["r0_eff"] * (1 + 1e-9)
    assert soundness_check(cert, empirical_ratio(f, e)).passed
    contraction = [s for s in cert.trace if s.step == "contraction"][0]
    assert contraction.holds


def test_ucp_two_dimensional():
    domain = Domain.box([1.0, 1.0])
    g = Grid(domain, (256, 256))
    f = TrigSum.of([([1, 0], 1.0, 0.0), ([0, 1], 0.6, 0.4)], 2)
    gc = derive_gevrey(f, domain, g)
    probe = verify_ucp(f, UcpCertificate(10.0, 1.0, 0.5), domain, g)
    uc = UcpCertificate(max(1.5 * probe.min_sufficient_a, 0.04), 1.0, 0.5)
    assert verify_ucp(f, uc, domain, g).passed
    rng = np.random.default_rng(4)
    e = MeasurableSet.random(g, 0.2, rng)
    cert = certify_ucp(f, e, uc, gc)
    assert cert.aux["contraction_factor"] <= 0.5
    assert soundness_check(cert, empirical_ratio(f, e)).passed


def test_ucp_sigma_between_one_and_limit():
    g = grid_1d()
    f = TrigSum.sine([1])
    rng = np.random.default_rng(12)
    e = MeasurableSet.random(g, 0.3, rng)
    base = derive_gevrey(f, ONE_D, g)
    gc = GevreyCertificate(base.M, base.delta, 1.3)  # 1.3 < 1 + 1/b = 2
    uc = UcpCertificate(0.12, 1.0, 0.5)
    assert verify_ucp(f, uc, ONE_D, g).passed
    cert = certify_ucp(f, e, uc, gc)
    assert cert.aux["contraction_factor"] <= 0.5
    assert soundness_check(cert, empirical_ratio(f, e)).passed


@pytest.mark.parametrize("uc", [
    UcpCertificate(1.0, 400.0, 0.5),   # 10^b overflows a float
    UcpCertificate(1000.0, 1.0, 0.5),  # e^(a/b) overflows a float
], ids=["b-400", "a-1000"])
def test_ucp_threshold_beyond_float_range_is_infeasible(uc):
    g = grid_1d(256)
    f = TrigSum.sine([1])
    e = MeasurableSet.from_box(g, [(0.1, 0.6)])
    assert verify_ucp(f, uc, ONE_D, g).passed
    with pytest.raises(InfeasibleError, match="beyond desk scale"):
        certify_ucp(f, e, uc, derive_gevrey(f, ONE_D, g))


def test_ucp_threshold_whose_float_product_overflows_under_the_cap():
    # e^(a/b) = e^769 overflows, but b^(1/b) brings m* back to about 300: the
    # threshold comes from log space and the run goes on to the geometry
    g = grid_1d(256)
    f = TrigSum.sine([1])
    e = MeasurableSet.from_box(g, [(0.1, 0.6)])
    with pytest.raises(InfeasibleError, match="below grid resolution"):
        certify_ucp(f, e, UcpCertificate(10.0, 0.013, 0.5), derive_gevrey(f, ONE_D, g))


def test_ucp_factor_whose_rho_to_the_b_underflows_is_infeasible():
    derive = STEP_KINDS["ucp-propagation"].derive
    assert derive({"a": 1.0, "b": 2.0, "rho": 0.5}, {})["log_factor"] == LOG2 + 4.0
    with pytest.raises(InfeasibleError, match="overflows"):
        derive({"a": 1.0, "b": 400.0, "rho": 1e-3}, {})  # rho^b underflows to 0
    with pytest.raises(InfeasibleError, match="overflows"):
        derive({"a": 1e300, "b": 2.0, "rho": 1e-5}, {})  # a / rho^b overflows


# ---------------------------------------------------------------------------
# The step table's checks
# ---------------------------------------------------------------------------

def _relative(rhs):
    return 1e-9 * max(1.0, abs(rhs))


# The tolerance each inequality kind was decided with before the step table:
# the smaller of `TraceStep.holds` (1e-9 max(1, |rhs|)) and the kind's own
# inline check, where it had one.  The radius checks compared r with
# r0_eff (1 + 1e-12) and r0_eff (1 + 1e-9); log(1 + x) < x bounds them.
OLD_TOLERANCE = {
    "pigeonhole-ball": _relative,
    "near-max-point": _relative,
    "interpolation-split": _relative,
    "global-max-slack": _relative,
    "chain-propagation": _relative,
    "concentric-reduction": _relative,
    "ucp-propagation": _relative,
    "master-inequality": lambda rhs: 0.0,
    "radius-choice/sigma-gt1": lambda rhs: 1e-12,
    "radius-choice/ucp": lambda rhs: 1e-9,
    "shape-poly-term": lambda rhs: 1e-9,
    "shape-remainder-term": lambda rhs: 1e-9,
    "contraction": lambda rhs: 1e-12,
    "assembly": _relative,
}
RHS_SAMPLES = [-745.0, -3.0, -LOG2, 0.0, 0.5, 1.0, 7.0, 1e3, 1e5]


def test_every_inequality_kind_is_decided_no_looser_than_before():
    checked = {name for name, kind in STEP_KINDS.items() if kind.tol is not None}
    assert checked == set(OLD_TOLERANCE)
    for name in checked:
        kind, old = STEP_KINDS[name], OLD_TOLERANCE[name]
        lk, rk = ("identity_lhs", "identity_rhs") if kind.identity else ("lhs_log", "rhs_log")
        for rhs in RHS_SAMPLES:
            assert max(kind.tol[0], kind.tol[1] * abs(rhs)) <= old(rhs), (name, rhs)
            beyond = math.nextafter(rhs + old(rhs), math.inf)
            assert kind.failure({lk: beyond, rk: rhs}) is not None, (name, rhs)
            assert kind.failure({lk: rhs, rk: rhs}) is None, (name, rhs)
            if kind.identity:
                below = math.nextafter(rhs - old(rhs), -math.inf)
                assert kind.failure({lk: below, rk: rhs}) is not None, (name, rhs)


def test_value_steps_claim_no_inequality():
    for name, kind in STEP_KINDS.items():
        if kind.tol is None:
            assert kind.failure({}) is None, name


# ---------------------------------------------------------------------------
# Empirical ratio and soundness
# ---------------------------------------------------------------------------

def test_empirical_ratio_constant():
    g = grid_1d(256)
    e = MeasurableSet.from_box(g, [(0.3, 0.6)])
    r = empirical_ratio(Polynomial1D((1.0,)), e)
    assert r.ratio == pytest.approx(1.0)


def test_empirical_ratio_argmax_containment():
    g = grid_1d()
    e = MeasurableSet.from_box(g, [(0.2, 0.3)])
    r = empirical_ratio(TrigSum.sine([1]), e)
    assert r.ratio == pytest.approx(1.0, abs=1e-6)


def test_empirical_ratio_monotone_section():
    g = grid_1d()
    e = MeasurableSet.from_box(g, [(0.0, 0.05)])
    r = empirical_ratio(TrigSum.sine([1]), e)
    centers = g.axis_centers[0]
    c_star = centers[centers <= 0.05].max()
    want = (
        max(np.abs(math.sin(2 * math.pi * c) ) for c in centers)
        / math.sin(2 * math.pi * c_star)
    )
    assert r.ratio == pytest.approx(want, rel=1e-12)
    assert r.ratio == pytest.approx(1.0 / math.sin(0.1 * math.pi), rel=2e-2)


def test_soundness_negative_control():
    g = grid_1d()
    f = TrigSum.sine([1])
    e = MeasurableSet.from_box(g, [(0.0, 0.05)])
    ratio = empirical_ratio(f, e)
    assert ratio.ratio > 2.0
    corrupted = ObservabilityCertificate(
        branch="sigma1",
        log_constant=math.log(ratio.ratio / 2.0),
        n=4,
        r=0.1,
    )
    assert not soundness_check(corrupted, ratio).passed


# ---------------------------------------------------------------------------
# Auto dispatch
# ---------------------------------------------------------------------------

def test_auto_dispatch():
    g = grid_1d(512)
    f = TrigSum.sine([1])
    e = MeasurableSet.from_box(g, [(0.0, 0.4)])
    dc, _ = estimate_doubling(f, ONE_D, g)
    gc = derive_gevrey(f, ONE_D, g)
    cert = certify_auto(f, e, gc, dc=dc, search=2)
    assert cert.branch == "sigma1"
    gc2 = GevreyCertificate(gc.M, gc.delta, 1.5)
    cert2 = certify_auto(f, e, gc2, dc=dc, search=2)
    assert cert2.branch == "sigma-gt1"
    with pytest.raises(ConfigError):
        certify_auto(f, e, gc, branch="ucp")


def test_certify_layer_accepts_a_doubling_constant_below_the_sampled_one():
    # negative control: kappa = 2 is below the sampled ratio; only the
    # hypothesis layer (build_hypotheses, verify_gevrey, verify_ucp) checks
    # certificates, so certify_auto still returns a constant
    g = grid_1d()
    f = Gaussian((0.5,), 0.15)
    dc = DoublingCertificate(2.0, 0.5)
    _, rep = estimate_doubling(f, ONE_D, g, radii=default_radii(ONE_D, dc.r0))
    assert rep.kappa_hat > dc.kappa
    e = MeasurableSet.random(g, 0.2, np.random.default_rng(1))
    cert = certify_auto(f, e, derive_gevrey(f, ONE_D, g), dc=dc, search=4)
    assert math.isfinite(cert.log_constant)


# ---------------------------------------------------------------------------
# Geometry from the set, degree cap
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("domain", [Domain.torus([1.0, 1.0]), Domain.disk(0.5)],
                         ids=["torus", "disk"])
def test_certifier_takes_its_geometry_from_the_set(domain):
    g = Grid(domain, (128, 128))
    f = TrigSum.of([([1, 0], 1.0, 0.0), ([1, 1], 0.6, 0.5)], 2)
    e = MeasurableSet.random(g, 0.15, np.random.default_rng(3))
    dc, _ = estimate_doubling(f, domain, g)
    cert = certify_sigma1(f, e, dc, derive_gevrey(f, domain, g), search=2)
    (cover,) = [s for s in cert.trace if s.step == "cover"]
    assert cover.inputs["diameter"] == e.grid.domain.diameter
    assert cert.aux["cover_count"] == len(cover_domain(e.grid.domain, cert.r))


def test_certifiers_reject_the_old_domain_and_grid_arguments():
    g, f, e, dc, gc = _sine_problem()
    uc = UcpCertificate(5.0, 1.0, 0.5)
    for call in (
        lambda: certify_sigma1(f, e, dc, gc, ONE_D, g),
        lambda: certify_sigma_gt1(f, e, dc, gc, ONE_D, g),
        lambda: certify_ucp(f, e, uc, gc, ONE_D, g),
        lambda: certify_auto(f, e, gc, ONE_D, g),
        lambda: empirical_ratio(f, e, ONE_D, g),
    ):
        with pytest.raises(TypeError):
            call()


def _cap_sigma_gt1(sigma):
    g = grid_1d(256)
    e = MeasurableSet.from_box(g, [(0.0, 0.3)])
    certify_sigma_gt1(
        TrigSum.sine([1]), e, DoublingCertificate(2.0, 0.5), GevreyCertificate(1.0, 1.0, sigma)
    )


def _cap_pinned_degree():
    g = grid_1d(256)
    f = TrigSum.sine([1])
    e = MeasurableSet.from_box(g, [(0.0, 0.3)])
    dc, _ = estimate_doubling(f, ONE_D, g)
    certify_sigma1(f, e, dc, derive_gevrey(f, ONE_D, g), n_override=10**8, search=0)


@pytest.mark.parametrize("run", [
    lambda: _cap_sigma_gt1(1.001),   # B = 2^1000
    lambda: _cap_sigma_gt1(1.0001),  # B overflows a float
    _cap_pinned_degree,
], ids=["sigma-1.001", "sigma-1.0001", "pinned-1e8"])
def test_degrees_beyond_the_cap_are_infeasible_at_once(run):
    t0 = time.perf_counter()
    with pytest.raises(InfeasibleError, match="degree"):
        run()
    assert time.perf_counter() - t0 < 1.0


# ---------------------------------------------------------------------------
# 2D battery smoke
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "domain,cells",
    [
        (Domain.box([1.0, 1.0]), (128, 128)),
        (Domain.torus([1.0, 1.0]), (128, 128)),
        (Domain.disk(0.5), (128, 128)),
    ],
)
def test_sigma1_2d_sound(domain, cells):
    g = Grid(domain, cells)
    f = TrigSum.of([([1, 0], 1.0, 0.0), ([1, 1], 0.6, 0.5)], 2)
    rng = np.random.default_rng(3)
    e = MeasurableSet.random(g, 0.15, rng)
    dc, _ = estimate_doubling(f, domain, g)
    gc = derive_gevrey(f, domain, g)
    cert = certify_sigma1(f, e, dc, gc, search=4)
    assert soundness_check(cert, empirical_ratio(f, e)).passed
