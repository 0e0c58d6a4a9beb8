"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred.
"""

import json
import math
import time

import numpy as np
import pytest

from obscert.certify import (
    certify_sigma1,
    certify_sigma_gt1,
    certify_ucp,
    empirical_ratio,
    soundness_check,
)
from obscert.eigensum import (
    build_eigensum,
    calibrate_gamma,
    doubling_growth_study,
    eigensum_study_csv,
)
from obscert.errors import HypothesisError
from obscert.functions import (
    Gaussian,
    GevreyCertificate,
    Product,
    TrigSum,
    UcpCertificate,
    derive_gevrey,
    estimate_doubling,
    verify_gevrey,
    verify_ucp,
)
from obscert.geometry import (
    Domain,
    Grid,
    MeasurableSet,
    cover_domain,
    densest_cover_balls,
)
from obscert.interp import NodeSet, poly_sup_bound, remainder_bound, lagrange_eval
from obscert.logspace import LOG2, log_add, log_factorial
from obscert.cli import main

TWO_PI = 2 * math.pi


def _pass(idx: int, message: str) -> None:
    print(f"\nACCEPTANCE {idx}: PASS - {message}")


# ---------------------------------------------------------------------------
# Criterion 1: soundness battery, >= 200 verified pairs, 100% sound, <= 5 min
# ---------------------------------------------------------------------------

def _random_trig(rng, dimension, max_freq=6, n_modes=None):
    n_modes = n_modes or int(rng.integers(1, 4))
    modes = []
    seen = set()
    for _ in range(n_modes):
        while True:
            k = tuple(int(v) for v in rng.integers(-max_freq, max_freq + 1, size=dimension))
            if any(k) and k not in seen:
                seen.add(k)
                break
        modes.append((k, float(rng.uniform(0.3, 1.5)), float(rng.uniform(0, TWO_PI))))
    return TrigSum.of(modes, dimension)


def _random_gaussian(rng, dimension):
    center = tuple(float(rng.uniform(0.25, 0.75)) for _ in range(dimension))
    return Gaussian(center, float(rng.uniform(0.15, 0.4)), float(rng.uniform(0.5, 2.0)))


def _battery_items():
    """(domain, grid, function, branch) quadruples; 200 in total."""
    rng = np.random.default_rng(20250808)
    box1 = Domain.box([1.0])
    torus1 = Domain.torus([1.0])
    box2 = Domain.box([1.0, 1.0])
    torus2 = Domain.torus([1.0, 1.0])
    g_box1 = Grid(box1, (1024,))
    g_torus1 = Grid(torus1, (1024,))
    g_box2 = Grid(box2, (160, 160))
    g_torus2 = Grid(torus2, (160, 160))

    items = []
    for _ in range(70):
        items.append((box1, g_box1, _random_trig(rng, 1), "sigma1"))
    for _ in range(20):
        items.append((box1, g_box1, _random_trig(rng, 1, max_freq=3),
                      "sigma-gt1:" + str(float(rng.choice([1.5, 2.0])))))
    for _ in range(25):
        items.append((box1, g_box1, _random_gaussian(rng, 1), "sigma1"))
    for _ in range(20):
        items.append(
            (box1, g_box1, Product(_random_trig(rng, 1, max_freq=3, n_modes=1),
                                   _random_gaussian(rng, 1)), "sigma1")
        )
    for _ in range(15):
        items.append((box1, g_box1, _random_trig(rng, 1, max_freq=2, n_modes=1), "ucp"))
    for _ in range(25):
        items.append((torus1, g_torus1, _random_trig(rng, 1), "sigma1"))
    for _ in range(15):
        model = _random_trig(rng, 2, max_freq=3) if rng.uniform() < 0.7 else _random_gaussian(rng, 2)
        items.append((box2, g_box2, model, "sigma1"))
    for _ in range(10):
        items.append((torus2, g_torus2, _random_trig(rng, 2, max_freq=3), "sigma1"))
    return items, rng


def test_criterion_1_soundness_battery():
    t0 = time.monotonic()
    items, rng = _battery_items()
    assert len(items) == 200
    sound, total = 0, 0
    for domain, grid, f, branch in items:
        fraction = float(rng.uniform(0.01, 0.5))
        mset = MeasurableSet.random(grid, fraction, rng)
        gc = derive_gevrey(f, domain, grid)
        assert verify_gevrey(f, gc, domain, grid, kmax=8, max_points=1024).passed

        if branch.startswith("sigma-gt1"):
            sigma = float(branch.split(":")[1])
            gc = GevreyCertificate(gc.M, gc.delta, sigma)  # k!^1 <= k!^sigma
            dc, _ = estimate_doubling(f, domain, grid)
            cert = certify_sigma_gt1(f, mset, dc, gc, search=4)
        elif branch == "ucp":
            probe = verify_ucp(f, UcpCertificate(10.0, 1.0, 0.5), domain, grid)
            a = max(1.5 * probe.min_sufficient_a, 0.05)
            uc = UcpCertificate(a, 1.0, 0.5)
            assert verify_ucp(f, uc, domain, grid).passed
            cert = certify_ucp(f, mset, uc, gc)
        else:
            dc, _ = estimate_doubling(f, domain, grid)
            cert = certify_sigma1(f, mset, dc, gc, search=4)

        ratio = empirical_ratio(f, mset)
        total += 1
        if soundness_check(cert, ratio).passed:
            sound += 1
    elapsed = time.monotonic() - t0
    assert total == 200
    assert sound == total, f"{total - sound} unsound certificates out of {total}"
    assert elapsed <= 300.0, f"battery took {elapsed:.1f}s > 5 min"
    _pass(1, f"{sound}/{total} certified pairs sound in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# Criterion 2: interpolation chain oracle, 10^4 node sets, zero violations
# ---------------------------------------------------------------------------

def _lagrange_extended(xs, vals, probes):
    """Direct first-form Lagrange in 80-bit precision, for probes where the
    double evaluation's provable noise floor is not decisive."""
    xs = xs.astype(np.longdouble)
    vals = vals.astype(np.longdouble)
    t = probes.astype(np.longdouble)
    n1 = xs.size
    diff = t[:, None] - xs[None, :]
    prefix = np.ones((t.size, n1 + 1), dtype=np.longdouble)
    for j in range(n1):
        prefix[:, j + 1] = prefix[:, j] * diff[:, j]
    suffix = np.ones((t.size, n1 + 1), dtype=np.longdouble)
    for j in range(n1 - 1, -1, -1):
        suffix[:, j] = suffix[:, j + 1] * diff[:, j]
    denom = np.array(
        [np.prod(xs[i] - np.delete(xs, i)) for i in range(n1)], dtype=np.longdouble
    )
    ell = prefix[:, :n1] * suffix[:, 1:] / denom[None, :]
    return np.asarray(ell @ vals, dtype=np.longdouble)


def test_criterion_2_interpolation_chain_oracle():
    rng = np.random.default_rng(424242)
    cases = 10_000
    probes_per_case = 1_000
    eps = float(np.finfo(float).eps)
    eps_ld = float(np.finfo(np.longdouble).eps)
    viol_denom = viol_poly = viol_remainder = 0
    binding = 0
    total_probes = 0
    for _ in range(cases):
        n = int(rng.integers(1, 21))
        g = float(rng.uniform(0.3, 0.95)) / (n + 1)
        extras = rng.uniform(0, 1, size=n + 1)
        extras *= (1.0 - n * g) / max(extras.sum(), 1e-12) * float(rng.uniform(0.1, 0.999))
        xs = np.cumsum(np.concatenate([[extras[0]], g + extras[1:]]))
        nodes = NodeSet(np.minimum(xs, 1.0), g)

        # brute-force denominator products against i!(n-i)! g^n, in logs
        diffs = nodes.nodes[:, None] - nodes.nodes[None, :]
        np.fill_diagonal(diffs, 1.0)
        brute = np.sum(np.log(np.abs(diffs)), axis=1)
        floor = np.array(
            [log_factorial(i) + log_factorial(n - i) for i in range(n + 1)]
        ) + n * math.log(g)
        if np.any(brute < floor - 1e-9):
            viol_denom += 1

        # dense-probe polynomial sup against the certified bound
        q = int(rng.integers(1, 5))
        f_nodes = np.sin(TWO_PI * q * nodes.nodes)
        data_sup = float(np.max(np.abs(f_nodes)))
        probes = rng.uniform(0.0, 1.0, size=probes_per_case)
        p_vals = lagrange_eval(nodes, f_nodes, probes)
        if data_sup > 0:
            pb = poly_sup_bound(n, 1.0, g, data_sup)
            if np.any(np.log(np.maximum(np.abs(p_vals), 1e-300)) > pb.log_value + 1e-9):
                viol_poly += 1

        # Hermite remainder: |f - P| <= prod|t - x_i|/(n+1)! sup|f^(n+1)|
        # with the exact derivative sup (2 pi q)^(n+1), plus the certified
        # global bound above the pointwise one.  Evaluating P in floats
        # carries a provable error floor of order eps * Lebesgue(t), so a
        # probe failing within that floor is retried in 80-bit precision
        # (2000x smaller floor) before it may count as a violation, and the
        # binding coverage below confirms the inequality itself was
        # exercised, not just the noise allowance.
        err = np.abs(np.sin(TWO_PI * q * probes) - p_vals)
        diffs = np.abs(probes[:, None] - nodes.nodes[None, :])
        log_prod = np.sum(np.log(diffs), axis=1)
        log_ptwise = log_prod - log_factorial(n + 1) + (n + 1) * math.log(TWO_PI * q)
        ptwise = np.exp(np.minimum(log_ptwise, 700.0))

        log_w = -np.array(
            [
                np.sum(np.log(np.abs(x - np.delete(nodes.nodes, i))))
                for i, x in enumerate(nodes.nodes)
            ]
        )
        card = log_prod[:, None] - np.log(diffs) + log_w[None, :]
        m = np.max(card, axis=1, keepdims=True)
        lebesgue = np.exp(
            np.minimum(m[:, 0] + np.log(np.sum(np.exp(card - m), axis=1)), 700.0)
        )
        noise = 2.0 ** 21 * (n + 1) * eps * lebesgue
        noise_ext = 2.0 ** 24 * (n + 1) * eps_ld * lebesgue
        binding += int(np.count_nonzero(noise_ext <= 0.5 * ptwise))
        total_probes += probes.size

        suspect = err > ptwise * (1 + 1e-9) + noise
        if np.any(suspect):
            p_ext = _lagrange_extended(nodes.nodes, f_nodes, probes[suspect])
            f_ext = np.sin(np.longdouble(TWO_PI * q) * probes[suspect].astype(np.longdouble))
            err_ext = np.abs(f_ext - p_ext).astype(float)
            if np.any(err_ext > ptwise[suspect] * (1 + 1e-9) + noise_ext[suspect]):
                viol_remainder += 1

        cert = GevreyCertificate(1.0, 1.0 / (TWO_PI * q), 1.0)
        log_global = remainder_bound(n, 1.0, cert, 1.0)
        if np.any(log_ptwise > log_global + 1e-9):
            viol_remainder += 1

    assert viol_denom == 0, f"{viol_denom} denominator-bound violations"
    assert viol_poly == 0, f"{viol_poly} polynomial-sup violations"
    assert viol_remainder == 0, f"{viol_remainder} remainder violations"
    coverage = binding / total_probes
    assert coverage >= 0.8, f"only {coverage:.1%} of probes exercised the bound"
    _pass(
        2,
        f"{cases} node sets, zero violations in all three oracles "
        f"({coverage:.1%} of remainder probes binding)",
    )


# ---------------------------------------------------------------------------
# Criterion 3: pigeonhole exactness on 10^3 random masks and covers
# ---------------------------------------------------------------------------

def test_criterion_3_pigeonhole_exactness():
    rng = np.random.default_rng(7321)
    checked = 0
    for dim, grid in (
        (1, Grid(Domain.box([1.0]), (512,))),
        (2, Grid(Domain.box([1.0, 1.0]), (64, 64))),
    ):
        trials = 700 if dim == 1 else 300
        for _ in range(trials):
            mset = MeasurableSet.random(grid, float(rng.uniform(0.01, 0.6)), rng)
            r = float(rng.uniform(0.07, 0.5))
            ((count, _, inter),) = densest_cover_balls(mset, [r])
            assert count == len(cover_domain(grid.domain, r))
            best_cells = round(inter / grid.h ** dim)
            assert best_cells * count >= mset.cell_count  # exact, integers
            checked += 1
    assert checked == 1000
    _pass(3, "1000 random masks/covers, pigeonhole floor exact in cell counts")


# ---------------------------------------------------------------------------
# Criterion 4: sigma = 1 scaling shape over |E| in {2^-1 .. 2^-6} |Omega|
# ---------------------------------------------------------------------------

def test_criterion_4_sigma1_scaling_shape():
    domain = Domain.box([1.0])
    grid = Grid(domain, (1024,))
    f = TrigSum.sine([1])
    dc, _ = estimate_doubling(f, domain, grid)
    gc = derive_gevrey(f, domain, grid)
    n0 = 2 * math.floor(dc.log2_kappa) + 2
    gamma = dc.log2_kappa / (2 * math.floor(dc.log2_kappa) + 3)
    formula_slope = n0 / (1.0 - gamma)

    xs, ys = [], []
    for k in range(1, 7):
        mset = MeasurableSet.strided(grid, 2 ** k)
        cert = certify_sigma1(f, mset, dc, gc, search=0)
        xs.append(math.log(1.0 / mset.measure))
        ys.append(cert.log_constant)
    slope = float(np.polyfit(xs, ys, 1)[0])
    assert slope <= formula_slope * 1.05, (
        f"measured slope {slope:.3f} exceeds formula slope {formula_slope:.3f} + 5%"
    )
    _pass(4, f"log C slope {slope:.3f} <= formula {formula_slope:.3f} (+5% slack)")


# ---------------------------------------------------------------------------
# Criterion 5: sigma > 1 trace reproduces the final assembly term by term
# ---------------------------------------------------------------------------

def _step(trace, name):
    found = [s for s in trace if s.step == name]
    assert found, f"missing trace step {name}"
    return found[0]


def _close_log(got: float, want: float, where: str) -> None:
    assert got == pytest.approx(want, rel=1e-10, abs=1e-10), (
        f"{where}: trace {got!r} vs recomputed {want!r}"
    )


def test_criterion_5_sigma_gt1_trace_reproduction():
    domain = Domain.box([1.0])
    grid = Grid(domain, (1024,))
    f = TrigSum.of([([1], 1.0, 0.0), ([2], 0.5, 0.7)], 1)
    rng = np.random.default_rng(99)
    mset = MeasurableSet.random(grid, 0.2, rng)
    base = derive_gevrey(f, domain, grid)
    gc = GevreyCertificate(base.M, base.delta, 2.0)
    dc, _ = estimate_doubling(f, domain, grid)
    cert = certify_sigma_gt1(f, mset, dc, gc, search=4)

    # the extra sigma > 1 factor max{log2 kappa, B}^((sigma-1) log2 kappa)
    b_const = cert.aux["B"]
    want_shape = (gc.sigma - 1.0) * dc.log2_kappa * math.log(max(dc.log2_kappa, b_const))
    _close_log(cert.aux["shape_factor_log"], want_shape, "shape factor")
    _close_log(b_const, (gc.delta / cert.aux["r0_eff"]) ** (1.0 / (gc.sigma - 1.0)), "B")

    trace = cert.trace
    n = cert.n
    rc = _step(trace, "radius-choice")
    r_re = gc.delta * (n + 1) ** (1.0 - gc.sigma) * math.exp(-rc.inputs["log_X"] / (n + 1))
    _close_log(math.log(rc.outputs["r"]), math.log(r_re), "radius")

    pf = _step(trace, "propagation-factor")
    lf_re = LOG2 + (pf.inputs["chain_steps"] + pf.inputs["concentric_steps"]) * math.log(
        pf.inputs["kappa"]
    )
    _close_log(pf.outputs["log_factor"], lf_re, "propagation factor")
    _close_log(pf.outputs["log_total"], lf_re + LOG2, "total factor")

    pb = _step(trace, "polynomial-sup-bound")
    pb_re = (
        math.log(pb.inputs["data_sup"])
        + pb.inputs["n"] * (math.log(pb.inputs["t_max"]) - math.log(pb.inputs["gap"]))
        + pb.inputs["n"] * LOG2
        - log_factorial(int(pb.inputs["n"]))
    )
    _close_log(pb.outputs["log_bound"], pb_re, "polynomial bound")

    rb = _step(trace, "remainder-bound")
    rb_re = (
        (rb.inputs["n"] + 1) * math.log(rb.inputs["t_max"])
        + math.log(rb.inputs["M"])
        + (rb.inputs["sigma"] - 1.0) * log_factorial(int(rb.inputs["n"]) + 1)
        - (rb.inputs["n"] + 1) * math.log(rb.inputs["delta"])
    )
    _close_log(rb.outputs["log_coeff"], rb_re, "remainder coefficient")

    ms = _step(trace, "master-inequality")
    ms_re = ms.inputs["log_total_factor"] + log_add(
        ms.inputs["log_poly"], ms.inputs["log_remainder"]
    )
    _close_log(ms.outputs["rhs_log"], ms_re, "master right side")

    sp = _step(trace, "prefactor-split")
    _close_log(
        sp.outputs["log_T_base"],
        sp.inputs["log_total_factor"] - sp.inputs["exponent"] * sp.inputs["log_X"],
        "prefactor split",
    )

    asm = _step(trace, "assembly")
    a_re = (
        asm.inputs["log_T_base"]
        + asm.inputs["exponent"] * asm.inputs["log_M"]
        + log_add(
            asm.inputs["log_poly"] - asm.inputs["log_sup_set"],
            asm.inputs["log_remainder_coeff"]
            + asm.inputs["log_sup_domain"]
            - asm.inputs["log_sup_set"],
        )
    )
    _close_log(asm.outputs["log_A"], a_re, "assembly")

    res = _step(trace, "resolution")
    _close_log(
        res.outputs["log_C"], res.inputs["log_A"] / (1.0 - res.inputs["exponent"]), "resolution"
    )
    _close_log(cert.log_constant, res.outputs["log_C"], "certificate constant")
    assert soundness_check(cert, empirical_ratio(f, mset)).passed
    _pass(5, "sigma>1 trace reproduced term-by-term at 1e-10 log precision")


def test_criterion_5_sigma1_trace_reproduction():
    domain = Domain.box([1.0])
    grid = Grid(domain, (1024,))
    f = TrigSum.of([([1], 1.0, 0.0), ([3], 0.4, 0.2)], 1)
    mset = MeasurableSet.random(grid, 0.15, np.random.default_rng(17))
    gc = derive_gevrey(f, domain, grid)
    dc, _ = estimate_doubling(f, domain, grid)
    cert = certify_sigma1(f, mset, dc, gc, search=4)
    trace, n = cert.trace, cert.n
    log_sup_d, log_sup_e = math.log(cert.aux["sup_domain"]), math.log(cert.aux["sup_set"])

    # r = r0_eff (supE / (M supD))^(1/(n+1))
    rc = _step(trace, "radius-choice")
    r_re = cert.aux["r0_eff"] * math.exp((log_sup_e - math.log(gc.M) - log_sup_d) / (n + 1))
    _close_log(math.log(rc.outputs["r"]), math.log(r_re), "radius")

    # pigeonhole: |E| / N <= |B ∩ E|
    ph = _step(trace, "pigeonhole-ball")
    _close_log(ph.outputs["lhs_log"],
               math.log(mset.measure) - math.log(cert.aux["cover_count"]), "pigeonhole left")
    _close_log(ph.outputs["rhs_log"], math.log(cert.aux["intersection_measure"]),
               "pigeonhole right")

    # T = 4 kappa^(K + concentric)
    pf = _step(trace, "propagation-factor")
    k_total = cert.aux["chain_steps"] + cert.aux["concentric_steps"]
    _close_log(pf.outputs["log_total"], math.log(4.0) + k_total * math.log(dc.kappa), "factor")

    # (t/g)^n 2^n / n! data_sup and t^(n+1) M (n+1)!^0 delta^-(n+1)
    spacing = 2.0 * cert.aux["t_max"] / cert.aux["gap"]
    log_poly = math.log(cert.aux["data_sup"]) + n * math.log(spacing) - log_factorial(n)
    _close_log(_step(trace, "polynomial-sup-bound").outputs["log_bound"], log_poly, "poly bound")
    log_rem = (n + 1) * math.log(cert.aux["t_max"] / gc.delta) + math.log(gc.M)
    _close_log(_step(trace, "remainder-bound").outputs["log_coeff"], log_rem, "remainder")

    # supD <= T (PB + RB supD)
    master_rhs = pf.outputs["log_total"] + log_add(log_poly, log_rem + log_sup_d)
    _close_log(_step(trace, "master-inequality").outputs["rhs_log"], master_rhs, "master")
    assert log_sup_d <= master_rhs

    # A = T (M X)^(-e) M^e (PB / supE + RB supD / supE), C = A^(1/(1-e))
    e = dc.log2_kappa / (n + 1)
    _close_log(cert.aux["exponent"], e, "exponent")
    log_x = math.log(gc.M) + log_sup_d - log_sup_e
    log_a = (pf.outputs["log_total"] - e * log_x + e * math.log(gc.M)
             + log_add(log_poly - log_sup_e, log_rem + log_sup_d - log_sup_e))
    _close_log(_step(trace, "assembly").outputs["log_A"], log_a, "assembly")
    _close_log(log_a + e * log_sup_d + (1 - e) * log_sup_e, master_rhs, "power split")
    _close_log(cert.log_constant, log_a / (1.0 - e), "resolution")
    assert soundness_check(cert, empirical_ratio(f, mset)).passed
    _pass(5, "sigma=1 trace reproduced term-by-term at 1e-10 log precision")


def test_criterion_5_ucp_trace_reproduction():
    domain = Domain.box([1.0])
    grid = Grid(domain, (1024,))
    f = TrigSum.sine([1])
    mset = MeasurableSet.random(grid, 0.25, np.random.default_rng(23))
    base = derive_gevrey(f, domain, grid)
    gc = GevreyCertificate(base.M, base.delta, 1.2)
    probe = verify_ucp(f, UcpCertificate(10.0, 1.0, 0.5), domain, grid)
    a, b = max(1.5 * probe.min_sufficient_a, 0.05), 1.0
    cert = certify_ucp(f, mset, UcpCertificate(a, b, 0.5), gc)
    trace, aux, n0 = cert.trace, cert.aux, cert.n
    log_sup_d, log_sup_e = math.log(aux["sup_domain"]), math.log(aux["sup_set"])
    c0, p = aux["C0"], 1.0 / b - gc.sigma + 1.0

    # D = C0 e^(a/b) |O| / |E|; m* = max(10^b b / r0^b, (2 C0 e^(a/b) b^(1/b) / delta)^(1/p));
    # n0 = floor(log X / log 2D + m*)
    th = _step(trace, "ucp-threshold")
    log_d = math.log(c0) + a / b + math.log(grid.n_interior * grid.h / mset.measure)
    _close_log(th.outputs["log_D"], log_d, "log D")
    m_star = max(10.0 ** b * b / aux["r0_eff"] ** b,
                 (2.0 * c0 * math.exp(a / b) * b ** (1.0 / b) / gc.delta) ** (1.0 / p))
    _close_log(th.outputs["m_star"], m_star, "m*")
    log_x = math.log(gc.M) + log_sup_d - log_sup_e
    assert n0 == math.floor(log_x / (log_d + LOG2) + m_star)

    # r = 10 (b / (n0 + 1))^(1/b) <= r0_eff
    r = 10.0 * (b / (n0 + 1)) ** (1.0 / b)
    _close_log(_step(trace, "radius-choice").outputs["r"], r, "radius")
    assert r <= aux["r0_eff"]

    # T = 2 e^(a / rho^b) at rho = r / 10
    log_t = LOG2 + a / (r / 10.0) ** b
    _close_log(_step(trace, "ucp-propagation").outputs["log_factor"], log_t, "ucp factor")

    # T PB <= C0 e^(a/b) D^n0 supE and T RB supD <= C0 e^(a/b) M cf^(n0+1) supD
    log_poly = _step(trace, "polynomial-sup-bound").outputs["log_bound"]
    log_rem = _step(trace, "remainder-bound").outputs["log_coeff"]
    sp = _step(trace, "shape-poly-term")
    _close_log(sp.outputs["lhs_log"], log_t + log_poly, "poly term")
    _close_log(sp.outputs["rhs_log"], math.log(c0) + a / b + n0 * log_d + log_sup_e, "poly shape")
    log_cf = math.log(c0 * math.exp(a / b) * b ** (1.0 / b) / gc.delta) - p * math.log(n0 + 1)
    sr = _step(trace, "shape-remainder-term")
    _close_log(sr.outputs["log_contraction_factor"], log_cf, "contraction factor")
    _close_log(sr.outputs["lhs_log"], log_t + log_rem + log_sup_d, "remainder term")
    _close_log(sr.outputs["rhs_log"],
               math.log(c0) + a / b + math.log(gc.M) + (n0 + 1) * log_cf + log_sup_d,
               "remainder shape")
    for step in (sp, sr):
        assert step.outputs["lhs_log"] <= step.outputs["rhs_log"] + 1e-9

    # cf <= 1/2
    ct = _step(trace, "contraction")
    _close_log(ct.outputs["lhs_log"], log_cf, "contraction")
    assert log_cf <= -LOG2

    # gamma = log D / log 2D, C1 = C0 e^(a/b) M^gamma (D^m* + 2^-m*), C = C1^(1/(1-gamma))
    gamma = log_d / (log_d + LOG2)
    log_c1 = (math.log(c0) + a / b + gamma * math.log(gc.M)
              + log_add(m_star * log_d, -m_star * LOG2))
    asm = _step(trace, "ucp-assembly")
    _close_log(asm.outputs["gamma"], gamma, "gamma")
    _close_log(asm.outputs["log_C1"], log_c1, "log C1")
    _close_log(_step(trace, "resolution").outputs["log_C"], log_c1 / (1.0 - gamma), "resolution")
    _close_log(cert.log_constant, log_c1 / (1.0 - gamma), "certificate constant")
    assert soundness_check(cert, empirical_ratio(f, mset)).passed
    _pass(5, "UCP trace reproduced term-by-term at 1e-10 log precision")


# ---------------------------------------------------------------------------
# Criterion 6: unique-continuation contraction <= 1/2, rejection otherwise
# ---------------------------------------------------------------------------

def test_criterion_6_ucp_contraction_and_rejection():
    domain = Domain.box([1.0])
    grid = Grid(domain, (1024,))
    f = TrigSum.sine([1])
    base = derive_gevrey(f, domain, grid)
    probe = verify_ucp(f, UcpCertificate(10.0, 1.0, 0.5), domain, grid)

    accepted = 0
    for b, sigma in ((1.0, 1.0), (1.0, 1.1), (1.0, 1.2), (0.9, 1.05), (1.2, 1.0)):
        assert sigma < 1.0 + 1.0 / b
        a = max(1.5 * probe.min_sufficient_a, 0.05)
        uc = UcpCertificate(a, b, 0.5)
        gc = GevreyCertificate(base.M, base.delta, sigma)
        rng = np.random.default_rng(int(b * 100 + sigma * 10))
        mset = MeasurableSet.random(grid, 0.25, rng)
        cert = certify_ucp(f, mset, uc, gc)
        assert cert.aux["contraction_factor"] <= 0.5  # zero tolerance
        assert cert.n == math.floor(cert.aux["xi"])
        assert soundness_check(cert, empirical_ratio(f, mset)).passed
        accepted += 1

    rejected = 0
    for b, sigma in ((1.0, 2.0), (2.0, 1.5), (1.0, 2.2)):
        assert sigma >= 1.0 + 1.0 / b
        gc = GevreyCertificate(base.M, base.delta, sigma)
        uc = UcpCertificate(0.2, b, 0.5)
        rng = np.random.default_rng(5)
        mset = MeasurableSet.random(grid, 0.25, rng)
        with pytest.raises(HypothesisError):
            certify_ucp(f, mset, uc, gc)
        rejected += 1
    _pass(6, f"{accepted} configs contract at n0, {rejected} out-of-range rejected")


# ---------------------------------------------------------------------------
# Criterion 7: eigen-sum study, slope bounded, all certificates sound, <= 2 min
# ---------------------------------------------------------------------------

def test_criterion_7_eigensum_study(tmp_path):
    t0 = time.monotonic()
    domain = Domain.torus([1.0])
    grid = Grid(domain, (1024,))
    family = [build_eigensum([([k], 1.0, 0.0)], 1) for k in range(1, 9)]

    c_cal = calibrate_gamma(family, domain, grid)
    study = doubling_growth_study(family, domain, grid, calibration=c_cal, slope_bound=c_cal)
    assert not study.flagged
    assert study.slope <= c_cal

    rng = np.random.default_rng(777)
    msets = [MeasurableSet.random(grid, float(f_), rng) for f_ in (0.5, 0.3, 0.2, 0.1, 0.05)]
    rows = eigensum_study_csv(tmp_path / "eigensum.csv", family, msets, grid,
                              calibration=c_cal, search=2)
    assert len(rows) == 40
    for row in rows:
        assert row["C_log10"] >= math.log10(row["ratio_empirical"]) - 1e-12
    elapsed = time.monotonic() - t0
    assert elapsed <= 120.0, f"eigen-sum study took {elapsed:.1f}s > 2 min"
    _pass(7, f"fit slope {study.slope:.3f} <= {c_cal}, 40/40 sound, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# Criterion 8: byte-identical reports under a fixed seed
# ---------------------------------------------------------------------------

FULL_CONFIG = """
[run]
seed = 20250808

[domain]
kind = box
extent = 1.0

[grid]
cells = 1024

[function]
kind = trig
modes = 1:1.0:0.0; 3:0.5:0.9

[set]
kind = random
fraction = 0.2

[hypotheses]
gevrey = auto
doubling = estimate

[certify]
branch = auto
search = 8

[sweep]
axis = fraction
values = 0.5, 0.25, 0.125, 0.0625, 0.03125
search = 4

[output]
report = report.json
sweep_report = sweep.json
csv = sweep.csv
"""


def test_criterion_8_determinism(tmp_path):
    cfg = tmp_path / "full.cfg"
    cfg.write_text(FULL_CONFIG)
    outs = []
    for name in ("one", "two"):
        out = tmp_path / name
        assert main(["certify", str(cfg), "--output-dir", str(out)]) == 0
        assert main(["sweep", str(cfg), "--output-dir", str(out)]) == 0
        assert main(["verify", str(cfg), "--output-dir", str(out / "v")]) == 0
        outs.append(out)
    for rel in ("report.json", "sweep.csv", "v/report.json"):
        a = (outs[0] / rel).read_bytes()
        b = (outs[1] / rel).read_bytes()
        assert a == b, f"{rel} differs between identical runs"
    # sanity: the report carries the named generator and the sweep is sound
    report = json.loads((outs[0] / "report.json").read_text())
    assert report["generator"] == "numpy-pcg64-v1"
    _pass(8, "two seeded runs produced byte-identical reports and CSVs")
