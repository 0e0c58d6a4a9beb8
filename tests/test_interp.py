import math

import numpy as np
import pytest

from obscert.errors import ConfigError, InfeasibleError
from obscert.functions import GevreyCertificate, Polynomial1D, TrigSum
from obscert.geometry import IntervalSet, Segment
from obscert.interp import (
    NodeSet,
    denominator_lower_bound,
    lagrange_eval,
    poly_sup_bound,
    remainder_bound,
    remainder_empirical_check,
    separate_points,
)

TWO_PI = 2 * math.pi


def random_gap_nodes(rng, n, t_max=1.0):
    """Random admissible node set: n+1 nodes in [0, t_max], gaps >= g."""
    g = float(rng.uniform(0.3, 0.95)) * t_max / (n + 1)
    slack = t_max - (n * g)
    extras = rng.uniform(0, 1, size=n + 1)
    extras *= slack / max(extras.sum(), 1e-12) * float(rng.uniform(0.1, 0.999))
    xs = np.cumsum(np.concatenate([[extras[0]], g + extras[1:]]))
    assert xs[-1] <= t_max + 1e-12
    return NodeSet(np.minimum(xs, t_max), g)


# ---------------------------------------------------------------------------
# Point separation
# ---------------------------------------------------------------------------

def test_separate_full_interval():
    ns = separate_points(IntervalSet(((0.0, 1.0),)), 1)
    assert ns.nodes == pytest.approx([0.0, 0.5], abs=0)
    assert ns.gap == 0.5


def test_separate_two_pieces():
    trace = IntervalSet(((0.0, 0.25), (0.75, 1.0)))
    ns = separate_points(trace, 1)
    assert ns.gap == pytest.approx(0.25)
    assert ns.nodes[0] == 0.0
    assert ns.nodes[1] == 0.75


def test_separate_degree_zero():
    ns = separate_points(IntervalSet(((0.3, 0.4),)), 0)
    assert ns.nodes == pytest.approx([0.3])


def test_separate_rejects_empty():
    with pytest.raises(InfeasibleError):
        separate_points(IntervalSet(()), 1)


def test_separate_gap_property_random_interval_sets():
    rng = np.random.default_rng(17)
    for _ in range(200):
        pieces = rng.integers(1, 8)
        starts = np.sort(rng.uniform(0, 1, size=pieces))
        runs = []
        for s in starts:
            runs.append((s, s + float(rng.uniform(0.005, 0.12))))
        trace = IntervalSet.from_runs(runs)
        n = int(rng.integers(0, 21))
        ns = separate_points(trace, n)
        assert ns.nodes.size == n + 1
        if n:
            assert float(np.min(np.diff(ns.nodes))) >= ns.gap * (1 - 1e-12)
        # every node lies in the closure of the trace
        for x in ns.nodes:
            assert any(a - 1e-12 <= x <= b + 1e-12 for a, b in trace.intervals)


# ---------------------------------------------------------------------------
# Lagrange evaluation
# ---------------------------------------------------------------------------

def test_lagrange_constant_data():
    assert lagrange_eval(np.array([0.0, 0.5]), [1.0, 1.0], 0.3) == pytest.approx(1.0)


def test_lagrange_linear():
    assert lagrange_eval(np.array([0.0, 1.0]), [0.0, 1.0], 0.25) == pytest.approx(0.25)


def test_lagrange_quadratic_reproduced():
    xs = np.array([0.0, 0.5, 1.0])
    vals = xs ** 2
    assert lagrange_eval(xs, vals, 0.75) == pytest.approx(0.5625, rel=1e-12)


def test_lagrange_exact_at_nodes():
    rng = np.random.default_rng(23)
    for _ in range(20):
        n = int(rng.integers(1, 30))
        ns = random_gap_nodes(rng, n)
        vals = rng.normal(size=n + 1)
        got = lagrange_eval(ns, vals, ns.nodes)
        assert np.allclose(got, vals, rtol=1e-12, atol=1e-14)


def test_lagrange_degree_exactness():
    rng = np.random.default_rng(29)
    for n in (1, 3, 8, 20):
        ns = random_gap_nodes(rng, n)
        coeffs = rng.normal(size=n + 1)
        poly = np.polynomial.polynomial.Polynomial(coeffs)
        vals = poly(ns.nodes)
        probes = rng.uniform(0, 1, size=64)
        got = lagrange_eval(ns, vals, probes)
        want = poly(probes)
        assert np.allclose(got, want, rtol=1e-10, atol=1e-10 * np.max(np.abs(want)))


def test_lagrange_high_degree_stable():
    # log-domain weights keep degree ~150 finite
    rng = np.random.default_rng(31)
    ns = random_gap_nodes(rng, 150, t_max=0.05)
    vals = np.ones(151)
    got = lagrange_eval(ns, vals, np.linspace(0, 0.05, 11))
    assert np.all(np.isfinite(got))
    assert np.allclose(got, 1.0, rtol=1e-6)


def test_lagrange_rejects_coincident_nodes():
    with pytest.raises(ConfigError):
        lagrange_eval(np.array([0.1, 0.1]), [0.0, 1.0], 0.5)


def _log_weights_loop(nodes):
    """Reference: one np.delete per node, the weights' defining product."""
    n1 = nodes.size
    logs = np.empty(n1)
    for i in range(n1):
        logs[i] = -float(np.sum(np.log(np.abs(np.delete(nodes[i] - nodes, i)))))
    signs = np.where((n1 - 1 - np.arange(n1)) % 2 == 0, 1.0, -1.0)
    return logs, signs


def _lagrange_eval_probe_major(xs, vals, t):
    """Reference: the barycentric kernel built one row per probe."""
    log_w, sign_w = _log_weights_loop(xs)
    t_arr = np.atleast_1d(np.asarray(t, dtype=float)).ravel()
    diff = t_arr[:, None] - xs[None, :]
    hits = diff == 0.0
    safe = np.where(hits, 1.0, diff)
    log_terms = log_w[None, :] - np.log(np.abs(safe))
    m = np.max(log_terms, axis=1, keepdims=True)
    kernel = sign_w[None, :] * np.sign(safe) * np.exp(log_terms - m)
    out = np.sum(kernel * vals[None, :], axis=1) / np.sum(kernel, axis=1)
    hit_rows = np.any(hits, axis=1)
    out[hit_rows] = vals[np.argmax(hits[hit_rows], axis=1)]
    return out


def test_log_weights_and_kernel_equal_the_loop_form():
    from obscert.interp import _log_weights

    rng = np.random.default_rng(61)
    for trial in range(400):
        n = int(rng.integers(0, 64))
        xs = np.sort(rng.uniform(-1.0, 2.0, n + 1))
        if n and np.min(np.diff(xs)) <= 0.0:
            continue
        got_w, got_s = _log_weights(xs)
        want_w, want_s = _log_weights_loop(xs)
        assert np.array_equal(got_w, want_w) and np.array_equal(got_s, want_s)
        vals = rng.normal(size=n + 1)
        probes = rng.uniform(-1.0, 2.0, size=int(rng.choice([1, 7, 300])))
        if trial % 3 == 0:  # probes on nodes return the data exactly
            k = min(probes.size, xs.size)
            probes[:k] = xs[rng.permutation(xs.size)[:k]]
        with np.errstate(divide="ignore", invalid="ignore"):
            got = lagrange_eval(xs, vals, probes)
            want = _lagrange_eval_probe_major(xs, vals, probes)
        assert np.array_equal(got, want, equal_nan=True), (n, probes.size)


# ---------------------------------------------------------------------------
# Denominator lower bound
# ---------------------------------------------------------------------------

def test_denominator_examples():
    logs = denominator_lower_bound(2, 0.5)
    assert math.exp(logs[1]) == pytest.approx(0.25, rel=1e-12)
    # equality for equispaced nodes {0, 0.5, 1} at i = 1
    xs = np.array([0.0, 0.5, 1.0])
    prod = abs(np.prod(xs[1] - np.delete(xs, 1)))
    assert prod == pytest.approx(math.exp(logs[1]), rel=1e-12)

    assert denominator_lower_bound(0, 0.3) == pytest.approx([0.0])

    logs3 = denominator_lower_bound(3, 0.1)
    assert math.exp(logs3[0]) == pytest.approx(0.006, rel=1e-12)


def test_denominator_bound_sound_random_nodes():
    rng = np.random.default_rng(37)
    for _ in range(300):
        n = int(rng.integers(1, 21))
        ns = random_gap_nodes(rng, n)
        logs = denominator_lower_bound(n, ns.gap)
        xs = ns.nodes
        for i in range(n + 1):
            brute = float(np.sum(np.log(np.abs(xs[i] - np.delete(xs, i)))))
            assert brute >= logs[i] - 1e-9


# ---------------------------------------------------------------------------
# Polynomial sup bound
# ---------------------------------------------------------------------------

def test_poly_sup_bound_two_term_example():
    pb = poly_sup_bound(1, 1.0, 0.5, 1.0)
    assert pb.value == pytest.approx(4.0, rel=1e-12)


def test_poly_sup_bound_degree_zero_and_zero_data():
    assert poly_sup_bound(0, 1.0, 0.5, 0.7).value == pytest.approx(0.7)
    assert poly_sup_bound(3, 1.0, 0.2, 0.0).value == 0.0


def test_poly_sup_bound_equals_exact_combinatorial_sum():
    for n in (1, 2, 5, 13):
        t_max, g, sup = 0.8, 0.8 / (n + 1), 1.7
        pb = poly_sup_bound(n, t_max, g, sup)
        direct = sup * sum(
            t_max ** n / (math.factorial(i) * math.factorial(n - i) * g ** n)
            for i in range(n + 1)
        )
        assert pb.value == pytest.approx(direct, rel=1e-12)


def test_poly_sup_bound_dominates_dense_probes():
    rng = np.random.default_rng(41)
    for _ in range(100):
        n = int(rng.integers(1, 21))
        ns = random_gap_nodes(rng, n)
        sup = float(rng.uniform(0.1, 3.0))
        vals = rng.uniform(-sup, sup, size=n + 1)
        pb = poly_sup_bound(n, 1.0, ns.gap, sup)
        probes = np.linspace(0, 1, 257)
        got = np.abs(lagrange_eval(ns, vals, probes))
        assert float(np.max(got)) <= pb.value * (1 + 1e-9)


def test_poly_sup_bound_monotonicity():
    base = poly_sup_bound(4, 1.0, 0.1, 1.0).log_value
    assert poly_sup_bound(4, 1.0, 0.05, 1.0).log_value >= base  # smaller gap, larger bound
    assert poly_sup_bound(4, 2.0, 0.1, 1.0).log_value >= base  # longer interval, larger bound


# ---------------------------------------------------------------------------
# Remainder bound
# ---------------------------------------------------------------------------

def sine_cert():
    return GevreyCertificate(1.0, 1.0 / TWO_PI, 1.0)


def test_remainder_bound_sine_example():
    log_b = remainder_bound(1, 0.1, sine_cert(), 1.0)
    assert math.exp(log_b) == pytest.approx(0.01 * TWO_PI ** 2, rel=1e-12)


def test_remainder_bound_degenerate_interval():
    assert remainder_bound(7, 0.0, sine_cert(), 1.0) == -math.inf


def test_remainder_bound_sigma_two_example():
    log_b = remainder_bound(1, 1.0, GevreyCertificate(1.0, 1.0, 2.0), 1.0)
    assert math.exp(log_b) == pytest.approx(2.0, rel=1e-12)


# ---------------------------------------------------------------------------
# Empirical remainder check
# ---------------------------------------------------------------------------

def test_remainder_check_linear_function():
    f = Polynomial1D((0.3, 2.0))
    seg = Segment((0.0,), (1.0,), 1.0)
    ns = NodeSet(np.array([0.1, 0.9]), 0.8)
    rep = remainder_empirical_check(f, seg, ns, np.linspace(0, 1, 33))
    assert rep.passed
    assert rep.max_abs_error <= 1e-12


def test_remainder_check_sine_example():
    f = TrigSum.sine([1])
    seg = Segment((0.0,), (1.0,), 0.1)
    ns = NodeSet(np.array([0.0, 0.1]), 0.1)
    rep = remainder_empirical_check(f, seg, ns, [0.05], cert=sine_cert(), domain_sup=1.0)
    assert rep.passed
    assert rep.max_abs_error == pytest.approx(0.0151, abs=5e-4)
    assert rep.max_pointwise_bound <= 0.05 * 0.05 / 2 * TWO_PI ** 2 * (1 + 1e-9)


def test_remainder_check_degree_reproduction():
    f = Polynomial1D((0.1, -0.4, 2.0, 1.5))
    seg = Segment((0.0,), (1.0,), 1.0)
    ns = NodeSet(np.array([0.0, 0.3, 0.6, 1.0]), 0.3)
    rep = remainder_empirical_check(f, seg, ns, np.linspace(0, 1, 65))
    assert rep.passed
    assert rep.max_abs_error <= 1e-10


def test_remainder_check_property_sine_family():
    rng = np.random.default_rng(43)
    f = TrigSum.sine([1])
    cert = sine_cert()
    for _ in range(50):
        t_max = float(rng.uniform(0.05, 0.4))
        seg = Segment((float(rng.uniform(0, 0.5)),), (1.0,), t_max)
        n = int(rng.integers(1, 8))
        trace = IntervalSet(((0.0, t_max),))
        ns = separate_points(trace, n)
        probes = rng.uniform(0, t_max, size=100)
        rep = remainder_empirical_check(f, seg, ns, probes, cert=cert, domain_sup=1.0)
        assert rep.passed
