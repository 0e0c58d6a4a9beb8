import math

import numpy as np
import pytest

from obscert.certify import certify_auto
from obscert.errors import ConfigError, HypothesisError, InfeasibleError
from obscert.functions import (
    DoublingCertificate,
    FunctionModel,
    Gaussian,
    GevreyCertificate,
    GridField,
    Polynomial1D,
    Product,
    TrigSum,
    UcpCertificate,
    derive_gevrey,
    estimate_doubling,
    halton_points,
    sup_norm,
    _direction_fan,
    _sample_points,
    verify_gevrey,
    verify_ucp,
)
from obscert.geometry import Ball, Domain, Grid, MeasurableSet
from obscert.logspace import log_factorial

ONE_D = Domain.box([1.0])


def grid_1d(cells=1024):
    return Grid(ONE_D, (cells,))


# ---------------------------------------------------------------------------
# Certificates
# ---------------------------------------------------------------------------

def test_certificate_validation():
    with pytest.raises(ConfigError):
        GevreyCertificate(0.5, 1.0, 1.0)
    with pytest.raises(ConfigError):
        GevreyCertificate(1.0, -1.0, 1.0)
    with pytest.raises(ConfigError):
        GevreyCertificate(1.0, 1.0, 0.5)
    with pytest.raises(ConfigError):
        DoublingCertificate(1.5, 0.5)
    with pytest.raises(ConfigError):
        DoublingCertificate(2.0, 1.5)
    with pytest.raises(ConfigError):
        UcpCertificate(0.0, 1.0, 0.5)


# ---------------------------------------------------------------------------
# sup_norm
# ---------------------------------------------------------------------------

def test_sup_norm_constant():
    g = grid_1d()
    res = sup_norm(Polynomial1D((1.0,)), ONE_D, g)
    assert res.value == 1.0


def test_sup_norm_sine_domain():
    g = grid_1d()
    res = sup_norm(TrigSum.sine([1]), ONE_D, g)
    assert res.value == pytest.approx(1.0, abs=1e-4)
    assert res.argmax[0] == pytest.approx(0.25, abs=2 * g.h)


def test_sup_norm_sine_small_window():
    g = grid_1d()
    e = MeasurableSet.from_box(g, [(0.0, 0.1)])
    res = sup_norm(TrigSum.sine([1]), e, g)
    # oracle: sin(2 pi x) increases on [0, 0.1], so the sup sits at the
    # largest included cell centre
    centers = g.axis_centers[0]
    c_star = centers[centers <= 0.1].max()
    assert res.value == pytest.approx(math.sin(2 * math.pi * c_star), rel=1e-12)
    assert res.value == pytest.approx(math.sin(0.2 * math.pi), abs=5e-3)


def test_sup_norm_ball_region():
    g = grid_1d()
    res = sup_norm(TrigSum.sine([1]), Ball.at([0.25], 0.05), g)
    assert res.value == pytest.approx(1.0, abs=1e-4)


def test_sup_norm_empty_region_errors():
    g = grid_1d()
    with pytest.raises(InfeasibleError):
        sup_norm(TrigSum.sine([1]), MeasurableSet.empty(g), g)


def test_sup_norm_subset_dominated_by_domain():
    rng = np.random.default_rng(9)
    g = grid_1d(512)
    f = TrigSum.of([([1], 1.0, 0.3), ([3], 0.5, 1.1)], 1)
    top = sup_norm(f, ONE_D, g).value
    for _ in range(10):
        e = MeasurableSet.random(g, float(rng.uniform(0.05, 0.9)), rng)
        assert sup_norm(f, e, g).value <= top + 1e-15


# ---------------------------------------------------------------------------
# Derivative oracles
# ---------------------------------------------------------------------------

MODELS_1D = [
    TrigSum.of([([1], 1.0, 0.0), ([3], 0.4, 0.7)], 1),
    Gaussian((0.4,), 0.2, 1.3),
    Product(TrigSum.sine([2]), Gaussian((0.5,), 0.3)),
    Polynomial1D((0.2, -1.0, 0.0, 2.0)),
]

MODELS_2D = [
    TrigSum.of([([1, 0], 1.0, 0.0), ([2, 1], 0.5, 0.4)], 2),
    Gaussian((0.4, 0.6), 0.25, 0.9),
    Product(TrigSum.sine([1, 1]), Gaussian((0.5, 0.5), 0.35)),
]


@pytest.mark.parametrize("model", MODELS_1D + MODELS_2D)
def test_first_derivative_matches_finite_differences(model):
    rng = np.random.default_rng(21)
    d = model.dimension
    pts = rng.uniform(0.2, 0.8, size=(40, d))
    mu = rng.normal(size=d)
    mu /= np.linalg.norm(mu)
    eps = 1e-5
    fd = (model.evaluate(pts + eps * mu) - model.evaluate(pts - eps * mu)) / (2 * eps)
    exact = model.directional_derivative(pts, mu, 1)
    scale = np.max(np.abs(exact))
    keep = np.abs(exact) > 1e-3 * scale  # away from zeros of the derivative
    assert np.all(np.abs(fd[keep] - exact[keep]) <= 1e-6 * np.abs(exact[keep]) + 1e-9)


@pytest.mark.parametrize("model", MODELS_1D)
def test_higher_orders_consistent(model):
    # order-k oracle equals the numerical derivative of the order-(k-1) oracle
    rng = np.random.default_rng(4)
    pts = rng.uniform(0.25, 0.75, size=(20, 1))
    mu = np.array([1.0])
    eps = 1e-6
    for k in (2, 3):
        fd = (
            model.directional_derivative(pts + eps * mu, mu, k - 1)
            - model.directional_derivative(pts - eps * mu, mu, k - 1)
        ) / (2 * eps)
        exact = model.directional_derivative(pts, mu, k)
        assert np.allclose(fd, exact, rtol=1e-4, atol=1e-4 * np.max(np.abs(exact)) + 1e-9)


def test_order_zero_is_evaluation():
    for model in MODELS_1D:
        pts = np.linspace(0.1, 0.9, 7)[:, None]
        mu = np.array([1.0])
        assert np.array_equal(model.directional_derivative(pts, mu, 0), model.evaluate(pts))


def test_trig_derivative_sup_bound():
    # order-k sup is at most sum |a| (2 pi |k.mu|)^k, testable via the oracle
    f = TrigSum.of([([2], 1.0, 0.1), ([5], 0.3, 0.9)], 1)
    pts = np.linspace(0, 1, 4001)[:, None]
    mu = np.array([1.0])
    for k in (1, 2, 5):
        sup = np.max(np.abs(f.directional_derivative(pts, mu, k)))
        bound = sum(abs(m.amplitude) * (2 * math.pi * abs(m.freq[0])) ** k for m in f.modes)
        assert sup <= bound * (1 + 1e-12)


# ---------------------------------------------------------------------------
# Derivative-growth verification
# ---------------------------------------------------------------------------

def test_verify_gevrey_sine_pass():
    g = grid_1d()
    cert = GevreyCertificate(1.0, 1.0 / (2 * math.pi), 1.0)
    rep = verify_gevrey(TrigSum.sine([1]), cert, ONE_D, g, kmax=6)
    assert rep.passed
    # closed form: ratio(k) ~ 1/k!
    for k, got in rep.ratios.items():
        assert got == pytest.approx(1.0 / math.factorial(k), rel=1e-3)


def test_verify_gevrey_sine_fail_large_delta():
    g = grid_1d()
    cert = GevreyCertificate(1.0, 1.0, 1.0)
    rep = verify_gevrey(TrigSum.sine([1]), cert, ONE_D, g, kmax=3)
    assert not rep.passed
    assert rep.worst_k >= 1
    assert rep.ratios[1] == pytest.approx(2 * math.pi, rel=1e-3)


def test_verify_gevrey_constant_passes():
    g = grid_1d()
    rep = verify_gevrey(Polynomial1D((1.0,)), GevreyCertificate(1.0, 1.0, 1.0), ONE_D, g)
    assert rep.passed
    assert all(v == 0.0 for v in rep.ratios.values())


def test_verify_gevrey_monotone_in_certificate():
    g = grid_1d(512)
    f = TrigSum.of([([1], 1.0, 0.2), ([2], 0.7, 0.9)], 1)
    base = derive_gevrey(f, ONE_D, g)
    assert verify_gevrey(f, base, ONE_D, g, kmax=8).passed
    stronger = GevreyCertificate(base.M * 2, base.delta / 2, base.sigma + 1.0)
    assert verify_gevrey(f, stronger, ONE_D, g, kmax=8).passed


def test_verify_gevrey_zero_function_errors():
    g = grid_1d(128)
    with pytest.raises(HypothesisError):
        verify_gevrey(Polynomial1D((0.0,)), GevreyCertificate(1.0, 1.0, 1.0), ONE_D, g)


@pytest.mark.parametrize("model", MODELS_1D + MODELS_2D)
def test_derived_certificates_verify(model):
    d = model.dimension
    domain = ONE_D if d == 1 else Domain.box([1.0, 1.0])
    g = grid_1d(512) if d == 1 else Grid(domain, (128, 128))
    cert = derive_gevrey(model, domain, g)
    rep = verify_gevrey(model, cert, domain, g, kmax=8, max_points=512)
    assert rep.passed, f"{model.kind}: worst ratio {rep.max_ratio} > M {cert.M}"


# ---------------------------------------------------------------------------
# Derivative pass: every order for every direction at once
# ---------------------------------------------------------------------------

class Exponential2D(FunctionModel):
    """exp(a . x): defines only `directional_derivative`, so its pass is the
    base class's per-call fallback."""

    dimension = 2

    def __init__(self, a):
        self.a = np.asarray(a, dtype=float)

    def evaluate(self, points):
        return np.exp(np.asarray(points) @ self.a)

    def directional_derivative(self, points, direction, order):
        return float(self.a @ direction) ** order * self.evaluate(points)


def _fan(dimension):
    fan = _direction_fan(dimension, 16)
    if dimension == 2:
        # mu = (0, 1) gives the frequency (1, 0) the rate 0 exactly
        fan = np.vstack([fan, [[0.0, 1.0]]])
    return fan


PASS_MODELS = [
    TrigSum.of([([1], 1.0, 0.3), ([0], 0.8, 0.5), ([4], 0.4, 1.1)], 1),
    TrigSum.of([([1, 0], 1.0, 0.2), ([0, 0], 0.7, 0.4), ([2, -3], 0.5, 1.3)], 2),
    Gaussian((0.4, 0.6), 0.15, 1.3),
    Product(TrigSum.of([([1, 2], 1.0, 0.3)], 2), Gaussian((0.5, 0.45), 0.2, 0.8)),
    Product(Product(TrigSum.sine([2]), Polynomial1D((1.0, -0.5))), Gaussian((0.4,), 0.3)),
    Polynomial1D((0.2, -1.0, 0.0, 2.0, 0.5)),
    Exponential2D((0.7, -1.2)),
]


@pytest.mark.parametrize("model", PASS_MODELS, ids=lambda m: type(m).__name__)
def test_derivative_orders_equal_directional_derivative(model):
    rng = np.random.default_rng(5)
    pts = rng.uniform(0.0, 1.0, size=(257, model.dimension))
    dirs = _fan(model.dimension)
    orders = list(model.derivative_orders(pts, dirs, 12))
    assert len(orders) == 12
    for k, derivs in enumerate(orders, start=1):
        assert len(derivs) == len(dirs)
        for mu, got in zip(dirs, derivs):
            assert np.array_equal(got, model.directional_derivative(pts, mu, k)), (k, mu)


def test_derivative_orders_rejects_a_non_unit_direction():
    f = TrigSum.sine([1, 1])
    with pytest.raises(ConfigError):
        next(f.derivative_orders(np.zeros((3, 2)), np.array([[1.0, 1.0]]), 2))


def _reference_gevrey(f, cert, grid, kmax, dirs, max_points):
    """verify_gevrey as one `directional_derivative` call per order and
    direction, sampling from the gathered interior points."""
    pts = grid.points[grid.interior]
    if pts.shape[0] > max_points:
        pts = pts[:: int(math.ceil(pts.shape[0] / max_points))]
    sup = sup_norm(f, grid.domain, grid).value
    worst = (-math.inf, 1, pts[0], dirs[0])
    ratios = {}
    for k in range(1, kmax + 1):
        best_k, best_at = 0.0, (pts[0], dirs[0])
        for mu in dirs:
            vals = np.abs(f.directional_derivative(pts, mu, k))
            i = int(np.argmax(vals))
            if vals[i] > best_k:
                best_k, best_at = float(vals[i]), (pts[i], mu)
        if best_k == 0.0:
            ratios[k] = 0.0
            continue
        log_ratio = (math.log(best_k) + k * math.log(cert.delta)
                     - cert.sigma * log_factorial(k) - math.log(sup))
        ratios[k] = math.exp(log_ratio) if log_ratio < 700 else math.inf
        if ratios[k] > worst[0]:
            worst = (ratios[k], k, best_at[0], best_at[1])
    return ratios, worst


REPORT_CASES = [
    (PASS_MODELS[0], Grid(ONE_D, (5000,))),
    (PASS_MODELS[4], Grid(Domain.torus([1.0]), (700,))),
    (PASS_MODELS[1], Grid(Domain.box([1.0, 1.0]), (96, 96))),
    (PASS_MODELS[2], Grid(Domain.disk(0.5), (90, 90))),
    (PASS_MODELS[3], Grid(Domain.torus([1.0, 1.0]), (64, 64))),
    (PASS_MODELS[6], Grid(Domain.box([2.0, 1.0]), (80, 40))),
]


@pytest.mark.parametrize("model, grid", REPORT_CASES,
                         ids=lambda v: type(v).__name__ if isinstance(v, FunctionModel) else "")
def test_verify_gevrey_matches_per_call_reference(model, grid):
    # in 1D the two fan directions tie at every order: the first one wins
    dirs = _fan(grid.dimension)
    cert = GevreyCertificate(2.0, 0.05, 1.0)
    rep = verify_gevrey(model, cert, grid.domain, grid, kmax=12, directions=dirs,
                        max_points=1000)
    ratios, worst = _reference_gevrey(model, cert, grid, 12, dirs, 1000)
    assert rep.ratios == ratios
    assert rep.max_ratio == max(ratios.values())
    assert rep.worst_k == worst[1]
    assert np.array_equal(rep.worst_point, worst[2])
    assert np.array_equal(rep.worst_direction, worst[3])
    assert rep.passed == (rep.max_ratio <= cert.M * (1.0 + 1e-9))


def test_verify_gevrey_sample_is_every_stride_th_interior_point():
    grid = Grid(Domain.disk(0.5), (70, 70))
    pts = grid.points[grid.interior]
    for max_points in (10, 999, pts.shape[0] - 1, pts.shape[0], 10**6):
        stride = max(1, int(math.ceil(pts.shape[0] / max_points)))
        assert np.array_equal(_sample_points(grid, max_points), pts[::stride])


@pytest.mark.parametrize("model", [PASS_MODELS[1], PASS_MODELS[2]],
                         ids=lambda m: type(m).__name__)
def test_verify_gevrey_rejects_inflated_delta_2d(model):
    # negative control: the certify layer does not notice a wrong delta, so
    # verify_gevrey is the layer that must reject it
    domain = Domain.box([1.0, 1.0])
    grid = Grid(domain, (128, 128))
    gc = derive_gevrey(model, domain, grid)
    assert verify_gevrey(model, gc, domain, grid).passed
    inflated = GevreyCertificate(gc.M, 10.0 * gc.delta, gc.sigma)
    rep = verify_gevrey(model, inflated, domain, grid)
    assert not rep.passed
    assert rep.max_ratio > inflated.M


def test_verify_gevrey_rejects_inflated_delta_1d_product():
    model = MODELS_1D[2]
    g = grid_1d(512)
    gc = derive_gevrey(model, ONE_D, g)
    assert verify_gevrey(model, gc, ONE_D, g).passed
    inflated = GevreyCertificate(gc.M, 10.0 * gc.delta, gc.sigma)
    assert not verify_gevrey(model, inflated, ONE_D, g).passed


@pytest.mark.parametrize("check", [
    lambda f, d, g: derive_gevrey(f, d, g),
    lambda f, d, g: verify_gevrey(f, GevreyCertificate(1.0, 1.0, 1.0), d, g),
    lambda f, d, g: estimate_doubling(f, d, g),
    lambda f, d, g: verify_ucp(f, UcpCertificate(1.0, 1.0, 0.5), d, g),
], ids=["derive_gevrey", "verify_gevrey", "estimate_doubling", "verify_ucp"])
def test_a_domain_other_than_the_grids_is_rejected(check):
    with pytest.raises(ConfigError, match="not the domain of the grid"):
        check(TrigSum.sine([1]), Domain.torus([1.0]), grid_1d(256))


def test_certify_layer_accepts_an_inflated_delta():
    # stated plainly: given a certificate with delta x10, certify_auto still
    # returns a finite constant; only verify_gevrey rejects the certificate
    domain = Domain.box([1.0, 1.0])
    grid = Grid(domain, (128, 128))
    f = PASS_MODELS[1]
    gc = derive_gevrey(f, domain, grid)
    dc, _ = estimate_doubling(f, domain, grid)
    inflated = GevreyCertificate(gc.M, 10.0 * gc.delta, gc.sigma)
    mset = MeasurableSet.random(grid, 0.1, np.random.default_rng(3))
    cert = certify_auto(f, mset, inflated, dc=dc, search=2)
    assert math.isfinite(cert.log_constant)
    assert not verify_gevrey(f, inflated, domain, grid).passed


# ---------------------------------------------------------------------------
# Doubling estimation
# ---------------------------------------------------------------------------

def test_estimate_doubling_constant_clamps_to_two():
    g = grid_1d(512)
    cert, rep = estimate_doubling(Polynomial1D((1.0,)), ONE_D, g)
    assert cert.kappa == 2.0
    assert rep.kappa_hat == pytest.approx(1.0)


def test_estimate_doubling_linear_at_origin():
    g = grid_1d(4096)
    cert, rep = estimate_doubling(
        Polynomial1D((0.0, 1.0)),
        ONE_D,
        g,
        radii=[0.125, 0.25],
        centers=np.array([[0.0]]),
    )
    assert rep.kappa_hat == pytest.approx(2.0, rel=0.01)
    assert cert.kappa >= 2.0


def test_estimate_doubling_sine_torus():
    domain = Domain.torus([1.0])
    g = Grid(domain, (1024,))
    cert, rep = estimate_doubling(TrigSum.sine([1]), domain, g)
    assert 2.0 <= cert.kappa <= 20.0
    assert cert.r0 <= 1.0
    # the maximising pair sits where the function has a zero
    dist = min(abs(rep.worst.center[0] - z) for z in (0.0, 0.5, 1.0))
    assert dist <= 0.1


def _halton_loop(domain, count):
    """The loop form of `halton_points`: one radical inverse per base and
    index, rejecting points outside the domain."""

    def radical_inverse(base, n):
        inv, f = 0.0, 1.0 / base
        while n > 0:
            inv += f * (n % base)
            n //= base
            f /= base
        return inv

    pts, n = [], 1
    while len(pts) < count:
        p = np.array([radical_inverse(b, n) for b in (2, 3)[: domain.dimension]])
        p = p * np.asarray(domain.extent)
        if bool(domain.contains(p)):
            pts.append(p)
        n += 1
    return np.stack(pts)


@pytest.mark.parametrize("domain", [Domain.box([1.0]), Domain.torus([2.0]),
                                    Domain.box([1.0, 0.5]), Domain.disk(0.5)],
                         ids=["box-1d", "torus-1d", "box-2d", "disk"])
def test_halton_points_are_computed_once_and_equal_the_loop_form(domain):
    pts = halton_points(domain, 64)
    assert np.array_equal(pts, _halton_loop(domain, 64))
    assert halton_points(Domain(domain.kind, domain.extent), 64) is pts  # equal domain, same array
    assert not pts.flags.writeable
    assert np.array_equal(halton_points(domain, 10), _halton_loop(domain, 10))


def test_estimate_doubling_zero_ball_fails():
    class Plateau(FunctionModel):
        kind = "plateau"
        dimension = 1

        def evaluate(self, points):
            x = np.asarray(points)[..., 0]
            return np.maximum(np.abs(x - 0.5) - 0.2, 0.0)

    g = grid_1d(512)
    with pytest.raises(HypothesisError):
        estimate_doubling(Plateau(), ONE_D, g, radii=[0.05], centers=np.array([[0.5]]))


def test_estimate_doubling_names_the_first_failing_ball_in_centre_then_radius_order():
    # |f| is 0 on [0.3, 0.7] and infinite past 0.9: balls at 0.5 vanish and
    # balls reaching past 0.9 give an infinite ratio, as the loop over
    # centres, then radii, met them first
    class PlateauSpike(FunctionModel):
        kind = "plateau-spike"
        dimension = 1

        def evaluate(self, points):
            x = np.asarray(points)[..., 0]
            return np.where(x > 0.9, math.inf, np.maximum(np.abs(x - 0.5) - 0.2, 0.0))

    g = grid_1d(512)
    for centers, radii, message in (
        ([[0.1], [0.5], [0.85]], [0.01, 0.05], r"vanishes on the ball at \[0.5\] radius 0.01$"),
        ([[0.1], [0.85], [0.5]], [0.01, 0.05], r"ratio inf at \[0.85\] radius 0.05 is not finite"),
        ([[0.1], [0.5]], [0.05, 0.01], r"vanishes on the ball at \[0.5\] radius 0.05$"),
    ):
        with pytest.raises(HypothesisError, match=message):
            estimate_doubling(PlateauSpike(), ONE_D, g, radii=radii, centers=np.array(centers))


@pytest.mark.parametrize("build", [
    lambda v: TrigSum.of([([1], v, 0.0)], 1),
    lambda v: TrigSum.of([([1], 1.0, v)], 1),
    lambda v: Gaussian((0.5,), v),
    lambda v: Gaussian((0.5,), 0.2, v),
    lambda v: Gaussian((v,), 0.2),
    lambda v: Polynomial1D((1.0, v)),
], ids=["trig-amplitude", "trig-phase", "gaussian-width", "gaussian-amplitude",
        "gaussian-centre", "polynomial-coefficient"])
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_a_non_finite_model_parameter_is_a_config_error(build, value):
    with pytest.raises(ConfigError, match="finite"):
        build(value)


def test_estimate_doubling_rejects_a_ratio_that_is_not_finite():
    class Spike(FunctionModel):
        kind = "spike"
        dimension = 1

        def evaluate(self, points):
            x = np.asarray(points)[..., 0]
            return np.where(x < 0.5, math.inf, 1.0)

    with pytest.raises(HypothesisError, match="not finite"):
        estimate_doubling(Spike(), ONE_D, grid_1d(256))


# ---------------------------------------------------------------------------
# Unique-continuation verification
# ---------------------------------------------------------------------------

def test_verify_ucp_constant_passes():
    g = grid_1d(512)
    rep = verify_ucp(Polynomial1D((1.0,)), UcpCertificate(1.0, 1.0, 0.5), ONE_D, g)
    assert rep.passed
    assert rep.min_sufficient_a == pytest.approx(0.0, abs=1e-12)


def test_verify_ucp_sine_reports_minimal_a():
    g = grid_1d()
    cert = UcpCertificate(5.0, 1.0, 0.5)
    rep = verify_ucp(TrigSum.sine([1]), cert, ONE_D, g)
    assert rep.passed
    assert 0.0 < rep.min_sufficient_a < 5.0
    tight = UcpCertificate(rep.min_sufficient_a * 0.5, 1.0, 0.5)
    assert not verify_ucp(TrigSum.sine([1]), tight, ONE_D, g).passed


class HalfNan(FunctionModel):
    """NaN on the left half of the unit interval, 1 on the right."""

    kind = "half-nan"
    dimension = 1

    def evaluate(self, points):
        x = np.asarray(points)[..., 0]
        return np.where(x < 0.5, math.nan, 1.0)


class Zero(FunctionModel):
    kind = "zero"
    dimension = 1

    def evaluate(self, points):
        return np.zeros(np.asarray(points).shape[:-1])


@pytest.mark.parametrize("model, message", [(HalfNan(), "not finite"), (Zero(), "zero function")],
                         ids=["nan-on-half", "zero"])
def test_verify_ucp_rejects_a_model_without_a_finite_positive_sup(model, message):
    with pytest.raises(HypothesisError, match=message):
        verify_ucp(model, UcpCertificate(1e-3, 1.0, 0.5), ONE_D, grid_1d(256))


def test_verify_ucp_rejects_a_nan_margin(monkeypatch):
    # with a finite domain sup every ball sup is finite, so a NaN ball sup is
    # put in by hand; an infinite `a` gives a margin of -inf, which passes
    g = grid_1d(256)
    f = TrigSum.sine([1])
    rep = verify_ucp(f, UcpCertificate(math.inf, 1.0, 0.5), ONE_D, g)
    assert rep.passed and rep.worst_margin_log == -math.inf
    monkeypatch.setattr(GridField, "ball_maxima", lambda self, centers, radii: np.full(
        np.shape(centers)[:-1] + (len(radii),), math.nan).tolist())
    with pytest.raises(HypothesisError, match="not a number"):
        verify_ucp(f, UcpCertificate(1.0, 1.0, 0.5), ONE_D, g)


def test_verify_ucp_reads_an_underflowing_r_to_the_b_as_an_infinite_exponent():
    # 0.0625 ** 400 underflows to 0, so a / r^b is +inf there and the margin
    # -inf; at r = 0.5 the power is finite and so is the margin.  Every ball
    # of radius 0.25 or more holds a peak of |sin|, so no a is needed there
    g = grid_1d(256)
    rep = verify_ucp(TrigSum.sine([1]), UcpCertificate(1.0, 400.0, 0.5), ONE_D, g)
    assert 0.0625 ** 400.0 == 0.0 < 0.5 ** 400.0
    assert rep.passed
    assert rep.n_samples == 4 * 64
    assert -math.inf < rep.worst_margin_log < -1e120
    assert rep.min_sufficient_a == 0.0


def test_verify_ucp_zero_ball_fails_infinite_a():
    class Plateau(FunctionModel):
        kind = "plateau"
        dimension = 1

        def evaluate(self, points):
            x = np.asarray(points)[..., 0]
            return np.maximum(np.abs(x - 0.5) - 0.2, 0.0)

    g = grid_1d(512)
    rep = verify_ucp(
        Plateau(), UcpCertificate(3.0, 1.0, 0.5), ONE_D, g,
        radii=[0.05], centers=np.array([[0.5]]),
    )
    assert not rep.passed
    assert rep.min_sufficient_a == math.inf
