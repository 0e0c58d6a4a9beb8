"""The staged geometry run of the certifiers against a per-degree oracle.

`_loop_run_geometry`, `_loop_doubling_run` and `_loop_certify_doubling` are
the per-degree loop the doubling branches ran before their geometry was
staged: every degree makes its own cover, densest-ball, ball-sup and
fan-trace calls, one after another, each call of the batched entry points
taking that one degree.  Put in place of the staged path, they
give the certificate, or the error, that a staged run must give exactly.
"""

import json
import math

import numpy as np
import pytest

import obscert.certify as certify
from obscert import geometry
from obscert.certify import (
    _DEGREE_CAP,
    _GeometryRun,
    _proof_tail,
    _put,
    certify_sigma1,
    certify_sigma_gt1,
    certify_ucp,
    hat_radius,
    propagate_doubling,
)
from obscert.errors import InfeasibleError, ObscertError, ResolutionError
from obscert.functions import (
    DoublingCertificate,
    GevreyCertificate,
    TrigSum,
    UcpCertificate,
    derive_gevrey,
    estimate_doubling,
    verify_ucp,
)
from obscert.geometry import (
    Domain,
    Grid,
    MeasurableSet,
    best_ray_intervals,
    chain_of_balls,
    cover_count_bound,
    densest_cover_balls,
    ray_directions,
)
from obscert.interp import separate_points

# ---------------------------------------------------------------------------
# The per-degree oracle
# ---------------------------------------------------------------------------

# the failures of the oracle's last degree window, in degree order
LOOP_FAILURES: list[tuple[int, str]] = []


def _loop_run_geometry(p, n, r, steps):
    """The cover, pigeonhole, ray, node and interpolation-bound steps at one
    (n, r), each geometric call made for this point alone."""
    f, mset, gc, domain = p.f, p.mset, p.gc, p.grid.domain
    if r < 2.0 * p.grid.h:
        raise InfeasibleError(
            f"radius {r:.3e} below twice the grid resolution, 2h = {2.0 * p.grid.h:.3e} "
            f"(h = {p.grid.h:.3e})"
        )

    ((count, x, inter),) = densest_cover_balls(mset, [r])
    _put(
        steps, "cover",
        {"r": r, "diameter": domain.diameter, "dimension": float(domain.dimension)},
        {"count": float(count), "count_bound": float(cover_count_bound(domain, r))},
    )
    _put(
        steps, "pigeonhole-ball",
        {"set_measure": mset.measure, "cover_count": float(count)},
        {"intersection_measure": inter},
    )

    rho = r / 10.0
    ((sup_rho, w),), _ = p.field.sup_balls([x], [rho])
    x_val = float(np.abs(f.evaluate(x)))
    if x_val > sup_rho:
        sup_rho, w = x_val, x
    if sup_rho <= 0.0:
        raise InfeasibleError("function vanishes on the near-maximiser ball")

    (ray,) = best_ray_intervals([x], [r], mset, [w])
    if isinstance(ray, ResolutionError):
        raise ray
    seg, trace_set = ray
    ell = trace_set.total
    ray = _put(
        steps, "ray-selection",
        {
            "r": r,
            "n_directions": float(len(ray_directions(domain.dimension))),
            "intersection_measure": inter,
        },
        {"trace_length": ell, "t_max": seg.t_max},
    )

    nodes = separate_points(trace_set, n)
    node_vals = np.abs(f.evaluate(seg.points(nodes.nodes)))
    data_sup = max(p.sup_set, float(np.max(node_vals)))
    nodes_out = _put(
        steps, "point-separation",
        {"trace_length": ell, "n": float(n)},
        {"gap": nodes.gap, "data_sup": data_sup},
    )
    log_poly = _put(
        steps, "polynomial-sup-bound",
        {"n": float(n), "t_max": seg.t_max, "gap": nodes.gap, "data_sup": data_sup},
    )["log_bound"]
    log_rem_coeff = _put(
        steps, "remainder-bound",
        {"n": float(n), "t_max": seg.t_max, "M": gc.M, "delta": gc.delta, "sigma": gc.sigma},
    )["log_coeff"]
    aux = ray | nodes_out | {
        "cover_count": float(count),
        "intersection_measure": inter,
        "r0_eff": p.r0_eff,
        "sup_domain": p.sup_domain,
        "sup_set": p.sup_set,
        "M": gc.M,
        "delta": gc.delta,
        "sigma": gc.sigma,
    }
    return _GeometryRun(n, r, steps, rho=rho, center=x, w=w, sup_ball_rho=sup_rho,
                        log_poly=log_poly, log_remainder_coeff=log_rem_coeff, aux=aux)


def _loop_doubling_run(branch, p, dc, n, r, steps):
    """The certificate at degree n and radius r, after the radius-choice step."""
    exponent = dc.log2_kappa / (n + 1)
    if exponent >= 1.0:
        raise InfeasibleError(f"degree {n} too small for doubling constant {dc.kappa}")

    geo = _loop_run_geometry(p, n, r, steps)
    chain = chain_of_balls(
        p.grid.domain, p.x_bar, geo.center, hat_radius(dc, geo.rho)[0]
    )
    prop = propagate_doubling(dc, geo.rho, chain)

    sup_rhat = float(p.field.ball_maxima([geo.center], [prop.r_hat])[0, 0])
    if sup_rhat < 0.0:
        raise InfeasibleError("ball contains no sample points")
    _put(steps, "global-max-slack", {}, {"lhs_log": p.log_sup_domain})
    _put(
        steps, "chain-propagation",
        {"kappa": dc.kappa, "r_hat": prop.r_hat, "chain_steps": float(prop.chain_steps)},
        {
            "lhs_log": p.log_sup_domain,
            "rhs_log": prop.chain_steps * math.log(dc.kappa) + certify.to_log(sup_rhat),
        },
    )
    _put(
        steps, "concentric-reduction",
        {"kappa": dc.kappa, "concentric_steps": float(prop.concentric_steps)},
        {
            "lhs_log": certify.to_log(sup_rhat),
            "rhs_log": prop.concentric_steps * math.log(dc.kappa)
            + certify.to_log(geo.sup_ball_rho),
        },
    )
    factor = {
        "kappa": dc.kappa,
        "chain_steps": float(prop.chain_steps),
        "concentric_steps": float(prop.concentric_steps),
    }
    log_t, log_master = _proof_tail(p, geo, steps, factor=factor)
    log_t_base = _put(
        steps, "prefactor-split",
        {"log_total_factor": log_t, "exponent": exponent, "log_X": p.log_x},
    )["log_T_base"]
    log_a = _put(
        steps, "assembly",
        {
            "log_T_base": log_t_base,
            "exponent": exponent,
            "log_M": math.log(p.gc.M),
            "log_poly": geo.log_poly,
            "log_remainder_coeff": geo.log_remainder_coeff,
            "log_sup_domain": p.log_sup_domain,
            "log_sup_set": p.log_sup_set,
        },
        {"identity_rhs": log_master},
    )["log_A"]
    log_c = _put(steps, "resolution", {"log_A": log_a, "exponent": exponent})["log_C"]
    aux = geo.aux | factor | {
        "r_hat": prop.r_hat,
        "exponent": exponent,
        "log_X": p.log_x,
        "log_A": log_a,
        "log_total_factor": log_t,
    }
    return certify.ObservabilityCertificate(branch, max(log_c, 0.0), n, r, aux, steps)


def _loop_certify_doubling(branch, p, dc, n_base, search, radius_rule, branch_aux):
    """The degree search, one whole run per degree in turn."""
    if n_base + search > _DEGREE_CAP:
        raise InfeasibleError(
            f"degree {n_base + search} is beyond desk scale; the cap is {_DEGREE_CAP}"
        )
    LOOP_FAILURES.clear()
    best = prescribed = None
    failures = []
    for n in range(n_base, n_base + search + 1):
        steps = []
        try:
            res = _loop_doubling_run(branch, p, dc, n, radius_rule(n, steps), steps)
        except (InfeasibleError, ResolutionError) as exc:
            failures.append((n, str(exc)))
            LOOP_FAILURES.append((n, str(exc)))
            continue
        if n == n_base:
            prescribed = res
        if best is None or res.log_constant < best.log_constant - 1e-12:
            best = res
    if best is None:
        (first, why), (last, last_why) = failures[0], failures[-1]
        raise InfeasibleError(
            "certification infeasible at every degree in the search range: "
            f"{len(failures)} attempts; first n = {first}: {why}; last n = {last}: {last_why}"
        )
    best.aux |= branch_aux | {"n_base": float(n_base)}
    search_outputs = {"log_C_best": best.log_constant}
    if prescribed is not None:
        best.aux["prescribed_n"] = float(prescribed.n)
        best.aux["prescribed_log_C"] = prescribed.log_constant
        best.aux["prescribed_r"] = prescribed.r
        search_outputs["log_C_prescribed"] = prescribed.log_constant
    _put(best.trace, "degree-search", {"n_best": float(best.n)}, search_outputs)
    return best


def _loop_geometry(p, runs, dc=None):
    """The staged run's interface over the per-point geometry, for the UCP
    branch: each run alone, its error kept as the staged run keeps it."""
    LOOP_FAILURES.clear()
    for g in runs:
        try:
            geo = _loop_run_geometry(p, g.n, g.r, g.steps)
        except (InfeasibleError, ResolutionError) as exc:
            g.error = exc
            LOOP_FAILURES.append((g.n, str(exc)))
            continue
        g.rho, g.center, g.w, g.sup_ball_rho = geo.rho, geo.center, geo.w, geo.sup_ball_rho
        g.log_poly, g.log_remainder_coeff, g.aux = geo.log_poly, geo.log_remainder_coeff, geo.aux


def _outcome(run):
    """A certificate as its report writes it, or an error's type and message."""
    try:
        return json.dumps(run().to_dict())
    except ObscertError as exc:
        return f"{type(exc).__name__}: {exc}"


def _search_failure(failures):
    """The outcome of a degree search that failed at each (degree, reason)
    of `failures`: their count, the first and the last."""
    (first, why), (last, last_why) = failures[0], failures[-1]
    return ("InfeasibleError: certification infeasible at every degree in the search range: "
            f"{len(failures)} attempts; first n = {first}: {why}; last n = {last}: {last_why}")


def _staged_and_loop(monkeypatch, run):
    staged = _outcome(run)
    with monkeypatch.context() as m:
        m.setattr(certify, "_certify_doubling", _loop_certify_doubling)
        m.setattr(certify, "_run_geometry", _loop_geometry)
        loop = _outcome(run)
    return staged, loop


# ---------------------------------------------------------------------------
# Cases
# ---------------------------------------------------------------------------

MODES = {1: [([1], 1.0, 0.3), ([3], 0.4, 1.1)], 2: [([1, 0], 1.0, 0.3), ([0, 1], 0.5, 0.1)]}


def _problem(kind, cells, fraction=0.25, seed=3, f=None):
    extent = (1.0,) if len(cells) == 1 else (1.0, 1.0)
    domain = Domain.disk(0.5) if kind == "disk" else Domain(kind, extent)
    grid = Grid(domain, cells)
    f = f or TrigSum.of(MODES[len(cells)], len(cells))
    mset = MeasurableSet.random(grid, fraction, np.random.default_rng(seed))
    dc, _ = estimate_doubling(f, domain, grid)
    return f, mset, dc, derive_gevrey(f, domain, grid)


def _ucp(f, mset):
    grid = mset.grid
    probe = verify_ucp(f, UcpCertificate(10.0, 1.0, 0.5), grid.domain, grid)
    return UcpCertificate(max(1.5 * probe.min_sufficient_a, 0.05), 1.0, 0.5)


def _sigma(gc, sigma):
    return GevreyCertificate(gc.M, gc.delta, sigma)


BRANCH_CASES = [
    (kind, cells, branch)
    for kind, cells in [("box", (512,)), ("torus", (512,)), ("box", (128, 128)),
                        ("torus", (128, 128)), ("disk", (128, 128))]
    for branch in ("sigma1", "sigma-gt1", "ucp")
]


@pytest.mark.parametrize("kind, cells, branch", BRANCH_CASES,
                         ids=[f"{k}-{len(c)}d-{b}" for k, c, b in BRANCH_CASES])
def test_staged_geometry_gives_the_per_degree_certificate(monkeypatch, kind, cells, branch):
    f, mset, dc, gc = _problem(kind, cells)
    if branch == "sigma1":
        run = lambda: certify_sigma1(f, mset, dc, gc, search=6)  # noqa: E731
    elif branch == "sigma-gt1":
        run = lambda: certify_sigma_gt1(f, mset, dc, _sigma(gc, 1.5), search=6)  # noqa: E731
    else:
        uc = _ucp(f, mset)
        run = lambda: certify_ucp(f, mset, uc, gc)  # noqa: E731
    staged, loop = _staged_and_loop(monkeypatch, run)
    assert staged == loop
    assert staged.startswith("{")


def test_ties_resolve_as_the_per_degree_loop_resolves_them(monkeypatch):
    # the full set: every cover ball holds as many cells as the next, so the
    # first ball of each cover must win, as a cover taken alone lets it win
    for cells in ((256,), (48, 48)):
        f, mset, dc, gc = _problem("box", cells, fraction=1.0)
        staged, loop = _staged_and_loop(
            monkeypatch, lambda: certify_sigma1(f, mset, dc, gc, search=4))
        assert staged == loop and staged.startswith("{")


def test_a_search_longer_than_one_stage_window(monkeypatch):
    f, mset, dc, gc = _problem("torus", (256,))
    search = certify._STAGE_DEGREES + 8
    staged, loop = _staged_and_loop(
        monkeypatch, lambda: certify_sigma1(f, mset, dc, gc, search=search, n_override=1))
    assert staged == loop and staged.startswith("{")


def test_a_2d_search_longer_than_one_stage_window(monkeypatch):
    f, mset, dc, gc = _problem("torus", (128, 128))
    search = certify._STAGE_DEGREES + 8
    staged, loop = _staged_and_loop(
        monkeypatch, lambda: certify_sigma1(f, mset, dc, gc, search=search, n_override=1))
    assert staged == loop and staged.startswith("{")


def _nearly_null_set(kappa=None):
    """One cell of a 64-cell line on which the sine is 1e-9: supE / supD is so
    small that the radii of the degrees up to 6 fall below 2h."""
    grid = Grid(Domain.box([1.0]), (64,))
    f = TrigSum.of([([1], 1.0, -math.pi * grid.h + 1e-9)], 1)
    mset = MeasurableSet.from_box(grid, [(0.0, grid.h)])
    dc, _ = estimate_doubling(f, grid.domain, grid)
    if kappa is not None:
        dc = DoublingCertificate(kappa, dc.r0)
    return f, mset, dc, derive_gevrey(f, grid.domain, grid)


def _single_cell_2d():
    """One cell of a 48 x 48 box: no ray of the fan through the near-maximiser
    meets it at any degree."""
    grid = Grid(Domain.box([1.0, 1.0]), (48, 48))
    mask = np.zeros(grid.cells, dtype=bool)
    mask[25, 28] = True
    f = TrigSum.of(MODES[2], 2)
    dc, _ = estimate_doubling(f, grid.domain, grid)
    return f, MeasurableSet(grid, mask), dc, derive_gevrey(f, grid.domain, grid)


def test_degrees_below_the_doubling_exponent_fail_and_the_rest_certify(monkeypatch):
    f, mset, _, gc = _problem("box", (256,))
    dc = DoublingCertificate(64.0, 0.5)  # degrees n with n + 1 <= 6 fail
    staged, loop = _staged_and_loop(
        monkeypatch, lambda: certify_sigma1(f, mset, dc, gc, search=8, n_override=2))
    assert staged == loop and staged.startswith("{")
    assert [n for n, _ in LOOP_FAILURES] == [2, 3, 4, 5]
    assert all("too small for doubling constant" in why for _, why in LOOP_FAILURES)


def test_degrees_whose_radius_is_below_2h_fail_and_the_rest_certify(monkeypatch):
    f, mset, dc, gc = _nearly_null_set()
    staged, loop = _staged_and_loop(
        monkeypatch, lambda: certify_sigma1(f, mset, dc, gc, search=10, n_override=2))
    assert staged == loop and staged.startswith("{")
    assert [n for n, _ in LOOP_FAILURES] == [2, 3, 4, 5, 6]
    assert all("below twice the grid resolution" in why for _, why in LOOP_FAILURES)


def test_degrees_whose_sigma_gt1_radius_choice_fails_and_the_rest_certify(monkeypatch):
    f, mset, dc, gc = _problem("torus", (256,))
    real = certify.choose_r_sigma_gt1
    # every other degree's radius above r0_eff, which its step rejects
    monkeypatch.setattr(certify, "choose_r_sigma_gt1",
                        lambda n, *a: real(n, *a) * (1.0 if n % 2 else 1e3))
    staged, loop = _staged_and_loop(
        monkeypatch, lambda: certify_sigma_gt1(f, mset, dc, _sigma(gc, 1.5), search=6))
    assert staged == loop and staged.startswith("{")
    assert LOOP_FAILURES and all("'radius-choice' does not hold" in why
                                 for _, why in LOOP_FAILURES)


def test_a_fan_that_meets_no_set_fails_each_degree_as_the_loop_fails_it(monkeypatch):
    f, mset, dc, gc = _single_cell_2d()
    staged, loop = _staged_and_loop(monkeypatch, lambda: certify_sigma1(f, mset, dc, gc, search=4))
    assert staged == loop == _search_failure(LOOP_FAILURES)
    assert len(LOOP_FAILURES) == 5
    assert all(why == "no sampled direction meets the set; refine the grid or the fan"
               for _, why in LOOP_FAILURES)


def test_every_degree_failing_at_a_different_step_raises_the_loops_message(monkeypatch):
    # the exponent, then the fan: one message naming each degree's own failure
    f, mset, dc, gc = _single_cell_2d()
    dc = DoublingCertificate(16.0, dc.r0)
    staged, loop = _staged_and_loop(
        monkeypatch, lambda: certify_sigma1(f, mset, dc, gc, search=5, n_override=2))
    assert staged == loop == _search_failure(LOOP_FAILURES)
    assert [why[:20] for _, why in LOOP_FAILURES] == (
        ["degree 2 too small f", "degree 3 too small f"] + ["no sampled direction"] * 4)
    # the exponent, then the radius below 2h, in one 1D window
    f, mset, dc, gc = _nearly_null_set(kappa=8.0)
    staged, loop = _staged_and_loop(
        monkeypatch, lambda: certify_sigma1(f, mset, dc, gc, search=4, n_override=2))
    assert staged == loop == _search_failure(LOOP_FAILURES)
    assert [why[:10] for _, why in LOOP_FAILURES] == ["degree 2 t"] + ["radius 2.8", "radius 7.9",
                                                                     "radius 1.5", "radius 2.5"]


def test_a_failing_ucp_geometry_raises_the_loops_error(monkeypatch):
    f, mset, _, gc = _single_cell_2d()
    uc = UcpCertificate(1.0, 1.0, 0.5)
    staged, loop = _staged_and_loop(monkeypatch, lambda: certify_ucp(f, mset, uc, gc))
    assert staged == loop
    assert staged.startswith("InfeasibleError: radius 1.462e-02 below twice the grid resolution")


# ---------------------------------------------------------------------------
# One pass per stage
# ---------------------------------------------------------------------------

def test_a_1d_degree_search_makes_as_many_line_run_calls_at_any_width(monkeypatch):
    f, mset, dc, gc = _problem("torus", (1024,))
    real = Grid.line_runs
    calls = []

    def counting(self, centers, radii):
        calls.append(len(radii))
        return real(self, centers, radii)

    monkeypatch.setattr(Grid, "line_runs", counting)
    seen = {}
    for search in (0, 2, 8, 16):
        calls.clear()
        cert = certify_sigma1(f, mset, dc, gc, search=search)
        seen[search] = len(calls)
        assert cert.aux["n_base"] + search >= cert.n
    assert len(set(seen.values())) == 1, seen
    # the cover balls, then each degree's (x, rho) and (x, r_hat) balls
    assert seen[16] == 2 and calls[1] == 2 * 17


def test_a_2d_degree_search_makes_as_many_row_run_calls_at_any_width(monkeypatch):
    f, mset, dc, gc = _problem("torus", (128, 128))
    real = geometry._row_runs
    calls = []

    def counting(grid, cy, ox, r):
        calls.append(len(r))
        return real(grid, cy, ox, r)

    monkeypatch.setattr(geometry, "_row_runs", counting)
    seen = {}
    for search in (2, 8, 16):
        calls.clear()
        cert = certify_sigma1(f, mset, dc, gc, search=search)
        seen[search] = len(calls)
        assert cert.aux["n_base"] + search >= cert.n
    assert len(set(seen.values())) == 1, seen
    # the inner runs of every cover centre, then the outer runs of its ring
    assert seen[16] == 2


def test_a_2d_window_whose_degrees_share_a_ray_origin_traces_one_fan(monkeypatch):
    f, mset, dc, gc = _problem("box", (128, 128))
    real_rays, real_trace = certify.best_ray_intervals, geometry._trace
    origins, traced = [], []

    def recording_rays(centers, radii, mset, ws):
        origins.append(np.array(ws))
        return real_rays(centers, radii, mset, ws)

    def recording_trace(mset, starts, mus, t_max):
        traced.append(len(t_max))
        return real_trace(mset, starts, mus, t_max)

    monkeypatch.setattr(certify, "best_ray_intervals", recording_rays)
    monkeypatch.setattr(geometry, "_trace", recording_trace)
    staged, loop = _staged_and_loop(monkeypatch, lambda: certify_sigma1(f, mset, dc, gc, search=8))
    assert staged == loop and staged.startswith("{")
    (window,) = origins  # the staged run's one call; the loop calls geometry's own name
    assert len(window) == 9 and (window == window[0]).all()
    # one pass of one fan for the window, then one per degree for the loop
    assert traced == [len(ray_directions(2))] * 10


WINDOW_GRIDS = [
    Grid(Domain.box([1.0, 1.0]), (96, 96)),
    Grid(Domain.torus([1.0, 1.0]), (96, 96)),
    Grid(Domain.disk(0.5), (96, 96)),
    Grid(Domain.box([1.0]), (512,)),
    Grid(Domain.torus([1.0]), (512,)),
]


@pytest.mark.parametrize("grid", WINDOW_GRIDS, ids=lambda g: f"{g.domain.kind}{g.cells}")
def test_a_window_whose_ray_origins_differ_matches_one_fan_at_a_time(grid):
    """Degrees that share a centre and an origin, degrees whose origin is
    their own centre, and origins outside the ball (where each direction's
    segment starts at its own entry point): the window gives each ball the
    ray and trace a call for that ball alone gives it."""
    rng = np.random.default_rng(37)
    mset = MeasurableSet.random(grid, 0.3, rng)
    d, h = grid.dimension, grid.h
    shared = grid.domain.center + 3.25 * h
    radii = [0.3 * 0.8 ** k for k in range(9)]
    centers = [shared + (k % 3) * h for k in range(9)]
    origins = [shared, shared, centers[2], centers[3], shared, shared, shared, centers[7], shared]
    # outside its ball, within twice its radius
    origins[4] = centers[4] + 1.5 * radii[4] * np.eye(d)[0]
    origins[6] = centers[6] - 1.2 * radii[6] * np.ones(d) / math.sqrt(d)
    window = best_ray_intervals(np.array(centers), radii, mset, origins)
    assert any(isinstance(ray, tuple) for ray in window)
    for c, r, w, ray in zip(centers, radii, origins, window, strict=True):
        (alone,) = best_ray_intervals([c], [r], mset, [w])
        if isinstance(alone, ResolutionError):
            assert isinstance(ray, ResolutionError) and str(ray) == str(alone)
        else:
            assert ray[0] == alone[0]
            assert ray[1].intervals == alone[1].intervals
