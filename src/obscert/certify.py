"""Assembly of observability certificates.

The pipeline instantiates every proof step with concrete, measured
quantities: the cover count from the actual lattice, the chain exponent from
the actual chain, the 1D trace length as measured along the selected ray.
Each inequality is recorded as a trace step with its inputs and claimed
output, and the final constant is obtained by resolving the implicit
inequality  sup_domain <= A * sup_domain^e * sup_set^(1-e)  as
C = A^(1/(1-e)) in log space.

Soundness of the returned constant against the same-grid empirical ratio is
a consequence of the numerically verified master inequality alone, so a
certification that completes is sound by construction; the hypothesis
certificates are what make the master inequality provable rather than
accidental.  Every other inequality step of a finished run is checked too;
one that does not hold makes the run infeasible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from typing import Any, Callable, Sequence

import numpy as np

from .errors import ConfigError, HypothesisError, InfeasibleError, ResolutionError
from .functions import (
    DoublingCertificate,
    FunctionModel,
    GevreyCertificate,
    GridField,
    UcpCertificate,
)
from .geometry import (
    Ball,
    Grid,
    MeasurableSet,
    chain_of_balls,
    cover_count_bound,
    cover_domain,
    densest_ball,
    best_ray_interval,
    ray_directions,
)
from .interp import PolyBound, poly_sup_bound, remainder_bound, separate_points
from .logspace import LOG2, log_add, to_log

BRANCH_SIGMA1 = "sigma1"
BRANCH_SIGMA_GT1 = "sigma-gt1"
BRANCH_UCP = "ucp"

# Base constant for rewriting the unique-continuation master bound in its
# threshold form; 20 makes the remainder-term conversion hold at every degree,
# and the fitting loop raises it further only if the polynomial term needs it.
UCP_BASE_CONSTANT = 20.0

_DEGREE_CAP = 50_000


# ---------------------------------------------------------------------------
# Trace and certificate containers
# ---------------------------------------------------------------------------

@dataclass
class TraceStep:
    """One instantiated proof step: stable id, inputs, claimed outputs.

    Inequality steps carry lhs_log <= rhs_log in natural logs; value steps
    carry named outputs.  Everything is a plain float so traces serialise.
    """

    step: str
    detail: str
    inputs: dict[str, float] = dc_field(default_factory=dict)
    outputs: dict[str, float] = dc_field(default_factory=dict)

    @property
    def holds(self) -> bool | None:
        if "lhs_log" in self.outputs and "rhs_log" in self.outputs:
            lhs, rhs = self.outputs["lhs_log"], self.outputs["rhs_log"]
            return lhs <= rhs + 1e-9 * max(1.0, abs(rhs))
        return None

    def to_dict(self) -> dict[str, Any]:
        return {
            "step": self.step,
            "detail": self.detail,
            "inputs": dict(sorted(self.inputs.items())),
            "outputs": dict(sorted(self.outputs.items())),
        }


@dataclass
class ObservabilityCertificate:
    branch: str
    log_constant: float
    n: int
    r: float
    aux: dict[str, float] = dc_field(default_factory=dict)
    trace: list[TraceStep] = dc_field(default_factory=list)

    def __post_init__(self):
        if self.log_constant < 0.0:
            raise ConfigError("certified constant must be >= 1")

    @property
    def log10_constant(self) -> float:
        return self.log_constant / math.log(10.0)

    @property
    def constant(self) -> float:
        return math.exp(self.log_constant) if self.log_constant < 700 else math.inf

    def to_dict(self) -> dict[str, Any]:
        return {
            "branch": self.branch,
            "log10_C": self.log10_constant,
            "C": self.constant if math.isfinite(self.constant) else None,
            "n": self.n,
            "r": self.r,
            "aux": dict(sorted(self.aux.items())),
            "trace": [s.to_dict() for s in self.trace],
        }


@dataclass
class EmpiricalRatio:
    sup_domain: float
    sup_set: float
    ratio: float
    argmax_domain: np.ndarray = dc_field(repr=False, default=None)
    argmax_set: np.ndarray = dc_field(repr=False, default=None)


@dataclass
class SoundnessResult:
    passed: bool
    slack_log: float


@dataclass
class MasterBound:
    log_total: float
    log_poly_term: float
    log_remainder_term: float


def master_bound(log_propagation: float, poly: PolyBound, log_remainder: float) -> MasterBound:
    """Two-term right-hand side: propagation * (poly bound + remainder bound)."""
    return MasterBound(
        log_total=log_propagation + log_add(poly.log_value, log_remainder),
        log_poly_term=log_propagation + poly.log_value,
        log_remainder_term=log_propagation + log_remainder,
    )


# ---------------------------------------------------------------------------
# Propagation helpers
# ---------------------------------------------------------------------------

@dataclass
class Propagation:
    log_factor: float
    chain_steps: int
    concentric_steps: int
    r_hat: float


def hat_radius(dc: DoublingCertificate, r: float) -> tuple[float, int]:
    """Chain radius r * 2^floor(log2(r0/r)) and the concentric step count
    ceil(log2(r0/r)); the ceiling overestimates the halvings needed, which
    only enlarges the factor."""
    if r > dc.r0 * (1 + 1e-12):
        raise ConfigError(f"radius {r} exceeds the doubling bound {dc.r0}")
    v = math.log2(dc.r0 / r)
    steps = max(0, math.ceil(v - 1e-12))
    r_hat = r * 2 ** max(0, math.floor(v + 1e-12))
    return min(r_hat, dc.r0), steps


def propagate_doubling(
    dc: DoublingCertificate, r: float, chain: Sequence[np.ndarray]
) -> Propagation:
    """Factor 2 * kappa^K * kappa^ceil(log2(r0/r)) carrying a sup bound from
    the global near-maximiser down to the radius-r ball at the chain's end."""
    r_hat, steps = hat_radius(dc, r)
    k = max(0, len(chain) - 1)
    log_factor = LOG2 + (k + steps) * math.log(dc.kappa)
    return Propagation(log_factor, k, steps, r_hat)


# ---------------------------------------------------------------------------
# Radius choices
# ---------------------------------------------------------------------------

def choose_r_sigma1(n: int, sup_set: float, sup_domain: float, m_const: float, r0_eff: float) -> float:
    """r = r0_eff * (sup_set / (M sup_domain))^(1/(n+1)); always <= r0_eff."""
    if sup_set <= 0.0:
        raise InfeasibleError("observability from a null-data set is vacuous")
    log_theta = to_log(sup_set) - math.log(m_const) - to_log(sup_domain)
    return r0_eff * math.exp(log_theta / (n + 1))


def choose_r_sigma_gt1(
    n: int, sup_set: float, sup_domain: float, m_const: float, delta: float, sigma: float
) -> float:
    """r = (delta^(n+1) sup_set / (M (n+1)^((n+1)(sigma-1)) sup_domain))^(1/(n+1))."""
    if sup_set <= 0.0:
        raise InfeasibleError("observability from a null-data set is vacuous")
    log_theta = to_log(sup_set) - math.log(m_const) - to_log(sup_domain)
    return delta * (n + 1) ** (-(sigma - 1.0)) * math.exp(log_theta / (n + 1))


# ---------------------------------------------------------------------------
# Shared steps: preamble, geometric run at one (n, r), proof tail, check
# ---------------------------------------------------------------------------

@dataclass
class _Sups:
    """What every branch reads before its first degree: the shared field, the
    domain and set sups with their logs, log_X = log(M supD / supE) and the
    effective radius bound min(r0, 1, max ball radius)."""

    grid: Grid
    field: GridField
    sup_domain: float
    x_bar: np.ndarray
    sup_set: float
    log_sup_domain: float
    log_sup_set: float
    log_x: float
    r0_eff: float


def _preamble(f: FunctionModel, mset: MeasurableSet, gc: GevreyCertificate, r0: float) -> _Sups:
    grid = mset.grid
    grid_field = GridField.of(f, grid)
    sup_domain, x_bar = grid_field.sup_domain()
    sup_set, _ = grid_field.sup_mask(mset.mask)
    if sup_set <= 0.0:
        raise InfeasibleError("observability from a null-data set is vacuous")
    log_sup_domain = to_log(sup_domain)
    log_sup_set = to_log(sup_set)
    return _Sups(
        grid=grid,
        field=grid_field,
        sup_domain=sup_domain,
        x_bar=x_bar,
        sup_set=sup_set,
        log_sup_domain=log_sup_domain,
        log_sup_set=log_sup_set,
        log_x=math.log(gc.M) + log_sup_domain - log_sup_set,
        r0_eff=min(r0, 1.0, grid.domain.max_ball_radius),
    )


@dataclass
class _GeometryRun:
    r: float
    rho: float
    ball: Ball
    intersection: float
    cover_count: int
    w: np.ndarray
    sup_ball_rho: float
    t_max: float
    ell: float
    gap: float
    data_sup: float
    poly: PolyBound
    log_remainder_coeff: float
    steps: list[TraceStep]


def _run_geometry(
    f: FunctionModel,
    mset: MeasurableSet,
    gc: GevreyCertificate,
    s: _Sups,
    n: int,
    r: float,
) -> _GeometryRun:
    if r < 2.0 * s.grid.h:
        raise InfeasibleError(f"radius {r:.3e} below grid resolution {s.grid.h:.3e}")
    domain = s.grid.domain
    steps: list[TraceStep] = []

    cover = cover_domain(domain, r)
    ball, inter = densest_ball(mset, cover)
    bound = cover_count_bound(domain, r)
    steps.append(
        TraceStep(
            "cover",
            "lattice ball cover of the domain",
            {"r": r, "diameter": domain.diameter, "dimension": float(domain.dimension)},
            {"count": float(len(cover)), "count_bound": float(bound)},
        )
    )
    steps.append(
        TraceStep(
            "pigeonhole-ball",
            "densest cover ball intersection with the set",
            {"set_measure": mset.measure, "cover_count": float(len(cover))},
            {
                "intersection_measure": inter,
                "lhs_log": to_log(mset.measure) - math.log(len(cover)),
                "rhs_log": to_log(inter),
            },
        )
    )

    x = np.asarray(ball.center)
    rho = r / 10.0
    sup_rho, w = s.field.sup_ball(x, rho)
    x_val = float(np.abs(f.evaluate(x)))
    if x_val > sup_rho:  # the ball's own centre competes with its cells
        sup_rho, w = x_val, x
    if sup_rho <= 0.0:
        raise InfeasibleError("function vanishes on the near-maximiser ball")

    seg, trace_set = best_ray_interval(ball, mset, w)
    ell = trace_set.total
    steps.append(
        TraceStep(
            "ray-selection",
            "best direction through the near-maximiser",
            {
                "r": r,
                "n_directions": float(len(ray_directions(domain.dimension))),
                "intersection_measure": inter,
            },
            {"trace_length": ell, "t_max": seg.t_max},
        )
    )

    nodes = separate_points(trace_set, n)
    node_pts = seg.points(nodes.nodes)
    node_vals = np.abs(f.evaluate(node_pts))
    data_sup = max(s.sup_set, float(np.max(node_vals)))
    steps.append(
        TraceStep(
            "point-separation",
            "greedy separated interpolation nodes inside the trace",
            {"trace_length": ell, "n": float(n)},
            {"gap": nodes.gap, "data_sup": data_sup},
        )
    )

    poly = poly_sup_bound(n, seg.t_max, nodes.gap, data_sup)
    steps.append(
        TraceStep(
            "polynomial-sup-bound",
            "sup bound on the interpolation polynomial over the segment",
            {"n": float(n), "t_max": seg.t_max, "gap": nodes.gap, "data_sup": data_sup},
            {"log_bound": poly.log_value},
        )
    )
    log_rem_coeff = remainder_bound(n, seg.t_max, gc, 1.0)
    steps.append(
        TraceStep(
            "remainder-bound",
            "interpolation remainder coefficient (per unit domain sup)",
            {"n": float(n), "t_max": seg.t_max, "M": gc.M, "delta": gc.delta, "sigma": gc.sigma},
            {"log_coeff": log_rem_coeff},
        )
    )
    return _GeometryRun(
        r=r,
        rho=rho,
        ball=ball,
        intersection=inter,
        cover_count=len(cover),
        w=w,
        sup_ball_rho=sup_rho,
        t_max=seg.t_max,
        ell=ell,
        gap=nodes.gap,
        data_sup=data_sup,
        poly=poly,
        log_remainder_coeff=log_rem_coeff,
        steps=steps,
    )


def _proof_tail(
    f: FunctionModel,
    geo: _GeometryRun,
    s: _Sups,
    log_t: float,
    steps: list[TraceStep],
    failure: str,
    before_split: Sequence[TraceStep] = (),
) -> MasterBound:
    """Append near-max-point, `before_split`, interpolation-split and the
    master inequality supD <= T (poly + remainder) with log T = `log_t`;
    a failed master inequality makes the run infeasible with `failure`."""
    log_w_val = to_log(float(np.abs(f.evaluate(geo.w))))
    log_remainder = geo.log_remainder_coeff + s.log_sup_domain
    steps.append(
        TraceStep(
            "near-max-point",
            "small-ball sup against twice the selected point value",
            {"rho": geo.rho},
            {"lhs_log": to_log(geo.sup_ball_rho), "rhs_log": LOG2 + log_w_val},
        )
    )
    steps.extend(before_split)
    steps.append(
        TraceStep(
            "interpolation-split",
            "selected point value under polynomial plus remainder bounds",
            {"log_poly": geo.poly.log_value, "log_remainder": log_remainder},
            {"lhs_log": log_w_val, "rhs_log": log_add(geo.poly.log_value, log_remainder)},
        )
    )
    mb = master_bound(log_t, geo.poly, log_remainder)
    steps.append(
        TraceStep(
            "master-inequality",
            "domain sup bounded by propagation times (poly + remainder)",
            {
                "log_total_factor": log_t,
                "log_poly": geo.poly.log_value,
                "log_remainder": log_remainder,
            },
            {"lhs_log": s.log_sup_domain, "rhs_log": mb.log_total},
        )
    )
    if s.log_sup_domain > mb.log_total:
        raise InfeasibleError(f"master inequality fails numerically; {failure}")
    return mb


def _require_holds(steps: Sequence[TraceStep]) -> None:
    """Runtime trace check: every inequality step of a finished run holds."""
    for step in steps:
        if step.holds is False:
            raise InfeasibleError(
                f"trace step {step.step!r} does not hold: lhs_log "
                f"{step.outputs['lhs_log']!r} > rhs_log {step.outputs['rhs_log']!r}"
            )


def _shared_aux(geo: _GeometryRun, s: _Sups, gc: GevreyCertificate) -> dict[str, float]:
    """The aux keys every branch records."""
    return {
        "cover_count": float(geo.cover_count),
        "intersection_measure": geo.intersection,
        "trace_length": geo.ell,
        "t_max": geo.t_max,
        "gap": geo.gap,
        "data_sup": geo.data_sup,
        "r0_eff": s.r0_eff,
        "sup_domain": s.sup_domain,
        "sup_set": s.sup_set,
        "M": gc.M,
        "delta": gc.delta,
        "sigma": gc.sigma,
    }


# ---------------------------------------------------------------------------
# Doubling branches (sigma = 1 and sigma > 1)
# ---------------------------------------------------------------------------

@dataclass
class _RunResult:
    n: int
    r: float
    log_constant: float
    aux: dict[str, float]
    steps: list[TraceStep]


def _doubling_run(
    f: FunctionModel,
    mset: MeasurableSet,
    dc: DoublingCertificate,
    gc: GevreyCertificate,
    s: _Sups,
    n: int,
    r: float,
    radius_step: TraceStep,
) -> _RunResult:
    exponent = dc.log2_kappa / (n + 1)
    if exponent >= 1.0:
        raise InfeasibleError(f"degree {n} too small for doubling constant {dc.kappa}")

    geo = _run_geometry(f, mset, gc, s, n, r)
    steps = [radius_step, *geo.steps]

    chain = chain_of_balls(
        s.grid.domain, s.x_bar, np.asarray(geo.ball.center), hat_radius(dc, geo.rho)[0]
    )
    prop = propagate_doubling(dc, geo.rho, chain)

    (sup_rhat,) = s.field.ball_maxima(geo.ball.center, [prop.r_hat])
    if sup_rhat < 0.0:
        raise InfeasibleError("ball contains no sample points")
    steps.append(
        TraceStep(
            "global-max-slack",
            "domain sup against twice the grid near-maximiser value",
            {},
            {"lhs_log": s.log_sup_domain, "rhs_log": LOG2 + s.log_sup_domain},
        )
    )
    steps.append(
        TraceStep(
            "chain-propagation",
            "overlapping chain of balls from the near-maximiser to the target",
            {"kappa": dc.kappa, "r_hat": prop.r_hat, "chain_steps": float(prop.chain_steps)},
            {
                "lhs_log": s.log_sup_domain,
                "rhs_log": prop.chain_steps * math.log(dc.kappa) + to_log(sup_rhat),
            },
        )
    )
    steps.append(
        TraceStep(
            "concentric-reduction",
            "halving doublings on concentric balls at the target centre",
            {"kappa": dc.kappa, "concentric_steps": float(prop.concentric_steps)},
            {
                "lhs_log": to_log(sup_rhat),
                "rhs_log": prop.concentric_steps * math.log(dc.kappa)
                + to_log(geo.sup_ball_rho),
            },
        )
    )

    log_t = prop.log_factor + LOG2  # extra 2 from the near-max point selection
    factor_step = TraceStep(
        "propagation-factor",
        "total propagation factor 4 kappa^(K + concentric)",
        {
            "kappa": dc.kappa,
            "chain_steps": float(prop.chain_steps),
            "concentric_steps": float(prop.concentric_steps),
        },
        {"log_factor": prop.log_factor, "log_total": log_t},
    )
    mb = _proof_tail(
        f, geo, s, log_t, steps,
        "hypothesis certificates do not control this function at the sampled resolution",
        before_split=[factor_step],
    )

    log_t_base = log_t - exponent * s.log_x
    steps.append(
        TraceStep(
            "prefactor-split",
            "propagation factor with the (M ratio)^exponent part factored out",
            {"log_total_factor": log_t, "exponent": exponent, "log_X": s.log_x},
            {"log_T_base": log_t_base},
        )
    )
    log_rb_e = geo.log_remainder_coeff + s.log_sup_domain - s.log_sup_set
    log_inner = log_add(geo.poly.log_value - s.log_sup_set, log_rb_e)
    log_a = log_t_base + exponent * math.log(gc.M) + log_inner
    identity_lhs = log_a + exponent * s.log_sup_domain + (1 - exponent) * s.log_sup_set
    steps.append(
        TraceStep(
            "assembly",
            "master right side rewritten as A * supD^e * supE^(1-e)",
            {
                "log_T_base": log_t_base,
                "exponent": exponent,
                "log_M": math.log(gc.M),
                "log_poly": geo.poly.log_value,
                "log_remainder_coeff": geo.log_remainder_coeff,
                "log_sup_domain": s.log_sup_domain,
                "log_sup_set": s.log_sup_set,
            },
            {"log_A": log_a, "identity_lhs": identity_lhs, "identity_rhs": mb.log_total},
        )
    )
    if abs(identity_lhs - mb.log_total) > 1e-9 * max(1.0, abs(mb.log_total)):
        raise RuntimeError("internal: power-split identity failed")

    log_c = log_a / (1.0 - exponent)
    steps.append(
        TraceStep(
            "resolution",
            "implicit inequality resolved as C = A^(1/(1-e))",
            {"log_A": log_a, "exponent": exponent},
            {"log_C": log_c},
        )
    )
    _require_holds(steps)
    aux = _shared_aux(geo, s, gc) | {
        "kappa": dc.kappa,
        "chain_steps": float(prop.chain_steps),
        "concentric_steps": float(prop.concentric_steps),
        "r_hat": prop.r_hat,
        "exponent": exponent,
        "log_X": s.log_x,
        "log_A": log_a,
        "log_total_factor": log_t,
    }
    return _RunResult(n=n, r=r, log_constant=max(log_c, 0.0), aux=aux, steps=steps)


def _certify_doubling(
    branch: str,
    f: FunctionModel,
    mset: MeasurableSet,
    dc: DoublingCertificate,
    gc: GevreyCertificate,
    s: _Sups,
    n_base: int,
    search: int,
    radius_rule: Callable[[int], tuple[float, TraceStep]],
    branch_aux: dict[str, float],
) -> ObservabilityCertificate:
    """Run the pipeline at n_base..n_base+search with the branch's radius
    rule (n -> r and its radius-choice step) and keep the smallest sound
    constant; the run at n_base is the prescribed one."""
    if n_base + search > _DEGREE_CAP:
        raise InfeasibleError(
            f"degree {n_base + search} is beyond desk scale; the cap is {_DEGREE_CAP}"
        )
    best: _RunResult | None = None
    prescribed: _RunResult | None = None
    failures: list[dict[str, float | str]] = []
    for n in range(n_base, n_base + search + 1):
        try:
            r, radius_step = radius_rule(n)
            res = _doubling_run(f, mset, dc, gc, s, n, r, radius_step)
        except (InfeasibleError, ResolutionError) as exc:
            failures.append({"n": n, "status": f"infeasible: {exc}"})
            continue
        if n == n_base:
            prescribed = res
        if best is None or res.log_constant < best.log_constant - 1e-12:
            best = res
    if best is None:
        raise InfeasibleError(
            "certification infeasible at every degree in the search range: "
            + "; ".join(str(a) for a in failures)
        )
    aux = best.aux | branch_aux | {"n_base": float(n_base)}
    search_outputs = {"log_C_best": best.log_constant}
    if prescribed is not None:
        aux["prescribed_n"] = float(prescribed.n)
        aux["prescribed_log_C"] = prescribed.log_constant
        aux["prescribed_r"] = prescribed.r
        search_outputs["log_C_prescribed"] = prescribed.log_constant
    search_step = TraceStep(
        "degree-search",
        "best sound constant over the searched degree window",
        {"n_best": float(best.n)},
        search_outputs,
    )
    return ObservabilityCertificate(
        branch, best.log_constant, best.n, best.r, aux, [*best.steps, search_step]
    )


def certify_sigma1(
    f: FunctionModel,
    mset: MeasurableSet,
    dc: DoublingCertificate,
    gc: GevreyCertificate,
    *,
    search: int = 16,
    n_override: int | None = None,
) -> ObservabilityCertificate:
    """Observability certificate in the analytic case sigma = 1.

    Runs the pipeline at the prescribed degree 2 floor(log2 kappa) + 2 and
    at the following `search` degrees, keeping the smallest sound constant;
    both appear in the trace.  `n_override` pins the starting degree instead,
    for degree sweeps.
    """
    if abs(gc.sigma - 1.0) > 1e-12:
        raise ConfigError("sigma-1 branch requires a sigma = 1 certificate")
    s = _preamble(f, mset, gc, dc.r0)
    n_base = 2 * math.floor(dc.log2_kappa) + 2 if n_override is None else n_override

    def radius_rule(n: int) -> tuple[float, TraceStep]:
        r = choose_r_sigma1(n, s.sup_set, s.sup_domain, gc.M, s.r0_eff)
        return r, TraceStep(
            "radius-choice",
            "radius r0_eff * (supE / (M supD))^(1/(n+1))",
            {"n": float(n), "r0_eff": s.r0_eff, "log_X": s.log_x},
            {"r": r},
        )

    gamma = dc.log2_kappa / (2 * math.floor(dc.log2_kappa) + 3)
    return _certify_doubling(
        BRANCH_SIGMA1, f, mset, dc, gc, s, n_base, search, radius_rule, {"gamma": gamma},
    )


def certify_sigma_gt1(
    f: FunctionModel,
    mset: MeasurableSet,
    dc: DoublingCertificate,
    gc: GevreyCertificate,
    *,
    search: int = 16,
    n_override: int | None = None,
) -> ObservabilityCertificate:
    """Observability certificate for sigma > 1.

    The degree floor is 2 floor(max{log2 kappa, B}) + 1 with
    B = (delta / r0_eff)^(1/(sigma-1)), which forces the chosen radius under
    r0_eff and keeps the resolution exponent in (0, 1/2].
    """
    if gc.sigma <= 1.0:
        raise ConfigError("sigma-gt1 branch requires sigma > 1")
    s = _preamble(f, mset, gc, dc.r0)
    if math.log(gc.delta / s.r0_eff) / (gc.sigma - 1.0) > math.log(_DEGREE_CAP):
        raise InfeasibleError(
            f"B = (delta / r0_eff)^(1/(sigma-1)) exceeds the degree cap {_DEGREE_CAP}; "
            "relax delta or sigma"
        )
    b_const = (gc.delta / s.r0_eff) ** (1.0 / (gc.sigma - 1.0))
    floor_n = 2 * math.floor(max(dc.log2_kappa, b_const)) + 1
    n_base = floor_n if n_override is None else max(n_override, floor_n)

    def radius_rule(n: int) -> tuple[float, TraceStep]:
        r = choose_r_sigma_gt1(n, s.sup_set, s.sup_domain, gc.M, gc.delta, gc.sigma)
        if r > s.r0_eff * (1 + 1e-12):
            raise InfeasibleError(f"chosen radius {r} exceeds the bound {s.r0_eff}")
        return r, TraceStep(
            "radius-choice",
            "radius delta (n+1)^(1-sigma) (supE / (M supD))^(1/(n+1))",
            {"n": float(n), "delta": gc.delta, "sigma": gc.sigma, "log_X": s.log_x},
            {"r": r, "lhs_log": math.log(r), "rhs_log": math.log(s.r0_eff)},
        )

    branch_aux = {
        "B": b_const,
        "eta": dc.log2_kappa / (floor_n + 1),
        "shape_factor_log": (
            (gc.sigma - 1.0) * dc.log2_kappa * math.log(max(dc.log2_kappa, b_const))
        ),
    }
    return _certify_doubling(
        BRANCH_SIGMA_GT1, f, mset, dc, gc, s, n_base, search, radius_rule, branch_aux,
    )


# ---------------------------------------------------------------------------
# Unique-continuation branch
# ---------------------------------------------------------------------------

def _ucp_threshold(
    uc: UcpCertificate,
    gc: GevreyCertificate,
    c0: float,
    vol_domain: float,
    set_measure: float,
    log_x: float,
    r0_eff: float,
) -> tuple[float, float, int, float]:
    """(log_D, m_star, n0, xi) for the largest-integer degree rule."""
    a, b = uc.a, uc.b
    log_d = math.log(c0) + a / b + math.log(vol_domain / set_measure)
    p = 1.0 / b - gc.sigma + 1.0
    m_star = max(
        10.0 ** b * b / r0_eff ** b,
        (2.0 * c0 * math.exp(a / b) * b ** (1.0 / b) / gc.delta) ** (1.0 / p),
    )
    xi = log_x / (log_d + LOG2) + m_star
    return log_d, m_star, math.floor(xi), xi


def certify_ucp(
    f: FunctionModel,
    mset: MeasurableSet,
    uc: UcpCertificate,
    gc: GevreyCertificate,
) -> ObservabilityCertificate:
    """Observability certificate under a unique-continuation hypothesis.

    Requires 1 <= sigma < 1 + 1/b.  The degree comes from the largest-integer
    threshold rule, which simultaneously forces the chosen radius under the
    radius bound and the remainder contraction factor under 1/2; a violated
    contraction at the computed degree is an internal error, not an input
    error.
    """
    if gc.sigma >= 1.0 + 1.0 / uc.b:
        raise HypothesisError(
            f"hypothesis violated: sigma = {gc.sigma} is not below 1 + 1/b = "
            f"{1.0 + 1.0 / uc.b}"
        )
    s = _preamble(f, mset, gc, uc.r0)
    vol_domain = s.grid.n_interior * s.grid.h ** s.grid.dimension
    a, b = uc.a, uc.b
    p = 1.0 / b - gc.sigma + 1.0

    c0 = UCP_BASE_CONSTANT
    for _ in range(40):
        log_d, m_star, n0, xi = _ucp_threshold(
            uc, gc, c0, vol_domain, mset.measure, s.log_x, s.r0_eff
        )
        if n0 > _DEGREE_CAP:
            raise InfeasibleError(
                f"threshold degree {n0} is beyond desk scale; relax a, b or delta"
            )
        r = 10.0 * (b / (n0 + 1)) ** (1.0 / b)
        if r > s.r0_eff * (1 + 1e-9):
            raise RuntimeError("internal: threshold rule failed to force r <= r0")
        geo = _run_geometry(f, mset, gc, s, n0, r)
        # polynomial-term conversion: 2 * PB <= C0^(n+1) (|O|/|E|)^n supE
        lhs1 = LOG2 + geo.poly.log_value
        rhs1 = (
            (n0 + 1) * math.log(c0)
            + n0 * math.log(vol_domain / mset.measure)
            + s.log_sup_set
        )
        if lhs1 <= rhs1 + 1e-12:
            break
        needed = (lhs1 - n0 * math.log(vol_domain / mset.measure) - s.log_sup_set) / (n0 + 1)
        c0 = max(c0 * 1.0000001, math.exp(needed) * (1 + 1e-9))
    else:
        raise InfeasibleError("threshold-form constant did not converge")

    rho = geo.rho
    log_t = LOG2 + a / rho ** b
    steps = [
        TraceStep(
            "ucp-threshold",
            "largest-integer degree threshold",
            {
                "a": a, "b": b, "C0": c0, "vol_domain": vol_domain, "set_measure": mset.measure,
                "log_X": s.log_x, "r0_eff": s.r0_eff, "delta": gc.delta, "sigma": gc.sigma,
            },
            {"log_D": log_d, "m_star": m_star, "xi": xi, "n0": float(n0)},
        ),
        TraceStep(
            "radius-choice",
            "radius 10 (b/(n+1))^(1/b) from the threshold degree",
            {"b": b, "n0": float(n0)},
            {"r": geo.r, "lhs_log": math.log(geo.r), "rhs_log": math.log(s.r0_eff)},
        ),
        *geo.steps,
        TraceStep(
            "ucp-propagation",
            "unique continuation applied at the near-maximiser ball",
            {"a": a, "b": b, "rho": rho},
            {
                "log_factor": log_t,
                "lhs_log": s.log_sup_domain,
                "rhs_log": a / rho ** b + to_log(geo.sup_ball_rho),
            },
        ),
    ]
    _proof_tail(
        f, geo, s, log_t, steps,
        "the unique-continuation certificate does not control this function",
    )

    # Rewrite both master terms in the threshold form the degree rule needs.
    lhs1 = log_t + geo.poly.log_value
    rhs1 = math.log(c0) + a / b + n0 * (log_d) + s.log_sup_set
    steps.append(
        TraceStep(
            "shape-poly-term",
            "polynomial term dominated by C0 e^(a/b) D^n supE",
            {"C0": c0, "a": a, "b": b, "log_D": log_d, "n0": float(n0)},
            {"lhs_log": lhs1, "rhs_log": rhs1},
        )
    )
    if lhs1 > rhs1 + 1e-9:
        raise RuntimeError("internal: polynomial-term conversion failed after fitting C0")

    log_cf = (
        math.log(c0) + a / b + math.log(b) / b - math.log(gc.delta) - p * math.log(n0 + 1)
    )
    lhs2 = log_t + geo.log_remainder_coeff + s.log_sup_domain
    rhs2 = math.log(c0) + a / b + math.log(gc.M) + (n0 + 1) * log_cf + s.log_sup_domain
    steps.append(
        TraceStep(
            "shape-remainder-term",
            "remainder term dominated by C0 e^(a/b) M cf^(n+1) supD",
            {"C0": c0, "a": a, "b": b, "delta": gc.delta, "sigma": gc.sigma, "n0": float(n0)},
            {"lhs_log": lhs2, "rhs_log": rhs2, "log_contraction_factor": log_cf},
        )
    )
    if lhs2 > rhs2 + 1e-9:
        raise RuntimeError("internal: remainder-term conversion failed")

    steps.append(
        TraceStep(
            "contraction",
            "remainder contraction factor at the threshold degree",
            {"C0": c0, "a": a, "b": b, "delta": gc.delta, "sigma": gc.sigma, "n0": float(n0)},
            {"lhs_log": log_cf, "rhs_log": -LOG2},
        )
    )
    if log_cf > -LOG2 + 1e-12:
        raise RuntimeError(
            "internal: contraction factor exceeds 1/2 at the threshold degree"
        )

    gamma = log_d / (log_d + LOG2)
    log_c1 = math.log(c0) + a / b + gamma * math.log(gc.M) + log_add(
        m_star * log_d, -m_star * LOG2
    )
    log_c = log_c1 / (1.0 - gamma)
    steps.append(
        TraceStep(
            "ucp-assembly",
            "threshold algebra: C1 and the interpolation exponent gamma",
            {"C0": c0, "a": a, "b": b, "log_M": math.log(gc.M), "log_D": log_d, "m_star": m_star},
            {"gamma": gamma, "log_C1": log_c1},
        )
    )
    steps.append(
        TraceStep(
            "resolution",
            "implicit inequality resolved as C = C1^(1/(1-gamma))",
            {"log_C1": log_c1, "gamma": gamma},
            {"log_C": log_c},
        )
    )
    _require_holds(steps)

    aux = _shared_aux(geo, s, gc) | {
        "C0": c0,
        "log_C1": log_c1,
        "xi": xi,
        "n0": float(n0),
        "gamma": gamma,
        "m_star": m_star,
        "log_D": log_d,
        "contraction_factor": math.exp(log_cf),
    }
    return ObservabilityCertificate(BRANCH_UCP, max(log_c, 0.0), n0, geo.r, aux, steps)


# ---------------------------------------------------------------------------
# Brute-force oracle and soundness
# ---------------------------------------------------------------------------

def empirical_ratio(f: FunctionModel, mset: MeasurableSet) -> EmpiricalRatio:
    """Same-grid sup ratio sup_domain / sup_set, the oracle a certificate
    must dominate."""
    grid_field = GridField.of(f, mset.grid)
    sup_d, arg_d = grid_field.sup_domain()
    sup_e, arg_e = grid_field.sup_mask(mset.mask)
    if sup_e <= 0.0:
        raise InfeasibleError("empirical ratio undefined: sup over the set is zero")
    return EmpiricalRatio(sup_d, sup_e, sup_d / sup_e, arg_d, arg_e)


def soundness_check(cert: ObservabilityCertificate, ratio: EmpiricalRatio) -> SoundnessResult:
    """Pass iff the certified constant dominates the measured ratio."""
    slack = cert.log_constant - math.log(ratio.ratio)
    return SoundnessResult(passed=slack >= -1e-12, slack_log=slack)


def certify_auto(
    f: FunctionModel,
    mset: MeasurableSet,
    gc: GevreyCertificate,
    *,
    dc: DoublingCertificate | None = None,
    uc: UcpCertificate | None = None,
    branch: str = "auto",
    search: int = 16,
    n_override: int | None = None,
) -> ObservabilityCertificate:
    """Dispatch on the certificate kinds: an explicit unique-continuation
    certificate selects that branch, otherwise sigma decides.  `n_override`
    pins the starting degree of the doubling branches."""
    if branch == "auto":
        if uc is not None:
            branch = BRANCH_UCP
        elif gc.sigma > 1.0:
            branch = BRANCH_SIGMA_GT1
        else:
            branch = BRANCH_SIGMA1
    if branch == BRANCH_UCP:
        if uc is None:
            raise ConfigError("ucp branch requires a unique-continuation certificate")
        return certify_ucp(f, mset, uc, gc)
    if dc is None:
        raise ConfigError("doubling branches require a doubling certificate")
    if branch == BRANCH_SIGMA1:
        return certify_sigma1(f, mset, dc, gc, search=search, n_override=n_override)
    if branch == BRANCH_SIGMA_GT1:
        return certify_sigma_gt1(f, mset, dc, gc, search=search, n_override=n_override)
    raise ConfigError(f"unknown branch {branch!r}")
