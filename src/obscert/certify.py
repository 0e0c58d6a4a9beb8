"""Assembly of observability certificates.

The pipeline instantiates every proof step with concrete, measured
quantities: the cover count from the actual lattice, the chain exponent from
the actual chain, the 1D trace length as measured along the selected ray.
Each inequality is recorded as a trace step with its inputs and claimed
output, and the final constant is obtained by resolving the implicit
inequality  sup_domain <= A * sup_domain^e * sup_set^(1-e)  as
C = A^(1/(1-e)) in log space.

Every step is built through one table, `STEP_KINDS`, which holds each kind's
detail text, the rule deriving its computable outputs from its recorded
inputs, and the check of its inequality, decided as the step is appended.
`audit_trace` replays a written trace through the same table.

Soundness of the returned constant against the same-grid empirical ratio is
a consequence of the numerically verified master inequality alone, so a
certification that completes is sound by construction; the hypothesis
certificates are what make the master inequality provable rather than
accidental.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from .errors import (
    ConfigError,
    HypothesisError,
    InfeasibleError,
    ObscertError,
    ResolutionError,
    SoundnessError,
)
from .functions import (
    DoublingCertificate,
    FunctionModel,
    GevreyCertificate,
    GridField,
    UcpCertificate,
)
from .geometry import (
    Ball,
    MeasurableSet,
    chain_of_balls,
    cover_count_bound,
    cover_domain,
    densest_ball,
    best_ray_interval,
    ray_directions,
)
from .interp import poly_sup_bound, remainder_bound, separate_points
from .logspace import LOG2, LOG10, log_add, to_log

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
        """Whether the step's inequality passes the check of its kind in
        `STEP_KINDS`; None for a value step."""
        kind = _KIND_OF_TEXT[self.step, self.detail]
        return None if kind.tol is None else kind.failure(self.outputs) is None

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


@dataclass
class SoundnessResult:
    passed: bool
    slack_log: float


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
    factor = _propagation_factor({"kappa": dc.kappa, "chain_steps": k, "concentric_steps": steps})
    return Propagation(factor["log_factor"], k, steps, r_hat)


def _ucp_exponent(a: float, b: float, rho: float) -> float:
    """a / rho^b, the log of the unique-continuation factor at radius rho."""
    rho_b = rho ** b
    if rho_b == 0.0 or a / rho_b == math.inf:
        raise InfeasibleError(f"the factor e^(a / rho^b) overflows at rho = {rho:.6g}, b = {b:.6g}")
    return a / rho_b


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
# The step table
# ---------------------------------------------------------------------------

Values = dict[str, float]


# tolerances (absolute, relative) of an inequality check
_RELATIVE = (1e-9, 1e-9)
_STRICT = (0.0, 0.0)


@dataclass(frozen=True)
class StepKind:
    """One kind of proof step.  `name` is the step name a report carries,
    with a `/variant` suffix where branches word the same step differently;
    `derive` maps the inputs and measured outputs to the derived outputs.
    A step with tolerances `tol` claims lhs_log <= rhs_log, or, for an
    `identity`, identity_lhs = identity_rhs, up to max(tol[0], tol[1] |rhs|);
    a value step has none."""

    name: str
    detail: str
    derive: Callable[[Values, Values], Values] = lambda i, o: {}
    tol: tuple[float, float] | None = None
    identity: bool = False

    @property
    def step(self) -> str:
        return self.name.split("/")[0]

    def failure(self, outputs: Mapping[str, float]) -> str | None:
        """Why the step's inequality fails on `outputs`; None when it holds
        or the step claims none."""
        if self.tol is None:
            return None
        lk, rk = ("identity_lhs", "identity_rhs") if self.identity else ("lhs_log", "rhs_log")
        lhs, rhs = outputs[lk], outputs[rk]
        tol = max(self.tol[0], self.tol[1] * abs(rhs))
        if (abs(lhs - rhs) <= tol) if self.identity else (lhs <= rhs + tol):
            return None
        return f"{lk} {lhs!r} {'!=' if self.identity else '>'} {rk} {rhs!r}"


def _contraction_log(i: Values) -> float:
    """ln of the remainder contraction factor C0 e^(a/b) b^(1/b) / (delta (n0+1)^p),
    p = 1/b - sigma + 1."""
    a, b = i["a"], i["b"]
    p = 1.0 / b - i["sigma"] + 1.0
    return (
        math.log(i["C0"]) + a / b + math.log(b) / b - math.log(i["delta"])
        - p * math.log(i["n0"] + 1)
    )


def _ucp_threshold(i: Values, o: Values) -> Values:
    """The largest-integer degree rule: n0 = floor(xi) with
    xi = log_X / (log_D + log 2) + m_star.  m_star is bounded in log space
    first, so a threshold beyond the degree cap raises instead of
    overflowing."""
    a, b, c0, delta, r0_eff = i["a"], i["b"], i["C0"], i["delta"], i["r0_eff"]
    p = 1.0 / b - i["sigma"] + 1.0
    log_lead = math.log(c0) + a / b
    log_d = log_lead + math.log(i["vol_domain"] / i["set_measure"])
    log_m_star = max(
        b * LOG10 + math.log(b) - b * math.log(r0_eff),
        (LOG2 + log_lead + math.log(b) / b - math.log(delta)) / p,
    )
    if log_m_star > math.log(_DEGREE_CAP + 1):
        raise InfeasibleError(
            f"threshold degree m* = e^{log_m_star:.6g} is beyond desk scale; "
            "relax a, b or delta"
        )
    if log_lead > 708.0:  # C0 e^(a/b) would overflow before b^(1/b) / delta brings it down
        m_star = math.exp(log_m_star)
    else:
        m_star = max(
            10.0 ** b * b / r0_eff ** b,
            (2.0 * c0 * math.exp(a / b) * b ** (1.0 / b) / delta) ** (1.0 / p),
        )
    xi = i["log_X"] / (log_d + LOG2) + m_star
    n0 = math.floor(xi)
    if n0 > _DEGREE_CAP:
        raise InfeasibleError(f"threshold degree {n0} is beyond desk scale; relax a, b or delta")
    return {"log_D": log_d, "m_star": m_star, "xi": xi, "n0": float(n0)}


def _propagation_factor(i: Values, o: Values | None = None) -> Values:
    """ln(2 kappa^(K + concentric)), and the total with the extra 2 from the
    near-max point selection."""
    log_factor = LOG2 + (i["chain_steps"] + i["concentric_steps"]) * math.log(i["kappa"])
    return {"log_factor": log_factor, "log_total": log_factor + LOG2}


def _assembly(i: Values, o: Values) -> Values:
    e = i["exponent"]
    log_inner = log_add(
        i["log_poly"] - i["log_sup_set"],
        i["log_remainder_coeff"] + i["log_sup_domain"] - i["log_sup_set"],
    )
    log_a = i["log_T_base"] + e * i["log_M"] + log_inner
    identity_lhs = log_a + e * i["log_sup_domain"] + (1 - e) * i["log_sup_set"]
    return {"log_A": log_a, "identity_lhs": identity_lhs}


def _ucp_assembly(i: Values, o: Values) -> Values:
    log_d, m_star = i["log_D"], i["m_star"]
    gamma = log_d / (log_d + LOG2)
    log_c1 = (
        math.log(i["C0"]) + i["a"] / i["b"] + gamma * i["log_M"]
        + log_add(m_star * log_d, -m_star * LOG2)
    )
    return {"gamma": gamma, "log_C1": log_c1}


def _ucp_radius(i: Values, o: Values) -> Values:
    r = 10.0 * (i["b"] / (i["n0"] + 1)) ** (1.0 / i["b"])
    return {"r": r, "lhs_log": to_log(r)}


STEP_KINDS: dict[str, StepKind] = {kind.name: kind for kind in (
    StepKind("cover", "lattice ball cover of the domain"),
    StepKind(
        "pigeonhole-ball", "densest cover ball intersection with the set",
        lambda i, o: {
            "lhs_log": to_log(i["set_measure"]) - math.log(i["cover_count"]),
            "rhs_log": to_log(o["intersection_measure"]),
        },
        _RELATIVE,
    ),
    StepKind("ray-selection", "best direction through the near-maximiser"),
    StepKind("point-separation", "greedy separated interpolation nodes inside the trace"),
    StepKind(
        "polynomial-sup-bound", "sup bound on the interpolation polynomial over the segment",
        lambda i, o: {"log_bound": poly_sup_bound(
            int(i["n"]), i["t_max"], i["gap"], i["data_sup"]
        ).log_value},
    ),
    StepKind(
        "remainder-bound", "interpolation remainder coefficient (per unit domain sup)",
        lambda i, o: {"log_coeff": remainder_bound(
            int(i["n"]), i["t_max"], GevreyCertificate(i["M"], i["delta"], i["sigma"]), 1.0
        )},
    ),
    StepKind(
        "near-max-point", "small-ball sup against twice the selected point value",
        tol=_RELATIVE,
    ),
    StepKind(
        "interpolation-split", "selected point value under polynomial plus remainder bounds",
        lambda i, o: {"rhs_log": log_add(i["log_poly"], i["log_remainder"])},
        _RELATIVE,
    ),
    StepKind(
        "master-inequality", "domain sup bounded by propagation times (poly + remainder)",
        lambda i, o: {
            "rhs_log": i["log_total_factor"] + log_add(i["log_poly"], i["log_remainder"])
        },
        _STRICT,
    ),
    StepKind(
        "global-max-slack", "domain sup against twice the grid near-maximiser value",
        lambda i, o: {"rhs_log": LOG2 + o["lhs_log"]},
        _RELATIVE,
    ),
    StepKind(
        "chain-propagation", "overlapping chain of balls from the near-maximiser to the target",
        tol=_RELATIVE,
    ),
    StepKind(
        "concentric-reduction", "halving doublings on concentric balls at the target centre",
        tol=_RELATIVE,
    ),
    StepKind(
        "propagation-factor", "total propagation factor 4 kappa^(K + concentric)",
        _propagation_factor,
    ),
    StepKind(
        "prefactor-split", "propagation factor with the (M ratio)^exponent part factored out",
        lambda i, o: {"log_T_base": i["log_total_factor"] - i["exponent"] * i["log_X"]},
    ),
    StepKind(
        "assembly", "master right side rewritten as A * supD^e * supE^(1-e)",
        _assembly, _RELATIVE, identity=True,
    ),
    StepKind(
        "resolution", "implicit inequality resolved as C = A^(1/(1-e))",
        lambda i, o: {"log_C": i["log_A"] / (1.0 - i["exponent"])},
    ),
    StepKind("degree-search", "best sound constant over the searched degree window"),
    StepKind("radius-choice/sigma1", "radius r0_eff * (supE / (M supD))^(1/(n+1))"),
    StepKind(
        "radius-choice/sigma-gt1", "radius delta (n+1)^(1-sigma) (supE / (M supD))^(1/(n+1))",
        lambda i, o: {"lhs_log": to_log(o["r"])},
        _STRICT,
    ),
    StepKind("ucp-threshold", "largest-integer degree threshold", _ucp_threshold),
    StepKind(
        "radius-choice/ucp", "radius 10 (b/(n+1))^(1/b) from the threshold degree",
        _ucp_radius, _STRICT,
    ),
    StepKind(
        "ucp-propagation", "unique continuation applied at the near-maximiser ball",
        lambda i, o: {"log_factor": LOG2 + _ucp_exponent(i["a"], i["b"], i["rho"])},
        _RELATIVE,
    ),
    StepKind(
        "shape-poly-term", "polynomial term dominated by C0 e^(a/b) D^n supE",
        tol=(1e-9, 0.0),
    ),
    StepKind(
        "shape-remainder-term", "remainder term dominated by C0 e^(a/b) M cf^(n+1) supD",
        lambda i, o: {"log_contraction_factor": _contraction_log(i)},
        (1e-9, 0.0),
    ),
    StepKind(
        "contraction", "remainder contraction factor at the threshold degree",
        lambda i, o: {"lhs_log": _contraction_log(i), "rhs_log": -LOG2},
        (1e-12, 0.0),
    ),
    StepKind(
        "ucp-assembly", "threshold algebra: C1 and the interpolation exponent gamma",
        _ucp_assembly,
    ),
    StepKind(
        "resolution/ucp", "implicit inequality resolved as C = C1^(1/(1-gamma))",
        lambda i, o: {"log_C": i["log_C1"] / (1.0 - i["gamma"])},
    ),
)}

_KIND_OF_TEXT = {(kind.step, kind.detail): kind for kind in STEP_KINDS.values()}

# The inputs a step copies from the output of an earlier step: (kind, input)
# -> the (kind, output) pairs it may come from.  The audit compares each with
# the last step before it of one of those kinds.
STEP_LINKS: dict[tuple[str, str], tuple[tuple[str, str], ...]] = {
    **{(name, "log_poly"): (("polynomial-sup-bound", "log_bound"),)
       for name in ("interpolation-split", "master-inequality", "assembly")},
    ("master-inequality", "log_total_factor"): (
        ("propagation-factor", "log_total"), ("ucp-propagation", "log_factor")),
    ("prefactor-split", "log_total_factor"): (("propagation-factor", "log_total"),),
    ("assembly", "log_T_base"): (("prefactor-split", "log_T_base"),),
    ("assembly", "log_remainder_coeff"): (("remainder-bound", "log_coeff"),),
    ("resolution", "log_A"): (("assembly", "log_A"),),
    ("ucp-assembly", "log_D"): (("ucp-threshold", "log_D"),),
    ("ucp-assembly", "m_star"): (("ucp-threshold", "m_star"),),
    ("resolution/ucp", "log_C1"): (("ucp-assembly", "log_C1"),),
    ("resolution/ucp", "gamma"): (("ucp-assembly", "gamma"),),
}


def _put(
    steps: list[TraceStep], name: str, inputs: Values, measured: Values | None = None
) -> Values:
    """Append a step of kind `name` with its inputs, its measured outputs and
    the outputs its rule derives; returns the outputs.  A step whose
    inequality fails makes the run infeasible."""
    kind = STEP_KINDS[name]
    measured = measured or {}
    step = TraceStep(kind.step, kind.detail, dict(inputs), measured | kind.derive(inputs, measured))
    failure = kind.failure(step.outputs)
    if failure:
        raise InfeasibleError(f"trace step {step.step!r} does not hold: {failure}")
    steps.append(step)
    return step.outputs


def audit_trace(trace: Sequence[Mapping[str, Any]], log10_c: float | None = None) -> None:
    """Replay a written trace through the step table: every derived output
    must equal its recorded value, every input `STEP_LINKS` declares the
    output it copies, and every inequality must pass its check.  When
    `log10_c` is given it must be log10 of the constant the last resolution
    step gives.  A broken step raises `SoundnessError` naming it."""
    last: dict[str, tuple[int, Mapping[str, float]]] = {}  # kind -> its last step's outputs
    log_c = None
    for index, record in enumerate(trace):
        where = f"trace step {index}"
        try:
            kind = _KIND_OF_TEXT[record["step"], record["detail"]]
            where += f" {kind.step!r}"
            inputs, outputs = record["inputs"], record["outputs"]
            moved = [
                f"{key} is recorded as {outputs.get(key)!r}, the replay gives {value!r}"
                for key, value in kind.derive(inputs, outputs).items()
                if outputs.get(key) != value
            ] + [
                f"input {key} is {inputs[key]!r}, not the {out} {value!r} of trace step {at}"
                for key, (at, out, value) in _copied(last, kind.name)
                if inputs[key] != value
            ]
            failure = kind.failure(outputs)
            if kind.step == "resolution":
                log_c = outputs["log_C"]
        except (ObscertError, LookupError, ArithmeticError, ValueError, TypeError,
                AttributeError) as exc:
            raise SoundnessError(f"{where} cannot be replayed: {exc!r}") from exc
        if moved:
            raise SoundnessError(f"{where}: {moved[0]}")
        if failure:
            raise SoundnessError(f"{where} does not hold: {failure}")
        last[kind.name] = index, outputs
    # the certifiers give the constant as max(log C, 0) in natural logs
    if log10_c is not None and (log_c is None or log10_c != max(log_c, 0.0) / math.log(10.0)):
        raise SoundnessError(
            f"log10_C {log10_c!r} is not the constant of the last resolution step, "
            f"log_C {log_c!r}"
        )


def _copied(last: Mapping[str, tuple[int, Mapping[str, float]]],
            name: str) -> list[tuple[str, tuple[int, str, float]]]:
    """Each input of a step of kind `name` that `STEP_LINKS` declares, with
    the index, name and value of the output it copies: that of the last step
    before it of a source kind.  A missing source raises `LookupError`."""
    copied = []
    for (kind, key), sources in STEP_LINKS.items():
        if kind == name:
            found = [(last[src][0], out, last[src][1][out]) for src, out in sources if src in last]
            if not found:
                raise LookupError(f"no step before it gives the input {key}")
            copied.append((key, max(found)))
    return copied


# ---------------------------------------------------------------------------
# Shared steps: the problem, geometric run at one (n, r), proof tail
# ---------------------------------------------------------------------------

class _Problem:
    """What every branch reads before its first degree: the model, the set
    and its grid, the Gevrey certificate, the shared field, the domain and
    set sups with their logs, log_X = log(M supD / supE) and the effective
    radius bound r0_eff = min(r0, 1, max ball radius)."""

    def __init__(self, f: FunctionModel, mset: MeasurableSet, gc: GevreyCertificate, r0: float):
        self.f, self.mset, self.grid, self.gc = f, mset, mset.grid, gc
        self.field = GridField.of(f, self.grid)
        self.sup_domain, self.x_bar = self.field.sup_domain()
        self.sup_set, _ = self.field.sup_mask(mset.mask)
        if self.sup_set <= 0.0:
            raise InfeasibleError("observability from a null-data set is vacuous")
        self.log_sup_domain = to_log(self.sup_domain)
        self.log_sup_set = to_log(self.sup_set)
        self.log_x = math.log(gc.M) + self.log_sup_domain - self.log_sup_set
        self.r0_eff = min(r0, 1.0, self.grid.domain.max_ball_radius)


@dataclass
class _GeometryRun:
    """What the rest of a run reads from the geometric steps, with the aux
    keys every branch records."""

    r: float
    rho: float
    ball: Ball
    w: np.ndarray
    sup_ball_rho: float
    log_poly: float
    log_remainder_coeff: float
    aux: dict[str, float]


def _run_geometry(p: _Problem, n: int, r: float, steps: list[TraceStep]) -> _GeometryRun:
    """Append the cover, pigeonhole, ray, node and interpolation-bound steps
    at one (n, r)."""
    f, mset, gc, domain = p.f, p.mset, p.gc, p.grid.domain
    if r < 2.0 * p.grid.h:
        raise InfeasibleError(
            f"radius {r:.3e} below twice the grid resolution, 2h = {2.0 * p.grid.h:.3e} "
            f"(h = {p.grid.h:.3e})"
        )

    cover = cover_domain(domain, r)
    ball, inter = densest_ball(mset, cover)
    _put(
        steps, "cover",
        {"r": r, "diameter": domain.diameter, "dimension": float(domain.dimension)},
        {"count": float(len(cover)), "count_bound": float(cover_count_bound(domain, r))},
    )
    _put(
        steps, "pigeonhole-ball",
        {"set_measure": mset.measure, "cover_count": float(len(cover))},
        {"intersection_measure": inter},
    )

    x = np.asarray(ball.center)
    rho = r / 10.0
    sup_rho, w = p.field.sup_ball(x, rho)
    x_val = float(np.abs(f.evaluate(x)))
    if x_val > sup_rho:  # the ball's own centre competes with its cells
        sup_rho, w = x_val, x
    if sup_rho <= 0.0:
        raise InfeasibleError("function vanishes on the near-maximiser ball")

    seg, trace_set = best_ray_interval(ball, mset, w)
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
    node_pts = seg.points(nodes.nodes)
    node_vals = np.abs(f.evaluate(node_pts))
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
        "cover_count": float(len(cover)),
        "intersection_measure": inter,
        "r0_eff": p.r0_eff,
        "sup_domain": p.sup_domain,
        "sup_set": p.sup_set,
        "M": gc.M,
        "delta": gc.delta,
        "sigma": gc.sigma,
    }
    return _GeometryRun(r, rho, ball, w, sup_rho, log_poly, log_rem_coeff, aux)


def _proof_tail(
    p: _Problem,
    geo: _GeometryRun,
    steps: list[TraceStep],
    log_t: float = math.nan,
    factor: Values | None = None,
) -> tuple[float, float]:
    """Append near-max-point; then, in the doubling branches, the
    propagation-factor step with inputs `factor`, which gives log T in place
    of `log_t`; then interpolation-split and the master inequality
    supD <= T (poly + remainder).  Returns log T and the master right side."""
    log_w_val = to_log(float(np.abs(p.f.evaluate(geo.w))))
    _put(
        steps, "near-max-point",
        {"rho": geo.rho},
        {"lhs_log": to_log(geo.sup_ball_rho), "rhs_log": LOG2 + log_w_val},
    )
    if factor is not None:
        log_t = _put(steps, "propagation-factor", factor)["log_total"]
    log_remainder = geo.log_remainder_coeff + p.log_sup_domain
    _put(
        steps, "interpolation-split",
        {"log_poly": geo.log_poly, "log_remainder": log_remainder},
        {"lhs_log": log_w_val},
    )
    return log_t, _put(
        steps, "master-inequality",
        {"log_total_factor": log_t, "log_poly": geo.log_poly, "log_remainder": log_remainder},
        {"lhs_log": p.log_sup_domain},
    )["rhs_log"]


# ---------------------------------------------------------------------------
# Doubling branches (sigma = 1 and sigma > 1)
# ---------------------------------------------------------------------------

def _doubling_run(
    branch: str, p: _Problem, dc: DoublingCertificate, n: int, r: float, steps: list[TraceStep]
) -> ObservabilityCertificate:
    """The certificate at degree n and radius r, after the radius-choice
    step already in `steps`."""
    exponent = dc.log2_kappa / (n + 1)
    if exponent >= 1.0:
        raise InfeasibleError(f"degree {n} too small for doubling constant {dc.kappa}")

    geo = _run_geometry(p, n, r, steps)
    chain = chain_of_balls(
        p.grid.domain, p.x_bar, np.asarray(geo.ball.center), hat_radius(dc, geo.rho)[0]
    )
    prop = propagate_doubling(dc, geo.rho, chain)

    (sup_rhat,) = p.field.ball_maxima(geo.ball.center, [prop.r_hat])
    if sup_rhat < 0.0:
        raise InfeasibleError("ball contains no sample points")
    _put(steps, "global-max-slack", {}, {"lhs_log": p.log_sup_domain})
    _put(
        steps, "chain-propagation",
        {"kappa": dc.kappa, "r_hat": prop.r_hat, "chain_steps": float(prop.chain_steps)},
        {
            "lhs_log": p.log_sup_domain,
            "rhs_log": prop.chain_steps * math.log(dc.kappa) + to_log(sup_rhat),
        },
    )
    _put(
        steps, "concentric-reduction",
        {"kappa": dc.kappa, "concentric_steps": float(prop.concentric_steps)},
        {
            "lhs_log": to_log(sup_rhat),
            "rhs_log": prop.concentric_steps * math.log(dc.kappa) + to_log(geo.sup_ball_rho),
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
    return ObservabilityCertificate(branch, max(log_c, 0.0), n, r, aux, steps)


def _certify_doubling(
    branch: str,
    p: _Problem,
    dc: DoublingCertificate,
    n_base: int,
    search: int,
    radius_rule: Callable[[int, list[TraceStep]], float],
    branch_aux: dict[str, float],
) -> ObservabilityCertificate:
    """Run the pipeline at n_base..n_base+search with the branch's radius
    rule (n -> r, appending its radius-choice step) and keep the smallest
    sound constant; the run at n_base is the prescribed one."""
    if n_base + search > _DEGREE_CAP:
        raise InfeasibleError(
            f"degree {n_base + search} is beyond desk scale; the cap is {_DEGREE_CAP}"
        )
    best: ObservabilityCertificate | None = None
    prescribed: ObservabilityCertificate | None = None
    failures: list[dict[str, float | str]] = []
    for n in range(n_base, n_base + search + 1):
        steps: list[TraceStep] = []
        try:
            res = _doubling_run(branch, p, dc, n, radius_rule(n, steps), steps)
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
    best.aux |= branch_aux | {"n_base": float(n_base)}
    search_outputs = {"log_C_best": best.log_constant}
    if prescribed is not None:
        best.aux["prescribed_n"] = float(prescribed.n)
        best.aux["prescribed_log_C"] = prescribed.log_constant
        best.aux["prescribed_r"] = prescribed.r
        search_outputs["log_C_prescribed"] = prescribed.log_constant
    _put(best.trace, "degree-search", {"n_best": float(best.n)}, search_outputs)
    return best


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
    p = _Problem(f, mset, gc, dc.r0)
    n_base = 2 * math.floor(dc.log2_kappa) + 2 if n_override is None else n_override

    def radius_rule(n: int, steps: list[TraceStep]) -> float:
        r = choose_r_sigma1(n, p.sup_set, p.sup_domain, gc.M, p.r0_eff)
        return _put(
            steps, "radius-choice/sigma1",
            {"n": float(n), "r0_eff": p.r0_eff, "log_X": p.log_x},
            {"r": r},
        )["r"]

    gamma = dc.log2_kappa / (2 * math.floor(dc.log2_kappa) + 3)
    return _certify_doubling(BRANCH_SIGMA1, p, dc, n_base, search, radius_rule, {"gamma": gamma})


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
    p = _Problem(f, mset, gc, dc.r0)
    if math.log(gc.delta / p.r0_eff) / (gc.sigma - 1.0) > math.log(_DEGREE_CAP):
        raise InfeasibleError(
            f"B = (delta / r0_eff)^(1/(sigma-1)) exceeds the degree cap {_DEGREE_CAP}; "
            "relax delta or sigma"
        )
    b_const = (gc.delta / p.r0_eff) ** (1.0 / (gc.sigma - 1.0))
    floor_n = 2 * math.floor(max(dc.log2_kappa, b_const)) + 1
    n_base = floor_n if n_override is None else max(n_override, floor_n)

    def radius_rule(n: int, steps: list[TraceStep]) -> float:
        r = choose_r_sigma_gt1(n, p.sup_set, p.sup_domain, gc.M, gc.delta, gc.sigma)
        return _put(
            steps, "radius-choice/sigma-gt1",
            {"n": float(n), "delta": gc.delta, "sigma": gc.sigma, "log_X": p.log_x},
            {"r": r, "rhs_log": math.log(p.r0_eff)},
        )["r"]

    branch_aux = {
        "B": b_const,
        "eta": dc.log2_kappa / (floor_n + 1),
        "shape_factor_log": (
            (gc.sigma - 1.0) * dc.log2_kappa * math.log(max(dc.log2_kappa, b_const))
        ),
    }
    return _certify_doubling(BRANCH_SIGMA_GT1, p, dc, n_base, search, radius_rule, branch_aux)


# ---------------------------------------------------------------------------
# Unique-continuation branch
# ---------------------------------------------------------------------------

def certify_ucp(
    f: FunctionModel,
    mset: MeasurableSet,
    uc: UcpCertificate,
    gc: GevreyCertificate,
) -> ObservabilityCertificate:
    """Observability certificate under a unique-continuation hypothesis.

    Requires 1 <= sigma < 1 + 1/b.  The degree comes from the largest-integer
    threshold rule, which simultaneously forces the chosen radius under the
    radius bound and the remainder contraction factor under 1/2; the table
    checks both when their steps are appended.
    """
    if gc.sigma >= 1.0 + 1.0 / uc.b:
        raise HypothesisError(
            f"hypothesis violated: sigma = {gc.sigma} is not below 1 + 1/b = "
            f"{1.0 + 1.0 / uc.b}"
        )
    p = _Problem(f, mset, gc, uc.r0)
    vol_domain = p.grid.n_interior * p.grid.h ** p.grid.dimension
    a, b = uc.a, uc.b
    log_spread = math.log(vol_domain / mset.measure)

    c0 = UCP_BASE_CONSTANT
    for _ in range(40):
        steps: list[TraceStep] = []
        threshold = _put(
            steps, "ucp-threshold",
            {
                "a": a, "b": b, "C0": c0, "vol_domain": vol_domain, "set_measure": mset.measure,
                "log_X": p.log_x, "r0_eff": p.r0_eff, "delta": gc.delta, "sigma": gc.sigma,
            },
        )
        n0 = int(threshold["n0"])
        r = _put(
            steps, "radius-choice/ucp",
            {"b": b, "n0": threshold["n0"]},
            {"rhs_log": math.log(p.r0_eff)},
        )["r"]
        geo = _run_geometry(p, n0, r, steps)
        # polynomial-term conversion: 2 * PB <= C0^(n+1) (|O|/|E|)^n supE
        lhs1 = LOG2 + geo.log_poly
        rhs1 = (n0 + 1) * math.log(c0) + n0 * log_spread + p.log_sup_set
        if lhs1 <= rhs1 + 1e-12:
            break
        needed = (lhs1 - n0 * log_spread - p.log_sup_set) / (n0 + 1)
        c0 = max(c0 * 1.0000001, math.exp(needed) * (1 + 1e-9))
    else:
        raise InfeasibleError("threshold-form constant did not converge")

    log_t = _put(
        steps, "ucp-propagation",
        {"a": a, "b": b, "rho": geo.rho},
        {
            "lhs_log": p.log_sup_domain,
            "rhs_log": _ucp_exponent(a, b, geo.rho) + to_log(geo.sup_ball_rho),
        },
    )["log_factor"]
    _proof_tail(p, geo, steps, log_t)

    # Rewrite both master terms in the threshold form the degree rule needs.
    log_d, m_star = threshold["log_D"], threshold["m_star"]
    _put(
        steps, "shape-poly-term",
        {"C0": c0, "a": a, "b": b, "log_D": log_d, "n0": float(n0)},
        {
            "lhs_log": log_t + geo.log_poly,
            "rhs_log": math.log(c0) + a / b + n0 * log_d + p.log_sup_set,
        },
    )
    at_n0 = {"C0": c0, "a": a, "b": b, "delta": gc.delta, "sigma": gc.sigma, "n0": float(n0)}
    log_cf = _contraction_log(at_n0)
    _put(
        steps, "shape-remainder-term", at_n0,
        {
            "lhs_log": log_t + geo.log_remainder_coeff + p.log_sup_domain,
            "rhs_log": math.log(c0) + a / b + math.log(gc.M) + (n0 + 1) * log_cf
            + p.log_sup_domain,
        },
    )
    _put(steps, "contraction", at_n0)

    algebra = _put(
        steps, "ucp-assembly",
        {"C0": c0, "a": a, "b": b, "log_M": math.log(gc.M), "log_D": log_d, "m_star": m_star},
    )
    log_c = _put(steps, "resolution/ucp", algebra)["log_C"]

    aux = geo.aux | threshold | algebra | {"C0": c0, "contraction_factor": math.exp(log_cf)}
    return ObservabilityCertificate(BRANCH_UCP, max(log_c, 0.0), n0, geo.r, aux, steps)


# ---------------------------------------------------------------------------
# Brute-force oracle and soundness
# ---------------------------------------------------------------------------

def empirical_ratio(f: FunctionModel, mset: MeasurableSet) -> EmpiricalRatio:
    """Same-grid sup ratio sup_domain / sup_set, the oracle a certificate
    must dominate."""
    grid_field = GridField.of(f, mset.grid)
    sup_d, _ = grid_field.sup_domain()
    sup_e, _ = grid_field.sup_mask(mset.mask)
    if sup_e <= 0.0:
        raise InfeasibleError("empirical ratio undefined: sup over the set is zero")
    return EmpiricalRatio(sup_d, sup_e, sup_d / sup_e)


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
