"""Assembly of observability certificates: measure, then prove.

The measuring pass (`_measure`) takes the grid's numbers at each (n, r):
the cover count of the actual lattice, the densest ball's intersection with
the set, the ball sups, the trace along the selected ray with its nodes and,
in the doubling branches, the chain.  It keeps them in one frozen record per
(n, r), or the error of the first stage that failed there.  A plan
(`_doubling_plan`, `_ucp_plan`) maps the problem, the certificate and a
record to the constant: each inequality of the proof is a step with its
inputs and claimed output, and  sup_domain <= A * sup_domain^e * sup_set^(1-e)
is resolved as C = A^(1/(1-e)) in log space.  Every record goes through the
plan, so every check decides every degree; the winner's goes through it once
more to build the trace a report carries.

Every step is built through one table, `STEP_KINDS`, which holds each kind's
detail text, the rule deriving its computable outputs from its recorded
inputs, and the check of its inequality.  `audit_trace` replays a written
trace through the same table.

Soundness of the returned constant against the same-grid empirical ratio is
a consequence of the numerically verified master inequality alone; the
hypothesis certificates make that inequality provable rather than accidental.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field, fields
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
    SupResult,
    UcpCertificate,
)
from .geometry import (
    IntervalSet,
    MeasurableSet,
    Segment,
    best_ray_intervals,
    chain_of_balls,
    cover_count_bound,
    densest_cover_balls,
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
    steps: list[TraceStep] | None, name: str, inputs: Values, measured: Values | None = None
) -> Values:
    """The outputs of a step of kind `name`: its measured outputs and those
    its rule derives from its inputs.  A step whose inequality fails makes
    the run infeasible.  Given a list, the step is appended to it."""
    kind = STEP_KINDS[name]
    measured = measured or {}
    outputs = measured | kind.derive(inputs, measured)
    failure = kind.failure(outputs)
    if failure:
        raise InfeasibleError(f"trace step {kind.step!r} does not hold: {failure}")
    if steps is not None:
        steps.append(TraceStep(kind.step, kind.detail, dict(inputs), outputs))
    return outputs


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
# Measuring: the problem, and one record per (n, r)
# ---------------------------------------------------------------------------

class _Problem:
    """What every branch reads before its first degree: the model, the set
    and its grid, the Gevrey certificate, the shared field, the domain and
    set sups with their logs, log_X = log(M supD / supE), the effective
    radius bound r0_eff = min(r0, 1, max ball radius) and the volume of the
    interior cells."""

    def __init__(self, f: FunctionModel, mset: MeasurableSet, gc: GevreyCertificate, r0: float):
        self.f, self.mset, self.grid, self.gc = f, mset, mset.grid, gc
        self.field = GridField.of(f, self.grid)
        self.sup_domain, self.x_bar = self.field.sup_domain
        self.sup_set, _ = self.field.sup_mask(mset.mask)
        if self.sup_set <= 0.0:
            raise InfeasibleError("observability from a null-data set is vacuous")
        self.log_sup_domain = to_log(self.sup_domain)
        self.log_sup_set = to_log(self.sup_set)
        self.log_x = math.log(gc.M) + self.log_sup_domain - self.log_sup_set
        self.r0_eff = min(r0, 1.0, self.grid.domain.max_ball_radius)
        self.vol_domain = self.grid.n_interior * self.grid.h ** self.grid.dimension


# degrees one measuring pass takes at once: a longer degree search runs in
# windows of this many, so the covers and traces it holds stay small
_STAGE_DEGREES = 32


@dataclass(frozen=True)
class _Record:
    """Every number a plan reads that the grid gives at one (n, r), with
    the ball sups and |f(w)| at the near-max point w as natural logs; or the
    error of the first stage that failed.  Only the doubling branches
    measure r_hat, its ball sup and the chain."""

    n: int
    r: float = math.nan
    error: InfeasibleError | ResolutionError | None = None
    rho: float = math.nan
    r_hat: float = math.nan
    count: int = 0
    count_bound: int = 0
    intersection_measure: float = math.nan
    trace_length: float = math.nan
    t_max: float = math.nan
    gap: float = math.nan
    data_sup: float = math.nan
    log_sup_rho: float = math.nan
    log_w: float = math.nan
    log_sup_rhat: float = math.nan
    chain_steps: int = 0
    concentric_steps: int = 0


def _each(runs: Sequence[dict[str, Any]], stage: Callable[..., None],
          *columns: Sequence[Any]) -> list[dict[str, Any]]:
    """Take `stage` at each run that has not failed, with the run's entry of
    each of `columns`; a run whose stage raises `InfeasibleError` or
    `ResolutionError` keeps it as its error.  Returns the runs that have
    still not failed."""
    for m, *entries in zip(runs, *columns, strict=True):
        if "error" not in m:
            try:
                stage(m, *entries)
            except (InfeasibleError, ResolutionError) as exc:
                m["error"] = exc
    return [m for m in runs if "error" not in m]


def _measure(p: _Problem, degrees: Sequence[int], radius: Callable[[int], float],
             dc: DoublingCertificate | None = None) -> list[_Record]:
    """The record of each degree n at the radius `radius(n)`, measured one
    stage at a time for every degree still standing: the radii; the covers
    and their densest balls; the near-max sups about each ball's centre,
    with, given `dc`, the sup over the ball of radius r_hat there; the ray
    fans with their nodes; then, given `dc`, the chains.  Each degree fails
    at the stage, and with the error, that a pass at its (n, r) alone meets
    first."""
    f, mset, grid = p.f, p.mset, p.grid
    runs: list[dict[str, Any]] = [{"n": n} for n in degrees]

    def resolvable(m: dict[str, Any]) -> None:
        m["r"] = radius(m["n"])
        if m["r"] < 2.0 * grid.h:
            raise InfeasibleError(
                f"radius {m['r']:.3e} below twice the grid resolution, 2h = {2.0 * grid.h:.3e} "
                f"(h = {grid.h:.3e})"
            )

    def near_max(m: dict[str, Any], sup: SupResult) -> None:
        sup_rho, m["w"] = sup
        x_val = float(np.abs(f.evaluate(m["center"])))
        if x_val > sup_rho:  # the ball's own centre competes with its cells
            sup_rho, m["w"] = x_val, m["center"]
        if sup_rho <= 0.0:
            raise InfeasibleError("function vanishes on the near-maximiser ball")
        m["log_sup_rho"] = to_log(sup_rho)
        m["log_w"] = to_log(float(np.abs(f.evaluate(m["w"]))))

    def fan(m: dict[str, Any], ray: tuple[Segment, IntervalSet] | ResolutionError) -> None:
        if isinstance(ray, ResolutionError):
            raise ray
        seg, trace_set = ray
        nodes = separate_points(trace_set, m["n"])
        node_vals = np.abs(f.evaluate(seg.points(nodes.nodes)))
        m["trace_length"], m["t_max"], m["gap"] = trace_set.total, seg.t_max, nodes.gap
        m["data_sup"] = max(p.sup_set, float(np.max(node_vals)))

    def chain(m: dict[str, Any]) -> None:
        prop = propagate_doubling(
            dc, m["rho"], chain_of_balls(grid.domain, p.x_bar, m["center"], m["r_hat"])
        )
        if m["sup_rhat"] < 0.0:
            raise InfeasibleError("ball contains no sample points")
        m["chain_steps"], m["concentric_steps"] = prop.chain_steps, prop.concentric_steps
        m["log_sup_rhat"] = to_log(m["sup_rhat"])

    standing = _each(runs, resolvable)
    if standing:
        densest = densest_cover_balls(mset, [m["r"] for m in standing])
        for m, (count, center, inter) in zip(standing, densest):
            m.update(count=count, center=center, intersection_measure=inter,
                     count_bound=cover_count_bound(grid.domain, m["r"]), rho=m["r"] / 10.0)
        centers = np.array([m["center"] for m in standing])
        r_hats = [] if dc is None else [hat_radius(dc, m["rho"])[0] for m in standing]
        sups, maxima = p.field.sup_balls(centers, [m["rho"] for m in standing], r_hats)
        for m, r_hat, sup_rhat in zip(standing, r_hats, maxima):
            m["r_hat"], m["sup_rhat"] = r_hat, sup_rhat
        standing = _each(standing, near_max, sups)
    if standing:
        rays = best_ray_intervals(np.array([m["center"] for m in standing]),
                                  [m["r"] for m in standing], mset, [m["w"] for m in standing])
        standing = _each(standing, fan, rays)
    if standing and dc is not None:
        _each(standing, chain)
    names = {field.name for field in fields(_Record)}
    return [_Record(**{k: v for k, v in m.items() if k in names}) for m in runs]


# ---------------------------------------------------------------------------
# Proving: the step plans
# ---------------------------------------------------------------------------

def _aux(p: _Problem, rec: _Record, proved: Values) -> dict[str, float]:
    """A report's aux keys: the record's measured numbers, the problem's,
    and the values its plan proved from them."""
    measured = ("intersection_measure", "trace_length", "t_max", "gap", "data_sup")
    return {"cover_count": float(rec.count)} | {k: getattr(rec, k) for k in measured} | {
        "r0_eff": p.r0_eff, "sup_domain": p.sup_domain, "sup_set": p.sup_set,
        "M": p.gc.M, "delta": p.gc.delta, "sigma": p.gc.sigma,
    } | proved


def _geometry_steps(p: _Problem, rec: _Record,
                    steps: list[TraceStep] | None) -> tuple[float, float]:
    """The cover, pigeonhole-ball, ray, node and interpolation-bound steps
    of a record; returns log_poly and log_remainder_coeff."""
    domain, gc, n = p.grid.domain, p.gc, float(rec.n)
    _put(steps, "cover",
         {"r": rec.r, "diameter": domain.diameter, "dimension": float(domain.dimension)},
         {"count": float(rec.count), "count_bound": float(rec.count_bound)})
    _put(steps, "pigeonhole-ball", {"set_measure": p.mset.measure, "cover_count": float(rec.count)},
         {"intersection_measure": rec.intersection_measure})
    _put(steps, "ray-selection",
         {"r": rec.r, "n_directions": float(len(ray_directions(domain.dimension))),
          "intersection_measure": rec.intersection_measure},
         {"trace_length": rec.trace_length, "t_max": rec.t_max})
    _put(steps, "point-separation", {"trace_length": rec.trace_length, "n": n},
         {"gap": rec.gap, "data_sup": rec.data_sup})
    bound = {"n": n, "t_max": rec.t_max, "gap": rec.gap, "data_sup": rec.data_sup}
    return _put(steps, "polynomial-sup-bound", bound)["log_bound"], _put(
        steps, "remainder-bound",
        {"n": n, "t_max": rec.t_max, "M": gc.M, "delta": gc.delta, "sigma": gc.sigma},
    )["log_coeff"]


def _proof_tail(p: _Problem, rec: _Record, log_poly: float, log_remainder_coeff: float,
                log_t: float, steps: list[TraceStep] | None) -> float:
    """The interpolation-split step and the master inequality
    supD <= T (poly + remainder) with log T = `log_t`; returns the master
    right side."""
    log_remainder = log_remainder_coeff + p.log_sup_domain
    _put(steps, "interpolation-split", {"log_poly": log_poly, "log_remainder": log_remainder},
         {"lhs_log": rec.log_w})
    return _put(
        steps, "master-inequality",
        {"log_total_factor": log_t, "log_poly": log_poly, "log_remainder": log_remainder},
        {"lhs_log": p.log_sup_domain},
    )["rhs_log"]


# ---------------------------------------------------------------------------
# Doubling branches (sigma = 1 and sigma > 1)
# ---------------------------------------------------------------------------

def _radius(branch: str, p: _Problem, dc: DoublingCertificate, n: int,
            steps: list[TraceStep] | None = None) -> float:
    """The radius at degree n, through the branch's radius-choice step; a
    degree whose resolution exponent log2(kappa) / (n + 1) is not below 1
    is infeasible."""
    gc = p.gc
    if branch == BRANCH_SIGMA1:
        r = _put(steps, "radius-choice/sigma1",
                 {"n": float(n), "r0_eff": p.r0_eff, "log_X": p.log_x},
                 {"r": choose_r_sigma1(n, p.sup_set, p.sup_domain, gc.M, p.r0_eff)})["r"]
    else:
        r = _put(steps, "radius-choice/sigma-gt1",
                 {"n": float(n), "delta": gc.delta, "sigma": gc.sigma, "log_X": p.log_x},
                 {"r": choose_r_sigma_gt1(n, p.sup_set, p.sup_domain, gc.M, gc.delta, gc.sigma),
                  "rhs_log": math.log(p.r0_eff)})["r"]
    if dc.log2_kappa / (n + 1) >= 1.0:
        raise InfeasibleError(f"degree {n} too small for doubling constant {dc.kappa}")
    return r


def _doubling_plan(
    branch: str, p: _Problem, dc: DoublingCertificate, rec: _Record,
    steps: list[TraceStep] | None = None,
) -> tuple[float, Values]:
    """The proof at a doubling-branch record, from its radius choice to its
    resolution: log C, and the values a report's aux keeps.  Given a list,
    the steps are appended to it."""
    _radius(branch, p, dc, rec.n, steps)
    log_poly, log_remainder_coeff = _geometry_steps(p, rec, steps)
    log_kappa = math.log(dc.kappa)
    _put(steps, "global-max-slack", {}, {"lhs_log": p.log_sup_domain})
    _put(steps, "chain-propagation",
         {"kappa": dc.kappa, "r_hat": rec.r_hat, "chain_steps": float(rec.chain_steps)},
         {"lhs_log": p.log_sup_domain, "rhs_log": rec.chain_steps * log_kappa + rec.log_sup_rhat})
    _put(steps, "concentric-reduction",
         {"kappa": dc.kappa, "concentric_steps": float(rec.concentric_steps)},
         {"lhs_log": rec.log_sup_rhat,
          "rhs_log": rec.concentric_steps * log_kappa + rec.log_sup_rho})
    _put(steps, "near-max-point", {"rho": rec.rho},
         {"lhs_log": rec.log_sup_rho, "rhs_log": LOG2 + rec.log_w})
    factor = {"kappa": dc.kappa, "chain_steps": float(rec.chain_steps),
              "concentric_steps": float(rec.concentric_steps)}
    log_t = _put(steps, "propagation-factor", factor)["log_total"]
    log_master = _proof_tail(p, rec, log_poly, log_remainder_coeff, log_t, steps)

    exponent = dc.log2_kappa / (rec.n + 1)
    log_t_base = _put(
        steps, "prefactor-split", {"log_total_factor": log_t, "exponent": exponent, "log_X": p.log_x}
    )["log_T_base"]
    log_a = _put(steps, "assembly", {
        "log_T_base": log_t_base, "exponent": exponent, "log_M": math.log(p.gc.M),
        "log_poly": log_poly, "log_remainder_coeff": log_remainder_coeff,
        "log_sup_domain": p.log_sup_domain, "log_sup_set": p.log_sup_set,
    }, {"identity_rhs": log_master})["log_A"]
    log_c = _put(steps, "resolution", {"log_A": log_a, "exponent": exponent})["log_C"]
    return log_c, factor | {"r_hat": rec.r_hat, "exponent": exponent, "log_X": p.log_x,
                            "log_A": log_a, "log_total_factor": log_t}


def _certify_doubling(
    branch: str,
    p: _Problem,
    dc: DoublingCertificate,
    n_base: int,
    search: int,
    branch_aux: dict[str, float],
) -> ObservabilityCertificate:
    """Measure at n_base..n_base+search and keep the smallest sound
    constant; the degree n_base is the prescribed one.  Every record goes
    through the plan without a list; the winner's goes through it once more
    to build its trace."""
    if search < 0:
        raise ConfigError(f"search must be nonnegative, got {search}")
    if n_base + search > _DEGREE_CAP:
        raise InfeasibleError(
            f"degree {n_base + search} is beyond desk scale; the cap is {_DEGREE_CAP}"
        )
    best: tuple[float, _Record] | None = None
    prescribed: tuple[float, _Record] | None = None
    failures: list[tuple[int, str]] = []
    last = n_base + search
    for first in range(n_base, last + 1, _STAGE_DEGREES):
        window = range(first, min(first + _STAGE_DEGREES, last + 1))
        for rec in _measure(p, window, lambda n: _radius(branch, p, dc, n), dc):
            try:
                if rec.error is not None:
                    raise rec.error
                log_c = max(_doubling_plan(branch, p, dc, rec)[0], 0.0)
            except (InfeasibleError, ResolutionError) as exc:
                failures.append((rec.n, str(exc)))
                continue
            if rec.n == n_base:
                prescribed = log_c, rec
            if best is None or log_c < best[0] - 1e-12:
                best = log_c, rec
    if best is None:
        raise InfeasibleError(_search_failure(failures))
    log_c, rec = best
    steps: list[TraceStep] = []
    aux = _aux(p, rec, _doubling_plan(branch, p, dc, rec, steps)[1])
    aux |= branch_aux | {"n_base": float(n_base)}
    search_outputs = {"log_C_best": log_c}
    if prescribed is not None:
        aux |= {"prescribed_n": float(prescribed[1].n), "prescribed_log_C": prescribed[0],
                "prescribed_r": prescribed[1].r}
        search_outputs["log_C_prescribed"] = prescribed[0]
    _put(steps, "degree-search", {"n_best": float(rec.n)}, search_outputs)
    return ObservabilityCertificate(branch, log_c, rec.n, rec.r, aux, steps)


def _search_failure(failures: list[tuple[int, str]]) -> str:
    """The message of a degree search that failed at every degree, given
    each degree and its reason: the count, the first and the last."""
    (first, why), (last, last_why) = failures[0], failures[-1]
    return (f"certification infeasible at every degree in the search range: "
            f"{len(failures)} attempts; first n = {first}: {why}; last n = {last}: {last_why}")


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
    gamma = dc.log2_kappa / (2 * math.floor(dc.log2_kappa) + 3)
    return _certify_doubling(BRANCH_SIGMA1, p, dc, n_base, search, {"gamma": gamma})


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
    branch_aux = {
        "B": b_const,
        "eta": dc.log2_kappa / (floor_n + 1),
        "shape_factor_log": (
            (gc.sigma - 1.0) * dc.log2_kappa * math.log(max(dc.log2_kappa, b_const))
        ),
    }
    return _certify_doubling(BRANCH_SIGMA_GT1, p, dc, n_base, search, branch_aux)


# ---------------------------------------------------------------------------
# Unique-continuation branch
# ---------------------------------------------------------------------------

def _ucp_degree(p: _Problem, uc: UcpCertificate, c0: float,
                steps: list[TraceStep] | None = None) -> tuple[Values, float]:
    """The ucp-threshold and radius-choice steps at the base constant c0:
    the threshold's outputs and the radius."""
    threshold = _put(steps, "ucp-threshold", {
        "a": uc.a, "b": uc.b, "C0": c0, "vol_domain": p.vol_domain,
        "set_measure": p.mset.measure, "log_X": p.log_x, "r0_eff": p.r0_eff,
        "delta": p.gc.delta, "sigma": p.gc.sigma,
    })
    return threshold, _put(steps, "radius-choice/ucp", {"b": uc.b, "n0": threshold["n0"]},
                           {"rhs_log": math.log(p.r0_eff)})["r"]


def _ucp_plan(
    p: _Problem, uc: UcpCertificate, c0: float, rec: _Record,
    steps: list[TraceStep] | None = None,
) -> tuple[float, Values]:
    """The proof at the record of the threshold degree for base constant c0:
    log C, and the values a report's aux keeps.  Given a list, the steps are
    appended to it."""
    a, b, gc, n0 = uc.a, uc.b, p.gc, rec.n
    threshold, _ = _ucp_degree(p, uc, c0, steps)
    log_poly, log_remainder_coeff = _geometry_steps(p, rec, steps)
    log_t = _put(
        steps, "ucp-propagation", {"a": a, "b": b, "rho": rec.rho},
        {"lhs_log": p.log_sup_domain, "rhs_log": _ucp_exponent(a, b, rec.rho) + rec.log_sup_rho},
    )["log_factor"]
    _put(steps, "near-max-point", {"rho": rec.rho},
         {"lhs_log": rec.log_sup_rho, "rhs_log": LOG2 + rec.log_w})
    _proof_tail(p, rec, log_poly, log_remainder_coeff, log_t, steps)

    # Rewrite both master terms in the threshold form the degree rule needs.
    log_d, m_star = threshold["log_D"], threshold["m_star"]
    _put(steps, "shape-poly-term", {"C0": c0, "a": a, "b": b, "log_D": log_d, "n0": float(n0)},
         {"lhs_log": log_t + log_poly,
          "rhs_log": math.log(c0) + a / b + n0 * log_d + p.log_sup_set})
    at_n0 = {"C0": c0, "a": a, "b": b, "delta": gc.delta, "sigma": gc.sigma, "n0": float(n0)}
    log_cf = _contraction_log(at_n0)
    _put(steps, "shape-remainder-term", at_n0, {
        "lhs_log": log_t + log_remainder_coeff + p.log_sup_domain,
        "rhs_log": math.log(c0) + a / b + math.log(gc.M) + (n0 + 1) * log_cf + p.log_sup_domain,
    })
    _put(steps, "contraction", at_n0)

    algebra = _put(
        steps, "ucp-assembly",
        {"C0": c0, "a": a, "b": b, "log_M": math.log(gc.M), "log_D": log_d, "m_star": m_star},
    )
    log_c = _put(steps, "resolution/ucp", algebra)["log_C"]
    return log_c, threshold | algebra | {"C0": c0, "contraction_factor": math.exp(log_cf)}


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
    log_spread = math.log(p.vol_domain / mset.measure)

    c0 = UCP_BASE_CONSTANT
    for _ in range(40):
        threshold, r = _ucp_degree(p, uc, c0)
        n0 = int(threshold["n0"])
        (rec,) = _measure(p, [n0], lambda n: r)
        if rec.error is not None:
            raise rec.error
        # polynomial-term conversion: 2 * PB <= C0^(n+1) (|O|/|E|)^n supE
        lhs1 = LOG2 + _geometry_steps(p, rec, None)[0]
        rhs1 = (n0 + 1) * math.log(c0) + n0 * log_spread + p.log_sup_set
        if lhs1 <= rhs1 + 1e-12:
            break
        needed = (lhs1 - n0 * log_spread - p.log_sup_set) / (n0 + 1)
        c0 = max(c0 * 1.0000001, math.exp(needed) * (1 + 1e-9))
    else:
        raise InfeasibleError("threshold-form constant did not converge")

    steps: list[TraceStep] = []
    log_c, proved = _ucp_plan(p, uc, c0, rec, steps)
    return ObservabilityCertificate(BRANCH_UCP, max(log_c, 0.0), n0, rec.r,
                                    _aux(p, rec, proved), steps)


# ---------------------------------------------------------------------------
# Brute-force oracle and soundness
# ---------------------------------------------------------------------------

def empirical_ratio(f: FunctionModel, mset: MeasurableSet) -> EmpiricalRatio:
    """Same-grid sup ratio sup_domain / sup_set, the oracle a certificate
    must dominate."""
    grid_field = GridField.of(f, mset.grid)
    sup_d, _ = grid_field.sup_domain
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
