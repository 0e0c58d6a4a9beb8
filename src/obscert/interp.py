"""Point separation on a 1D trace, the interpolation polynomial, and the
certified bounds on its sup norm and remainder.

The polynomial is evaluated in barycentric form with log-domain weights so
degrees up to a few hundred stay finite; the bound arithmetic is entirely
log-space.  The sup bound keeps the exact combinatorial sum
sum_i 1/(i! (n-i)!) = 2^n / n! instead of coarsening it through Stirling,
which yields strictly sharper certified constants with the same inequality
direction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError, InfeasibleError
from .functions import FunctionModel, GevreyCertificate
from .geometry import IntervalSet, Segment
from .logspace import LOG2, NEG_INF, log_factorial, to_log


# ---------------------------------------------------------------------------
# Node sets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NodeSet:
    """n+1 strictly increasing nodes with a guaranteed consecutive gap."""

    nodes: np.ndarray
    gap: float

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        if nodes.ndim != 1 or nodes.size == 0:
            raise ConfigError("nodes must be a nonempty 1D array")
        diffs = np.diff(nodes)
        if nodes.size > 1 and float(np.min(diffs)) < self.gap * (1.0 - 1e-12):
            raise ConfigError("node gaps fall below the guaranteed gap")
        object.__setattr__(self, "nodes", nodes)

    @property
    def degree(self) -> int:
        return self.nodes.size - 1


def separate_points(trace: IntervalSet, n: int) -> NodeSet:
    """Greedy left-to-right separation of n+1 points inside the trace.

    x_0 is the infimum of the trace and each following node is the first
    trace point at least totallength/(n+1) beyond its predecessor.  The
    measure argument guarantees all n+1 nodes exist whenever the trace has
    positive length; failure signals an infeasible degree, not a bug.
    """
    if n < 0:
        raise ConfigError("degree must be nonnegative")
    total = trace.total
    if total <= 0.0:
        raise InfeasibleError("trace has zero length")
    gap = total / (n + 1)
    nodes = [trace.inf]
    for _ in range(n):
        nxt = trace.first_point_at_or_after(nodes[-1] + gap)
        if nxt is None:
            raise InfeasibleError(
                f"cannot separate {n + 1} points with gap {gap:.3e} in the trace"
            )
        nodes.append(nxt)
    return NodeSet(np.asarray(nodes), gap)


# ---------------------------------------------------------------------------
# Barycentric evaluation with log-domain weights
# ---------------------------------------------------------------------------

def _log_weights(nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(log|w_i|, sign_i) with w_i = 1 / prod_{j != i} (x_i - x_j).

    For sorted nodes the product sign is (-1)^(n-i), so only magnitudes need
    the log treatment.  Row i of the off-diagonal (n+1) x n difference array
    holds x_i - x_j for j != i in node order, summed per row.
    """
    n1 = nodes.size
    diffs = nodes[:, None] - nodes[None, :]
    off = diffs[~np.eye(n1, dtype=bool)].reshape(n1, n1 - 1)
    logs = -np.sum(np.log(np.abs(off)), axis=1)
    signs = np.where((n1 - 1 - np.arange(n1)) % 2 == 0, 1.0, -1.0)
    return logs, signs


def lagrange_eval(nodes: NodeSet | np.ndarray, values: Sequence[float], t) -> np.ndarray:
    """Evaluate the interpolation polynomial at t (scalar or array).

    Barycentric form: P(t) = sum w_i v_i / (t - x_i) / sum w_i / (t - x_i),
    numerically stable for large degrees; node hits return the data exactly.
    The kernel is built node-major (one row per node, so every elementwise
    step runs over all probes at once) and transposed once for the two sums,
    which add each probe's terms in node order.
    """
    xs = nodes.nodes if isinstance(nodes, NodeSet) else np.asarray(nodes, dtype=float)
    vals = np.asarray(values, dtype=float)
    if xs.size != vals.size:
        raise ConfigError("one value per node is required")
    if xs.size > 1 and float(np.min(np.diff(np.sort(xs)))) <= 0.0:
        raise ConfigError("coincident interpolation nodes")
    t_arr = np.atleast_1d(np.asarray(t, dtype=float)).ravel()
    log_w, sign_w = _log_weights(xs)

    diff = t_arr[None, :] - xs[:, None]
    hits = diff == 0.0
    terms = np.empty((2,) + diff.shape)
    kernel = terms[0]
    np.abs(np.where(hits, 1.0, diff), out=kernel)
    np.log(kernel, out=kernel)
    np.subtract(log_w[:, None], kernel, out=kernel)
    kernel -= np.max(kernel, axis=0)
    np.exp(kernel, out=kernel)
    # sign_i * sign(t - x_i) is +-1, so applying it is exact in any order
    np.copysign(kernel, diff, out=kernel)
    kernel *= sign_w[:, None]
    np.multiply(kernel, vals[:, None], out=terms[1])
    denom, numer = np.sum(terms.transpose(0, 2, 1).copy(), axis=2)
    out = numer / denom

    hit_cols = np.any(hits, axis=0)
    if np.any(hit_cols):
        out[hit_cols] = vals[np.argmax(hits[:, hit_cols], axis=0)]
    if np.asarray(t).ndim:
        return out.reshape(np.asarray(t).shape)
    return float(out[0])


# ---------------------------------------------------------------------------
# Certified bounds
# ---------------------------------------------------------------------------

def denominator_lower_bound(n: int, gap: float) -> np.ndarray:
    """ln of the guaranteed floor i! (n-i)! g^n on |prod_{j != i}(x_i - x_j)|.

    Valid for every node set with consecutive gaps >= g, because then
    |x_i - x_j| >= |i - j| g.
    """
    if n < 0:
        raise ConfigError("degree must be nonnegative")
    if gap <= 0:
        raise ConfigError("gap must be positive")
    i = np.arange(n + 1)
    return np.array(
        [log_factorial(int(k)) + log_factorial(int(n - k)) for k in i]
    ) + n * math.log(gap)


@dataclass(frozen=True)
class PolyBound:
    """Certified sup bound on the interpolation polynomial over [0, t_max]."""

    degree: int
    t_max: float
    gap: float
    data_sup: float
    log_value: float

    @property
    def value(self) -> float:
        return math.exp(self.log_value) if self.log_value < 700 else math.inf


def poly_sup_bound(n: int, t_max: float, gap: float, data_sup: float) -> PolyBound:
    """sup |P| <= data_sup * sum_i t_max^n / (i! (n-i)! g^n).

    The sum collapses exactly to (t_max/g)^n 2^n / n!.
    """
    if gap > t_max and n > 0:
        raise ConfigError("gap cannot exceed the interval length")
    if data_sup < 0:
        raise ConfigError("data sup must be nonnegative")
    if data_sup == 0.0:
        log_value = NEG_INF
    elif n == 0:
        log_value = to_log(data_sup)
    else:
        log_value = (
            to_log(data_sup)
            + n * (math.log(t_max) - math.log(gap))
            + n * LOG2
            - log_factorial(n)
        )
    return PolyBound(n, t_max, gap, data_sup, log_value)


def remainder_bound(
    n: int, t_max: float, cert: GevreyCertificate, domain_sup: float
) -> float:
    """ln of the Hermite remainder bound t_max^(n+1) M (n+1)!^(sigma-1)
    delta^-(n+1) * domain_sup.

    Instantiated with the actual interval length (<= the 2r the coarse bound
    would use), which is sharper and still sound.
    """
    if n < 0:
        raise ConfigError("degree must be nonnegative")
    if domain_sup < 0:
        raise ConfigError("domain sup must be nonnegative")
    if t_max == 0.0 or domain_sup == 0.0:
        return NEG_INF
    return (
        (n + 1) * math.log(t_max)
        + math.log(cert.M)
        + (cert.sigma - 1.0) * log_factorial(n + 1)
        - (n + 1) * math.log(cert.delta)
        + to_log(domain_sup)
    )


@dataclass
class RemainderReport:
    passed: bool
    max_abs_error: float
    max_pointwise_bound: float
    log_global_bound: float
    worst_probe: float
    slack_log: float


def remainder_empirical_check(
    f: FunctionModel,
    seg: Segment,
    nodes: NodeSet,
    probes: Sequence[float],
    cert: GevreyCertificate | None = None,
    domain_sup: float | None = None,
) -> RemainderReport:
    """Check |f - P| <= prod|t - x_i| / (n+1)! * sup|f^(n+1)| at every probe.

    The derivative sup along the segment comes from the exact oracle on a
    dense sample; when a certificate is supplied the pointwise bound is also
    checked against the certified global remainder bound.  A violation points
    at an invalid derivative-growth certificate upstream.
    """
    xs = nodes.nodes
    n = nodes.degree
    mu = np.asarray(seg.direction)
    node_pts = seg.points(xs)
    values = f.evaluate(node_pts)

    ts_dense = np.linspace(0.0, seg.t_max, 512)
    deriv = np.abs(f.directional_derivative(seg.points(ts_dense), mu, n + 1))
    sup_deriv = float(np.max(deriv))

    probes = np.asarray(list(probes), dtype=float)
    interp = lagrange_eval(nodes, values, probes)
    actual = f.evaluate(seg.points(probes))
    err = np.abs(actual - interp)

    diffs = probes[:, None] - xs[None, :]
    node_hit = np.any(diffs == 0.0, axis=1)
    log_prod = np.where(
        node_hit,
        NEG_INF,
        np.sum(np.log(np.abs(np.where(diffs == 0.0, 1.0, diffs))), axis=1),
    )
    log_ptwise = log_prod - log_factorial(n + 1) + (
        to_log(sup_deriv) if sup_deriv > 0 else NEG_INF
    )
    ptwise = np.exp(np.minimum(log_ptwise, 700.0))

    data_scale = 1.0 + float(np.max(np.abs(values))) if values.size else 1.0
    tol = 1e-9 * np.maximum(ptwise, 0.0) + 1e-12 * data_scale
    ok = err <= ptwise + tol
    worst = int(np.argmax(err - ptwise))

    log_global = math.inf
    if cert is not None and domain_sup is not None:
        log_global = remainder_bound(n, seg.t_max, cert, domain_sup)
        ok &= log_ptwise <= log_global + 1e-9
    passed = bool(np.all(ok))
    slack = float(np.min((np.log(np.maximum(ptwise, 1e-300)) - np.log(np.maximum(err, 1e-300)))))
    return RemainderReport(
        passed=passed,
        max_abs_error=float(np.max(err)),
        max_pointwise_bound=float(np.max(ptwise)),
        log_global_bound=log_global,
        worst_probe=float(probes[worst]),
        slack_log=slack,
    )
