"""Point separation on a 1D trace and the certified bounds on the sup norm
and remainder of the interpolation polynomial through the separated nodes.

The bound arithmetic is entirely log-space, as are the barycentric weights,
so degrees up to a few hundred stay finite.  The sup bound keeps the exact
combinatorial sum sum_i 1/(i! (n-i)!) = 2^n / n! instead of coarsening it
through Stirling, which yields strictly sharper certified constants with the
same inequality direction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InfeasibleError
from .functions import GevreyCertificate
from .geometry import IntervalSet
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
# Barycentric weights in the log domain
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


# ---------------------------------------------------------------------------
# Certified bounds
# ---------------------------------------------------------------------------

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
