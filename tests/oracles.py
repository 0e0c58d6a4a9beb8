"""Brute-force reference implementations that tests compare the certified
interpolation bounds against.

`lagrange_eval` evaluates the interpolation polynomial itself, and
`remainder_empirical_check` measures its actual error along a segment
against the pointwise Hermite remainder and, given a certificate, against
the certified global bound.  The pipeline never evaluates the polynomial: it
needs only the bounds, so this code lives beside the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from obscert.errors import ConfigError
from obscert.functions import FunctionModel, GevreyCertificate
from obscert.geometry import Segment
from obscert.interp import NodeSet, _log_weights, remainder_bound
from obscert.logspace import NEG_INF, log_factorial, to_log


# ---------------------------------------------------------------------------
# Barycentric evaluation
# ---------------------------------------------------------------------------

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
# Empirical remainder check
# ---------------------------------------------------------------------------

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
    n = xs.size - 1
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
