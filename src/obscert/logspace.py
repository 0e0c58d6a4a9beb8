"""Log-domain scalar arithmetic for certified bounds.

Every bound in the toolkit that can overflow a double -- factorial powers,
propagation factors kappa**K, the final observability constants -- is carried
as a natural logarithm.  Helpers here keep that arithmetic exact and
deterministic.
"""

from __future__ import annotations

import math

import numpy as np

LOG2 = math.log(2.0)
LOG10 = math.log(10.0)
NEG_INF = float("-inf")


def log_factorial(n: int) -> float:
    """ln(n!) via lgamma; exact to double precision for all n >= 0."""
    if n < 0:
        raise ValueError(f"factorial of negative {n}")
    return math.lgamma(n + 1)


def log_add(a: float, b: float) -> float:
    """ln(e^a + e^b), safe for -inf arguments."""
    return float(np.logaddexp(a, b))


def to_log(x: float) -> float:
    """ln(x) with ln(0) = -inf."""
    if x < 0:
        raise ValueError(f"log of negative value {x}")
    if x == 0.0:
        return NEG_INF
    return math.log(x)


def log10_of(log_x: float) -> float:
    """Convert a natural-log value to base-10."""
    return log_x / LOG10
