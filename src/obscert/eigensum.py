"""Sums of Laplace eigenfunctions on the flat torus.

Trigonometric modes sin(2 pi k.x + phi) are exact eigenfunctions of the
(negative) Laplacian with eigenvalue (2 pi |k|)^2, so eigenvalue grouping,
orthogonality, power bounds and derivative certificates are all closed form.
The growth parameter gamma = C (sqrt(lambda) + m^2 log m + 1) feeds a
doubling certificate kappa = e^gamma into the analytic-branch certifier.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .certify import ObservabilityCertificate, certify_sigma1, empirical_ratio
from .errors import ConfigError, HypothesisError, ResolutionError
from .functions import (
    TWO_PI,
    DoublingCertificate,
    FunctionModel,
    TrigMode,
    TrigSum,
    derive_gevrey,
    estimate_doubling,
)
from .geometry import Domain, Grid, MeasurableSet


# ---------------------------------------------------------------------------
# Eigen-sums
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EigenSum(TrigSum):
    """A trigonometric sum read as a sum of Laplace eigenfunctions, grouped
    by distinct eigenvalue; it serves wherever its `TrigSum` would."""

    allow_constant: bool = False

    def __post_init__(self):
        super().__post_init__()
        seen = set()
        for m in self.modes:
            key = (m.freq, m.amplitude, m.phase)
            if key in seen:
                raise ConfigError(f"duplicate identical mode {key}")
            seen.add(key)
            if all(k == 0 for k in m.freq) and not self.allow_constant:
                raise ConfigError("zero frequency requires allow_constant")

    @cached_property
    def eigenvalues(self) -> tuple[float, ...]:
        """Distinct eigenvalues (2 pi |k|)^2, ascending."""
        vals = sorted({(TWO_PI * m.freq_norm) ** 2 for m in self.modes})
        return tuple(vals)

    @property
    def m(self) -> int:
        return len(self.eigenvalues)

    @property
    def max_eigenvalue(self) -> float:
        return self.eigenvalues[-1]

    def component(self, eigenvalue: float) -> TrigSum:
        ms = tuple(
            m for m in self.modes if abs((TWO_PI * m.freq_norm) ** 2 - eigenvalue) < 1e-9
        )
        return TrigSum(ms, self.dimension)

    def laplace_power(self, order: int) -> TrigSum:
        """(-Laplacian)^order applied to the sum, again a trigonometric sum."""
        ms = tuple(
            TrigMode(m.freq, m.amplitude * (TWO_PI * m.freq_norm) ** (2 * order), m.phase)
            for m in self.modes
        )
        return TrigSum(ms, self.dimension)


def build_eigensum(
    modes: Sequence[tuple[Sequence[int], float, float]],
    dimension: int,
    allow_constant: bool = False,
) -> EigenSum:
    return EigenSum(TrigSum.of(modes, dimension).modes, dimension, allow_constant)


# ---------------------------------------------------------------------------
# L2 machinery on the periodic grid
# ---------------------------------------------------------------------------

def l2_inner(u: FunctionModel, v: FunctionModel, grid: Grid) -> float:
    """Periodic trapezoidal inner product; exact for unaliased trig products."""
    pu = u.evaluate(grid.points)
    pv = v.evaluate(grid.points)
    return float(np.mean(pu * pv)) * grid.domain.volume


def l2_norm(u: FunctionModel, grid: Grid) -> float:
    return math.sqrt(max(0.0, l2_inner(u, u, grid)))


@dataclass
class OrthogonalityReport:
    passed: bool
    max_inner: float
    max_power_excess: float
    pairs_checked: int


def _require_unit_torus(domain: Domain) -> None:
    if domain.kind != "torus" or any(abs(e - 1.0) > 1e-12 for e in domain.extent):
        raise ConfigError("integer-frequency eigen-sums live on the unit torus")


def orthogonality_check(es: EigenSum, grid: Grid) -> OrthogonalityReport:
    """Distinct-eigenvalue components are orthogonal; Laplacian powers obey
    the eigenvalue bound |(-Lap)^n h|_2 <= lambda^n |h|_2 for n = 1..4."""
    _require_unit_torus(grid.domain)
    if min(grid.cells) < 4 * es.max_freq_norm:
        raise ResolutionError(
            f"aliased grid: {min(grid.cells)} cells for max frequency {es.max_freq_norm}"
        )
    comps = [es.component(lam) for lam in es.eigenvalues]
    max_inner = 0.0
    pairs = 0
    for i in range(len(comps)):
        for j in range(i + 1, len(comps)):
            max_inner = max(max_inner, abs(l2_inner(comps[i], comps[j], grid)))
            pairs += 1

    lam = es.max_eigenvalue
    norm_h = l2_norm(es, grid)
    max_excess = -math.inf
    for order in range(1, 5):
        lhs = l2_norm(es.laplace_power(order), grid)
        rhs = lam ** order * norm_h
        max_excess = max(max_excess, (lhs - rhs) / rhs)
    return OrthogonalityReport(
        passed=max_inner <= 1e-10 and max_excess <= 1e-9,
        max_inner=max_inner,
        max_power_excess=max_excess,
        pairs_checked=pairs,
    )


# ---------------------------------------------------------------------------
# Growth parameter
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GammaParams:
    calibration: float
    gamma: float

    def __post_init__(self):
        if self.gamma <= 0:
            raise ConfigError("gamma must be positive")


def gamma_params(es: EigenSum, calibration: float = 1.0) -> GammaParams:
    """gamma = C (sqrt(lambda) + m^2 log m + 1); the log m term vanishes at m=1."""
    if calibration < 1.0:
        raise ConfigError("calibration constant must be >= 1")
    m = es.m
    g = calibration * (math.sqrt(es.max_eigenvalue) + m * m * math.log(m) + 1.0)
    return GammaParams(calibration, g)


def calibrate_gamma(family: Sequence[EigenSum], domain: Domain, grid: Grid) -> float:
    """Smallest calibration constant 1.25^j making e^gamma dominate the
    empirical doubling constant on every family member."""
    log_kappas = [
        math.log(max(estimate_doubling(es, domain, grid)[1].kappa_hat, 2.0)) for es in family
    ]
    c = 1.0
    for _ in range(64):
        if all(gamma_params(es, c).gamma >= lk for es, lk in zip(family, log_kappas)):
            return c
        c *= 1.25
    raise HypothesisError("calibration failed: doubling growth exceeds the model")


# ---------------------------------------------------------------------------
# Doubling growth study
# ---------------------------------------------------------------------------

@dataclass
class GrowthRow:
    lam: float
    m: int
    gamma: float
    kappa_hat: float


@dataclass
class GrowthStudy:
    rows: list[GrowthRow]
    slope: float
    intercept: float
    slope_bound: float | None
    flagged: bool

    def write_csv(self, path) -> None:
        with open(path, "w", newline="", encoding="ascii") as fh:
            w = csv.writer(fh)
            w.writerow(["lambda", "m", "gamma", "kappa_hat"])
            for row in self.rows:
                w.writerow([repr(row.lam), row.m, repr(row.gamma), repr(row.kappa_hat)])


def doubling_growth_study(
    family: Sequence[EigenSum | tuple[FunctionModel, float]],
    domain: Domain,
    grid: Grid,
    calibration: float = 1.0,
    slope_bound: float | None = None,
) -> GrowthStudy:
    """Empirical doubling constants against sqrt(lambda), with a linear fit.

    Entries may be eigen-sums or (model, nominal-lambda) pairs so that
    non-eigenfunction negative controls run through the same machinery.  The
    study is flagged when the fitted slope exceeds the provided bound.
    """
    rows: list[GrowthRow] = []
    for entry in family:
        if isinstance(entry, EigenSum):
            model, lam = entry, entry.max_eigenvalue
            m = entry.m
            g = gamma_params(entry, calibration).gamma
        else:
            model, lam = entry
            m, g = 0, float("nan")
        _, rep = estimate_doubling(model, domain, grid)
        rows.append(GrowthRow(lam, m, g, max(rep.kappa_hat, 2.0)))

    xs = np.sqrt([row.lam for row in rows])
    ys = np.log([row.kappa_hat for row in rows])
    if len(rows) >= 2 and float(np.ptp(xs)) > 0:
        slope, intercept = np.polyfit(xs, ys, 1)
    else:
        slope, intercept = 0.0, float(ys[0]) if len(rows) else 0.0
    flagged = slope_bound is not None and slope > slope_bound
    return GrowthStudy(rows, float(slope), float(intercept), slope_bound, flagged)


# ---------------------------------------------------------------------------
# Certification of eigen-sums
# ---------------------------------------------------------------------------

def shape_constant(log_c: float, gamma: float, set_measure: float) -> float:
    """Smallest c >= 1 with log C <= c * gamma * (log c - log |E|)."""

    def bound(c: float) -> float:
        return c * gamma * (math.log(c) - math.log(set_measure))

    if bound(1.0) >= log_c:
        return 1.0
    lo, hi = 1.0, 2.0
    while bound(hi) < log_c:
        hi *= 2.0
        if hi > 1e12:
            raise HypothesisError("certified constant exceeds the growth shape")
    for _ in range(200):
        mid = (lo + hi) / 2.0
        if bound(mid) >= log_c:
            hi = mid
        else:
            lo = mid
    return hi


def eigensum_study_csv(
    path,
    family: Sequence[EigenSum],
    msets: Sequence[MeasurableSet],
    grid: Grid,
    calibration: float = 1.0,
    search: int = 8,
) -> list[dict[str, float]]:
    """Full study table (lambda, m, gamma, kappa_hat, C, ratio) as CSV rows,
    one row per family member and set."""
    if not family or not msets:
        raise ConfigError("a study needs at least one eigen-sum and one set")
    if any(mset.grid != grid for mset in msets):
        raise ConfigError("every set of the study must live on the study grid")
    domain = grid.domain
    rows: list[dict[str, float]] = []
    for es in family:
        _, rep = estimate_doubling(es, domain, grid)
        gp = gamma_params(es, calibration)
        for mset in msets:
            cert = certify_eigensum(es, mset, gp, search=search)
            ratio = empirical_ratio(es, mset)
            rows.append(
                {
                    "lambda": es.max_eigenvalue,
                    "m": float(es.m),
                    "gamma": gp.gamma,
                    "kappa_hat": rep.kappa_hat,
                    "set_measure": mset.measure,
                    "C_log10": cert.log_constant / math.log(10.0),
                    "ratio_empirical": ratio.ratio,
                }
            )
    with open(path, "w", newline="", encoding="ascii") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        for row in rows:
            writer.writerow({k: repr(v) if isinstance(v, float) else v for k, v in row.items()})
    return rows


def certify_eigensum(
    es: EigenSum,
    mset: MeasurableSet,
    gp: GammaParams,
    *,
    search: int = 16,
) -> ObservabilityCertificate:
    """Observability certificate for an eigen-sum on the torus of the set's
    grid.

    The doubling certificate is kappa = e^gamma (clamped at 2) with radius
    bound min(1, max ball radius); the derivative certificate comes from
    the mode data, and the analytic branch does the rest.  The certificate is
    checked against the growth shape (c/|E|)^(c gamma) and the fitted shape
    constant is recorded.
    """
    grid = mset.grid
    domain = grid.domain
    _require_unit_torus(domain)
    if gp.gamma > 700.0:
        raise HypothesisError("gamma too large to represent the doubling constant")
    kappa = max(2.0, math.exp(gp.gamma))
    dc = DoublingCertificate(kappa, min(1.0, domain.max_ball_radius))
    gc = derive_gevrey(es, domain, grid)
    cert = certify_sigma1(es, mset, dc, gc, search=search)
    cert.aux.update(
        {
            "gamma": gp.gamma,
            "calibration": gp.calibration,
            "m": float(es.m),
            "lambda": es.max_eigenvalue,
            "shape_constant": shape_constant(cert.log_constant, gp.gamma, mset.measure),
        }
    )
    return cert
