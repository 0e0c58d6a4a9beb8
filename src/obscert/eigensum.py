"""Sums of Laplace eigenfunctions on the flat torus.

Trigonometric modes sin(2 pi k.x + phi) are exact eigenfunctions of the
(negative) Laplacian with eigenvalue (2 pi |k|)^2, so eigenvalue grouping
and derivative certificates are closed form.  The growth parameter
gamma = C (sqrt(lambda) + m^2 log m + 1) feeds a doubling certificate
kappa = e^gamma into the analytic-branch certifier.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .certify import ObservabilityCertificate, certify_sigma1, empirical_ratio
from .errors import ConfigError, HypothesisError
from .functions import (
    TWO_PI,
    DoublingCertificate,
    FunctionModel,
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


def build_eigensum(
    modes: Sequence[tuple[Sequence[int], float, float]],
    dimension: int,
    allow_constant: bool = False,
) -> EigenSum:
    return EigenSum(TrigSum.of(modes, dimension).modes, dimension, allow_constant)


def _require_unit_torus(domain: Domain) -> None:
    if domain.kind != "torus" or any(abs(e - 1.0) > 1e-12 for e in domain.extent):
        raise ConfigError("integer-frequency eigen-sums live on the unit torus")


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
