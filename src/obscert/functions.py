"""Test-function models with exact derivative oracles, plus the hypothesis
certificates: derivative-growth (Gevrey-type), doubling, and
unique-continuation.

Every model evaluates vectorised over arrays of points and exposes an exact
closed-form directional derivative of any order, which is what the
interpolation remainder consumes.  Certificate verification samples grid
points and directions; certificate *derivation* for the built-in kinds uses
closed-form coefficient bounds, so a derived certificate is sound by
construction rather than by sampling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .errors import ConfigError, HypothesisError, InfeasibleError
from .geometry import BLOCK, Ball, BallBlocks, Domain, Grid, MeasurableSet
from .logspace import log_factorial

TWO_PI = 2.0 * math.pi

# Cramer's bound |He_k(x)| e^{-x^2/4} <= c sqrt(k!) transported to the
# physicists' normalisation; 1.09 rounds the constant up.
HERMITE_ENVELOPE = 1.09


# ---------------------------------------------------------------------------
# Certificates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GevreyCertificate:
    """Derivative growth: sup|f^(k)| <= M k!^sigma delta^-k sup|f|."""

    M: float
    delta: float
    sigma: float

    def __post_init__(self):
        if self.M < 1.0:
            raise ConfigError("certificate requires M >= 1")
        if self.delta <= 0.0:
            raise ConfigError("certificate requires delta > 0")
        if self.sigma < 1.0:
            raise ConfigError("certificate requires sigma >= 1")


@dataclass(frozen=True)
class DoublingCertificate:
    """sup over B_2r is controlled by kappa times the sup over B_r, r <= r0."""

    kappa: float
    r0: float

    def __post_init__(self):
        if self.kappa < 2.0:
            raise ConfigError("doubling constant must be >= 2")
        if not 0.0 < self.r0 <= 1.0:
            raise ConfigError("doubling radius bound must lie in (0, 1]")

    @property
    def log2_kappa(self) -> float:
        return math.log2(self.kappa)


@dataclass(frozen=True)
class UcpCertificate:
    """Unique continuation: sup over the domain <= exp(a / r^b) * ball sup."""

    a: float
    b: float
    r0: float

    def __post_init__(self):
        if self.a <= 0 or self.b <= 0 or self.r0 <= 0:
            raise ConfigError("unique-continuation constants must be positive")


# ---------------------------------------------------------------------------
# Function models
# ---------------------------------------------------------------------------

class FunctionModel:
    """Evaluation plus an exact k-th directional-derivative oracle."""

    kind: str = "abstract"
    dimension: int

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def directional_derivative(
        self, points: np.ndarray, direction: np.ndarray, order: int
    ) -> np.ndarray:
        raise NotImplementedError

    def derivative_orders(
        self, points: np.ndarray, directions: np.ndarray, kmax: int
    ) -> Iterator[list[np.ndarray]]:
        """For k = 1..kmax, the k-th directional derivatives at `points`, one
        array per direction, bit-equal to `directional_derivative`.

        One order is yielded at a time; the built-in models share the work
        that depends on neither the order nor the direction.
        """
        for k in range(1, kmax + 1):
            yield [self.directional_derivative(points, mu, k) for mu in directions]


def _as_points(points: np.ndarray, dimension: int) -> np.ndarray:
    p = np.asarray(points, dtype=float)
    if p.shape[-1] != dimension:
        raise ConfigError(f"points have dimension {p.shape[-1]}, expected {dimension}")
    return p


def _unit(direction: np.ndarray) -> np.ndarray:
    mu = np.asarray(direction, dtype=float)
    n = np.linalg.norm(mu)
    if abs(n - 1.0) > 1e-9:
        raise ConfigError("direction must be a unit vector")
    return mu


@dataclass(frozen=True)
class TrigMode:
    freq: tuple[int, ...]
    amplitude: float
    phase: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.amplitude) and math.isfinite(self.phase)):
            raise ConfigError(f"mode {self.freq} needs a finite amplitude and phase")

    @property
    def freq_norm(self) -> float:
        return math.sqrt(sum(k * k for k in self.freq))


@dataclass(frozen=True)
class TrigSum(FunctionModel):
    """f(x) = sum_j a_j sin(2 pi k_j . x + phi_j) with integer frequencies."""

    modes: tuple[TrigMode, ...]
    dimension: int

    kind = "trig"

    def __post_init__(self):
        if not self.modes:
            raise ConfigError("a trigonometric sum needs at least one mode")
        for m in self.modes:
            if len(m.freq) != self.dimension:
                raise ConfigError("mode frequency dimension mismatch")

    @staticmethod
    def sine(freq: Sequence[int], amplitude: float = 1.0, phase: float = 0.0) -> "TrigSum":
        k = tuple(int(v) for v in freq)
        return TrigSum((TrigMode(k, float(amplitude), float(phase)),), len(k))

    @staticmethod
    def of(modes: Sequence[tuple[Sequence[int], float, float]], dimension: int) -> "TrigSum":
        ms = tuple(TrigMode(tuple(int(v) for v in k), float(a), float(p)) for k, a, p in modes)
        return TrigSum(ms, dimension)

    @property
    def max_freq_norm(self) -> float:
        return max(m.freq_norm for m in self.modes)

    @property
    def amplitude_sum(self) -> float:
        return sum(abs(m.amplitude) for m in self.modes)

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        p = _as_points(points, self.dimension)
        out = np.zeros(p.shape[:-1])
        for m in self.modes:
            arg = TWO_PI * np.tensordot(p, np.asarray(m.freq, dtype=float), axes=([-1], [0]))
            out += m.amplitude * np.sin(arg + m.phase)
        return out

    def directional_derivative(self, points, direction, order: int) -> np.ndarray:
        if order == 0:
            return self.evaluate(points)
        p = _as_points(points, self.dimension)
        mu = _unit(direction)
        out = np.zeros(p.shape[:-1])
        shift = order * math.pi / 2.0
        for m in self.modes:
            k = np.asarray(m.freq, dtype=float)
            rate = TWO_PI * float(np.dot(k, mu))
            if rate == 0.0 and order > 0:
                continue
            arg = TWO_PI * np.tensordot(p, k, axes=([-1], [0]))
            out += m.amplitude * rate ** order * np.sin(arg + m.phase + shift)
        return out

    def derivative_orders(self, points, directions, kmax: int) -> Iterator[list[np.ndarray]]:
        """Each mode's phase once, its sine once per order, then each
        direction's term `amplitude * rate**k * sine`, added in mode order."""
        p = _as_points(points, self.dimension)
        mus = [_unit(mu) for mu in directions]
        modes = []
        for m in self.modes:
            k = np.asarray(m.freq, dtype=float)
            rates = [TWO_PI * float(np.dot(k, mu)) for mu in mus]
            if any(rate != 0.0 for rate in rates):
                modes.append((m.amplitude, rates,
                              TWO_PI * np.tensordot(p, k, axes=([-1], [0])) + m.phase))
        for order in range(1, kmax + 1):
            shift = order * math.pi / 2.0
            outs = [np.zeros(p.shape[:-1]) for _ in mus]
            for amplitude, rates, arg in modes:
                s = np.sin(arg + shift)
                for out, rate in zip(outs, rates):
                    if rate != 0.0:
                        out += amplitude * rate ** order * s
            yield outs


def _hermite_phys(order: int, z: np.ndarray) -> np.ndarray:
    """Physicists' Hermite polynomial H_order(z) by the three-term recurrence."""
    h_prev = np.ones_like(z)
    if order == 0:
        return h_prev
    h = 2.0 * z
    for k in range(1, order):
        h, h_prev = 2.0 * z * h - 2.0 * k * h_prev, h
    return h


@dataclass(frozen=True)
class Gaussian(FunctionModel):
    """f(x) = A exp(-|x - c|^2 / (2 s^2)), isotropic."""

    center: tuple[float, ...]
    width: float
    amplitude: float = 1.0

    kind = "gaussian"

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (*self.center, self.width, self.amplitude)):
            raise ConfigError("gaussian centre, width and amplitude must be finite")
        if self.width <= 0:
            raise ConfigError("gaussian width must be positive")

    @property
    def dimension(self) -> int:
        return len(self.center)

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        p = _as_points(points, self.dimension)
        sq = np.sum((p - np.asarray(self.center)) ** 2, axis=-1)
        return self.amplitude * np.exp(-sq / (2.0 * self.width ** 2))

    def directional_derivative(self, points, direction, order: int) -> np.ndarray:
        if order == 0:
            return self.evaluate(points)
        p = _as_points(points, self.dimension)
        mu = _unit(direction)
        v = p - np.asarray(self.center)
        tau = np.tensordot(v, mu, axes=([-1], [0]))
        perp_sq = np.sum(v * v, axis=-1) - tau * tau
        s = self.width
        z = tau / (s * math.sqrt(2.0))
        radial = _hermite_phys(order, z) * np.exp(-z * z)
        scale = (-1.0 / (s * math.sqrt(2.0))) ** order
        return self.amplitude * np.exp(-np.maximum(perp_sq, 0.0) / (2.0 * s * s)) * scale * radial

    def derivative_orders(self, points, directions, kmax: int) -> Iterator[list[np.ndarray]]:
        """Per direction the envelope and exp(-z^2) once; the Hermite
        recurrence advances one order per step for every direction."""
        p = _as_points(points, self.dimension)
        v = p - np.asarray(self.center)
        s = self.width
        per_dir = []
        for mu in directions:
            tau = np.tensordot(v, _unit(mu), axes=([-1], [0]))
            perp_sq = np.sum(v * v, axis=-1) - tau * tau
            z = tau / (s * math.sqrt(2.0))
            envelope = self.amplitude * np.exp(-np.maximum(perp_sq, 0.0) / (2.0 * s * s))
            per_dir.append((z, envelope, np.exp(-z * z)))
        # physicists' Hermite H_{k-1}, H_k per direction, as in _hermite_phys
        hermite = [(np.ones_like(z), 2.0 * z) for z, _, _ in per_dir]
        for order in range(1, kmax + 1):
            if order > 1:
                k = order - 1
                hermite = [(h, 2.0 * z * h - 2.0 * k * h_prev)
                           for (h_prev, h), (z, _, _) in zip(hermite, per_dir)]
            scale = (-1.0 / (s * math.sqrt(2.0))) ** order
            yield [envelope * scale * (h * ez)
                   for (_, h), (_, envelope, ez) in zip(hermite, per_dir)]


@dataclass(frozen=True)
class Product(FunctionModel):
    """Pointwise product of two models; derivatives via the Leibniz rule."""

    first: FunctionModel
    second: FunctionModel

    kind = "product"

    def __post_init__(self):
        if self.first.dimension != self.second.dimension:
            raise ConfigError("product factors must share a dimension")

    @property
    def dimension(self) -> int:
        return self.first.dimension

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        return self.first.evaluate(points) * self.second.evaluate(points)

    def directional_derivative(self, points, direction, order: int) -> np.ndarray:
        out = None
        for j in range(order + 1):
            term = (
                math.comb(order, j)
                * self.first.directional_derivative(points, direction, j)
                * self.second.directional_derivative(points, direction, order - j)
            )
            out = term if out is None else out + term
        return out

    def derivative_orders(self, points, directions, kmax: int) -> Iterator[list[np.ndarray]]:
        """Leibniz over the factors' passes; keeps every order seen so far."""
        d1 = [[self.first.directional_derivative(points, mu, 0) for mu in directions]]
        d2 = [[self.second.directional_derivative(points, mu, 0) for mu in directions]]
        passes = zip(self.first.derivative_orders(points, directions, kmax),
                     self.second.derivative_orders(points, directions, kmax))
        for order, (a, b) in enumerate(passes, start=1):
            d1.append(a)
            d2.append(b)
            outs = []
            for i in range(len(a)):
                out = None
                for j in range(order + 1):
                    term = math.comb(order, j) * d1[j][i] * d2[order - j][i]
                    out = term if out is None else out + term
                outs.append(out)
            yield outs


@dataclass(frozen=True)
class Polynomial1D(FunctionModel):
    """f(x) = sum_i c_i x^i on a one-dimensional domain."""

    coeffs: tuple[float, ...]

    kind = "polynomial"
    dimension = 1

    def __post_init__(self):
        if not all(math.isfinite(c) for c in self.coeffs):
            raise ConfigError("polynomial coefficients must be finite")

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        p = _as_points(points, 1)[..., 0]
        return np.polynomial.polynomial.polyval(p, np.asarray(self.coeffs))

    def directional_derivative(self, points, direction, order: int) -> np.ndarray:
        mu = _unit(direction)[0]
        c = np.polynomial.polynomial.polyder(np.asarray(self.coeffs, dtype=float), order) \
            if order > 0 else np.asarray(self.coeffs, dtype=float)
        p = _as_points(points, 1)[..., 0]
        return (mu ** order) * np.polynomial.polynomial.polyval(p, c)


# ---------------------------------------------------------------------------
# Sup norms over grid regions
# ---------------------------------------------------------------------------

class SupResult(NamedTuple):
    value: float
    argmax: np.ndarray | None


class GridField:
    """|f| at the grid's cell centres, exterior cells at -1.

    The one place that evaluates |f| on the grid and takes its sup over the
    domain, a mask or a ball.  Ties resolve to the first cell in row-major
    order.
    """

    def __init__(self, f: FunctionModel, grid: Grid):
        self.grid = grid
        values = np.abs(f.evaluate(grid.points))
        values[~grid.interior] = -1.0
        self.values = values

    @classmethod
    def of(cls, f: FunctionModel, grid: Grid) -> "GridField":
        """The field `f` holds for `grid`, built and stored on `f` if it holds
        none or one for another grid.

        The model keeps the field for the grid it was last asked for, so a
        model used on many grids keeps one field.  The field refers to the
        grid but not to the model: it goes with the model, without a cycle.
        Models and grids are immutable, so a held field never goes stale.
        Two threads may both build it; the builds are equal.
        """
        held = getattr(f, "_grid_field", None)
        if held is None or held.grid is not grid:
            held = cls(f, grid)
            object.__setattr__(f, "_grid_field", held)
        return held

    def sup_domain(self) -> SupResult:
        return self.sup_mask(self.grid.interior)

    def sup_mask(self, mask: np.ndarray) -> SupResult:
        masked = np.where(mask, self.values, -1.0)
        idx = np.unravel_index(int(np.argmax(masked)), masked.shape)
        if masked[idx] < 0.0:
            raise InfeasibleError("region contains no grid sample points")
        return SupResult(float(masked[idx]), self.grid.points[idx])

    @cached_property
    def default_doubling(self) -> tuple[DoublingCertificate, DoublingReport]:
        """The doubling estimate over the default radius ladder and centres,
        made once per field and shared, read-only, by every call of
        `estimate_doubling` that names neither."""
        domain = self.grid.domain
        return _doubling_estimate(self, default_radii(domain), halton_points(domain, 64))

    @cached_property
    def block_max(self) -> np.ndarray:
        """The field's maximum over each block of a 2D grid."""
        return self.grid.block_reduce(np.maximum, self.values)

    def ball_maxima(self, centers, radii: Sequence[float]) -> list:
        """Max over the cells of each ball of the given radii about `centers`;
        -1 for a ball that holds no interior cell.  For one centre, shaped
        (d,), a list over the radii; for centres shaped (k, d), a list of
        such lists.

        A 1D ball is a run of cells (`Grid.line_runs`), and its maximum two
        lookups in a sparse table (`_run_maxima`).  In 2D the maximum starts
        from the inside blocks' maxima; boundary blocks are then visited in
        descending order of their maxima, testing their cells, until a
        block's maximum cannot beat the best value so far.
        """
        points = self.grid._centers(centers)
        flat = points.reshape(-1, self.grid.dimension)
        if self.grid.dimension == 1:
            x = np.repeat(flat[:, 0], len(radii))
            r = np.tile(np.asarray(radii, dtype=float), len(flat))
            maxima = self._run_maxima(*self.grid.line_runs(x, r))
        else:
            maxima = np.array([[self._block_walk(bb) for bb in self.grid.ball_blocks(c, radii)]
                               for c in flat])
        return maxima.reshape(points.shape[:-1] + (len(radii),)).tolist()

    def _run_maxima(self, start: np.ndarray, count: np.ndarray) -> np.ndarray:
        """The maximum over each run of `count` cells from `start` of a 1D
        field, -1 for an empty run.

        Level k of a sparse table holds the maximum over the 2^k cells from
        each cell, so a run of c cells is the union of the two windows of the
        largest 2^k <= c at its ends (Bender and Farach-Colton, LATIN 2000).
        On the torus the table runs over the field laid twice, so a run that
        wraps is one pair of windows too.  The table takes one pass over the
        field per level, up to the level the longest run reads.  It is built
        per call: held on the field, it would stay with every model for as
        long as the model lives.
        """
        values = self.values
        if self.grid.domain.kind == "torus":
            values = np.concatenate((values, values))
        level = np.frexp(np.maximum(count, 1))[1] - 1  # floor(log2 count)
        depth = int(level.max(initial=0)) + 1
        table = np.empty((depth, values.size))  # level k is read up to size - 2^k
        table[0] = values
        for k in range(1, depth):
            w, m = 1 << (k - 1), values.size - (1 << k) + 1
            np.maximum(table[k - 1, :m], table[k - 1, w:w + m], out=table[k, :m])
        last = start + count - (1 << level)
        return np.where(count > 0, np.maximum(table[level, start], table[level, last]), -1.0)

    def _block_walk(self, bb: BallBlocks) -> float:
        """The ball's maximum by the block walk `ball_maxima` describes."""
        best = float(self.block_max.max(initial=-1.0, where=bb.inside))
        bi, bj = bb.boundary.nonzero()
        peaks = self.block_max[bi, bj]
        for k in np.argsort(peaks)[::-1]:
            if peaks[k] <= best:
                break
            best = max(best, float(self._block_values(bb, bi[k], bj[k])[0].max()))
        return best

    def _block_values(self, bb: BallBlocks, bi: int, bj: int) -> tuple[np.ndarray, int, int]:
        """One block's values, -1 outside the ball, and its first row and column."""
        r, c = self.grid.block_starts[0][bi], self.grid.block_starts[1][bj]
        ox, oy = bb.offsets
        in_ball = np.sqrt(ox[r:r + BLOCK, None] + oy[c:c + BLOCK]) <= bb.radius
        return np.where(in_ball, self.values[r:r + BLOCK, c:c + BLOCK], -1.0), r, c

    def sup_ball(self, center: Sequence[float], radius: float) -> SupResult:
        """The ball's maximum with the centre of the first cell, in row-major
        order, attaining it; (-1, None) for a ball with no interior cell.  In
        2D only the blocks of the ball whose maximum reaches it can hold it."""
        if self.grid.dimension == 1:
            (start,), (count,) = self.grid.line_runs(self.grid._center(center), np.array([radius]))
            if count == 0:
                return SupResult(-1.0, None)
            # the run's cells in index order: a run that wraps puts cells 0, 1, ... first
            end, wrap = start + count, max(start + count - self.values.size, 0)
            run = np.concatenate((self.values[:wrap], self.values[start:end]))
            i = int(np.argmax(run))
            value = float(run[i])
            cell = i if i < wrap else start + i - wrap
            return SupResult(value, self.grid.points[cell] if value >= 0.0 else None)
        (bb,) = self.grid.ball_blocks(center, [radius])
        best = self._block_walk(bb)
        if best < 0.0:
            return SupResult(best, None)
        firsts = []
        for bi, bj in zip(*((bb.inside | bb.boundary) & (self.block_max >= best)).nonzero()):
            block, r, c = self._block_values(bb, bi, bj)
            i, j = np.nonzero(block == best)
            firsts.extend(zip(r + i[:1], c + j[:1]))  # the block's first hit, if any
        return SupResult(best, self.grid.points[min(firsts)])


def _domain_field(f: FunctionModel, domain: Domain, grid: Grid) -> GridField:
    """The shared field of f on `grid`, for a caller that names the grid's
    domain as well; a domain the grid does not discretise is rejected."""
    if domain != grid.domain:
        raise ConfigError(f"domain {domain} is not the domain of the grid, {grid.domain}")
    return GridField.of(f, grid)


def sup_norm(f: FunctionModel, region, grid: Grid) -> SupResult:
    """max |f| over the region's grid sample points, with the argmax point."""
    if isinstance(region, Domain):
        return _domain_field(f, region, grid).sup_domain()
    if isinstance(region, MeasurableSet):
        if region.grid is not grid and region.grid != grid:
            raise ConfigError("measurable set lives on a different grid")
        return GridField.of(f, grid).sup_mask(region.mask)
    if not isinstance(region, Ball):
        raise ConfigError(f"unsupported region type {type(region).__name__}")
    res = GridField.of(f, grid).sup_ball(region.center, region.radius)
    if res.value < 0.0:
        raise InfeasibleError("region contains no grid sample points")
    return res


# ---------------------------------------------------------------------------
# Certificate derivation (closed form per model kind)
# ---------------------------------------------------------------------------

def derive_gevrey(f: FunctionModel, domain: Domain, grid: Grid) -> GevreyCertificate:
    """Closed-form derivative-growth certificate for a built-in model.

    The bounds are true for the k-th directional derivative along any unit
    direction; dividing by the grid sup (<= the true sup) only enlarges M,
    so the certificate stays sound.
    """
    sup = sup_norm(f, domain, grid).value
    if sup == 0.0:
        raise HypothesisError("the zero function carries no certificate")
    if isinstance(f, TrigSum):
        m = max(1.0, f.amplitude_sum / sup)
        # all frequencies zero: f is constant and every derivative vanishes
        delta = 1.0 / (TWO_PI * f.max_freq_norm) if f.max_freq_norm > 0 else 1.0
        return GevreyCertificate(m, delta, 1.0)
    if isinstance(f, Gaussian):
        m = max(1.0, HERMITE_ENVELOPE * abs(f.amplitude) / sup)
        return GevreyCertificate(m, f.width, 1.0)
    if isinstance(f, Product):
        c1 = derive_gevrey(f.first, domain, grid)
        c2 = derive_gevrey(f.second, domain, grid)
        s1 = sup_norm(f.first, domain, grid).value
        s2 = sup_norm(f.second, domain, grid).value
        # Leibniz: sum_j C(k,j) j!^s (k-j)!^s <= k!^s (k+1) <= k!^s 2^k
        m = max(1.0, c1.M * c2.M * s1 * s2 / sup)
        return GevreyCertificate(m, min(c1.delta, c2.delta) / 2.0, max(c1.sigma, c2.sigma))
    if isinstance(f, Polynomial1D):
        hi = domain.extent[0]
        worst = 1.0
        coeffs = np.asarray(f.coeffs, dtype=float)
        for k in range(1, len(coeffs)):
            dk = np.polynomial.polynomial.polyder(coeffs, k)
            bound = float(np.sum(np.abs(dk) * hi ** np.arange(dk.size)))
            worst = max(worst, bound / (math.factorial(k) * sup))
        return GevreyCertificate(worst, 1.0, 1.0)
    raise ConfigError(f"no certificate derivation for model kind {f.kind!r}")


# ---------------------------------------------------------------------------
# Hypothesis verification and estimation
# ---------------------------------------------------------------------------

@dataclass
class GevreyReport:
    passed: bool
    max_ratio: float
    worst_k: int
    worst_point: np.ndarray = field(repr=False)
    worst_direction: np.ndarray = field(repr=False)
    ratios: dict[int, float] = field(default_factory=dict)


def _sample_points(grid: Grid, max_points: int) -> np.ndarray:
    idx = np.flatnonzero(grid.interior)
    if idx.size > max_points:
        idx = idx[:: int(math.ceil(idx.size / max_points))]
    return grid.points.reshape(-1, grid.dimension)[idx]


def _direction_fan(dimension: int, count: int) -> np.ndarray:
    if dimension == 1:
        return np.array([[1.0], [-1.0]])
    ang = math.pi * np.arange(count) / count
    return np.stack([np.cos(ang), np.sin(ang)], axis=-1)


def verify_gevrey(
    f: FunctionModel,
    cert: GevreyCertificate,
    domain: Domain,
    grid: Grid,
    kmax: int = 12,
    directions: np.ndarray | None = None,
    max_points: int = 2048,
) -> GevreyReport:
    """Check the derivative-growth ratios up to order kmax.

    ratio(k) = sup |f^(k)| * delta^k / (k!^sigma * sup|f|) over sampled points
    and directions; the report passes iff every ratio is <= M.
    """
    if kmax < 1:
        raise ConfigError("kmax must be >= 1")
    sup = sup_norm(f, domain, grid).value
    if sup == 0.0:
        raise HypothesisError("the zero function carries no certificate")
    pts = _sample_points(grid, max_points)
    dirs = directions if directions is not None else _direction_fan(domain.dimension, 16)

    log_delta = math.log(cert.delta)
    worst = (-math.inf, 1, pts[0], dirs[0])
    ratios: dict[int, float] = {}
    for k, derivs in enumerate(f.derivative_orders(pts, dirs, kmax), start=1):
        best_k = 0.0
        best_at = (pts[0], dirs[0])
        for mu, deriv in zip(dirs, derivs):
            vals = np.abs(deriv)
            i = int(np.argmax(vals))
            if vals[i] > best_k:
                best_k = float(vals[i])
                best_at = (pts[i], mu)
        if best_k == 0.0:
            ratios[k] = 0.0
            continue
        log_ratio = (
            math.log(best_k) + k * log_delta - cert.sigma * log_factorial(k) - math.log(sup)
        )
        ratios[k] = math.exp(log_ratio) if log_ratio < 700 else math.inf
        if ratios[k] > worst[0]:
            worst = (ratios[k], k, best_at[0], best_at[1])
    max_ratio = max(ratios.values()) if ratios else 0.0
    return GevreyReport(
        passed=max_ratio <= cert.M * (1.0 + 1e-9),
        max_ratio=max_ratio,
        worst_k=worst[1],
        worst_point=worst[2],
        worst_direction=worst[3],
        ratios=ratios,
    )


@lru_cache(maxsize=32)
def halton_points(domain: Domain, count: int) -> np.ndarray:
    """Deterministic low-discrepancy sample of the domain (Halton bases 2, 3).

    Computed once per domain and count and returned read-only, as every
    doubling estimate and UCP check on a domain samples the same centres.
    """

    def radical_inverse(base: int, n: int) -> float:
        inv, f = 0.0, 1.0 / base
        while n > 0:
            inv += f * (n % base)
            n //= base
            f /= base
        return inv

    bases = (2, 3)[: domain.dimension]
    pts = []
    n = 1
    while len(pts) < count:
        u = np.array([radical_inverse(b, n) for b in bases])
        p = u * np.asarray(domain.extent)
        if bool(domain.contains(p)):
            pts.append(p)
        n += 1
        if n > 100 * count:
            raise InfeasibleError("could not place low-discrepancy points")
    pts = np.stack(pts)
    pts.flags.writeable = False
    return pts


def default_radii(domain: Domain, r0: float | None = None) -> list[float]:
    """Dyadic radius ladder {r0/8, r0/4, r0/2, r0} below the domain cap."""
    cap = min(1.0, domain.diameter / 2.0, domain.max_ball_radius)
    top = cap if r0 is None else min(r0, cap)
    return [top / 8.0, top / 4.0, top / 2.0, top]


@dataclass
class DoublingSample:
    center: np.ndarray = field(repr=False)
    radius: float
    ratio: float


@dataclass
class DoublingReport:
    kappa_hat: float
    worst: DoublingSample
    samples: list[DoublingSample] = field(default_factory=list, repr=False)


def estimate_doubling(
    f: FunctionModel,
    domain: Domain,
    grid: Grid,
    radii: Sequence[float] | None = None,
    centers: np.ndarray | None = None,
) -> tuple[DoublingCertificate, DoublingReport]:
    """Empirical doubling constant over sampled centres and radii.

    A zero inner sup is a genuine failure of the doubling hypothesis (the
    function vanishes on a whole sampled ball) and raises rather than being
    clamped away; so does a ratio that is not finite, as a model with an
    infinite or NaN value gives.  The estimate over the default radii and
    centres is made once per model and grid: see `GridField.default_doubling`.
    """
    grid_field = _domain_field(f, domain, grid)
    if radii is None and centers is None:
        return grid_field.default_doubling
    radii = list(radii) if radii is not None else default_radii(domain)
    if centers is None:
        centers = halton_points(domain, 64)
    return _doubling_estimate(grid_field, radii, centers)


def _doubling_estimate(
    grid_field: GridField, radii: list[float], centers: np.ndarray
) -> tuple[DoublingCertificate, DoublingReport]:
    """`estimate_doubling` over the given radii and centres."""
    if any(r <= 0 for r in radii):
        raise ConfigError("radii must be positive")

    # on a dyadic ladder the outer ball at r is the inner ball at 2r: take
    # each distinct sup once
    distinct = sorted(set(radii) | {2.0 * r for r in radii})

    centers = np.atleast_2d(centers)
    maxima = np.array(grid_field.ball_maxima(centers, distinct)).reshape(len(centers), -1)
    column = {r: i for i, r in enumerate(distinct)}
    inner = maxima[:, [column[r] for r in radii]]
    outer = maxima[:, [column[2.0 * r] for r in radii]]
    kept = ~((inner < 0.0) | (outer < 0.0))  # a ball too small for this grid is skipped
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = outer / inner
    bad = kept & ((inner == 0.0) | ~np.isfinite(ratio))
    if bad.any():  # the first in (centre, radius) order raises
        i, j = np.argwhere(bad)[0]
        x, r = centers[i], radii[j]
        if inner[i, j] == 0.0:
            raise HypothesisError(f"doubling fails: |f| vanishes on the ball at {x} radius {r}")
        raise HypothesisError(
            f"doubling ratio {float(ratio[i, j])} at {x} radius {r} is not finite")
    rows, cols = kept.nonzero()
    if rows.size == 0:
        raise InfeasibleError("no sampled ball contained a grid point")
    ratios = ratio[rows, cols]
    views = list(centers)  # one view per centre, shared by its samples
    samples = [DoublingSample(views[i], float(radii[j]), q)
               for i, j, q in zip(rows.tolist(), cols.tolist(), ratios.tolist())]
    worst = samples[int(np.argmax(ratios))]  # the first of the largest ratios
    kappa = max(2.0, worst.ratio)
    cert = DoublingCertificate(kappa, min(1.0, max(radii)))
    return cert, DoublingReport(kappa_hat=worst.ratio, worst=worst, samples=samples)


@dataclass
class UcpReport:
    passed: bool
    worst_margin_log: float
    min_sufficient_a: float
    n_samples: int


def verify_ucp(
    f: FunctionModel,
    cert: UcpCertificate,
    domain: Domain,
    grid: Grid,
    radii: Sequence[float] | None = None,
    centers: np.ndarray | None = None,
) -> UcpReport:
    """Check sup over the domain <= exp(a / r^b) * ball sup at all samples.

    The zero function, a domain sup that is not finite and a sampled margin
    that is NaN, as a model with an infinite or NaN value gives, raise
    rather than pass.
    """
    grid_field = _domain_field(f, domain, grid)
    radii = list(radii) if radii is not None else default_radii(domain, cert.r0)
    radii = [r for r in radii if r <= cert.r0 + 1e-12]
    if centers is None:
        centers = halton_points(domain, 64)

    sup = grid_field.sup_domain().value
    if sup == 0.0:
        raise HypothesisError("the zero function carries no certificate")
    log_sup = math.log(sup)
    if not math.isfinite(log_sup):
        raise HypothesisError(f"domain sup {sup} is not finite")

    worst_margin = -math.inf
    min_a = 0.0
    n = 0
    centers = np.atleast_2d(centers)
    for x, maxima in zip(centers, grid_field.ball_maxima(centers, radii)):
        for r, inner in zip(radii, maxima):
            if inner < 0.0:
                continue
            n += 1
            if inner == 0.0:
                return UcpReport(False, math.inf, math.inf, n)
            scale = r ** cert.b  # 0 where it underflows: a / r^b is then +inf
            margin = log_sup - math.log(inner) - (cert.a / scale if scale > 0.0 else math.inf)
            if math.isnan(margin):  # max() would drop it; -inf is a = inf passing
                raise HypothesisError(f"ucp margin at {x} radius {r} is not a number")
            worst_margin = max(worst_margin, margin)
            min_a = max(min_a, scale * (log_sup - math.log(inner)))
    if n == 0:
        raise InfeasibleError("no sampled ball contained a grid point")
    return UcpReport(worst_margin <= 1e-12, worst_margin, min_a, n)
