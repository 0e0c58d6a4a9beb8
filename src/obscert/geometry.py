"""Domains, grids, balls, measurable sets, covers, ball chains and ray traces.

Geometry is restricted to boxes, disks and flat tori in dimension 1 or 2.
All three guarantee that a ray segment intersected with a ball and the domain
is a single parameter interval (boxes and disks by convexity, tori because
they are boundaryless), which is what the downstream interpolation step
needs.  Measures are cell-counting on a fixed grid: a set's measure is the
number of true cells times h^d, so pigeonhole statements hold exactly in
integer arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import ConfigError, InfeasibleError, ResolutionError

_KINDS = ("box", "disk", "torus")

# Direction-fan size for ray selection in d=2; ties break on the smallest
# angle index so the selection is reproducible.
N_DIRECTIONS_2D = 64

DEFAULT_CELLS_1D = 1024
DEFAULT_CELLS_2D = 512

# Side, in cells, of the square blocks of a 2D grid's block summary; the last
# block on an axis is short when the cell count is not a multiple.
BLOCK = 16


# ---------------------------------------------------------------------------
# Domains
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Domain:
    """Ambient region: a box [0, L1] x ... , a disk, or a flat torus.

    ``extent`` is the bounding-box side per axis; a disk of radius R has
    extent (2R, 2R) and is centred at (R, R).  Tori use the periodic metric.
    """

    kind: str
    extent: tuple[float, ...]

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ConfigError(f"unknown domain kind {self.kind!r}")
        if not self.extent or len(self.extent) > 2:
            raise ConfigError("dimension must be 1 or 2")
        if any(e <= 0 for e in self.extent):
            raise ConfigError("extent must be positive on every axis")
        if self.kind == "disk":
            if len(self.extent) != 2 or abs(self.extent[0] - self.extent[1]) > 1e-12:
                raise ConfigError("disk requires two equal extents")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def box(extent: Sequence[float]) -> "Domain":
        return Domain("box", tuple(float(e) for e in extent))

    @staticmethod
    def disk(radius: float) -> "Domain":
        return Domain("disk", (2.0 * radius, 2.0 * radius))

    @staticmethod
    def torus(extent: Sequence[float]) -> "Domain":
        return Domain("torus", tuple(float(e) for e in extent))

    # -- basic queries -----------------------------------------------------

    @property
    def dimension(self) -> int:
        return len(self.extent)

    @property
    def radius(self) -> float:
        if self.kind != "disk":
            raise ConfigError("radius only defined for disks")
        return self.extent[0] / 2.0

    @property
    def center(self) -> np.ndarray:
        return np.asarray(self.extent, dtype=float) / 2.0

    @property
    def diameter(self) -> float:
        ext = np.asarray(self.extent, dtype=float)
        if self.kind == "disk":
            return float(ext[0])
        if self.kind == "torus":
            return float(np.linalg.norm(ext / 2.0))
        return float(np.linalg.norm(ext))

    @property
    def volume(self) -> float:
        if self.kind == "disk":
            return math.pi * self.radius ** 2
        return float(np.prod(self.extent))

    @property
    def max_ball_radius(self) -> float:
        """Largest radius at which the single-interval ray property is safe.

        On a torus a ball of radius beyond a quarter of the shortest period
        can wrap onto itself; boxes and disks are convex, so any radius works.
        """
        if self.kind == "torus":
            return min(self.extent) / 4.0
        return float("inf")

    def contains(self, points: np.ndarray, tol: float = 1e-12) -> np.ndarray:
        """Boolean membership for an array of points shaped (..., d)."""
        p = np.asarray(points, dtype=float)
        if self.kind == "torus":
            return np.ones(p.shape[:-1], dtype=bool)
        if self.kind == "disk":
            return np.linalg.norm(p - self.center, axis=-1) <= self.radius + tol
        ext = np.asarray(self.extent)
        return np.all((p >= -tol) & (p <= ext + tol), axis=-1)

    def wrap(self, points: np.ndarray) -> np.ndarray:
        """Map points to canonical coordinates (identity off the torus)."""
        if self.kind != "torus":
            return np.asarray(points, dtype=float)
        return np.mod(points, np.asarray(self.extent))

    def displacement(self, p: np.ndarray, q: np.ndarray) -> np.ndarray:
        """Shortest vector from p to q (wrapped on the torus)."""
        d = np.asarray(q, dtype=float) - np.asarray(p, dtype=float)
        if self.kind == "torus":
            ext = np.asarray(self.extent)
            d = np.mod(d + ext / 2.0, ext) - ext / 2.0
        return d

    def distance(self, p: np.ndarray, q: np.ndarray) -> np.ndarray:
        """Geodesic distance; vectorised over leading axes."""
        if self.kind == "torus":
            ext = np.asarray(self.extent)
            d = np.abs(np.asarray(q, dtype=float) - np.asarray(p, dtype=float))
            d = np.minimum(d, ext - d)
            return np.linalg.norm(d, axis=-1)
        return np.linalg.norm(np.asarray(q, dtype=float) - np.asarray(p, dtype=float), axis=-1)


# ---------------------------------------------------------------------------
# Grid
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Grid:
    """Uniform cell discretisation of a domain; sample points are centres."""

    domain: Domain
    cells: tuple[int, ...]

    def __post_init__(self):
        if len(self.cells) != self.domain.dimension:
            raise ConfigError("cells must match the domain dimension")
        if any(c <= 0 for c in self.cells):
            raise ConfigError("cells per axis must be positive")
        hs = [e / c for e, c in zip(self.domain.extent, self.cells)]
        if max(hs) - min(hs) > 1e-9 * max(hs):
            raise ConfigError("cell size must be identical on every axis")

    @staticmethod
    def default(domain: Domain) -> "Grid":
        if domain.dimension == 1:
            return Grid(domain, (DEFAULT_CELLS_1D,))
        base = DEFAULT_CELLS_2D
        ext = domain.extent
        ref = min(ext)
        cells = tuple(max(1, round(base * e / ref)) for e in ext)
        return Grid(domain, cells)

    @property
    def h(self) -> float:
        return self.domain.extent[0] / self.cells[0]

    @property
    def dimension(self) -> int:
        return self.domain.dimension

    @cached_property
    def axis_centers(self) -> tuple[np.ndarray, ...]:
        return tuple(
            (np.arange(c) + 0.5) * (e / c)
            for c, e in zip(self.cells, self.domain.extent)
        )

    @cached_property
    def points(self) -> np.ndarray:
        """Cell-centre coordinates, shaped cells + (d,)."""
        axes = np.meshgrid(*self.axis_centers, indexing="ij")
        return np.stack(axes, axis=-1)

    @cached_property
    def interior(self) -> np.ndarray:
        """Cells whose centre lies in the domain; exterior cells are flagged."""
        return self.domain.contains(self.points)

    @property
    def n_interior(self) -> int:
        return int(np.count_nonzero(self.interior))

    def point_to_cell(self, points: np.ndarray) -> tuple[np.ndarray, ...]:
        """Cell index per axis for points shaped (..., d); wraps on the torus."""
        p = self.domain.wrap(np.asarray(points, dtype=float))
        idx = []
        for axis in range(self.dimension):
            i = np.floor(p[..., axis] / self.h).astype(int)
            if self.domain.kind == "torus":
                i = np.mod(i, self.cells[axis])
            else:
                i = np.clip(i, 0, self.cells[axis] - 1)
            idx.append(i)
        return tuple(idx)

    def _center(self, center: Sequence[float]) -> np.ndarray:
        """A ball centre as an array, rejected unless it has one coordinate
        per axis: every ball query and `ball_field` read it through here."""
        c = np.asarray(center, dtype=float)
        if c.shape != (self.dimension,):
            raise ConfigError(f"ball centre {c.tolist()} needs {self.dimension} coordinates")
        return c

    def _centers(self, centers) -> np.ndarray:
        """Ball centres as an array shaped (k, d), or one centre shaped (d,);
        the first centre without one coordinate per axis is rejected as
        `_center` rejects it."""
        try:
            c = np.asarray(centers, dtype=float)
        except ValueError:  # centres of unequal length
            c = None
        if c is None or c.ndim not in (1, 2) or c.shape[-1] != self.dimension:
            for center in (centers if c is None or c.ndim == 2 else [centers]):
                self._center(center)
        return c

    def _squared_offsets(self, center: Sequence[float]) -> list[np.ndarray]:
        """Per axis, the squared offset of each cell centre from `center`,
        wrapped per axis on the torus.  Summed in axis order, as
        ``Domain.distance`` sums them, their root is that distance bit for
        bit."""
        return [self._axis_offsets(axis, c, self.axis_centers[axis])
                for axis, c in enumerate(self._center(center))]

    def _axis_offsets(self, axis: int, coord, cell_centers: np.ndarray) -> np.ndarray:
        """The squared offsets along `axis` of the given cell centres from the
        centre coordinate `coord`, wrapped on the torus: the one formula every
        ball query uses."""
        d = np.abs(coord - cell_centers)
        if self.domain.kind == "torus":
            d = np.minimum(d, self.domain.extent[axis] - d)
        return d * d

    def line_runs(self, centers: np.ndarray, radii: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The cells of a 1D grid in the balls about `centers` of `radii`,
        given as two arrays of one centre coordinate and one radius per ball,
        each as a run: its first cell and its cell count.  On the torus the
        run is read cyclically, so it may wrap past the last cell.  A cell is
        in the ball when ``sqrt(offset) <= r``, equal to
        ``domain.distance(points, center) <= r`` bit for bit.

        Along the line the squared offset falls and then rises; on the torus
        it rises from the centre both ways round the ring to the cells
        flanking the antipode.  A rounded root is monotone, so the cells in
        the ball are one run, cyclic on the torus.  Those two flanking cells
        are farther from the centre than every other cell by at least h/2,
        far beyond the rounding of the offsets: when neither fails, the ball
        is the whole ring.  Otherwise the run lies in the n - 1 cells that
        follow a failing one.  The window is placed about the centre taken
        modulo L; a torus centre more than half a period outside [0, L] has,
        by the same wrapped formula, the offsets along the line from x - L or
        x + L, so its ball is a run of the line.  The run starts from the
        cells within r of the centre, widened to hold the cells nearest it,
        and its ends settle as in `_settle_runs`.
        """
        x, r = np.asarray(centers, dtype=float), np.asarray(radii, dtype=float)
        (n,), h = self.cells, self.h
        cell_x = self.axis_centers[0]
        torus = self.domain.kind == "torus"

        def passes(j, x, r):
            return np.sqrt(self._axis_offsets(0, x, cell_x[j % n])) <= r

        p = x
        if torus:
            ext = self.domain.extent[0]
            far = np.abs(x - ext / 2.0) > ext
            with np.errstate(invalid="ignore"):  # an infinite centre is far
                p = np.where(far, x - np.copysign(ext, x), np.mod(x, ext))
        # the centre in cell units, a NaN or far centre put on the line
        y = np.fmin(np.fmax(p / h - 0.5, -0.5), n - 0.5)
        if torus:
            # the n cells about the centre, whose ends flank the antipode
            left = np.ceil(y - n / 2.0).astype(np.int64)
            right = left + (n - 1)
            left_in, right_in = passes(np.concatenate((left, right)).reshape(2, -1), x, r)
            ring = left_in & right_in & ~far
            left = np.where(far, 0, left + ~left_in)
            right = np.where(far, n - 1, right - (left_in & ~right_in))
        else:
            left, right, ring = np.zeros(x.shape, np.int64), np.full(x.shape, n - 1), False
        half = r / h
        lo = np.minimum(np.maximum(np.fmin(np.ceil(y - half), np.floor(y)), left), right)
        hi = np.minimum(np.maximum(np.fmax(np.floor(y + half), np.ceil(y)), left), right)
        lo = np.where(ring, left, lo).astype(np.int64)
        hi = np.where(ring, right, hi).astype(np.int64)
        lo, hi = _settle_runs(passes, lo, hi, left, right, x, r)
        return lo % n, np.maximum(hi - lo + 1, 0)

    @cached_property
    def block_starts(self) -> tuple[np.ndarray, ...]:
        """The first cell of each block, per axis."""
        return tuple(np.arange(0, c, BLOCK) for c in self.cells)

    def block_reduce(self, ufunc: np.ufunc, values: np.ndarray) -> np.ndarray:
        """`ufunc` reduced over the cells of each block of a 2D field; a short
        last block is reduced over the cells it has.  The contiguous axis goes
        first, which numpy reduces about twice as fast."""
        rows, cols = self.block_starts
        return ufunc.reduceat(ufunc.reduceat(values, cols, axis=1), rows, axis=0)

    def ball_blocks(self, center: Sequence[float], radii: Sequence[float]) -> list[BallBlocks]:
        """Each block of a 2D grid classed against each ball of the given radii
        about `center`.

        A block is inside when ``sqrt(max ox + max oy) <= r`` over its squared
        offsets ox, oy: a rounded sum and a rounded root are monotone, so every
        cell passes the test ``sqrt(ox + oy) <= r``.  It is outside when
        ``sqrt(min ox + min oy) > r``, which fails every cell for the same
        reason, and on the boundary otherwise.  The offsets are shared by all
        the radii.
        """
        ox, oy = self._squared_offsets(center)
        rows, cols = self.block_starts
        near = np.minimum.reduceat(ox, rows)[:, None] + np.minimum.reduceat(oy, cols)
        far = np.maximum.reduceat(ox, rows)[:, None] + np.maximum.reduceat(oy, cols)
        near, far = np.sqrt(near, out=near), np.sqrt(far, out=far)
        balls = []
        for radius in radii:
            inside = far <= radius
            balls.append(BallBlocks((ox, oy), radius, inside, (near <= radius) & ~inside))
        return balls

    def ball_field(self, ball: "Ball") -> np.ndarray:
        """Boolean field: interior cells whose centre lies in the ball."""
        dist = self.domain.distance(self.points, self._center(ball.center))
        return (dist <= ball.radius) & self.interior


class BallBlocks(NamedTuple):
    """A ball's blocks on a 2D grid: the per-axis squared offsets of the cell
    centres from its centre, its radius, and two masks over the blocks: those
    whose every cell lies in the ball, and those that may hold some cells of
    it.  No cell of any other block lies in the ball."""

    offsets: tuple[np.ndarray, np.ndarray]
    radius: float
    inside: np.ndarray
    boundary: np.ndarray


# ---------------------------------------------------------------------------
# Balls and measurable sets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Ball:
    center: tuple[float, ...]
    radius: float

    def __post_init__(self):
        if not self.radius > 0:  # NaN too
            raise ConfigError("ball radius must be positive")

    @staticmethod
    def at(center: Sequence[float], radius: float) -> "Ball":
        return Ball(tuple(float(c) for c in center), float(radius))


@dataclass(frozen=True)
class MeasurableSet:
    """Cell-indicator mask over a grid; the measure is count * h^d, exact.

    The set holds its own read-only copy of the mask, so what it caches from
    the mask stays true."""

    grid: Grid
    mask: np.ndarray = field(repr=False)

    def __post_init__(self):
        mask = np.array(self.mask, dtype=bool)
        if mask.shape != tuple(self.grid.cells):
            raise ConfigError("mask shape must equal the grid cell counts")
        if np.any(mask & ~self.grid.interior):
            raise ConfigError("mask is true on an exterior cell")
        mask.flags.writeable = False
        object.__setattr__(self, "mask", mask)

    @property
    def cell_count(self) -> int:
        return int(np.count_nonzero(self.mask))

    @cached_property
    def row_prefix(self) -> np.ndarray:
        """Per row of the mask, the number of true cells before each column,
        in int32; a 1D mask is one row.  On the torus each row is taken twice
        over, so that a run of cells wrapping past the last column is one
        difference as well."""
        rows = self.mask.reshape(-1, self.grid.cells[-1])
        if self.grid.domain.kind == "torus":
            rows = np.concatenate((rows, rows), axis=1)
        prefix = np.zeros((rows.shape[0], rows.shape[1] + 1), dtype=np.int32)
        np.cumsum(rows, axis=1, dtype=np.int32, out=prefix[:, 1:])
        return prefix

    @property
    def measure(self) -> float:
        return self.cell_count * self.grid.h ** self.grid.dimension

    @property
    def fraction(self) -> float:
        return self.cell_count / self.grid.n_interior

    # -- constructors ------------------------------------------------------

    @staticmethod
    def full(grid: Grid) -> "MeasurableSet":
        return MeasurableSet(grid, grid.interior.copy())

    @staticmethod
    def empty(grid: Grid) -> "MeasurableSet":
        return MeasurableSet(grid, np.zeros(grid.cells, dtype=bool))

    @staticmethod
    def from_mask(grid: Grid, mask: np.ndarray) -> "MeasurableSet":
        return MeasurableSet(grid, np.asarray(mask, dtype=bool) & grid.interior)

    @staticmethod
    def from_box(grid: Grid, bounds: Sequence[tuple[float, float]]) -> "MeasurableSet":
        """Cells whose centre lies in the axis-aligned box `bounds`."""
        mask = grid.interior.copy()
        pts = grid.points
        for axis, (lo, hi) in enumerate(bounds):
            mask &= (pts[..., axis] >= lo) & (pts[..., axis] <= hi)
        return MeasurableSet(grid, mask)

    @staticmethod
    def from_ball(grid: Grid, ball: Ball) -> "MeasurableSet":
        return MeasurableSet(grid, grid.ball_field(ball))

    @staticmethod
    def random(grid: Grid, fraction: float, rng: np.random.Generator) -> "MeasurableSet":
        """Exactly round(fraction * interior-count) cells, drawn uniformly."""
        if not 0 < fraction <= 1:
            raise ConfigError("fraction must lie in (0, 1]")
        flat_interior = np.flatnonzero(grid.interior.ravel())
        k = max(1, round(fraction * flat_interior.size))
        chosen = rng.choice(flat_interior, size=k, replace=False)
        mask = np.zeros(int(np.prod(grid.cells)), dtype=bool)
        mask[chosen] = True
        return MeasurableSet(grid, mask.reshape(grid.cells))

    @staticmethod
    def nested_random(grid: Grid, fraction: float, perm: np.ndarray) -> "MeasurableSet":
        """Prefix of `perm`, a fixed random permutation of the interior cells.

        Masks built from the same permutation nest: a smaller fraction is a
        subset of a larger one, which keeps sweep ratio columns monotone.
        """
        if not 0 < fraction <= 1:
            raise ConfigError("fraction must lie in (0, 1]")
        k = max(1, round(fraction * perm.size))
        mask = np.zeros(int(np.prod(grid.cells)), dtype=bool)
        mask[perm[:k]] = True
        return MeasurableSet(grid, mask.reshape(grid.cells))

    @staticmethod
    def strided(grid: Grid, stride: int) -> "MeasurableSet":
        """Every stride-th interior cell in row-major order (measure ~ 1/stride)."""
        if stride < 1:
            raise ConfigError("stride must be >= 1")
        flat_interior = np.flatnonzero(grid.interior.ravel())
        mask = np.zeros(int(np.prod(grid.cells)), dtype=bool)
        mask[flat_interior[::stride]] = True
        return MeasurableSet(grid, mask.reshape(grid.cells))


# ---------------------------------------------------------------------------
# Segments and interval sets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Segment:
    """Parametrised ray piece origin + t * direction for t in [0, t_max]."""

    origin: tuple[float, ...]
    direction: tuple[float, ...]
    t_max: float

    def __post_init__(self):
        norm = math.sqrt(sum(c * c for c in self.direction))
        if abs(norm - 1.0) > 1e-9:
            raise ConfigError("direction must be a unit vector")
        if self.t_max < 0:
            raise ConfigError("t_max must be nonnegative")

    def points(self, ts: np.ndarray) -> np.ndarray:
        ts = np.asarray(ts, dtype=float)
        return np.asarray(self.origin) + ts[:, None] * np.asarray(self.direction)


@dataclass(frozen=True)
class IntervalSet:
    """Sorted, pairwise-disjoint closed subintervals of [0, t_max]."""

    intervals: tuple[tuple[float, float], ...]

    def __post_init__(self):
        prev_end = -math.inf
        for a, b in self.intervals:
            if b < a:
                raise ConfigError(f"interval [{a}, {b}] is reversed")
            if a < prev_end:
                raise ConfigError("intervals overlap or are unsorted")
            prev_end = b

    @property
    def total(self) -> float:
        return sum(b - a for a, b in self.intervals)

    @property
    def is_empty(self) -> bool:
        return not self.intervals or self.total == 0.0

    @property
    def inf(self) -> float:
        if not self.intervals:
            raise InfeasibleError("empty interval set has no infimum")
        return self.intervals[0][0]

    def first_point_at_or_after(self, tau: float) -> float | None:
        """Discrete infimum of the set intersected with [tau, inf).

        A subinterval qualifies only when it extends strictly beyond tau, so
        a query landing exactly on a right endpoint moves on to the next
        piece's left endpoint; this keeps node choices at representable
        points of the discretised trace.
        """
        for a, b in self.intervals:
            if b > tau:
                return max(a, tau)
        return None

    @staticmethod
    def from_runs(runs: Iterable[tuple[float, float]]) -> "IntervalSet":
        merged: list[list[float]] = []
        for a, b in sorted(runs):
            if merged and a <= merged[-1][1] + 1e-15:
                merged[-1][1] = max(merged[-1][1], b)
            else:
                merged.append([a, b])
        return IntervalSet(tuple((a, b) for a, b in merged))


# ---------------------------------------------------------------------------
# Covering (ball lattice)
# ---------------------------------------------------------------------------

def cover_domain(domain: Domain, r: float) -> list[Ball]:
    """Lattice of radius-r balls covering the domain.

    Lattice spacing is r/sqrt(d) so a whole grid cube of that side fits in
    one ball; every point of the domain is then within r/2 of some centre.
    Centres falling outside a disk are projected back inside (projection onto
    a convex set is 1-Lipschitz, so coverage is preserved), keeping the
    cardinality under the certified per-axis bound.
    """
    if r <= 0:
        raise ConfigError("cover radius must be positive")
    d = domain.dimension
    spacing = r / math.sqrt(d)
    axes = []
    for ext in domain.extent:
        m = max(1, math.ceil(ext / spacing))
        axes.append((np.arange(m) + 0.5) * (ext / m))
    mesh = np.meshgrid(*axes, indexing="ij")
    centers = np.stack(mesh, axis=-1).reshape(-1, d)
    half = np.array([ext / max(1, math.ceil(ext / spacing)) / 2.0 for ext in domain.extent])

    balls: list[Ball] = []
    for c in centers:
        if domain.kind == "disk":
            # skip lattice cubes that do not meet the disk at all
            corner = np.abs(c - domain.center)
            nearest = np.maximum(corner - half, 0.0)
            if np.linalg.norm(nearest) > domain.radius:
                continue
            off = c - domain.center
            dist = np.linalg.norm(off)
            if dist > domain.radius:
                c = domain.center + off * (domain.radius * (1 - 1e-12) / dist)
        balls.append(Ball.at(c, r))
    return balls


def cover_count_bound(domain: Domain, r: float) -> int:
    """Certified cover cardinality bound ([c/r] + 1)^d with the constant
    instantiated as sqrt(d) times the diameter.

    On the torus the fundamental-domain extent replaces the (smaller)
    periodic diameter, since the lattice must still span a full period.
    """
    d = domain.dimension
    span = max(domain.extent) if domain.kind == "torus" else domain.diameter
    per_axis = math.floor(span * math.sqrt(d) / r) + 1
    return per_axis ** d


# ---------------------------------------------------------------------------
# Pigeonhole densest ball
# ---------------------------------------------------------------------------

# (ball, row) pairs a chunk of the cover takes at once in `_row_counts`
_PAIRS_PER_CHUNK = 1 << 16


def _row_counts(mset: MeasurableSet, cover: Sequence[Ball]) -> np.ndarray:
    """|B ∩ E| in cells for each ball of the cover on a 2D grid.

    A ball meets each row of the grid in one run of columns: along a row the
    squared column offset falls and then rises (on the torus, over the
    window of columns within half a period of the centre), and a rounded sum
    and root are monotone, so the cells passing ``sqrt(ox + oy) <= r`` are
    consecutive.  Each ball takes a band of ``2 ceil(r/h) + 3`` rows about
    its centre, which holds every row it can reach.  A row's run starts as
    the columns within the half-width ``sqrt(r^2 - ox)`` of the centre,
    widened to hold the columns nearest it, and its ends settle as in
    `_settle_runs`.  The count is then a difference of the set's row prefix
    sums per row.

    The torus window presumes centres within half a period of the
    fundamental domain, as every cover centre is.
    """
    grid = mset.grid
    (n0, n1), h = grid.cells, grid.h
    torus = grid.domain.kind == "torus"
    prefix = mset.row_prefix
    radii = np.array([b.radius for b in cover], dtype=float)
    centers = grid._centers([b.center for b in cover])
    reach = int(min(np.ceil(radii.max() / h), n0))
    band = min(2 * reach + 3, n0)
    counts = np.zeros(len(cover), dtype=np.int64)
    per_chunk = max(1, _PAIRS_PER_CHUNK // band)
    for first_ball in range(0, len(cover), per_chunk):
        part = slice(first_ball, first_ball + per_chunk)
        first_row = np.floor(centers[part, 0] / h).astype(np.int64) - reach - 1
        if not torus:  # shifted inside the box, the band still holds every row reached
            first_row = np.clip(first_row, 0, n0 - band)
        rows = (first_row[:, None] + np.arange(band)).ravel() % n0
        cx, cy = (np.repeat(c, band) for c in centers[part].T)
        ox = grid._axis_offsets(0, cx, grid.axis_centers[0][rows])
        lo, hi = _row_runs(grid, cy, ox, np.repeat(radii[part], band))
        start = lo % n1
        stop = start + np.maximum(hi - lo + 1, 0)
        counts[part] = (prefix[rows, stop] - prefix[rows, start]).reshape(-1, band).sum(axis=1)
    return counts


def _row_runs(grid: Grid, cy: np.ndarray, ox: np.ndarray,
              r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For balls of radius r whose centre has column coordinate cy, seen from
    a row at squared offset ox, the first and last column of the run of cells
    with ``sqrt(ox + oy) <= r``, in a frame where the run does not wrap; the
    last is below the first when the run is empty."""
    n1, h = grid.cells[1], grid.h
    y = cy / h - 0.5  # the centre in column units
    # the columns the run may hold: the row, or one period about the centre
    left = np.ceil(y - n1 / 2.0) if grid.domain.kind == "torus" else np.zeros_like(y)
    right = left + (n1 - 1)
    half = np.sqrt(np.maximum(r * r - ox, 0.0)) / h
    lo = np.clip(np.minimum(np.ceil(y - half), np.floor(y)), left, right).astype(np.int64)
    hi = np.clip(np.maximum(np.floor(y + half), np.ceil(y)), left, right).astype(np.int64)
    left, right = left.astype(np.int64), right.astype(np.int64)

    def passes(j, cy, ox, r):
        oy = grid._axis_offsets(1, cy, grid.axis_centers[1][j % n1])
        return np.sqrt(ox + oy) <= r

    return _settle_runs(passes, lo, hi, left, right, cy, ox, r)


def _settle_runs(passes, lo: np.ndarray, hi: np.ndarray, left: np.ndarray,
                 right: np.ndarray, *params: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Settle runs of cells [lo, hi] in place, each inside its window [left,
    right] of cell indices, in which the cells passing ``passes(j, *params)``
    (with the run's own parameters) are consecutive.  Each end steps one cell
    at a time, out while the next cell passes and in while its own cell
    fails, until neither end moves.  The ends stop on passing cells with
    failing neighbours, which fixes the run; only failing cells leave it, so
    a run that empties met no passing cell, provided it started with the
    window's cells nearest the centre.  The last cell is below the first for
    an empty run."""
    def inside(j):
        return passes(j, *params) & (j >= left) & (j <= right)

    live = np.arange(len(lo))
    a, b = lo, hi
    while True:
        out_a, in_a, in_b, out_b = (inside(j) for j in (a - 1, a, b, b + 1))
        held = a <= b
        shrink_a, shrink_b = held & ~in_a, held & ~in_b
        moved = out_a | shrink_a | out_b | shrink_b
        if not moved.any():
            return lo, hi
        a = np.where(out_a, a - 1, a + shrink_a)
        b = np.where(out_b, b + 1, b - shrink_b)
        lo[live], hi[live] = a, b
        live, a, b = live[moved], a[moved], b[moved]
        left, right = left[moved], right[moved]
        params = tuple(p[moved] for p in params)


def densest_ball(mset: MeasurableSet, cover: Sequence[Ball]) -> tuple[Ball, float]:
    """Cover ball maximising |B ∩ E|; ties break on the lowest cover index.

    The returned intersection measure satisfies the pigeonhole floor
    |B ∩ E| >= |E| / len(cover) exactly in cell counts, provided the cover
    covers every true cell.
    """
    if mset.cell_count == 0:
        raise InfeasibleError("densest_ball requires a set of positive measure")
    if not cover:
        raise ConfigError("empty cover")
    grid = mset.grid
    if grid.dimension == 1:
        centers = grid._centers([b.center for b in cover])
        start, count = grid.line_runs(centers[:, 0], np.array([b.radius for b in cover]))
        (prefix,) = mset.row_prefix
        counts = prefix[start + count] - prefix[start]
    else:
        counts = _row_counts(mset, cover)
    best = int(np.argmax(counts))  # the first of the largest counts
    return cover[best], int(counts[best]) * grid.h ** grid.dimension


# ---------------------------------------------------------------------------
# Chains of balls
# ---------------------------------------------------------------------------

def chain_of_balls(
    domain: Domain, p_from: np.ndarray, p_to: np.ndarray, r: float
) -> list[np.ndarray]:
    """Centres c_0 = from, ..., c_K = to with consecutive distance <= r/2.

    Boxes and disks are convex and the torus is boundaryless, so the straight
    (periodic) segment between the endpoints stays inside the domain and the
    chain can be placed directly on it with K = ceil(dist / (r/2)) steps.
    """
    if r <= 0:
        raise ConfigError("chain radius must be positive")
    p_from = np.asarray(p_from, dtype=float)
    p_to = np.asarray(p_to, dtype=float)
    for p in (p_from, p_to):
        if not bool(domain.contains(p)):
            raise ConfigError("chain endpoints must lie in the domain")
    disp = domain.displacement(p_from, p_to)
    dist = float(np.linalg.norm(disp))
    if dist == 0.0:
        return [p_from]
    k = math.ceil(dist / (r / 2.0) - 1e-12)
    centers = [domain.wrap(p_from + (i / k) * disp) for i in range(k + 1)]
    inside = domain.contains(np.stack(centers))
    if not bool(np.all(inside)):
        raise ResolutionError("chain left the domain; geometry unsupported")
    return centers


# ---------------------------------------------------------------------------
# Ray extraction and 1D traces
# ---------------------------------------------------------------------------

def _least(a, b):
    """Elementwise ``min(a, b)`` as Python takes it: b only where it is
    strictly smaller, so ties and signed zeros resolve as in the scalar form."""
    return np.where(b < a, b, a)


def _greatest(a, b):
    """Elementwise ``max(a, b)`` as Python takes it: b only where it is
    strictly larger."""
    return np.where(b > a, b, a)


def _ball_span(domain: Domain, ball: Ball, w: np.ndarray,
               mus: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per direction of the fan `mus`, the parameter window [t_enter, t_exit]
    with w + t*mu inside the ball (ball lifted on the torus); t_enter is 0 for
    an origin inside, and both are 0 for a ray that misses the ball."""
    c = np.asarray(ball.center, dtype=float)
    if domain.kind == "torus":
        c = w + domain.displacement(w, c)
    u = w - c
    b = np.vecdot(u, mus)  # bit-equal to float(np.dot(u, mu)) per direction
    disc = b * b + ball.radius ** 2 - float(np.dot(u, u))
    miss = disc < 0
    root = np.sqrt(np.where(miss, 0.0, disc))
    return (np.where(miss, 0.0, _greatest(0.0, -b - root)),
            np.where(miss, 0.0, _greatest(0.0, -b + root)))


def _domain_exit(domain: Domain, w: np.ndarray, mus: np.ndarray) -> np.ndarray:
    """Per direction, the largest t >= 0 with w + t*mu inside the (convex)
    domain."""
    if domain.kind == "torus":
        return np.full(len(mus), math.inf)
    if domain.kind == "disk":
        u = w - domain.center
        b = np.vecdot(u, mus)
        disc = b * b + domain.radius ** 2 - float(np.dot(u, u))
        miss = disc < 0
        return np.where(miss, 0.0, -b + np.sqrt(np.where(miss, 0.0, disc)))
    t = np.full(len(mus), math.inf)
    for axis, ext in enumerate(domain.extent):
        m = mus[:, axis]
        t_axis = np.full(len(mus), math.inf)
        np.divide(ext - w[axis], m, out=t_axis, where=m > 1e-15)
        np.divide(-w[axis], m, out=t_axis, where=m < -1e-15)
        t = _least(t, t_axis)
    return _greatest(t, 0.0)


def _fan_segments(domain: Domain, ball: Ball, w: np.ndarray,
                  mus: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per direction, the start and length of the ray piece from w that lies
    inside ball and domain, within budget 2r.

    An origin outside the ball shifts the segment start to the entry point;
    the parameter budget 2r is still counted from w.
    """
    t_enter, t_exit = _ball_span(domain, ball, w, mus)
    t_dom = _domain_exit(domain, w, mus)  # domain window measured from w
    budget = 2.0 * ball.radius
    t_enter = _least(_least(t_enter, budget), t_dom)
    t_end = _least(_least(budget, t_exit), t_dom)
    return w + t_enter[:, None] * mus, _greatest(0.0, t_end - t_enter)


class _Traces(NamedTuple):
    """The traces of a fan of segments: every merged interval, grouped by
    segment in segment order and sorted within each, the index of the
    segment holding it, and each segment's total trace length."""

    starts: np.ndarray
    ends: np.ndarray
    owner: np.ndarray
    totals: np.ndarray

    def intervals(self, k: int) -> IntervalSet:
        lo, hi = np.searchsorted(self.owner, [k, k + 1])
        return IntervalSet(tuple(zip(self.starts[lo:hi], self.ends[lo:hi])))


def _trace(mset: MeasurableSet, origins: np.ndarray, mus: np.ndarray,
           t_max: np.ndarray) -> _Traces:
    """Exact 1D traces of the mask along the segments origins[k] + t*mus[k],
    t in [0, t_max[k]], all in one pass.

    Each segment is cut at every cell-boundary crossing; a sub-interval is
    included iff its midpoint lies in a true cell, so inclusion is
    conservative with respect to the discretised set.  Runs closer than
    1e-15 merge as in `IntervalSet.from_runs`, and each total is summed left
    to right, as `IntervalSet.total` sums it.
    """
    grid = mset.grid
    h = grid.h
    live = np.flatnonzero(t_max > 0.0)
    ts, owners = [np.zeros(len(live)), t_max[live]], [live, live]
    for axis in range(grid.dimension):
        m = mus[live, axis]
        x0 = origins[live, axis]
        x1 = x0 + t_max[live] * m
        k0 = np.floor(np.minimum(x0, x1) / h).astype(np.int64) + 1
        k1 = np.ceil(np.maximum(x0, x1) / h).astype(np.int64) - 1
        count = np.where(np.abs(m) < 1e-15, 0, np.maximum(k1 - k0 + 1, 0))
        # k0, ..., k1 of every segment, back to back
        ks = np.repeat(k0 - (np.cumsum(count) - count), count) + np.arange(count.sum())
        cut = (ks * h - np.repeat(x0, count)) / np.repeat(m, count)
        inside = (cut > 0.0) & (cut < np.repeat(t_max[live], count))
        ts.append(cut[inside])
        owners.append(np.repeat(live, count)[inside])
    t, owner = np.concatenate(ts), np.concatenate(owners)
    # the order of np.lexsort((t, owner)) in about a third of its time: equal
    # cuts of one segment are dropped next, and a stable sort on small
    # integer keys is a radix sort
    order = np.argsort(t)
    order = order[np.argsort(owner[order].astype(np.int16), kind="stable")]
    t, owner = t[order], owner[order]
    fresh = np.ones(len(t), dtype=bool)
    fresh[1:] = (t[1:] != t[:-1]) | (owner[1:] != owner[:-1])
    t, owner = t[fresh], owner[fresh]

    # consecutive cuts of one segment bound a piece; its midpoint decides it
    piece = np.flatnonzero(owner[1:] == owner[:-1])
    left, right, p_owner = t[piece], t[piece + 1], owner[piece]
    mids = (left + right) / 2.0
    pts = np.stack([origins[:, axis][p_owner] + mids * mus[:, axis][p_owner]
                    for axis in range(grid.dimension)], axis=-1)
    included = mset.mask[grid.point_to_cell(pts)]

    # a run starts at an included piece not joined to an included predecessor
    # of its segment, and ends at one not joined to an included successor
    joined = np.zeros(len(piece) + 1, dtype=bool)
    joined[1:-1] = included[1:] & included[:-1] & (p_owner[1:] == p_owner[:-1])
    first = included & ~joined[:-1]
    a, b, r_owner = left[first], right[included & ~joined[1:]], p_owner[first]
    merged = np.zeros(len(a), dtype=bool)
    merged[1:] = (r_owner[1:] == r_owner[:-1]) & (a[1:] <= b[:-1] + 1e-15)
    closing = np.ones(len(a), dtype=bool)  # the last run of each merged interval
    closing[:-1] = ~merged[1:]
    starts, ends, owner = a[~merged], b[closing], r_owner[~merged]

    # one zero-padded row of lengths per segment, summed left to right
    counts = np.bincount(owner, minlength=len(mus))
    rows = np.zeros((len(mus), counts.max(initial=0) + 1))
    column = np.arange(len(owner)) - np.repeat(np.cumsum(counts) - counts, counts)
    rows[owner, column] = ends - starts
    return _Traces(starts, ends, owner, np.cumsum(rows, axis=1)[:, -1])


def restrict_to_segment(mset: MeasurableSet, seg: Segment) -> IntervalSet:
    """Exact 1D trace of the mask along the segment: the one-segment case of
    the fan trace `best_ray_interval` takes."""
    origin = np.asarray(seg.origin, dtype=float)[None, :]
    mu = np.asarray(seg.direction, dtype=float)[None, :]
    return _trace(mset, origin, mu, np.array([seg.t_max], dtype=float)).intervals(0)


def ray_directions(dimension: int) -> np.ndarray:
    """The fixed direction fan: both axis directions in d=1, an evenly
    spaced fan of N_DIRECTIONS_2D angles in d=2."""
    if dimension == 1:
        return np.array([[1.0], [-1.0]])
    angles = 2.0 * math.pi * np.arange(N_DIRECTIONS_2D) / N_DIRECTIONS_2D
    return np.stack([np.cos(angles), np.sin(angles)], axis=-1)


def best_ray_interval(ball: Ball, mset: MeasurableSet, w: np.ndarray) -> tuple[Segment, IntervalSet]:
    """Direction through w whose trace of B ∩ E has the largest 1D measure.

    Downstream bounds consume the returned measured trace, not the
    spherical-average floor |B ∩ E| / (|S^{d-1}| (2r)^{d-1}).
    """
    grid = mset.grid
    domain = grid.domain
    w = np.asarray(w, dtype=float)
    if not bool(domain.contains(w)):
        raise ConfigError("ray origin must lie in the domain")
    if float(domain.distance(w, np.asarray(ball.center))) > 2.0 * ball.radius + 1e-12:
        raise ConfigError("ray origin too far from the ball")

    mus = ray_directions(domain.dimension)
    origins, t_max = _fan_segments(domain, ball, w, mus)
    traces = _trace(mset, origins, mus, t_max)
    best, best_total = 0, traces.totals[0]
    for k, total in enumerate(traces.totals):  # first wins a tie
        if total > best_total + 1e-15:
            best, best_total = k, total
    if best_total <= 0.0:
        raise ResolutionError(
            "no sampled direction meets the set; refine the grid or the fan"
        )
    seg = Segment(tuple(origins[best]), tuple(mus[best]), float(t_max[best]))
    return seg, traces.intervals(best)


# ---------------------------------------------------------------------------
# Mask raster import/export
# ---------------------------------------------------------------------------

MASK_MAGIC = "MASKRASTER"


def write_mask_raster(path, mset: MeasurableSet) -> None:
    """Portable text raster: magic, dimension + cells, cell size, 0/1 rows."""
    grid = mset.grid
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(f"{MASK_MAGIC}\n")
        fh.write(f"{grid.dimension} " + " ".join(str(c) for c in grid.cells) + "\n")
        fh.write(f"{grid.h!r}\n")
        body = mset.mask.astype(np.uint8)
        if grid.dimension == 1:
            fh.write(" ".join(str(v) for v in body) + "\n")
        else:
            for row in body:
                fh.write(" ".join(str(v) for v in row) + "\n")


def read_mask_raster(path) -> tuple[tuple[int, ...], float, np.ndarray]:
    """Read a raster back as (cells, h, mask); attach to a grid separately."""
    with open(path, "r", encoding="ascii") as fh:
        magic = fh.readline().strip()
        if magic != MASK_MAGIC:
            raise ConfigError(f"not a mask raster: bad magic {magic!r}")
        header = fh.readline().split()
        d = int(header[0])
        cells = tuple(int(v) for v in header[1 : 1 + d])
        h = float(fh.readline().strip())
        values = [int(v) for line in fh for v in line.split()]
    mask = np.asarray(values, dtype=bool).reshape(cells)
    return cells, h, mask


def attach_mask(grid: Grid, cells: tuple[int, ...], h: float, mask: np.ndarray) -> MeasurableSet:
    if cells != tuple(grid.cells):
        raise ConfigError(f"raster cells {cells} do not match grid {grid.cells}")
    if abs(h - grid.h) > 1e-9 * grid.h:
        raise ConfigError("raster cell size does not match the grid")
    return MeasurableSet(grid, mask)
