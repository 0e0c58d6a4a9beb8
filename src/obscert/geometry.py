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
from functools import cached_property, reduce
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

# Slack of `Domain.contains` and `Grid.interior` at the domain's rim.
_CONTAINS_TOL = 1e-12


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

    def contains(self, points: np.ndarray, tol: float = _CONTAINS_TOL) -> np.ndarray:
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
        """Geodesic distance; vectorised over leading axes.  On the torus each
        axis offset is reduced modulo the period first, which leaves an offset
        below the period as it is."""
        if self.kind == "torus":
            ext = np.asarray(self.extent)
            d = np.fmod(np.abs(np.asarray(q, dtype=float) - np.asarray(p, dtype=float)), ext)
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

    def cell_points(self, flat) -> np.ndarray:
        """The centres of the cells at the row-major flat indices `flat`,
        shaped np.shape(flat) + (d,): those rows of `points`, read from
        `axis_centers` without building `points`."""
        if self.dimension == 1:
            return self.axis_centers[0][flat, None]
        i, j = np.divmod(flat, self.cells[1])
        x, y = self.axis_centers
        return np.stack((x[i], y[j]), axis=-1)

    @cached_property
    def interior(self) -> np.ndarray:
        """Cells whose centre lies in the domain; exterior cells are flagged.

        `Domain.contains` over `points` bit for bit, tested per axis: a box
        takes the outer AND of its axes' tests, and a disk sums its axes'
        squared offsets in axis order, as the norm in `contains` does.
        """
        domain = self.domain
        if domain.kind == "torus":
            return np.ones(self.cells, dtype=bool)
        if domain.kind == "disk":
            dx, dy = (a - c for a, c in zip(self.axis_centers, domain.center))
            return np.sqrt((dx * dx)[:, None] + dy * dy) <= domain.radius + _CONTAINS_TOL
        return reduce(np.logical_and.outer, [
            (a >= -_CONTAINS_TOL) & (a <= e + _CONTAINS_TOL)
            for a, e in zip(self.axis_centers, np.asarray(domain.extent))])

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

    def _centers(self, centers) -> np.ndarray:
        """Ball centres as an array shaped (k, d), rejected unless each has
        one coordinate per axis: every ball query reads its centres through
        here."""
        try:
            c = np.asarray(centers, dtype=float)
        except ValueError:  # centres of unequal length
            c = None
        if c is None or c.ndim != 2 or c.shape[1] != self.dimension:
            raise ConfigError(f"every ball centre needs {self.dimension} coordinates")
        return c

    def _axis_offsets(self, axis: int, coord, cell_centers: np.ndarray) -> np.ndarray:
        """The squared offsets along `axis` of the given cell centres from the
        centre coordinate `coord`, wrapped on the torus: the one formula every
        ball query uses."""
        d = np.abs(coord - cell_centers)
        if self.domain.kind == "torus":
            ext = self.domain.extent[axis]
            d = np.fmod(d, ext)
            d = np.minimum(d, ext - d)
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
        modulo L: the offsets are reduced modulo L as well, so a centre
        outside [0, L] has the ball of the same point inside.  The run starts
        from the cells within r of the centre, widened to hold the cells
        nearest it, and its ends settle as in `_settle_runs`.
        """
        x, r = np.asarray(centers, dtype=float), np.asarray(radii, dtype=float)
        (n,), h = self.cells, self.h
        cell_x = self.axis_centers[0]
        torus = self.domain.kind == "torus"

        def passes(j, x, r):
            return np.sqrt(self._axis_offsets(0, x, cell_x[j % n])) <= r

        p = x
        if torus:
            with np.errstate(invalid="ignore"):  # a non-finite centre passes no cell
                p = np.mod(x, self.domain.extent[0])
        # the centre in cell units, a NaN centre put on the line
        y = np.fmin(np.fmax(p / h - 0.5, -0.5), n - 0.5)
        if torus:
            # the n cells about the centre, whose ends flank the antipode
            left = np.ceil(y - n / 2.0).astype(np.int64)
            right = left + (n - 1)
            left_in, right_in = passes(np.concatenate((left, right)).reshape(2, -1), x, r)
            ring = left_in & right_in
            left = left + ~left_in
            right = right - (left_in & ~right_in)
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

    def ball_blocks(self, centers, radii) -> BallBlocks:
        """Each block of a 2D grid classed against every ball about `centers`,
        shaped (k, 2), of `radii`: shaped (m,), shared by every centre, or
        (k, m), one row per centre.

        A block is inside when ``sqrt(max ox + max oy) <= r`` over its squared
        offsets ox, oy: a rounded sum and a rounded root are monotone, so every
        cell passes the test ``sqrt(ox + oy) <= r``.  It is outside when
        ``sqrt(min ox + min oy) > r``, which fails every cell for the same
        reason, and on the boundary otherwise.  A centre's offsets and its
        blocks' corners are shared by all its radii.  Summed in axis order,
        as ``Domain.distance`` sums them, the offsets' root is that distance
        bit for bit.
        """
        c = self._centers(centers)
        r = np.asarray(radii, dtype=float)
        r = np.broadcast_to(r, (len(c), r.shape[-1]))
        ox, oy = (self._axis_offsets(axis, c[:, axis, None], self.axis_centers[axis])
                  for axis in range(2))
        rows, cols = self.block_starts

        def corner(ufunc: np.ufunc) -> np.ndarray:
            """Each block's distance from each centre at its far (np.maximum)
            or near (np.minimum) corner, shaped (k, 1) + the block layout."""
            d = (ufunc.reduceat(ox, rows, axis=1)[:, :, None]
                 + ufunc.reduceat(oy, cols, axis=1)[:, None, :])
            return np.sqrt(d, out=d)[:, None]

        inside = corner(np.maximum) <= r[:, :, None, None]
        boundary = corner(np.minimum) <= r[:, :, None, None]
        boundary ^= inside  # the near corner is no farther, so inside blocks pass it too
        return BallBlocks((ox, oy), r, inside, boundary)

    def ball_field(self, ball: "Ball") -> np.ndarray:
        """Boolean field: interior cells whose centre lies in the ball.

        A cell is in the ball when ``sqrt(ox + oy) <= r`` over its per-axis
        squared offsets (`_axis_offsets`), summed in axis order: that root is
        ``Domain.distance`` bit for bit."""
        c = self._centers([ball.center])[0]
        offsets = [self._axis_offsets(axis, c[axis], a) for axis, a in enumerate(self.axis_centers)]
        return (np.sqrt(reduce(np.add.outer, offsets)) <= ball.radius) & self.interior


class BallBlocks(NamedTuple):
    """The blocks of k × m balls on a 2D grid: the per-axis squared offsets of
    the cell centres from each centre, shaped (k, rows) and (k, cols), the
    radii, shaped (k, m), and two masks shaped (k, m) + the block layout:
    the blocks whose every cell lies in the ball, and those that may hold
    some cells of it.  No cell of any other block lies in the ball."""

    offsets: tuple[np.ndarray, np.ndarray]
    radii: np.ndarray
    inside: np.ndarray
    boundary: np.ndarray


# ---------------------------------------------------------------------------
# Balls and measurable sets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Ball:
    """A ball as a region: what `MeasurableSet.from_ball`, `Grid.ball_field`
    and `sup_norm` take.  The geometric stages take arrays of centres and
    radii instead."""

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
        """Cells whose centre lies in the axis-aligned box `bounds`, one
        (lo, hi) per axis: the outer AND of the axes' tests, as in
        `Grid.interior`."""
        if len(bounds) != grid.dimension:
            raise ConfigError("bounds must cover every axis")
        tests = [(a >= lo) & (a <= hi) for a, (lo, hi) in zip(grid.axis_centers, bounds)]
        return MeasurableSet(grid, reduce(np.logical_and.outer, tests) & grid.interior)

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

def cover_domain(domain: Domain, r: float) -> np.ndarray:
    """Centres, shaped (k, d), of a lattice of radius-r balls covering the
    domain.

    Lattice spacing is r/sqrt(d) so a whole grid cube of that side fits in
    one ball; every point of the domain is then within r/2 of some centre.
    On a disk, cubes that do not meet the disk are left out, and centres
    falling outside it are projected back inside (projection onto a convex
    set is 1-Lipschitz, so coverage is preserved), keeping the cardinality
    under the certified per-axis bound.  The lattice depends on r only
    through its per-axis centre counts (`_lattice_counts`).
    """
    d = domain.dimension
    axes = [(np.arange(m) + 0.5) * (ext / m)
            for ext, m in zip(domain.extent, _lattice_counts(domain, r))]
    centers = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
    if domain.kind == "disk":
        half = np.array([ext / len(axis) / 2.0 for ext, axis in zip(domain.extent, axes)])
        off = centers - domain.center
        nearest = np.maximum(np.abs(off) - half, 0.0)  # the cube's point nearest the centre
        meets = np.sqrt(np.vecdot(nearest, nearest)) <= domain.radius
        centers, off = centers[meets], off[meets]
        dist = np.sqrt(np.vecdot(off, off))
        out = dist > domain.radius
        scale = domain.radius * (1 - 1e-12) / dist[out]
        centers[out] = domain.center + off[out] * scale[:, None]
    return centers


def _lattice_counts(domain: Domain, r: float) -> tuple[int, ...]:
    """The per-axis centre counts of the radius-r cover lattice: spacing
    r/sqrt(d), so ceil(extent / spacing) centres on each axis, at least one."""
    if not r > 0:  # NaN too
        raise ConfigError("cover radius must be positive")
    spacing = r / math.sqrt(domain.dimension)
    return tuple(max(1, math.ceil(ext / spacing)) for ext in domain.extent)


def cover_count_bound(domain: Domain, r: float) -> int:
    """Certified cover cardinality bound ([c/r] + 1)^d with the constant
    instantiated as sqrt(d) times the diameter.

    On the torus the fundamental-domain extent replaces the (smaller)
    periodic diameter, since the lattice must still span a full period.
    """
    if not r > 0:  # NaN too
        raise ConfigError("cover radius must be positive")
    d = domain.dimension
    span = max(domain.extent) if domain.kind == "torus" else domain.diameter
    per_axis = math.floor(span * math.sqrt(d) / r) + 1
    return per_axis ** d


# ---------------------------------------------------------------------------
# Pigeonhole densest ball
# ---------------------------------------------------------------------------

# rows of the bands and ring cells a chunk of the balls takes at once in
# `_row_counts`
_PAIRS_PER_CHUNK = 1 << 16

# the cells `_settle_runs` tests for a run in a round: each end and its neighbour
_CELLS_PER_RUN = 4


def _row_counts(mset: MeasurableSet, centers: np.ndarray, radii: np.ndarray) -> np.ndarray:
    """|B ∩ E| in cells for each ball on a 2D grid.

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

    The balls that share a centre are counted together, over the band of
    their largest radius.  The test is monotone in r, so in each row the run
    of the smallest radius lies in the run of the largest, and the cells
    between the two form a ring.  A ball of radius r holds the set cells of
    the inner runs and those of the ring whose rounded ``sqrt(ox + oy)`` is
    at most r: a centre settles two runs per row and counts its balls by one
    sorted search of its ring.  A centre whose ring would hold more cells
    than its radii's own runs would test counts each radius by its runs.

    The torus window presumes centres within half a period of the
    fundamental domain, as every cover centre is.
    """
    grid = mset.grid
    (n0, n1), h = grid.cells, grid.h
    torus = grid.domain.kind == "torus"
    prefix = mset.row_prefix
    order = np.lexsort((radii, centers[:, 1], centers[:, 0]))  # by centre, then by radius
    c, r = centers[order], radii[order]
    reach = np.minimum(np.ceil(r / h), n0).astype(np.int64)
    band = np.minimum(2 * reach + 3, n0)

    def groups(opens: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The first and last ball of each run of balls that `opens` starts,
        and the area in cells of the ring between their radii, at most the
        grid's."""
        first = np.flatnonzero(opens)
        last = np.append(first[1:], len(r)) - 1
        return first, last, np.minimum(np.pi * (r[last] ** 2 - r[first] ** 2) / h ** 2, n0 * n1)

    new_centre = np.append(True, (c[1:] != c[:-1]).any(axis=1))
    first, last, ring = groups(new_centre)
    by_rows = ring > _CELLS_PER_RUN * np.add.reduceat(band, first)
    first, last, ring = groups(new_centre | np.repeat(by_rows, last - first + 1))
    group = np.repeat(np.arange(len(first)), last - first + 1)
    inner, outer = r[first], r[last]
    weight = band[last] + ring
    cuts = np.flatnonzero(np.diff((np.cumsum(weight) - weight) // _PAIRS_PER_CHUNK)) + 1
    counts = np.empty(len(r), dtype=np.int64)
    for a, b in zip(np.append(0, cuts), np.append(cuts, len(first))):
        bands = band[last[a:b]]
        first_row = np.floor(c[first[a:b], 0] / h).astype(np.int64) - reach[last[a:b]] - 1
        if not torus:  # shifted inside the box, the band still holds every row reached
            first_row = np.clip(first_row, 0, n0 - bands)
        pair, rows = _spans(first_row, bands)
        pair += a
        rows %= n0
        cx, cy = c[first[pair]].T
        ox = grid._axis_offsets(0, cx, grid.axis_centers[0][rows])
        lo, hi = _row_runs(grid, cy, ox, inner[pair])
        start = lo % n1
        held = prefix[rows, start + np.maximum(hi - lo + 1, 0)] - prefix[rows, start]
        base = np.add.reduceat(held, np.cumsum(bands) - bands)

        # the ring's set cells: the outer run less the inner one, if any
        rim = np.flatnonzero(outer[pair] > inner[pair])
        lo_out, hi_out = _row_runs(grid, cy[rim], ox[rim], outer[pair[rim]])
        empty = hi[rim] < lo[rim]
        cut, resume = (np.where(empty, hi_out + 1, end) for end in (lo[rim], hi[rim] + 1))
        part, j = _spans(np.concatenate((lo_out, resume)),
                         np.maximum(np.concatenate((cut - lo_out, hi_out + 1 - resume)), 0))
        at, j = np.concatenate((rim, rim))[part], j % n1
        keep = mset.mask[rows[at], j]
        at, j = at[keep], j[keep]
        d = np.sqrt(ox[at] + grid._axis_offsets(1, cy[at], grid.axis_centers[1][j]))

        # each ball's count: its group's inner cells and the ring cells sorted
        # before it (a cell before a ball at its distance), less earlier groups'
        balls = np.arange(first[a], last[b - 1] + 1)
        ranked = np.lexsort((np.arange(len(d) + len(balls)) >= len(d),
                             np.concatenate((d, r[balls])),
                             np.concatenate((pair[at], group[balls]))))
        is_ball = ranked >= len(d)
        ring_cells = np.bincount(pair[at] - a, minlength=b - a)
        ball = balls[ranked[is_ball] - len(d)]
        g = group[ball] - a
        counts[ball] = (base - np.cumsum(ring_cells) + ring_cells)[g] + np.cumsum(~is_ball)[is_ball]
    return counts[np.argsort(order)]


def _spans(starts: np.ndarray, lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The indices of the spans [start, start + length), span by span, each
    with the number of its span."""
    owner = np.repeat(np.arange(len(lengths)), lengths)
    return owner, (starts + lengths - np.cumsum(lengths))[owner] + np.arange(len(owner))


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


def _ball_counts(mset: MeasurableSet, centers, radii) -> np.ndarray:
    """|B ∩ E| in cells for the ball about each of `centers`, shaped (k, d),
    of the matching one of `radii`: from `_line_counts` on a 1D grid and from
    `_row_counts` on a 2D one."""
    grid = mset.grid
    count = _line_counts if grid.dimension == 1 else _row_counts
    return count(mset, grid._centers(centers), np.asarray(radii, dtype=float))


def _line_counts(mset: MeasurableSet, centers: np.ndarray, radii: np.ndarray) -> np.ndarray:
    """|B ∩ E| in cells for each ball on a 1D grid: each ball is a run of
    cells (`Grid.line_runs`), counted as a difference of the row prefix."""
    start, count = mset.grid.line_runs(centers[:, 0], radii)
    (prefix,) = mset.row_prefix
    return prefix[start + count] - prefix[start]


def densest_cover_balls(
    mset: MeasurableSet, radii: Sequence[float]
) -> list[tuple[int, np.ndarray, float]]:
    """For each radius, the size of the lattice cover of the domain at that
    radius (`cover_domain`), the centre of the cover's ball that holds the
    most cells of the set, the first such ball in cover order, and the
    measure of its intersection with the set.

    The measure satisfies the pigeonhole floor |B ∩ E| >= |E| / k exactly in
    cell counts for a cover of k balls, provided the cover covers every true
    cell.  Radii whose lattices have the same per-axis centre counts share
    one cover, built once.  The balls of every cover are counted in one call:
    on a 2D grid, the covers' balls that share a centre are counted together,
    from two runs per row and the ring between them (`_row_counts`).
    """
    if mset.cell_count == 0:
        raise InfeasibleError("a densest cover ball requires a set of positive measure")
    grid = mset.grid
    shapes = [_lattice_counts(grid.domain, r) for r in radii]
    # any radius of a shape builds its lattice; the dict keeps one per shape
    lattices = {s: cover_domain(grid.domain, r) for s, r in dict(zip(shapes, radii)).items()}
    covers = [lattices[shape] for shape in shapes]
    sizes = [len(cover) for cover in covers]
    counts = _ball_counts(mset, np.concatenate(covers), np.repeat(radii, sizes)) if covers else []
    found = []
    for cover, part in zip(covers, np.split(counts, np.cumsum(sizes)[:-1])):
        best = int(np.argmax(part))  # the first of the largest counts
        found.append((len(cover), cover[best], int(part[best]) * grid.h ** grid.dimension))
    return found


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
    if not r > 0:  # NaN too
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


def _ball_span(domain: Domain, centers: np.ndarray, radii: np.ndarray, ws: np.ndarray,
               mus: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per segment, the parameter window [t_enter, t_exit] with w + t*mu
    inside its ball (ball lifted on the torus); t_enter is 0 for an origin
    inside, and both are 0 for a ray that misses the ball."""
    c = centers
    if domain.kind == "torus":
        c = ws + domain.displacement(ws, c)
    u = ws - c
    b = np.vecdot(u, mus)  # bit-equal to float(np.dot(u, mu)) per segment
    disc = b * b + radii ** 2 - np.vecdot(u, u)
    miss = disc < 0
    root = np.sqrt(np.where(miss, 0.0, disc))
    return (np.where(miss, 0.0, _greatest(0.0, -b - root)),
            np.where(miss, 0.0, _greatest(0.0, -b + root)))


def _domain_exit(domain: Domain, ws: np.ndarray, mus: np.ndarray) -> np.ndarray:
    """Per segment, the largest t >= 0 with w + t*mu inside the (convex)
    domain."""
    if domain.kind == "torus":
        return np.full(len(mus), math.inf)
    if domain.kind == "disk":
        u = ws - domain.center
        b = np.vecdot(u, mus)
        disc = b * b + domain.radius ** 2 - np.vecdot(u, u)
        miss = disc < 0
        return np.where(miss, 0.0, -b + np.sqrt(np.where(miss, 0.0, disc)))
    t = np.full(len(mus), math.inf)
    for axis, ext in enumerate(domain.extent):
        m = mus[:, axis]
        t_axis = np.full(len(mus), math.inf)
        np.divide(ext - ws[:, axis], m, out=t_axis, where=m > 1e-15)
        np.divide(-ws[:, axis], m, out=t_axis, where=m < -1e-15)
        t = _least(t, t_axis)
    return _greatest(t, 0.0)


def _fan_segments(domain: Domain, centers: np.ndarray, radii: np.ndarray, ws: np.ndarray,
                  mus: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For segments from origins `ws` along `mus`, each with its ball's
    centre and radius, one row per segment: the start and length of the ray
    piece from w that lies inside ball and domain, within budget 2r.

    An origin outside the ball shifts the segment start to the entry point;
    the parameter budget 2r is still counted from w.
    """
    t_enter, t_exit = _ball_span(domain, centers, radii, ws, mus)
    t_dom = _domain_exit(domain, ws, mus)  # domain window measured from w
    budget = 2.0 * radii
    t_enter = _least(_least(t_enter, budget), t_dom)
    t_end = _least(_least(budget, t_exit), t_dom)
    return ws + t_enter[:, None] * mus, _greatest(0.0, t_end - t_enter)


class _Pieces(NamedTuple):
    """The pieces a pass cut its segments into, grouped by segment in
    segment order and sorted within each: each one's left end, whether its
    midpoint lies in the set, its segment, and the number of runs that
    begin before it; each run's end and the index of its merged interval;
    and each merged interval's sum of the lengths before it in its segment,
    added left to right."""

    left: np.ndarray
    included: np.ndarray
    owner: np.ndarray
    runs_before: np.ndarray
    run_end: np.ndarray
    run_interval: np.ndarray
    length_before: np.ndarray


class _Traces(NamedTuple):
    """The traces of a batch of segments.

    `starts`, `ends` and `owner` hold every merged interval of the segments
    a pass traced (`_trace`), grouped by traced segment in order and sorted
    within each; `owner` is the index of the traced segment holding one.
    Segment k's trace is the first `kept[k]` of the intervals of traced
    segment `source[k]`, then the rows of `tail[k]`, shaped (2, 2), that are
    not NaN; `totals[k]` is its length.  A pass keeps in `pieces` what a
    shorter segment along one of its segments needs to read its trace off
    that one (`_prefix_traces`).
    """

    starts: np.ndarray
    ends: np.ndarray
    owner: np.ndarray
    totals: np.ndarray
    source: np.ndarray
    kept: np.ndarray
    tail: np.ndarray
    pieces: _Pieces

    def intervals(self, k: int) -> IntervalSet:
        lo = np.searchsorted(self.owner, self.source[k])
        hi = lo + self.kept[k]
        runs = list(zip(self.starts[lo:hi], self.ends[lo:hi]))
        return IntervalSet(tuple(runs + [(a, b) for a, b in self.tail[k] if not np.isnan(a)]))


def _midpoints_in(mset: MeasurableSet, origins: np.ndarray, mus: np.ndarray,
                  owner: np.ndarray, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Whether the midpoint of each piece [left, right] of segment `owner`
    lies in a true cell, by one `Grid.point_to_cell` call."""
    grid = mset.grid
    mids = (left + right) / 2.0
    pts = np.stack([origins[:, axis][owner] + mids * mus[:, axis][owner]
                    for axis in range(grid.dimension)], axis=-1)
    return mset.mask[grid.point_to_cell(pts)]


def _boundary_span(h: float, x0: np.ndarray, m: np.ndarray,
                   t_max: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per segment, the first and last index k of the cell boundaries k*h
    along one axis between the coordinates x0 and x0 + t_max*m of its ends:
    the boundaries `_trace` tests for cuts."""
    x1 = x0 + t_max * m
    return (np.floor(np.minimum(x0, x1) / h).astype(np.int64) + 1,
            np.ceil(np.maximum(x0, x1) / h).astype(np.int64) - 1)


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
        k0, k1 = _boundary_span(h, x0, m, t_max[live])
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
    key = np.int16 if len(mus) <= np.iinfo(np.int16).max else np.int64
    order = order[np.argsort(owner[order].astype(key), kind="stable")]
    t, owner = t[order], owner[order]
    fresh = np.ones(len(t), dtype=bool)
    fresh[1:] = (t[1:] != t[:-1]) | (owner[1:] != owner[:-1])
    t, owner = t[fresh], owner[fresh]

    # consecutive cuts of one segment bound a piece; its midpoint decides it
    piece = np.flatnonzero(owner[1:] == owner[:-1])
    left, right, p_owner = t[piece], t[piece + 1], owner[piece]
    included = _midpoints_in(mset, origins, mus, p_owner, left, right)

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
    sums = np.cumsum(rows, axis=1)
    pieces = _Pieces(left, included, p_owner, np.cumsum(first) - first, b,
                     np.cumsum(~merged) - 1, np.where(column > 0, sums[owner, column - 1], 0.0))
    return _Traces(starts, ends, owner, sums[:, -1], np.arange(len(mus)), counts,
                   np.full((len(mus), 2, 2), np.nan), pieces)


def _search_left(values: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                 x: np.ndarray) -> np.ndarray:
    """Per query, the first index in [lo, hi) whose value is not below x, or
    hi: `np.searchsorted` of each x in its own sorted slice values[lo:hi],
    by a binary search over all slices at once."""
    at = lo
    step = 1 << int(np.max(hi - lo, initial=0)).bit_length()
    while step := step >> 1:
        probe = at + step
        at = np.where((probe <= hi) & (values[np.minimum(probe, hi) - 1] < x), probe, at)
    return at


def _prefix_traces(mset: MeasurableSet, traced: _Traces, origins: np.ndarray, mus: np.ndarray,
                   t_max: np.ndarray, source: np.ndarray, own: np.ndarray) -> _Traces:
    """The traces of the segments origins[k] + t*mus[k], t in [0, t_max[k]],
    from `traced`, a pass over those where `own` holds.  Each other segment
    runs along traced segment `source[k]` from its start, no farther, and
    its cuts are that segment's cuts below t_max[k] (`_shared_traces`
    checks this).

    Such a segment's pieces are the traced segment's up to its last cut c
    below t_max[k], then the tail [c, t_max[k]] with its own midpoint test.
    Its runs are the traced segment's, the last one ending at c where it
    reached past it; the tail then extends the last run, merges with it
    under the 1e-15 rule or begins a new one.  Its total adds, left to
    right, the traced segment's lengths before its last merged interval,
    that interval's new length and the tail's, as `_trace` adds them.
    """
    p = traced.pieces
    totals = np.zeros(len(t_max))
    kept = np.zeros(len(t_max), dtype=np.int64)
    tail = np.full((len(t_max), 2, 2), np.nan)
    totals[own], kept[own] = traced.totals, traced.kept
    reads = np.flatnonzero(~own & (t_max > 0.0))
    s, t_end = source[reads], t_max[reads]
    lo = np.searchsorted(p.owner, s)
    at = _search_left(p.left, lo, np.searchsorted(p.owner, s, side="right"), t_end) - 1
    c = p.left[at]
    tail_in = _midpoints_in(mset, origins, mus, reads, c, t_end)

    # the last run begun before the tail, and its merged interval
    run = np.flatnonzero(p.runs_before[at] > p.runs_before[lo])
    last = p.runs_before[at[run]] - 1
    interval = p.run_interval[last]
    end = np.where((at[run] > lo[run]) & p.included[at[run] - 1], c[run], p.run_end[last])
    joins = tail_in[run] & (c[run] <= end + 1e-15)
    end = np.where(joins, t_end[run], end)
    start = traced.starts[interval]
    totals[reads[run]] = p.length_before[interval] + (end - start)
    kept[reads[run]] = interval - np.searchsorted(traced.owner, s[run])
    tail[reads[run], 0] = np.stack([start, end], axis=-1)

    alone = tail_in.copy()  # the tail as a merged interval of its own
    alone[run[joins]] = False
    totals[reads[alone]] += t_end[alone] - c[alone]
    tail[reads[alone], 1] = np.stack([c[alone], t_end[alone]], axis=-1)
    return traced._replace(totals=totals, source=source, kept=kept, tail=tail)


def _shared_traces(mset: MeasurableSet, origins: np.ndarray, mus: np.ndarray,
                   t_max: np.ndarray) -> _Traces:
    """The traces `_trace` gives the segments origins[k] + t*mus[k], t in
    [0, t_max[k]], with each ray traced once.

    Segments whose origin and direction agree bit for bit run along one ray:
    one `_trace` pass takes the longest of them (the first of equals), and
    the others read their traces off it (`_prefix_traces`).  A segment's own
    trace tests only the cell boundaries between its ends, and rounding may
    leave out one that the longer segment cuts below the shorter one's end.
    The cuts along an axis are monotone in the boundary index, so only the
    first boundary past the end on either side can be one; a segment for
    which one is goes into the pass as well.
    """
    n = len(t_max)
    rays = np.ascontiguousarray(np.concatenate([origins, mus], axis=1))
    _, ray = np.unique(rays.view(np.dtype((np.void, rays.itemsize * rays.shape[1]))),
                       return_inverse=True)
    ray = ray.reshape(-1)
    order = np.lexsort((-t_max, ray))
    head = np.ones(n, dtype=bool)
    head[1:] = ray[order][1:] != ray[order][:-1]
    longest = np.empty(n, dtype=np.int64)
    longest[ray[order][head]] = order[head]
    source = longest[ray]

    h = mset.grid.h
    for axis in range(mus.shape[1]):
        m, x0 = mus[:, axis], origins[:, axis]
        k0, k1 = _boundary_span(h, x0, m, t_max)
        r0, r1 = _boundary_span(h, x0, m, t_max[source])
        for k in (np.maximum(k1 + 1, r0), np.minimum(k0 - 1, r1)):
            cut = (k * h - x0) / np.where(np.abs(m) < 1e-15, 1.0, m)
            left_out = (np.abs(m) >= 1e-15) & (k >= r0) & (k <= r1) & (cut > 0.0) & (cut < t_max)
            source[left_out] = np.flatnonzero(left_out)

    own = source == np.arange(n)
    traced = _trace(mset, origins[own], mus[own], t_max[own])
    if own.all():
        return traced
    return _prefix_traces(mset, traced, origins, mus, t_max,
                          np.cumsum(own)[source] - 1, own)


def ray_directions(dimension: int) -> np.ndarray:
    """The fixed direction fan: both axis directions in d=1, an evenly
    spaced fan of N_DIRECTIONS_2D angles in d=2."""
    if dimension == 1:
        return np.array([[1.0], [-1.0]])
    angles = 2.0 * math.pi * np.arange(N_DIRECTIONS_2D) / N_DIRECTIONS_2D
    return np.stack([np.cos(angles), np.sin(angles)], axis=-1)


def best_ray_intervals(
    centers, radii: Sequence[float], mset: MeasurableSet, origins: Sequence[np.ndarray]
) -> list[tuple[Segment, IntervalSet] | ResolutionError]:
    """For the ball about each of `centers`, shaped (k, d), of the matching
    one of `radii`, the direction of the fan (`ray_directions`) through the
    matching one of `origins` whose trace of B ∩ E has the largest 1D
    measure: its segment and trace, or a `ResolutionError` in their place
    where no direction meets the set.  Within a fan the first direction wins
    a tie.

    Downstream bounds consume the returned measured trace, not the
    spherical-average floor |B ∩ E| / (|S^{d-1}| (2r)^{d-1}).  Fans that
    share a ray trace it once (`_shared_traces`): the balls of one origin,
    whose segments from it differ only in length, cost one fan.  On a 1D
    grid the fans of every ball are traced in one pass; a 2D grid traces the
    fans of each origin in a pass of their own, as one pass over many
    distinct rays was slower there than one pass per fan.
    """
    domain = mset.grid.domain
    centers = mset.grid._centers(centers)
    radii = np.asarray(radii, dtype=float)
    ws = np.array(origins, dtype=float).reshape(len(centers), -1)
    if not np.all(domain.contains(ws)):
        raise ConfigError("ray origin must lie in the domain")
    if not np.all(domain.distance(ws, centers) <= 2.0 * radii + 1e-12):  # NaN too
        raise ConfigError("ray origin too far from the ball")

    mus = ray_directions(domain.dimension)
    # one row per segment: every ball's fan, ball after ball
    directions = np.tile(mus, (len(centers), 1))
    starts, t_max = _fan_segments(
        domain, *(np.repeat(a, len(mus), axis=0) for a in (centers, radii, ws)), directions)
    passes: dict[bytes | None, list[int]] = {}
    for ball, w in enumerate(ws):
        passes.setdefault(w.tobytes() if domain.dimension == 2 else None, []).append(ball)
    found: list[tuple[Segment, IntervalSet] | ResolutionError] = [None] * len(centers)
    for balls in passes.values():
        rows = (np.array(balls)[:, None] * len(mus) + np.arange(len(mus))).ravel()
        traces = _shared_traces(mset, starts[rows], directions[rows], t_max[rows])
        for i, ball in enumerate(balls):
            fan = i * len(mus)
            best, best_total = fan, traces.totals[fan]
            for k in range(fan, fan + len(mus)):  # first wins a tie
                if traces.totals[k] > best_total + 1e-15:
                    best, best_total = k, traces.totals[k]
            if best_total <= 0.0:
                found[ball] = ResolutionError(
                    "no sampled direction meets the set; refine the grid or the fan"
                )
                continue
            row = rows[best]
            seg = Segment(tuple(starts[row]), tuple(directions[row]), float(t_max[row]))
            found[ball] = (seg, traces.intervals(best))
    return found


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
