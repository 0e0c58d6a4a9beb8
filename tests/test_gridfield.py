"""Equivalence of the grid-field layer with brute-force full-grid references.

Every reference below measures distance with `Domain.distance` over all of
`grid.points`, the way ball membership was decided before line masks,
block summaries and row runs, and must agree with that code cell for cell.
"""

import gc
import itertools
import math
import weakref
from functools import cached_property

import numpy as np
import pytest

from obscert import functions, geometry
from obscert.errors import ConfigError, HypothesisError, InfeasibleError
from obscert.functions import (
    FunctionModel,
    Gaussian,
    GridField,
    TrigSum,
    UcpCertificate,
    _doubling_estimate,
    default_radii,
    estimate_doubling,
    halton_points,
    verify_ucp,
)
from obscert.geometry import (
    BLOCK,
    Ball,
    Domain,
    Grid,
    MeasurableSet,
    _ball_counts,
    best_ray_intervals,
    cover_domain,
    densest_cover_balls,
)

GRIDS = {
    "box": Grid(Domain.box([1.0, 1.0]), (96, 96)),
    "torus": Grid(Domain.torus([1.0, 1.0]), (96, 96)),
    "disk": Grid(Domain.disk(0.5), (96, 96)),
    "wide-box": Grid(Domain.box([2.0, 1.0]), (128, 64)),
    # cell counts that are not multiples of the block side: short last blocks
    "ragged-box": Grid(Domain.box([2.0, 1.0]), (200, 100)),
    "ragged-torus": Grid(Domain.torus([1.0, 1.0]), (90, 90)),
    "ragged-disk": Grid(Domain.disk(0.5), (90, 90)),
    "box-1d": Grid(Domain.box([1.0]), (256,)),
    "torus-1d": Grid(Domain.torus([1.0]), (256,)),
}
RADII = (0.013, 0.05, 0.11, 0.25, 0.6, 1.5)


def _model(dim):
    if dim == 1:
        return TrigSum.of([([1], 1.0, 0.3), ([4], 0.4, 1.1)], 1)
    return TrigSum.of([([1, 2], 1.0, 0.3), ([3, -1], 0.5, 0.9)], 2)


def _centers(grid):
    """Low-discrepancy centres plus centres within a small radius of every
    torus seam (and of the box edges elsewhere)."""
    domain = grid.domain
    pts = list(halton_points(domain, 24))
    if domain.kind != "disk":
        ext = np.asarray(domain.extent)
        for frac in ([0.004] * domain.dimension, [0.996] * domain.dimension,
                     [0.003, 0.5][: domain.dimension], [0.5, 0.998][-domain.dimension:]):
            pts.append(np.asarray(frac) * ext)
    return pts


def _reference_values(f, grid):
    vals = np.abs(f.evaluate(grid.points))
    vals[~grid.interior] = -1.0
    return vals


def _reference_sup_ball(vals, grid, center, radius):
    dist = grid.domain.distance(grid.points, np.asarray(center))
    masked = np.where(dist <= radius, vals, -1.0)
    idx = np.unravel_index(int(np.argmax(masked)), masked.shape)
    return float(masked[idx]), grid.points[idx]


def _block_slices(grid):
    """The cells of every block of a 2D grid, as (block index, row slice,
    column slice)."""
    rows, cols = grid.block_starts
    return [((i, j), slice(r, r + BLOCK), slice(c, c + BLOCK))
            for i, r in enumerate(rows) for j, c in enumerate(cols)]


def _radii(grid, c):
    """The fixed radii plus radii equal to the distance of some cell centre,
    which put cells exactly on the sphere.  In 2D these include the nearest
    and farthest cell distance of a few blocks, which put a block's first or
    last cell on the sphere."""
    dist = grid.domain.distance(grid.points, np.asarray(c))
    ordered = np.sort(dist.ravel())
    radii = RADII + tuple(float(ordered[k]) for k in (1, 40, ordered.size // 3))
    if grid.dimension == 2:
        blocks = _block_slices(grid)
        picks = [blocks[k] for k in (0, len(blocks) // 3, len(blocks) // 2, -1)]
        radii += tuple(float(f(dist[r, s])) for _, r, s in picks for f in (np.min, np.max))
    return radii


@pytest.mark.parametrize("name", sorted(GRIDS))
def test_ball_field_and_sup_ball_match_full_grid_distance(name):
    grid = GRIDS[name]
    gf = GridField(_model(grid.dimension), grid)
    vals = _reference_values(_model(grid.dimension), grid)
    assert np.array_equal(gf.values, vals)
    for c in _centers(grid):
        radii = _radii(grid, c)
        assert gf.ball_maxima([c], radii).tolist() == [[
            _reference_sup_ball(vals, grid, c, r)[0] for r in radii]]
        sups, _ = gf.sup_balls([c] * len(radii), radii)
        for r, (value, point) in zip(radii, sups, strict=True):
            dist = grid.domain.distance(grid.points, np.asarray(c))
            expected = (dist <= r) & grid.interior
            assert np.array_equal(grid.ball_field(Ball.at(c, r)), expected)
            ref_value, ref_point = _reference_sup_ball(vals, grid, c, r)
            assert value == ref_value
            if ref_value >= 0.0:
                assert np.array_equal(point, ref_point)


@pytest.mark.parametrize("name", ["box", "torus", "box-1d", "torus-1d"])
def test_sup_ball_ties_resolve_to_first_cell_in_row_major_order(name):
    grid = GRIDS[name]
    # a zero-frequency sum is constant: every cell of a ball ties
    f = TrigSum.of([([0] * grid.dimension, 1.0, 0.5)], grid.dimension)
    gf = GridField(f, grid)
    for c in _centers(grid):
        radii = _radii(grid, c)
        sups, _ = gf.sup_balls([c] * len(radii), radii)
        for r, (value, point) in zip(radii, sups, strict=True):
            dist = grid.domain.distance(grid.points, np.asarray(c))
            first = np.unravel_index(int(np.argmax(dist <= r)), grid.cells)
            assert value == abs(math.sin(0.5))
            assert np.array_equal(point, grid.points[first])


def test_sup_ball_of_an_empty_ball_is_negative():
    grid = GRIDS["disk"]
    gf = GridField(_model(2), grid)
    corner, between = gf.sup_balls([(0.001, 0.001), (0.5, 0.5)], [0.01, 1e-6])[0]
    assert corner == (-1.0, None)   # exterior corner
    assert between == (-1.0, None)  # between cell centres
    assert gf.ball_maxima([(0.001, 0.001)], [0.01, 0.05]).tolist() == [[-1.0, -1.0]]
    assert gf.ball_maxima([(0.5, 0.5)], [1e-6]).tolist() == [[-1.0]]
    assert gf.ball_maxima([(0.999, 0.02)], [0.03]).tolist() == [[-1.0]]


@pytest.mark.parametrize("name", ["box", "torus-1d"])
def test_a_ball_centre_of_the_wrong_dimension_is_rejected(name):
    grid = GRIDS[name]
    gf = GridField(_model(grid.dimension), grid)
    e = MeasurableSet.full(grid)
    for center in [(0.5,) * n for n in range(4) if n != grid.dimension]:
        ball = Ball(center, 0.1)
        for query in (lambda: gf.ball_maxima([center], [0.1]),
                      lambda: gf.sup_balls([center], [0.1]),
                      lambda: grid.ball_field(ball), lambda: _ball_counts(e, [center], [0.1]),
                      lambda: best_ray_intervals([center], [0.1], e, [center])):
            with pytest.raises(ConfigError, match="ball centre"):
                query()


def _reference_counts(mset, centers, radii):
    grid = mset.grid
    return [int(np.count_nonzero(
        mset.mask & (grid.domain.distance(grid.points, np.asarray(c)) <= r)))
        for c, r in zip(centers, radii, strict=True)]


@pytest.mark.parametrize("name", sorted(GRIDS))
def test_densest_ball_matches_brute_force_counts(name):
    grid = GRIDS[name]
    rng = np.random.default_rng(5)
    with pytest.raises(InfeasibleError):
        densest_cover_balls(MeasurableSet.empty(grid), [0.2])
    radii = (0.07, 0.2, 0.45)
    # on the full mask many balls tie: the first of them wins
    for e in (MeasurableSet.random(grid, float(rng.uniform(0.05, 0.5)), rng),
              MeasurableSet.full(grid)):
        for r, (count, center, inter) in zip(radii, densest_cover_balls(e, radii), strict=True):
            cover = cover_domain(grid.domain, r)
            counts = _reference_counts(e, cover, [r] * len(cover))
            assert _ball_counts(e, cover, [r] * len(cover)).tolist() == counts
            best = int(np.argmax(counts))
            assert count == len(cover)
            assert np.array_equal(center, cover[best])
            assert inter == counts[best] * grid.h ** grid.dimension


def _reference_doubling_samples(f, grid, radii, centers):
    """The full-grid loop the doubling estimate replaced."""
    vals = _reference_values(f, grid)
    samples = []
    for x in centers:
        dist = grid.domain.distance(grid.points, x)
        for r in radii:
            inner = float(np.max(np.where(dist <= r, vals, -1.0)))
            outer = float(np.max(np.where(dist <= 2.0 * r, vals, -1.0)))
            if inner < 0.0 or outer < 0.0:
                continue
            if inner == 0.0:
                raise HypothesisError("vanishes")
            samples.append((tuple(x), float(r), outer / inner))
    return samples


@pytest.mark.parametrize("name", sorted(GRIDS))
def test_estimate_doubling_samples_equal_brute_force(name):
    grid = GRIDS[name]
    domain = grid.domain
    f = _model(grid.dimension)
    # a ladder radius below the cell size exercises the empty-ball skip
    for radii in (default_radii(domain), [0.004, 0.03, 0.09]):
        centers = np.stack(_centers(grid))
        _, rep = estimate_doubling(f, domain, grid, radii=radii, centers=centers)
        got = [(tuple(s.center), s.radius, s.ratio) for s in rep.samples]
        assert got == _reference_doubling_samples(f, grid, radii, centers)


def test_estimate_doubling_gaussian_2d_equals_brute_force():
    grid = GRIDS["disk"]
    f = Gaussian((0.4, 0.55), 0.2, 1.3)
    centers = halton_points(grid.domain, 64)
    radii = default_radii(grid.domain)
    _, rep = estimate_doubling(f, grid.domain, grid, centers=centers)
    got = [(tuple(s.center), s.radius, s.ratio) for s in rep.samples]
    assert got == _reference_doubling_samples(f, grid, radii, centers)


@pytest.mark.parametrize("name", sorted(GRIDS))
def test_verify_ucp_equals_brute_force(name):
    grid = GRIDS[name]
    domain = grid.domain
    f = _model(grid.dimension)
    cert = UcpCertificate(0.5, 1.0, 0.3)
    # radii above r0 are skipped
    radii = default_radii(domain, cert.r0) + [0.45]
    centers = halton_points(domain, 64)
    vals = _reference_values(f, grid)
    log_sup = math.log(float(np.max(vals)))
    min_a, n = 0.0, 0
    for x in centers:
        dist = domain.distance(grid.points, x)
        for r in radii:
            inner = float(np.max(np.where(dist <= r, vals, -1.0)))
            if inner < 0.0 or r > cert.r0:
                continue
            n += 1
            min_a = max(min_a, r ** cert.b * (log_sup - math.log(inner)))
    rep = verify_ucp(f, cert, domain, grid, radii=radii)
    assert rep.n_samples == n
    assert rep.min_sufficient_a == min_a


# ---------------------------------------------------------------------------
# Runs of cells on 1D grids
# ---------------------------------------------------------------------------

LINES = {f"{kind}-{n}": Grid(Domain(kind, (1.0,)), (n,))
         for kind in ("box", "torus") for n in (1, 2, 3, 7, 1024)}


class Levels(FunctionModel):
    """A sine rounded down to four levels, so that balls hold tied maxima."""

    kind = "levels"
    dimension = 1

    def evaluate(self, points):
        x = np.asarray(points, dtype=float)[..., 0]
        return np.floor(2.0 * (np.sin(2.0 * math.pi * 3.0 * x + 0.4) + 1.0))


def _line_centers(grid):
    """Cell centres, cell edges, the seams and points next to them, the
    points halfway round the ring from cell centres, and centres outside the
    domain: within half a period of it, at that bound and beyond it."""
    (n,), h, ext = grid.cells, grid.h, grid.domain.extent[0]
    cells = range(n) if n <= 7 else (0, 1, 200, 511, 512, 1022, 1023)
    points = {0.0, 1e-12, h / 3.0, ext - h / 3.0, ext - 1e-12, ext}
    points |= {-0.3 * ext, 1.2 * ext, -0.5 * ext, 1.5 * ext, -2.5 * ext, 3.4 * ext}
    for j in cells:
        points |= {(j + 0.5) * h, j * h, ((j + 0.5) * h + ext / 2.0) % ext}
    return sorted(points)


def _line_radii(grid, dist):
    """Every cell distance from the centre on a short line and a spread of
    them on a long one, each with its neighbours one ulp away, the distance
    of the farthest cell, where the ball becomes the whole line or ring,
    and radii beyond it."""
    ordered = np.unique(dist)
    exact = ordered if ordered.size <= 8 else ordered[[0, 1, 2, 100, 300, -3, -2, -1]]
    radii = {1e-9, 2.0 * grid.domain.extent[0]}
    for r in exact:
        radii |= {float(r), math.nextafter(r, 0.0), math.nextafter(r, math.inf)}
    return sorted(r for r in radii if r > 0.0)


@pytest.mark.parametrize("name", sorted(LINES))
def test_line_runs_ball_maxima_sup_ball_and_counts_equal_distance_masks(name):
    grid = LINES[name]
    (n,), h = grid.cells, grid.h
    f = Levels()
    gf = GridField(f, grid)
    vals = _reference_values(f, grid)
    mset = MeasurableSet.from_mask(grid, np.random.default_rng(n).random(n) < 0.5)
    if mset.cell_count == 0:
        mset = MeasurableSet.full(grid)
    centers = _line_centers(grid)
    for c in centers:
        dist = grid.domain.distance(grid.points, np.asarray([c]))
        radii = _line_radii(grid, dist)
        masks = [dist <= r for r in radii]
        start, count = grid.line_runs(np.full(len(radii), c), np.array(radii))
        for s, k, m in zip(start, count, masks):
            assert 0 <= s < n and 0 <= k <= n
            if grid.domain.kind == "box":
                assert s + k <= n
            assert np.array_equal(np.sort((s + np.arange(k)) % n), np.flatnonzero(m))
        assert gf.ball_maxima([[c]], radii).tolist() == [
            [float(np.where(m, vals, -1.0).max()) for m in masks]]
        counts = [int(np.count_nonzero(mset.mask & m)) for m in masks]
        sups, _ = gf.sup_balls([[c]] * len(radii), radii)
        for r, m, (value, point) in zip(radii, masks, sups, strict=True):
            masked = np.where(m, vals, -1.0)
            first = int(np.argmax(masked))
            assert gf.ball_maxima([[c]], [r]).tolist() == [[masked[first]]]  # one run alone
            assert value == masked[first]
            if value >= 0.0:
                assert np.array_equal(point, grid.points[first])
            else:
                assert point is None
        assert _ball_counts(mset, [[c]] * len(radii), radii).tolist() == counts
    # every centre in one call, as the doubling estimate and the UCP check ask
    radii = (1e-9, h / 2.0, h, 0.1, 0.26, 0.5, 0.75, 2.0)
    dists = [grid.domain.distance(grid.points, np.asarray([c])) for c in centers]
    assert gf.ball_maxima(np.asarray(centers)[:, None], radii).tolist() == [
        [float(np.where(d <= r, vals, -1.0).max()) for r in radii] for d in dists]


@pytest.mark.parametrize("name", ["torus-3", "torus-7", "torus-1024"])
def test_sup_ball_of_a_wrapping_run_takes_the_first_cell_in_index_order(name):
    # on a constant field every cell ties: a run over the seam must return
    # cell 0, not its own first cell
    grid = LINES[name]
    (n,), h = grid.cells, grid.h
    gf = GridField(TrigSum.of([([0], 1.0, 0.5)], 1), grid)
    for c in (0.0, 1.0 - 1e-12, h / 3.0):
        start, count = grid.line_runs(np.array([c]), np.array([h]))
        assert (start, count) == ([n - 1], [2])  # cells n - 1 and 0
        ((value, point),), _ = gf.sup_balls([[c]], [h])
        assert value == abs(math.sin(0.5))
        assert np.array_equal(point, grid.points[0])


# ---------------------------------------------------------------------------
# Block summaries of 2D grids
# ---------------------------------------------------------------------------

GRIDS_2D = sorted(name for name, grid in GRIDS.items() if grid.dimension == 2)


@pytest.mark.parametrize("name", GRIDS_2D)
def test_ball_blocks_class_exactly_by_full_grid_distance(name):
    # a block's far (near) corner is one of its cells, so inside means every
    # cell is in the ball, outside means none is, and boundary means some are;
    # every centre is classed in one call, each with its own row of radii
    grid = GRIDS[name]
    centers = _centers(grid)
    radii = np.array([_radii(grid, c) for c in centers])
    bb = grid.ball_blocks(centers, radii)
    layout = tuple(len(starts) for starts in grid.block_starts)
    assert bb.inside.shape == bb.boundary.shape == radii.shape + layout
    for i, c in enumerate(centers):
        dist = grid.domain.distance(grid.points, np.asarray(c))
        for j, r in enumerate(radii[i]):
            assert bb.radii[i, j] == r
            for k, rows, cols in _block_slices(grid):
                in_ball = dist[rows, cols] <= r
                assert bb.inside[i, j][k] == in_ball.all()
                assert bb.boundary[i, j][k] == (in_ball.any() and not in_ball.all())
    # radii shared by every centre class each centre as a call of its own
    shared = grid.ball_blocks(centers, RADII)
    assert shared.radii.shape == (len(centers), len(RADII))
    for i, c in enumerate(centers):
        alone = grid.ball_blocks([c], RADII)
        assert np.array_equal(shared.inside[i], alone.inside[0])
        assert np.array_equal(shared.boundary[i], alone.boundary[0])


@pytest.mark.parametrize("name", GRIDS_2D)
def test_block_summary_reduces_every_cell_of_a_short_last_block(name):
    grid = GRIDS[name]
    vals = _reference_values(_model(2), grid)
    maxima = grid.block_reduce(np.maximum, vals)
    blocks = _block_slices(grid)
    assert maxima.size == len(blocks)
    for k, rows, cols in blocks:
        assert maxima[k] == vals[rows, cols].max()


@pytest.mark.parametrize("name", GRIDS_2D)
def test_ball_maxima_of_a_constant_field_read_no_boundary_block(name):
    # every block maximum ties, so once an inside block holds an interior
    # cell no boundary block can raise the maximum and none is read
    class CountingField(np.ndarray):
        reads = 0

        def __getitem__(self, key):
            CountingField.reads += 1
            return super().__getitem__(key)

    grid = GRIDS[name]
    f = TrigSum.of([([0, 0], 1.0, 0.5)], 2)
    gf = GridField(f, grid)
    vals = _reference_values(f, grid)
    summary = gf.block_max
    gf.values = gf.values.view(CountingField)
    pruned = 0
    for c in _centers(grid):
        radii = _radii(grid, c)
        bb = grid.ball_blocks([c], radii)
        decided = []
        for j, r in enumerate(radii):
            CountingField.reads = 0
            ((value,),) = gf.ball_maxima([c], [r])
            assert value == _reference_sup_ball(vals, grid, c, r)[0]
            assert CountingField.reads <= np.count_nonzero(bb.boundary[0, j])
            decided.append(bool(np.any(bb.inside[0, j] & (summary >= 0.0))))
            if decided[-1]:
                assert value == abs(math.sin(0.5))
                assert CountingField.reads == 0
                pruned += 1
        # all the radii in one walk: one read per round, and a round only
        # for a ball that its inside blocks leave open
        CountingField.reads = 0
        gf.ball_maxima([c], radii)
        open_boundary = [np.count_nonzero(bb.boundary[0, j])
                         for j, done in enumerate(decided) if not done]
        assert CountingField.reads <= max(open_boundary, default=0)
    assert pruned > 0


@pytest.mark.parametrize("name", GRIDS_2D)
def test_block_counts_equal_brute_force_on_random_empty_and_full_masks(name):
    grid = GRIDS[name]
    masks = [MeasurableSet.random(grid, 0.2, np.random.default_rng(11)),
             MeasurableSet.empty(grid), MeasurableSet.full(grid)]
    balls = [(c, r) for c in _centers(grid)[::3] for r in _radii(grid, c)]
    centers, radii = [c for c, _ in balls], [r for _, r in balls]
    for e in masks:
        assert _ball_counts(e, centers, radii).tolist() == _reference_counts(e, centers, radii)


# ---------------------------------------------------------------------------
# Many 2D balls in one call
# ---------------------------------------------------------------------------

class Levels2D(FunctionModel):
    """A plane wave rounded down to four levels: ties across many blocks."""

    kind = "levels"
    dimension = 2

    def evaluate(self, points):
        p = np.asarray(points, dtype=float)
        return np.floor(2.0 * (np.sin(2.0 * math.pi * (3.0 * p[..., 0] + 2.0 * p[..., 1]) + 0.4)
                               + 1.0))


def _batch_centers(grid):
    """The `_centers`, then centres on the seams and corners of the bounding
    box, and centres outside it."""
    fracs = [(0.0, 0.5), (1.0, 0.5), (0.5, 0.0), (0.5, 1.0), (0.0, 0.0), (1.0, 1.0),
             (-0.3, 0.5), (1.4, 1.2), (0.5, -2.5), (-1.0, -1.0)]
    return np.concatenate((np.stack(_centers(grid)), np.asarray(fracs) * grid.domain.extent))


def _batch_radii(grid, centers):
    """The fixed radii and some exact cell distances of a few centres, each
    with its neighbours one ulp away."""
    radii = set(RADII)
    for c in centers[::9]:
        dist = np.unique(grid.domain.distance(grid.points, c))
        for r in dist[[0, 1, 30, dist.size // 4]]:
            radii |= {float(r), math.nextafter(r, 0.0), math.nextafter(r, math.inf)}
    return sorted(radii)


@pytest.mark.parametrize("name", GRIDS_2D)
def test_ball_maxima_of_many_centres_in_one_call_equal_brute_force(name):
    grid = GRIDS[name]
    centers = _batch_centers(grid)
    radii = _batch_radii(grid, centers)
    for f in (_model(2), Levels2D()):
        vals = _reference_values(f, grid)
        dists = [grid.domain.distance(grid.points, c) for c in centers]
        assert GridField(f, grid).ball_maxima(centers, radii).tolist() == [
            [float(np.where(d <= r, vals, -1.0).max()) for r in radii] for d in dists]


@pytest.mark.parametrize("name", GRIDS_2D)
def test_sup_balls_of_many_centres_in_one_call_take_the_first_cell_in_row_major_order(name):
    # the levels field ties across blocks, so the first cell attaining a
    # maximum need not lie in the first block, in row-major order, reaching it
    grid = GRIDS[name]
    centers = _batch_centers(grid)
    rng = np.random.default_rng(13)
    radii = rng.choice(_batch_radii(grid, centers), len(centers)).tolist()
    maxima_radii = rng.choice(_batch_radii(grid, centers), len(centers) // 2).tolist()
    for f in (_model(2), Levels2D(), TrigSum.of([([0, 0], 1.0, 0.5)], 2)):
        vals = _reference_values(f, grid)
        sups, maxima = GridField(f, grid).sup_balls(centers, radii, maxima_radii)
        for c, r, (value, point) in zip(centers, radii, sups, strict=True):
            ref_value, ref_point = _reference_sup_ball(vals, grid, c, r)
            assert value == ref_value
            if ref_value >= 0.0:
                assert np.array_equal(point, ref_point)
            else:
                assert point is None
        assert maxima == [_reference_sup_ball(vals, grid, c, r)[0]
                          for c, r in zip(centers, maxima_radii)]


@pytest.mark.parametrize("name", ["box", "ragged-disk", "box-1d", "torus-1d"])
def test_ball_queries_of_no_centre_or_no_radius_are_empty(name):
    grid = GRIDS[name]
    gf = GridField(_model(grid.dimension), grid)
    none, centers = np.empty((0, grid.dimension)), np.stack(_centers(grid))
    assert gf.ball_maxima(none, [0.1, 0.2]).shape == (0, 2)
    assert gf.ball_maxima(centers, []).shape == (len(centers), 0)
    assert gf.ball_maxima(none, []).shape == (0, 0)
    assert gf.sup_balls(none, []) == ([], [])


def test_chunked_2d_ball_queries_equal_one_chunk(monkeypatch):
    grid = GRIDS["ragged-torus"]
    gf = GridField(Levels2D(), grid)
    centers = _batch_centers(grid)
    radii = _batch_radii(grid, centers)
    whole = gf.ball_maxima(centers, radii)
    sups, maxima = gf.sup_balls(centers, radii[:len(centers)], radii[:7])
    calls = []
    ball_blocks = Grid.ball_blocks
    monkeypatch.setattr(Grid, "ball_blocks",
                        lambda self, *args: calls.append(len(args[0])) or ball_blocks(self, *args))
    # three centres, or one round's cells of three balls, per chunk
    monkeypatch.setattr(functions, "_WALK_CHUNK", 3 * len(radii) * BLOCK * BLOCK)
    assert np.array_equal(gf.ball_maxima(centers, radii), whole)
    assert calls == [3] * (len(centers) // 3) + [len(centers) % 3] * (len(centers) % 3 > 0)
    monkeypatch.setattr(functions, "_WALK_CHUNK", 3 * BLOCK * BLOCK)
    again, maxima_again = gf.sup_balls(centers, radii[:len(centers)], radii[:7])
    assert maxima_again == maxima
    for (v, p), (w, q) in zip(again, sups, strict=True):
        assert v == w and (p is None) == (q is None) and (p is None or np.array_equal(p, q))


@pytest.mark.parametrize("name", ["box", "default-box"])
def test_each_2d_hypothesis_check_classes_its_centres_in_one_ball_blocks_call_per_chunk(
        name, monkeypatch):
    # the per-centre loop must not return: a chunk holds as many centres as
    # its ball-block tests allow, and the 96-cell grid's 64 centres fit one
    calls = []
    ball_blocks = Grid.ball_blocks
    monkeypatch.setattr(Grid, "ball_blocks", lambda self, centers, radii: calls.append(
        (np.shape(centers), np.shape(radii))) or ball_blocks(self, centers, radii))
    grid = GRIDS["box"] if name == "box" else Grid.default(Domain.box([1.0, 1.0]))
    f = _model(2)
    gf = GridField(f, grid)
    centers, radii = halton_points(grid.domain, 64), default_radii(grid.domain)
    blocks = max(gf.block_max.size, BLOCK * BLOCK)

    def chunks(m):
        per = functions._WALK_CHUNK // (m * blocks)
        return [(min(per, 64 - i), 2) for i in range(0, 64, per)]

    _doubling_estimate(gf, radii, centers)
    assert calls == [(shape, (5,)) for shape in chunks(5)]
    assert name == "default-box" or len(calls) == 1
    calls.clear()
    verify_ucp(f, UcpCertificate(0.5, 1.0, 0.3), grid.domain, grid)
    assert calls == [(shape, (4,)) for shape in chunks(4)]  # the ladder up to r0
    calls.clear()
    gf.sup_balls(centers[:9], radii[:1] * 9, radii[1:2] * 9)
    assert calls == [((18, 2), (18, 1))]  # both balls of each centre in one call


SMALL_TORI = {
    "torus-3x3": Grid(Domain.torus([0.3, 0.3]), (3, 3)),
    "torus-7x5": Grid(Domain.torus([1.4, 1.0]), (7, 5)),
}


@pytest.mark.parametrize("name", sorted(SMALL_TORI))
def test_row_counts_on_small_tori_from_the_seams_past_the_full_ring(name):
    # centres on and next to the seams, on cell centres and on cell edges;
    # radii from a quarter period to past the farthest cell, with every cell
    # distance among them, so that rows come one cell short of the ring
    grid = SMALL_TORI[name]
    domain, h = grid.domain, grid.h
    coords = [sorted({0.0, 1e-12, h / 2, h, ext / 2, ext - h, ext - 1e-12, ext})
              for ext in domain.extent]
    quarter = min(domain.extent) / 4.0
    centers, radii = [], []
    for c in itertools.product(*coords):
        dist = domain.distance(grid.points, np.asarray(c)).ravel()
        rs = set(np.linspace(quarter, 1.5 * domain.diameter, 9)) | set(dist[dist >= quarter])
        centers += [c] * len(rs)
        radii += [float(r) for r in sorted(rs)]
    rng = np.random.default_rng(7)
    masks = [MeasurableSet.from_mask(grid, rng.random(grid.cells) < p) for p in (0.3, 0.6)]
    for e in masks + [MeasurableSet.full(grid)]:
        assert _ball_counts(e, centers, radii).tolist() == _reference_counts(e, centers, radii)


@pytest.mark.parametrize("name", ["box", "torus", "disk"])
def test_row_counts_of_many_radii_per_centre_equal_brute_force(name, monkeypatch):
    # per centre, radii as a window of degrees gives them: close together,
    # some equal, some on a cell's distance or one ulp either side of it,
    # and one below h/2; centres on the torus seams.  The last centre's radii
    # 0.07 and 0.45 leave a ring of more cells than their runs test, so it
    # counts each radius by its runs
    grid = GRIDS[name]
    domain, h = grid.domain, grid.h
    ext = np.asarray(domain.extent)
    centers, radii = [], []
    for c in [domain.center + 3.25 * h, (0.0, 0.0), (ext[0], 0.5), (0.3, ext[1] - 1e-12)]:
        dist = np.unique(domain.distance(grid.points, np.asarray(c)))
        near = dist[np.searchsorted(dist, 0.2):][:4]
        rs = [0.4 * h, float(near[1]), float(near[1]), float(near[1])]
        rs += [float(x) for r in near for x in (np.nextafter(r, 0.0), r, np.nextafter(r, np.inf))]
        centers += [c] * len(rs)
        radii += rs
    far = domain.center + (0.01, -0.02)
    centers += [far, far]
    radii += [0.07, 0.45]
    calls = []
    real = geometry._row_runs
    monkeypatch.setattr(geometry, "_row_runs",
                        lambda grid, cy, ox, r: calls.append(set(r)) or real(grid, cy, ox, r))
    rng = np.random.default_rng(29)
    for e in (MeasurableSet.random(grid, 0.4, rng), MeasurableSet.full(grid)):
        calls.clear()
        assert _ball_counts(e, centers, radii).tolist() == _reference_counts(e, centers, radii)
        inner, outer = calls  # one chunk: the inner runs, then the outer runs of the rings
        assert {0.07, 0.45} <= inner and 0.45 not in outer
        assert max(radii[:-2]) in outer and max(radii[:-2]) not in inner


def test_densest_ball_in_2d_reads_no_block_and_builds_the_row_prefix_once(monkeypatch):
    grid = GRIDS["box"]
    cover = cover_domain(grid.domain, 0.15)
    assert len(cover) == 100
    block_calls = []
    ball_blocks = Grid.ball_blocks
    monkeypatch.setattr(Grid, "ball_blocks",
                        lambda self, *args: block_calls.append(args) or ball_blocks(self, *args))
    builds = []
    build = MeasurableSet.row_prefix.func
    counting = cached_property(lambda self: builds.append(self) or build(self))
    counting.__set_name__(MeasurableSet, "row_prefix")
    monkeypatch.setattr(MeasurableSet, "row_prefix", counting)

    e = MeasurableSet.random(grid, 0.3, np.random.default_rng(2))
    ((count, center, inter),) = densest_cover_balls(e, [0.15])
    assert inter == max(_reference_counts(e, cover, [0.15] * len(cover))) * grid.h ** 2
    for _ in range(3):
        ((again, at, measure),) = densest_cover_balls(e, [0.15])
        assert (again, at.tolist(), measure) == (count, center.tolist(), inter)
    densest_cover_balls(e, [0.3])
    assert block_calls == []
    assert len(builds) == 1 and builds[0] is e


# ---------------------------------------------------------------------------
# One field per model and grid
# ---------------------------------------------------------------------------

def test_grid_field_of_is_shared_per_model_and_grid():
    grid, other_grid = GRIDS["box"], GRIDS["torus"]
    f, g = _model(2), _model(2)
    field = GridField.of(f, grid)
    assert GridField.of(f, grid) is field
    assert np.array_equal(field.values, GridField(f, grid).values)
    assert GridField.of(g, grid) is not field
    moved = GridField.of(f, other_grid)
    assert moved is not field and moved.grid is other_grid
    # the model keeps the field of the grid it was last asked for
    assert GridField.of(f, other_grid) is moved
    back = GridField.of(f, grid)
    assert back is not field and np.array_equal(back.values, field.values)


def test_grid_field_goes_with_its_model_without_the_cyclic_collector():
    grid = GRIDS["disk"]
    f = _model(2)
    ref = weakref.ref(GridField.of(f, grid))
    assert ref() is not None
    gc.disable()
    try:
        del f
        assert ref() is None
    finally:
        gc.enable()
