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

from obscert.errors import ConfigError, HypothesisError, InfeasibleError
from obscert.functions import (
    FunctionModel,
    Gaussian,
    GridField,
    TrigSum,
    UcpCertificate,
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
    _row_counts,
    cover_domain,
    densest_ball,
)

GRIDS = {
    "box": Grid(Domain.box([1.0, 1.0]), (96, 96)),
    "torus": Grid(Domain.torus([1.0, 1.0]), (96, 96)),
    "disk": Grid(Domain.disk(0.5), (96, 96)),
    "wide-box": Grid(Domain.box([2.0, 1.0]), (128, 64)),
    # cell counts that are not multiples of the block side: short last blocks
    "ragged-box": Grid(Domain.box([2.0, 1.0]), (200, 100)),
    "ragged-torus": Grid(Domain.torus([1.0, 1.0]), (90, 90)),
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
        assert gf.ball_maxima(c, radii) == [
            _reference_sup_ball(vals, grid, c, r)[0] for r in radii]
        for r in radii:
            dist = grid.domain.distance(grid.points, np.asarray(c))
            expected = (dist <= r) & grid.interior
            assert np.array_equal(grid.ball_field(Ball.at(c, r)), expected)
            value, point = gf.sup_ball(c, r)
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
        for r in _radii(grid, c):
            dist = grid.domain.distance(grid.points, np.asarray(c))
            first = np.unravel_index(int(np.argmax(dist <= r)), grid.cells)
            value, point = gf.sup_ball(c, r)
            assert value == abs(math.sin(0.5))
            assert np.array_equal(point, grid.points[first])


def test_sup_ball_of_an_empty_ball_is_negative():
    grid = GRIDS["disk"]
    gf = GridField(_model(2), grid)
    assert gf.sup_ball((0.001, 0.001), 0.01).value == -1.0   # exterior corner
    assert gf.sup_ball((0.5, 0.5), 1e-6).value == -1.0      # between cell centres
    assert gf.ball_maxima((0.001, 0.001), [0.01, 0.05]) == [-1.0, -1.0]
    assert gf.ball_maxima((0.5, 0.5), [1e-6]) == [-1.0]
    assert gf.ball_maxima((0.999, 0.02), [0.03]) == [-1.0]


@pytest.mark.parametrize("name", ["box", "torus-1d"])
def test_a_ball_centre_of_the_wrong_dimension_is_rejected(name):
    grid = GRIDS[name]
    gf = GridField(_model(grid.dimension), grid)
    e = MeasurableSet.full(grid)
    for center in [(0.5,) * n for n in range(4) if n != grid.dimension]:
        ball = Ball(center, 0.1)
        for query in (lambda: gf.ball_maxima(center, [0.1]), lambda: gf.sup_ball(center, 0.1),
                      lambda: grid.ball_field(ball), lambda: densest_ball(e, [ball])):
            with pytest.raises(ConfigError, match="ball centre"):
                query()


def _reference_counts(mset, balls):
    grid = mset.grid
    return [int(np.count_nonzero(
        mset.mask & (grid.domain.distance(grid.points, np.asarray(b.center)) <= b.radius)))
        for b in balls]


@pytest.mark.parametrize("name", sorted(GRIDS))
def test_densest_ball_matches_brute_force_counts(name):
    grid = GRIDS[name]
    rng = np.random.default_rng(5)
    with pytest.raises(InfeasibleError):
        densest_ball(MeasurableSet.empty(grid), cover_domain(grid.domain, 0.2))
    for r in (0.07, 0.2, 0.45):
        # on the full mask many balls tie: the first of them wins
        for e in (MeasurableSet.random(grid, float(rng.uniform(0.05, 0.5)), rng),
                  MeasurableSet.full(grid)):
            cover = cover_domain(grid.domain, r)
            counts = _reference_counts(e, cover)
            best = int(np.argmax(counts))
            ball, inter = densest_ball(e, cover)
            assert ball == cover[best]
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
        assert gf.ball_maxima([c], radii) == [float(np.where(m, vals, -1.0).max()) for m in masks]
        balls = [Ball.at([c], r) for r in radii]
        counts = [int(np.count_nonzero(mset.mask & m)) for m in masks]
        for ball, m, cells in zip(balls, masks, counts):
            masked = np.where(m, vals, -1.0)
            first = int(np.argmax(masked))
            assert gf.ball_maxima([c], [ball.radius]) == [masked[first]]  # one run alone
            value, point = gf.sup_ball([c], ball.radius)
            assert value == masked[first]
            if value >= 0.0:
                assert np.array_equal(point, grid.points[first])
            else:
                assert point is None
            assert densest_ball(mset, [ball]) == (ball, cells * h)
        assert densest_ball(mset, balls) == (balls[int(np.argmax(counts))], max(counts) * h)
    # every centre in one call, as the doubling estimate and the UCP check ask
    radii = (1e-9, h / 2.0, h, 0.1, 0.26, 0.5, 0.75, 2.0)
    dists = [grid.domain.distance(grid.points, np.asarray([c])) for c in centers]
    assert gf.ball_maxima(np.asarray(centers)[:, None], radii) == [
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
        value, point = gf.sup_ball([c], h)
        assert value == abs(math.sin(0.5))
        assert np.array_equal(point, grid.points[0])


# ---------------------------------------------------------------------------
# Block summaries of 2D grids
# ---------------------------------------------------------------------------

GRIDS_2D = sorted(name for name, grid in GRIDS.items() if grid.dimension == 2)


@pytest.mark.parametrize("name", GRIDS_2D)
def test_ball_blocks_class_exactly_by_full_grid_distance(name):
    # a block's far (near) corner is one of its cells, so inside means every
    # cell is in the ball, outside means none is, and boundary means some are
    grid = GRIDS[name]
    for c in _centers(grid):
        dist = grid.domain.distance(grid.points, np.asarray(c))
        radii = _radii(grid, c)
        for r, bb in zip(radii, grid.ball_blocks(c, radii)):
            assert bb.radius == r
            for k, rows, cols in _block_slices(grid):
                in_ball = dist[rows, cols] <= r
                assert bb.inside[k] == in_ball.all()
                assert bb.boundary[k] == (in_ball.any() and not in_ball.all())


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
        for r, bb in zip(radii, grid.ball_blocks(c, radii)):
            CountingField.reads = 0
            (value,) = gf.ball_maxima(c, [r])
            assert value == _reference_sup_ball(vals, grid, c, r)[0]
            assert CountingField.reads <= np.count_nonzero(bb.boundary)
            if np.any(bb.inside & (summary >= 0.0)):
                assert value == abs(math.sin(0.5))
                assert CountingField.reads == 0
                pruned += 1
    assert pruned > 0


@pytest.mark.parametrize("name", GRIDS_2D)
def test_block_counts_equal_brute_force_on_random_empty_and_full_masks(name):
    grid = GRIDS[name]
    masks = [MeasurableSet.random(grid, 0.2, np.random.default_rng(11)),
             MeasurableSet.empty(grid), MeasurableSet.full(grid)]
    balls = [Ball.at(c, r) for c in _centers(grid)[::3] for r in _radii(grid, c)]
    for e in masks:
        assert list(_row_counts(e, balls)) == _reference_counts(e, balls)


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
    balls = []
    for c in itertools.product(*coords):
        dist = domain.distance(grid.points, np.asarray(c)).ravel()
        radii = set(np.linspace(quarter, 1.5 * domain.diameter, 9)) | set(dist[dist >= quarter])
        balls += [Ball.at(c, float(r)) for r in sorted(radii)]
    rng = np.random.default_rng(7)
    masks = [MeasurableSet.from_mask(grid, rng.random(grid.cells) < p) for p in (0.3, 0.6)]
    for e in masks + [MeasurableSet.full(grid)]:
        assert list(_row_counts(e, balls)) == _reference_counts(e, balls)


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
    first = densest_ball(e, cover)
    assert first[1] == max(_reference_counts(e, cover)) * grid.h ** 2
    for _ in range(3):
        assert densest_ball(e, cover) == first
    densest_ball(e, cover_domain(grid.domain, 0.3))
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
