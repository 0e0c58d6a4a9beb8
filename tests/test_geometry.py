import math

import numpy as np
import pytest

from obscert import geometry
from obscert.errors import ConfigError, InfeasibleError, ResolutionError
from obscert.geometry import (
    Ball,
    Domain,
    Grid,
    IntervalSet,
    MeasurableSet,
    Segment,
    _ball_counts,
    attach_mask,
    best_ray_intervals,
    chain_of_balls,
    cover_count_bound,
    cover_domain,
    densest_cover_balls,
    ray_directions,
    read_mask_raster,
    write_mask_raster,
)


def restrict_to_segment(mset, seg):
    """Exact 1D trace of the mask along the segment: the one-segment case of
    the fan trace `best_ray_intervals` takes."""
    origin = np.asarray(seg.origin, dtype=float)[None, :]
    mu = np.asarray(seg.direction, dtype=float)[None, :]
    return geometry._trace(mset, origin, mu, np.array([seg.t_max], dtype=float)).intervals(0)


def best_ray(ball, mset, w):
    """The best ray of one ball's fan through w, by the batched entry point;
    the `ResolutionError` it gives in place of a ray is raised."""
    (found,) = best_ray_intervals([ball.center], [ball.radius], mset, [w])
    if isinstance(found, ResolutionError):
        raise found
    return found


def intersection_cells(mset, ball):
    """Brute-force |B ∩ E| in cells: the set's cells whose centre lies in the ball."""
    return int(np.count_nonzero(mset.mask & mset.grid.ball_field(ball)))


def unit_interval(cells=1024):
    return Grid(Domain.box([1.0]), (cells,))


def unit_square(cells=256):
    return Grid(Domain.box([1.0, 1.0]), (cells, cells))


# ---------------------------------------------------------------------------
# Measure
# ---------------------------------------------------------------------------

def test_measure_full_unit_square():
    grid = unit_square(128)
    assert MeasurableSet.full(grid).measure == pytest.approx(1.0, abs=0)


def test_measure_empty():
    assert MeasurableSet.empty(unit_interval()).measure == 0.0


def test_measure_left_half_even_resolution():
    for cells in (64, 256, 1024):
        grid = unit_interval(cells)
        half = MeasurableSet.from_box(grid, [(0.0, 0.5)])
        assert half.measure == pytest.approx(0.5, abs=0)


def test_mask_rejects_exterior_true_cells():
    grid = Grid(Domain.disk(0.5), (64, 64))
    bad = np.ones(grid.cells, dtype=bool)
    with pytest.raises(ConfigError):
        MeasurableSet(grid, bad)
    clipped = MeasurableSet.from_mask(grid, bad)
    assert clipped.measure == pytest.approx(math.pi * 0.25, rel=0.01)


INTERIOR_GRIDS = [
    Grid(Domain.box([1.0]), (7,)),
    Grid(Domain.box([1.0, 1.0]), (96, 96)),
    Grid(Domain.box([2.0, 1.0]), (200, 100)),
    Grid(Domain.box([3e-12, 1e-12]), (30, 10)),  # cells narrower than the rim slack
    Grid(Domain.torus([1.0, 1.0]), (90, 90)),
    Grid(Domain.disk(0.5), (96, 96)),
    Grid(Domain.disk(0.5), (91, 91)),
    Grid(Domain.disk(1.0 / 3.0), (512, 512)),
    Grid(Domain.disk(1e-10), (64, 64)),  # a band of cell centres within the slack of the rim
]


@pytest.mark.parametrize("grid", INTERIOR_GRIDS, ids=lambda g: f"{g.domain.kind}-{g.cells}")
def test_interior_is_contains_over_every_cell_centre(grid):
    assert np.array_equal(grid.interior, grid.domain.contains(grid.points))


def test_interior_keeps_the_cells_past_the_rim_within_its_slack():
    grid = INTERIOR_GRIDS[-1]
    radius = grid.domain.radius
    dist = np.linalg.norm(grid.points - grid.domain.center, axis=-1)
    rim = (dist > radius) & (dist <= radius + geometry._CONTAINS_TOL)
    assert rim.any() and grid.interior[rim].all()
    assert not grid.interior[dist > radius + geometry._CONTAINS_TOL].any()


# ---------------------------------------------------------------------------
# Covering
# ---------------------------------------------------------------------------

def coverage_holds(domain, grid, centers, r):
    pts = grid.points[grid.interior]
    covered = np.zeros(len(pts), dtype=bool)
    for c in centers:
        covered |= domain.distance(pts, c) <= r + 1e-12
    return bool(np.all(covered))


def test_cover_unit_square_r_half():
    domain = Domain.box([1.0, 1.0])
    centers = cover_domain(domain, 0.5)
    assert centers.shape == (9, 2)
    spacing = abs(centers[1][1] - centers[0][1])
    assert spacing == pytest.approx(1.0 / 3.0, rel=1e-12)
    assert coverage_holds(domain, Grid(domain, (256, 256)), centers, 0.5)


def test_cover_unit_interval_large_radius():
    domain = Domain.box([1.0])
    centers = cover_domain(domain, 1.0)
    assert len(centers) <= 2
    assert coverage_holds(domain, Grid(domain, (1024,)), centers, 1.0)


def test_cover_unit_square_r_tenth():
    domain = Domain.box([1.0, 1.0])
    centers = cover_domain(domain, 0.1)
    assert len(centers) <= 225
    assert coverage_holds(domain, Grid(domain, (256, 256)), centers, 0.1)


@pytest.mark.parametrize(
    "domain", [Domain.box([1.0]), Domain.box([1.0, 0.5]), Domain.disk(0.5), Domain.torus([1.0, 1.0])]
)
def test_cover_property_random_radii(domain):
    rng = np.random.default_rng(5)
    grid = Grid.default(domain) if domain.dimension == 1 else Grid(
        domain, tuple(max(1, round(128 * e / min(domain.extent))) for e in domain.extent)
    )
    for _ in range(6):
        r = float(rng.uniform(0.05, 0.8))
        centers = cover_domain(domain, r)
        assert len(centers) <= cover_count_bound(domain, r)
        assert coverage_holds(domain, grid, centers, r)
        assert bool(np.all(domain.contains(centers)))


def _cover_reference(domain, r):
    """The per-ball loop `cover_domain` replaced: one `Ball` per lattice
    centre, a disk's centres tested and projected one at a time."""
    d = domain.dimension
    spacing = r / math.sqrt(d)
    axes = []
    for ext in domain.extent:
        m = max(1, math.ceil(ext / spacing))
        axes.append((np.arange(m) + 0.5) * (ext / m))
    mesh = np.meshgrid(*axes, indexing="ij")
    centers = np.stack(mesh, axis=-1).reshape(-1, d)
    half = np.array([ext / max(1, math.ceil(ext / spacing)) / 2.0 for ext in domain.extent])

    balls = []
    for c in centers:
        if domain.kind == "disk":
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


COVER_GRIDS = [
    Grid(Domain.box([1.0]), (1024,)),
    Grid(Domain.torus([1.0]), (1024,)),
    Grid(Domain.box([1.0, 0.6]), (80, 48)),
    Grid(Domain.torus([1.0, 1.0]), (64, 64)),
    Grid(Domain.disk(0.5), (64, 64)),
]


@pytest.mark.parametrize("grid", COVER_GRIDS, ids=lambda g: f"{g.domain.kind}{g.cells}")
def test_cover_centres_equal_the_per_ball_loop_bit_for_bit(grid):
    domain, d = grid.domain, grid.dimension
    top = min(domain.max_ball_radius, domain.diameter)
    # radii from 2h up, and the radii at which an axis gains a lattice point
    radii = list(np.geomspace(2.0 * grid.h, top, 300))
    radii += [math.sqrt(d) * domain.extent[0] / m for m in range(1, 40)]
    projected = 0
    for r in radii:
        r = float(r)
        got = cover_domain(domain, r)
        want = np.array([ball.center for ball in _cover_reference(domain, r)]).reshape(-1, d)
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), r
        if domain.kind == "disk":  # edge cubes whose centre was moved inside
            projected += int(np.any(domain.distance(got, domain.center) > 0.5 * (1 - 1e-9)))
    if domain.kind == "disk":
        assert projected > 100


@pytest.mark.parametrize("r", [0.0, -0.25, math.nan])
def test_cover_domain_rejects_a_radius_that_is_not_positive(r):
    with pytest.raises(ConfigError, match="cover radius must be positive"):
        cover_domain(Domain.box([1.0, 1.0]), r)


@pytest.mark.parametrize("r", [0.0, -0.25, math.nan])
def test_cover_count_bound_rejects_a_radius_that_is_not_positive(r):
    with pytest.raises(ConfigError, match="cover radius must be positive"):
        cover_count_bound(Domain.torus([1.0]), r)


@pytest.mark.parametrize("r", [0.0, -0.25, math.nan])
def test_chain_of_balls_rejects_a_radius_that_is_not_positive(r):
    with pytest.raises(ConfigError, match="chain radius must be positive"):
        chain_of_balls(Domain.box([1.0]), np.array([0.2]), np.array([0.7]), r)


# ---------------------------------------------------------------------------
# Densest ball (pigeonhole)
# ---------------------------------------------------------------------------

def test_densest_ball_left_half_example():
    grid = unit_interval(1024)
    e = MeasurableSet.from_box(grid, [(0.0, 0.5)])
    centers = [[0.125], [0.375], [0.625], [0.875]]
    counts = _ball_counts(e, centers, [0.25] * 4)

    # oracle: enumerate all four intersections by cell counting
    assert [intersection_cells(e, Ball.at(c, 0.25)) for c in centers] == [384, 384, 128, 0]
    assert counts.tolist() == [384, 384, 128, 0]
    best = int(np.argmax(counts))
    inter = int(counts[best]) * grid.h
    assert centers[best] == [0.125]
    assert inter == pytest.approx(0.375, abs=0)
    assert inter >= e.measure / len(centers)


def test_densest_ball_full_domain_ties_to_first():
    # on the torus every cover ball holds the same cell count, so the
    # lowest-index tie-break decides
    grid = Grid(Domain.torus([1.0]), (256,))
    e = MeasurableSet.full(grid)
    cover = cover_domain(grid.domain, 0.3)
    counts = [intersection_cells(e, Ball.at(c, 0.3)) for c in cover]
    assert len(set(counts)) == 1
    ((count, center, inter),) = densest_cover_balls(e, [0.3])
    assert count == len(cover)
    assert np.array_equal(center, cover[0])
    assert inter == pytest.approx(counts[0] * grid.h, abs=0)


def test_densest_ball_single_cell():
    grid = unit_interval(256)
    mask = np.zeros(grid.cells, dtype=bool)
    mask[200] = True
    e = MeasurableSet(grid, mask)
    centers = [[0.125], [0.375], [0.625], [0.875]]
    counts = _ball_counts(e, centers, [0.25] * 4)
    assert counts.tolist() == [intersection_cells(e, Ball.at(c, 0.25)) for c in centers]
    best = int(np.argmax(counts))
    target = grid.axis_centers[0][200]
    assert abs(centers[best][0] - target) <= 0.25
    assert int(counts[best]) * grid.h == pytest.approx(grid.h, abs=0)


def test_densest_ball_rejects_empty():
    grid = unit_interval(64)
    with pytest.raises(InfeasibleError):
        densest_cover_balls(MeasurableSet.empty(grid), [0.5])


def test_densest_ball_rejects_an_empty_set_before_building_any_cover(monkeypatch):
    grid = Grid(Domain.box([1.0, 1.0]), (32, 32))
    monkeypatch.setattr(geometry, "cover_domain", lambda *args: pytest.fail("built a cover"))
    with pytest.raises(InfeasibleError,
                       match="^a densest cover ball requires a set of positive measure$"):
        densest_cover_balls(MeasurableSet.empty(grid), [0.5, 0.25])


@pytest.mark.parametrize("domain", [Domain.box([1.0, 1.0]), Domain.torus([1.0, 1.0]),
                                    Domain.disk(0.5), Domain.box([1.0])],
                         ids=["box", "torus", "disk", "box-1d"])
def test_densest_cover_balls_builds_each_distinct_lattice_once(domain, monkeypatch):
    # on the unit square 0.3 and 0.29 give 5 centres per axis, 0.21 gives 7
    # and 0.2 gives 8: five radii, three lattices (on the unit interval 0.3
    # and 0.29 give 4, 0.21 and 0.2 give 5: two lattices)
    grid = Grid(domain, (64,) * domain.dimension)
    e = MeasurableSet.from_mask(grid, np.random.default_rng(3).random(grid.cells) < 0.3)
    radii = [0.3, 0.29, 0.21, 0.3, 0.2]
    expected = [densest_cover_balls(e, [r])[0] for r in radii]
    built = []
    monkeypatch.setattr(geometry, "cover_domain",
                        lambda d, r: built.append(r) or cover_domain(d, r))
    found = densest_cover_balls(e, radii)
    assert len(built) == (3 if domain.dimension == 2 else 2)
    for (count, center, inter), (count0, center0, inter0) in zip(found, expected):
        assert (count, inter) == (count0, inter0)
        assert np.array_equal(center, center0)


def test_a_ball_of_nan_radius_is_rejected():
    with pytest.raises(ConfigError, match="radius must be positive"):
        Ball.at([0.5, 0.5], math.nan)


def test_a_set_keeps_its_own_read_only_mask():
    # writing to the array a set was built from changes neither the set nor
    # the row prefix it has cached
    grid = Grid(Domain.box([1.0, 1.0]), (16, 16))
    mask = np.zeros(grid.cells, dtype=bool)
    mask[3, 3] = True
    e = MeasurableSet(grid, mask)
    center = [[0.5, 0.5]]
    assert _ball_counts(e, center, [0.2]).tolist() == [0]
    mask[8, 8] = True
    assert e.cell_count == 1
    assert _ball_counts(e, center, [0.2]).tolist() == [0]
    with pytest.raises(ValueError):
        e.mask[8, 8] = True


@pytest.mark.parametrize("dim", [1, 2])
def test_pigeonhole_exact_random_masks(dim):
    rng = np.random.default_rng(11)
    domain = Domain.box([1.0] * dim)
    grid = Grid(domain, (512,) if dim == 1 else (64, 64))
    for _ in range(25):
        frac = float(rng.uniform(0.02, 0.6))
        e = MeasurableSet.random(grid, frac, rng)
        r = float(rng.uniform(0.08, 0.5))
        ((count, _, inter),) = densest_cover_balls(e, [r])
        # exact statement in integer cell counts
        best_cells = round(inter / grid.h ** dim)
        assert best_cells * count >= e.cell_count


# ---------------------------------------------------------------------------
# Chains
# ---------------------------------------------------------------------------

def test_chain_degenerate():
    domain = Domain.box([1.0])
    chain = chain_of_balls(domain, np.array([0.3]), np.array([0.3]), 0.5)
    assert len(chain) == 1


def test_chain_unit_interval():
    domain = Domain.box([1.0])
    chain = chain_of_balls(domain, np.array([0.0]), np.array([1.0]), 0.5)
    assert len(chain) - 1 == 4
    steps = [abs(chain[i + 1][0] - chain[i][0]) for i in range(4)]
    assert all(s == pytest.approx(0.25, rel=1e-12) for s in steps)


def test_chain_square_diagonal():
    domain = Domain.box([1.0, 1.0])
    chain = chain_of_balls(domain, np.array([0.0, 0.0]), np.array([1.0, 1.0]), 0.5)
    assert len(chain) - 1 <= 6


@pytest.mark.parametrize(
    "domain", [Domain.box([1.0]), Domain.disk(0.5), Domain.torus([1.0, 1.0])]
)
def test_chain_validity_property(domain):
    rng = np.random.default_rng(3)
    for _ in range(20):
        r = float(rng.uniform(0.05, 0.6))
        while True:
            p = rng.uniform(0, 1, size=domain.dimension) * np.asarray(domain.extent)
            q = rng.uniform(0, 1, size=domain.dimension) * np.asarray(domain.extent)
            if bool(domain.contains(p)) and bool(domain.contains(q)):
                break
        chain = chain_of_balls(domain, p, q, r)
        pts = np.stack(chain)
        assert bool(np.all(domain.contains(pts)))
        dist = float(domain.distance(p, q))
        k = len(chain) - 1
        for i in range(k):
            assert float(domain.distance(chain[i], chain[i + 1])) <= r / 2 + 1e-12
        assert k * (r / 2.0) >= dist - 1e-12


# ---------------------------------------------------------------------------
# Ray selection and segment traces
# ---------------------------------------------------------------------------

def test_best_ray_1d_one_sided():
    grid = unit_interval(1024)
    e = MeasurableSet.from_box(grid, [(0.0, 0.25)])
    ball = Ball.at([0.25], 0.25)
    seg, trace = best_ray(ball, e, np.array([0.0]))
    assert seg.direction == (1.0,)
    assert trace.total == pytest.approx(0.25, abs=2 * grid.h)


def test_best_ray_full_ball_symmetric():
    grid = unit_square(512)
    r = 0.2
    ball = Ball.at([0.5, 0.5], r)
    e = MeasurableSet.from_ball(grid, ball)
    seg, trace = best_ray(ball, e, np.array([0.5, 0.5]))
    # rotational symmetry: every direction is optimal up to grid error
    assert trace.total == pytest.approx(r, abs=3 * grid.h)


def test_best_ray_exact_tie_takes_first_direction():
    grid = Grid(Domain.torus([1.0]), (1024,))
    e = MeasurableSet.full(grid)
    ball = Ball.at([0.5], 0.2)
    seg, trace = best_ray(ball, e, np.array([0.5]))
    assert seg.direction == (1.0,)
    assert trace.total == pytest.approx(0.2, abs=2 * grid.h)


def test_best_ray_horizontal_strip():
    grid = unit_square(512)
    r = 0.2
    ball = Ball.at([0.5, 0.5], r)
    e = MeasurableSet.from_box(grid, [(0.0, 1.0), (0.5 - r / 8, 0.5 + r / 8)])
    seg, trace = best_ray(ball, e, np.array([0.5, 0.5]))
    assert abs(seg.direction[0]) == pytest.approx(1.0, abs=1e-12)
    assert trace.total >= r - 3 * grid.h


def test_best_ray_origin_outside_ball():
    # the origin may sit up to 2r from the centre; the trace must then start
    # at the ball entry, not at the origin
    grid = unit_interval(1024)
    e = MeasurableSet.full(grid)
    ball = Ball.at([0.5], 0.1)
    seg, trace = best_ray(ball, e, np.array([0.35]))
    assert seg.direction == (1.0,)
    assert seg.origin[0] == pytest.approx(0.4, abs=1e-12)
    # budget 2r = 0.2 from w reaches 0.55; the ball spans up to 0.6
    assert trace.total == pytest.approx(0.15, abs=2 * grid.h)


def test_best_ray_rejects_an_origin_too_far_or_not_finite():
    grid = Grid(Domain.torus([1.0]), (256,))
    e = MeasurableSet.full(grid)
    ball = Ball.at([0.5], 0.1)
    with np.errstate(invalid="ignore"):  # the torus offset of an infinite origin
        for w in (0.75, math.inf, math.nan):
            with pytest.raises(ConfigError, match="too far from the ball"):
                best_ray(ball, e, np.array([w]))
            with pytest.raises(ConfigError, match="too far from the ball"):
                best_ray_intervals([ball.center] * 2, [ball.radius] * 2, e,
                                   [np.array([0.5]), np.array([w])])


def test_best_ray_rejects_all_zero():
    grid = unit_interval(128)
    e = MeasurableSet.from_box(grid, [(0.9, 1.0)])
    ball = Ball.at([0.25], 0.2)
    with pytest.raises(ResolutionError):
        best_ray(ball, e, np.array([0.25]))


def test_restrict_full_and_empty():
    grid = unit_interval(512)
    seg = Segment((0.1,), (1.0,), 0.5)
    full = restrict_to_segment(MeasurableSet.full(grid), seg)
    assert len(full.intervals) == 1
    assert full.total == pytest.approx(0.5, abs=1e-12)
    empty = restrict_to_segment(MeasurableSet.empty(grid), seg)
    assert not empty.intervals


def test_restrict_two_cells_1d():
    grid = unit_interval(1024)
    mask = np.zeros(grid.cells, dtype=bool)
    mask[[100, 300]] = True
    e = MeasurableSet(grid, mask)
    seg = Segment((0.0,), (1.0,), 0.5)
    trace = restrict_to_segment(e, seg)
    h = grid.h
    assert len(trace.intervals) == 2
    a, b = trace.intervals
    assert a == pytest.approx((100 * h, 101 * h), abs=1e-12)
    assert b == pytest.approx((300 * h, 301 * h), abs=1e-12)


def test_restrict_diagonal_chord_matches_clip_oracle():
    # analytic oracle: Liang-Barsky clip of the segment to each true cell box
    grid = unit_square(128)
    h = grid.h
    cells = [(40, 52), (41, 52), (70, 30)]
    mask = np.zeros(grid.cells, dtype=bool)
    for i, j in cells:
        mask[i, j] = True
    e = MeasurableSet(grid, mask)
    w = np.array([0.11, 0.13])
    ang = 0.31
    mu = np.array([math.cos(ang), math.sin(ang)])
    seg = Segment(tuple(w), tuple(mu), 0.9)

    def clip(i, j):
        lo = np.array([i * h, j * h])
        hi = lo + h
        t0, t1 = 0.0, seg.t_max
        for ax in range(2):
            if abs(mu[ax]) < 1e-15:
                if not (lo[ax] <= w[ax] <= hi[ax]):
                    return None
                continue
            ta = (lo[ax] - w[ax]) / mu[ax]
            tb = (hi[ax] - w[ax]) / mu[ax]
            ta, tb = min(ta, tb), max(ta, tb)
            t0, t1 = max(t0, ta), min(t1, tb)
        return (t0, t1) if t1 > t0 else None

    expected = sum(b - a for ab in map(lambda c: clip(*c), cells) if ab for a, b in [ab])
    trace = restrict_to_segment(e, seg)
    assert trace.total == pytest.approx(expected, abs=1e-10)


def test_two_direction_decomposition_1d():
    # the +1 and -1 traces from w partition B ∩ E up to one grid cell
    rng = np.random.default_rng(7)
    grid = unit_interval(1024)
    domain = grid.domain
    for _ in range(10):
        e = MeasurableSet.random(grid, float(rng.uniform(0.05, 0.5)), rng)
        x = float(rng.uniform(0.3, 0.7))
        r = float(rng.uniform(0.05, 0.25))
        ball = Ball.at([x], r)
        w = np.array([x + float(rng.uniform(-r / 10, r / 10))])
        inter = intersection_cells(e, ball) * grid.h
        if inter == 0.0:
            continue
        totals = []
        for mu in ([1.0], [-1.0]):
            t_ball = r + abs(w[0] - x)
            t_dom = (1.0 - w[0]) if mu[0] > 0 else w[0]
            seg = Segment(tuple(w), tuple(mu), max(0.0, min(2 * r, t_ball, t_dom)))
            in_ball = restrict_to_segment(MeasurableSet.from_ball(grid, ball), seg)
            both = restrict_to_segment(e, seg)
            # intersect the two traces by brute parameter sampling
            ts = np.linspace(0, seg.t_max, 4096)
            inb = np.zeros(len(ts), dtype=bool)
            ine = np.zeros(len(ts), dtype=bool)
            for a, b in in_ball.intervals:
                inb |= (ts >= a) & (ts <= b)
            for a, b in both.intervals:
                ine |= (ts >= a) & (ts <= b)
            totals.append(np.count_nonzero(inb & ine) / 4096 * seg.t_max)
        assert sum(totals) == pytest.approx(inter, abs=3 * grid.h)


def test_trace_total_reversal_invariance():
    rng = np.random.default_rng(13)
    grid = unit_interval(1024)
    for _ in range(10):
        e = MeasurableSet.random(grid, 0.3, rng)
        a = float(rng.uniform(0.0, 0.4))
        t_max = float(rng.uniform(0.1, 0.5))
        fwd = Segment((a,), (1.0,), t_max)
        bwd = Segment((a + t_max,), (-1.0,), t_max)
        tf = restrict_to_segment(e, fwd).total
        tb = restrict_to_segment(e, bwd).total
        assert tf == pytest.approx(tb, abs=grid.h)


def _restrict_reference(mset, seg):
    """The loop form of `restrict_to_segment`: a Python filter over the cut
    parameters and a Python scan over the included pieces."""
    grid = mset.grid
    h = grid.h
    w = np.asarray(seg.origin, dtype=float)
    mu = np.asarray(seg.direction, dtype=float)
    t_max = seg.t_max
    if t_max <= 0.0:
        return IntervalSet(())
    cuts = [0.0, t_max]
    for axis in range(grid.dimension):
        m = mu[axis]
        if abs(m) < 1e-15:
            continue
        x0 = w[axis]
        x1 = w[axis] + t_max * m
        lo, hi = (x0, x1) if x0 <= x1 else (x1, x0)
        k0 = math.floor(lo / h) + 1
        k1 = math.ceil(hi / h) - 1
        if k1 >= k0:
            ts = (np.arange(k0, k1 + 1) * h - x0) / m
            cuts.extend(float(t) for t in ts if 0.0 < t < t_max)
    ts = np.unique(np.asarray(cuts, dtype=float))
    mids = (ts[:-1] + ts[1:]) / 2.0
    included = mset.mask[grid.point_to_cell(w[None, :] + mids[:, None] * mu[None, :])]
    runs = []
    start = None
    for i, ok in enumerate(included):
        if ok and start is None:
            start = ts[i]
        elif not ok and start is not None:
            runs.append((start, ts[i]))
            start = None
    if start is not None:
        runs.append((start, ts[-1]))
    return IntervalSet.from_runs(runs)


@pytest.mark.parametrize("domain", [Domain.box([1.0, 1.0]), Domain.torus([1.0, 1.0]),
                                    Domain.disk(0.5)], ids=lambda d: d.kind)
def test_restrict_matches_loop_reference(domain):
    rng = np.random.default_rng(23)
    grid = Grid(domain, (128, 128))
    directions = [(1.0, 0.0), (0.0, -1.0)]
    for _ in range(60):
        e = MeasurableSet.random(grid, float(rng.uniform(0.05, 0.9)), rng)
        w = rng.uniform(0.05, 0.95, size=2)
        ang = float(rng.uniform(0.0, 2 * math.pi))
        mu = directions.pop() if directions else (math.cos(ang), math.sin(ang))
        seg = Segment(tuple(w), mu, float(rng.uniform(0.0, 1.4)))
        assert restrict_to_segment(e, seg).intervals == _restrict_reference(e, seg).intervals


def _segment_reference(domain, ball, w, mu):
    """The per-direction form of the fan's segment: the ray piece from w that
    lies inside ball and domain, within budget 2r, for one direction."""
    c = np.asarray(ball.center, dtype=float)
    if domain.kind == "torus":
        c = w + domain.displacement(w, c)
    u = w - c
    b = float(np.dot(u, mu))
    disc = b * b + ball.radius ** 2 - float(np.dot(u, u))
    t_enter, t_exit = 0.0, 0.0
    if disc >= 0:
        t_enter, t_exit = max(0.0, -b - math.sqrt(disc)), max(0.0, -b + math.sqrt(disc))
    if domain.kind == "torus":
        t_dom = math.inf
    elif domain.kind == "disk":
        u = w - domain.center
        b = float(np.dot(u, mu))
        disc = b * b + domain.radius ** 2 - float(np.dot(u, u))
        t_dom = 0.0 if disc < 0 else -b + math.sqrt(disc)
    else:
        t_dom = math.inf
        for axis in range(domain.dimension):
            m = mu[axis]
            if m > 1e-15:
                t_dom = min(t_dom, (domain.extent[axis] - w[axis]) / m)
            elif m < -1e-15:
                t_dom = min(t_dom, -w[axis] / m)
        t_dom = max(t_dom, 0.0)
    t_enter = min(t_enter, 2.0 * ball.radius, t_dom)
    t_end = min(2.0 * ball.radius, t_exit, t_dom)
    return Segment(tuple(w + t_enter * mu), tuple(mu), max(0.0, t_end - t_enter))


def _best_ray_reference(ball, mset, w):
    """The per-direction loop `best_ray_intervals` replaces: one segment and
    one trace per direction, the first strictly longer trace winning.  Returns
    every direction's trace as well."""
    traces, best, best_total = [], None, 0.0
    for mu in ray_directions(mset.grid.dimension):
        seg = _segment_reference(mset.grid.domain, ball, w, mu)
        trace = _restrict_reference(mset, seg)
        traces.append(trace)
        if best is None or trace.total > best_total + 1e-15:
            best, best_total = (seg, trace), trace.total
    return best, best_total, traces


FAN_GRIDS = [
    Grid(Domain.box([1.0, 0.6]), (150, 90)),  # neither axis a multiple of the block side
    Grid(Domain.torus([1.0, 1.0]), (100, 100)),
    Grid(Domain.disk(0.5), (120, 120)),
    Grid(Domain.box([1.0]), (1000,)),
    Grid(Domain.torus([1.0]), (1000,)),
]


def _fan_cases(grid, rng):
    """(ball, set, origin) triples: origins on the ball's centre cell, origins
    outside the ball, origins on the boundary, random and strip sets."""
    domain = grid.domain
    cap = min(0.7, domain.max_ball_radius)
    cells = np.flatnonzero(grid.interior)
    points = grid.points.reshape(-1, grid.dimension)
    for k in range(24):
        c = points[rng.choice(cells)]
        r = float(rng.uniform(0.02, cap))
        if k % 4 == 3 and domain.dimension == 2:  # a strip through the ball's centre
            strip = (c[1] - r / 8, c[1] + r / 8)
            e = MeasurableSet.from_box(grid, [(0.0, domain.extent[0]), strip])
        else:
            e = MeasurableSet.random(grid, float(rng.uniform(0.05, 0.9)), rng)
        if k % 3 == 0:
            w = c  # a cell centre: diagonal rays pass through cell corners
        elif k % 3 == 1:  # outside the ball, within 2r
            step = rng.normal(size=grid.dimension)
            w = domain.wrap(c + step / np.linalg.norm(step) * float(rng.uniform(1.05, 1.95)) * r)
            if not bool(domain.contains(w)):
                w = c
        elif domain.kind == "box":  # on the boundary, with the ball beside it
            w = c.copy()
            w[0] = 0.0
            c = w + np.eye(grid.dimension)[0] * r / 2
        elif domain.kind == "disk":
            ang = float(rng.uniform(0.0, 2 * math.pi))
            w = domain.center + domain.radius * np.array([math.cos(ang), math.sin(ang)])
            c = w + (domain.center - w) * r / domain.radius
        else:
            w = c
        yield Ball.at(c, r), e, np.asarray(w, dtype=float)


@pytest.mark.parametrize("grid", FAN_GRIDS, ids=lambda g: f"{g.domain.kind}{g.cells}")
def test_fan_matches_the_per_direction_loop(grid, monkeypatch):
    """The one-pass fan returns the loop's winning segment and trace, and
    traces and totals every direction as the loop does."""
    seen = []
    trace = geometry._trace

    def recording(*args):
        seen.append(trace(*args))
        return seen[-1]

    merges = []
    from_runs = IntervalSet.from_runs

    def counting(runs):
        runs = list(runs)
        result = from_runs(runs)
        merges.append(len(runs) - len(result.intervals))
        return result

    monkeypatch.setattr(geometry, "_trace", recording)
    monkeypatch.setattr(IntervalSet, "from_runs", staticmethod(counting))
    rng = np.random.default_rng(29)
    winners, empty_segments = [], 0
    for ball, e, w in _fan_cases(grid, rng):
        best, best_total, traces = _best_ray_reference(ball, e, w)
        empty_segments += sum(t.intervals == () for t in traces)
        if best_total <= 0.0:
            with pytest.raises(ResolutionError):
                best_ray(ball, e, w)
            continue
        seg, got = best_ray(ball, e, w)
        assert seg == best[0]
        assert got.intervals == best[1].intervals
        fan = seen[-1]
        assert fan.totals.tolist() == [t.total for t in traces]
        assert [fan.intervals(k).intervals for k in range(len(traces))] == [t.intervals for t in traces]
        winners.append(seg.direction)
    assert winners and empty_segments
    if grid.dimension == 2:
        assert sum(merges) > 0  # runs closer than 1e-15 were merged
        assert any(1.0 in np.abs(mu) for mu in winners)  # an axis ray won


def test_fan_that_meets_no_set_cell_raises_2d():
    # the 1D case is test_best_ray_rejects_all_zero
    grid = FAN_GRIDS[0]
    e = MeasurableSet.from_box(grid, [(0.9, 1.0), (0.0, 0.6)])
    ball = Ball.at([0.25, 0.25], 0.1)
    w = np.asarray(ball.center)
    assert _best_ray_reference(ball, e, w)[1] == 0.0
    with pytest.raises(ResolutionError):
        best_ray(ball, e, w)


def test_fan_makes_one_cell_lookup(monkeypatch):
    grid = unit_square(256)
    e = MeasurableSet.random(grid, 0.3, np.random.default_rng(31))
    calls = []
    point_to_cell = Grid.point_to_cell

    def counting(self, points):
        calls.append(len(points))
        return point_to_cell(self, points)

    monkeypatch.setattr(Grid, "point_to_cell", counting)
    best_ray(Ball.at([0.4, 0.5], 0.2), e, np.array([0.45, 0.5]))
    assert len(calls) == 1


def test_interval_set_invariants():
    with pytest.raises(ConfigError):
        IntervalSet(((0.5, 0.2),))
    with pytest.raises(ConfigError):
        IntervalSet(((0.0, 0.3), (0.2, 0.4)))
    s = IntervalSet(((0.0, 0.25), (0.75, 1.0)))
    assert s.total == pytest.approx(0.5)
    assert s.inf == 0.0
    assert s.first_point_at_or_after(0.3) == 0.75
    assert s.first_point_at_or_after(0.1) == 0.1
    assert s.first_point_at_or_after(1.1) is None


# ---------------------------------------------------------------------------
# Torus metric
# ---------------------------------------------------------------------------

def test_torus_periodic_distance():
    t = Domain.torus([1.0])
    assert float(t.distance(np.array([0.05]), np.array([0.95]))) == pytest.approx(0.1)
    assert t.diameter == pytest.approx(0.5)


def test_torus_distance_reduces_offsets_of_more_than_a_period():
    t = Domain.torus([1.0])
    assert float(t.distance(np.array([0.05]), np.array([2.3]))) == 0.25
    assert float(t.distance(np.array([2.3]), np.array([0.05]))) == 0.25
    assert float(t.distance(np.array([-3.7]), np.array([0.2]))) == pytest.approx(0.1)
    flat = Domain.torus([1.0, 2.0])
    assert float(flat.distance(np.array([0.0, 0.0]), np.array([3.0, 5.5]))) == 0.5
    # an offset below the period is the one it was before the reduction
    grid = Grid(t, (1024,))
    p, q = grid.points[:, 0], np.linspace(-0.999, 0.999, 1024)
    d = np.abs(q - p)
    assert np.array_equal(t.distance(p[:, None], q[:, None]), np.minimum(d, 1.0 - d))
    assert np.array_equal(grid._axis_offsets(0, q, p), np.minimum(d, 1.0 - d) ** 2)


def test_torus_ray_wraps():
    domain = Domain.torus([1.0])
    grid = Grid(domain, (1024,))
    e = MeasurableSet.full(grid)
    ball = Ball.at([0.05], 0.2)
    seg, trace = best_ray(ball, e, np.array([0.05]))
    assert trace.total == pytest.approx(0.2, abs=3 * grid.h)


# ---------------------------------------------------------------------------
# Mask raster round trip
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("dim", [1, 2])
def test_mask_raster_roundtrip(tmp_path, dim):
    rng = np.random.default_rng(2)
    domain = Domain.box([1.0] * dim)
    grid = Grid(domain, (128,) if dim == 1 else (32, 32))
    e = MeasurableSet.random(grid, 0.25, rng)
    path = tmp_path / "mask.txt"
    write_mask_raster(path, e)
    cells, h, mask = read_mask_raster(path)
    back = attach_mask(grid, cells, h, mask)
    assert np.array_equal(back.mask, e.mask)
    assert back.measure == e.measure
