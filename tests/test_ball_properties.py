"""Property test of the ball layer against brute-force references.

Each example draws a grid (kind, extent, cell counts, many not multiples of
the block side), a stepped field with many tied values, a random set, and
balls whose centres include points on and next to the torus seams and
outside the domain, and whose radii include exact cell distances and the
distance of the farthest cell.  Every ball query must equal the same query
answered over the full grid with `Domain.distance`.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from obscert.functions import FunctionModel, GridField
from obscert.geometry import Ball, Domain, Grid, MeasurableSet, densest_ball


class Steps(FunctionModel):
    """A sine rounded down to four levels, so that balls hold tied maxima."""

    kind = "steps"

    def __init__(self, dimension, phase):
        self.dimension = dimension
        self.phase = phase

    def evaluate(self, points):
        x = np.asarray(points, dtype=float)
        arg = 2.0 * math.pi * x.sum(axis=-1) * 3.0 + self.phase
        return np.floor(2.0 * (np.sin(arg) + 1.0)) - 1.0


@st.composite
def grids(draw):
    kind = draw(st.sampled_from(["box", "torus", "disk"]))
    h = draw(st.sampled_from([1.0 / 64, 0.0125, 1.0 / 48, 0.03]))
    if kind == "disk":
        cells = (draw(st.integers(4, 70)),) * 2
    else:
        dim = draw(st.sampled_from([1, 2]))
        top = 70 if dim == 2 else 300
        cells = tuple(draw(st.integers(1, top)) for _ in range(dim))
    extent = [c * h for c in cells]
    domain = Domain.disk(extent[0] / 2.0) if kind == "disk" else Domain(kind, tuple(extent))
    return Grid(domain, cells)


@st.composite
def centres(draw, grid):
    """Per axis: anywhere in the extent, on or next to the seam at 0 and at
    the extent, or on a cell centre; off a box or torus also up to half the
    extent outside it."""
    coords = []
    for cells, ext in zip(grid.cells, grid.domain.extent):
        seam = draw(st.sampled_from([0.0, 1e-12, grid.h / 3.0, ext - grid.h / 3.0,
                                     ext - 1e-12, ext]))
        cell = (draw(st.integers(0, cells - 1)) + 0.5) * grid.h
        anywhere = draw(st.floats(0.0, ext))
        choices = [seam, cell, anywhere]
        if grid.domain.kind != "disk":
            choices.append(draw(st.floats(-ext / 2.0, 1.5 * ext)))
        coords.append(draw(st.sampled_from(choices)))
    return tuple(coords)


def _radius(draw, grid, dist):
    """A radius equal to some cell's distance from the centre, any radius up
    to the domain's diameter, the distance of the farthest cell (the ball is
    then the whole grid or ring) or a radius past it."""
    exact = float(dist.ravel()[draw(st.integers(0, dist.size - 1))])
    anywhere = draw(st.floats(1e-3, grid.domain.diameter))
    farthest = float(dist.max())
    r = draw(st.sampled_from([exact, anywhere, farthest, 2.0 * grid.domain.diameter]))
    return r if r > 0.0 else grid.h / 2.0


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_ball_queries_equal_full_grid_distance(data):
    grid = data.draw(grids())
    f = Steps(grid.dimension, data.draw(st.floats(0.0, 2.0 * math.pi)))
    gf = GridField(f, grid)
    vals = np.abs(f.evaluate(grid.points))
    vals[~grid.interior] = -1.0
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 16)))
    mset = MeasurableSet.from_mask(grid, rng.random(grid.cells) < 0.4)
    h_d = grid.h ** grid.dimension

    balls, dists = [], []
    for _ in range(3):
        c = data.draw(centres(grid))
        dist = grid.domain.distance(grid.points, np.asarray(c))
        dists.append(dist)
        radii = [_radius(data.draw, grid, dist) for _ in range(3)]
        masks = [dist <= r for r in radii]

        assert gf.ball_maxima(c, radii) == [float(np.where(m, vals, -1.0).max()) for m in masks]
        for r, m in zip(radii, masks):
            masked = np.where(m, vals, -1.0)
            first = np.unravel_index(int(np.argmax(masked)), grid.cells)
            value, point = gf.sup_ball(c, r)
            assert value == masked[first]
            if value >= 0.0:
                assert np.array_equal(point, grid.points[first])
            else:
                assert point is None
            ball = Ball.at(c, r)
            assert np.array_equal(grid.ball_field(ball), m & grid.interior)
            balls.append((ball, int(np.count_nonzero(mset.mask & m))))

    # all centres at once, as the doubling estimate and the UCP check ask
    radii = [ball.radius for ball, _ in balls]
    assert gf.ball_maxima(np.asarray([ball.center for ball, _ in balls[::3]]), radii) == [
        [float(np.where(dist <= r, vals, -1.0).max()) for r in radii] for dist in dists]

    if mset.cell_count:
        for ball, count in balls:
            assert densest_ball(mset, [ball]) == (ball, count * h_d)
        counts = [count for _, count in balls]
        assert densest_ball(mset, [b for b, _ in balls]) == (
            balls[int(np.argmax(counts))][0], max(counts) * h_d)
