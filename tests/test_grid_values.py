"""The full-grid field built from per-axis coordinates, and the masks and
point lookups that no longer read `Grid.points`, against the formulas over
`Grid.points` they replace, bit for bit."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from obscert import functions
from obscert.eigensum import build_eigensum
from obscert.errors import ConfigError, InfeasibleError
from obscert.functions import Gaussian, GridField, Polynomial1D, Product, TrigSum
from obscert.geometry import Ball, Domain, Grid, MeasurableSet


def _grids():
    grids = {}
    for kind in ("box", "torus", "disk"):
        domain = Domain.disk(0.5) if kind == "disk" else Domain(kind, (1.0, 1.0))
        for n in (512, 96, 90):
            grids[f"{kind}-{n}"] = Grid(domain, (n, n))
        if kind != "disk":
            grids[f"{kind}-128x64"] = Grid(Domain(kind, (2.0, 1.0)), (128, 64))
            grids[f"{kind}-1d"] = Grid(Domain(kind, (1.0,)), (1024,))
            grids[f"{kind}-1d-90"] = Grid(Domain(kind, (0.7,)), (90,))
        big = Domain.disk(2.0) if kind == "disk" else Domain(kind, (4.0, 4.0))
        grids[f"{kind}-256-extent-4"] = Grid(big, (256, 256))
    grids["torus-64-extent-2pi"] = Grid(Domain.torus((2 * math.pi,) * 2), (64, 64))
    grids["disk-70-extent-0.7"] = Grid(Domain.disk(0.35), (70, 70))
    grids["box-1x1"] = Grid(Domain.box([1.0, 1.0]), (1, 1))
    return grids


GRIDS = _grids()


def _models(dim):
    trig = TrigSum.of([([1, 2][:dim], 1.0, 0.3), ([3, -1][:dim], 0.5, 0.9)], dim)
    gauss = Gaussian((0.4371, 0.5123)[:dim], 0.15, 1.3)
    models = {
        "trig": trig,
        # on and off the axes, constant, and negative frequencies
        "axes": TrigSum.of([([1, 0][:dim], 1.0, 0.3), ([0, 3][:dim], 0.5, 0.9),
                            ([0, 0][:dim], 0.25, 1.2), ([-2, -5][:dim], 0.75, 2.0)], dim),
        # a phase table for (40, -7) on a 512² grid would need more sines than
        # one per `_CELLS_PER_SINE` cells
        "past-the-table": TrigSum.of([([40, -7][:dim], 1.0, 0.2)], dim),
        "eigensum": build_eigensum([([1, 2][:dim], 1.0, 0.3), ([2, -1][:dim], 0.5, 0.9)], dim),
        "gaussian": gauss,
        "product": Product(trig, gauss),
    }
    if dim == 1:
        models["polynomial"] = Polynomial1D((1.0, -2.0, 0.5, 0.25))
    return models


@pytest.mark.parametrize("name", sorted(GRIDS))
def test_grid_values_equal_evaluate_on_the_grid_points(name):
    grid = GRIDS[name]
    for kind, f in _models(grid.dimension).items():
        values = f.grid_values(grid)
        assert values.shape == grid.cells, kind
        assert np.array_equal(values, f.evaluate(grid.points)), kind


def test_trig_phases_round_as_the_unfused_per_axis_sum():
    # 0.5/96 * 3 is not exact in binary64: a BLAS contraction of the points
    # with k = (3, -1) fuses the multiply-add on FMA cores and rounds 3,219
    # of these 9,216 phases differently (OpenBLAS's Haswell kernel); both
    # paths add the two per-axis products unfused, on every CPU
    grid = Grid(Domain.box([1.0, 1.0]), (96, 96))
    f = TrigSum.of([([3, -1], 1.0, 0.0)], 2)
    x, y = grid.axis_centers
    expected = np.sin(functions.TWO_PI * np.add.outer(x * 3, y * -1))
    assert np.array_equal(f.evaluate(grid.points), expected)
    assert np.array_equal(f.grid_values(grid), expected)


@st.composite
def _trig_on_a_grid(draw):
    """A trig sum on a 2D grid whose cell side is dyadic (so that many of its
    modes take the phase table) or not, with frequencies small and large."""
    kind = draw(st.sampled_from(["box", "torus", "disk"]))
    h = draw(st.sampled_from([1.0 / 64, 1.0 / 128, 0.25, 0.01, 1.0 / 48, 2 * math.pi / 64]))
    n0 = draw(st.integers(1, 256))
    n1 = n0 if kind == "disk" else draw(st.integers(1, 256))
    domain = Domain.disk(n0 * h / 2) if kind == "disk" else Domain(kind, (n0 * h, n1 * h))
    freq = st.one_of(st.integers(-4, 4), st.integers(-60, 60))
    modes = draw(st.lists(st.tuples(st.tuples(freq, freq), st.floats(-2.0, 2.0),
                                    st.floats(0.0, 7.0)), min_size=1, max_size=4))
    return Grid(domain, (n0, n1)), TrigSum.of(modes, 2)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(case=_trig_on_a_grid())
def test_trig_grid_values_equal_evaluate_at_the_points(case):
    grid, f = case
    values = f.grid_values(grid)
    assert values.shape == grid.cells
    assert values.tobytes() == f.evaluate(grid.points).tobytes()


def test_phase_table_takes_only_exact_progressions():
    a = np.arange(1, 128, 2) * 2.0 ** -10
    b = np.arange(189, -190, -6) * 2.0 ** -10
    table, view = functions._phase_table(a, b)
    assert len(table) == 126 + 378 + 1
    assert view.tobytes() == np.add.outer(a, b).tobytes()
    finer = a.copy()  # one value not a multiple of the power of two of the rest
    finer[5] = np.nextafter(finer[5], 1.0)
    bent = a.copy()  # multiples of it, but not a progression
    bent[-1] += 2.0 ** -9
    for u in (finer, bent):
        assert functions._phase_table(u, b) is None
        assert functions._phase_table(b, u) is None


class _SineCounter:
    """numpy, with `sin` counting the values it is given."""

    def __init__(self):
        self.values = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def sin(self, x, *args, **kwargs):
        self.values += np.size(x)
        return np.sin(x, *args, **kwargs)


@pytest.mark.parametrize("kind", ["box", "torus", "disk"])
def test_a_2d_trig_field_takes_one_sine_per_phase_where_its_phases_are_exact(kind, monkeypatch):
    # the benchmark's two modes on the default 512² grid: one sine per cell
    # and mode would be 524,288 sine values; the dyadic centres (2i+1)/1024
    # give tables of 1,023 and 2,045 phases.  A 96² grid's centres are not
    # dyadic, and (40, -7) on 512² would need a table of 48,035 phases: both
    # take one sine per cell
    domain = Domain.disk(0.5) if kind == "disk" else Domain(kind, (1.0, 1.0))
    benchmark = TrigSum.of([([1, 0], 1.0, 0.3), ([1, 1], 0.5, 1.1)], 2)
    high = TrigSum.of([([40, -7], 1.0, 0.2)], 2)
    for f, n, sines in ((benchmark, 512, 1023 + 2045), (benchmark, 96, 2 * 96 ** 2),
                        (high, 512, 512 ** 2)):
        grid = Grid(domain, (n, n))
        expected = f.evaluate(grid.points)
        counter = _SineCounter()
        with monkeypatch.context() as m:
            m.setattr(functions, "np", counter)
            values = f.grid_values(grid)
        assert counter.values == sines, n
        assert values.tobytes() == expected.tobytes()


@pytest.mark.parametrize("name", ["box-128x64", "disk-90", "torus-1d-90"])
def test_cell_points_are_the_rows_of_points(name):
    grid = GRIDS[name]
    flat = np.arange(math.prod(grid.cells))
    points = grid.points.reshape(-1, grid.dimension)
    assert np.array_equal(grid.cell_points(flat), points)
    assert np.array_equal(grid.cell_points(7), points[7])
    assert grid.cell_points(flat[:0]).shape == (0, grid.dimension)


def _reference_sup_mask(values, grid, mask):
    """`sup_mask` as it was: the field masked in full, then its argmax."""
    masked = np.where(mask, values, -1.0)
    idx = np.unravel_index(int(np.argmax(masked)), masked.shape)
    if masked[idx] < 0.0:
        raise InfeasibleError("region contains no grid sample points")
    return float(masked[idx]), grid.points[idx]


@pytest.mark.parametrize("name", ["disk-90", "box-128x64", "torus-1d-90"])
def test_sup_mask_reads_the_cells_of_the_mask_as_the_full_masked_field_did(name):
    grid = GRIDS[name]
    # a few levels only: the maximum of most masks is tied across cells
    f = TrigSum.of([([1, 2][:grid.dimension], 1.0, 0.3)], grid.dimension)
    gf = GridField(f, grid)
    gf.values = np.where(gf.values < 0.0, gf.values, np.floor(4.0 * gf.values))
    rng = np.random.default_rng(7)
    n = math.prod(grid.cells)
    masks = [rng.random(grid.cells) < frac for frac in (0.001, 0.05, 0.5, 1.0)]
    masks += [~grid.interior, ~grid.interior | (rng.random(grid.cells) < 0.01)]
    masks += [np.zeros(grid.cells, dtype=bool), np.arange(n).reshape(grid.cells) == n - 1]
    for mask in masks:
        try:
            expected = _reference_sup_mask(gf.values, grid, mask)
        except InfeasibleError:
            with pytest.raises(InfeasibleError, match="no grid sample points"):
                gf.sup_mask(mask)
            continue
        value, point = gf.sup_mask(mask)
        assert value == expected[0]
        assert np.array_equal(point, expected[1])


@pytest.mark.parametrize("name", ["box-96", "torus-90", "disk-90", "box-128x64", "torus-1d-90"])
def test_from_box_and_ball_field_equal_the_formulas_over_the_points(name):
    grid = GRIDS[name]
    d, h = grid.dimension, grid.h
    points, ext = grid.points, np.asarray(grid.domain.extent)
    # bounds on cell centres, one ulp either side of them, and outside the domain
    for lo_cell, hi_cell in ((0, 20), (3, 60), (10, 10)):
        for nudge in (0.0, -1.0, 1.0):
            lo, hi = ((c + 0.5) * h for c in (lo_cell, hi_cell))
            lo, hi = math.nextafter(lo, lo + nudge), math.nextafter(hi, hi - nudge)
            bounds = [(lo, hi), (-1.0, 0.5 * ext[-1])][:d]
            expected = grid.interior.copy()
            for axis, (a, b) in enumerate(bounds):
                expected &= (points[..., axis] >= a) & (points[..., axis] <= b)
            assert np.array_equal(MeasurableSet.from_box(grid, bounds).mask, expected)
    with pytest.raises(ConfigError, match="every axis"):
        MeasurableSet.from_box(grid, [(0.0, 1.0)] * (d + 1))

    centers = np.array([[0.31, 0.77], [0.0, 0.5], [-0.3, 0.5], [1.4, 1.2], [0.5, -2.5],
                        [-1.0, -1.0], [3.7, 0.25]])[:, :d] * ext
    for c in centers:
        dist = grid.domain.distance(points, c)
        for r in np.unique(dist)[[0, 1, 37, -1]]:
            for radius in (float(r), math.nextafter(r, 0.0), math.nextafter(r, math.inf), 0.2):
                if radius <= 0.0:
                    continue
                expected = (dist <= radius) & grid.interior
                assert np.array_equal(grid.ball_field(Ball.at(c, radius)), expected)
