"""Property test of the shared ray trace against a copy of the one-pass trace.

`_oracle_trace` is the trace every segment took before segments along one
ray shared a pass: each segment is cut at its own cell-boundary crossings,
and its pieces, runs and merged intervals come from those cuts alone.  Each
example draws a grid (box, torus or disk, in 1D or 2D), a set (empty, full
or random), one origin, some directions, and per direction several segments
from that origin: the longest, ones that end on a cut of it, one to three
ulps past or before such a cut, anywhere below it, and at 0.
`_shared_traces` must give every segment the oracle's total and intervals
bit for bit.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from obscert import geometry
from obscert.geometry import Domain, Grid, MeasurableSet, ray_directions


def _oracle_trace(mset, origins, mus, t_max):
    """Each segment's merged intervals (starts, ends, owner) and total, as
    `_trace` gave them when every segment was cut at its own crossings."""
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
        ks = np.repeat(k0 - (np.cumsum(count) - count), count) + np.arange(count.sum())
        cut = (ks * h - np.repeat(x0, count)) / np.repeat(m, count)
        inside = (cut > 0.0) & (cut < np.repeat(t_max[live], count))
        ts.append(cut[inside])
        owners.append(np.repeat(live, count)[inside])
    t, owner = np.concatenate(ts), np.concatenate(owners)
    order = np.argsort(t)
    key = np.int16 if len(mus) <= np.iinfo(np.int16).max else np.int64
    order = order[np.argsort(owner[order].astype(key), kind="stable")]
    t, owner = t[order], owner[order]
    fresh = np.ones(len(t), dtype=bool)
    fresh[1:] = (t[1:] != t[:-1]) | (owner[1:] != owner[:-1])
    t, owner = t[fresh], owner[fresh]

    piece = np.flatnonzero(owner[1:] == owner[:-1])
    left, right, p_owner = t[piece], t[piece + 1], owner[piece]
    mids = (left + right) / 2.0
    pts = np.stack([origins[:, axis][p_owner] + mids * mus[:, axis][p_owner]
                    for axis in range(grid.dimension)], axis=-1)
    included = mset.mask[grid.point_to_cell(pts)]

    joined = np.zeros(len(piece) + 1, dtype=bool)
    joined[1:-1] = included[1:] & included[:-1] & (p_owner[1:] == p_owner[:-1])
    first = included & ~joined[:-1]
    a, b, r_owner = left[first], right[included & ~joined[1:]], p_owner[first]
    merged = np.zeros(len(a), dtype=bool)
    merged[1:] = (r_owner[1:] == r_owner[:-1]) & (a[1:] <= b[:-1] + 1e-15)
    closing = np.ones(len(a), dtype=bool)
    closing[:-1] = ~merged[1:]
    starts, ends, owner = a[~merged], b[closing], r_owner[~merged]

    counts = np.bincount(owner, minlength=len(mus))
    rows = np.zeros((len(mus), counts.max(initial=0) + 1))
    column = np.arange(len(owner)) - np.repeat(np.cumsum(counts) - counts, counts)
    rows[owner, column] = ends - starts
    return starts, ends, owner, np.cumsum(rows, axis=1)[:, -1]


def _oracle_intervals(oracle, k):
    starts, ends, owner, _ = oracle
    lo, hi = np.searchsorted(owner, [k, k + 1])
    return tuple(zip(starts[lo:hi].tolist(), ends[lo:hi].tolist()))


@st.composite
def grids(draw):
    kind = draw(st.sampled_from(["box", "torus", "disk"]))
    h = draw(st.sampled_from([1.0 / 64, 0.0125, 1.0 / 48, 0.03]))
    if kind == "disk":
        cells = (draw(st.integers(4, 60)),) * 2
    else:
        dim = draw(st.sampled_from([1, 2]))
        cells = tuple(draw(st.integers(2, 60 if dim == 2 else 300)) for _ in range(dim))
    extent = [c * h for c in cells]
    domain = Domain.disk(extent[0] / 2.0) if kind == "disk" else Domain(kind, tuple(extent))
    return Grid(domain, cells)


@st.composite
def origins(draw, grid):
    """A cell centre, a point anywhere in the cell, or a cell corner."""
    cells = np.argwhere(grid.interior)
    cell = cells[draw(st.integers(0, len(cells) - 1))]
    offset = draw(st.sampled_from([0.5, 0.0, None]))
    coords = [(i + (draw(st.floats(0.0, 1.0)) if offset is None else offset)) * grid.h
              for i in cell]
    return np.array(coords)


def _segment_ends(draw, grid, w, mu, longest):
    """Ends of segments along w + t*mu, none past `longest`: on a cut of the
    longest segment, a few ulps either side of one, anywhere, and 0."""
    ends = [longest, 0.0, draw(st.floats(0.0, longest))]
    for _ in range(draw(st.integers(1, 4))):
        axis = draw(st.integers(0, grid.dimension - 1))
        if abs(mu[axis]) < 1e-15:
            continue
        lo, hi = sorted((w[axis], w[axis] + longest * mu[axis]))
        first = math.floor(lo / grid.h) + 1
        k = draw(st.integers(first, max(first, math.ceil(hi / grid.h) - 1)))
        cut = (k * grid.h - w[axis]) / mu[axis]
        ulps = draw(st.integers(-3, 3))
        t = cut + ulps * math.ulp(cut) if cut > 0.0 else 0.0
        ends.append(min(max(t, 0.0), longest))
    return ends


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_shared_traces_equal_the_one_pass_trace_bit_for_bit(data):
    grid = data.draw(grids())
    density = data.draw(st.sampled_from([0.0, 1.0, 0.05, 0.5, 0.9]))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 16)))
    mset = MeasurableSet.from_mask(grid, rng.random(grid.cells) < density)
    w = data.draw(origins(grid))
    fan = ray_directions(grid.dimension)
    if grid.dimension == 2:
        angles = data.draw(st.lists(st.floats(0.0, 2.0 * math.pi), max_size=3))
        fan = np.concatenate([fan[::data.draw(st.sampled_from([1, 8, 16]))],
                              np.stack([np.cos(angles), np.sin(angles)], axis=-1).reshape(-1, 2)])
    starts, mus, t_max = [], [], []
    for mu in fan:
        longest = data.draw(st.floats(0.0, 1.5 * max(grid.domain.extent)))
        for t in _segment_ends(data.draw, grid, w, mu, longest):
            starts.append(w)
            mus.append(mu)
            t_max.append(t)
    order = rng.permutation(len(t_max))
    starts, mus, t_max = (np.asarray(a, dtype=float)[order] for a in (starts, mus, t_max))

    got = geometry._shared_traces(mset, starts, mus, t_max)
    want = _oracle_trace(mset, starts, mus, t_max)
    assert got.totals.tobytes() == want[3].tobytes()
    for k in range(len(t_max)):
        assert tuple((float(a), float(b)) for a, b in got.intervals(k).intervals) == \
            _oracle_intervals(want, k)
