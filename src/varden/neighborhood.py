"""Fixed-radius neighbor search over a dataset.

A sweep index (``build_index`` / ``region_query``) and a pure-Python scan
(``region_query_naive``) answer the closed-ball query |q - p| <= eps, and
``NeighborIndex.tiles`` answers every query at once, as hit lists
(rows, i, j, d2) over a grid of cells of side about eps: every pair
within eps once per row, with its d2, and nothing else. All of them
accumulate d2 axis by axis in the same order (``_axis_d2``, through
which every d2 entry passes) and compare it with the same eps * eps, so
they agree bit for bit, boundary points included. ``kth_d2`` reads each
k-th smallest d2 off the hits, for every point or only for the rows
asked for, so a caller can retry the rows it still needs at a larger
radius; dbscan.EpsBracket reads the same values inside its own sweep
(``_kth_d2``), so one sweep both fixes the core set and joins, and
passes ``tiles`` the roots of its union-find, joining each tile's pairs
before it asks for the next, so that points it already knows to be
joined are never measured against each other. dbscan's
certified cells use the same cell code (``_cells``) at their own side, and
measure their bounding boxes' diagonals with the same ``_axis_d2``.
"""
from __future__ import annotations

import math

import numpy as np

from .model import Dataset, DataError, _data_errors, check_finite, check_float, check_int

_TILE = 32  # the fewest query rows a tile holds
_ENTRIES = 1 << 13  # rows times widest row's candidates that a tile of more than _TILE rows holds at most
_SHARE = 2  # a tile's rows share the span of their runs while it is at most this many times their own candidates
_CHUNK = 2048  # rows, or blocks, whose candidate runs are looked up together
_CLIP = 2.0**61  # cell indices are clipped to +-_CLIP


def _axis_d2(cands, queries):
    """Squared distances accumulated axis by axis as (cand - query)**2, like
    the naive scan; a square that overflows is inf there too.

    cands and queries give the coordinates one axis at a time, as arrays
    that broadcast together, and d2 has their broadcast shape; generators
    gather one axis at a time.
    """
    d2 = 0.0  # 0.0 + x is x, bit for bit
    with np.errstate(over="ignore"):
        for c, q in zip(cands, queries):
            diff = np.subtract(c, q)
            d2 = np.add(d2, np.multiply(diff, diff, out=diff), out=diff)
    return d2


def _ranges(starts: np.ndarray, stops: np.ndarray) -> np.ndarray:
    """The integers of the ranges starts[q]:stops[q], concatenated in order."""
    size = stops - starts
    return np.arange(size.sum()) + np.repeat(starts - (np.cumsum(size) - size), size)


def _half_width(eps: float) -> float:
    """Per-axis reach w of a radius-eps ball that no hit exceeds; inf once eps * eps overflows."""
    if eps * eps == math.inf:
        return math.inf
    return max(eps, 2.0**-511) * (1 + 2.0**-50)


def _cells(x: np.ndarray, side: float) -> np.ndarray:
    """Grid cells f(x) = floor(clip(x / side, -2^61, 2^61)) of the coordinates x, as whole floats.

    f is monotone, because rounding is. Far from the origin the clip stacks
    cells on the grid's edge and rounding merges them, which only puts more
    points in a cell. At infinite side every x is in cell 0, with no division.
    """
    if side == math.inf:
        return np.zeros_like(x)
    with np.errstate(over="ignore"):
        return np.floor(np.clip(x / side, -_CLIP, _CLIP))


class NeighborIndex:
    """Sweep index: the dataset, the order of its points sorted once, stably,
    along the axis of largest spread, and their coordinates on that axis (the
    keys) in that order. The sort does not depend on eps, so one index serves
    every radius.

    ``tiles`` answers every query at once, in bounded blocks, from a grid of
    side w (Gan & Tao, SIGMOD 2015). On every axis but the sweep axis a point
    lies in cell f(x) = floor(clip(x / w, -2^61, 2^61)); the points that
    share those cells form a column, and each column is sorted along the
    sweep axis. A box, a row's own point or a block's bounding box, has on
    each axis a minimum and a maximum, and its candidates are, in every
    column whose cells lie between f(fl(min - w)) and f(fl(max + w)) on each
    axis but the sweep axis, the run whose sweep coordinate lies in
    [fl(min - w), fl(max + w)]. Every hit is within w of its row on every
    axis, because fl(diff * diff) <= d2, so by monotone rounding its
    coordinate is at least fl(min - w) and at most fl(max + w), and by the
    same monotone f its cell lies between those bounds' cells: the
    candidates are a superset of the hits and the d2 test decides, exactly
    as in region_query. No neighbour cell is named as c +- 1, so cells that the
    clip or rounding merges stay correct. With one axis the single column is
    the slab. A tile is a run of rows in that order, sized by its widest
    row rather than its rows, and each row meets only its own box: on 2-D
    points at about 10 per ball that is about 20 candidates, where 32 rows
    of a sparse column shared about 115.
    """

    __slots__ = ("dataset", "_axis", "_order", "_keys")

    def __init__(self, dataset: Dataset) -> None:
        if dataset.dim == 0:
            raise DataError("cannot index points with no coordinate axes")
        check_finite(dataset)
        self.dataset = dataset
        with np.errstate(over="ignore"):  # a span past the largest double is inf, and that axis is the widest
            self._axis = int(np.argmax(np.subtract(*dataset.bounds()[::-1]))) if len(dataset) else 0
        self._order = np.argsort(dataset.coords[:, self._axis], kind="stable")
        self._keys = dataset.coords[self._order, self._axis]

    def tiles(self, eps: float, roots=None, rows=None):
        """Yield (rows, i, j, d2) hit lists that together hold every neighborhood.

        Every point is a row of exactly one tile. Each hit is a pair within
        eps: rows[i] is the row, j the point id of its neighbour and d2 their
        squared distance, already tested against eps * eps, so the j with
        i == q are rows[q]'s neighborhood, in the order of the grid at w
        (class docstring), which is sorted afresh per call. i ascends, so
        each row's hits are one run. A row's candidates are the runs of its
        own padded box, each measured once against that row alone, with no
        padding; rows that lie close together share the span of their runs
        while it costs at most twice their own candidates (_Grid._tile). A
        tile holds at least 32 rows, and more while its rows times its
        widest row's candidates stay within 8192, which bounds a caller that
        lays the hits out row by row; but it never reaches past its chunk of
        2048 rows, whose runs are looked up together, so a chunk's last tile
        may hold fewer.

        rows, if given, lists the point ids that are rows outside the blocks
        below, each once however often it is listed; the other points are
        candidates only.

        roots, if given, maps point indices to the roots (point indices) of
        the components a caller's union-find has joined them into so far,
        and it is called again between tiles, as the caller joins more. A
        component that holds two or more points when the sweep starts is a
        block: the blocks are swept first, one at a time, and their rows
        share one candidate row of the points already swept that lie outside
        the block's component. A block gathers its candidates once, from its
        bounding box, and re-roots the rest before each of its tiles, so a
        caller that joins a tile's pairs before the next one, as
        dbscan.EpsBracket does, never meets a joined candidate again. Its
        tiles grow from 1 row to 32, so that its first row's joins spare
        the rest; once no candidate is left, the rest of the block is one
        tile with no hits. Only the other points' hits are their whole
        neighborhoods.
        """
        eps = check_float(eps, "eps", 0)
        grid = _Grid(self, eps)
        shared = np.zeros(len(grid.order), dtype=bool)
        if roots is not None:
            root = roots(grid.order)  # by grid position
            shared = np.bincount(root, minlength=shared.size)[root] > 1
            if shared.any():
                yield from grid.blocks(np.flatnonzero(shared), root, roots)
            del root  # n entries the tiles do not need
        rest = ~shared if rows is None else ~shared & np.isin(grid.order, rows)
        yield from grid.rows(np.flatnonzero(rest))


class _Grid:
    """The points of a NeighborIndex in columns of side w, for one sweep at eps.

    The points are sorted by their cells on every axis but the sweep axis,
    in axis order, then by their sweep coordinate; order holds their ids
    and axes their coordinates in that order, one contiguous array per
    axis. keys holds that order as col * n + r, where r is the point's
    position in the index's sweep order, which the stable sort keeps
    ascending within a column, and col numbers its column in order; a
    sweep coordinate's searchsorted position in that order is thus a
    bound on r. col is built one axis at a time, each prefix of cells
    numbered densely among the prefixes that hold a point, so no key
    reaches n * (n + 1) and none can wrap.
    """

    __slots__ = ("w", "e2", "axis", "others", "order", "axes", "keys", "sweep", "occupied", "prefixes")

    def __init__(self, index: NeighborIndex, eps: float) -> None:
        self.w, self.e2, self.axis, self.sweep = _half_width(eps), eps * eps, index._axis, index._keys
        self.others = [ax for ax in range(index.dataset.dim) if ax != self.axis]
        coords = index.dataset.coords
        cells = [_cells(coords[index._order, ax], self.w) for ax in self.others]  # per axis, in sweep order
        by_cell = np.lexsort((index._keys, *cells[::-1]))
        n = by_cell.size
        self.order = index._order[by_cell]  # the point ids by grid position
        self.axes = [coords[self.order, ax] for ax in range(index.dataset.dim)]  # contiguous, with no copy of all the points first
        self.occupied, self.prefixes = [], []  # each axis's cells that hold a point; each prefix length's keys
        col = np.zeros(n, dtype=np.int64)
        for c in (x[by_cell] for x in cells):  # by grid position
            occupied = np.sort(c)
            self.occupied.append(occupied[np.diff(occupied, prepend=-np.inf) > 0])
            key = col * self.occupied[-1].size + np.searchsorted(self.occupied[-1], c)  # ascending
            new = np.diff(key, prepend=-1) != 0
            self.prefixes.append(key[new])
            col = np.cumsum(new) - 1
        self.keys = col * n + by_cell

    def runs(self, lo, hi):
        """(box, starts, stops): the runs of grid positions that hold every point within w of box k, ascending by box.

        Box k spans [lo[ax][k], hi[ax][k]] on each axis ax, and has one run
        in every occupied column between its padded bounds' cells,
        f(fl(lo - w)) to f(fl(hi + w)) on each axis but the sweep axis;
        empty runs are left out. The boxes' k-th runs are looked up
        together: for rows in grid order their keys ascend, which keeps
        searchsorted fast.
        """
        n, boxes = len(self.order), lo[0].size
        with np.errstate(over="ignore"):
            lo, hi = [x - self.w for x in lo], [x + self.w for x in hi]
        col, held = np.zeros((1, boxes), dtype=np.int64), np.ones((1, boxes), dtype=bool)
        for ax, occ, prefixes in zip(self.others, self.occupied, self.prefixes):
            first = np.searchsorted(occ, _cells(lo[ax], self.w))
            span = np.searchsorted(occ, _cells(hi[ax], self.w), "right") - first
            step = np.arange(span.max(initial=0))[:, None]
            key = ((col * occ.size + first)[:, None] + step).reshape(-1, boxes)
            held = (held[:, None] & (step < span)).reshape(key.shape)
            col = np.minimum(np.searchsorted(prefixes, key), prefixes.size - 1)
            held &= prefixes[col] == key  # the run's column holds a point
        starts = np.searchsorted(self.keys, col * n + np.searchsorted(self.sweep, lo[self.axis]))
        stops = np.searchsorted(self.keys, col * n + np.searchsorted(self.sweep, hi[self.axis], "right"))
        box, k = np.nonzero((held & (stops > starts)).T)
        return box, starts[k, box], stops[k, box]

    def rows(self, rest: np.ndarray):
        """The tiles of the rows at grid positions rest, each row against the runs of its own box.

        _CHUNK rows at a time have their runs looked up together. A tile
        takes _TILE rows, and then more while its rows times its widest
        row's candidates stay within _ENTRIES, and stops at the chunk's end.
        """
        for t in range(0, rest.size, _CHUNK):
            chunk = rest[t : t + _CHUNK]
            at = [x[chunk] for x in self.axes]
            box, starts, stops = self.runs(at, at)
            first = np.searchsorted(box, np.arange(chunk.size + 1))  # row i's runs are first[i]:first[i + 1]
            length = np.add.reduceat(stops - starts, first[:-1])  # every row's box holds the row itself
            a = 0
            while a < chunk.size:
                width = np.maximum.accumulate(length[a : a + max(_TILE, _ENTRIES // length[a])])
                b = a + max(_TILE, int(np.count_nonzero(width * np.arange(1, width.size + 1) <= _ENTRIES)))
                b = min(b, chunk.size)
                q = slice(first[a], first[b])
                yield self._tile(chunk[a:b], starts[q], stops[q], box[q] - a)
                a = b

    def _tile(self, pos, starts, stops, row):
        """The hits of the rows at grid positions pos, row[q] owning the run starts[q]:stops[q].

        Each row is measured flat against its own runs: the runs,
        concatenated, are the candidates, and the row's coordinates,
        repeated, the other side of each d2. Where the rows lie so close
        together that the span from the first run's start to the last one's
        stop holds at most _SHARE times their own candidates per row, they
        share that span instead, as a block does: a slice, with no gather
        per entry.
        """
        size, span = stops - starts, slice(starts.min(), stops.max())
        if pos.size * (span.stop - span.start) <= _SHARE * size.sum():
            return self._shared(pos, span)
        cand, i = _ranges(starts, stops), np.repeat(row, size)
        d2 = _axis_d2((x[cand] for x in self.axes), (x[pos][i] for x in self.axes))
        hit = np.flatnonzero(d2 <= self.e2)
        return self.order[pos], i[hit], self.order[cand[hit]], d2[hit]

    def _shared(self, pos, cand):
        """The hits of the rows at grid positions pos against the candidates cand (positions or a slice) that they share."""
        d2 = _axis_d2((x[cand] for x in self.axes), (x[pos, None] for x in self.axes))
        k = np.flatnonzero(d2 <= self.e2)
        i, c = np.divmod(k, d2.shape[1])
        return self.order[pos], i, self.order[cand][c], d2.ravel()[k]

    def blocks(self, shared, root, roots):
        """The tiles of the blocks of tiles(eps, roots): shared holds their grid positions, root their roots."""
        axes, ids = self.axes, self.order
        by_root = shared[np.argsort(root[shared], kind="stable")]
        del shared  # n entries the blocks' tiles do not need
        firsts = np.flatnonzero(np.r_[True, root[by_root][1:] != root[by_root][:-1]])
        ends = np.append(firsts[1:], by_root.size)
        swept = np.zeros(len(ids), dtype=bool)
        for b0 in range(0, firsts.size, _CHUNK):  # _CHUNK blocks at a time
            at = firsts[b0 : b0 + _CHUNK]
            members = by_root[at[0] : ends[b0 + at.size - 1]]
            at = at - at[0]
            box, starts, stops = self.runs(*([f.reduceat(x[members], at) for x in axes] for f in (np.minimum, np.maximum)))
            bounds = np.searchsorted(box, np.arange(at.size + 1))
            for block, x, y in zip(np.split(members, at[1:]), bounds, bounds[1:]):
                cand = _ranges(starts[x:y], stops[x:y])
                cand = cand[swept[cand]]
                swept[block] = True
                t, size = 0, 1
                while t < block.size:
                    cand = cand[roots(ids[cand]) != roots(ids[block[:1]])]
                    if not cand.size:  # the rest of the block is one tile with no hits
                        yield ids[block[t:]], ids[:0], ids[:0], np.empty(0)
                        break
                    pos = block[t : t + size]
                    t, size = t + pos.size, min(2 * size, _TILE)
                    yield self._shared(pos, cand)


def build_index(dataset: Dataset) -> NeighborIndex:
    """Build the spatial index used by the clustering passes; DataError for a non-finite coordinate."""
    return NeighborIndex(dataset)


def region_query(index: NeighborIndex, q, eps: float) -> np.ndarray:
    """Ascending indices of the points within eps of q (a point index or coordinates), through the index.

    The query binary-searches the slab |p_a - q_a| <= w of the index's keys
    and keeps the points in it with d2 <= eps * eps. A hit only has
    fl(diff * diff) <= fl(eps * eps), so |p_a - q_a| may reach
    eps * (1 + 3u) and an unpadded q_a -+ eps slab drops it; with
    w = eps * (1 + 2^-50) and monotone rounding the slab is a superset and
    the d2 test decides. eps is floored at 2^-511, below which eps * eps is
    subnormal; once eps * eps overflows, w is infinite and the slab is the
    whole axis.
    """
    qc = _query_coords(index.dataset, q)
    eps = check_float(eps, "eps", 0)
    w = _half_width(eps)
    lo = int(np.searchsorted(index._keys, qc[index._axis] - w, side="left"))
    hi = int(np.searchsorted(index._keys, qc[index._axis] + w, side="right"))
    ids = index._order[lo:hi]
    return np.sort(ids[_axis_d2(index.dataset.coords[ids].T, qc) <= eps * eps])


def region_query_naive(dataset: Dataset, q, eps: float) -> np.ndarray:
    """Reference implementation: scan every point in pure Python."""
    qc = _query_coords(dataset, q)
    eps = check_float(eps, "eps", 0)
    eps2 = eps * eps
    coords = dataset.coords
    dim = dataset.dim
    hits = []
    for i in range(len(dataset)):
        row = coords[i]
        d2 = 0.0
        for ax in range(dim):
            diff = float(row[ax]) - float(qc[ax])
            d2 += diff * diff
        if d2 <= eps2:
            hits.append(i)
    return np.asarray(hits, dtype=np.int64)


def dataset_diameter(dataset: Dataset) -> float:
    """Largest pairwise Euclidean distance; 0.0 for fewer than two points.

    One row at a time, with d2 accumulated axis by axis as in the queries.
    DataError for a non-finite coordinate.
    """
    check_finite(dataset)
    coords = dataset.coords
    best = 0.0
    for i in range(len(dataset) - 1):
        best = max(best, float(np.max(_axis_d2(coords[i + 1 :].T, coords[i]))))
    return math.sqrt(best)


def kth_d2(index: NeighborIndex, k: int, r: float, rows=None) -> np.ndarray:
    """Each point's k-th smallest d2, itself included, where it is <= r * r; NaN elsewhere.

    Read off the hits of the tiles at r, which hold every row's r-ball, so a
    defined value has the queries' bits, and for eps <= r a closed eps-ball
    holds at least k points exactly when its value is <= eps * eps. NaN (the
    r-ball holds fewer than k points; every ball once k > n) is <= no
    eps * eps, even an overflowed one. From r = 2^512, r * r is inf: no cap.
    rows, if given, lists the point ids whose values are read; the rest
    stay NaN. A value is the same at every r at which it is defined, so a
    caller that needs some rows' exact values retries only their NaN rows
    at a larger r (the tuner doubles r). dbscan.EpsBracket computes the
    same bits inline, per tile of its own sweep, with _kth_d2 raising them
    to its lo * lo (0.0 here, which no d2 is below). ParamError unless k is
    an integer >= 1 (2.0 is 2) and r is finite and > 0.
    """
    k, r = check_int(k, "k", 1), check_float(r, "r", 0)
    out = np.full(len(index.dataset), np.nan)
    for tile, i, _, d2 in index.tiles(r, rows=rows):
        out[tile] = _kth_d2(i, d2, k, tile.size, 0.0, r * r)
    return out


def _kth_d2(i: np.ndarray, d2: np.ndarray, k: int, size: int, floor: float, cap: float) -> np.ndarray:
    """Each of a tile's size rows' k-th smallest hit d2, raised to floor; NaN for a row with fewer than k hits.

    i holds each hit's row, ascending, and no hit's d2 exceeds cap. A row
    with k hits <= floor is floor, with no partition: every row with k hits
    once floor >= cap. The other rows with k hits, whose k-th lies above
    floor, are laid out one line each, padded with inf (>= every hit) to
    the widest such row, and partitioned.
    """
    count = np.bincount(i, minlength=size)
    out = np.where(count >= k, floor, np.nan)
    exact = (count >= k) & ((np.bincount(i[d2 <= floor], minlength=size) < k) if floor < cap else False)
    if exact.any():
        width = count[exact]
        lines = np.full((width.size, width.max()), np.inf)
        lines[np.repeat(np.arange(width.size), width), _ranges(0 * width, width)] = d2[exact[i]]
        out[exact] = np.partition(lines, k - 1, axis=1)[:, k - 1]
    return out


def _query_coords(dataset: Dataset, q) -> np.ndarray:
    if isinstance(q, (int, np.integer)):
        i = int(q)
        if not 0 <= i < len(dataset):
            raise DataError(f"query index {i} out of range for {len(dataset)} points")
        return dataset.coords[i]
    with _data_errors("query point"):
        qc = np.asarray(tuple(q), dtype=np.float64)
    if qc.ndim != 1 or qc.shape[0] != dataset.dim:
        raise DataError(f"query point has dimension {qc.shape}, dataset is {dataset.dim}-d")
    if not np.isfinite(qc).all():
        raise DataError("query point has non-finite coordinates")
    return qc
