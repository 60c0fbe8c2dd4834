"""Fixed-radius neighbor search over a dataset.

A sweep index (``build_index`` / ``region_query``) and a pure-Python scan
(``region_query_naive``) answer the closed-ball query |q - p| <= eps, and
``NeighborIndex.tiles`` answers every query at once, in tiles over a grid
of cells of side about eps. All of them accumulate d2 axis by axis in the
same order and compare it with the same eps * eps, so they agree bit for
bit, boundary points included. ``kth_d2`` reads each k-th smallest d2 off
the tiles; dbscan.EpsBracket reads the same values inside its own sweep, so
one sweep both fixes the core set and joins, and passes ``tiles`` the roots
of its union-find, so that points it already knows to be joined are never
measured against each other. dbscan's certified cells use the same cell
code (``_cells``) at their own side.
"""
from __future__ import annotations

import math

import numpy as np

from .model import Dataset, DataError, _data_errors, check_finite, check_float

_TILE = 32  # query rows per tile
_CHUNK = 256  # tiles or blocks whose candidate runs are looked up together
_CLIP = 2.0**61  # cell indices are clipped to +-_CLIP


def _axis_d2(cands: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Squared distances, queries x cands, accumulated axis by axis as
    (cand - query)**2 like the naive scan; a square that overflows is inf there too."""
    d2 = np.zeros((queries.shape[0], cands.shape[0]))
    diff = np.empty_like(d2)
    with np.errstate(over="ignore"):
        for ax in range(cands.shape[1]):
            np.subtract(cands[:, ax], queries[:, ax, None], out=diff)
            diff *= diff
            d2 += diff
    return d2


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
    """Sweep index: the points sorted once, stably, along the axis of largest spread.

    A query binary-searches the slab |p_a - q_a| <= w and keeps the points in it
    with d2 <= eps * eps; the sort does not depend on eps, so one index serves
    every radius. A hit only has fl(diff * diff) <= fl(eps * eps), so |p_a - q_a|
    may reach eps * (1 + 3u) and an unpadded q_a -+ eps slab drops it; with
    w = eps * (1 + 2^-50) and monotone rounding the slab is a superset and the
    d2 test decides. eps is floored at 2^-511, below which eps * eps is
    subnormal; once eps * eps overflows, w is infinite and the slab is the
    whole axis.

    ``tiles`` answers every query at once, in bounded blocks, from a grid of
    side w (Gan & Tao, SIGMOD 2015). On every axis but the sweep axis a point
    lies in cell f(x) = floor(clip(x / w, -2^61, 2^61)); the points that
    share those cells form a column, and each column is sorted along the
    sweep axis. A tile is a run of up to 32 rows in that order. Its rows in
    one column have, on each axis, a minimum and a maximum, and their
    candidates are, in every column whose cells lie between f(fl(min - w)) and
    f(fl(max + w)) on each axis but the sweep axis, the run whose sweep
    coordinate lies in [fl(min - w), fl(max + w)]. Every hit is within w of
    its row on every axis, because fl(diff * diff) <= d2, so by monotone
    rounding its coordinate is at least fl(min - w) and at most fl(max + w),
    and by the same monotone f its cell lies between those bounds' cells:
    the candidates are a superset of the hits and the d2 test decides,
    exactly as in a query. No neighbour cell is named as c +- 1, so cells
    that the clip or rounding merges stay correct. With one axis the single
    column is the slab. Dense columns fill whole tiles; a tile over several
    sparse columns takes the union of their candidates, so tiny columns do
    not make tiny tiles.
    """

    __slots__ = ("dataset", "_axis", "_order", "_sorted", "_keys")

    def __init__(self, dataset: Dataset) -> None:
        if dataset.dim == 0:
            raise DataError("cannot index points with no coordinate axes")
        check_finite(dataset)
        self.dataset = dataset
        spread = np.ptp(dataset.coords, axis=0) if len(dataset) else np.zeros(dataset.dim)
        self._axis = int(np.argmax(spread))
        self._order = np.argsort(dataset.coords[:, self._axis], kind="stable")
        self._sorted = dataset.coords[self._order]
        self._keys = np.ascontiguousarray(self._sorted[:, self._axis])

    def query(self, q, eps: float) -> np.ndarray:
        """Ascending indices of the points within eps of q (a point index or coordinates)."""
        qc = _query_coords(self.dataset, q)
        eps = check_float(eps, "eps", 0)
        qa = float(qc[self._axis])
        w = _half_width(eps)
        lo = int(np.searchsorted(self._keys, qa - w, side="left"))
        hi = int(np.searchsorted(self._keys, qa + w, side="right"))
        return np.sort(self._order[lo:hi][_axis_d2(self._sorted[lo:hi], qc[None])[0] <= eps * eps])

    def tiles(self, eps: float, roots=None):
        """Yield (rows, cols, d2) blocks that together hold every neighborhood.

        Every point is a row of exactly one tile. cols holds the tile's
        candidates and d2[i, j] is their squared distance to rows[i], so
        cols[d2[i] <= eps * eps] is rows[i]'s neighborhood, in the order of
        the grid at w (class docstring), which is sorted afresh per call.

        roots, if given, maps point indices to the roots (point indices) of
        the components a caller's union-find has joined them into so far,
        and it is called again between tiles, as the caller joins more. A
        component that holds two or more points when the sweep starts is a
        block: the blocks are swept first, one at a time, and their rows'
        cols are only the points already swept that lie outside the block's
        component. A block gathers its candidates once, from its bounding
        box as a tile does, and re-roots the rest before each of its tiles,
        so a caller that joins a tile's pairs before the next one never
        meets a joined candidate again. Its tiles grow from 1 row to 32, so
        that its first row's joins spare the rest; once no candidate is
        left, the rest of the block is one tile with no cols. Only the other
        points' cols hold their whole neighborhoods.
        """
        eps = check_float(eps, "eps", 0)
        grid = _Grid(self, _half_width(eps))
        shared = np.zeros(len(grid.order), dtype=bool)
        if roots is not None:
            root = roots(grid.order)  # by grid position
            shared = np.bincount(root, minlength=shared.size)[root] > 1
            if shared.any():
                yield from grid.blocks(np.flatnonzero(shared), root, roots)
            del root  # n entries the tiles do not need
        rest = np.flatnonzero(~shared)
        if not rest.size:
            return
        first = np.arange(rest.size) % _TILE == 0  # the rows that start a tile
        column = grid.keys[rest] // len(grid.order)
        pieces = np.flatnonzero(first | np.r_[True, column[1:] != column[:-1]])  # a tile's rows in one column
        del column
        near = grid.near(rest, pieces, np.cumsum(first)[pieces] - 1)
        for pos, cand in zip(np.split(rest, np.flatnonzero(first)[1:]), near):
            yield grid.order[pos], grid.order[cand], _axis_d2(grid.pts[cand], grid.pts[pos])


class _Grid:
    """The points of a NeighborIndex in columns of side w, for one sweep.

    The points are sorted by their cells on every axis but the sweep axis,
    in axis order, then by their sweep coordinate. keys holds that order as
    col * n + r, where r is the rank of the point's sweep coordinate among
    all n points' and col numbers its column in order. col is built one axis
    at a time, each prefix of cells numbered densely among the prefixes that
    hold a point, so no key reaches n * (n + 1) and none can wrap.
    """

    __slots__ = ("w", "axis", "others", "order", "pts", "keys", "sweep", "occupied", "prefixes")

    def __init__(self, index: NeighborIndex, w: float) -> None:
        self.w, self.axis, self.sweep = w, index._axis, index._keys
        self.others = [ax for ax in range(index.dataset.dim) if ax != self.axis]
        cells = _cells(index._sorted[:, self.others], w)
        by_cell = np.lexsort((index._keys, *cells.T[::-1]))
        self.order, self.pts, cells = index._order[by_cell], index._sorted[by_cell], cells[by_cell]
        del by_cell
        self.occupied, self.prefixes = [], []  # each axis's cells that hold a point; each prefix length's keys
        col = np.zeros(len(self.order), dtype=np.int64)
        for c in cells.T:
            occupied = np.sort(c)
            self.occupied.append(occupied[np.diff(occupied, prepend=-np.inf) > 0])
            key = col * self.occupied[-1].size + np.searchsorted(self.occupied[-1], c)  # ascending
            new = np.diff(key, prepend=-1) != 0
            self.prefixes.append(key[new])
            col = np.cumsum(new) - 1
        self.keys = col * len(col) + np.searchsorted(self.sweep, self.pts[:, self.axis])

    def near(self, rows: np.ndarray, firsts: np.ndarray, group: np.ndarray):
        """Yield, group by group, the grid positions of the points within w of a box of the group on every axis.

        Box k is the bounding box of the points at grid positions
        rows[firsts[k]:firsts[k + 1]], and it belongs to group[k] (ascending
        from 0). Its candidates are one run in every occupied column between
        its padded bounds' cells. The runs of _CHUNK groups' boxes at a time
        come from one searchsorted each way. A group's positions are
        ascending and distinct.
        """
        n, ends = len(self.order), np.r_[firsts[1:], rows.size]
        every = np.arange(n)
        b0 = 0
        while b0 < group.size:
            b1 = int(np.searchsorted(group, group[b0] + _CHUNK))
            pts = self.pts[rows[firsts[b0] : ends[b1 - 1]]]
            with np.errstate(over="ignore"):
                lo = np.minimum.reduceat(pts, firsts[b0:b1] - firsts[b0]) - self.w
                hi = np.maximum.reduceat(pts, firsts[b0:b1] - firsts[b0]) + self.w
            del pts
            # on each axis but the sweep axis, the occupied cells from f(fl(min - w)) to f(fl(max + w))
            cl, ch = _cells(lo[:, self.others], self.w).T, _cells(hi[:, self.others], self.w).T
            first = [np.searchsorted(occ, c) for occ, c in zip(self.occupied, cl)]
            span = [np.searchsorted(occ, c, "right") - f for occ, c, f in zip(self.occupied, ch, first)]
            stride = np.prod(span, axis=0, dtype=np.int64) if span else np.ones(len(lo), dtype=np.int64)
            box = np.repeat(np.arange(len(lo)), stride)
            k = np.arange(box.size) - np.repeat(np.cumsum(stride) - stride, stride)  # each run's place in its box
            col, held = np.zeros(box.size, dtype=np.int64), np.ones(box.size, dtype=bool)
            for occ, prefixes, f, s in zip(self.occupied, self.prefixes, first, span):
                stride //= s
                key = col * occ.size + f[box] + k // stride[box] % s[box]
                col = np.minimum(np.searchsorted(prefixes, key), prefixes.size - 1)
                held &= prefixes[col] == key  # the run's column holds a point
            starts = np.searchsorted(self.keys, col * n + np.searchsorted(self.sweep, lo[:, self.axis])[box])
            stops = np.searchsorted(self.keys, col * n + np.searchsorted(self.sweep, hi[:, self.axis], "right")[box])
            run = held & (stops > starts)
            g = group[b0:b1] - group[b0]
            bounds = np.searchsorted(g[box[run]], np.arange(g[-1] + 2)).tolist()
            starts, stops = starts[run].tolist(), stops[run].tolist()
            for a, b, several in zip(bounds, bounds[1:], (np.bincount(g) > 1).tolist()):
                cand = np.concatenate([every[s:e] for s, e in zip(starts[a:b], stops[a:b])])
                if several:  # two boxes of a group may share a column
                    cand.sort()
                    cand = cand[np.diff(cand, prepend=-1) > 0]
                yield cand
            b0 = b1

    def blocks(self, shared, root, roots):
        """The tiles of the blocks of tiles(eps, roots): shared holds their grid positions, root their roots."""
        pts, order = self.pts, self.order
        by_root = shared[np.argsort(root[shared], kind="stable")]
        del shared  # n entries the blocks' tiles do not need
        firsts = np.flatnonzero(np.r_[True, root[by_root][1:] != root[by_root][:-1]])
        near = self.near(by_root, firsts, np.arange(firsts.size))
        swept = np.zeros(len(pts), dtype=bool)
        for block, cand in zip(np.split(by_root, firsts[1:]), near):
            cand = cand[swept[cand]]
            swept[block] = True
            t, size = 0, 1
            while t < block.size:
                cand = cand[roots(order[cand]) != roots(order[block[:1]])]
                pos = block[t : t + size] if cand.size else block[t:]
                t, size = t + pos.size, min(2 * size, _TILE)
                yield order[pos], order[cand], _axis_d2(pts[cand], pts[pos])


def build_index(dataset: Dataset) -> NeighborIndex:
    """Build the spatial index used by the clustering passes; DataError for a non-finite coordinate."""
    return NeighborIndex(dataset)


def region_query(index: NeighborIndex, q, eps: float) -> np.ndarray:
    """Closed-ball radius query through the index; see NeighborIndex.query."""
    return index.query(q, eps)


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
        best = max(best, float(_axis_d2(coords[i + 1 :], coords[i : i + 1]).max()))
    return math.sqrt(best)


def kth_d2(index: NeighborIndex, k: int, r: float) -> np.ndarray:
    """Each point's k-th smallest d2, itself included, where it is <= r * r; NaN elsewhere.

    Read off the tiles at r, whose candidates hold every row's r-ball, so a
    defined value has the queries' bits, and for eps <= r a closed eps-ball
    holds at least k points exactly when its value is <= eps * eps. NaN (the
    r-ball holds fewer than k points; every ball once k > n) is <= no
    eps * eps, even an overflowed one. From r = 2^512, r * r is inf: no cap.
    dbscan.EpsBracket computes the same bits inline, per tile of its own
    sweep, and raises them to its lo * lo; this sweep serves the tuner's
    uncapped blob medians.
    """
    r = check_float(r, "eps", 0)
    r2 = r * r
    out = np.full(len(index.dataset), np.nan)
    for rows, _, d2 in index.tiles(r):
        if d2.shape[1] >= k:
            d2.partition(k - 1, axis=1)
            out[rows] = np.where(d2[:, k - 1] <= r2, d2[:, k - 1], np.nan)
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
