"""Fixed-radius neighbor search over a dataset.

A sweep index (``build_index`` / ``region_query``) and a pure-Python scan
(``region_query_naive``) answer the closed-ball query |q - p| <= eps, and
``NeighborIndex.tiles`` answers every query at once, in tiles over a grid
of cells of side about eps. All of them accumulate d2 axis by axis in the
same order and compare it with the same eps * eps, so they agree bit for
bit, boundary points included. ``kth_d2`` reads each k-th smallest d2 off
the tiles, for every point or only for the rows asked for, so a caller can
retry the rows it still needs at a larger radius; dbscan.EpsBracket reads
the same values inside its own sweep, so one sweep both fixes the core set
and joins, and passes ``tiles`` the roots of its union-find, so that points
it already knows to be joined are never measured against each other.
dbscan's certified cells use the same cell code (``_cells``) at their own
side.
"""
from __future__ import annotations

import math

import numpy as np

from .model import Dataset, DataError, _data_errors, check_finite, check_float

_TILE = 32  # the fewest query rows a tile holds
_ENTRIES = 1 << 13  # the padded d2 entries a tile of more than _TILE rows holds at most
_CHUNK = 2048  # rows, or blocks, whose candidate runs are looked up together
_CLIP = 2.0**61  # cell indices are clipped to +-_CLIP


def _axis_d2(cands: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Squared distances, queries x cands, accumulated axis by axis as
    (cand - query)**2 like the naive scan; a square that overflows is inf there too.

    cands is m x d, shared by every query, or m x r x d, one column per query.
    """
    d2 = np.zeros((queries.shape[0], cands.shape[0]))
    diff = np.empty_like(d2)
    with np.errstate(over="ignore"):
        for ax in range(queries.shape[1]):
            np.subtract(cands[..., ax].T, queries[:, ax, None], out=diff)
            diff *= diff
            d2 += diff
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
    sweep axis. A box, a row's own point or a block's bounding box, has on
    each axis a minimum and a maximum, and its candidates are, in every
    column whose cells lie between f(fl(min - w)) and f(fl(max + w)) on each
    axis but the sweep axis, the run whose sweep coordinate lies in
    [fl(min - w), fl(max + w)]. Every hit is within w of its row on every
    axis, because fl(diff * diff) <= d2, so by monotone rounding its
    coordinate is at least fl(min - w) and at most fl(max + w), and by the
    same monotone f its cell lies between those bounds' cells: the
    candidates are a superset of the hits and the d2 test decides, exactly
    as in a query. No neighbour cell is named as c +- 1, so cells that the
    clip or rounding merges stay correct. With one axis the single column is
    the slab. A tile is a run of rows in that order, sized by its d2 entries
    rather than its rows: on 2-D points at about 10 per ball a row's own box
    holds about 19 candidates, where 32 rows of a sparse column shared about
    115.
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

    def tiles(self, eps: float, roots=None, rows=None):
        """Yield (rows, cols, d2) blocks that together hold every neighborhood.

        Every point is a row of exactly one tile. d2[i, j] is the squared
        distance from rows[i] to cols[i, j], or to cols[0, j] when cols has
        one row that all rows share, so the entries of cols broadcast to d2
        with d2[i] <= eps * eps are rows[i]'s neighborhood, in the order of
        the grid at w (class docstring), which is sorted afresh per call. A
        row's candidates are the runs of its own padded box. Where a tile's
        rows lie close together, so that the union of their runs holds at
        most 4 times the widest row's, they share that union, read once per
        tile; elsewhere each row has its own cols, padded to the tile's
        widest row with -1 in cols and NaN in d2, which is <= no eps * eps.
        A tile holds at least 32 rows, and more while its rows times its
        widest row's candidates stay within 8192 d2 entries.

        rows, if given, lists the point ids that are rows outside the blocks
        below, each once however often it is listed; the other points are
        candidates only.

        roots, if given, maps point indices to the roots (point indices) of
        the components a caller's union-find has joined them into so far,
        and it is called again between tiles, as the caller joins more. A
        component that holds two or more points when the sweep starts is a
        block: the blocks are swept first, one at a time, and their rows
        share one cols row of the points already swept that lie outside the
        block's component. A block gathers its candidates once,
        from its bounding box, and re-roots the rest before each of its
        tiles, so a caller that joins a tile's pairs before the next one
        never meets a joined candidate again. Its tiles grow from 1 row to
        32, so that its first row's joins spare the rest; once no candidate
        is left, the rest of the block is one tile with no cols. Only the
        other points' cols hold their whole neighborhoods.
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
        rest = ~shared if rows is None else ~shared & np.isin(grid.order, rows)
        yield from grid.rows(np.flatnonzero(rest))


class _Grid:
    """The points of a NeighborIndex in columns of side w, for one sweep.

    The points are sorted by their cells on every axis but the sweep axis,
    in axis order, then by their sweep coordinate. keys holds that order as
    col * n + r, where r is the rank of the point's sweep coordinate among
    all n points' and col numbers its column in order. col is built one axis
    at a time, each prefix of cells numbered densely among the prefixes that
    hold a point, so no key reaches n * (n + 1) and none can wrap. pts and
    ids hold one more entry, a point of NaN coordinates with id -1, that
    pads the tiles.
    """

    __slots__ = ("w", "axis", "others", "ids", "order", "pts", "keys", "sweep", "occupied", "prefixes")

    def __init__(self, index: NeighborIndex, w: float) -> None:
        self.w, self.axis, self.sweep = w, index._axis, index._keys
        self.others = [ax for ax in range(index.dataset.dim) if ax != self.axis]
        cells = _cells(index._sorted[:, self.others], w)
        by_cell = np.lexsort((index._keys, *cells.T[::-1]))
        n = by_cell.size
        self.ids, self.pts = np.full(n + 1, -1), np.full((n + 1, index.dataset.dim), np.nan)
        np.take(index._order, by_cell, out=self.ids[:n])  # in place: no second copy of the points
        np.take(index._sorted, by_cell, axis=0, out=self.pts[:n])
        self.order, cells = self.ids[:n], cells[by_cell]  # the point ids by grid position
        del by_cell
        self.occupied, self.prefixes = [], []  # each axis's cells that hold a point; each prefix length's keys
        col = np.zeros(n, dtype=np.int64)
        for c in cells.T:
            occupied = np.sort(c)
            self.occupied.append(occupied[np.diff(occupied, prepend=-np.inf) > 0])
            key = col * self.occupied[-1].size + np.searchsorted(self.occupied[-1], c)  # ascending
            new = np.diff(key, prepend=-1) != 0
            self.prefixes.append(key[new])
            col = np.cumsum(new) - 1
        self.keys = col * n + np.searchsorted(self.sweep, self.pts[:n, self.axis])

    def runs(self, lo: np.ndarray, hi: np.ndarray):
        """(box, starts, stops): the runs of grid positions that hold every point within w of box k, ascending by box.

        Box k, [lo[k], hi[k]], has one run in every occupied column between
        its padded bounds' cells, f(fl(lo - w)) to f(fl(hi + w)) on each axis
        but the sweep axis; empty runs are left out. The boxes' k-th runs are
        looked up together: for rows in grid order their keys ascend, which
        keeps searchsorted fast.
        """
        n = len(self.order)
        with np.errstate(over="ignore"):
            lo, hi = lo - self.w, hi + self.w
        cl, ch = _cells(lo[:, self.others], self.w).T, _cells(hi[:, self.others], self.w).T
        col, held = np.zeros((1, len(lo)), dtype=np.int64), np.ones((1, len(lo)), dtype=bool)
        for occ, prefixes, c0, c1 in zip(self.occupied, self.prefixes, cl, ch):
            first = np.searchsorted(occ, c0)
            span = np.searchsorted(occ, c1, "right") - first
            step = np.arange(span.max(initial=0))[:, None]
            key = ((col * occ.size + first)[:, None] + step).reshape(-1, len(lo))
            held = (held[:, None] & (step < span)).reshape(key.shape)
            col = np.minimum(np.searchsorted(prefixes, key), prefixes.size - 1)
            held &= prefixes[col] == key  # the run's column holds a point
        starts = np.searchsorted(self.keys, col * n + np.searchsorted(self.sweep, lo[:, self.axis]))
        stops = np.searchsorted(self.keys, col * n + np.searchsorted(self.sweep, hi[:, self.axis], "right"))
        box, k = np.nonzero((held & (stops > starts)).T)
        return box, starts[k, box], stops[k, box]

    def rows(self, rest: np.ndarray):
        """The tiles of the rows at grid positions rest, each row against the runs of its own box.

        _CHUNK rows at a time have their runs looked up together. A tile
        takes _TILE rows, and then more while its rows times its widest
        row's entries stay within _ENTRIES; a tile that would reach past the
        chunk is looked up again with the next one.
        """
        t = 0
        while t < rest.size:
            chunk = rest[t : t + _CHUNK]
            box, starts, stops = self.runs(self.pts[chunk], self.pts[chunk])
            first = np.searchsorted(box, np.arange(chunk.size + 1))  # row i's runs are first[i]:first[i + 1]
            length = np.add.reduceat(stops - starts, first[:-1])  # every row's box holds the row itself
            a = 0
            while a < chunk.size:
                width = np.maximum.accumulate(length[a : a + max(_TILE, _ENTRIES // length[a])])
                b = a + max(_TILE, int(np.count_nonzero(width * np.arange(1, width.size + 1) <= _ENTRIES)))
                if b >= chunk.size and a and t + chunk.size < rest.size:
                    break
                b = min(b, chunk.size)
                q = slice(first[a], first[b])
                yield self._tile(chunk[a:b], starts[q], stops[q], box[q] - a, length[a:b])
                a = b
            t += a

    def _tile(self, pos, starts, stops, row, lengths):
        """One tile: the rows at grid positions pos, row[q] owning the run starts[q]:stops[q].

        When the union of the runs holds at most 4 times the widest row's
        entries, as where the rows lie close together, every row is
        measured against the union, one cols row that costs no gather per
        entry; otherwise each row against its own runs, padded.
        """
        n, r, m = len(self.order), pos.size, int(lengths.max())
        by_start = np.argsort(starts, kind="stable")
        s, reach = starts[by_start], np.maximum.accumulate(stops[by_start])
        apart = np.flatnonzero(s[1:] > reach[:-1])  # the union's intervals end after these
        s, e = np.append(s[:1], s[apart + 1]), np.append(reach[apart], reach[-1])
        if (e - s).sum() <= 4 * m:
            cand = _ranges(s, e)
            return self.ids[pos], self.ids[cand][None], _axis_d2(self.pts[cand], self.pts[pos])
        # the runs' entries row by row, each to its place in its row's padded m
        dst = np.arange(lengths.sum()) + np.repeat(row * m - (np.cumsum(lengths) - lengths)[row], stops - starts)
        cols = np.full(r * m, n)
        cols[dst] = _ranges(starts, stops)
        cols = cols.reshape(r, m)
        return self.ids[pos], self.ids[cols], _axis_d2(self.pts[cols].swapaxes(0, 1), self.pts[pos])

    def blocks(self, shared, root, roots):
        """The tiles of the blocks of tiles(eps, roots): shared holds their grid positions, root their roots."""
        pts, ids = self.pts, self.ids
        by_root = shared[np.argsort(root[shared], kind="stable")]
        del shared  # n entries the blocks' tiles do not need
        firsts = np.flatnonzero(np.r_[True, root[by_root][1:] != root[by_root][:-1]])
        ends = np.append(firsts[1:], by_root.size)
        every = np.arange(len(self.order))
        swept = np.zeros(len(self.order), dtype=bool)
        for b0 in range(0, firsts.size, _CHUNK):  # _CHUNK blocks at a time
            at = firsts[b0 : b0 + _CHUNK]
            members = by_root[at[0] : ends[b0 + at.size - 1]]
            at = at - at[0]
            box, starts, stops = self.runs(np.minimum.reduceat(pts[members], at), np.maximum.reduceat(pts[members], at))
            bounds = np.searchsorted(box, np.arange(at.size + 1)).tolist()
            starts, stops = starts.tolist(), stops.tolist()  # a block has few runs: slices beat _ranges
            for block, x, y in zip(np.split(members, at[1:]), bounds, bounds[1:]):
                cand = np.concatenate([every[s:e] for s, e in zip(starts[x:y], stops[x:y])])
                cand = cand[swept[cand]]
                swept[block] = True
                t, size = 0, 1
                while t < block.size:
                    cand = cand[roots(ids[cand]) != roots(ids[block[:1]])]
                    pos = block[t : t + size] if cand.size else block[t:]
                    t, size = t + pos.size, min(2 * size, _TILE)
                    yield ids[pos], ids[cand][None], _axis_d2(pts[cand], pts[pos])


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


def kth_d2(index: NeighborIndex, k: int, r: float, rows=None) -> np.ndarray:
    """Each point's k-th smallest d2, itself included, where it is <= r * r; NaN elsewhere.

    Read off the tiles at r, whose candidates hold every row's r-ball, so a
    defined value has the queries' bits, and for eps <= r a closed eps-ball
    holds at least k points exactly when its value is <= eps * eps. NaN (the
    r-ball holds fewer than k points; every ball once k > n) is <= no
    eps * eps, even an overflowed one. From r = 2^512, r * r is inf: no cap.
    rows, if given, lists the point ids whose values are read; the rest
    stay NaN. A value is the same at every r at which it is defined, so a
    caller that needs some rows' exact values retries only their NaN rows
    at a larger r (the tuner doubles r). dbscan.EpsBracket computes the
    same bits inline, per tile of its own sweep, and raises them to its
    lo * lo.
    """
    r = check_float(r, "eps", 0)
    r2 = r * r
    out = np.full(len(index.dataset), np.nan)
    for tile, _, d2 in index.tiles(r, rows=rows):
        if d2.shape[1] >= k:
            d2.partition(k - 1, axis=1)
            out[tile] = np.where(d2[:, k - 1] <= r2, d2[:, k - 1], np.nan)
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
