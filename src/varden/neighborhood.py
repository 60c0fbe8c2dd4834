"""Fixed-radius neighbor search over a dataset.

A sweep index (``build_index`` / ``region_query``, or every neighborhood at
once through ``NeighborIndex.tiles``) and a pure-Python scan
(``region_query_naive``) answer the closed-ball query |q - p| <= eps. Both
accumulate d2 axis by axis in the same order and compare it with the same
eps * eps, so they agree bit for bit, boundary points included. ``kth_d2``
reads each k-th smallest d2 off the tiles; dbscan.EpsBracket reads the same
values inside its own sweep, so one sweep both fixes the core set and joins,
and passes ``tiles`` the roots of its union-find, so that points it already
knows to be joined are never measured against each other.
"""
from __future__ import annotations

import math

import numpy as np

from .model import Dataset, DataError, check_float

_STRIP = 256  # sweep positions per strip, re-sorted along the second axis
_TILE = 32  # query rows per tile


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

    ``tiles`` answers every query at once, in bounded blocks. It cuts the sweep
    order into strips, re-sorts each strip along the second-largest spread and
    cuts it into tiles of rows. A tile's candidates are the points of its rows'
    joint slab that also lie in the rows' bounding box padded by w on every
    axis. Every hit is within w of its row on every axis, because
    fl(diff * diff) <= d2, and rounding is monotone, so fl(min - w) is the
    smallest of the rows' fl(r_a - w): both filters keep a superset of the hits
    and the d2 test decides, exactly as in a query.
    """

    __slots__ = ("dataset", "_axis", "_axis2", "_order", "_sorted", "_keys")

    def __init__(self, dataset: Dataset) -> None:
        if dataset.dim == 0:
            raise DataError("cannot index points with no coordinate axes")
        self.dataset = dataset
        spread = np.ptp(dataset.coords, axis=0) if len(dataset) else np.zeros(dataset.dim)
        by_spread = np.argsort(-spread, kind="stable")
        self._axis = int(by_spread[0])
        self._axis2 = int(by_spread[min(1, dataset.dim - 1)])
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
        cols[d2[i] <= eps * eps] is rows[i]'s neighborhood, in sweep order.

        roots, if given, maps point indices to the roots (point indices) of
        the components a caller's union-find has joined them into so far,
        and it is called again between tiles, as the caller joins more. A
        component that holds two or more points when the sweep starts is a
        block: the blocks are swept first, one at a time, and their rows'
        cols are only the points already swept that lie outside the block's
        component. A block gathers its candidates once and re-roots the rest
        before each of its tiles, so a caller that joins a tile's pairs
        before the next one never meets a joined candidate again. Its tiles
        grow from 1 row to 32, so that its first row's joins spare the rest;
        once no candidate is left, the rest of the block is one tile with no
        cols. Only the other points' cols hold their whole neighborhoods.
        """
        eps = check_float(eps, "eps", 0)
        w = _half_width(eps)
        keys, pts = self._keys, self._sorted
        lo = np.searchsorted(keys, keys - w, side="left")
        hi = np.searchsorted(keys, keys + w, side="right")
        shared = np.zeros(len(keys), dtype=bool)
        if roots is not None:
            root = roots(self._order)  # by sweep position
            shared = np.bincount(root, minlength=len(keys))[root] > 1
            if shared.any():
                yield from self._blocks(np.flatnonzero(shared), root, roots, lo, hi, w)
            del root  # n entries the strips do not need
        rest = np.flatnonzero(~shared)
        for s in range(0, rest.size, _STRIP):
            run = rest[s : s + _STRIP]
            strip = run[np.argsort(pts[run, self._axis2], kind="stable")]
            for t in range(0, strip.size, _TILE):
                pos = strip[t : t + _TILE]
                a, b = lo[pos.min()], hi[pos.max()]
                queries, window = pts[pos], pts[a:b]
                near = ((window >= queries.min(axis=0) - w) & (window <= queries.max(axis=0) + w)).all(axis=1)
                yield self._order[pos], self._order[a:b][near], _axis_d2(window[near], queries)

    def _blocks(self, shared, root, roots, lo, hi, w):
        """The tiles of the blocks of tiles(eps, roots): shared holds their sweep positions, root their roots."""
        pts, order = self._sorted, self._order
        by_root = shared[np.argsort(root[shared], kind="stable")]
        del shared  # n entries the blocks' tiles do not need
        swept = np.zeros(len(pts), dtype=bool)
        for block in np.split(by_root, np.flatnonzero(np.diff(root[by_root])) + 1):
            a, b = lo[block[0]], hi[block[-1]]
            cand = a + np.flatnonzero(swept[a:b])
            queries, window = pts[block], pts[cand]
            near = ((window >= queries.min(axis=0) - w) & (window <= queries.max(axis=0) + w)).all(axis=1)
            cand = cand[near]
            swept[block] = True
            t, size = 0, 1
            while t < block.size:
                cand = cand[roots(order[cand]) != roots(order[block[:1]])]
                pos = block[t : t + size] if cand.size else block[t:]
                t, size = t + pos.size, min(2 * size, _TILE)
                yield order[pos], order[cand], _axis_d2(pts[cand], pts[pos])


def build_index(dataset: Dataset) -> NeighborIndex:
    """Build the spatial index used by the clustering passes."""
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
    """
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
    qc = np.asarray(tuple(q), dtype=np.float64)
    if qc.ndim != 1 or qc.shape[0] != dataset.dim:
        raise DataError(f"query point has dimension {qc.shape}, dataset is {dataset.dim}-d")
    if not np.isfinite(qc).all():
        raise DataError("query point has non-finite coordinates")
    return qc
