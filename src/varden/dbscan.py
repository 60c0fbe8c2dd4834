"""Density-based clustering on a fixed (eps, min_pts).

A point is CORE when its closed eps-ball holds at least min_pts points
(itself included). Clusters are the connected components of the core points
under eps adjacency, numbered in order of each component's smallest index. A
non-core point with a core point in its ball is BORDER and joins the lowest
numbered cluster among those core neighbors; every other point is NOISE.
This is the set-wise definition of grid DBSCAN (Gan & Tao, SIGMOD 2015), and
it gives the same ids as the classic breadth-first scan in index order: that
scan opens a cluster at the first unvisited core point, which is its
component's smallest index, and a border point stays with the first cluster
that reaches it, which is the lowest numbered one. One ``EpsBracket``
sweep of the neighbor tiles fixes the core set and labels every eps of
[lo, hi]; run_dbscan uses lo = hi = eps.
"""
from __future__ import annotations

from collections import deque

import numpy as np

from .model import (
    Dataset,
    DbscanParams,
    Labeling,
    NOISE,
    PointClass,
    validate_dataset,
)
from .neighborhood import NeighborIndex, build_index, region_query

_UNION_BUDGET = 1 << 10  # base-forest edges an EpsBracket buffers between unions
_PAIR_BUDGET = 1 << 15  # pairs an EpsBracket takes in beyond twice its last cut before cutting again


def _find(parent: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Roots of the nodes x; each x is pointed straight at its root."""
    r = parent[x]
    while True:
        up = parent[r]
        if np.array_equal(up, r):
            break
        r = up
    parent[x] = r
    return r


def _union(parent: np.ndarray, u: np.ndarray, v: np.ndarray) -> None:
    """Merge the components of every edge (u, v), given by two roots, in the forest parent.

    parent[x] <= x always holds, so each component's root is its smallest
    index. Each round hooks the larger root of every split edge under the
    smaller one, then flattens the chains this can form among those roots;
    unflattened, the points of a line would chain up one hook per point and
    every later round would walk that chain one link at a time.
    """
    while True:
        split = u != v
        if not split.any():
            return
        u, v = u[split], v[split]
        np.minimum.at(parent, np.maximum(u, v), np.minimum(u, v))
        ends = np.concatenate((u, v))
        while True:
            up = parent[parent[ends]]
            if np.array_equal(up, parent[ends]):
                break
            parent[ends] = up
        u, v = parent[u], parent[v]


def run_dbscan(dataset: Dataset, params: DbscanParams, index: NeighborIndex | None = None) -> Labeling:
    """Cluster the dataset; returns per-point labels and point classes.

    One EpsBracket at lo = hi = eps, from one sweep of the tiles at eps: it
    fixes the core set, joins the core-core neighbors and collects each
    border point's core neighbors. Cluster ids and border ownership follow
    index order, as in the module docstring.
    """
    validate_dataset(dataset)
    if index is None:
        index = build_index(dataset)
    eps = params.eps
    return EpsBracket(index, params.min_pts, eps, eps).labeling(eps)


class EpsBracket:
    """DBSCAN for one min_pts at every eps in [lo, hi], from one sweep of the tiles at hi.

    core_d2 holds each point's min_pts-th smallest d2 (itself included) where
    it is <= hi * hi, NaN elsewhere: the bits of kth_d2(index, min_pts, hi),
    read off the same tiles as the pairs. p is core at eps exactly when
    core_d2[p] <= eps * eps, and a pair is a core-core edge exactly when its
    mutual reachability max(d2, core_d2[i], core_d2[j]) (Campello, Moulavi &
    Sander, PAKDD 2013) is <= eps * eps.

    A tile fixes its rows' core distances, so each pair within hi is decided
    once, in the tile of whichever end is swept later (within one tile, at
    the end that comes later in it), when both ends' are known. A pair that
    is an edge already at lo is one at every eps of the bracket, so it joins
    a base union-find forest (buffered unions). Before that, each row core
    at lo takes one such edge into an earlier tile as its witness, and its
    pairs into the witness's component go unread: a point that meets a
    joined stack joins it through one edge, not one per stack point. A pair
    with neither end core at hi is never an edge nor a border link, and is
    dropped. The rest are kept as (i, j, d2), and whenever too many have
    come in they are cut to the closest pair between two base components (or
    a component and a point, or two points): the two sides touch at eps
    exactly when that pair is within eps, and either end stands for its
    component. ``labeling(eps)`` joins the kept core-core pairs within eps
    into a copy of the forest and reads the border links off the rest, with
    no scan. Memory is O(n + kept pairs + one tile). run_dbscan labels
    through the bracket at lo = hi = eps.
    """

    __slots__ = ("lo", "core_d2", "_parent", "_pairs")

    def __init__(self, index: NeighborIndex, min_pts: int, lo: float, hi: float) -> None:
        lo2, hi2 = lo * lo, hi * hi
        n = len(index.dataset)
        core_d2 = np.full(n, np.nan)
        parent = np.arange(n)
        lead = np.arange(n)  # p, or the root that p's witness edge joins it to
        swept = np.full(n, n)  # each point's position in the sweep; n until its tile comes
        done = 0
        edges: list[tuple[np.ndarray, np.ndarray]] = []
        kept: list[tuple[np.ndarray, ...]] = []
        buffered = held = cut = 0
        for rows, cols, d2 in index.tiles(hi):
            if cols.size >= min_pts:
                # a copy, not a view that would hold the whole partitioned tile
                kth = np.partition(d2, min_pts - 1, axis=1)[:, min_pts - 1].copy()
                core_d2[rows] = np.where(kth <= hi2, kth, np.nan)
            core_rows, core_cols = core_d2[rows], core_d2[cols]
            first, done = done, done + rows.size
            pos = np.arange(first, done)
            swept[rows] = pos
            at = swept[cols]
            core_lo = core_cols <= lo2
            near = d2 <= lo2
            # these stay roots, as _union needs, until the buffered edges are joined
            rv = _find(parent, lead[cols])
            # a row's witness: its first edge at lo into an earlier tile
            reach = near & (core_lo & (at < first))
            w = reach.argmax(axis=1)
            has = np.flatnonzero((core_rows <= lo2) & reach[np.arange(rows.size), w])
            if has.size:
                wit = rv[w[has]]
                lead[rows[has]] = wit
                edges.append((rows[has], wit))
                buffered += has.size
            # this tile's rows are fresh roots, or stand for their witnesses' roots
            ru = lead[rows]
            rv = np.where(at < first, rv, lead[cols])
            # each pair once, from its later end, and only while its ends are apart
            k = np.flatnonzero((d2 <= hi2) & (at < pos[:, None]) & (ru[:, None] != rv))
            i, j = np.divmod(k, cols.size)
            del k  # as large as i and j; d2 is gathered again only for the pairs kept
            fold = core_lo[j] & near[i, j] & (core_rows[i] <= lo2)
            edges.append((ru[i[fold]], rv[j[fold]]))
            buffered += edges[-1][0].size
            keep = ~fold & ((core_rows[i] <= hi2) | (core_cols[j] <= hi2))
            i, j = i[keep], j[keep]
            kept.append((rows[i], cols[j], d2[i, j]))
            held += i.size
            cutting = held > _PAIR_BUDGET + 2 * cut
            # join the buffer before a cut: fewer components, fewer pairs kept
            if cutting or buffered >= _UNION_BUDGET:
                _union(parent, *map(np.concatenate, zip(*edges)))
                edges, buffered = [], 0
            if cutting:
                kept = [_closest_pairs(parent, *map(np.concatenate, zip(*kept)))]
                held = cut = kept[0][0].size
        if buffered:
            _union(parent, *map(np.concatenate, zip(*edges)))
        self.lo = lo
        self.core_d2 = core_d2
        self._pairs = tuple(map(np.concatenate, zip(*kept)))
        _find(parent, np.arange(parent.size))
        self._parent = parent

    def labeling(self, eps: float) -> Labeling:
        """What run_dbscan returns at (eps, min_pts), for eps in [lo, hi].

        Cluster ids go by each component's smallest core index, and a border
        point takes the smallest id among its core neighbors.
        """
        e2 = eps * eps
        core = self.core_d2 <= e2
        i, j, d2 = self._pairs
        near = d2 <= e2
        i, j = i[near], j[near]
        ci, cj = core[i], core[j]
        parent = self._parent.copy()
        both = ci & cj
        _union(parent, _find(parent, i[both]), _find(parent, j[both]))
        n = core.size
        labels = np.full(n, NOISE, dtype=np.int64)
        core_idx = np.flatnonzero(core)
        labels[core_idx] = np.unique(_find(parent, core_idx), return_inverse=True)[1]
        one = ci != cj
        border = np.full(n, n, dtype=np.int64)
        np.minimum.at(border, np.where(ci, j, i)[one], labels[np.where(ci, i, j)[one]])
        reached = border < n
        labels[reached] = border[reached]
        classes = np.full(n, int(PointClass.NOISE), dtype=np.int8)
        classes[reached] = int(PointClass.BORDER)
        classes[core] = int(PointClass.CORE)
        return Labeling(labels, classes)


def _closest_pairs(parent: np.ndarray, i: np.ndarray, j: np.ndarray, d2: np.ndarray) -> tuple[np.ndarray, ...]:
    """The pairs (i, j, d2) whose ends lie in two components of parent, cut down to the closest one per two components."""
    ri, rj = _find(parent, i), _find(parent, j)
    apart = ri != rj
    i, j, d2 = i[apart], j[apart], d2[apart]
    key = np.minimum(ri, rj)[apart] * parent.size + np.maximum(ri, rj)[apart]
    order = np.lexsort((d2, key))
    first = np.ones(order.size, dtype=bool)
    first[1:] = key[order[1:]] != key[order[:-1]]
    order = order[first]
    return i[order], j[order], d2[order]


def classify_point(
    dataset: Dataset, i: int, params: DbscanParams, index: NeighborIndex | None = None
) -> PointClass:
    """CORE / BORDER / NOISE status of point i under params.

    BORDER means not core itself but inside some core point's eps-ball.
    """
    validate_dataset(dataset)
    if index is None:
        index = build_index(dataset)
    hood = region_query(index, i, params.eps)
    if hood.size >= params.min_pts:
        return PointClass.CORE
    for j in hood:
        if region_query(index, int(j), params.eps).size >= params.min_pts:
            return PointClass.BORDER
    return PointClass.NOISE


def is_directly_density_reachable(
    dataset: Dataset, p: int, q: int, params: DbscanParams, index: NeighborIndex | None = None
) -> bool:
    """True when p sits in q's eps-ball and q is core (asymmetric)."""
    validate_dataset(dataset)
    if index is None:
        index = build_index(dataset)
    hood = region_query(index, q, params.eps)
    return hood.size >= params.min_pts and p in hood


def is_density_reachable(
    dataset: Dataset, p: int, q: int, params: DbscanParams, index: NeighborIndex | None = None
) -> bool:
    """True when a chain of direct steps leads from q to p.

    Every chain link but the last must be core, so this walks the core
    points connected to q and asks whether any of them holds p in its ball.
    The zero-step chain makes the relation reflexive.
    """
    validate_dataset(dataset)
    if p == q:
        return True
    if index is None:
        index = build_index(dataset)
    eps, min_pts = params.eps, params.min_pts

    hood_q = region_query(index, q, eps)
    if hood_q.size < min_pts:
        return False
    seen = {q}
    queue = deque([(q, hood_q)])
    while queue:
        _, hood = queue.popleft()
        if p in hood:
            return True
        for r in hood:
            r = int(r)
            if r in seen:
                continue
            seen.add(r)
            hood_r = region_query(index, r, eps)
            if hood_r.size >= min_pts:
                queue.append((r, hood_r))
    return False


def is_density_connected(
    dataset: Dataset, p: int, q: int, params: DbscanParams, index: NeighborIndex | None = None
) -> bool:
    """True when some witness reaches both p and q by density (symmetric).

    The witnesses able to reach p are exactly the core points whose
    component (under core-to-core eps adjacency) touches p's ball, so the
    check is one component walk seeded from p's adjacent cores.
    """
    validate_dataset(dataset)
    if index is None:
        index = build_index(dataset)
    eps, min_pts = params.eps, params.min_pts

    def adjacent_cores(i: int) -> list[int]:
        return [
            int(j)
            for j in region_query(index, i, eps)
            if region_query(index, int(j), eps).size >= min_pts
        ]

    seeds_p = adjacent_cores(p)
    if not seeds_p:
        return False
    targets_q = set(adjacent_cores(q))
    if not targets_q:
        return False

    seen = set(seeds_p)
    queue = deque(seeds_p)
    while queue:
        x = queue.popleft()
        if x in targets_q:
            return True
        for r in region_query(index, x, eps):
            r = int(r)
            if r in seen:
                continue
            seen.add(r)
            if region_query(index, r, eps).size >= min_pts:
                queue.append(r)
    return False
