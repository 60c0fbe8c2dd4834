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

Dense balls cost no distances inside them. Following Gan & Tao's grid,
neighborhood.dense_cells buckets the points into cells of side lo /
sqrt(d), with the cell code of the neighbor tiles' grid (which has side
about hi), and a cell of at least min_pts points whose bounding box has a
squared diagonal, taken through the same neighborhood._axis_d2 as every d2,
of at most lo * lo is certified: its points are core and joined at every
eps of the bracket before the sweep starts, and the sweep never measures a
pair inside a component it already knows. A certified point's core distance
is therefore not read, and core_d2 holds np.maximum(kth_d2(index, min_pts,
hi), lo * lo), which no labeling(eps) with eps >= lo can tell from the
exact value. Every other pair within hi is measured once, in the tile of
the end the sweep reaches first, and counts as a hit of both ends. It is
decided once both ends' core distances are known: in the tile of its later
end, or at once when that end already has min_pts hits within lo, since
counts only grow. It joins the components at every eps of the bracket when
its mutual reachability max(d2, core_d2[i], core_d2[j]) is at most lo * lo,
before the sweep moves on to the next tile, and is otherwise kept for
labeling(eps) while one of its ends is core at hi. A pair that waits for
its later end may be tied: only its earlier end is held, and it comes back
with d2 = lo * lo, which every reader of a d2 within lo answers alike.

The four predicates (classify_point, is_directly_density_reachable,
is_density_reachable, is_density_connected) state DBSCAN's definitions
point by point, as the oracle that run_dbscan is audited against, so they
use region_query alone, never the tiles or EpsBracket. They share one
prologue (_indexed: DataError for a bad dataset or point id), one ball
lookup (_Balls: each ball queried at most once per call, with the core
test on top) and one walk (_Balls.reach: breadth first over the core
points, true once a visited core's ball holds the target). q reaches p
when p == q or q is core and the walk from q finds p; p and q are
connected when the walk from the cores in p's ball finds q, since a core
whose ball holds q is one in q's ball: d2 is symmetric bit for bit, as
fl(a - b) == -fl(b - a).
"""
from __future__ import annotations

from collections import deque

import numpy as np

from .model import (
    DataError,
    Dataset,
    DbscanParams,
    Labeling,
    NOISE,
    PointClass,
    check_int,
    validate_dataset,
)
from .neighborhood import NeighborIndex, build_index, dense_cells, region_query

_PAIR_BUDGET = 1 << 15  # kept, or waiting, pairs an EpsBracket takes in beyond twice its last cut before cutting again


def _find(parent: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Roots of the nodes x; each x is pointed straight at its root.

    Each pass points every x at its parent's parent, until a pass changes
    nothing, so a forest that is already flat is not rewritten. When x
    holds a whole chain, as after _union hooks roots under roots, each
    pass halves it: the points of a line chain up one hook per point, and
    a walk of one link per pass would take a pass per point.
    """
    r = parent[x]
    while True:
        up = parent[r]
        if np.array_equal(up, r):
            return r
        parent[x] = r = up


def _union(parent: np.ndarray, u: np.ndarray, v: np.ndarray) -> None:
    """Merge the components of every edge (u, v), given by two roots, in the forest parent.

    parent[x] <= x always holds, so each component's root is its smallest
    index. Each round hooks the larger root of every split edge under the
    smaller one, then finds the ends' new roots (_find), which flattens the
    chains the hooks form among them.
    """
    while True:
        split = u != v
        if not split.any():
            return
        u, v = u[split], v[split]
        np.minimum.at(parent, np.maximum(u, v), np.minimum(u, v))
        top = _find(parent, np.concatenate((u, v)))
        u, v = top[: u.size], top[u.size :]


def run_dbscan(dataset: Dataset, params: DbscanParams, index: NeighborIndex | None = None) -> Labeling:
    """Cluster the dataset; returns per-point labels and point classes.

    One EpsBracket at lo = hi = eps, from one sweep of the tiles at eps: it
    fixes the core set, joins the core-core neighbors and collects each
    border point's core neighbors. Cluster ids and border ownership follow
    index order, as in the module docstring.
    """
    (index,) = _indexed(dataset, index)
    eps = params.eps
    return EpsBracket(index, params.min_pts, eps, eps).labeling(eps)


class EpsBracket:
    """DBSCAN for one min_pts at every eps in [lo, hi], from one sweep of the tiles at hi.

    core_d2 holds each point's min_pts-th smallest d2 (itself included),
    raised to lo * lo, where it is <= hi * hi, and NaN elsewhere: the bits of
    np.maximum(kth_d2(index, min_pts, hi), lo * lo), read off the same hits
    as the pairs. p is core at eps exactly when core_d2[p] <= eps * eps, and
    a pair is a core-core edge exactly when its mutual reachability
    max(d2, core_d2[i], core_d2[j]) (Campello, Moulavi & Sander, PAKDD 2013)
    is <= eps * eps; raising the values to lo * lo changes neither answer.

    Before the sweep, every certified cell (module docstring; Gan & Tao,
    "DBSCAN Revisited", SIGMOD 2015) joins the base forest rooted at its
    smallest index, and its points get core_d2 = lo * lo without a
    partition. The cells are the tiles' blocks (NeighborIndex.tiles), swept
    first: a block gathers its candidates from the tiles' grid around its
    bounding box, and its rows only meet the points of other blocks swept
    before it, outside its component. n coincident points cost
    O(n log n), not n * n / 32 d2 entries.

    Every other point is a row, and the tiles give each pair once, at the
    end the sweep reaches first (the half neighbour list of molecular
    dynamics codes): a row meets the blocks' points and the rows after it.
    Each hit within lo counts for both its ends, in near, so a row's count
    is whole once its own tile is in. Then it is core at lo with min_pts of
    them; with fewer, its value lies above lo * lo, the (min_pts - near)-th
    of its hits above lo (_exact_d2), or NaN, so at lo = hi, as in
    run_dbscan, no hit is sorted. A pair is decided once both ends' values
    are final: a block's pairs at once; a row's pair with a later point b in
    the tile of b, or at once when b already has min_pts hits within lo,
    as counts only grow, which makes b's value lo * lo. Until then it
    waits. Waiting pairs are held as they come in, and whenever too many
    have, the sure links among them (from a point core at lo, within lo)
    are tied (_tie): one sure link of each waiting point b becomes its tie,
    of which only the earlier end is held, and the sure links from the
    tie's component are dropped, since b's core distance alone decides what
    such a pair is; a sure link from any other component is held. In b's
    tile the tie comes back as (tie, b, lo * lo). That is exact, as a sure
    link's d2 is within lo and every reader of a d2 answers alike for any
    d2 within lo: _decide's fold test, _exact_d2 (which reads only the hits
    above lo), _closest_pairs (whose choice between two pairs within lo
    changes no label), and _narrow and _roots, which run at eps >= lo.
    _decide drops a pair whose ends already share a root of the base
    union-find forest. A pair whose mutual reachability is <= lo * lo is
    an edge at every eps of the bracket, so it joins the forest; NaN never
    passes that test. Each tile's edges are joined in one union at the end
    of the tile (each run of one row's edges into one component once), so
    no later tile decides a pair that this one joined: a block never
    gathers such a candidate again, as NeighborIndex.tiles promises a
    caller that joins each tile before the next, and a row drops such a
    pair at the roots. A pair with neither end core at hi is never an edge
    nor a border link, and is dropped. The rest are kept as (i, j, d2), and
    whenever too many have come in they are cut, against the current
    forest, to the closest pair between two base components (or a
    component and a point, or two points): the two sides touch at eps
    exactly when that pair is within eps, and either end stands for its
    component. The sweep ends by narrowing to its own lo (_narrow), which
    joins nothing there, as _decide folded every pair within lo, and drops
    the kept pairs inside one component.
    ``labeling(eps)`` numbers the roots view at eps (_roots), which joins
    the kept core-core pairs within eps into a copy of the forest and reads
    the border links off the rest, with no scan; the tuner reads that view
    alone, and raises lo to the eps of each probe that fails (_narrow), so
    that later probes join only the pairs above it. Memory is O(n + kept
    pairs + waiting pairs + one tile). run_dbscan labels through the
    bracket at lo = hi = eps.
    """

    __slots__ = ("lo", "hi", "core_d2", "_parent", "_pairs")

    def __init__(self, index: NeighborIndex, min_pts: int, lo: float, hi: float) -> None:
        lo2, hi2 = lo * lo, hi * hi
        n = len(index.dataset)
        parent = dense_cells(index, min_pts, lo)
        certified = np.bincount(parent, minlength=n)[parent] > 1
        core_d2 = np.full(n, lo2)  # a point's final value once its tile has come; lo * lo until then
        k = min(min_pts, n + 1)  # no point has more than n hits
        near = np.where(certified, k, 1)  # hits within lo so far, itself included; k once its pairs are ready
        tie = np.full(n, -1)  # a waiting point's tie: the earlier end of one sure link
        none = (np.empty(0, dtype=np.int64),) * 2 + (np.empty(0),)
        kept, waiting = [none], none  # (a, b, d2): a waiting pair waits for b, its later end
        held = cut = tied = 0
        for rows, i, j, d2 in index.tiles(hi, lambda p: _find(parent, p)):
            a, b = rows[i], j
            if certified[rows[0]]:  # a block's rows meet only swept points of other blocks, all certified
                if not i.size:
                    continue
            else:  # the rows' last hits: each row's pairs with earlier points were waiting for it
                inside = slice(None) if lo2 >= hi2 else d2 <= lo2  # each hit within lo counts for both ends
                np.add.at(near, b[inside], 1)
                near[rows] += np.bincount(i[inside], minlength=rows.size)
                t = rows[tie[rows] >= 0]
                if waiting[0].size or t.size:
                    a, b, d2 = (np.concatenate(x) for x in zip(waiting, (a, b, d2), (tie[t], t, np.full(t.size, lo2))))
                    waiting = none
                core_d2[rows] = np.where(near[rows] >= k, lo2, np.nan)
                if lo2 < hi2:  # a row short of min_pts within lo takes the (min_pts - near)-th hit above lo, or NaN
                    low = rows[near[rows] < k]
                    core_d2[low] = _exact_d2(low, k - near[low], a, b, d2, lo2, n)
                near[rows] = k
                ready = near[b] >= k  # counts only grow: min_pts hits within lo make b core at lo before its tile
                if not ready.all():
                    waiting = a[~ready], b[~ready], d2[~ready]  # empty before: this tile's pairs took in the waiting ones
                    a, b, d2 = a[ready], b[ready], d2[ready]
            kept.append(_decide(parent, a, b, d2, core_d2, lo2, hi2))
            if waiting[0].size > _PAIR_BUDGET + 2 * tied:
                waiting = _tie(parent, tie, *waiting, core_d2, lo2)
                tied = waiting[0].size
            held += kept[-1][0].size
            if held > _PAIR_BUDGET + 2 * cut:
                kept = [_closest_pairs(parent, *map(np.concatenate, zip(*kept)))]
                held = cut = kept[0][0].size
        self.lo, self.hi, self.core_d2, self._parent = lo, hi, core_d2, parent
        self._pairs = tuple(map(np.concatenate, zip(*kept)))
        self._narrow(lo)  # joins nothing: _decide folded every pair within lo; drops the pairs inside one component

    def labeling(self, eps: float) -> Labeling:
        """What run_dbscan returns at (eps, min_pts), for eps in [lo, hi].

        The clusters are numbered in the order of their roots (_roots), and a
        border point takes its root's cluster.
        """
        roots = self._roots(eps)
        n = roots.size
        ids = np.zeros(n + 1, dtype=np.int64)
        ids[roots] = 1  # marks each root, and n, the root of noise
        ids[n] = 0
        np.cumsum(ids, out=ids)
        ids -= 1  # a root's cluster id is the number of roots below it
        ids[n] = NOISE
        classes = np.full(n, int(PointClass.NOISE), dtype=np.int8)
        classes[roots < n] = int(PointClass.BORDER)
        classes[self.core_d2 <= eps * eps] = int(PointClass.CORE)
        return Labeling(ids[roots], classes)

    def _roots(self, eps: float) -> np.ndarray:
        """Each point's root at eps in [lo, hi]: n for noise, else the smallest index of the cluster it joins.

        A core point's root is its component's: the base forest with the
        kept core-core pairs within eps joined in. A border point's is the
        smallest root among its core neighbours, which is the lowest
        numbered cluster's, since cluster ids rise with the roots.
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
        roots = np.full(n, n)
        core_idx = np.flatnonzero(core)
        roots[core_idx] = _find(parent, core_idx)
        one = ci != cj
        np.minimum.at(roots, np.where(ci, j, i)[one], roots[np.where(ci, i, j)[one]])
        return roots

    def _narrow(self, lo: float) -> None:
        """Raise the bracket's lo to lo <= hi; a lo at or below its own changes nothing.

        Each kept pair whose mutual reachability is <= lo * lo, the sweep's
        own fold, is an edge at every eps >= lo: it joins the base forest
        and is dropped, and the forest is flattened again. So is every kept
        pair whose ends now share a root, which can change no root. Raising
        core_d2 to lo * lo, in place, keeps it the bits of
        np.maximum(kth_d2(index, min_pts, hi), lo * lo) (NaN stays NaN). No
        kept pair is an edge at the bracket's own lo, so a lo at or below it
        joins nothing; the sweep ends here, at its own lo.
        """
        i, j, d2 = self._pairs
        fold = np.maximum(np.maximum(d2, self.core_d2[i]), self.core_d2[j]) <= lo * lo
        parent = self._parent
        _union(parent, _find(parent, i[fold]), _find(parent, j[fold]))
        _find(parent, np.arange(parent.size))
        fold |= parent[i] == parent[j]  # flat: each point's parent is its root
        self._pairs = i[~fold], j[~fold], d2[~fold]
        np.maximum(self.core_d2, lo * lo, out=self.core_d2)
        self.lo = max(self.lo, lo)


def _decide(parent, a, b, d2, core_d2, lo2, hi2):
    """Join the pairs (a, b, d2) that are edges at every eps of the bracket; return those kept for labeling.

    Both ends' core distances are final. A pair whose ends already share a
    root is dropped. The edges are joined in one union (each run of one
    row's edges into one component once), so the next tile skips them.
    """
    ra, rb = _find(parent, a), _find(parent, b)
    apart = ra != rb
    ca, cb = core_d2[a], core_d2[b]
    # mutual reachability within lo, an edge at every eps of the bracket (NaN is within nothing)
    fold = apart & (d2 <= lo2) & (ca <= lo2) & (cb <= lo2)
    keep = apart & ~fold & ((ca <= hi2) | (cb <= hi2))
    del ca, cb  # a float per pair, before the union's own arrays
    edge = fold.copy()
    edge[1:] &= ~fold[:-1] | (ra[1:] != ra[:-1]) | (rb[1:] != rb[:-1])  # the same edge comes in runs: one of each
    _union(parent, ra[edge], rb[edge])
    return a[keep], b[keep], d2[keep]


def _exact_d2(rows, need, a, b, d2, lo2, n):
    """Each rows[q]'s need[q]-th smallest d2 above lo2 among the pairs (a, b, d2) it ends; NaN where it has fewer.

    rows are some rows of one tile, each with fewer than min_pts hits within
    lo, so each row's core distance lies above lo * lo. Every pair of such a
    row above lo is among its tile's pairs: no such pair is tied, nor
    decided before its later end's tile comes.
    """
    slot = np.full(n, -1)
    slot[rows] = np.arange(rows.size)
    above = d2 > lo2
    qa, qb = np.flatnonzero(above & (slot[a] >= 0)), np.flatnonzero(above & (slot[b] >= 0))
    at, hits = np.concatenate((slot[a[qa]], slot[b[qb]])), np.concatenate((d2[qa], d2[qb]))
    order = np.argsort(hits)
    order = order[np.argsort(at[order].astype(np.int16), kind="stable")]  # a tile's rows fit int16, sorted by radix
    at, hits = at[order], hits[order]
    start = np.searchsorted(at, np.arange(rows.size))
    ok = np.diff(np.append(start, at.size)) >= need
    out = np.full(rows.size, np.nan)
    out[ok] = hits[start[ok] + need[ok] - 1]
    return out


def _tie(parent, tie, a, b, d2, core_d2, lo2):
    """The waiting pairs (a, b, d2) that still have to be held.

    A sure link, with a core at lo and d2 within lo, ties b to a's
    component whatever b turns out to be: an edge at every eps of the
    bracket if b is core at lo, and otherwise a pair whose fate turns on
    b's core distance alone. So the earlier end of one sure link of b is
    held as its tie, in tie[b], and the sure links from the tie's component
    are dropped; every sure link from another component is held. The tie
    comes back in b's tile as (tie[b], b, lo * lo), its d2 being within lo.
    """
    sure = np.flatnonzero((d2 <= lo2) & (core_d2[a] <= lo2))
    free = sure[tie[b[sure]] < 0]
    tie[b[free]] = a[free]
    hold = np.ones(a.size, dtype=bool)
    hold[sure[_find(parent, tie[b[sure]]) == _find(parent, a[sure])]] = False
    return a[hold], b[hold], d2[hold]


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


def _indexed(dataset: Dataset, index: NeighborIndex | None, *points) -> tuple:
    """(index, *points): the index, built when None, and each point id as an int.

    DataError for a dataset that validate_dataset rejects or an id outside
    [0, n); a numpy integer, or a float with an integer value, is an id.
    """
    validate_dataset(dataset)
    ids = [check_int(p, "point index", 0, len(dataset), DataError) for p in points]
    return (build_index(dataset) if index is None else index, *ids)


class _Balls(dict):
    """Each point's eps-ball, from region_query at most once, with the core test on top."""

    def __init__(self, index: NeighborIndex, params: DbscanParams) -> None:
        self.index, self.params = index, params

    def __missing__(self, i: int) -> list[int]:
        ball = self[i] = region_query(self.index, i, self.params.eps).tolist()
        return ball

    def core(self, i: int) -> bool:
        return len(self[i]) >= self.params.min_pts

    def reach(self, cores: list[int], p: int) -> bool:
        """True when p lies in the ball of a core point that a chain of core
        points, each in the last one's ball, links to one of cores (all core).

        One breadth-first walk over the core points, from cores.
        """
        seen, queue = set(cores), deque(cores)
        while queue:
            ball = self[queue.popleft()]
            if p in ball:
                return True
            fresh = [r for r in ball if r not in seen and self.core(r)]
            seen.update(fresh)
            queue.extend(fresh)
        return False


def classify_point(
    dataset: Dataset, i: int, params: DbscanParams, index: NeighborIndex | None = None
) -> PointClass:
    """CORE / BORDER / NOISE status of point i under params.

    BORDER means not core itself but inside some core point's eps-ball.
    """
    index, i = _indexed(dataset, index, i)
    balls = _Balls(index, params)
    if balls.core(i):
        return PointClass.CORE
    return PointClass.BORDER if any(balls.core(j) for j in balls[i]) else PointClass.NOISE


def is_directly_density_reachable(
    dataset: Dataset, p: int, q: int, params: DbscanParams, index: NeighborIndex | None = None
) -> bool:
    """True when p sits in q's eps-ball and q is core (asymmetric)."""
    index, p, q = _indexed(dataset, index, p, q)
    balls = _Balls(index, params)
    return balls.core(q) and p in balls[q]


def is_density_reachable(
    dataset: Dataset, p: int, q: int, params: DbscanParams, index: NeighborIndex | None = None
) -> bool:
    """True when a chain of direct steps leads from q to p.

    Every chain link but the last must be core, so this walks the core
    points linked to q and asks whether any of them holds p in its ball.
    The zero-step chain makes the relation reflexive.
    """
    index, p, q = _indexed(dataset, index, p, q)
    balls = _Balls(index, params)
    return p == q or (balls.core(q) and balls.reach([q], p))


def is_density_connected(
    dataset: Dataset, p: int, q: int, params: DbscanParams, index: NeighborIndex | None = None
) -> bool:
    """True when some witness reaches both p and q by density (symmetric).

    The witnesses that reach p are the core points linked to a core point
    in p's ball, and such a witness reaches q when q is in its ball, so the
    check is one walk from the cores in p's ball.
    """
    index, p, q = _indexed(dataset, index, p, q)
    balls = _Balls(index, params)
    return balls.reach([r for r in balls[p] if balls.core(r)], q)
