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

Dense balls cost no distances inside them. Following Gan & Tao's grid, the
bracket buckets the points into cells of side lo / sqrt(d), with the cell
code of the neighbor tiles' grid (which has side about hi), and a cell of
at least min_pts points whose bounding box has a squared diagonal, taken
through the same _axis_d2 as every d2, of at most lo * lo is certified: its
points are core and joined at every eps of the bracket before the sweep
starts, and the sweep never measures a pair inside a component it already
knows. A certified point's core distance is therefore not read, and
core_d2 holds np.maximum(kth_d2(index, min_pts, hi), lo * lo), which no
labeling(eps) with eps >= lo can tell from the exact value. Every other
pair within hi is measured once: it joins the components at every eps of
the bracket when its mutual reachability max(d2, core_d2[i], core_d2[j]) is
at most lo * lo, before the sweep moves on to the next tile, and is
otherwise kept for labeling(eps) while one of its ends is core at hi.

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

import math
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
from .neighborhood import NeighborIndex, _axis_d2, _cells, _kth_d2, build_index, region_query

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
    (index,) = _indexed(dataset, index)
    eps = params.eps
    return EpsBracket(index, params.min_pts, eps, eps).labeling(eps)


class EpsBracket:
    """DBSCAN for one min_pts at every eps in [lo, hi], from one sweep of the tiles at hi.

    core_d2 holds each point's min_pts-th smallest d2 (itself included),
    raised to lo * lo, where it is <= hi * hi, and NaN elsewhere: the bits of
    np.maximum(kth_d2(index, min_pts, hi), lo * lo), read off the same hits
    as the pairs. A row with min_pts hits within lo is lo * lo and one with
    fewer than min_pts hits NaN, both by counting its hits; only a row whose
    value lies in (lo * lo, hi * hi] is partitioned (neighborhood._kth_d2),
    so at lo = hi, as in run_dbscan, none is. p is core at eps exactly when
    core_d2[p] <= eps * eps, and a pair is a core-core edge exactly when its
    mutual reachability max(d2, core_d2[i], core_d2[j]) (Campello, Moulavi &
    Sander, PAKDD 2013) is <= eps * eps; raising the values to lo * lo
    changes neither answer.

    Before the sweep, every certified cell (module docstring; Gan & Tao,
    "DBSCAN Revisited", SIGMOD 2015) joins the base forest rooted at its
    smallest index, and its points get core_d2 = lo * lo without a
    partition. The cells are the tiles' blocks (NeighborIndex.tiles), swept
    first: a block gathers its candidates from the tiles' grid around its
    bounding box, and its rows only meet swept points outside its component.
    n coincident points cost O(n log n), not n * n / 32 d2 entries.

    A tile fixes its rows' core distances, so each pair within hi is decided
    once, in the tile of whichever end is swept later (within one tile, at
    the end that comes later in it), when both ends' are known, and only
    while its ends lie in two components of the base union-find forest:
    the sweep positions, then the roots, then the core distances are read
    per hit, each only for the hits the step before kept. A pair whose
    mutual reachability is <= lo * lo is an edge at every eps of the
    bracket, so it joins the forest; NaN never passes that one comparison.
    Each tile's edges are joined in one union at the end of the tile (each
    run of one row's edges into one component once), so no later tile
    decides a pair that this one joined: a block never gathers such a
    candidate again, as NeighborIndex.tiles promises a caller that joins
    each tile before the next, and a row drops such a hit at the roots. A
    pair with neither end core at hi is never an edge nor a border link,
    and is dropped. The rest are kept as (i, j, d2), and whenever too many
    have come in they are cut, against the current forest, to the closest
    pair between two base components (or a component and a point, or two
    points): the two sides touch at eps exactly when that pair is within
    eps, and either end stands for its component. A tile whose rows have no
    hit (a block with no candidate left) only takes its sweep positions.
    ``labeling(eps)`` numbers the roots view at eps (_roots), which joins
    the kept core-core pairs within eps into a copy of the forest and reads
    the border links off the rest, with no scan; the tuner reads that view
    alone, and raises lo to the eps of each probe that fails (_narrow), so
    that later probes join only the pairs above it. Memory is O(n + kept
    pairs + one tile). run_dbscan labels through the bracket at lo = hi = eps.
    """

    __slots__ = ("lo", "core_d2", "_parent", "_pairs")

    def __init__(self, index: NeighborIndex, min_pts: int, lo: float, hi: float) -> None:
        lo2, hi2 = lo * lo, hi * hi
        n = len(index.dataset)
        parent = _dense_cells(index.dataset.coords, min_pts, lo)
        certified = np.bincount(parent, minlength=n)[parent] > 1
        core_d2 = np.where(certified, lo2, np.nan)
        swept = np.full(n, n)  # each point's position in the sweep; n until its tile comes
        done = 0
        kept = [(np.empty(0, dtype=np.int64),) * 2 + (np.empty(0),)]  # (i, j, d2); a lone stack's tiles keep none
        held = cut = 0
        for rows, i, j, d2 in index.tiles(hi, lambda p: _find(parent, p)):
            pos = np.arange(done, done + rows.size)
            done += rows.size
            swept[rows] = pos
            if not i.size:  # a block's rows with no candidate left: certified, so their core_d2 is set
                continue
            if not certified[rows[0]]:  # a certified cell's rows meet only the swept points outside its component
                core_d2[rows] = _kth_d2(i, d2, min_pts, rows.size, lo2, hi2)
            ru = _find(parent, rows)  # roots, as _union needs, until this tile's edges are joined
            k = np.flatnonzero(swept[j] < pos[i])  # each pair once, from its later end
            k = k[_find(parent, j[k]) != ru[i[k]]]  # and only while its ends lie in two components
            i, j, d2 = i[k], j[k], d2[k]
            ci, cj, rv = core_d2[rows[i]], core_d2[j], parent[j]  # _find pointed each j at its root
            # mutual reachability within lo: an edge at every eps of the bracket (NaN never is)
            fold = np.maximum(np.maximum(d2, ci), cj) <= lo2
            u, v = ru[i[fold]], rv[fold]
            new = np.append(True, (u[1:] != u[:-1]) | (v[1:] != v[:-1]))[: u.size]  # the same edge comes in runs: one of each
            _union(parent, u[new], v[new])  # before the next tile, which then skips what this one joined
            keep = ~fold & ((ci <= hi2) | (cj <= hi2))
            kept.append((rows[i[keep]], j[keep], d2[keep]))
            held += kept[-1][0].size
            if held > _PAIR_BUDGET + 2 * cut:
                kept = [_closest_pairs(parent, *map(np.concatenate, zip(*kept)))]
                held = cut = kept[0][0].size
        self.lo = lo
        self.core_d2 = core_d2
        self._pairs = tuple(map(np.concatenate, zip(*kept)))
        _find(parent, np.arange(parent.size))
        self._parent = parent

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
        and is dropped, and the forest is flattened again. Raising core_d2
        to lo * lo keeps it the bits of np.maximum(kth_d2(index, min_pts,
        hi), lo * lo) (NaN stays NaN). No kept pair is an edge at the
        bracket's own lo, so a lo at or below it joins nothing.
        """
        i, j, d2 = self._pairs
        fold = np.maximum(np.maximum(d2, self.core_d2[i]), self.core_d2[j]) <= lo * lo
        parent = self._parent
        _union(parent, _find(parent, i[fold]), _find(parent, j[fold]))
        _find(parent, np.arange(parent.size))
        self._pairs = i[~fold], j[~fold], d2[~fold]
        self.core_d2 = np.maximum(self.core_d2, lo * lo)
        self.lo = max(self.lo, lo)


def _dense_cells(coords: np.ndarray, min_pts: int, lo: float) -> np.ndarray:
    """A base forest in which each certified cell is one component rooted at its smallest index.

    The points are bucketed into cells of side lo / sqrt(d), by the cell
    code of the neighbor tiles (neighborhood._cells), and grouped by one
    lexicographic sort of their cells. A cell is certified when it holds at
    least min_pts points, and two or more, and its bounding box passes one
    check: the d2 between the box's corners, which neighborhood._axis_d2
    accumulates from the per-axis spans as it does every d2, is <= lo * lo.
    Rounding is monotone, so that sum bounds every member pair's computed
    d2, and every member is core, and adjacent to every other, at every
    eps >= lo. The check alone makes a certificate; the cells only find the
    candidates, so cells that the clip to +-2^61 or rounding merges are
    simply checked together: a stack far from the origin still lands in one
    cell. With lo = 0 no cell is certified.
    """
    n, dim = coords.shape
    parent = np.arange(n)
    side = lo / math.sqrt(dim)
    if not (n and side > 0):
        return parent
    cell = _cells(coords, side)
    order = np.lexsort(cell.T[::-1])
    cell = cell[order]
    starts = np.flatnonzero(np.r_[True, (cell[1:] != cell[:-1]).any(axis=1)])
    del cell  # before the boxes
    sizes = np.diff(starts, append=n)
    big = sizes >= max(min_pts, 2)
    if not big.any():
        return parent
    members = order[np.repeat(big, sizes)]
    sizes = sizes[big]
    firsts = np.concatenate(([0], np.cumsum(sizes[:-1])))
    x = [coords[members, ax] for ax in range(dim)]  # one array per axis: reduceat on n x d rows is twice as slow
    ok = np.repeat(_axis_d2(*([f.reduceat(a, firsts) for a in x] for f in (np.maximum, np.minimum))) <= lo * lo, sizes)
    parent[members[ok]] = np.repeat(np.minimum.reduceat(members, firsts), sizes)[ok]
    return parent


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
