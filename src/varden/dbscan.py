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
that reaches it, which is the lowest numbered one.
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

_UNION_BUDGET = 1 << 10  # core-core edges buffered between unions


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

    Two passes over the index's neighbor tiles: the first counts each ball
    and fixes the core set, the second joins core-core neighbors with a
    union-find and collects each border point's core neighbors. Cluster ids
    and border ownership follow index order, as in the module docstring.
    """
    validate_dataset(dataset)
    n = len(dataset)
    if index is None:
        index = build_index(dataset)
    eps, min_pts = params.eps, params.min_pts

    degree = np.zeros(n, dtype=np.int64)
    for rows, _, hit in index.tiles(eps):
        degree[rows] = hit.sum(axis=1)
    core = degree >= min_pts

    parent = np.arange(n)
    edges: list[tuple[np.ndarray, np.ndarray]] = []
    buffered = 0
    # (border, core neighbor) pairs: a non-core point has fewer than min_pts
    # neighbors, and no more core neighbors than there are cores
    slots = int(np.minimum(degree[~core], core.sum()).sum())
    border_rows, border_cores = np.empty(slots, dtype=np.int64), np.empty(slots, dtype=np.int64)
    filled = 0
    for rows, cols, hit in index.tiles(eps):
        row_core, col_core = core[rows], core[cols]
        cores = cols[col_core]
        hit = hit[:, col_core]
        core_rows = rows[row_core]
        ru, rv = _find(parent, core_rows), _find(parent, cores)
        # each edge once, from its smaller end, and only while its ends are apart
        i, j = np.nonzero(hit[row_core] & (core_rows[:, None] < cores) & (ru[:, None] != rv))
        edges.append((ru[i], rv[j]))
        buffered += i.size
        if buffered >= _UNION_BUDGET:
            _union(parent, *map(np.concatenate, zip(*edges)))
            edges, buffered = [], 0
        i, j = np.nonzero(hit[~row_core])
        border_rows[filled : filled + i.size] = rows[~row_core][i]
        border_cores[filled : filled + i.size] = cores[j]
        filled += i.size
    if buffered:
        _union(parent, *map(np.concatenate, zip(*edges)))

    labels = np.full(n, NOISE, dtype=np.int64)
    core_idx = np.flatnonzero(core)
    labels[core_idx] = np.unique(_find(parent, core_idx), return_inverse=True)[1]
    border = np.full(n, n, dtype=np.int64)
    np.minimum.at(border, border_rows[:filled], labels[border_cores[:filled]])
    reached = border < n
    labels[reached] = border[reached]

    classes = np.full(n, int(PointClass.NOISE), dtype=np.int8)
    classes[reached] = int(PointClass.BORDER)
    classes[core] = int(PointClass.CORE)
    return Labeling(labels, classes)


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
