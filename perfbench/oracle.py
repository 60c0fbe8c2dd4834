"""Exact reference answers the benchmark checks the CLI's outputs against.

Written independently of varden so that a change to the library cannot
change the reference. DBSCAN here is defined set-wise rather than by a
breadth-first scan:

- d² is accumulated axis by axis, (candidate - query)² per axis added to
  0.0 in axis order, and compared with eps * eps. That is the arithmetic
  varden's neighbor search uses, so ties at exactly eps agree bit for bit.
- A point is core when its closed eps-ball holds at least min_pts points,
  itself included.
- Clusters are the connected components of the core-core edges, numbered
  in order of each component's smallest index.
- A non-core point with a core neighbor is border and takes the minimum
  cluster id among its core neighbors; every other point is noise.
"""
from __future__ import annotations

from collections import Counter
from fractions import Fraction

import numpy as np

NOISE = -1
CLASS_TOKENS = ("noise", "border", "core")

_BLOCK = 512


def neighbor_pairs(coords: np.ndarray, eps: float):
    """Yield, block by block, the (query, candidate) index pairs within the closed eps-ball.

    Rows are processed in x order, and each block of rows is compared only
    with the columns whose x lies within 2 * eps of the block's x range; a
    pair outside that window has |dx| > 2 * eps, far beyond any rounding.
    Memory stays bounded by one block, however many pairs there are.
    """
    n = coords.shape[0]
    eps2 = eps * eps
    order = np.argsort(coords[:, 0], kind="stable")
    xs = coords[order, 0]
    for b0 in range(0, n, _BLOCK):
        b1 = min(b0 + _BLOCK, n)
        rows = order[b0:b1]
        c0 = np.searchsorted(xs, xs[b0] - 2.0 * eps, side="left")
        c1 = np.searchsorted(xs, xs[b1 - 1] + 2.0 * eps, side="right")
        cols = order[c0:c1]
        d2 = np.zeros((rows.size, cols.size))
        for ax in range(coords.shape[1]):
            diff = coords[cols, ax][None, :] - coords[rows, ax][:, None]
            d2 += diff * diff
        r, c = np.nonzero(d2 <= eps2)
        yield rows[r], cols[c]


def _union(parent: np.ndarray, u: np.ndarray, v: np.ndarray) -> None:
    """Merge the components of every edge (u, v) in the forest parent, in place.

    parent[x] <= x always holds, and every entry points at a root on return,
    so each component's root is its smallest index.
    """
    while True:
        pu, pv = parent[u], parent[v]
        apart = pu != pv
        if not apart.any():
            return
        # Hook the larger root under the smaller, then compress to roots.
        np.minimum.at(parent, np.maximum(pu, pv)[apart], np.minimum(pu, pv)[apart])
        while True:
            nxt = parent[parent]
            if np.array_equal(nxt, parent):
                break
            parent[:] = nxt


def dbscan_oracle(coords: np.ndarray, eps: float, min_pts: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-point labels (cluster id or NOISE) and classes (indices into CLASS_TOKENS)."""
    n = coords.shape[0]
    degree = np.zeros(n, dtype=np.int64)
    for q, _ in neighbor_pairs(coords, eps):
        degree += np.bincount(q, minlength=n)
    core = degree >= min_pts

    parent = np.arange(n)
    for q, c in neighbor_pairs(coords, eps):
        both = core[q] & core[c]
        _union(parent, q[both], c[both])
    core_idx = np.flatnonzero(core)
    roots = np.unique(parent[core_idx])
    labels = np.full(n, NOISE, dtype=np.int64)
    labels[core_idx] = np.searchsorted(roots, parent[core_idx])

    unset = np.iinfo(np.int64).max
    border_label = np.full(n, unset, dtype=np.int64)
    for q, c in neighbor_pairs(coords, eps):
        edge = ~core[q] & core[c]
        np.minimum.at(border_label, q[edge], labels[c[edge]])
    is_border = ~core & (border_label != unset)
    labels[is_border] = border_label[is_border]

    classes = np.zeros(n, dtype=np.int8)
    classes[is_border] = 1
    classes[core] = 2
    return labels, classes


def adjusted_rand_index(truth, predicted) -> float:
    """ARI in exact rational arithmetic, rounded once to the nearest float.

    Labels are categorical; NOISE counts as a label of its own. Two
    partitions with no pair to tell apart (all singletons or one block on
    both sides) score 1.0.
    """
    truth, predicted = list(truth), list(predicted)
    if len(truth) != len(predicted):
        raise ValueError("label lists differ in length")

    def pairs(counts) -> int:
        return sum(k * (k - 1) // 2 for k in counts)

    together = pairs(Counter(zip(truth, predicted)).values())
    a = pairs(Counter(truth).values())
    b = pairs(Counter(predicted).values())
    total = len(truth) * (len(truth) - 1) // 2
    expected = Fraction(a * b, total)
    denominator = Fraction(a + b, 2) - expected
    if denominator == 0:
        return 1.0
    return float((together - expected) / denominator)
