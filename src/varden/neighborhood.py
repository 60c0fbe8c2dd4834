"""Fixed-radius neighbor search over a dataset.

A sweep index (``build_index`` / ``region_query``) and a pure-Python scan
(``region_query_naive``) answer the closed-ball query |q - p| <= eps. Both
accumulate d2 axis by axis in the same order and compare it with the same
eps * eps, so they agree bit for bit, boundary points included.
"""
from __future__ import annotations

import math

import numpy as np

from .model import Dataset, DataError, ParamError


def _axis_d2(block: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Squared distances accumulated axis by axis (matches the naive scan)."""
    d2 = np.zeros(block.shape[0])
    for ax in range(block.shape[1]):
        diff = block[:, ax] - q[ax]
        d2 += diff * diff
    return d2


class NeighborIndex:
    """Sweep index: the points sorted once, stably, along the axis of largest spread.

    A query binary-searches the slab |p_a - q_a| <= w and keeps the points in it
    with d2 <= eps * eps; the sort does not depend on eps, so one index serves
    every radius. A hit only has fl(diff * diff) <= fl(eps * eps), so |p_a - q_a|
    may reach eps * (1 + 3u) and an unpadded q_a -+ eps slab drops it; with
    w = eps * (1 + 2^-50) and monotone rounding the slab is a superset and the
    d2 test decides. eps is floored at 2^-511, below which eps * eps is
    subnormal; once eps * eps overflows, the slab is the whole axis.
    """

    __slots__ = ("dataset", "_axis", "_order", "_sorted", "_keys")

    def __init__(self, dataset: Dataset) -> None:
        self.dataset = dataset
        self._axis = int(np.argmax(np.ptp(dataset.coords, axis=0))) if len(dataset) else 0
        self._order = np.argsort(dataset.coords[:, self._axis], kind="stable")
        self._sorted = dataset.coords[self._order]
        self._keys = np.ascontiguousarray(self._sorted[:, self._axis])

    def query(self, q, eps: float) -> np.ndarray:
        """Ascending indices of the points within eps of q (a point index or coordinates)."""
        qc = _query_coords(self.dataset, q)
        eps = _check_eps(eps)
        qa = float(qc[self._axis])
        w = max(eps, 2.0**-511) * (1 + 2.0**-50)
        lo_key, hi_key = (qa - w, qa + w) if eps * eps < math.inf else (-math.inf, math.inf)
        lo = int(np.searchsorted(self._keys, lo_key, side="left"))
        hi = int(np.searchsorted(self._keys, hi_key, side="right"))
        return np.sort(self._order[lo:hi][_axis_d2(self._sorted[lo:hi], qc) <= eps * eps])


def build_index(dataset: Dataset) -> NeighborIndex:
    """Build the spatial index used by the clustering passes."""
    return NeighborIndex(dataset)


def region_query(index: NeighborIndex, q, eps: float) -> np.ndarray:
    """Closed-ball radius query through the index; see NeighborIndex.query."""
    return index.query(q, eps)


def region_query_naive(dataset: Dataset, q, eps: float) -> np.ndarray:
    """Reference implementation: scan every point in pure Python."""
    qc = _query_coords(dataset, q)
    eps = _check_eps(eps)
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
    """Largest pairwise Euclidean distance; 0.0 for fewer than two points."""
    n = len(dataset)
    if n < 2:
        return 0.0
    coords = dataset.coords
    best = 0.0
    step = 256
    for start in range(0, n, step):
        block = coords[start : start + step]
        diff = block[:, None, :] - coords[None, :, :]
        d2 = np.einsum("ijk,ijk->ij", diff, diff)
        best = max(best, float(d2.max()))
    return math.sqrt(best)


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


def _check_eps(eps: float) -> float:
    eps = float(eps)
    if not math.isfinite(eps) or eps <= 0.0:
        raise ParamError(f"eps must be finite and > 0, got {eps!r}")
    return eps
