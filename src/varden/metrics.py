"""Clustering quality against ground truth.

The headline number is the adjusted Rand index. Noise is NOT discarded:
the noise marker passes through as a label of its own on both sides, so a
result that dumps real clusters into noise (or invents clusters out of
noise) pays for it. The pair-counting arithmetic is exact (integers) up to
the single final division, which _ari states once: adjusted_rand_index
counts any hashable labels, and evaluate takes its counts from the one sort
that also gives the purities.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .model import DataError, Labeling, LabeledDataset, NOISE, _cluster_sizes


class LengthMismatch(DataError):
    """The two label lists do not cover the same points."""


class DegenerateInput(DataError):
    """Fewer than two points; pair counting is meaningless."""


class MissingGroundTruth(DataError):
    """Evaluation needs a dataset that carries truth labels."""


def adjusted_rand_index(truth, predicted) -> float:
    """Pair-counting ARI: (Index - Expected) / (Max - Expected).

    1.0 means identical partitions up to relabeling; 0.0 is chance level.
    Labels are categorical: any hashable values work, NOISE included.
    """
    t = list(truth)
    p = list(predicted)
    if len(t) != len(p):
        raise LengthMismatch(f"label lists have lengths {len(t)} and {len(p)}")
    return _ari(len(t), *(np.array(list(Counter(x).values()), dtype=np.int64) for x in (zip(t, p), t, p)))


def _ari(n: int, cells: np.ndarray, truth_sizes: np.ndarray, predicted_sizes: np.ndarray) -> float:
    """The ARI of n points from the sizes of the contingency cells and of each side's groups.

    Integers only up to the final division. A size's pairs, c * (c - 1) / 2,
    are summed in int64, which holds them (their sum is at most n * (n - 1) / 2);
    the products after that are Python integers.
    """
    if n < 2:
        raise DegenerateInput(f"need at least 2 points, got {n}")
    sum_cells, sum_t, sum_p = (int((c * (c - 1) // 2).sum()) for c in (cells, truth_sizes, predicted_sizes))
    total = n * (n - 1) // 2

    # ARI scaled by 2*total so every term stays an integer.
    num = 2 * (total * sum_cells - sum_t * sum_p)
    den = total * (sum_t + sum_p) - 2 * sum_t * sum_p
    if den == 0:
        # Both partitions are all-singletons or single-block: identical.
        return 1.0
    return num / den


@dataclass(frozen=True)
class EvalReport:
    """Summary of one clustering run against truth.

    per_cluster_purity: for each predicted cluster id in order, the fraction
    of its points sharing the cluster's majority truth label.
    """

    num_clusters_found: int
    ari: float
    noise_fraction: float
    per_cluster_purity: tuple[float, ...]

    CSV_HEADER = "num_clusters_found,ari,noise_fraction,per_cluster_purity"

    def to_text(self) -> str:
        """Flat key-value block, one `key value` pair per line."""
        lines = [
            f"num_clusters_found {self.num_clusters_found}",
            f"ari {self.ari!r}",
            f"noise_fraction {self.noise_fraction!r}",
        ]
        for i, purity in enumerate(self.per_cluster_purity):
            lines.append(f"purity.{i} {purity!r}")
        return "\n".join(lines) + "\n"

    def to_csv_row(self) -> str:
        """One CSV row matching CSV_HEADER; purities joined with ';'."""
        purities = ";".join(repr(v) for v in self.per_cluster_purity)
        return f"{self.num_clusters_found},{self.ari!r},{self.noise_fraction!r},{purities}"


def evaluate(d: LabeledDataset, result: Labeling) -> EvalReport:
    """Score a labeling (an AdaptiveResult is one) against the dataset's truth.

    DataError for cluster ids below -1 or not contiguous from 0; classes
    are not read.
    """
    if not isinstance(d, LabeledDataset):
        raise MissingGroundTruth(f"expected a LabeledDataset, got {type(d).__name__}")
    truth = d.truth
    labels = result.labels
    if labels.shape != truth.shape:
        raise LengthMismatch(f"result covers {labels.shape[0]} points, truth {truth.shape[0]}")
    size = _cluster_sizes(labels)
    n, k = truth.shape[0], size.size
    # sorted by (cluster, truth), noise first, each run of one (cluster, truth)
    # pair is a contingency cell, and a cluster's majority truth count is its
    # longest run
    order = np.lexsort((truth, labels))
    cid, tid = labels[order], truth[order]
    new = np.diff(cid, prepend=NOISE - 1) != 0
    new[1:] |= np.diff(tid) != 0
    starts = np.flatnonzero(new)
    cells = np.diff(starts, append=n)
    top = np.maximum.reduceat(cells, np.searchsorted(cid[starts], np.arange(k)))
    tid = np.sort(truth)
    truth_sizes = np.diff(np.flatnonzero(np.diff(tid, prepend=tid[:1] - 1)), append=n)
    return EvalReport(
        num_clusters_found=k,
        ari=_ari(n, cells, truth_sizes, np.append(size, n - size.sum())),
        noise_fraction=int(n - size.sum()) / n,
        per_cluster_purity=tuple((top / size).tolist()),
    )
