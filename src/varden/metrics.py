"""Clustering quality against ground truth.

The headline number is the adjusted Rand index. Noise is NOT discarded:
the noise marker passes through as a label of its own on both sides, so a
result that dumps real clusters into noise (or invents clusters out of
noise) pays for it. The pair-counting arithmetic is exact (Python integers)
up to the single final division.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from math import comb

import numpy as np

from .model import DataError, Labeling, LabeledDataset, NOISE


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
    n = len(t)
    if n < 2:
        raise DegenerateInput(f"need at least 2 points, got {n}")

    cells = Counter(zip(t, p))
    sum_cells = sum(comb(c, 2) for c in cells.values())
    sum_t = sum(comb(c, 2) for c in Counter(t).values())
    sum_p = sum(comb(c, 2) for c in Counter(p).values())
    total = comb(n, 2)

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

    DataError for cluster ids that are not contiguous from 0; classes are
    not read.
    """
    if not isinstance(d, LabeledDataset):
        raise MissingGroundTruth(f"expected a LabeledDataset, got {type(d).__name__}")
    truth = d.truth
    labels = result.labels
    if labels.shape != truth.shape:
        raise LengthMismatch(f"result covers {labels.shape[0]} points, truth {truth.shape[0]}")

    n = truth.shape[0]
    k = result.n_clusters
    purity = []
    for cid in range(k):
        member_truth = truth[labels == cid]
        if not member_truth.size:
            raise DataError("cluster ids are not contiguous from 0")
        top = Counter(member_truth.tolist()).most_common(1)[0][1]
        purity.append(top / member_truth.size)
    return EvalReport(
        num_clusters_found=k,
        ari=adjusted_rand_index(truth.tolist(), labels.tolist()),
        noise_fraction=int(np.count_nonzero(labels == NOISE)) / n,
        per_cluster_purity=tuple(purity),
    )
