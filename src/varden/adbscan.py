"""Picking eps: the adaptive escalation loop and the eps tuner.

Each run_adbscan iteration runs a full density scan on whatever points
remain. When the scan's largest cluster holds more than accept_fraction of
the ORIGINAL point count it is accepted and its points leave the working
set; either way, eps and the (real-valued) min_pts accumulator escalate by
the step before the next iteration. The loop stops at k accepted clusters,
when the remainder falls to residual_fraction of the original size or
below, when eps passes eps_cap, or after max_iters iterations.
tune_eps_densest finds the best single radius with one neighbor scan per
bracket: its probes relabel from the pairs that scan kept (dbscan.EpsBracket).
"""
from __future__ import annotations

import math

import numpy as np

from .dbscan import EpsBracket, run_dbscan
from .model import (
    AdaptiveResult,
    AdbscanParams,
    DataError,
    Dataset,
    DbscanParams,
    IterationRecord,
    Labeling,
    LabeledDataset,
    NOISE,
    PointClass,
    STOP_EPS_CAP,
    STOP_K_REACHED,
    STOP_MAX_ITERS,
    STOP_RESIDUAL,
    check_min_pts,
    validate_dataset,
)
from .neighborhood import build_index, kth_d2

_REL_TOL = 1e-6  # relative width of the tuner's final bracket
_SQUARE_OVERFLOWS = 2.0**512  # the smallest power of two whose square is inf


def step_params(
    eps: float,
    min_pts_real: float,
    step: float,
    eps_step: float | None = None,
    min_pts_step: float | None = None,
) -> tuple[float, float]:
    """Escalate (eps, min_pts accumulator) by one step.

    Both axes move by ``step`` unless given their own override. min_pts is
    kept real-valued here so repeated half-steps accumulate; callers ceil it
    when running a scan.
    """
    de = step if eps_step is None else eps_step
    dm = step if min_pts_step is None else min_pts_step
    return eps + de, min_pts_real + dm


def accept_cluster(labeling: Labeling, n_original: int, accept_fraction: float) -> int | None:
    """Id of the largest cluster if it clears the acceptance bar, else None.

    The bar is strict: size > accept_fraction * n_original, with n_original
    the size of the dataset the whole adaptive run started from. Ties go to
    the lowest cluster id.
    """
    if labeling.n_clusters == 0:
        return None
    sizes = np.bincount(labeling.labels[labeling.labels != NOISE], minlength=labeling.n_clusters)
    cid = int(np.argmax(sizes))  # argmax takes the first maximum: lowest id
    if sizes[cid] > accept_fraction * n_original:
        return cid
    return None


def remove_cluster(dataset: Dataset, labeling: Labeling, cluster_id: int) -> tuple[Dataset, np.ndarray]:
    """Drop one cluster's points; returns the survivors and their old indices."""
    if not 0 <= cluster_id < labeling.n_clusters:
        raise ValueError(f"no cluster {cluster_id} in labeling with {labeling.n_clusters} clusters")
    keep = np.flatnonzero(labeling.labels != cluster_id)
    return Dataset(dataset.coords[keep]), keep


def run_adbscan(dataset: Dataset, params: AdbscanParams) -> AdaptiveResult:
    """Run the escalation loop; always returns a valid labeling.

    When a budget (eps_cap, max_iters) ends the loop early the result simply
    has fewer than k clusters; stop_reason records which budget fired.
    """
    validate_dataset(dataset)
    n0 = len(dataset)
    labels = np.full(n0, NOISE, dtype=np.int64)
    classes = np.full(n0, int(PointClass.NOISE), dtype=np.int8)

    current = dataset
    cur_to_orig = np.arange(n0)
    eps = params.eps0
    mp_real = float(params.min_pts0)
    accepted = 0
    trace: list[IterationRecord] = []

    while True:
        if accepted >= params.k:
            stop = STOP_K_REACHED
            break
        if len(current) <= params.residual_fraction * n0:
            stop = STOP_RESIDUAL
            break
        if params.eps_cap is not None and eps > params.eps_cap:
            stop = STOP_EPS_CAP
            break
        if len(trace) >= params.max_iters:
            stop = STOP_MAX_ITERS
            break

        min_pts = math.ceil(mp_real)
        scan = run_dbscan(current, DbscanParams(eps, min_pts))
        cid = accept_cluster(scan, n0, params.accept_fraction)

        largest = 0
        if scan.n_clusters:
            largest = int(np.bincount(scan.labels[scan.labels != NOISE]).max())

        accepted_size = 0
        if cid is not None:
            members = np.flatnonzero(scan.labels == cid)
            accepted_size = members.size
            orig = cur_to_orig[members]
            labels[orig] = accepted
            classes[orig] = scan.classes[members]
            accepted += 1
            current, keep = remove_cluster(current, scan, cid)
            cur_to_orig = cur_to_orig[keep]

        trace.append(
            IterationRecord(
                index=len(trace) + 1,
                eps=eps,
                min_pts=min_pts,
                min_pts_real=mp_real,
                n_clusters_found=scan.n_clusters,
                largest_size=largest,
                accepted=cid is not None,
                accepted_size=accepted_size,
                remaining=len(current),
            )
        )
        eps, mp_real = step_params(
            eps, mp_real, params.step, params.eps_step, params.min_pts_step
        )

    return AdaptiveResult(labels, classes, tuple(trace), stop)


def tune_eps_densest(labeled: LabeledDataset, min_pts: int = 10) -> float:
    """Smallest eps at which the densest blob coheres into one cluster.

    The densest blob is the one whose points have the lowest median distance
    to their min_pts-th nearest neighbor (self included; the first blob wins
    ties). "Coheres" means: at (eps, min_pts), at least 90% of the blob's
    points are clustered and all of its clustered points share one cluster.
    That predicate is monotone in eps, so doubling from the blob's median
    radius brackets the threshold and bisection narrows it; the returned
    value is the passing endpoint of the final bracket (relative width 1e-6).

    Every point's min_pts-th smallest d2 comes from one blocked sweep over
    all pairs, and a point is core at eps exactly when it is <= eps * eps.
    Each bracket [lo, hi] the search visits, at most a factor of two wide,
    scans the neighbor tiles once at hi into a dbscan.EpsBracket, and its
    probes only relabel from the pairs that scan kept. Memory is O(n + kept
    pairs): coincident stacks fold into the bracket's base forest, and kept
    pairs past a budget are cut to the closest between two of its components.
    """
    min_pts = check_min_pts(min_pts)
    ds = labeled.dataset
    truth = labeled.truth
    members = np.flatnonzero(truth != NOISE)
    if members.size == 0:
        raise DataError("dataset truth has no clusters to tune against")
    if len(ds) < min_pts:
        raise DataError(f"tuning needs at least min_pts={min_pts} points, dataset has {len(ds)}")

    core_d2 = kth_d2(ds, min_pts)
    radii = np.sqrt(core_d2[members])
    member_blobs = truth[members]
    blob_ids = np.unique(member_blobs)
    medians = [float(np.median(radii[member_blobs == b])) for b in blob_ids]
    densest = int(np.argmin(medians))  # argmin takes the first minimum: lowest blob id
    target = np.flatnonzero(truth == blob_ids[densest])
    index = build_index(ds)

    def coheres(lab: Labeling) -> bool:
        t = lab.labels[target]
        clustered = t[t != NOISE]
        if clustered.size < 0.9 * target.size:
            return False
        return np.unique(clustered).size == 1

    # Double from the blob's own density scale so probes stay cheap. The
    # doubling ends, with hi finite: len(ds) >= min_pts, so once eps * eps
    # reaches the largest pairwise d2 or overflows, as it does from 2^512 on,
    # every point is core and all form one cluster. Each EpsBracket spans a
    # factor of two and answers every probe made while it stands. The first
    # starts at hi / 2, not 0, so that pairs already core-core there fold
    # into its forest; at 0 only coincident stacks would.
    lo, hi = 0.0, min(max(medians[densest], 1e-9), _SQUARE_OVERFLOWS)
    bracket = EpsBracket(index, core_d2, 0.5 * hi, hi)
    while not coheres(bracket.labeling(hi)):
        lo, hi = hi, 2.0 * hi
        bracket = EpsBracket(index, core_d2, lo, hi)
    while hi - lo > max(1e-9, _REL_TOL * hi):
        mid = 0.5 * (lo + hi)
        if mid < bracket.lo:  # lo is still 0, and the blob cohered at every probe so far
            bracket = EpsBracket(index, core_d2, mid, hi)
        if coheres(bracket.labeling(mid)):
            hi = mid
        else:
            lo = mid
    return hi
