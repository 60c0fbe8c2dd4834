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
Its blob medians come from capped core distances at doubling radii.
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
    ParamError,
    PointClass,
    STOP_EPS_CAP,
    STOP_K_REACHED,
    STOP_MAX_ITERS,
    STOP_RESIDUAL,
    check_int,
    validate_dataset,
)
from .neighborhood import NeighborIndex, build_index, kth_d2

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
    cluster_id = check_int(cluster_id, "cluster id", 0, labeling.n_clusters)
    keep = np.flatnonzero(labeling.labels != cluster_id)
    return Dataset(dataset.coords[keep]), keep


def run_adbscan(dataset: Dataset, params: AdbscanParams) -> AdaptiveResult:
    """Run the escalation loop; returns a valid labeling, or raises ParamError
    when the escalated eps or min_pts accumulator overflows to inf first.

    When a budget (eps_cap, max_iters) ends the loop early the result simply
    has fewer than k clusters; stop_reason records which budget fired. The
    stop checks come before the overflow check, so a set eps_cap stops an
    infinite eps with eps_cap.
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
        if not (math.isfinite(eps) and math.isfinite(mp_real)):
            raise ParamError(f"escalation overflowed at iteration {len(trace) + 1}: eps {eps!r}, min_pts {mp_real!r}")

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


def _doubled_kth_d2(index: NeighborIndex, k: int, rows: np.ndarray) -> np.ndarray:
    """kth_d2(index, k, 2^512) on rows and NaN elsewhere, from capped sweeps at radii r, 2r, 4r, ...

    Each sweep reads only the rows still NaN; a value is the same at every
    radius at which it is defined. r starts at an eighth of
    spread * (k / n)^(1 / d), with spread the largest axis's, about the
    radius of a k-ball at the average density: a sweep at a small r
    measures few candidates, and the denser a blob, the sooner its rows
    are read. Once r * r reaches every d2, or overflows from 2^512 on,
    every value is defined for k <= n, so the sweeps are few: r starts
    within a factor of 8 * sqrt(d) * (n / k)^(1 / d) of the diameter, or
    at 2^-511, where r * r stops being subnormal.
    """
    n, dim = index.dataset.coords.shape
    r = min(max(float(np.ptp(index.dataset.coords, axis=0).max()) * (k / n) ** (1 / dim) / 8, 2.0**-511), _SQUARE_OVERFLOWS)
    out = np.full(n, np.nan)
    while rows.size:
        out[rows] = kth_d2(index, k, r, rows)[rows]
        rows = rows[np.isnan(out[rows])] if r < _SQUARE_OVERFLOWS else rows[:0]
        r = min(2.0 * r, _SQUARE_OVERFLOWS)
    return out


def tune_eps_densest(labeled: LabeledDataset, min_pts: int = 10) -> float:
    """Smallest eps at which the densest blob coheres into one cluster.

    The densest blob is the one whose points have the lowest median distance
    to their min_pts-th nearest neighbor (self included; the first blob wins
    ties). "Coheres" means: at (eps, min_pts), at least 90% of the blob's
    points are clustered and all of its clustered points share one cluster.
    That predicate is monotone in eps, so doubling from the blob's median
    radius brackets the threshold and bisection narrows it; the returned
    value is the passing endpoint of the final bracket (relative width 1e-6).

    The blob medians read each blob point's min_pts-th smallest d2 by radius
    doubling over the capped kth_d2 (_doubled_kth_d2): the bits of kth_d2 at
    r = 2^512, without its n * n d2 entries. When the densest blob's median
    is 0, as for a stack of coincident points, the bracket search below
    starts from the distance between the blob's two closest distinct
    points, and from 1e-9 only when all of them coincide. Each bracket
    [lo, hi] the search visits, at most a factor of two wide, sweeps the
    neighbor tiles once at hi into a dbscan.EpsBracket, which reads its own
    core distances (capped at hi) off those tiles; its probes only relabel
    from the pairs that sweep kept.
    Memory is O(n + kept pairs + one tile): coincident stacks fold into the
    bracket's base forest, and kept pairs past a budget are cut to the
    closest between two of its components.
    """
    return _tuned_scan(labeled, min_pts)[0]


def _tuned_scan(labeled: LabeledDataset, min_pts: int) -> tuple[float, Labeling]:
    """(eps, labeling): tune_eps_densest's eps, and what run_dbscan returns at (eps, min_pts).

    The labeling comes from the last bracket the search built, which spans
    eps, so a caller that also wants the fixed scan at the tuned eps gets
    it without another sweep.
    """
    min_pts = check_int(min_pts, "min_pts", 1)
    ds = labeled.dataset
    truth = labeled.truth
    members = np.flatnonzero(truth != NOISE)
    if members.size == 0:
        raise DataError("dataset truth has no clusters to tune against")
    if len(ds) < min_pts:
        raise DataError(f"tuning needs at least min_pts={min_pts} points, dataset has {len(ds)}")

    index = build_index(ds)
    radii = np.sqrt(_doubled_kth_d2(index, min_pts, members)[members])
    order = np.lexsort((radii, truth[members]))  # by blob id, then radius
    blobs, radii = truth[members][order], radii[order]
    s = np.flatnonzero(np.append(True, blobs[1:] != blobs[:-1]))  # each blob's sorted run [s, e)
    e = np.append(s[1:], blobs.size)
    medians = (radii[(s + e - 1) // 2] + radii[(s + e) // 2]) / 2  # np.median imports numpy.ma
    densest = int(np.argmin(medians))  # argmin takes the first minimum: lowest blob id
    target = np.flatnonzero(truth == blobs[s[densest]])

    def coheres(lab: Labeling) -> bool:
        t = lab.labels[target]
        clustered = t[t != NOISE]
        if clustered.size < 0.9 * target.size:
            return False
        return bool((clustered == clustered[0]).all())

    # Double from the blob's own density scale so probes stay cheap. The
    # doubling ends, with hi finite: len(ds) >= min_pts, so once eps * eps
    # reaches the largest pairwise d2 or overflows, as it does from 2^512 on,
    # every point is core and all form one cluster. Each EpsBracket spans a
    # factor of two and answers every probe made while it stands. The first
    # starts at hi / 2, not 0, so that pairs already core-core there fold
    # into its forest; at 0 only coincident stacks would.
    hi = float(medians[densest])
    if hi == 0.0:  # a stack: start from the blob's two closest distinct points, if it has two
        sites = np.unique(ds.coords[target], axis=0)
        if len(sites) > 1:
            gaps = _doubled_kth_d2(build_index(Dataset(sites)), 2, np.arange(len(sites)))
            gaps = gaps[gaps > 0]  # a d2 may underflow to 0
            hi = math.sqrt(gaps.min()) if gaps.size else 0.0
    lo, hi = 0.0, min(max(hi, 1e-9), _SQUARE_OVERFLOWS)
    bracket = EpsBracket(index, min_pts, 0.5 * hi, hi)
    while not coheres(scan := bracket.labeling(hi)):
        lo, hi = hi, 2.0 * hi
        bracket = EpsBracket(index, min_pts, lo, hi)
    while hi - lo > max(1e-9, _REL_TOL * hi):
        mid = 0.5 * (lo + hi)
        if mid < bracket.lo:  # lo is still 0, and the blob cohered at every probe so far
            bracket = EpsBracket(index, min_pts, mid, hi)
        if coheres(probe := bracket.labeling(mid)):
            hi, scan = mid, probe
        else:
            lo = mid
    return hi, scan

