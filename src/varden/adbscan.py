"""Picking eps: the adaptive escalation loop and the eps tuner.

Each run_adbscan iteration runs a full density scan on whatever points
remain. When the scan's largest cluster holds more than accept_fraction of
the ORIGINAL point count it is accepted and its points leave the working
set; either way, eps and the (real-valued) min_pts accumulator escalate by
the step before the next iteration. The loop stops at k accepted clusters,
when the remainder falls to residual_fraction of the original size or
below, when eps passes eps_cap, or after max_iters iterations.
tune_eps_densest finds the best single radius with one neighbor scan per
bracket, usually one in all: its probes read the blob's roots off the pairs
that scan kept (dbscan.EpsBracket), and each probe that fails joins the
pairs that are edges at its radius into the bracket's forest, so that the
later probes, all above it, join only the rest. Its blob medians come from
capped core distances at doubling radii, usually one sweep's worth.
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
    _cluster_sizes,
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
    the lowest cluster id. DataError for cluster ids below -1 or not
    contiguous from 0.
    """
    sizes = _cluster_sizes(labeling.labels)
    if sizes.size == 0:
        return None
    cid = int(np.argmax(sizes))  # argmax takes the first maximum: lowest id
    if sizes[cid] > accept_fraction * n_original:
        return cid
    return None


def remove_cluster(dataset: Dataset, labeling: Labeling, cluster_id: int) -> tuple[Dataset, np.ndarray]:
    """Drop one cluster's points; returns the survivors and their old indices.

    DataError unless the labeling covers the dataset's points.
    """
    if len(labeling) != len(dataset):
        raise DataError(f"labeling covers {len(labeling)} points, dataset has {len(dataset)}")
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


def _kth_sweeps(index: NeighborIndex, k: int, rows: np.ndarray, r: float):
    """Yield (out, r) after each capped sweep at r, 2r, 4r, ...: out is kth_d2(index, k, 2^512) on the rows read so far, NaN elsewhere.

    Each sweep reads only the rows still NaN; a value is the same at every
    radius at which it is defined. Once r * r reaches every d2, or
    overflows from 2^512 on, every value is defined for k <= n, and the
    sweeps end. A caller that has what it needs stops early.
    """
    out = np.full(len(index.dataset), np.nan)
    while True:
        out[rows] = kth_d2(index, k, r, rows)[rows]
        yield out, r
        rows = rows[np.isnan(out[rows])]
        if not rows.size or r == _SQUARE_OVERFLOWS:
            return
        r = min(2.0 * r, _SQUARE_OVERFLOWS)


def _spread_radius(dataset: Dataset, k: int) -> float:
    """An eighth of spread * (k / n)^(1 / d), spread the largest axis's, about the radius of a k-ball at the average density.

    Kept within [2^-511, 2^512]: below 2^-511, r * r is subnormal. The
    sweeps from it are few: it lies within a factor of
    8 * sqrt(d) * (n / k)^(1 / d) of the diameter, or at 2^-511.
    """
    n, dim = dataset.coords.shape
    with np.errstate(over="ignore"):  # an inf spread clamps to 2^512
        spread = float(np.max(np.subtract(*dataset.bounds()[::-1])))
    return min(max(spread * (k / n) ** (1 / dim) / 8, 2.0**-511), _SQUARE_OVERFLOWS)


def _doubled_kth_d2(index: NeighborIndex, k: int, rows: np.ndarray) -> np.ndarray:
    """kth_d2(index, k, 2^512) on rows and NaN elsewhere, by every sweep of _kth_sweeps from _spread_radius."""
    for out, _ in _kth_sweeps(index, k, rows, _spread_radius(index.dataset, k)):
        pass
    return out


def _densest_blob(index: NeighborIndex, k: int, truth: np.ndarray) -> tuple[int, float]:
    """(id, median) of the blob whose rows have the lowest median sqrt(kth_d2(index, k, 2^512)); the lowest id wins ties.

    The rows are read by _kth_sweeps from the smallest positive blob scale,
    spread * (k / size)^(1 / d) / 2 with spread the blob's largest axis's,
    about the radius of a k-ball at the blob's density. Only blobs of at
    least k points have a scale: a smaller one's k-th neighbours lie
    outside it, however close its own points are. The start is never
    above _spread_radius, which is also where it is when no blob has a
    scale, as when each blob of k or more points is one stack.

    The sweeps stop once they decide the blob. A row still NaN after a
    sweep at r counts as the least radius it can have, sqrt of the double
    after fl(r * r), which is at least every defined radius: so each
    blob's median is at most its exact one, and is exact where more than
    half its rows are defined. Once the first of the least medians is
    exact, no other blob's exact median can be lower, nor equal with a
    lower id. That is usually after the first sweep, whose small radius
    measures few candidates.
    """
    members = np.flatnonzero(truth != NOISE)
    members = members[np.argsort(truth[members], kind="stable")]  # by blob id
    blobs = truth[members]
    s = np.flatnonzero(np.append(True, blobs[1:] != blobs[:-1]))  # each blob's run [s, e)
    e = np.append(s[1:], blobs.size)
    dim = index.dataset.dim
    axes = [index.dataset.coords[members, ax] for ax in range(dim)]  # one axis at a time, as Dataset.bounds
    with np.errstate(over="ignore"):  # an inf spread gives an inf scale, which the start radius clamps
        spread = np.max([np.maximum.reduceat(x, s) - np.minimum.reduceat(x, s) for x in axes], axis=0)
    scale = (spread * (k / (e - s)) ** (1 / dim) / 2)[(e - s >= k) & (spread > 0)]
    r = _spread_radius(index.dataset, k)
    if scale.size:
        r = min(max(float(scale.min()), 2.0**-511), r)
    for out, r in _kth_sweeps(index, k, members, r):
        d2 = out[members]
        radii = np.where(np.isnan(d2), np.sqrt(np.nextafter(r * r, math.inf)), np.sqrt(d2))
        radii = radii[np.lexsort((radii, blobs))]  # by blob id, then radius
        medians = (radii[(s + e - 1) // 2] + radii[(s + e) // 2]) / 2  # np.median imports numpy.ma
        densest = int(np.argmin(medians))  # argmin takes the first minimum: lowest blob id
        if np.count_nonzero(~np.isnan(d2[s[densest] : e[densest]])) * 2 > e[densest] - s[densest]:
            break  # its median is exact; the last sweep defines every row
    return int(blobs[s[densest]]), float(medians[densest])


def tune_eps_densest(labeled: LabeledDataset, min_pts: int = 10) -> float:
    """A radius at which the densest blob coheres into one cluster, found by doubling, then bisection.

    The densest blob is the one whose points have the lowest median distance
    to their min_pts-th nearest neighbor (self included; the first blob wins
    ties). "Coheres" means: at (eps, min_pts), at least 90% of the blob's
    points are clustered and all of its clustered points share one cluster.
    The search doubles eps from the blob's median radius until the blob
    coheres, then bisects between the last failing radius (0 at first) and
    the first passing one. It returns the passing endpoint of the final
    bracket (relative width 1e-6): the blob coheres there, and the other
    end is 0 or a radius at which it did not. That need not be the smallest radius at which the
    blob coheres, since the predicate is not monotone in eps: a radius can
    put a stray target point into a cluster of non-target points before it
    reaches the blob's own cluster, so the blob coheres, then does not, then
    does again as eps grows.

    The blob medians read each blob point's min_pts-th smallest d2 by
    capped kth_d2 sweeps at doubling radii (_densest_blob), from the
    smallest blob's scale: the bits of kth_d2 at r = 2^512, and usually one
    sweep, which stops once it decides the densest blob. When that blob's
    median is 0, as for a stack of coincident points, the search starts
    from the distance between the blob's two closest distinct points, and
    from 1e-9 only when all of them coincide. Each bracket [lo, hi] the
    search visits sweeps the neighbor tiles once at hi into a
    dbscan.EpsBracket, which reads its own core distances (capped at hi)
    off those tiles; the first spans [m / 2, 2m] around the start m, so it
    answers both the first two doubling probes and the bisection inside
    either, and the later ones span a factor of two. A probe reads only the
    blob's roots off the bracket's forest, with no Labeling, and a probe
    that fails raises the bracket's lo to its radius (EpsBracket._narrow),
    since every later probe lies above it.
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
    if (truth == NOISE).all():
        raise DataError("dataset truth has no clusters to tune against")
    if len(ds) < min_pts:
        raise DataError(f"tuning needs at least min_pts={min_pts} points, dataset has {len(ds)}")

    index = build_index(ds)
    blob, hi = _densest_blob(index, min_pts, truth)
    target = np.flatnonzero(truth == blob)

    # Double from the blob's own density scale so probes stay cheap. The
    # doubling ends, with hi finite: len(ds) >= min_pts, so once eps * eps
    # reaches the largest pairwise d2 or overflows, as it does from 2^512 on,
    # every point is core and all form one cluster. Each EpsBracket answers
    # every probe made while it stands. The first spans [hi / 2, 2 * hi], so
    # it answers the probes at hi and 2 * hi and the bisection below either;
    # it starts at hi / 2, not 0, so that pairs already core-core there fold
    # into its forest, where at 0 only coincident stacks would. Each later
    # one spans a factor of two. After each failed probe the search never
    # probes at or below it again, so the bracket narrows to it.
    if hi == 0.0:  # a stack: start from the blob's two closest distinct points, if it has two
        sites = np.unique(ds.coords[target], axis=0, return_index=True)[0]  # without return_index, unique imports numpy.ma
        if len(sites) > 1:
            gaps = _doubled_kth_d2(build_index(Dataset(sites)), 2, np.arange(len(sites)))
            gaps = gaps[gaps > 0]  # a d2 may underflow to 0
            hi = math.sqrt(gaps.min()) if gaps.size else 0.0
    lo, hi = 0.0, min(max(hi, 1e-9), _SQUARE_OVERFLOWS)
    bracket = EpsBracket(index, min_pts, 0.5 * hi, 2.0 * hi)
    while not _coheres(bracket, target, hi):
        lo, hi = hi, 2.0 * hi
        if hi > bracket.hi:
            bracket = EpsBracket(index, min_pts, lo, hi)
        bracket._narrow(lo)
    while hi - lo > max(1e-9, _REL_TOL * hi):
        mid = 0.5 * (lo + hi)
        if mid < bracket.lo:  # lo is still 0, and the blob cohered at every probe so far
            bracket = EpsBracket(index, min_pts, mid, hi)
        if _coheres(bracket, target, mid):
            hi = mid
        else:
            lo = mid
            bracket._narrow(lo)
    return hi, bracket.labeling(hi)


def _coheres(bracket: EpsBracket, target: np.ndarray, eps: float) -> bool:
    """tune_eps_densest's predicate on the target rows at eps in [bracket.lo, bracket.hi].

    Read off the bracket's roots view (EpsBracket._roots), with no Labeling:
    the roots of the clustered target rows stand for their clusters.
    """
    roots = bracket._roots(eps)[target]
    clustered = roots[roots < bracket.core_d2.size]  # noise has root n
    return clustered.size >= 0.9 * target.size and bool((clustered == clustered[0]).all())
