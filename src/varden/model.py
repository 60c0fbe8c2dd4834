"""Core data types shared across the library.

Points live in d-dimensional Euclidean space (d >= 1). Cluster ids are
contiguous integers starting at 0; ``NOISE`` (-1) marks unclustered points.
"""
from __future__ import annotations

import contextlib
import enum
import math
from dataclasses import dataclass

import numpy as np

NOISE = -1

STOP_K_REACHED = "k_reached"
STOP_RESIDUAL = "residual"
STOP_EPS_CAP = "eps_cap"
STOP_MAX_ITERS = "max_iters"


class VardenError(Exception):
    """Base class for all library errors."""


class DataError(VardenError):
    """Raised for malformed datasets, files, or labelings."""


class ParamError(VardenError):
    """Raised for parameter values outside their legal range."""


@contextlib.contextmanager
def _data_errors(what: str):
    """Turn a raw TypeError, ValueError or OverflowError from converting what into a DataError."""
    try:
        yield
    except (TypeError, ValueError, OverflowError) as err:
        raise DataError(f"malformed {what}: {err}") from err


def _integers(values, dtype, what: str) -> np.ndarray:
    """A new array of values as the integer dtype; DataError unless every value is an integer it holds.

    As in check_int, an integral float stands for its integer. An array of
    the dtype already is only copied.
    """
    with _data_errors(what):
        raw = np.asarray(values)
        if raw.dtype == dtype:
            return raw.copy()
        if raw.dtype.kind in "fiu":
            info = np.iinfo(dtype)
            ok = (raw == np.trunc(raw)) & (raw >= info.min) & (raw <= info.max) & (abs(raw) < 2.0**63)
            bad = np.flatnonzero(~ok)
            if bad.size:
                raise DataError(f"malformed {what}: {raw.flat[bad[0]].item()!r} is not an integer in [{info.min}, {info.max}]")
        return raw.astype(dtype)


class PointClass(enum.IntEnum):
    """Role of a point in a density clustering."""

    NOISE = 0
    BORDER = 1
    CORE = 2

    @property
    def token(self) -> str:
        return self.name.lower()


@dataclass(frozen=True)
class Point:
    """An immutable coordinate vector."""

    coords: tuple[float, ...]

    def __post_init__(self) -> None:
        with _data_errors("point coordinates"):
            coords = tuple(float(c) for c in self.coords)
        if not coords:
            raise DataError("point must have at least one coordinate")
        object.__setattr__(self, "coords", coords)

    @property
    def x(self) -> float:
        return self.coords[0]

    @property
    def y(self) -> float:
        if len(self.coords) < 2:
            raise DataError("point has no y coordinate")
        return self.coords[1]

    def __len__(self) -> int:
        return len(self.coords)

    def __iter__(self):
        return iter(self.coords)

    def __getitem__(self, i: int) -> float:
        return self.coords[i]


@dataclass(frozen=True, eq=False)
class Dataset:
    """An ordered collection of points; a point's id is its index.

    coords: float64 array of shape (n, d), marked read-only on construction.
    """

    coords: np.ndarray

    def __post_init__(self) -> None:
        with _data_errors("coordinates"):
            arr = np.asarray(self.coords, dtype=np.float64)
        if arr.ndim != 2:
            raise DataError(f"coordinates must be a 2-d array, got ndim={arr.ndim}")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "coords", arr)

    @classmethod
    def from_points(cls, points) -> "Dataset":
        with _data_errors("points"):
            rows = [tuple(p) for p in points]
        if not rows:
            return cls(np.empty((0, 2)))
        return cls(rows)

    def __len__(self) -> int:
        return self.coords.shape[0]

    @property
    def dim(self) -> int:
        return self.coords.shape[1]

    def point(self, i: int) -> Point:
        return Point(tuple(self.coords[check_int(i, "point index", 0, len(self), DataError)]))

    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """(mins, maxs) across all points; requires a nonempty dataset."""
        if len(self) == 0:
            raise DataError("empty dataset has no bounds")
        return self.coords.min(axis=0), self.coords.max(axis=0)


@dataclass(frozen=True, eq=False)
class LabeledDataset:
    """A dataset together with its ground-truth labels.

    truth: int array aligned with the dataset; blob/cluster index per point,
    NOISE (-1) for background points.
    """

    dataset: Dataset
    truth: np.ndarray

    def __post_init__(self) -> None:
        truth = _integers(self.truth, np.int64, "truth labels")
        if truth.shape != (len(self.dataset),):
            raise DataError(
                f"truth labels cover {truth.shape} points, dataset has {len(self.dataset)}"
            )
        truth.flags.writeable = False
        object.__setattr__(self, "truth", truth)

    def __len__(self) -> int:
        return len(self.dataset)


def validate_dataset(ds: Dataset) -> None:
    """Raise DataError unless ds is nonempty, finite, and at least 1-d."""
    if not isinstance(ds, Dataset):
        raise DataError(f"expected a Dataset, got {type(ds).__name__}")
    if len(ds) == 0:
        raise DataError("dataset is empty")
    if ds.dim < 1:
        raise DataError("dataset must have at least one coordinate axis")
    check_finite(ds)


def check_finite(ds: Dataset) -> None:
    """Raise DataError naming the first point of ds with a non-finite coordinate."""
    finite = np.isfinite(ds.coords).all(axis=1)
    if not finite.all():
        raise DataError(f"non-finite coordinate at point {int(np.flatnonzero(~finite)[0])}")


def check_int(value, name: str, low: int, high: int | None = None, error: type[VardenError] = ParamError) -> int:
    """value as an int (3.0 is 3); error, never a raw ValueError or
    OverflowError, unless it is an integer >= low (and < high when given)."""
    try:
        n = int(value)
    except (TypeError, ValueError, OverflowError):
        n = None
    if n is None or n != value or n < low or (high is not None and n >= high):
        bound = f">= {low}" if high is None else f"in [{low}, {high})"
        raise error(f"{name} must be an integer {bound}, got {value!r}")
    return n


def check_float(
    value, name: str, low: float = -math.inf, high: float = math.inf, closed: bool = False,
    error: type[VardenError] = ParamError,
) -> float:
    """value as a float; error, never a raw TypeError or ValueError, unless
    it is finite, > low (>= low when closed) and < high."""
    try:
        x = float(value)
    except (TypeError, ValueError, OverflowError):
        x = math.nan
    if not (math.isfinite(x) and (x >= low if closed else x > low) and x < high):
        if high < math.inf:
            bound = f"in {'[' if closed else '('}{low}, {high})"
        else:
            bound = "finite" + (f" and {'>=' if closed else '>'} {low}" if low > -math.inf else "")
        raise error(f"{name} must be {bound}, got {value!r}")
    return x


@dataclass(frozen=True)
class DbscanParams:
    """Parameters for a single density scan.

    eps: neighborhood radius (closed ball), finite and > 0.
    min_pts: density threshold, >= 1; a point's own neighborhood counts it.
    """

    eps: float
    min_pts: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "eps", check_float(self.eps, "eps", 0))
        object.__setattr__(self, "min_pts", check_int(self.min_pts, "min_pts", 1))


@dataclass(frozen=True, eq=False)
class Labeling:
    """Per-point cluster assignment (from one scan, or an AdaptiveResult).

    labels: int array, cluster id per point, NOISE (-1) for unclustered.
    classes: int8 array of PointClass values, aligned with labels.
    DataError unless labels is 1-d and classes has its shape.
    """

    labels: np.ndarray
    classes: np.ndarray

    def __post_init__(self) -> None:
        labels = _integers(self.labels, np.int64, "cluster labels")
        classes = _integers(self.classes, np.int8, "point classes")
        if labels.ndim != 1:
            raise DataError(f"cluster labels must be 1-d, got shape {labels.shape}")
        if classes.shape != labels.shape:
            raise DataError(f"labels and classes have different shapes, {labels.shape} and {classes.shape}")
        labels.flags.writeable = False
        classes.flags.writeable = False
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "classes", classes)

    def __len__(self) -> int:
        return self.labels.shape[0]

    @property
    def n_clusters(self) -> int:
        return int(self.labels.max()) + 1 if self.labels.size and self.labels.max() >= 0 else 0

    def point_class(self, i: int) -> PointClass:
        return PointClass(int(self.classes[check_int(i, "point index", 0, len(self), DataError)]))


def validate_labeling(lab: Labeling, n: int | None = None) -> None:
    """Raise DataError unless lab is internally consistent.

    Checks: length n when given (labels and classes are aligned 1-d arrays
    by construction), labels >= -1,
    cluster ids contiguous from 0, and label == NOISE exactly where the class
    is NOISE.
    """
    if n is not None and len(lab) != n:
        raise DataError(f"labeling covers {len(lab)} points, expected {n}")
    if lab.labels.size == 0:
        return
    if lab.labels.min() < NOISE:
        raise DataError("cluster ids below -1")
    top = int(lab.labels.max())
    if top >= 0:
        # ids 0..top need top + 1 points, which bounds the count array
        if top >= len(lab) or not np.bincount(lab.labels[lab.labels >= 0]).all():
            raise DataError("cluster ids are not contiguous from 0")
    noise_by_label = lab.labels == NOISE
    noise_by_class = lab.classes == int(PointClass.NOISE)
    if not np.array_equal(noise_by_label, noise_by_class):
        raise DataError("noise labels and noise classes disagree")


@dataclass(frozen=True)
class AdbscanParams:
    """Parameters for the adaptive escalation loop.

    eps0/min_pts0 seed the first scan; after every iteration both escalate by
    ``step`` (the real-valued min_pts accumulator is ceiled at use). A cluster
    is accepted only while the largest one holds more than accept_fraction of
    the ORIGINAL point count; the loop stops at k clusters, at a remainder of
    residual_fraction or less, when eps passes eps_cap, or after max_iters.
    eps_step/min_pts_step, when set, override ``step`` per axis.
    """

    k: int
    eps0: float = 0.5
    min_pts0: float = 10.0
    step: float = 0.5
    accept_fraction: float = 0.10
    residual_fraction: float = 0.05
    eps_cap: float | None = None
    max_iters: int = 100
    eps_step: float | None = None
    min_pts_step: float | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "k", check_int(self.k, "k", 1))
        object.__setattr__(self, "eps0", check_float(self.eps0, "eps0", 0))
        # min_pts0 may be real: it seeds the same fractional accumulator the
        # half-steps feed, and scans ceil it before use.
        object.__setattr__(self, "min_pts0", check_float(self.min_pts0, "min_pts0", 1, closed=True))
        object.__setattr__(self, "step", check_float(self.step, "step", 0, closed=True))
        for name, closed in (("eps_step", True), ("min_pts_step", True), ("eps_cap", False)):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, check_float(getattr(self, name), name, 0, closed=closed))
        object.__setattr__(self, "accept_fraction", check_float(self.accept_fraction, "accept_fraction", 0, 1))
        object.__setattr__(
            self, "residual_fraction", check_float(self.residual_fraction, "residual_fraction", 0, 1, closed=True)
        )
        object.__setattr__(self, "max_iters", check_int(self.max_iters, "max_iters", 1))


@dataclass(frozen=True)
class IterationRecord:
    """What one escalation iteration did.

    index: 1-based iteration number.
    eps / min_pts: parameters used for this scan (min_pts already ceiled).
    min_pts_real: the fractional accumulator behind min_pts.
    n_clusters_found: clusters the scan produced on the remaining points.
    largest_size: size of the scan's largest cluster (0 when none).
    accepted: whether the largest cluster was kept.
    accepted_size: size of the kept cluster, 0 when none was kept.
    remaining: points still unassigned after this iteration.
    """

    index: int
    eps: float
    min_pts: int
    min_pts_real: float
    n_clusters_found: int
    largest_size: int
    accepted: bool
    accepted_size: int
    remaining: int


@dataclass(frozen=True, eq=False)
class AdaptiveResult(Labeling):
    """Outcome of the adaptive loop: a Labeling plus how the loop got there.

    labels: final cluster id per original point (NOISE for never-assigned).
    classes: PointClass per point, taken from the scan that claimed it
        (NOISE for points no accepted cluster ever claimed).
    trace: one IterationRecord per iteration, in order.
    stop_reason: which budget ended the loop (STOP_* constants).
    """

    trace: tuple[IterationRecord, ...] = ()
    stop_reason: str = STOP_K_REACHED

    def __post_init__(self) -> None:
        super().__post_init__()
        object.__setattr__(self, "trace", tuple(self.trace))

    @property
    def iterations(self) -> int:
        return len(self.trace)

    def as_labeling(self) -> Labeling:
        return Labeling(self.labels, self.classes)
