"""CSV dataset I/O, content hashing, and run manifests.

All output is byte-deterministic for fixed inputs: floats are serialized
with repr() (shortest decimal that round-trips exactly), rows follow
dataset order, and manifests hold no timestamps. The manifest is a flat
``key value`` text file that re-parses losslessly.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .metrics import EvalReport
from .model import (
    DataError,
    Dataset,
    IterationRecord,
    Labeling,
    LabeledDataset,
    NOISE,
    PointClass,
)

NOISE_TOKEN = "noise"

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1


class FileNotFound(DataError):
    """The input path does not exist or cannot be opened."""


class ParseError(DataError):
    """A CSV field could not be parsed; carries 1-based line and column."""

    def __init__(self, line: int, column: int, message: str) -> None:
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class DimensionMismatch(DataError):
    """A row's field count disagrees with the rest of the file."""


def dataset_hash(dataset: Dataset) -> int:
    """FNV-1a 64 over the coordinates as big-endian IEEE doubles, row order."""
    data = dataset.coords.astype(">f8").tobytes()
    h = _FNV_OFFSET
    for b in data:
        h = ((h ^ b) * _FNV_PRIME) & _MASK64
    return h


def read_csv(path) -> Dataset | LabeledDataset:
    """Parse `x,y[,truth]` rows; header optional (non-numeric first cell).

    The truth column takes an integer cluster id, -1, or the token `noise`.
    Four-column files written by write_csv also load: the cluster column
    becomes the truth channel and the class column is ignored. Returns a
    plain Dataset when no truth column is present.
    """
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except OSError as exc:
        raise FileNotFound(f"cannot read {path}: {exc}") from None

    rows: list[tuple[float, float]] = []
    truth: list[int] = []
    ncols: int | None = None
    saw_truth = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        fields = [f.strip() for f in line.split(",")]
        if lineno == 1 and not _is_number(fields[0]):
            continue  # header row
        if ncols is None:
            ncols = len(fields)
            if ncols not in (2, 3, 4):
                raise DimensionMismatch(
                    f"line {lineno}: expected 2 coordinate columns plus optional "
                    f"truth/class, got {ncols} fields"
                )
            saw_truth = ncols >= 3
        elif len(fields) != ncols:
            raise DimensionMismatch(f"line {lineno}: {len(fields)} fields, expected {ncols}")
        x = _parse_float(fields[0], lineno, 1)
        y = _parse_float(fields[1], lineno, 2)
        rows.append((x, y))
        if saw_truth:
            truth.append(_parse_truth(fields[2], lineno, 3))
    if not rows:
        raise ParseError(1, 1, "no data rows")
    ds = Dataset(np.asarray(rows, dtype=np.float64))
    if saw_truth:
        return LabeledDataset(ds, np.asarray(truth, dtype=np.int64))
    return ds


def write_csv(dataset: Dataset, labeling: Labeling, path) -> None:
    """Write `x,y,cluster,class` rows in dataset order; -1 marks noise."""
    if len(labeling) != len(dataset):
        raise DataError(f"labeling covers {len(labeling)} points, dataset has {len(dataset)}")
    if dataset.dim != 2:
        raise DataError(f"CSV schema is 2-d, dataset is {dataset.dim}-d")
    lines = ["x,y,cluster,class"]
    coords = dataset.coords
    for i in range(len(dataset)):
        cls = PointClass(int(labeling.classes[i])).token
        lines.append(
            f"{float(coords[i, 0])!r},{float(coords[i, 1])!r},{int(labeling.labels[i])},{cls}"
        )
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_dataset_csv(d: LabeledDataset, path) -> None:
    """Write a generated dataset with truth: `x,y,label`, noise as a token."""
    if d.dataset.dim != 2:
        raise DataError(f"CSV schema is 2-d, dataset is {d.dataset.dim}-d")
    lines = ["x,y,label"]
    coords = d.dataset.coords
    for i in range(len(d)):
        t = int(d.truth[i])
        token = NOISE_TOKEN if t == NOISE else str(t)
        lines.append(f"{float(coords[i, 0])!r},{float(coords[i, 1])!r},{token}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


_INT_RE = re.compile(r"^[+-]?\d+$")


def _is_number(s: str) -> bool:
    try:
        float(s)
        return True
    except ValueError:
        return False


def _parse_float(s: str, line: int, col: int) -> float:
    try:
        v = float(s)
    except ValueError:
        raise ParseError(line, col, f"not a number: {s!r}") from None
    if not np.isfinite(v):
        raise ParseError(line, col, f"non-finite coordinate: {s!r}")
    return v


def _parse_truth(s: str, line: int, col: int) -> int:
    if s == NOISE_TOKEN:
        return NOISE
    if _INT_RE.match(s):
        v = int(s)
        if v >= 0 or v == NOISE:
            return v
    raise ParseError(line, col, f"expected a cluster id or {NOISE_TOKEN!r}, got {s!r}")


@dataclass(frozen=True)
class RunManifest:
    """Everything needed to audit one CLI run.

    params holds the full parameter record as plain key -> int/float/str;
    trace/stop_reason come from adaptive runs; report from evaluations.
    """

    command: str
    tool_version: str
    dataset_hash: int
    params: dict
    trace: tuple[IterationRecord, ...] | None = None
    stop_reason: str | None = None
    report: EvalReport | None = None


def format_manifest(m: RunManifest) -> str:
    """Flat `key value` lines; see parse_manifest for the schema."""
    lines = [
        f"command {m.command}",
        f"tool_version {m.tool_version}",
        f"dataset_hash 0x{m.dataset_hash:016x}",
    ]
    for key, value in m.params.items():
        lines.append(f"params.{key} {_format_value(value)}")
    if m.trace is not None:
        for rec in m.trace:
            lines.append(
                f"trace.{rec.index} eps={rec.eps!r} min_pts={rec.min_pts} "
                f"min_pts_real={rec.min_pts_real!r} found={rec.n_clusters_found} "
                f"largest={rec.largest_size} accepted={int(rec.accepted)} "
                f"accepted_size={rec.accepted_size} remaining={rec.remaining}"
            )
    if m.stop_reason is not None:
        lines.append(f"stop_reason {m.stop_reason}")
    if m.report is not None:
        for line in m.report.to_text().splitlines():
            lines.append(f"report.{line}")
    return "\n".join(lines) + "\n"


def write_manifest(m: RunManifest, path) -> None:
    Path(path).write_text(format_manifest(m), encoding="utf-8")


def parse_manifest(text: str) -> RunManifest:
    """Inverse of format_manifest; parse(format(m)) == m exactly."""
    command = tool_version = None
    ds_hash = None
    params: dict = {}
    trace: list[IterationRecord] = []
    stop_reason = None
    report_fields: dict = {}
    purities: dict[int, float] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        key, _, value = line.partition(" ")
        if key == "command":
            command = value
        elif key == "tool_version":
            tool_version = value
        elif key == "dataset_hash":
            ds_hash = int(value, 16)
        elif key == "stop_reason":
            stop_reason = value
        elif key.startswith("params."):
            params[key[len("params.") :]] = _parse_value(value)
        elif key.startswith("trace."):
            idx = int(key[len("trace.") :])
            kv = dict(tok.split("=", 1) for tok in value.split())
            trace.append(
                IterationRecord(
                    index=idx,
                    eps=float(kv["eps"]),
                    min_pts=int(kv["min_pts"]),
                    min_pts_real=float(kv["min_pts_real"]),
                    n_clusters_found=int(kv["found"]),
                    largest_size=int(kv["largest"]),
                    accepted=bool(int(kv["accepted"])),
                    accepted_size=int(kv["accepted_size"]),
                    remaining=int(kv["remaining"]),
                )
            )
        elif key.startswith("report.purity."):
            purities[int(key[len("report.purity.") :])] = float(value)
        elif key.startswith("report."):
            report_fields[key[len("report.") :]] = value
        else:
            raise DataError(f"unknown manifest key {key!r}")
    if command is None or tool_version is None or ds_hash is None:
        raise DataError("manifest missing command/tool_version/dataset_hash")
    report = None
    if report_fields:
        report = EvalReport(
            num_clusters_found=int(report_fields["num_clusters_found"]),
            ari=float(report_fields["ari"]),
            noise_fraction=float(report_fields["noise_fraction"]),
            per_cluster_purity=tuple(purities[i] for i in sorted(purities)),
        )
    return RunManifest(
        command=command,
        tool_version=tool_version,
        dataset_hash=ds_hash,
        params=params,
        trace=tuple(trace) if trace else None,
        stop_reason=stop_reason,
        report=report,
    )


def _format_value(v) -> str:
    if isinstance(v, bool):
        return str(int(v))
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _parse_value(s: str):
    if _INT_RE.match(s):
        return int(s)
    try:
        return float(s)
    except ValueError:
        return s
