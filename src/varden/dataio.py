"""CSV dataset I/O, content hashing, and run manifests.

All output is byte-deterministic for fixed inputs: floats are serialized
with repr() (shortest decimal that round-trips exactly), rows follow
dataset order, and manifests hold no timestamps. The manifest is a flat
``key value`` text file that re-parses losslessly.
"""
from __future__ import annotations

import codecs
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
_BLOCK = 256  # rows formatted per write


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
    plain Dataset when no truth column is present. A UTF-8 byte order mark
    is skipped, and a byte that is not UTF-8 is a ParseError at its line and
    field. Errors name the first bad field in file order.
    """
    p = Path(path)
    try:
        text = _utf8_text(p.read_bytes())
    except OSError as exc:
        raise FileNotFound(f"cannot read {path}: {exc}") from None

    values: list[float] = []  # x, y of every data row so far, flat
    truth: list[int] = []
    ncols: int | None = None
    header = saw_truth = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        fields = line.split(",")
        if lineno == 1 and not _is_number(fields[0]):
            header = True
            continue
        if ncols is None:
            ncols = len(fields)
            if ncols not in (2, 3, 4):
                raise DimensionMismatch(
                    f"line {lineno}: expected 2 coordinate columns plus optional "
                    f"truth/class, got {ncols} fields"
                )
            saw_truth = ncols >= 3
        elif len(fields) != ncols:
            _check_finite(values, text, header)
            raise DimensionMismatch(f"line {lineno}: {len(fields)} fields, expected {ncols}")
        try:
            values.append(float(fields[0]))  # float() strips whitespace as str.strip() does
            values.append(float(fields[1]))
        except ValueError:
            col = len(values) % 2 + 1
            _check_finite(values, text, header)
            raise ParseError(lineno, col, f"not a number: {fields[col - 1].strip()!r}") from None
        if saw_truth:
            t = _parse_truth(fields[2].strip())
            if t is None:
                _check_finite(values, text, header)
                raise ParseError(
                    lineno, 3, f"expected a cluster id or {NOISE_TOKEN!r}, got {fields[2].strip()!r}"
                )
            truth.append(t)
    if not values:
        raise ParseError(1, 1, "no data rows")
    coords = np.array(values, dtype=np.float64).reshape(-1, 2)
    _check_finite(coords, text, header)
    ds = Dataset(coords)
    if saw_truth:
        return LabeledDataset(ds, np.asarray(truth, dtype=np.int64))
    return ds


def write_csv(dataset: Dataset, labeling: Labeling, path) -> None:
    """Write `x,y,cluster,class` rows in dataset order; -1 marks noise."""
    if len(labeling) != len(dataset):
        raise DataError(f"labeling covers {len(labeling)} points, dataset has {len(dataset)}")
    if dataset.dim != 2:
        raise DataError(f"CSV schema is 2-d, dataset is {dataset.dim}-d")
    classes = labeling.classes
    bad = classes[(classes < 0) | (classes >= len(PointClass))]
    if bad.size:
        PointClass(int(bad[0]))  # raises the ValueError the enum gives for a bad class code
    tokens = tuple(c.token for c in PointClass)
    coords, labels = dataset.coords, labeling.labels
    with Path(path).open("w", encoding="utf-8") as out:
        out.write("x,y,cluster,class\n")
        for s in range(0, len(dataset), _BLOCK):
            b = slice(s, s + _BLOCK)
            xs, ys = coords[b].T.tolist()
            rows = zip(xs, ys, labels[b].tolist(), classes[b].tolist())
            out.write("".join(f"{x!r},{y!r},{lab},{tokens[c]}\n" for x, y, lab, c in rows))


def write_dataset_csv(d: LabeledDataset, path) -> None:
    """Write a generated dataset with truth: `x,y,label`, noise as a token."""
    if d.dataset.dim != 2:
        raise DataError(f"CSV schema is 2-d, dataset is {d.dataset.dim}-d")
    coords, truth = d.dataset.coords, d.truth
    with Path(path).open("w", encoding="utf-8") as out:
        out.write("x,y,label\n")
        for s in range(0, len(d), _BLOCK):
            b = slice(s, s + _BLOCK)
            xs, ys = coords[b].T.tolist()
            rows = zip(xs, ys, truth[b].tolist())
            out.write("".join(f"{x!r},{y!r},{NOISE_TOKEN if t == NOISE else t}\n" for x, y, t in rows))


_INT_RE = re.compile(r"^[+-]?\d+$")


def _utf8_text(data: bytes) -> str:
    """data decoded as UTF-8, past one byte order mark; a byte that is not UTF-8 is a ParseError."""
    data = data.removeprefix(codecs.BOM_UTF8)
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # the x stands for the bad byte, so that a line break just before it counts
        lines = (data[: exc.start].decode("utf-8") + "x").splitlines()
        raise ParseError(
            len(lines), lines[-1].count(",") + 1, f"not UTF-8: byte 0x{data[exc.start]:02x} ({exc.reason})"
        ) from None


def _is_number(s: str) -> bool:
    try:
        float(s)
        return True
    except ValueError:
        return False


def _check_finite(values, text: str, header: bool) -> None:
    """Raise a ParseError at the first non-finite value among values: the
    x, y of text's data rows, flat, in order (the last row may lack its y)."""
    bad = np.flatnonzero(~np.isfinite(np.asarray(values, dtype=np.float64).ravel()))
    if bad.size:
        row, col = divmod(int(bad[0]), 2)
        # data rows are the nonblank lines but a header, which can only be the first
        data = [(i, line) for i, raw in enumerate(text.splitlines(), start=1) if (line := raw.strip())]
        lineno, line = data[header + row]
        raise ParseError(lineno, col + 1, f"non-finite coordinate: {line.split(',')[col].strip()!r}")


def _parse_truth(s: str) -> int | None:
    """The truth id s names, or None when it is not a cluster id or the noise token."""
    if s == NOISE_TOKEN:
        return NOISE
    if _INT_RE.match(s):
        v = int(s)
        if v >= 0 or v == NOISE:
            return v
    return None


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
