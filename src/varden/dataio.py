"""CSV dataset I/O, content hashing, and run manifests.

All output is byte-deterministic for fixed inputs: floats are serialized
with repr() (shortest decimal that round-trips exactly), rows follow
dataset order, and manifests hold no timestamps. Both CSV writers, and
render_svg for its point circles, go through ``_write_blocks``, which
writes a file's rows ``_BLOCK`` at a time, each block formatted from its
tolist() columns.

read_csv parses a file of two-column rows with one np.loadtxt call where
that must give what its line loop gives: lines end in LF or CR LF, rows
have two fields, every value is finite (see _loadtxt_coords). Every other
file, labeled files and files with a bad field among them, goes through
the loop, which strips each field, parses it and checks it is finite, in
file order, and so names the first bad field by line and column.

The manifest is a flat ``key value`` text file that re-parses losslessly.
The tokens of a trace line are defined once, in ``_TRACE_FIELDS``, which
both format_manifest and parse_manifest read; parse_manifest raises
DataError for what format_manifest never writes (unknown keys, trace
tokens other than the table's, an ``accepted`` other than 0 or 1, purity
lines not numbered 0..k-1).
"""
from __future__ import annotations

import codecs
import io
import math
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
    field. Each field is stripped (str.strip) before it is parsed, and then
    checked to be finite; errors name the first bad field in file order.

    A file of finite x, y rows is parsed by np.loadtxt in one call; a loop
    over the lines reads every other file and raises every error.
    """
    p = Path(path)
    try:
        text = _utf8_text(p.read_bytes())
    except OSError as exc:
        raise FileNotFound(f"cannot read {path}: {exc}") from None
    coords = _loadtxt_coords(text)
    if coords is not None:
        return Dataset(coords)

    values: list[float] = []  # x, y of every data row so far, flat
    truth: list[int] = []
    ncols: int | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        fields = [f.strip() for f in line.split(",")]
        if lineno == 1 and not _is_number(fields[0]):
            continue  # a header
        if ncols is None:
            ncols = len(fields)
            if ncols not in (2, 3, 4):
                raise DimensionMismatch(
                    f"line {lineno}: expected 2 coordinate columns plus optional "
                    f"truth/class, got {ncols} fields"
                )
        elif len(fields) != ncols:
            raise DimensionMismatch(f"line {lineno}: {len(fields)} fields, expected {ncols}")
        values += (_coordinate(fields[0], lineno, 1), _coordinate(fields[1], lineno, 2))
        if ncols >= 3:
            t = _parse_truth(fields[2])
            if t is None:
                raise ParseError(lineno, 3, f"expected a cluster id or {NOISE_TOKEN!r}, got {fields[2]!r}")
            truth.append(t)
    if not values:
        raise ParseError(1, 1, "no data rows")
    ds = Dataset(np.array(values, dtype=np.float64).reshape(-1, 2))
    if ncols >= 3:
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
        raise DataError(f"{int(bad[0])} is not a valid PointClass")
    tokens = tuple(c.token for c in PointClass)
    coords, labels = dataset.coords, labeling.labels

    def rows(b: slice) -> str:
        xs, ys = coords[b].T.tolist()
        cells = zip(xs, ys, labels[b].tolist(), classes[b].tolist())
        return "".join(f"{x!r},{y!r},{lab},{tokens[c]}\n" for x, y, lab, c in cells)

    _write_blocks(path, len(dataset), "x,y,cluster,class\n", rows)


def write_dataset_csv(d: LabeledDataset, path) -> None:
    """Write a generated dataset with truth: `x,y,label`, noise as a token."""
    if d.dataset.dim != 2:
        raise DataError(f"CSV schema is 2-d, dataset is {d.dataset.dim}-d")
    coords, truth = d.dataset.coords, d.truth

    def rows(b: slice) -> str:
        xs, ys = coords[b].T.tolist()
        cells = zip(xs, ys, truth[b].tolist())
        return "".join(f"{x!r},{y!r},{NOISE_TOKEN if t == NOISE else t}\n" for x, y, t in cells)

    _write_blocks(path, len(d), "x,y,label\n", rows)


def _write_blocks(path, n: int, head: str, rows, tail: str = "") -> None:
    """Write head, then rows(b) for each slice b of up to _BLOCK of the n rows, in order, then tail.

    Formatting a block at a time from its tolist() columns keeps the memory
    one block's text and the work off per-row numpy scalars.
    """
    with Path(path).open("w", encoding="utf-8") as out:
        out.write(head)
        for s in range(0, n, _BLOCK):
            out.write(rows(slice(s, s + _BLOCK)))
        out.write(tail)


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


# Characters on which np.loadtxt and the line loop part. str.splitlines
# breaks a line at each but "\x1f", where loadtxt reads on (as it does at a
# "\r" without "\n"); the loop strips "\x1c" to "\x1f" off each field, as
# loadtxt does around a number, but _loadtxt_coords does not strip the
# field it checks for a header, where float() rejects them.
_LOOP_ONLY = ("\v", "\f", "\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\u2028", "\u2029")


def _loadtxt_coords(text: str) -> np.ndarray | None:
    r"""text's x, y rows as np.loadtxt's C parser reads them, where that must
    equal the line loop's Dataset; None where the loop must decide.

    That is where text breaks lines only at "\n" and "\r\n", its first data
    row has two fields (so that loadtxt finds a row and holds every row to
    two), and loadtxt parses it into finite values. Once the characters of
    _LOOP_ONLY are ruled out, loadtxt takes a field exactly when float()
    does, at the same value (checked for every code point before, after and
    between digits).
    """
    if any(c in text for c in _LOOP_ONLY) or ("\r" in text and text.count("\r") != text.count("\r\n")):
        return None  # the counts take 0.5 ms on a 265 kB file, and most files hold no "\r"
    lines = io.StringIO(text)
    start = 0
    if (first := lines.readline().strip()) and not _is_number(first.split(",")[0]):
        start = lines.tell()  # line 1 is a header
    lines.seek(start)
    if lines.readline().count(",") != 1:
        return None  # blank, or not two fields
    lines.seek(start)
    try:
        coords = np.loadtxt(lines, dtype=np.float64, delimiter=",", comments=None, ndmin=2)
    except ValueError:
        return None
    return coords if np.isfinite(coords).all() else None


def _is_number(s: str) -> bool:
    try:
        float(s)
        return True
    except ValueError:
        return False


def _coordinate(s: str, line: int, column: int) -> float:
    """The finite float field s names; a ParseError at its line and column otherwise."""
    try:
        v = float(s)
    except ValueError:
        raise ParseError(line, column, f"not a number: {s!r}") from None
    if not math.isfinite(v):
        raise ParseError(line, column, f"non-finite coordinate: {s!r}")
    return v


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


def _parse_flag(s: str) -> bool:
    return {"0": False, "1": True}[s]


# One row per token of a manifest trace line, in line order: its key, the
# IterationRecord field it holds, and the parser that reads the value back.
_TRACE_FIELDS = (
    ("eps", "eps", float),
    ("min_pts", "min_pts", int),
    ("min_pts_real", "min_pts_real", float),
    ("found", "n_clusters_found", int),
    ("largest", "largest_size", int),
    ("accepted", "accepted", _parse_flag),
    ("accepted_size", "accepted_size", int),
    ("remaining", "remaining", int),
)
_TRACE_RE = re.compile(" ".join(rf"{key}=(\S+)" for key, _, _ in _TRACE_FIELDS))
# The EvalReport fields a manifest report line holds, besides purity.<i>, with their parsers.
_REPORT_FIELDS = {"num_clusters_found": int, "ari": float, "noise_fraction": float}


def format_manifest(m: RunManifest) -> str:
    """Flat `key value` lines; see parse_manifest for the schema."""
    lines = [
        f"command {m.command}",
        f"tool_version {m.tool_version}",
        f"dataset_hash 0x{m.dataset_hash:016x}",
    ]
    for key, value in m.params.items():
        lines.append(f"params.{key} {_format_value(value)}")
    for rec in m.trace or ():
        tokens = (f"{key}={_format_value(getattr(rec, field))}" for key, field, _ in _TRACE_FIELDS)
        lines.append(f"trace.{rec.index} {' '.join(tokens)}")
    if m.stop_reason is not None:
        lines.append(f"stop_reason {m.stop_reason}")
    if m.report is not None:
        for line in m.report.to_text().splitlines():
            lines.append(f"report.{line}")
    return "\n".join(lines) + "\n"


def write_manifest(m: RunManifest, path) -> None:
    Path(path).write_text(format_manifest(m), encoding="utf-8")


def parse_manifest(text: str) -> RunManifest:
    """Inverse of format_manifest; parse(format(m)) == m exactly.

    DataError for what format_manifest never writes, among it a repeated
    key, trace lines not numbered 1..n in order, and a dataset_hash outside
    [0, 2^64).
    """
    command = tool_version = None
    ds_hash = None
    params: dict = {}
    trace: list[IterationRecord] = []
    stop_reason = None
    report_fields: dict = {}
    purities: list[tuple[int, float]] = []
    seen: set[str] = set()
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        try:
            key, _, value = line.partition(" ")
            if key in seen:
                raise DataError(f"repeated manifest key {key!r}")
            seen.add(key)
            if key == "command":
                command = value
            elif key == "tool_version":
                tool_version = value
            elif key == "dataset_hash":
                ds_hash = int(value, 16)
                if not 0 <= ds_hash < 1 << 64:
                    raise ValueError("dataset_hash outside [0, 2^64)")
            elif key == "stop_reason":
                stop_reason = value
            elif key.startswith("params."):
                params[key[len("params.") :]] = _parse_value(value)
            elif key.startswith("trace."):
                match = _TRACE_RE.fullmatch(value)
                if match is None or key != f"trace.{len(trace) + 1}":
                    raise ValueError("trace fields differ from _TRACE_FIELDS, or lines from 1..n")
                fields = {field: parse(v) for (_, field, parse), v in zip(_TRACE_FIELDS, match.groups())}
                trace.append(IterationRecord(index=len(trace) + 1, **fields))
            elif key.startswith("report.purity."):
                purities.append((int(key[len("report.purity.") :]), float(value)))
            elif key.startswith("report."):
                name = key[len("report.") :]
                report_fields[name] = _REPORT_FIELDS[name](value)
            else:
                raise DataError(f"unknown manifest key {key!r}")
        except (KeyError, ValueError) as err:
            raise DataError(f"malformed manifest line {line!r}") from err
    if command is None or tool_version is None or ds_hash is None:
        raise DataError("manifest missing command/tool_version/dataset_hash")
    purities.sort()
    numbers = [i for i, _ in purities]
    if numbers != list(range(len(numbers))):
        raise DataError(f"manifest report purities are numbered {numbers}, not 0..k-1")
    report = None
    if report_fields or purities:
        try:
            fields = {name: report_fields[name] for name in _REPORT_FIELDS}
        except KeyError as err:
            raise DataError(f"manifest report has no {err.args[0]} line") from err
        report = EvalReport(**fields, per_cluster_purity=tuple(v for _, v in purities))
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
