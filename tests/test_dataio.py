"""CSV parsing/writing, content hashing, and manifest round-trips."""
import re
import struct
import tracemalloc

import numpy as np
import pytest

from varden import dataio
from varden.dataio import (
    DimensionMismatch,
    FileNotFound,
    ParseError,
    RunManifest,
    dataset_hash,
    format_manifest,
    parse_manifest,
    read_csv,
    write_csv,
    write_dataset_csv,
    write_manifest,
)
from varden.metrics import EvalReport
from varden.model import (
    DataError,
    Dataset,
    IterationRecord,
    Labeling,
    LabeledDataset,
    NOISE,
    PointClass,
)
from varden.synthgen import gen_scenario, paper_scenario

from adversarial import adversarial_scene


class TestReadCsv:
    def test_minimal_two_column(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("0.0,0.0\n1.0,1.0\n")
        ds = read_csv(f)
        assert isinstance(ds, Dataset) and not isinstance(ds, LabeledDataset)
        assert len(ds) == 2
        assert ds.coords[1, 1] == 1.0

    def test_header_with_noise_token(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("x,y,label\n0,0,noise\n")
        d = read_csv(f)
        assert isinstance(d, LabeledDataset)
        assert list(d.truth) == [NOISE]

    def test_integer_truth_column(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("0,0,0\n1,1,0\n5,5,1\n9,9,-1\n")
        d = read_csv(f)
        assert list(d.truth) == [0, 0, 1, NOISE]

    def test_malformed_field_position(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("0.0,abc\n")
        with pytest.raises(ParseError) as err:
            read_csv(f)
        assert err.value.line == 1 and err.value.column == 2

    def test_bad_truth_token(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("x,y,label\n1.0,2.0,maybe\n")
        with pytest.raises(ParseError) as err:
            read_csv(f)
        assert err.value.line == 2 and err.value.column == 3

    def test_ragged_rows(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("0,0\n1,1,2\n")
        with pytest.raises(DimensionMismatch):
            read_csv(f)

    def test_too_many_columns(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("0,0,1,core,extra\n")
        with pytest.raises(DimensionMismatch):
            read_csv(f)

    def test_one_column(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("0.5\n")
        with pytest.raises(DimensionMismatch):
            read_csv(f)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFound):
            read_csv(tmp_path / "nope.csv")

    def test_empty_file(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("")
        with pytest.raises(ParseError, match="no data"):
            read_csv(f)

    def test_header_only(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("x,y\n")
        with pytest.raises(ParseError, match="no data"):
            read_csv(f)

    def test_non_finite_rejected(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("0.0,inf\n")
        with pytest.raises(ParseError):
            read_csv(f)

    def test_blank_lines_skipped(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("x,y\n0,0\n\n1,1\n\n")
        assert len(read_csv(f)) == 2

    def test_whitespace_tolerated(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text(" 0.5 , 1.5 , 0 \n")
        d = read_csv(f)
        assert d.dataset.coords[0, 0] == 0.5 and list(d.truth) == [0]

    def test_byte_order_mark_is_not_a_header(self, tmp_path):
        # '\ufeff1.0' is no number, so an undecoded mark made line 1 a header
        f = tmp_path / "d.csv"
        f.write_text("\ufeff1.0,2.0\n3.0,4.0\n5.0,6.0\n", encoding="utf-8")
        ds = read_csv(f)
        assert ds.coords.tolist() == [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]

    def test_byte_order_mark_before_a_header(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("\ufeffx,y,label\n1.0,2.0,noise\n", encoding="utf-8")
        d = read_csv(f)
        assert d.dataset.coords.tolist() == [[1.0, 2.0]] and list(d.truth) == [NOISE]

    @pytest.mark.parametrize(
        "data, line, column",
        [
            (b"x,y\n1.0,2.0\n\xe9,3.0\n", 3, 1),
            (b"\xef\xbb\xbfx,y\n1.0,2.0\n1.0,\xe9\n", 3, 2),  # the mark is skipped, not counted
            (b"1.0,2.0\r\n3.0,4.0\r5.0,\xff\n", 3, 2),
            (b"1.0,2.0\n3.0\xc3", 2, 1),  # cut off inside a character
        ],
    )
    def test_bytes_that_are_not_utf8(self, tmp_path, data, line, column):
        f = tmp_path / "d.csv"
        f.write_bytes(data)
        with pytest.raises(ParseError, match="not UTF-8") as err:
            read_csv(f)
        assert (err.value.line, err.value.column) == (line, column)


class TestWriteCsv:
    def _ds(self):
        return Dataset(np.array([[0.1, 0.2], [1 / 3, -7.25], [1e-17, 1e300]]))

    def _lab(self):
        return Labeling([0, 0, NOISE], [2, 1, 0])

    def test_schema_and_noise_row(self, tmp_path):
        f = tmp_path / "out.csv"
        write_csv(self._ds(), self._lab(), f)
        lines = f.read_text().splitlines()
        assert lines[0] == "x,y,cluster,class"
        assert lines[1].endswith(",0,core")
        assert lines[2].endswith(",0,border")
        assert lines[3].endswith(",-1,noise")

    def test_coordinates_round_trip_exactly(self, tmp_path):
        f = tmp_path / "out.csv"
        ds = self._ds()
        write_csv(ds, self._lab(), f)
        back = read_csv(f)
        assert np.array_equal(back.dataset.coords, ds.coords)
        # cluster column becomes the truth channel
        assert list(back.truth) == [0, 0, NOISE]

    def test_byte_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(self._ds(), self._lab(), a)
        write_csv(self._ds(), self._lab(), b)
        assert a.read_bytes() == b.read_bytes()

    def test_length_mismatch(self, tmp_path):
        with pytest.raises(DataError):
            write_csv(self._ds(), Labeling([0], [2]), tmp_path / "x.csv")

    @pytest.mark.parametrize("labels, classes", [([0, 0, 1], [2]), ([[0], [0], [1]], [[2], [2], [2]])])
    def test_labeling_of_the_wrong_shape(self, tmp_path, labels, classes):
        # one class for 3 labels used to write one data row for 3 points, a 3 x 1 labeling a raw TypeError
        with pytest.raises(DataError, match="1-d|different shapes"):
            write_csv(self._ds(), Labeling(labels, classes), tmp_path / "x.csv")
        assert not (tmp_path / "x.csv").exists()

    def test_non_2d_rejected(self, tmp_path):
        ds = Dataset(np.zeros((2, 3)))
        with pytest.raises(DataError):
            write_csv(ds, Labeling([0, 0], [2, 2]), tmp_path / "x.csv")


class TestWriteDatasetCsv:
    def test_round_trip_with_truth(self, tmp_path):
        d = gen_scenario(paper_scenario("two_equal"))
        f = tmp_path / "data.csv"
        write_dataset_csv(d, f)
        back = read_csv(f)
        assert np.array_equal(back.dataset.coords, d.dataset.coords)
        assert np.array_equal(back.truth, d.truth)

    def test_noise_token_used(self, tmp_path):
        d = LabeledDataset(Dataset(np.array([[1.0, 2.0]])), np.array([NOISE]))
        f = tmp_path / "data.csv"
        write_dataset_csv(d, f)
        assert f.read_text() == "x,y,label\n1.0,2.0,noise\n"


# The per-row loops that the columnar reader and writers replaced, kept as
# byte and error references.
_REF_INT_RE = re.compile(r"^[+-]?\d+$")


def _reference_read_csv(text):
    """(coords, truth or None) as the per-row reader parsed text, or the error it raised."""

    def number(s):
        try:
            float(s)
            return True
        except ValueError:
            return False

    def parse_float(s, line, col):
        try:
            v = float(s)
        except ValueError:
            raise ParseError(line, col, f"not a number: {s!r}") from None
        if not np.isfinite(v):
            raise ParseError(line, col, f"non-finite coordinate: {s!r}")
        return v

    def parse_truth(s, line, col):
        if s == "noise":
            return NOISE
        if _REF_INT_RE.match(s):
            v = int(s)
            if v >= 0 or v == NOISE:
                return v
        raise ParseError(line, col, f"expected a cluster id or 'noise', got {s!r}")

    rows, truth, ncols, saw_truth = [], [], None, False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        fields = [f.strip() for f in line.split(",")]
        if lineno == 1 and not number(fields[0]):
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
            raise DimensionMismatch(f"line {lineno}: {len(fields)} fields, expected {ncols}")
        rows.append((parse_float(fields[0], lineno, 1), parse_float(fields[1], lineno, 2)))
        if saw_truth:
            truth.append(parse_truth(fields[2], lineno, 3))
    if not rows:
        raise ParseError(1, 1, "no data rows")
    return np.asarray(rows, dtype=np.float64), (truth if saw_truth else None)


def _reference_write_csv(dataset, labeling):
    lines = ["x,y,cluster,class"]
    coords = dataset.coords
    for i in range(len(dataset)):
        cls = PointClass(int(labeling.classes[i])).token
        lines.append(f"{float(coords[i, 0])!r},{float(coords[i, 1])!r},{int(labeling.labels[i])},{cls}")
    return "\n".join(lines) + "\n"


def _reference_write_dataset_csv(d):
    lines = ["x,y,label"]
    coords = d.dataset.coords
    for i in range(len(d)):
        t = int(d.truth[i])
        token = "noise" if t == NOISE else str(t)
        lines.append(f"{float(coords[i, 0])!r},{float(coords[i, 1])!r},{token}")
    return "\n".join(lines) + "\n"


def _parsed(read):
    """(coords bytes, truth list or None) from read(), or its error's (type, message, line, column)."""
    try:
        got = read()
    except (ParseError, DimensionMismatch) as exc:
        return type(exc), str(exc), getattr(exc, "line", None), getattr(exc, "column", None)
    if isinstance(got, LabeledDataset):
        return got.dataset.coords.tobytes(), got.truth.tolist()
    if isinstance(got, Dataset):
        return got.coords.tobytes(), None
    coords, truth = got
    return coords.tobytes(), truth


# Texts on which np.loadtxt and the line loop could part: str.splitlines'
# line breaks in a field, between fields and at a line's end, \x1f (which
# str.strip strips and float() does not), line endings, blank lines, unusual
# padding and numbers, and empty or non-finite data. A leading "\ufeff" is
# written as a byte order mark.
_UNUSUAL_TEXTS = [
    *(t for c in "\v\f\x1c\x1d\x1e\x85\u2028\u2029" for t in (f"1{c}5,2\n", f"1,{c}2\n", f"1,2{c}\n3,4\n")),
    "1\x1f5,2\n",
    "1,\x1f2\n",
    "1\x1f,2\n3,4\n",
    "1,2\x1f\n3,4\n",
    "\x1f-0,1\n3,4\n",
    "1,2\r3,4\r",
    "x,y\r1,2\n3,4\n",
    "x,y\x0c1,2\n3,4\n",
    "1,2\r\n3,4\r",
    "x,y\r\n1,2\r\n3,4\r\n",
    "1,2\n   \n\t\n3,4\n",
    "x,y\n\n1,2\n",
    "\t1\t,\xa02\u3000\n \xa0\u30003,4\t\n",
    "1_0,2\n",
    "\u0663,2\n",
    "#c\n1,2\n",
    "1,2#c\n",
    '"1",2\n',
    '"1,2"\n',
    "1,2,\n",
    "1,2,3\n4,5,6\n",
    "1,2\n3,4",
    "\ufeff1,2\n",
    "\ufeffx,y\n1,2\n",
    "x,y\n",
    "",
    "\n \n",
    "1e999,2\n",
    "1,2\nnan,2\n",
    "1,-inf\n",
]


class TestColumnarMatchesRowLoops:
    # a block of 7 rows puts block ends inside every scene, and one of 4096
    # holds a scene whole
    @pytest.mark.parametrize("seed, block", [(0, 7), (1, 7), (2, 4096), (3, 4096)])
    def test_write_csv_bytes(self, tmp_path, monkeypatch, seed, block):
        monkeypatch.setattr(dataio, "_BLOCK", block)
        ds, lab = adversarial_scene(seed)
        f = tmp_path / "out.csv"
        write_csv(ds, lab, f)
        assert f.read_bytes() == _reference_write_csv(ds, lab).encode("utf-8")

    @pytest.mark.parametrize("seed, block", [(0, 7), (1, 7), (2, 4096), (3, 4096)])
    def test_write_dataset_csv_bytes(self, tmp_path, monkeypatch, seed, block):
        monkeypatch.setattr(dataio, "_BLOCK", block)
        ds, lab = adversarial_scene(seed)
        d = LabeledDataset(ds, lab.labels)
        f = tmp_path / "data.csv"
        write_dataset_csv(d, f)
        assert f.read_bytes() == _reference_write_dataset_csv(d).encode("utf-8")

    def test_empty_dataset_writes_the_header(self, tmp_path):
        ds = Dataset(np.empty((0, 2)))
        f = tmp_path / "out.csv"
        write_csv(ds, Labeling(np.empty(0), np.empty(0)), f)
        assert f.read_bytes() == _reference_write_csv(ds, Labeling(np.empty(0), np.empty(0))).encode()
        write_dataset_csv(LabeledDataset(ds, np.empty(0)), f)
        assert f.read_text() == "x,y,label\n"

    def test_bad_class_code_raises_the_enum_error(self, tmp_path):
        ds, _ = adversarial_scene(0, n=4)
        with pytest.raises(DataError, match="^7 is not a valid PointClass$"):
            write_csv(ds, Labeling([0, 0, 0, 0], [2, 7, -1, 9]), tmp_path / "x.csv")

    @pytest.mark.parametrize("seed", range(200))
    def test_read_csv_values_and_errors(self, tmp_path, seed):
        """A file of 2, 3 or 4 columns, with or without a header, blank lines
        and padded fields, with up to two bad fields or a ragged row injected."""
        rng = np.random.default_rng(seed)
        n, ncols = int(rng.integers(1, 12)), int(rng.choice([2, 3, 4]))
        ds, lab = adversarial_scene(seed, n=n)
        rows = [[repr(x), repr(y)] for x, y in ds.coords.tolist()]
        for row, t, c in zip(rows, lab.labels.tolist(), lab.classes.tolist()):
            truth = rng.choice([str(t), "noise" if t == NOISE else f"+{t}"])
            row += [truth, PointClass(c).token][: ncols - 2]
        for _ in range(int(rng.integers(0, 3))):
            r, c = int(rng.integers(n)), int(rng.integers(min(ncols, 3)))
            rows[r][c] = str(rng.choice(["abc", "nan", "inf", "-inf", "1e999", "", "1..5", "maybe", "-2"]))
        if rng.random() < 0.2:
            rows[int(rng.integers(n))].append("9")
        lines = [" , ".join(row) if rng.random() < 0.2 else ",".join(row) for row in rows]
        for _ in range(int(rng.integers(0, 3))):
            lines.insert(int(rng.integers(len(lines) + 1)), rng.choice(["", "   "]))
        if rng.random() < 0.5:
            lines.insert(0, ",".join(["x", "y", "label", "class"][:ncols]))
        text = "\n".join(lines) + "\n"
        f = tmp_path / "d.csv"
        f.write_text(text, encoding="utf-8")
        try:
            want = _reference_read_csv(text)
        except (ParseError, DimensionMismatch) as exc:
            with pytest.raises(type(exc)) as got:
                read_csv(f)
            assert str(got.value) == str(exc)
            if isinstance(exc, ParseError):
                assert (got.value.line, got.value.column) == (exc.line, exc.column)
            return
        got = read_csv(f)
        coords, truth = want
        if truth is None:
            assert not isinstance(got, LabeledDataset)
            assert got.coords.tobytes() == coords.tobytes()
        else:
            assert got.dataset.coords.tobytes() == coords.tobytes()
            assert got.truth.tolist() == truth

    @pytest.mark.parametrize("text", _UNUSUAL_TEXTS)
    def test_read_csv_unusual_text(self, tmp_path, text):
        """The same Dataset bytes as the line loop, or the same error at the same line and column."""
        f = tmp_path / "d.csv"
        f.write_bytes(text.encode("utf-8"))
        want = _parsed(lambda: _reference_read_csv(text.removeprefix("\ufeff")))
        assert _parsed(lambda: read_csv(f)) == want

    def test_unit_separator_is_stripped_off_a_field(self, tmp_path):
        # str.strip strips \x1f where float() does not: each field is stripped first
        f = tmp_path / "d.csv"
        for text in (b"1,\x1f2\n", b"1\x1f,2\n"):
            f.write_bytes(text)
            assert read_csv(f).coords.tolist() == [[1.0, 2.0]]

    def test_two_column_file_is_read_without_the_line_loop(self, tmp_path):
        # the line loop holds a float and a list slot per value, 2.7 MiB traced
        # here, where np.loadtxt holds the text and the array
        i = np.arange(20_000)
        xs, ys = (i % 200 * 0.25).tolist(), (i // 200 * 0.5).tolist()
        f = tmp_path / "lattice.csv"
        f.write_text("x,y\n" + "".join(f"{x!r},{y!r}\n" for x, y in zip(xs, ys)))
        tracemalloc.start()
        try:
            ds = read_csv(f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ds.coords.shape == (20_000, 2)
        assert peak < 2.0 * 2**20


def fnv1a_oracle(data: bytes) -> int:
    h = 0xCBF29CE484222325
    for byte in data:
        h = ((h ^ byte) * 0x100000001B3) % 2**64
    return h


class TestDatasetHash:
    def test_matches_oracle_on_random_data(self):
        rng = np.random.default_rng(4)
        coords = rng.normal(size=(17, 2))
        ds = Dataset(coords)
        raw = b"".join(struct.pack(">d", v) for v in ds.coords.reshape(-1))
        assert dataset_hash(ds) == fnv1a_oracle(raw)

    def test_order_sensitive(self):
        a = Dataset(np.array([[0.0, 1.0], [2.0, 3.0]]))
        b = Dataset(np.array([[2.0, 3.0], [0.0, 1.0]]))
        assert dataset_hash(a) != dataset_hash(b)

    def test_frozen_scenario_hash(self):
        # regression pin over the whole generate->hash stack
        d = gen_scenario(paper_scenario("two_equal"))
        assert dataset_hash(d.dataset) == 0x209AD208AAA0D01D


def _full_manifest():
    trace = (
        IterationRecord(1, 0.5, 10, 10.0, 3, 120, True, 120, 380),
        IterationRecord(2, 1.0, 11, 10.5, 2, 90, False, 0, 380),
    )
    report = EvalReport(2, 0.875, 0.0625, (1.0, 0.75))
    return RunManifest(
        command="adbscan",
        tool_version="0.1.0",
        dataset_hash=0x0123456789ABCDEF,
        params={"k": 3, "eps0": 0.5, "in": "some file.csv", "accept_fraction": 0.1},
        trace=trace,
        stop_reason="max_iters",
        report=report,
    )


# the first trace line format_manifest writes for _full_manifest()
_TRACE_LINE = (
    "trace.1 eps=0.5 min_pts=10 min_pts_real=10.0 found=3 largest=120 accepted=1 accepted_size=120 remaining=380"
)


class TestManifest:
    def test_round_trip_full(self):
        m = _full_manifest()
        assert parse_manifest(format_manifest(m)) == m

    def test_round_trip_minimal(self):
        m = RunManifest("gen", "0.1.0", 7, {"scenario": "two_equal", "seed": 5})
        assert parse_manifest(format_manifest(m)) == m

    def test_format_deterministic(self):
        m = _full_manifest()
        assert format_manifest(m) == format_manifest(m)

    def test_flat_key_value_lines(self):
        text = format_manifest(_full_manifest())
        for line in text.strip().splitlines():
            key, sep, value = line.partition(" ")
            assert sep == " " and key and value

    def test_trace_line_pinned(self):
        assert _TRACE_LINE in format_manifest(_full_manifest()).splitlines()

    def test_hash_rendered_as_hex(self):
        text = format_manifest(_full_manifest())
        assert "dataset_hash 0x0123456789abcdef" in text

    def test_param_value_with_spaces_survives(self):
        m = _full_manifest()
        back = parse_manifest(format_manifest(m))
        assert back.params["in"] == "some file.csv"

    def test_unknown_key_rejected(self):
        with pytest.raises(DataError):
            parse_manifest("command x\ntool_version 1\ndataset_hash 0x0\nmystery 5\n")

    def test_missing_required_rejected(self):
        with pytest.raises(DataError):
            parse_manifest("command x\n")

    @pytest.mark.parametrize(
        "lines, match",
        [
            ("dataset_hash zz\n", "dataset_hash zz"),
            ("trace.1 eps=1\n", "trace.1 eps=1"),
            ("trace.x eps=1\n", "trace.x"),
            ("trace.1 eps\n", "trace.1 eps"),
            ("report.purity.a 0.5\n", "report.purity.a"),
            ("report.ari x\n", "report.ari x"),
            ("report.ari 0.5\n", "no num_clusters_found"),
            ("report.purity.0 0.5\n", "no num_clusters_found"),
            ("report.num_clusters_found 2\nreport.ari 0.5\n", "no noise_fraction"),
            ("report.mystery 3\n", "report.mystery 3"),
            ("report.purity.0 0.5\nreport.purity.5 0.5\n", r"numbered \[0, 5\]"),
            ("report.purity.-1 0.5\n", r"numbered \[-1\]"),
            (f"{_TRACE_LINE} bogus=9\n", "bogus=9"),
            (_TRACE_LINE.replace("accepted=1", "accepted=7") + "\n", "accepted=7"),
            ("command y\n", "repeated manifest key 'command'"),
            ("params.a 1\nparams.a 2\n", "repeated manifest key 'params.a'"),
            ("report.ari 0.5\nreport.ari 0.7\n", "repeated manifest key 'report.ari'"),
            ("dataset_hash 0x1\n", "repeated manifest key 'dataset_hash'"),
            ("dataset_hash -0x1\n", "dataset_hash -0x1"),
            ("dataset_hash 0x10000000000000000\n", "dataset_hash 0x10000000000000000"),
            ("report.purity.0 0.5\nreport.purity.00 0.5\n", r"numbered \[0, 0\]"),
            (_TRACE_LINE.replace("trace.1", "trace.+7") + "\n", "trace.+7"),
            (_TRACE_LINE + "\n" + _TRACE_LINE.replace("trace.1", "trace.-2") + "\n", "trace.-2"),
            (_TRACE_LINE + "\n" + _TRACE_LINE.replace("trace.1", "trace.3") + "\n", "trace.3"),
        ],
    )
    def test_malformed_line_rejected(self, lines, match):
        with pytest.raises(DataError, match=match):
            parse_manifest(f"command x\ntool_version 1\n{lines}dataset_hash 0x0\n")

    def test_write_read_file(self, tmp_path):
        m = _full_manifest()
        f = tmp_path / "m.txt"
        write_manifest(m, f)
        assert parse_manifest(f.read_text()) == m
