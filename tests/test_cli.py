"""CLI flows through cli_main: subcommand behavior, exit codes, env seed."""
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import varden
from varden import dataio
from varden.cli import cli_main, tune_eps_densest
from varden.dataio import parse_manifest, read_csv, write_csv, write_dataset_csv
from varden.model import AdbscanParams, DataError, Dataset, LabeledDataset, Labeling, NOISE
from varden.render import render_svg

from adversarial import scene


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    monkeypatch.delenv("VARDEN_SEED", raising=False)


@pytest.fixture
def dataset_csv(tmp_path):
    out = tmp_path / "data.csv"
    assert cli_main(["gen", "--scenario", "two_equal", "--out", str(out)]) == 0
    return out


class TestGen:
    def test_writes_labeled_csv(self, dataset_csv):
        d = read_csv(dataset_csv)
        assert isinstance(d, LabeledDataset)
        assert len(d) == 630
        assert dataset_csv.read_text().startswith("x,y,label\n")

    def test_same_seed_same_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        cli_main(["gen", "--scenario", "three_varying", "--seed", "7", "--out", str(a)])
        cli_main(["gen", "--scenario", "three_varying", "--seed", "7", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_seed_changes_output(self, tmp_path, dataset_csv):
        other = tmp_path / "other.csv"
        cli_main(["gen", "--scenario", "two_equal", "--seed", "2", "--out", str(other)])
        assert other.read_bytes() != dataset_csv.read_bytes()

    def test_custom_spec_file(self, tmp_path):
        spec = tmp_path / "custom.txt"
        spec.write_text("seed 3\nnoise_count 5\nnoise_bounds -2 2 -2 2\nblob 0 0 0.1 40\n")
        out = tmp_path / "c.csv"
        assert cli_main(["gen", "--spec", str(spec), "--out", str(out)]) == 0
        assert len(read_csv(out)) == 45

    def test_bad_spec_file_is_data_error(self, tmp_path, capsys):
        spec = tmp_path / "bad.txt"
        spec.write_text("blob 0 0\n")
        assert cli_main(["gen", "--spec", str(spec), "--out", str(tmp_path / "x.csv")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_scenario_is_usage_error(self, tmp_path):
        code = cli_main(["gen", "--scenario", "five_clusters", "--out", str(tmp_path / "x.csv")])
        assert code == 1

    def test_scenario_and_spec_mutually_exclusive(self, tmp_path):
        code = cli_main(
            ["gen", "--scenario", "two_equal", "--spec", "f.txt", "--out", str(tmp_path / "x.csv")]
        )
        assert code == 1


class TestEnvSeed:
    def test_env_seed_used_when_flag_absent(self, tmp_path, monkeypatch):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        monkeypatch.setenv("VARDEN_SEED", "42")
        cli_main(["gen", "--scenario", "two_equal", "--out", str(a)])
        monkeypatch.delenv("VARDEN_SEED")
        cli_main(["gen", "--scenario", "two_equal", "--seed", "42", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_flag_beats_env(self, tmp_path, monkeypatch):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        monkeypatch.setenv("VARDEN_SEED", "42")
        cli_main(["gen", "--scenario", "two_equal", "--seed", "5", "--out", str(a)])
        monkeypatch.delenv("VARDEN_SEED")
        cli_main(["gen", "--scenario", "two_equal", "--seed", "5", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_malformed_env_seed(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("VARDEN_SEED", "not-a-number")
        code = cli_main(["gen", "--scenario", "two_equal", "--out", str(tmp_path / "x.csv")])
        assert code == 1
        assert "VARDEN_SEED" in capsys.readouterr().err


class TestDbscan:
    def test_full_run(self, tmp_path, dataset_csv, capsys):
        out, svg = tmp_path / "lab.csv", tmp_path / "lab.svg"
        code = cli_main(
            ["dbscan", "--in", str(dataset_csv), "--eps", "0.5", "--min-pts", "10",
             "--out", str(out), "--svg", str(svg)]
        )
        assert code == 0
        assert "2 clusters" in capsys.readouterr().out
        pred = read_csv(out)
        assert len(pred) == 630
        assert svg.read_text().startswith("<svg ")

    def test_missing_input(self, tmp_path, capsys):
        code = cli_main(["dbscan", "--in", str(tmp_path / "no.csv"), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert "error:" in err and "Traceback" not in err

    def test_input_that_is_not_utf8(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"x,y\n1.0,2.0\n\xe9,3.0\n")
        code = cli_main(["dbscan", "--in", str(bad), "--out", str(tmp_path / "o.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert "line 3, column 1: not UTF-8: byte 0xe9" in err and "Traceback" not in err

    def test_line_endings_and_byte_order_mark_give_the_same_outputs(self, tmp_path):
        rng = np.random.default_rng(4)
        text = "x,y\n" + "".join(f"{x!r},{y!r}\n" for x, y in rng.normal(0, 1, (300, 2)).tolist())
        encodings = {
            "lf": text.encode(),
            "crlf": text.replace("\n", "\r\n").encode(),
            "bom": b"\xef\xbb\xbf" + text.encode(),
        }
        outputs = set()
        for name, data in encodings.items():
            src, out, svg = (tmp_path / f"{name}.{ext}" for ext in ("in.csv", "csv", "svg"))
            src.write_bytes(data)
            argv = ["dbscan", "--in", str(src), "--eps", "0.3", "--min-pts", "5"]
            assert cli_main([*argv, "--out", str(out), "--svg", str(svg)]) == 0
            outputs.add((out.read_bytes(), svg.read_bytes()))
        assert len(outputs) == 1

    def test_form_feed_inside_a_row(self, tmp_path, capsys):
        # str.splitlines ends line 1 at the form feed, so its second field is empty
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"1,\x0c2\n")
        assert cli_main(["dbscan", "--in", str(bad), "--out", str(tmp_path / "o.csv")]) == 2
        assert capsys.readouterr().err == "error: line 1, column 2: not a number: ''\n"

    def test_invalid_eps_is_data_error(self, tmp_path, dataset_csv):
        code = cli_main(
            ["dbscan", "--in", str(dataset_csv), "--eps", "-3", "--out", str(tmp_path / "o.csv")]
        )
        assert code == 2

    def test_unknown_flag(self, dataset_csv):
        assert cli_main(["dbscan", "--in", str(dataset_csv), "--frobnicate"]) == 1


class TestAdbscan:
    def test_full_run_with_trace_manifest(self, tmp_path, dataset_csv, capsys):
        out = tmp_path / "ad.csv"
        trace = tmp_path / "trace.txt"
        code = cli_main(
            ["adbscan", "--in", str(dataset_csv), "--k", "2", "--out", str(out),
             "--trace", str(trace)]
        )
        assert code == 0
        assert "stop: k_reached" in capsys.readouterr().out
        m = parse_manifest(trace.read_text())
        assert m.command == "adbscan"
        assert m.params["k"] == 2 and m.params["eps0"] == 0.5
        assert m.stop_reason == "k_reached"
        assert m.trace and m.trace[0].eps == 0.5 and m.trace[0].min_pts == 10

    def test_manifest_round_trips(self, tmp_path, dataset_csv):
        trace = tmp_path / "trace.txt"
        cli_main(
            ["adbscan", "--in", str(dataset_csv), "--k", "2",
             "--out", str(tmp_path / "o.csv"), "--trace", str(trace)]
        )
        from varden.dataio import format_manifest

        text = trace.read_text()
        assert format_manifest(parse_manifest(text)) == text

    @pytest.mark.parametrize(
        "flags, fields",
        [
            ([], {}),
            (
                ["--eps0", "0.4", "--min-pts0", "8.5", "--step", "0.25", "--accept", "0.2",
                 "--residual", "0.1", "--eps-cap", "3", "--max-iters", "7"],
                {"eps0": 0.4, "min_pts0": 8.5, "step": 0.25, "accept_fraction": 0.2,
                 "residual_fraction": 0.1, "eps_cap": 3.0, "max_iters": 7},
            ),
        ],
        ids=["defaults", "every-flag"],
    )
    def test_flags_set_their_params_fields(self, tmp_path, dataset_csv, flags, fields):
        # a flag left out keeps AdbscanParams' default
        trace = tmp_path / "trace.txt"
        argv = ["adbscan", "--in", str(dataset_csv), "--k", "2", "--out", str(tmp_path / "o.csv")]
        assert cli_main(argv + flags + ["--trace", str(trace)]) == 0
        expected = AdbscanParams(k=2, **fields)
        params = parse_manifest(trace.read_text()).params
        assert params == {key: getattr(expected, key) for key in params}
        assert set(params) == {key for key, v in vars(expected).items() if v is not None}

    def test_an_escalation_that_overflows_is_a_data_error(self, tmp_path, capsys):
        data = tmp_path / "three.csv"
        data.write_text("x,y\n0.0,0.0\n1.0,1.0\n2.0,2.0\n")
        argv = ["adbscan", "--in", str(data), "--k", "5", "--step", "1e308", "--max-iters", "5"]
        assert cli_main(argv + ["--out", str(tmp_path / "o.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: escalation overflowed at iteration 3") and "Traceback" not in err

    def test_k_required(self, tmp_path, dataset_csv):
        code = cli_main(["adbscan", "--in", str(dataset_csv), "--out", str(tmp_path / "o.csv")])
        assert code == 1


class TestEval:
    def test_reports_to_stdout_and_manifest(self, tmp_path, dataset_csv, capsys):
        pred = tmp_path / "pred.csv"
        cli_main(["dbscan", "--in", str(dataset_csv), "--eps", "0.5", "--min-pts", "10",
                  "--out", str(pred)])
        capsys.readouterr()
        report = tmp_path / "report.txt"
        code = cli_main(
            ["eval", "--in", str(dataset_csv), "--pred", str(pred), "--report", str(report)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "num_clusters_found 2" in out and "ari " in out
        m = parse_manifest(report.read_text())
        assert m.command == "eval" and m.report is not None
        assert m.report.num_clusters_found == 2

    def test_input_without_truth_rejected(self, tmp_path, dataset_csv):
        bare = tmp_path / "bare.csv"
        d = read_csv(dataset_csv)
        lines = ["x,y"] + [f"{x!r},{y!r}" for x, y in d.dataset.coords]
        bare.write_text("\n".join(lines) + "\n")
        pred = tmp_path / "pred.csv"
        cli_main(["dbscan", "--in", str(dataset_csv), "--eps", "0.5", "--min-pts", "10",
                  "--out", str(pred)])
        assert cli_main(["eval", "--in", str(bare), "--pred", str(pred)]) == 2

    def test_mismatched_prediction_rejected(self, tmp_path, dataset_csv):
        other = tmp_path / "other.csv"
        cli_main(["gen", "--scenario", "two_equal", "--seed", "9", "--out", str(other)])
        pred = tmp_path / "pred.csv"
        cli_main(["dbscan", "--in", str(other), "--eps", "0.5", "--min-pts", "10",
                  "--out", str(pred)])
        assert cli_main(["eval", "--in", str(dataset_csv), "--pred", str(pred)]) == 2


class TestCompare:
    def test_emits_all_artifacts(self, tmp_path, capsys):
        out = tmp_path / "cmp"
        code = cli_main(["compare", "--scenario", "two_equal", "--out-dir", str(out)])
        assert code == 0
        names = sorted(p.name for p in out.iterdir())
        assert names == [
            "adbscan.csv",
            "adbscan.svg",
            "adbscan_manifest.txt",
            "dataset.csv",
            "dbscan.csv",
            "dbscan.svg",
            "dbscan_manifest.txt",
        ]
        stdout = capsys.readouterr().out
        assert "dbscan:" in stdout and "adbscan:" in stdout
        dm = parse_manifest((out / "dbscan_manifest.txt").read_text())
        am = parse_manifest((out / "adbscan_manifest.txt").read_text())
        assert dm.report is not None and am.report is not None
        assert am.trace is not None and am.stop_reason is not None
        assert dm.dataset_hash == am.dataset_hash

    @pytest.mark.parametrize("seed, block", [(0, 7), (1, 7), (2, 4096), *(("runs", b) for b in (1, 7, 4096))])
    def test_shared_coordinate_text_writes_the_public_writers_bytes(self, tmp_path, monkeypatch, seed, block):
        # compare writes through a _FormattedDataset, which formats its
        # coordinates once per format and hands that text to the writers:
        # two labelings of one dataset, each to a CSV and an SVG, give the
        # plain writers' bytes
        monkeypatch.setattr(dataio, "_BLOCK", block)
        ds, lab = scene(seed)
        relabeled = Labeling(np.roll(lab.labels, 1), np.roll(lab.classes, 1))
        for name, d in (("plain", ds), ("shared", dataio._FormattedDataset(ds.coords))):
            write_dataset_csv(LabeledDataset(d, lab.labels), tmp_path / f"{name}_dataset.csv")
            for i, labeling in enumerate((lab, relabeled)):
                write_csv(d, labeling, tmp_path / f"{name}_{i}.csv")
                render_svg(d, labeling, tmp_path / f"{name}_{i}.svg")
        for f in ("dataset.csv", "0.csv", "0.svg", "1.csv", "1.svg"):
            assert (tmp_path / f"shared_{f}").read_bytes() == (tmp_path / f"plain_{f}").read_bytes()

    def test_runs_in_one_process_keep_no_text_from_each_other(self, tmp_path):
        for out, seed in (("a", 3), ("b", 4), ("c", 3)):
            assert cli_main(["compare", "--scenario", "two_equal", "--seed", str(seed), "--out-dir", str(tmp_path / out)]) == 0
        names = sorted(p.name for p in (tmp_path / "a").iterdir())
        assert all((tmp_path / "a" / f).read_bytes() == (tmp_path / "c" / f).read_bytes() for f in names)
        assert all((tmp_path / "a" / f).read_bytes() != (tmp_path / "b" / f).read_bytes() for f in names if f.endswith((".csv", ".svg")))


@pytest.mark.parametrize(
    "argv, hashes",
    [
        (["dbscan", "--svg", "{tmp}/o.svg"], 0),
        (["adbscan", "--k", "2"], 0),
        (["adbscan", "--k", "2", "--trace", "{tmp}/trace.txt"], 1),
        (["eval", "--pred", "{data}"], 0),
        (["eval", "--pred", "{data}", "--report", "{tmp}/report.txt"], 1),
        (["compare", "--scenario", "two_equal", "--out-dir", "{tmp}/cmp"], 1),
    ],
    ids=["dbscan", "adbscan", "adbscan-trace", "eval", "eval-report", "compare"],
)
def test_dataset_hashed_once_and_only_for_a_manifest(tmp_path, dataset_csv, monkeypatch, argv, hashes):
    calls = []
    monkeypatch.setattr("varden.cli.dataset_hash", lambda ds: calls.append(ds) or 0)
    argv = [a.format(tmp=tmp_path, data=dataset_csv) for a in argv]
    if argv[0] != "compare":
        argv += ["--in", str(dataset_csv)] + (["--out", str(tmp_path / "o.csv")] if argv[0] != "eval" else [])
    assert cli_main(argv) == 0
    assert len(calls) == hashes


class TestTuneEps:
    def test_fewer_points_than_min_pts_is_data_error(self):
        labeled = LabeledDataset(Dataset(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])), [0, 0, 0])
        with pytest.raises(DataError, match="min_pts=10"):
            tune_eps_densest(labeled, min_pts=10)


class TestTopLevel:
    def test_no_arguments(self):
        assert cli_main([]) == 1

    def test_unknown_subcommand(self):
        assert cli_main(["fold"]) == 1

    def test_help_exits_zero(self, capsys):
        assert cli_main(["--help"]) == 0
        assert "gen" in capsys.readouterr().out

    def test_version_exits_zero(self, capsys):
        assert cli_main(["--version"]) == 0


# Runs cli_main on argv[2:] in a fresh interpreter and writes to argv[1] the
# modules it loaded, one a line: those present after it minus those present
# before varden was imported (site hooks may load packages of their own).
_MODULES_LOADED = """
import sys
before = set(sys.modules)
from varden.cli import cli_main
code = cli_main(sys.argv[2:])
with open(sys.argv[1], "w") as f:
    f.write("\\n".join(sorted(set(sys.modules) - before)))
sys.exit(code)
"""


class TestImports:
    @pytest.mark.parametrize(
        "argv",
        [
            ["gen", "--scenario", "two_equal", "--out", "g.csv"],
            ["dbscan", "--in", "{data}", "--out", "p.csv", "--svg", "p.svg"],
            ["adbscan", "--in", "{data}", "--k", "2", "--out", "a.csv", "--trace", "a.txt"],
            ["eval", "--in", "{data}", "--pred", "{pred}", "--report", "r.txt"],
            ["compare", "--scenario", "two_equal", "--out-dir", "cmp"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_runs_load_only_numpy_and_the_stdlib(self, tmp_path, dataset_csv, argv):
        # numpy is the one runtime dependency, and numpy.ma costs a CLI run
        # about 20 ms to import
        pred = tmp_path / "pred.csv"
        assert cli_main(["dbscan", "--in", str(dataset_csv), "--out", str(pred)]) == 0
        argv = [a.format(data=dataset_csv, pred=pred) for a in argv]
        src = str(Path(varden.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        listing = tmp_path / "modules.txt"
        proc = subprocess.run(
            [sys.executable, "-c", _MODULES_LOADED, str(listing), *argv],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        loaded = listing.read_text().split()
        assert "varden.cli" in loaded
        allowed = set(sys.stdlib_module_names) | {"numpy", "varden"}
        assert [m for m in loaded if m.partition(".")[0] not in allowed] == []
        assert "numpy.ma" not in loaded
