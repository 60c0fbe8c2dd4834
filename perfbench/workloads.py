"""The benchmark's workloads: inputs made from the seed, and the correctness gate.

Inputs come from the benchmark's own numpy Generator and CSV writer, never
from varden.synthgen or varden.dataio, so a later change to those modules
cannot alter a workload's input. The `compare` workload is the exception by
nature: the CLI generates its scenario itself, and only its seed comes from
here.

Each workload checks every invocation's outputs:

- dbscan labels and classes against the exact oracle in oracle.py, for any seed;
- for `compare`, the ARI recomputed from the written CSVs against the ARI
  in each manifest;
- for DEFAULT_SEED, the SHA-256 of every output file against goldens.json,
  recorded from the CLI before any optimisation.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from oracle import CLASS_TOKENS, NOISE, adjusted_rand_index, dbscan_oracle

DEFAULT_SEED = 0
GOLDENS = Path(__file__).with_name("goldens.json")

NAMES = ("compare_four_varying", "dbscan_sparse_20k", "dbscan_dup_3k")
EPS = 0.5
MIN_PTS = 10


class GateFailure(Exception):
    """An invocation's outputs are wrong."""


@dataclass
class Workload:
    """One prepared workload: the CLI arguments and the check of its outputs."""

    name: str
    seed: int
    argv: list[str]
    outputs: tuple[str, ...]
    coords: np.ndarray | None = None  # the benchmark-written input, for dbscan workloads
    expected: tuple[np.ndarray, np.ndarray] | None = None

    def check(self, out_dir: Path) -> float:
        """Raise GateFailure unless the outputs are right; return the run's ARI.

        On `compare` the ARI is the adaptive run's against the truth; on the
        dbscan workloads it is the CLI's labels against the oracle's, 1.0
        whenever the gate passes.
        """
        for name in self.outputs:
            if not (out_dir / name).is_file():
                raise GateFailure(f"missing output {name}")
        if self.seed == DEFAULT_SEED:
            _check_goldens(self.name, out_dir, self.outputs)
        if self.name == "compare_four_varying":
            return _check_compare(out_dir)
        coords, labels, classes = read_labels(out_dir / "labels.csv")
        if not np.array_equal(coords, self.coords):
            raise GateFailure("labels.csv coordinates differ from the input")
        _check_labeling(labels, classes, *self.expected)
        if not (out_dir / "labels.svg").read_text(encoding="utf-8").startswith("<svg"):
            raise GateFailure("labels.svg is not an SVG document")
        return adjusted_rand_index(self.expected[0].tolist(), labels.tolist())


def prepare(name: str, seed: int, work: Path) -> Workload:
    """Write the workload's inputs under work and compute its expected answers."""
    rng = np.random.default_rng(seed)
    if name == "compare_four_varying":
        scenario_seed = int(rng.integers(2**63))
        argv = ["compare", "--scenario", "four_varying", "--seed", str(scenario_seed)]
        outputs = (
            "dataset.csv",
            "dbscan.csv",
            "dbscan.svg",
            "dbscan_manifest.txt",
            "adbscan.csv",
            "adbscan.svg",
            "adbscan_manifest.txt",
        )
        return Workload(name, seed, argv + ["--out-dir", "{out}"], outputs)
    if name == "dbscan_sparse_20k":
        coords = sparse_points(rng)
    elif name == "dbscan_dup_3k":
        coords = duplicated_points(rng)
    else:
        raise KeyError(f"unknown workload {name!r}")
    path = work / "input.csv"
    write_points_csv(coords, path)
    argv = [
        "dbscan", "--in", str(path), "--eps", repr(EPS), "--min-pts", str(MIN_PTS),
        "--out", "{out}/labels.csv", "--svg", "{out}/labels.svg",
    ]
    expected = dbscan_oracle(coords, EPS, MIN_PTS)
    return Workload(name, seed, argv, ("labels.csv", "labels.svg"), coords, expected)


def sparse_points(rng: np.random.Generator, n: int = 20_000) -> np.ndarray:
    """Uniform points on a 1e-3 lattice, about 10 per closed ball of radius EPS.

    The lattice makes some pairs sit at exactly EPS, which the gate then checks.
    """
    side = np.sqrt(n * np.pi * EPS * EPS / MIN_PTS)
    return np.round(rng.uniform(0.0, side, size=(n, 2)), 3)


def duplicated_points(rng: np.random.Generator) -> np.ndarray:
    """3000 points stacked on two sites, 2600 on one and 400 on the other.

    Every point is within EPS of all the others on its site, so there are
    2600² + 400² neighbor pairs whatever the seed, and the whole input is core.
    """
    sites = np.round(rng.uniform(2.0, 8.0, size=(2, 2)), 3)
    sites[1] += 10.0  # keep the two sites apart
    coords = np.concatenate([np.repeat(sites[:1], 2600, axis=0), np.repeat(sites[1:], 400, axis=0)])
    return coords[rng.permutation(coords.shape[0])]


def write_points_csv(coords: np.ndarray, path: Path) -> None:
    """`x,y` rows, each float written as repr(), which round-trips exactly."""
    lines = ["x,y"] + [f"{x!r},{y!r}" for x, y in coords.tolist()]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_labels(path: Path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Coordinates, labels and classes from an `x,y,cluster,class` CSV."""
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != "x,y,cluster,class":
        raise GateFailure(f"{path.name}: unexpected header")
    coords, labels, classes = [], [], []
    for line in lines[1:]:
        x, y, cluster, cls = line.split(",")
        if cls not in CLASS_TOKENS:
            raise GateFailure(f"{path.name}: unknown class {cls!r}")
        coords.append((float(x), float(y)))
        labels.append(int(cluster))
        classes.append(CLASS_TOKENS.index(cls))
    return np.array(coords), np.array(labels, dtype=np.int64), np.array(classes, dtype=np.int8)


def read_truth(path: Path) -> tuple[np.ndarray, np.ndarray]:
    """Coordinates and truth labels from an `x,y,label` CSV; `noise` reads as NOISE."""
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != "x,y,label":
        raise GateFailure(f"{path.name}: unexpected header")
    coords, truth = [], []
    for line in lines[1:]:
        x, y, label = line.split(",")
        coords.append((float(x), float(y)))
        truth.append(NOISE if label == "noise" else int(label))
    return np.array(coords), np.array(truth, dtype=np.int64)


def read_manifest(path: Path) -> dict[str, str]:
    fields = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        key, _, value = line.partition(" ")
        fields[key] = value
    return fields


def _check_labeling(labels, classes, want_labels, want_classes) -> None:
    if not np.array_equal(labels, want_labels):
        bad = np.flatnonzero(labels != want_labels)
        raise GateFailure(f"{bad.size} labels differ from the oracle, first at point {bad[0]}")
    if not np.array_equal(classes, want_classes):
        bad = np.flatnonzero(classes != want_classes)
        raise GateFailure(f"{bad.size} classes differ from the oracle, first at point {bad[0]}")


def _check_compare(out_dir: Path) -> float:
    coords, truth = read_truth(out_dir / "dataset.csv")
    ari = {}
    for algo in ("dbscan", "adbscan"):
        got_coords, labels, classes = read_labels(out_dir / f"{algo}.csv")
        if not np.array_equal(got_coords, coords):
            raise GateFailure(f"{algo}.csv coordinates differ from dataset.csv")
        manifest = read_manifest(out_dir / f"{algo}_manifest.txt")
        ari[algo] = adjusted_rand_index(truth.tolist(), labels.tolist())
        if repr(ari[algo]) != manifest.get("report.ari"):
            raise GateFailure(
                f"{algo}: ARI from the CSVs is {ari[algo]!r}, manifest says {manifest.get('report.ari')}"
            )
        if algo == "dbscan":
            eps, min_pts = float(manifest["params.eps"]), int(manifest["params.min_pts"])
            _check_labeling(labels, classes, *dbscan_oracle(coords, eps, min_pts))
    return ari["adbscan"]


def output_hashes(out_dir: Path, outputs) -> dict[str, str]:
    return {name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest() for name in outputs}


def _check_goldens(name: str, out_dir: Path, outputs) -> None:
    want = json.loads(GOLDENS.read_text(encoding="utf-8"))[name]
    got = output_hashes(out_dir, outputs)
    if got != want:
        changed = sorted(k for k in want if got.get(k) != want[k])
        raise GateFailure(f"output bytes changed for seed {DEFAULT_SEED}: {changed}; now {json.dumps(got)}")
