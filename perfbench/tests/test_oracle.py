import numpy as np
import pytest

from varden.dbscan import run_dbscan
from varden.metrics import adjusted_rand_index as varden_ari
from varden.model import Dataset, DbscanParams

import oracle
import workloads


@pytest.mark.parametrize("seed", range(12))
def test_oracle_matches_run_dbscan(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 300))
    # Coordinates on a 0.1 lattice put many pairs at exactly eps; a few
    # stacked copies add duplicates.
    coords = np.round(rng.uniform(0.0, 3.0, size=(n, 2)), 1)
    coords = np.concatenate([coords, np.repeat(coords[:1], int(rng.integers(0, 20)), axis=0)])
    eps = float(rng.choice([0.1, 0.2, 0.3, 0.5]))
    min_pts = int(rng.integers(1, 12))
    lab = run_dbscan(Dataset(coords), DbscanParams(eps, min_pts))
    labels, classes = oracle.dbscan_oracle(coords, eps, min_pts)
    np.testing.assert_array_equal(labels, lab.labels)
    np.testing.assert_array_equal(classes, lab.classes)


def test_oracle_blocks_cover_every_pair(monkeypatch):
    monkeypatch.setattr(oracle, "_BLOCK", 7)
    coords = np.round(np.random.default_rng(1).uniform(0.0, 4.0, size=(100, 2)), 1)
    labels, classes = oracle.dbscan_oracle(coords, 0.3, 4)
    lab = run_dbscan(Dataset(coords), DbscanParams(0.3, 4))
    np.testing.assert_array_equal(labels, lab.labels)
    np.testing.assert_array_equal(classes, lab.classes)


@pytest.mark.parametrize("seed", range(6))
def test_ari_matches_varden(seed):
    rng = np.random.default_rng(seed)
    truth = rng.integers(-1, 4, size=200).tolist()
    pred = rng.integers(-1, 3, size=200).tolist()
    assert oracle.adjusted_rand_index(truth, pred) == varden_ari(truth, pred)
    assert oracle.adjusted_rand_index(truth, truth) == 1.0


def test_workload_inputs_depend_only_on_the_seed(tmp_path):
    for name in ("dbscan_sparse_20k", "dbscan_dup_3k"):
        a = workloads.prepare(name, 5, tmp_path)
        b = workloads.prepare(name, 5, tmp_path)
        np.testing.assert_array_equal(a.coords, b.coords)
        assert not np.array_equal(a.coords, workloads.prepare(name, 6, tmp_path).coords)
