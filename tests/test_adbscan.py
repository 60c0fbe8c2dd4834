"""The escalation loop: stepping arithmetic, the acceptance bar, cluster
removal, stop reasons, and full traces on a hand-built two-density fixture;
and the eps tuner: pinned results on the built-in scenarios, degenerate and
split blobs."""
import math
from dataclasses import replace

import numpy as np
import pytest

from varden.adbscan import accept_cluster, remove_cluster, run_adbscan, step_params, tune_eps_densest
from varden.dbscan import run_dbscan
from varden.model import (
    AdbscanParams,
    Dataset,
    DbscanParams,
    LabeledDataset,
    Labeling,
    NOISE,
    PointClass,
    STOP_EPS_CAP,
    STOP_K_REACHED,
    STOP_MAX_ITERS,
    STOP_RESIDUAL,
    validate_labeling,
)
from varden.synthgen import gen_scenario, paper_scenario


def _ring(cx, cy, r, count):
    pts = []
    for k in range(count):
        a = 2 * math.pi * k / count
        pts.append((cx + r * math.cos(a), cy + r * math.sin(a)))
    return pts


@pytest.fixture
def two_density_ds():
    """Dense 10-ring at the origin, sparse 8-ring at (10,0), 2 far strays.

    With eps0=0.5, min_pts0=4, step=0.5: iteration 1 clusters only the dense
    ring (sparse ring's nearest-neighbor gap is 0.536 > 0.5); iteration 2 at
    (eps=1.0, min_pts=5) clusters the sparse ring (each point sees exactly
    {self, +-1, +-2}: chords 0.536 and 0.99). The strays never cluster.
    """
    pts = _ring(0, 0, 0.2, 10) + _ring(10, 0, 0.7, 8) + [(0.0, 50.0), (50.0, 0.0)]
    return Dataset(np.array(pts))


PARAMS = dict(eps0=0.5, min_pts0=4, step=0.5)


class TestStepParams:
    def test_shared_step(self):
        assert step_params(0.5, 10.0, 0.5) == (1.0, 10.5)

    def test_half_steps_accumulate(self):
        eps, mp = 0.5, 10.0
        seen = []
        for _ in range(4):
            seen.append((eps, math.ceil(mp)))
            eps, mp = step_params(eps, mp, 0.5)
        assert seen == [(0.5, 10), (1.0, 11), (1.5, 11), (2.0, 12)]

    def test_independent_overrides(self):
        assert step_params(1.0, 5.0, 0.5, eps_step=1.0) == (2.0, 5.5)
        assert step_params(1.0, 5.0, 0.5, min_pts_step=0.0) == (1.5, 5.0)


class TestAcceptCluster:
    def _lab(self, sizes):
        labels = np.concatenate([np.full(s, i) for i, s in enumerate(sizes)])
        classes = np.full(labels.size, int(PointClass.CORE), dtype=np.int8)
        return Labeling(labels, classes)

    def test_largest_above_bar(self):
        assert accept_cluster(self._lab([8, 3]), 50, 0.10) == 0

    def test_bar_is_strict(self):
        # 5 of 50 is exactly 10%: not strictly above, so rejected
        assert accept_cluster(self._lab([5, 3]), 50, 0.10) is None
        assert accept_cluster(self._lab([5, 3]), 49, 0.10) == 0

    def test_largest_wins_not_first(self):
        assert accept_cluster(self._lab([3, 9]), 50, 0.10) == 1

    def test_tie_goes_to_lowest_id(self):
        assert accept_cluster(self._lab([7, 7]), 50, 0.10) == 0

    def test_no_clusters(self):
        lab = Labeling([NOISE, NOISE], [0, 0])
        assert accept_cluster(lab, 2, 0.10) is None


class TestRemoveCluster:
    def test_drops_members_and_maps_survivors(self):
        ds = Dataset(np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 0.0]]))
        lab = Labeling([0, 1, 0, NOISE], [2, 2, 2, 0])
        rest, kept = remove_cluster(ds, lab, 0)
        assert list(kept) == [1, 3]
        assert np.array_equal(rest.coords, ds.coords[[1, 3]])

    def test_unknown_cluster(self):
        ds = Dataset(np.zeros((2, 2)))
        lab = Labeling([0, 0], [2, 2])
        with pytest.raises(ValueError):
            remove_cluster(ds, lab, 3)


class TestRunAdbscan:
    def test_two_density_trace(self, two_density_ds):
        res = run_adbscan(two_density_ds, AdbscanParams(k=2, **PARAMS))
        assert res.stop_reason == STOP_K_REACHED
        assert res.n_clusters == 2
        assert res.iterations == 2

        it1, it2 = res.trace
        assert (it1.index, it1.eps, it1.min_pts, it1.min_pts_real) == (1, 0.5, 4, 4.0)
        assert it1.accepted and it1.accepted_size == 10
        assert it1.remaining == 10
        assert (it2.index, it2.eps, it2.min_pts, it2.min_pts_real) == (2, 1.0, 5, 4.5)
        assert it2.accepted and it2.accepted_size == 8
        assert it2.remaining == 2

        # dense ring got id 0, sparse ring id 1 (acceptance order)
        assert set(res.labels[:10]) == {0}
        assert set(res.labels[10:18]) == {1}
        assert set(res.labels[18:]) == {NOISE}
        validate_labeling(res.as_labeling(), len(two_density_ds))

    def test_k_one_stops_after_first_acceptance(self, two_density_ds):
        res = run_adbscan(two_density_ds, AdbscanParams(k=1, **PARAMS))
        assert res.stop_reason == STOP_K_REACHED
        assert res.n_clusters == 1
        assert res.iterations == 1
        assert set(res.labels[10:]) == {NOISE}

    def test_residual_stop(self, two_density_ds):
        # after both rings leave, 2 of 20 points (10%) remain <= 20% bar
        res = run_adbscan(
            two_density_ds, AdbscanParams(k=5, residual_fraction=0.20, **PARAMS)
        )
        assert res.stop_reason == STOP_RESIDUAL
        assert res.n_clusters == 2

    def test_eps_cap_stop(self, two_density_ds):
        res = run_adbscan(two_density_ds, AdbscanParams(k=2, eps_cap=0.8, **PARAMS))
        assert res.stop_reason == STOP_EPS_CAP
        assert res.n_clusters == 1  # only the dense ring fit under the cap
        assert res.iterations == 1

    def test_max_iters_stop(self, two_density_ds):
        res = run_adbscan(two_density_ds, AdbscanParams(k=2, max_iters=1, **PARAMS))
        assert res.stop_reason == STOP_MAX_ITERS
        assert res.n_clusters == 1
        assert res.iterations == 1

    def test_budget_exhaustion_still_returns_valid_result(self):
        # pure strays: nothing ever clusters, the loop burns its budget
        ds = Dataset(np.array([[0.0, 0.0], [30.0, 0.0], [0.0, 30.0], [30.0, 30.0]]))
        res = run_adbscan(ds, AdbscanParams(k=2, max_iters=7, min_pts0=3))
        assert res.stop_reason == STOP_MAX_ITERS
        assert res.n_clusters == 0
        assert res.iterations == 7
        assert all(not r.accepted for r in res.trace)
        validate_labeling(res.as_labeling(), len(ds))

    def test_classes_come_from_accepting_scan(self, two_density_ds):
        res = run_adbscan(two_density_ds, AdbscanParams(k=2, **PARAMS))
        # every dense-ring point saw the whole ring: all core
        assert all(int(c) == int(PointClass.CORE) for c in res.classes[:10])
        # sparse ring at (eps=1, min_pts=5): exactly 5 neighbors each: core
        assert all(int(c) == int(PointClass.CORE) for c in res.classes[10:18])
        assert all(int(c) == int(PointClass.NOISE) for c in res.classes[18:])

    def test_acceptance_eps_nondecreasing(self, two_density_ds):
        res = run_adbscan(two_density_ds, AdbscanParams(k=2, **PARAMS))
        acc = [r.eps for r in res.trace if r.accepted]
        assert acc == sorted(acc)

    def test_deterministic(self, two_density_ds):
        p = AdbscanParams(k=2, **PARAMS)
        r1 = run_adbscan(two_density_ds, p)
        r2 = run_adbscan(two_density_ds, p)
        assert np.array_equal(r1.labels, r2.labels)
        assert r1.trace == r2.trace

    def test_remaining_counts_are_consistent(self, two_density_ds):
        res = run_adbscan(two_density_ds, AdbscanParams(k=2, **PARAMS))
        n = len(two_density_ds)
        for rec in res.trace:
            n -= rec.accepted_size
            assert rec.remaining == n


def _coheres(labeled, eps, min_pts=10):
    """The tuner's predicate, restated: >= 90% of blob 0 clustered, all in one cluster."""
    labels = run_dbscan(labeled.dataset, DbscanParams(eps, min_pts)).labels[labeled.truth == 0]
    clustered = labels[labels != NOISE]
    return clustered.size >= 0.9 * labels.size and np.unique(clustered).size == 1


class TestTuneEpsDensest:
    @pytest.mark.parametrize(
        "name, expected",
        [
            ("two_equal", 0.07722781275073534),
            ("three_varying", 0.10297041700098047),
            ("four_varying", 0.10297041700098047),
        ],
    )
    def test_pinned_on_builtin_scenarios(self, name, expected):
        labeled = gen_scenario(replace(paper_scenario(name), seed=1))
        assert tune_eps_densest(labeled, min_pts=10) == expected

    def test_coincident_points_give_a_valid_eps(self):
        labeled = LabeledDataset(Dataset(np.ones((12, 2))), np.zeros(12))
        eps = tune_eps_densest(labeled, min_pts=10)
        assert DbscanParams(eps, 10).eps == eps

    def test_split_blob_result_is_the_threshold(self):
        # one truth blob drawn as two 12-point rings 10 apart: it coheres only
        # once eps bridges the 9.8 gap, far above the rings' own radius
        ring = _ring(0, 0, 0.1, 12)
        labeled = LabeledDataset(Dataset(np.array(ring + [(x + 10.0, y) for x, y in ring])), np.zeros(24))
        eps = tune_eps_densest(labeled, min_pts=10)
        assert _coheres(labeled, eps)
        assert not _coheres(labeled, eps * (1 - 1.01e-6))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_ring_whose_squared_distances_overflow(self):
        # every pairwise d2 of a ring of radius 1e160 overflows, so the blob
        # coheres only at an eps whose square overflows too, and such an eps is finite
        labeled = LabeledDataset(Dataset(np.array(_ring(0, 0, 1e160, 12))), np.zeros(12))
        eps = tune_eps_densest(labeled, min_pts=10)
        assert DbscanParams(eps, 10).eps == eps
        assert eps * eps == math.inf
        assert _coheres(labeled, eps)
