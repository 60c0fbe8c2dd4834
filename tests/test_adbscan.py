"""The escalation loop: stepping arithmetic, the acceptance bar, cluster
removal, stop reasons, and full traces on a hand-built two-density fixture;
and the eps tuner: pinned results on the built-in scenarios, degenerate and
split blobs."""
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from varden import adbscan
from varden.adbscan import accept_cluster, remove_cluster, run_adbscan, step_params, tune_eps_densest
from varden.dbscan import EpsBracket, run_dbscan
from varden.model import (
    AdbscanParams,
    DataError,
    Dataset,
    DbscanParams,
    LabeledDataset,
    Labeling,
    NOISE,
    ParamError,
    PointClass,
    STOP_EPS_CAP,
    STOP_K_REACHED,
    STOP_MAX_ITERS,
    STOP_RESIDUAL,
    validate_labeling,
)
from varden.neighborhood import NeighborIndex, build_index, kth_d2
from varden.synthgen import SCENARIO_NAMES, gen_scenario, paper_scenario


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

    @pytest.mark.parametrize("labels", [[-2, 0, 0], [-2, NOISE, NOISE]])
    def test_cluster_ids_below_noise_rejected(self, labels):
        # a raw ValueError from bincount, or None, before
        with pytest.raises(DataError, match="^cluster ids below -1$"):
            accept_cluster(Labeling(labels, [0, 2, 2]), 3, 0.10)

    @pytest.mark.parametrize("cid", [1, 2**40])
    def test_cluster_ids_with_a_gap_rejected(self, cid):
        # cluster 0 is empty: validate_labeling and evaluate reject these ids
        # too, where accept_cluster once counted cluster 0 as empty
        with pytest.raises(DataError, match="^cluster ids are not contiguous from 0$"):
            accept_cluster(Labeling([cid, cid, NOISE], [2, 2, 0]), 3, 0.10)


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
        with pytest.raises(ParamError):
            remove_cluster(ds, lab, 3)

    @pytest.mark.parametrize("cid", [-1, 0.5, None])
    def test_bad_cluster_id_rejected(self, cid):
        # 0.5 used to keep every point; -1 names noise, which is no cluster
        ds = Dataset(np.zeros((3, 2)))
        lab = Labeling([0, 1, 2], [2, 2, 2])
        with pytest.raises(ParamError, match="cluster id"):
            remove_cluster(ds, lab, cid)

    @pytest.mark.parametrize("size", [2, 4])
    def test_labeling_that_does_not_cover_the_dataset_rejected(self, size):
        # a shorter labeling used to drop none of 3 points, a longer one raised a raw IndexError
        ds = Dataset(np.zeros((3, 2)))
        with pytest.raises(DataError, match=f"^labeling covers {size} points, dataset has 3$"):
            remove_cluster(ds, Labeling([0] * size, [2] * size), 0)

    def test_integral_cluster_id_accepted(self):
        ds = Dataset(np.arange(6.0).reshape(3, 2))
        _, kept = remove_cluster(ds, Labeling([0, 1, 2], [2, 2, 2]), np.int64(1))
        assert kept.tolist() == [0, 2]


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

    @pytest.mark.parametrize("steps", [{"step": 1e308}, {"eps_step": 1e308}, {"min_pts_step": 1e308}])
    def test_an_escalation_that_overflows_is_a_param_error(self, steps):
        # the third iteration's eps or min_pts is inf: one ParamError naming
        # it, not a raw OverflowError from ceil or DbscanParams' own message
        ds = Dataset(np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]]))
        with pytest.raises(ParamError, match="escalation overflowed at iteration 3"):
            run_adbscan(ds, AdbscanParams(k=5, max_iters=5, **steps))

    def test_eps_cap_stops_an_infinite_eps(self):
        # the stop checks come first
        ds = Dataset(np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]]))
        res = run_adbscan(ds, AdbscanParams(k=5, max_iters=5, step=1e308, eps_cap=1.5e308))
        assert res.stop_reason == STOP_EPS_CAP
        assert res.iterations == 2

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


# tune_eps_densest(scenario at seed, min_pts=10), recorded when every probe
# still ran its own scan
_PINNED = {
    "two_equal": (
        0.07913498374929562, 0.07722781275073534, 0.0840020599150866, 0.0883153748045738, 0.07011321725925412,
    ),
    "three_varying": (
        0.09955661858940393, 0.10297041700098047, 0.11101369952219642, 0.09572472932874118, 0.11040428955297407,
    ),
    "four_varying": (
        0.09955661858940393, 0.10297041700098047, 0.11101369952219642, 0.09572472932874118, 0.11040428955297407,
    ),
}
_PINNED_CASES = [(name, seed, eps) for name, floats in _PINNED.items() for seed, eps in enumerate(floats)]

# float.hex of tune_eps_densest(scenario at seeds 0-39, min_pts=10), recorded
# before the tuner stopped its kth_d2 sweeps at the densest blob, widened its
# first bracket and answered its probes from the forest
_PINNED_HEX = {
    "four_varying": (
        "0x1.97c8ae4f11c22p-4", "0x1.a5c44ed798584p-4", "0x1.c6b64d0db1600p-4",
        "0x1.8816a75e2a946p-4", "0x1.c43749cf7d7e6p-4", "0x1.95d3687f1f28ap-4",
        "0x1.ae79747ea5365p-4", "0x1.a95ee9f04816ep-4", "0x1.c4ae940d7bdb2p-4",
        "0x1.ba58b4cd275fcp-4", "0x1.fb72ba7a45288p-4", "0x1.939468ec4ded0p-4",
        "0x1.7df8a05128b26p-4", "0x1.bf1a3785ee17cp-4", "0x1.e60c60483a922p-4",
        "0x1.a22be3b64a36ap-4", "0x1.c0d4302a766f0p-4", "0x1.aebf0055917d8p-4",
        "0x1.c608eec10f918p-4", "0x1.b86a4411667cap-4", "0x1.c622d79b9beefp-4",
        "0x1.c2437193b69b5p-4", "0x1.bbf2e9ad8d0cep-4", "0x1.bb9f2597b6f7cp-4",
        "0x1.a43c3035ef2dap-4", "0x1.ab0e16e4fb39ep-4", "0x1.ad753d59a3642p-4",
        "0x1.a1aa384a35bd4p-4", "0x1.b98775eb039d0p-4", "0x1.952492b3dd41ap-4",
        "0x1.b4b24efb08b62p-4", "0x1.83f5f987f43cfp-4", "0x1.91fbfcf03dec6p-4",
        "0x1.835cf11a356c1p-4", "0x1.92d4eaf7c890ep-4", "0x1.b8f6a90ecd8cfp-4",
        "0x1.bdf26193671e2p-4", "0x1.8afc720707fdap-4", "0x1.e160edd55ad17p-4",
        "0x1.989fa9ebf113bp-4",
    ),
    "three_varying": (
        "0x1.97c8ae4f11c22p-4", "0x1.a5c44ed798584p-4", "0x1.c6b64d0db1600p-4",
        "0x1.8816a75e2a946p-4", "0x1.c43749cf7d7e6p-4", "0x1.95d3687f1f28ap-4",
        "0x1.ae79747ea5365p-4", "0x1.a95ee9f04816ep-4", "0x1.c4ae940d7bdb2p-4",
        "0x1.ba58b4cd275fcp-4", "0x1.fb72ba7a45288p-4", "0x1.939468ec4ded0p-4",
        "0x1.7df8a05128b26p-4", "0x1.bf1a3785ee17cp-4", "0x1.e60c60483a922p-4",
        "0x1.a22be3b64a36ap-4", "0x1.c0d4302a766f0p-4", "0x1.aebf0055917d8p-4",
        "0x1.c608eec10f918p-4", "0x1.b86a4411667cap-4", "0x1.c622d79b9beefp-4",
        "0x1.c2437193b69b5p-4", "0x1.bbf2e9ad8d0cep-4", "0x1.bb9f2597b6f7cp-4",
        "0x1.a43c3035ef2dap-4", "0x1.ab0e16e4fb39ep-4", "0x1.ad753d59a3642p-4",
        "0x1.a1aa384a35bd4p-4", "0x1.c49ca037e9b48p-4", "0x1.952492b3dd41ap-4",
        "0x1.b4b24e4c2adecp-4", "0x1.83f5f987f43cfp-4", "0x1.91fbfcf03dec6p-4",
        "0x1.835cf11a356c1p-4", "0x1.92d4eaf7c890ep-4", "0x1.b8f6a90ecd8cfp-4",
        "0x1.bdf26193671e2p-4", "0x1.8afc720707fdap-4", "0x1.e160edd55ad17p-4",
        "0x1.989fa9ebf113bp-4",
    ),
    "two_equal": (
        "0x1.44230b72c3720p-4", "0x1.3c533b21b2422p-4", "0x1.58128b421c621p-4",
        "0x1.69bd61e850644p-4", "0x1.1f2f0972555b8p-4", "0x1.305e8e5f575e8p-4",
        "0x1.42db175efbe8cp-4", "0x1.3f072f7436114p-4", "0x1.5382ef0a1ce46p-4",
        "0x1.4bc28799dd87cp-4", "0x1.3a0d7d6e24b89p-4", "0x1.4af02b40bf31dp-4",
        "0x1.2c6d61eca893ap-4", "0x1.515cb0e49db0ep-4", "0x1.48bd8e9bbfc66p-4",
        "0x1.2b9f08582b706p-4", "0x1.40e7821677d40p-4", "0x1.1da3921e6a90ap-4",
        "0x1.5486aa7065738p-4", "0x1.3411cd1046da5p-4", "0x1.1fb8e9e9dff64p-4",
        "0x1.51b2952ec8f47p-4", "0x1.43f6aaf178f6ap-4", "0x1.3328945d2d6edp-4",
        "0x1.3b2d1807e10c1p-4", "0x1.3ffe7e8345799p-4", "0x1.4217ee033a8b3p-4",
        "0x1.393fb2035d80cp-4", "0x1.5375839617136p-4", "0x1.2fdb6e06e5f16p-4",
        "0x1.4785bb3c4688ap-4", "0x1.22f87b25f72d9p-4", "0x1.3134cbf24c747p-4",
        "0x1.2285b4d3a810fp-4", "0x1.65686b7616464p-4", "0x1.4ab8fecb1a29ap-4",
        "0x1.31f34db419f60p-4", "0x1.283d558545fe4p-4", "0x1.6908b260041d0p-4",
        "0x1.3277bf70f4ceep-4",
    ),
}


class TestTuneEpsDensest:
    @pytest.mark.parametrize(
        "name, seed, expected", _PINNED_CASES, ids=[f"{name}-{eps}" for name, _, eps in _PINNED_CASES]
    )
    def test_pinned_on_builtin_scenarios(self, name, seed, expected):
        labeled = gen_scenario(replace(paper_scenario(name), seed=seed))
        assert tune_eps_densest(labeled, min_pts=10) == expected

    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    @pytest.mark.parametrize("seed", range(5))
    def test_tuned_scan_is_run_dbscan_at_the_tuned_eps(self, name, seed):
        # compare's fixed scan comes from the tuner's last bracket
        labeled = gen_scenario(replace(paper_scenario(name), seed=seed))
        eps, scan = adbscan._tuned_scan(labeled, 10)
        assert eps == tune_eps_densest(labeled, min_pts=10)
        lab = run_dbscan(labeled.dataset, DbscanParams(eps, 10))
        assert np.array_equal(scan.labels, lab.labels) and np.array_equal(scan.classes, lab.classes)

    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    def test_bits_on_forty_seeds(self, name):
        got = [tune_eps_densest(gen_scenario(replace(paper_scenario(name), seed=seed)), 10) for seed in range(40)]
        assert tuple(eps.hex() for eps in got) == _PINNED_HEX[name]

    def test_predicate_is_not_monotone(self):
        # at min_pts 3, 20 blob points 0.01 apart on a line, one more blob
        # point at 5.0 and two noise points at 5.5 and 6.0: the blob coheres
        # at 0.02 (the far point is noise), not at 1.0 (it is core in a
        # cluster of its own with the other two) and again at 5.0 (one
        # cluster). The tuner returns the passing end of its last bisection
        # bracket, by the line's own spacing
        coords = np.array([(0.01 * i, 0.0) for i in range(20)] + [(5.0, 0.0), (5.5, 0.0), (6.0, 0.0)])
        labeled = LabeledDataset(Dataset(coords), np.r_[np.zeros(21), [NOISE, NOISE]])
        assert [_coheres(labeled, eps, 3) for eps in (0.02, 1.0, 5.0)] == [True, False, True]
        assert tune_eps_densest(labeled, min_pts=3) == 0.010000000000000009

    @pytest.mark.parametrize("small", [[(4.0, 0.0)] * 5, [(4.0, 0.0), (4.0, 1e-12)]], ids=["coincident", "close"])
    def test_blob_below_min_pts_takes_few_sweeps(self, work, small):
        # a 60-point ring and, 3 beyond it, a blob of fewer than min_pts
        # points, whose 10th neighbours lie in the ring: the kth_d2 sweeps
        # start from the ring's scale, not from that blob's spread (0, or
        # 1e-12 and about 40 sweeps)
        coords = np.array(_ring(0, 0, 1.0, 60) + small)
        labeled = LabeledDataset(Dataset(coords), np.r_[np.zeros(60), np.ones(len(small))])
        assert _coheres(labeled, tune_eps_densest(labeled, min_pts=10))
        assert work["grids"] - work["brackets"] <= 8  # each kth_d2 sweep builds one grid, as each bracket does

    def test_work_on_the_compare_benchmark_scenario(self, work):
        # four_varying at the seed that perfbench's compare workload draws for
        # its seed 0: one kth_d2 sweep, one bracket, one Labeling (the fixed
        # scan) and 34,708 d2 entries, where sweeping until every blob row
        # was defined, one bracket per factor of two and one Labeling per
        # probe took 7 grids, 2 brackets, 22 Labelings and 189,968 d2 entries
        labeled = gen_scenario(replace(paper_scenario("four_varying"), seed=5874934615388537135))
        adbscan._tuned_scan(labeled, 10)
        assert work["grids"] <= 2 and work["brackets"] <= 1 and work["labelings"] == 1
        assert work["entries"] <= 40_000

    def test_returns_a_python_float(self):
        # an np.float64 would print as np.float64(...) in a manifest's params.eps
        labeled = gen_scenario(replace(paper_scenario("two_equal"), seed=0))
        assert type(tune_eps_densest(labeled, min_pts=10)) is float

    def test_densest_blob_found_among_interleaved_ids(self):
        # blob 7 (an 11-point ring, odd) is denser than blob 2 (a 12-point
        # ring, even); their points alternate in the input and 7 > 2, so the
        # medians must come from each blob's own sorted run
        dense, sparse = _ring(0, 0, 0.1, 11), _ring(5, 0, 1.0, 12)
        coords = np.array([p for pair in zip(sparse, dense) for p in pair] + sparse[11:])
        truth = np.array([2, 7] * 11 + [2])
        both = tune_eps_densest(LabeledDataset(Dataset(coords), truth), min_pts=5)
        only_dense = tune_eps_densest(LabeledDataset(Dataset(coords), np.where(truth == 7, 7, NOISE)), min_pts=5)
        only_sparse = tune_eps_densest(LabeledDataset(Dataset(coords), np.where(truth == 2, 2, NOISE)), min_pts=5)
        assert both == only_dense != only_sparse

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

    @pytest.mark.parametrize("bad", [0, -3, 1.5, math.nan, math.inf])
    def test_min_pts_is_checked_before_the_data(self, bad):
        # the truth has no clusters, which would be a DataError
        labeled = LabeledDataset(Dataset(np.zeros((5, 2))), np.full(5, NOISE))
        with pytest.raises(ParamError):
            tune_eps_densest(labeled, min_pts=bad)

    def test_integral_float_min_pts_is_an_int(self):
        labeled = gen_scenario(replace(paper_scenario("two_equal"), seed=1))
        assert tune_eps_densest(labeled, min_pts=3.0) == tune_eps_densest(labeled, min_pts=3)

    @pytest.mark.parametrize(
        "coords, threshold",
        [
            (np.zeros((3000, 2)), 0.0),
            # two stacks 1 apart: 640k pairs between them, of which one decides
            (np.repeat([[0.0, 0.0], [1.0, 0.0]], 800, axis=0), 1.0),
        ],
        ids=["coincident", "two_stacks"],
    )
    def test_stacked_points_stay_in_bounded_memory(self, coords, threshold):
        eps, peak = _tune_traced(LabeledDataset(Dataset(coords), np.zeros(len(coords))))
        assert threshold <= eps <= max(1e-9, threshold * (1 + 1e-6))
        assert peak < 16 * 2**20

    def test_clump_in_another_blob_stays_in_bounded_memory(self):
        # the densest blob is a 60-point ring; the other blob's 1200 clumped
        # points lie within its first bracket of each other (720k pairs)
        rng = np.random.default_rng(0)
        ring = np.array(_ring(0, 0, 1.0, 60))
        clump = rng.integers(0, 100, size=(1200, 2)) * 1e-5 + [5.0, 0.0]
        spread = rng.integers(0, 100, size=(1300, 2)) * 0.5 + [10.0, 0.0]
        labeled = LabeledDataset(Dataset(np.concatenate([ring, clump, spread])), np.r_[np.zeros(60), np.ones(2500)])
        eps, peak = _tune_traced(labeled)
        assert eps == 0.5176385838631932  # what one scan per probe returned
        assert peak < 16 * 2**20


class TestDoubledKthD2:
    """Core distances by radius doubling equal the uncapped ones on the rows asked for, bit for bit."""

    @pytest.mark.parametrize("name", ["two_equal", "three_varying", "four_varying"])
    @pytest.mark.parametrize("seed", range(5))
    def test_scenarios(self, name, seed):
        labeled = gen_scenario(replace(paper_scenario(name), seed=seed))
        members = np.flatnonzero(labeled.truth != NOISE)
        index = build_index(labeled.dataset)
        got = adbscan._doubled_kth_d2(index, 10, members)
        assert got[members].tobytes() == kth_d2(index, 10, 2.0**512)[members].tobytes()
        assert np.isnan(np.delete(got, members)).all()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("scale", [1e-170, 1e150])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_lines_at_extreme_scales(self, scale, dim):
        # d2 underflows at 1e-170 and overflows at 1e150; uneven gaps put
        # the rows' k-th neighbors at many radii
        coords = np.zeros((80, dim))
        coords[:, 0] = np.cumsum(np.random.default_rng(dim).integers(1, 50, size=80)) * scale
        index = build_index(Dataset(coords))
        rows = np.arange(0, 80, 3)
        for k in (1, 2, 10, 80):
            got = adbscan._doubled_kth_d2(index, k, rows)[rows]
            assert got.tobytes() == kth_d2(index, k, 2.0**512)[rows].tobytes()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_ring_whose_squared_distances_overflow_takes_few_sweeps(self, monkeypatch):
        sweeps = []
        tiles = NeighborIndex.tiles
        monkeypatch.setattr(NeighborIndex, "tiles", lambda self, eps, *a, **kw: sweeps.append(eps) or tiles(self, eps, *a, **kw))
        labeled = LabeledDataset(Dataset(np.array(_ring(0, 0, 1e160, 12))), np.zeros(12))
        assert tune_eps_densest(labeled, min_pts=10) * 1e-160 < 10
        assert len(sweeps) <= 64

    def test_stacks_start_from_the_gap_between_them(self, monkeypatch):
        # two 1500-point stacks 5 * sqrt(2) apart in one blob: the median radius
        # is 0, and doubling from 1e-9 built 34 brackets
        built = []
        monkeypatch.setattr(adbscan, "EpsBracket", lambda *a: built.append(a) or EpsBracket(*a))
        coords = np.repeat([[0.0, 0.0], [5.0, 5.0]], 1500, axis=0)
        eps = tune_eps_densest(LabeledDataset(Dataset(coords), np.zeros(3000)), min_pts=10)
        assert eps * eps >= 50.0 and eps <= math.sqrt(50.0) * (1 + 1e-6)
        assert len(built) <= 8


@st.composite
def _cohesion_inputs(draw):
    """Lattice points in 1-3 D (d2 ties at many radii), a nonempty target,
    a bracket [lo, hi], and probes in it: random radii, then each radius
    of the lattice's distances in the bracket, just below it, at it and
    just above it, so that probes of one rank come in both orders."""
    dim = draw(st.integers(1, 3))
    coords = np.array(draw(st.lists(st.tuples(*[st.integers(0, 6)] * dim), min_size=2, max_size=40)), dtype=float) * 0.25
    target = np.flatnonzero(draw(st.lists(st.booleans(), min_size=len(coords), max_size=len(coords))))
    assume(target.size)
    hi = draw(st.sampled_from([0.25, 0.5, 0.75, 1.0, 2.0]))
    lo = draw(st.sampled_from([0.0, 0.5 * hi, hi]))
    probes = draw(st.lists(st.floats(lo, hi, exclude_min=lo == 0.0), max_size=6))
    for r in 0.25 * np.sqrt(np.arange(1, 109)):  # the lattice's d2 are 0.0625 * m, m <= 108
        probes += [x for x in (np.nextafter(r, 0.0), r, np.nextafter(r, math.inf)) if lo <= x <= hi]
    return Dataset(coords), target, draw(st.integers(1, 6)), lo, hi, [float(x) for x in probes]


@settings(max_examples=200, deadline=None)
@given(_cohesion_inputs())
def test_cached_forest_probe_is_the_labeling_predicate(case):
    ds, target, min_pts, lo, hi, probes = case
    bracket = EpsBracket(build_index(ds), min_pts, lo, hi)
    coheres = adbscan._Cohesion(bracket, target)
    for eps in probes + probes[::-1]:  # each eps twice, once after the eps above it and once after those below
        labels = bracket.labeling(eps).labels[target]
        clustered = labels[labels != NOISE]
        assert coheres(eps) == (clustered.size >= 0.9 * target.size and len(set(clustered.tolist())) == 1)


def _tune_traced(labeled):
    """tune_eps_densest(labeled, 10) and the peak of the memory it traced."""
    tracemalloc.start()
    try:
        eps = tune_eps_densest(labeled, min_pts=10)
        return eps, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
