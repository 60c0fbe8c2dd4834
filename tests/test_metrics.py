"""ARI against an independent pair-enumeration oracle, plus the report
builder. The oracle walks all C(n,2) pairs and uses the 2x2 contingency
form, sharing no code with the library's contingency-table version."""
import time
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from varden.metrics import (
    DegenerateInput,
    EvalReport,
    LengthMismatch,
    MissingGroundTruth,
    adjusted_rand_index,
    evaluate,
)
from varden.model import DataError, Dataset, Labeling, LabeledDataset, NOISE, PointClass
from varden.dbscan import run_dbscan
from varden.model import DbscanParams


def ari_pair_oracle(a, b):
    """ARI from the four pair-agreement counts, enumerated one by one."""
    n = len(a)
    ss = sd = ds_ = dd = 0
    for i in range(n):
        for j in range(i + 1, n):
            same_a = a[i] == a[j]
            same_b = b[i] == b[j]
            if same_a and same_b:
                ss += 1
            elif same_a:
                sd += 1
            elif same_b:
                ds_ += 1
            else:
                dd += 1
    num = 2 * (ss * dd - sd * ds_)
    den = (ss + sd) * (sd + dd) + (ss + ds_) * (ds_ + dd)
    return 1.0 if den == 0 else num / den


class TestAdjustedRandIndex:
    def test_identical_partitions(self):
        assert adjusted_rand_index([0, 0, 1, 1, 2], [0, 0, 1, 1, 2]) == 1.0

    def test_relabeled_identical(self):
        assert adjusted_rand_index([0, 0, 1, 1], [5, 5, 3, 3]) == 1.0

    def test_textbook_zero_case(self):
        # two 2-point classes vs one 4-point block: Index 2, Expected 2,
        # Max 4 -> (2-2)/(4-2) = 0
        assert adjusted_rand_index([1, 1, 2, 2], [1, 1, 1, 1]) == 0.0

    def test_symmetric(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            a = rng.integers(0, 4, size=30).tolist()
            b = rng.integers(0, 4, size=30).tolist()
            assert adjusted_rand_index(a, b) == adjusted_rand_index(b, a)

    def test_all_singletons_vs_itself(self):
        assert adjusted_rand_index([0, 1, 2, 3], [3, 2, 1, 0]) == 1.0

    def test_noise_is_its_own_class(self):
        # clustering a truth-noise point counts as disagreement
        with_noise = adjusted_rand_index([0, 0, 1, 1, NOISE], [0, 0, 1, 1, 1])
        assert with_noise < 1.0
        # while matching noise layouts agree perfectly
        assert adjusted_rand_index([0, 0, NOISE], [7, 7, NOISE]) == 1.0

    def test_can_be_negative(self):
        # systematic disagreement drops below chance level
        assert adjusted_rand_index([0, 1, 0, 1], [0, 0, 1, 1]) < 0.0

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            adjusted_rand_index([0, 1], [0, 1, 2])

    def test_degenerate_input(self):
        with pytest.raises(DegenerateInput):
            adjusted_rand_index([0], [0])

    @pytest.mark.parametrize("n", range(2, 9))
    def test_matches_pair_oracle_exhaustive_sizes(self, n):
        rng = np.random.default_rng(n)
        for _ in range(60):
            a = rng.integers(-1, 3, size=n).tolist()
            b = rng.integers(-1, 3, size=n).tolist()
            assert adjusted_rand_index(a, b) == pytest.approx(
                ari_pair_oracle(a, b), abs=1e-12
            )

    @settings(max_examples=75, deadline=None)
    @given(
        labels=st.lists(st.integers(0, 5), min_size=2, max_size=40),
        offset=st.integers(1, 100),
    )
    def test_bijective_relabeling_invariant(self, labels, offset):
        remapped = [l * 7 + offset for l in labels]  # injective on ints
        other = [(i * 3) % 4 for i in range(len(labels))]
        assert adjusted_rand_index(labels, other) == pytest.approx(
            adjusted_rand_index(remapped, other), abs=1e-12
        )


def _labeled(coords, truth):
    return LabeledDataset(Dataset(np.asarray(coords, dtype=float)), np.asarray(truth))


class TestEvaluate:
    def test_perfect_labeling(self):
        d = _labeled([[0, 0], [0.1, 0], [5, 5], [5.1, 5]], [0, 0, 1, 1])
        lab = Labeling([0, 0, 1, 1], [2, 2, 2, 2])
        rep = evaluate(d, lab)
        assert rep.ari == 1.0
        assert rep.num_clusters_found == 2
        assert rep.noise_fraction == 0.0
        assert rep.per_cluster_purity == (1.0, 1.0)

    def test_all_noise_prediction(self):
        d = _labeled([[0, 0], [1, 1], [2, 2]], [0, 1, 2])
        lab = Labeling([NOISE] * 3, [0] * 3)
        rep = evaluate(d, lab)
        assert rep.num_clusters_found == 0
        assert rep.noise_fraction == 1.0
        assert rep.per_cluster_purity == ()

    def test_noise_fraction_exact(self):
        d = _labeled([[i, 0] for i in range(8)], [0] * 8)
        lab = Labeling([0, 0, 0, 0, 0, NOISE, NOISE, NOISE], [2] * 5 + [0] * 3)
        assert evaluate(d, lab).noise_fraction == 3 / 8

    def test_purity_of_mixed_cluster(self):
        d = _labeled([[i, 0] for i in range(5)], [0, 0, 0, 1, NOISE])
        lab = Labeling([0] * 5, [2] * 5)
        rep = evaluate(d, lab)
        assert rep.per_cluster_purity == (3 / 5,)

    def test_accepts_adaptive_result(self):
        from varden.adbscan import run_adbscan
        from varden.model import AdbscanParams

        rng = np.random.default_rng(2)
        pts = np.vstack([rng.normal(0, 0.1, (30, 2)), rng.normal(5, 0.1, (30, 2))])
        d = _labeled(pts, [0] * 30 + [1] * 30)
        res = run_adbscan(d.dataset, AdbscanParams(k=2, min_pts0=5))
        rep = evaluate(d, res)
        assert rep.num_clusters_found == res.n_clusters

    def test_missing_ground_truth(self):
        ds = Dataset(np.zeros((3, 2)))
        with pytest.raises(MissingGroundTruth):
            evaluate(ds, Labeling([0, 0, 0], [2, 2, 2]))

    def test_length_mismatch(self):
        d = _labeled([[0, 0], [1, 1]], [0, 0])
        with pytest.raises(LengthMismatch):
            evaluate(d, Labeling([0], [2]))

    def test_non_contiguous_cluster_ids(self):
        # clusters 0 and 1 are empty: a DataError, not an IndexError from the purity loop,
        # and at 2**40 before anything is allocated per cluster id
        d = _labeled([[0, 0], [1, 1], [2, 2]], [0, 0, NOISE])
        for cid in (2, 2**40):
            with pytest.raises(DataError, match="cluster ids are not contiguous from 0"):
                evaluate(d, Labeling([cid, cid, NOISE], [2, 2, 0]))

    def test_cluster_ids_below_noise(self):
        # -2 is neither noise nor a cluster: rejected as validate_labeling rejects it
        d = _labeled([[0, 0], [1, 1], [2, 2], [3, 3]], [0, 0, 1, 1])
        with pytest.raises(DataError, match="^cluster ids below -1$"):
            evaluate(d, Labeling([-2, -2, 0, 0], [1, 1, 0, 0]))

    @pytest.mark.parametrize("labels, classes", [([0, 1], [2]), ([[0], [0]], [[2], [2]])])
    def test_labeling_of_the_wrong_shape(self, labels, classes):
        # one class for 2 labels used to be scored, and a 2 x 1 labeling was reported as "result covers 2 points, truth 2"
        d = _labeled([[0, 0], [1, 1]], [0, 0])
        with pytest.raises(DataError, match="1-d|different shapes"):
            evaluate(d, Labeling(labels, classes))

    @pytest.mark.parametrize("seed", range(5))
    def test_purity_matches_a_counting_loop(self, seed):
        rng = np.random.default_rng(seed)
        n, k = 400, 30
        ids = rng.integers(NOISE, k, n)
        labels = np.where(ids >= 0, np.searchsorted(np.unique(ids[ids >= 0]), ids), NOISE)
        d = _labeled(np.zeros((n, 2)), rng.integers(NOISE, 6, n))
        rep = evaluate(d, Labeling(labels, np.where(labels >= 0, 2, 0)))
        want = []
        for cid in range(labels.max() + 1):
            member_truth = d.truth[labels == cid].tolist()
            want.append(Counter(member_truth).most_common(1)[0][1] / len(member_truth))
        assert rep.per_cluster_purity == tuple(want)
        assert all(type(p) is float for p in rep.per_cluster_purity)

    def test_many_clusters_are_scored_in_one_sort(self):
        # 1e5 singleton clusters took about 4 s with one mask per cluster
        n = 100_000
        d = _labeled(np.zeros((n, 1)), np.arange(n) % 7)
        start = time.perf_counter()
        rep = evaluate(d, Labeling(np.arange(n), np.full(n, 2)))
        assert time.perf_counter() - start < 1.0
        assert rep.num_clusters_found == n and rep.per_cluster_purity == (1.0,) * n

    def test_dbscan_labeling_round(self):
        rng = np.random.default_rng(11)
        pts = np.vstack([rng.normal(0, 0.05, (40, 2)), rng.normal(3, 0.05, (40, 2))])
        d = _labeled(pts, [0] * 40 + [1] * 40)
        rep = evaluate(d, run_dbscan(d.dataset, DbscanParams(0.3, 5)))
        assert rep.ari == 1.0


class TestEvalReportSerialization:
    REPORT = EvalReport(2, 0.9375, 0.0625, (1.0, 0.875))

    def test_text_block(self):
        text = self.REPORT.to_text()
        assert "num_clusters_found 2" in text
        assert "ari 0.9375" in text
        assert "purity.1 0.875" in text
        # every line is `key value`
        assert all(len(line.split(" ", 1)) == 2 for line in text.strip().splitlines())

    def test_csv_row_matches_header(self):
        row = self.REPORT.to_csv_row()
        assert row == "2,0.9375,0.0625,1.0;0.875"
        assert EvalReport.CSV_HEADER.count(",") == row.count(",")

    def test_values_round_trip(self):
        row = self.REPORT.to_csv_row().split(",")
        assert float(row[1]) == self.REPORT.ari
        assert [float(v) for v in row[3].split(";")] == list(self.REPORT.per_cluster_purity)
