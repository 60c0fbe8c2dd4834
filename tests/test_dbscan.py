"""Single-scan clustering: hand-worked fixtures, the reachability
predicates, the classic invariants (order independence of the core
partition, eps monotonicity of the core set), agreement with a
breadth-first reference scan, and bounded memory on coincident points."""
import tracemalloc
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from varden.metrics import adjusted_rand_index
from varden.model import DataError, Dataset, DbscanParams, NOISE, PointClass
from varden.neighborhood import region_query_naive
from varden.dbscan import (
    classify_point,
    is_density_connected,
    is_density_reachable,
    is_directly_density_reachable,
    run_dbscan,
)

C, B, N = int(PointClass.CORE), int(PointClass.BORDER), int(PointClass.NOISE)


@pytest.fixture
def line_ds():
    """Four collinear points, spacing 0.4.

    At eps=0.5, min_pts=3: neighborhoods are {0,1},{0,1,2},{1,2,3},{2,3},
    so 1 and 2 are core, 0 and 3 are border, one cluster holds all four.
    """
    return Dataset(np.array([[0.0, 0.0], [0.4, 0.0], [0.8, 0.0], [1.2, 0.0]]))


@pytest.fixture
def bridge_ds():
    """Two 5-point clusters joined through one shared border point.

    eps=1, min_pts=4. Left cores: L1(-1,0) sees {L1,L5,L2,bridge} (the 1.0
    distances land exactly on the closed boundary); L2..L5 see >= 4 left
    points. Right side mirrors. The bridge (0,0) sees only {self, L1, R1}
    = 3 < 4, so it is border, directly reachable from both frontier cores.
    """
    left = [(-1.0, 0.0), (-2.0, 0.0), (-2.0, -0.5), (-2.0, 0.5), (-1.5, 0.0)]
    right = [(1.0, 0.0), (2.0, 0.0), (2.0, -0.5), (2.0, 0.5), (1.5, 0.0)]
    return Dataset(np.array(left + [(0.0, 0.0)] + right))


BRIDGE_PARAMS = DbscanParams(1.0, 4)
BRIDGE = 5  # index of the shared border point


class TestRunDbscan:
    def test_line_fixture(self, line_ds):
        lab = run_dbscan(line_ds, DbscanParams(0.5, 3))
        assert lab.n_clusters == 1
        assert list(lab.labels) == [0, 0, 0, 0]
        assert list(lab.classes) == [B, C, C, B]

    def test_line_with_outlier(self, line_ds):
        ds = Dataset(np.vstack([line_ds.coords, [[9.0, 9.0]]]))
        lab = run_dbscan(ds, DbscanParams(0.5, 3))
        assert list(lab.labels) == [0, 0, 0, 0, NOISE]
        assert lab.classes[4] == N

    def test_two_separate_blocks(self):
        a = [(0.0, 0.0), (0.3, 0.0), (0.0, 0.3), (0.3, 0.3)]
        b = [(10.0, 10.0), (10.3, 10.0), (10.0, 10.3)]
        ds = Dataset(np.array(a + [(5.0, 5.0)] + b))
        lab = run_dbscan(ds, DbscanParams(0.5, 3))
        assert lab.n_clusters == 2
        assert list(lab.labels) == [0, 0, 0, 0, NOISE, 1, 1, 1]
        assert list(lab.classes) == [C, C, C, C, N, C, C, C]

    def test_bridge_goes_to_first_cluster(self, bridge_ds):
        lab = run_dbscan(bridge_ds, BRIDGE_PARAMS)
        assert lab.n_clusters == 2
        assert lab.classes[BRIDGE] == B
        # left cores are scanned first, so the bridge joins cluster 0
        assert lab.labels[BRIDGE] == 0
        assert set(lab.labels[:5]) == {0} and set(lab.labels[6:]) == {1}

    def test_bridge_follows_scan_order(self, bridge_ds):
        # with the right cluster listed first, the bridge flips ownership
        flipped = Dataset(bridge_ds.coords[::-1])
        lab = run_dbscan(flipped, BRIDGE_PARAMS)
        assert lab.labels[BRIDGE] == 0  # still the first-scanned cluster
        assert set(lab.labels[:5]) == {0}  # which is now the right side

    def test_min_pts_one_makes_everything_core(self):
        ds = Dataset(np.array([[0.0, 0.0], [5.0, 0.0], [0.0, 5.0]]))
        lab = run_dbscan(ds, DbscanParams(0.1, 1))
        assert lab.n_clusters == 3
        assert all(c == C for c in lab.classes)

    def test_all_noise_when_min_pts_unreachable(self, line_ds):
        lab = run_dbscan(line_ds, DbscanParams(0.5, 10))
        assert lab.n_clusters == 0
        assert all(l == NOISE for l in lab.labels)

    def test_empty_dataset_rejected(self):
        with pytest.raises(DataError):
            run_dbscan(Dataset(np.empty((0, 2))), DbscanParams(1.0, 2))

    def test_cluster_ids_contiguous_and_deterministic(self):
        rng = np.random.default_rng(8)
        ds = Dataset(rng.uniform(0, 10, size=(150, 2)))
        lab1 = run_dbscan(ds, DbscanParams(0.8, 4))
        lab2 = run_dbscan(ds, DbscanParams(0.8, 4))
        assert np.array_equal(lab1.labels, lab2.labels)
        present = np.unique(lab1.labels[lab1.labels >= 0])
        assert list(present) == list(range(lab1.n_clusters))


class TestClassifyPoint:
    def test_matches_run_dbscan_classes(self):
        rng = np.random.default_rng(17)
        ds = Dataset(rng.uniform(0, 6, size=(80, 2)))
        params = DbscanParams(0.9, 4)
        lab = run_dbscan(ds, params)
        for i in range(len(ds)):
            assert int(classify_point(ds, i, params)) == int(lab.classes[i])

    def test_line_classes(self, line_ds):
        params = DbscanParams(0.5, 3)
        assert classify_point(line_ds, 0, params) is PointClass.BORDER
        assert classify_point(line_ds, 1, params) is PointClass.CORE


class TestReachability:
    def test_direct_needs_core_origin(self, bridge_ds):
        # bridge is in core L1's ball -> directly reachable from L1
        assert is_directly_density_reachable(bridge_ds, BRIDGE, 0, BRIDGE_PARAMS)
        # but the bridge is not core, so nothing is directly reachable from it
        assert not is_directly_density_reachable(bridge_ds, 0, BRIDGE, BRIDGE_PARAMS)

    def test_direct_requires_proximity(self, bridge_ds):
        assert not is_directly_density_reachable(bridge_ds, 6, 0, BRIDGE_PARAMS)

    def test_chain_reaches_across_cluster(self, bridge_ds):
        # L2 -> L1 -> bridge
        assert is_density_reachable(bridge_ds, BRIDGE, 1, BRIDGE_PARAMS)
        assert not is_density_reachable(bridge_ds, 1, BRIDGE, BRIDGE_PARAMS)

    def test_chain_does_not_cross_border(self, bridge_ds):
        # the non-core bridge cannot relay a chain to the other side
        assert not is_density_reachable(bridge_ds, 6, 0, BRIDGE_PARAMS)

    def test_reflexive(self, bridge_ds):
        assert is_density_reachable(bridge_ds, BRIDGE, BRIDGE, BRIDGE_PARAMS)

    def test_connected_within_cluster(self, bridge_ds):
        assert is_density_connected(bridge_ds, 2, BRIDGE, BRIDGE_PARAMS)

    def test_bridge_connected_to_both_sides(self, bridge_ds):
        assert is_density_connected(bridge_ds, BRIDGE, 3, BRIDGE_PARAMS)
        assert is_density_connected(bridge_ds, BRIDGE, 8, BRIDGE_PARAMS)

    def test_cores_across_gap_not_connected(self, bridge_ds):
        assert not is_density_connected(bridge_ds, 0, 6, BRIDGE_PARAMS)

    def test_symmetry(self, bridge_ds):
        for p, q in [(2, BRIDGE), (0, 6), (BRIDGE, 8)]:
            assert is_density_connected(bridge_ds, p, q, BRIDGE_PARAMS) == is_density_connected(
                bridge_ds, q, p, BRIDGE_PARAMS
            )

    def test_noise_connected_to_nothing(self):
        ds = Dataset(np.array([[0.0, 0.0], [0.1, 0.0], [0.2, 0.0], [9.0, 9.0]]))
        params = DbscanParams(0.3, 3)
        assert not is_density_connected(ds, 3, 0, params)
        assert not is_density_connected(ds, 3, 3, params)


class TestInvariants:
    @pytest.mark.parametrize("seed", range(5))
    def test_core_partition_order_independent(self, seed):
        rng = np.random.default_rng(seed)
        n = 120
        coords = rng.uniform(0, 8, size=(n, 2))
        params = DbscanParams(0.9, 4)
        base = run_dbscan(Dataset(coords), params)
        core_mask = base.classes == C
        for _ in range(3):
            perm = rng.permutation(n)
            lab = run_dbscan(Dataset(coords[perm]), params)
            inv = np.empty(n, dtype=int)
            inv[perm] = np.arange(n)
            back_labels = lab.labels[inv]
            back_classes = lab.classes[inv]
            # core/border/noise split is exactly order-free
            assert np.array_equal(back_classes == C, core_mask)
            # and the partition of cores matches up to relabeling
            if core_mask.any():
                ari = adjusted_rand_index(
                    base.labels[core_mask].tolist(), back_labels[core_mask].tolist()
                )
                assert ari == 1.0

    @pytest.mark.parametrize("seed", range(4))
    def test_core_set_grows_with_eps(self, seed):
        rng = np.random.default_rng(100 + seed)
        ds = Dataset(rng.uniform(0, 5, size=(100, 2)))
        prev = np.zeros(100, dtype=bool)
        for eps in np.linspace(0.15, 2.0, 8):
            lab = run_dbscan(ds, DbscanParams(float(eps), 4))
            core = lab.classes == C
            assert np.all(prev <= core)  # containment
            prev = core

    def test_every_cluster_has_a_core(self):
        rng = np.random.default_rng(23)
        ds = Dataset(rng.uniform(0, 6, size=(150, 2)))
        lab = run_dbscan(ds, DbscanParams(0.7, 4))
        for cid in range(lab.n_clusters):
            assert np.any((lab.labels == cid) & (lab.classes == C))


def _reference_dbscan(ds, params):
    """The classic breadth-first scan in index order, over the naive neighborhoods."""
    hoods = [region_query_naive(ds, i, params.eps) for i in range(len(ds))]
    core = [h.size >= params.min_pts for h in hoods]
    labels = [NOISE] * len(ds)
    next_id = 0
    for seed in range(len(ds)):
        if not core[seed] or labels[seed] != NOISE:
            continue
        labels[seed] = next_id
        queue = deque([seed])
        while queue:
            for r in hoods[queue.popleft()]:
                if labels[r] == NOISE:
                    labels[r] = next_id
                    if core[r]:
                        queue.append(r)
        next_id += 1
    classes = [C if c else B if l != NOISE else N for c, l in zip(core, labels)]
    return labels, classes


@st.composite
def _scan_inputs(draw):
    """Lattice points (exact eps ties), few sites (heavy duplication), d = 1..3,
    and radii from tiny (eps * eps underflows) to huge (it overflows)."""
    dim = draw(st.integers(1, 3))
    sites = draw(st.lists(st.tuples(*[st.integers(-4, 4)] * dim), min_size=1, max_size=12))
    picks = draw(st.lists(st.integers(0, len(sites) - 1), min_size=1, max_size=40))
    step = draw(st.sampled_from([0.25, 0.5, 0.1]))
    scale = draw(st.sampled_from([1.0, 1e-170, 1e150]))
    coords = np.array([sites[i] for i in picks], dtype=float) * step * scale
    eps = draw(
        st.sampled_from([step * scale * f for f in (1.0, 2.0, 2**0.5, 1.5, 1e3)] + [1e-170, 1e200])
    )
    min_pts = draw(st.integers(1, len(picks) + 2))
    return Dataset(coords), DbscanParams(eps, min_pts)


@settings(max_examples=300, deadline=None)
@given(_scan_inputs())
def test_matches_breadth_first_reference(case):
    ds, params = case
    lab = run_dbscan(ds, params)
    labels, classes = _reference_dbscan(ds, params)
    assert lab.labels.tolist() == labels
    assert lab.classes.tolist() == classes


@pytest.mark.parametrize("min_pts", [4, 80])
def test_matches_reference_across_union_flushes(min_pts):
    # 1000 lattice points over 4 strips, about 62 per ball: at min_pts 4 all
    # 30k core-core pairs, more than one union buffer holds; at 80, four
    # clusters and 532 border points
    rng = np.random.default_rng(min_pts)
    ds = Dataset(rng.integers(0, 40, size=(1000, 2)) * 0.25)
    params = DbscanParams(1.5, min_pts)
    lab = run_dbscan(ds, params)
    labels, classes = _reference_dbscan(ds, params)
    assert lab.labels.tolist() == labels
    assert lab.classes.tolist() == classes


def test_coincident_points_stay_in_bounded_memory():
    # every pair of the 3000 points is a neighbor pair: 9M of them
    ds = Dataset(np.zeros((3000, 2)))
    tracemalloc.start()
    try:
        lab = run_dbscan(ds, DbscanParams(0.5, 10))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert lab.n_clusters == 1 and (lab.classes == C).all()
    assert peak < 16 * 2**20
