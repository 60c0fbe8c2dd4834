"""Single-scan clustering: hand-worked fixtures, the reachability
predicates (their point ids, their agreement with a union-find
reference, and their independence from the tiles and EpsBracket), the
classic invariants (order independence of the core partition, eps
monotonicity of the core set), agreement with a breadth-first reference
scan, an eps bracket's labelings equal to the scan's, certified dense
cells at and beside their boundary, and bounded time and memory on
coincident points."""
import math
import time
import tracemalloc
from collections import deque

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from varden.metrics import adjusted_rand_index
from varden.adbscan import run_adbscan, tune_eps_densest
from varden.model import AdbscanParams, DataError, Dataset, DbscanParams, LabeledDataset, NOISE, PointClass
from varden.neighborhood import NeighborIndex, build_index, kth_d2, region_query_naive
from varden import dbscan, neighborhood
from varden.dbscan import (
    EpsBracket,
    classify_point,
    is_density_connected,
    is_density_reachable,
    is_directly_density_reachable,
    run_dbscan,
)

from adversarial import adversarial_scene

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

    def test_predicates_stay_off_the_tiles_and_the_bracket(self, monkeypatch, bridge_ds):
        # the definition-level oracle is stated over region_query alone, never over the engine it audits
        def refuse(*args, **kwargs):
            raise AssertionError("the predicates must not use tiles or EpsBracket")

        monkeypatch.setattr(NeighborIndex, "tiles", refuse)
        monkeypatch.setattr(dbscan, "EpsBracket", refuse)
        with pytest.raises(AssertionError):
            run_dbscan(bridge_ds, BRIDGE_PARAMS)
        assert classify_point(bridge_ds, BRIDGE, BRIDGE_PARAMS) is PointClass.BORDER
        assert is_directly_density_reachable(bridge_ds, BRIDGE, 0, BRIDGE_PARAMS)
        assert not is_directly_density_reachable(bridge_ds, 0, BRIDGE, BRIDGE_PARAMS)
        assert is_density_reachable(bridge_ds, BRIDGE, 1, BRIDGE_PARAMS)
        assert not is_density_reachable(bridge_ds, 6, 0, BRIDGE_PARAMS)
        assert is_density_connected(bridge_ds, BRIDGE, 8, BRIDGE_PARAMS)
        assert not is_density_connected(bridge_ds, 0, 6, BRIDGE_PARAMS)


_TWO_IDS = (is_directly_density_reachable, is_density_reachable, is_density_connected)


class TestPointIds:
    @pytest.mark.parametrize("bad", [99, -1, 1.5, None])
    @pytest.mark.parametrize(
        "predicate, slot",
        [(classify_point, 0)] + [(f, s) for f in _TWO_IDS for s in (0, 1)],
        ids=["classify_point"] + [f"{f.__name__}-{'pq'[s]}" for f in _TWO_IDS for s in (0, 1)],
    )
    def test_bad_id_rejected(self, line_ds, predicate, slot, bad):
        ids = [1] if predicate is classify_point else [1, 2]
        ids[slot] = bad
        with pytest.raises(DataError, match="point index"):
            predicate(line_ds, *ids, DbscanParams(0.5, 3))

    def test_numpy_integer_accepted(self, line_ds):
        params = DbscanParams(0.5, 3)
        assert classify_point(line_ds, np.int64(0), params) is PointClass.BORDER
        for predicate in _TWO_IDS:
            assert predicate(line_ds, np.int32(0), np.int64(2), params) == predicate(line_ds, 0, 2, params)


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


def _lattice_points(draw):
    """Lattice points (exact eps ties), few sites (heavy duplication), d = 1..3,
    and radii from tiny (eps * eps underflows) to huge (it overflows)."""
    dim = draw(st.integers(1, 3))
    sites = draw(st.lists(st.tuples(*[st.integers(-4, 4)] * dim), min_size=1, max_size=12))
    picks = draw(st.lists(st.integers(0, len(sites) - 1), min_size=1, max_size=40))
    step = draw(st.sampled_from([0.25, 0.5, 0.1]))
    scale = draw(st.sampled_from([1.0, 1e-170, 1e150]))
    coords = np.array([sites[i] for i in picks], dtype=float) * step * scale
    return Dataset(coords), [step * scale * f for f in (1.0, 2.0, 2**0.5, 1.5, 1e3)] + [1e-170, 1e200]


@st.composite
def _scan_inputs(draw):
    ds, radii = _lattice_points(draw)
    eps = draw(st.sampled_from(radii))
    min_pts = draw(st.integers(1, len(ds) + 2))
    return ds, DbscanParams(eps, min_pts)


@st.composite
def _spread_inputs(draw):
    """Lattice points spread over a few eps-balls, with a small min_pts: border
    points and several clusters, which _scan_inputs seldom draws."""
    dim = draw(st.integers(1, 3))
    coords = draw(st.lists(st.tuples(*[st.integers(0, 7)] * dim), min_size=5, max_size=40))
    eps = draw(st.sampled_from([0.25, 0.5, 0.75]))
    return Dataset(np.array(coords) * 0.25), DbscanParams(eps, draw(st.integers(3, 6)))


@st.composite
def _bracket_inputs(draw):
    """Lattice points, a bracket [lo, hi] of their radii (lo = 0 too), and
    every radius of the bracket, its ends and its midpoint as probes."""
    ds, radii = _lattice_points(draw)
    min_pts = draw(st.integers(1, len(ds) + 2))
    hi = draw(st.sampled_from(radii))
    lo = draw(st.sampled_from([0.0, 0.5 * hi] + [r for r in radii if r < hi]))
    probes = sorted({r for r in radii + [lo, 0.5 * (lo + hi), hi] if 0 < r and lo <= r <= hi})
    return ds, min_pts, lo, hi, probes


@settings(max_examples=300, deadline=None)
@given(st.one_of(_scan_inputs(), _spread_inputs()))
# eps * eps overflows: a non-core point's core distance must stay above it
@example((Dataset(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])), DbscanParams(1e200, 4)))
def test_matches_breadth_first_reference(case):
    ds, params = case
    lab = run_dbscan(ds, params)
    labels, classes = _reference_dbscan(ds, params)
    assert lab.labels.tolist() == labels
    assert lab.classes.tolist() == classes


@settings(max_examples=300, deadline=None)
@given(_bracket_inputs())
def test_bracket_matches_run_dbscan(case):
    ds, min_pts, lo, hi, probes = case
    index = build_index(ds)
    bracket = EpsBracket(index, min_pts, lo, hi)
    # the bracket reads its core distances off its own tiles: kth_d2's bits, NaN
    # included, raised to lo * lo, which is all a certified cell's members get
    assert bracket.core_d2.tobytes() == np.maximum(kth_d2(index, min_pts, hi), lo * lo).tobytes()
    for eps in probes:
        params = DbscanParams(eps, min_pts)
        # run_dbscan is a bracket too, swept at eps rather than at hi
        lab = run_dbscan(ds, params, index=index)
        got = bracket.labeling(eps)
        assert got.labels.tolist() == lab.labels.tolist()
        assert got.classes.tolist() == lab.classes.tolist()
        labels, classes = _reference_dbscan(ds, params)
        assert got.labels.tolist() == labels
        assert got.classes.tolist() == classes


_LATTICE_RADII = [0.25 * math.sqrt(m) for m in (1, 2, 4, 5, 8, 9)]  # pairs of 0.25-lattice points lie at exactly these


@st.composite
def _stacked_lattice_inputs(draw):
    """Lone lattice points mixed with coincident stacks of 2-31 points, d = 1..3.

    A stack of min_pts points or more is a certified cell, so blocks lie in
    space before and after the lone points and the small stacks, which are
    rows. lo < hi are two lattice radii, at which pairs lie at exactly eps.
    Tiles of 1 or 3 rows, and a pair budget of 0 or 8, make pairs wait for
    later tiles, tie their waiting ends and cut their kept pairs.
    """
    dim = draw(st.integers(1, 3))
    site = st.tuples(*[st.integers(0, 6)] * dim)
    lone = draw(st.lists(site, max_size=25))
    stacks = draw(st.lists(st.tuples(site, st.integers(2, 31)), min_size=1, max_size=3))
    coords = np.array(lone + [at for at, count in stacks for _ in range(count)], dtype=float).reshape(-1, dim) * 0.25
    coords = coords[draw(st.permutations(range(len(coords))))]
    lo, hi = sorted(draw(st.lists(st.sampled_from(_LATTICE_RADII), min_size=2, max_size=2, unique=True)))
    small = draw(st.sampled_from([None, (1, 0), (3, 8)]))
    return Dataset(coords), draw(st.integers(2, 12)), lo, hi, small


@settings(max_examples=150, deadline=None)
@given(_stacked_lattice_inputs())
def test_stacks_among_lattice_points_match_reference(case):
    ds, min_pts, lo, hi, small = case
    with pytest.MonkeyPatch.context() as patch:
        if small:
            patch.setattr(neighborhood, "_TILE", small[0])
            patch.setattr(neighborhood, "_ENTRIES", 1)
            patch.setattr(dbscan, "_PAIR_BUDGET", small[1])
        index = build_index(ds)
        bracket = EpsBracket(index, min_pts, lo, hi)
        assert bracket.core_d2.tobytes() == np.maximum(kth_d2(index, min_pts, hi), lo * lo).tobytes()
        for eps in (lo, 0.5 * (lo + hi), hi):
            params = DbscanParams(eps, min_pts)
            labels, classes = _reference_dbscan(ds, params)
            for lab in (run_dbscan(ds, params, index=index), bracket.labeling(eps)):
                assert lab.labels.tolist() == labels
                assert lab.classes.tolist() == classes


@pytest.mark.parametrize("min_pts, lo, hi", [(3, 0.25, 1.5), (40, 1.0, 2.0)])
def test_bracket_matches_run_dbscan_when_it_cuts_its_pairs(min_pts, lo, hi):
    # 1000 lattice points. At min_pts 3, 30k pairs span 799 points core at lo
    # and are cut to the closest between components; at 40, 75 points are
    # core at lo and the 80k pairs kept outgrow the budget and are cut twice
    rng = np.random.default_rng(min_pts)
    ds = Dataset(rng.integers(0, 40, size=(1000, 2)) * 0.25)
    index = build_index(ds)
    bracket = EpsBracket(index, min_pts, lo, hi)
    for eps in np.linspace(lo, hi, 7):
        lab = run_dbscan(ds, DbscanParams(eps, min_pts), index=index)
        got = bracket.labeling(eps)
        assert got.labels.tolist() == lab.labels.tolist()
        assert got.classes.tolist() == lab.classes.tolist()


def _steps(x, k):
    """The float k steps above x (below it for k < 0)."""
    for _ in range(abs(k)):
        x = float(np.nextafter(x, math.inf if k > 0 else 0.0))
    return x


# lo whose 3-D lattice cube of step prev(lo / sqrt(3)), the cell side just
# rounded down, has a diagonal d2 (axis by axis) of exactly lo * lo, and lo
# whose cube diagonal is one float step above lo * lo
_CUBE_DIAGONAL_AT_LO = (2.589, 3.373)
_CUBE_DIAGONAL_ABOVE_LO = (0.855, 3.42)


@st.composite
def _cell_inputs(draw):
    """Certified cells beside sparse points, and cells at their boundary.

    Lattice sites of step t near the origin, so that a cell of side
    lo / sqrt(d) holds a block of 2^d sites whose diagonal is lo or one
    float step above it (3-D, step the cell side rounded down, stacks on
    two opposite corners), or is t * sqrt(d) with lo a float step either
    side of that. Each site holds a stack, a clump within t / 4 on every
    axis, or a lone point. A bracket [lo, hi] is probed at its ends, its
    midpoint and the lattice radii inside it.
    """
    coords = []
    dim = draw(st.integers(1, 3))
    if dim == 3 and draw(st.booleans()):
        lo = draw(st.sampled_from(_CUBE_DIAGONAL_AT_LO + _CUBE_DIAGONAL_ABOVE_LO))
        t = float(np.nextafter(lo / math.sqrt(3), 0))
        coords += [np.zeros(3)] * draw(st.integers(1, 8)) + [np.full(3, t)] * draw(st.integers(1, 8))
    else:
        t = draw(st.sampled_from([0.25, 0.1, 0.25e-170, 0.1e150]))
        lo = _steps(t * math.sqrt(dim), draw(st.integers(-1, 1)))
    min_pts = draw(st.integers(1, 12))
    site = st.tuples(*[st.integers(-2, 2)] * dim)
    kinds = st.sampled_from(["stack", "clump", "lone"])
    for at, kind, count in draw(st.lists(st.tuples(site, kinds, st.integers(1, 15)), min_size=1, max_size=8)):
        count = 1 if kind == "lone" else count
        offsets = st.lists(st.tuples(*[st.integers(0, 4)] * dim), min_size=count, max_size=count)
        jitter = draw(offsets) if kind == "clump" else [(0,) * dim] * count
        coords += [np.add(at, np.multiply(j, 1 / 16)) * t for j in jitter]
    hi = draw(st.sampled_from([lo, 1.5 * lo, 2 * lo]))
    probes = sorted({r for r in [lo, 0.5 * (lo + hi), hi, t, t * 2**0.5, 2 * t] if lo <= r <= hi})
    return Dataset(np.array(coords)), min_pts, lo, hi, probes


@settings(max_examples=200, deadline=None)
@given(_cell_inputs())
def test_certified_cells_match_breadth_first_reference(case):
    ds, min_pts, lo, hi, probes = case
    index = build_index(ds)
    bracket = EpsBracket(index, min_pts, lo, hi)
    for eps in probes:
        params = DbscanParams(eps, min_pts)
        labels, classes = _reference_dbscan(ds, params)
        for lab in (run_dbscan(ds, params, index=index), bracket.labeling(eps)):
            assert lab.labels.tolist() == labels
            assert lab.classes.tolist() == classes


@pytest.mark.parametrize("lo", _CUBE_DIAGONAL_AT_LO + _CUBE_DIAGONAL_ABOVE_LO)
def test_certificate_is_exact_at_a_cells_diagonal(lo):
    # stacks of 3 and 4 points on opposite corners of the cell at the origin,
    # min_pts 5: core exactly when the corners are within lo of each other
    t = float(np.nextafter(lo / math.sqrt(3), 0))
    above = lo in _CUBE_DIAGONAL_ABOVE_LO
    assert t * t + t * t + t * t == (np.nextafter(lo * lo, math.inf) if above else lo * lo)
    ds = Dataset(np.repeat([[0.0] * 3, [t] * 3], [3, 4], axis=0))
    certified = neighborhood.dense_cells(build_index(ds), 5, lo) != np.arange(len(ds))
    assert certified.sum() == (0 if above else 6)  # all but the root
    params = DbscanParams(lo, 5)
    labels, classes = _reference_dbscan(ds, params)
    lab = run_dbscan(ds, params)
    assert lab.labels.tolist() == labels and lab.classes.tolist() == classes
    assert lab.n_clusters == (0 if above else 1)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("seed", range(4))
def test_adversarial_coordinates_match_reference(seed):
    # +-1e300, subnormals and signed zeros. Below about 6e281 the cell indices
    # of +-1e300 pass 2^61 and are clipped onto the grid's edge cells, which
    # are certified only where their bounding box passes; from 1e300 on
    # lo * lo overflows and every cell of min_pts points is
    ds, _ = adversarial_scene(seed, n=120)
    for eps in (1e-300, 1e-5, 1.0, 1e5, 1e300, 1.5e308):
        for min_pts in (2, 5):
            params = DbscanParams(eps, min_pts)
            labels, classes = _reference_dbscan(ds, params)
            lab = run_dbscan(ds, params)
            assert lab.labels.tolist() == labels
            assert lab.classes.tolist() == classes


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_extent_past_the_largest_double():
    # the x span, 2e308, overflows to inf: that axis is still the widest, and
    # the tuner's start radius clamps to 2^512
    ds = Dataset(np.array([[1e308, 0], [-1e308, 0], [0, 0], [0, 1]]))
    params = DbscanParams(1.0, 2)
    build_index(ds)
    labels, classes = _reference_dbscan(ds, params)
    lab = run_dbscan(ds, params)
    assert lab.labels.tolist() == labels == [NOISE, NOISE, 0, 0] and lab.classes.tolist() == classes
    assert classify_point(ds, 2, params) == PointClass.CORE
    assert run_adbscan(ds, AdbscanParams(k=1, eps0=1.0, min_pts0=2)).labels.tolist() == labels
    for truth in ([0, 0, 0, 0], [NOISE, NOISE, 0, 0]):
        assert math.isfinite(tune_eps_densest(LabeledDataset(ds, np.array(truth)), min_pts=2))


@pytest.mark.parametrize("min_pts", [4, 80])
def test_matches_reference_across_union_flushes(min_pts):
    # 1000 lattice points, about 62 per ball: at min_pts 4 all
    # 30k core-core pairs, joined tile by tile over many tiles; at 80, four
    # clusters and 532 border points
    rng = np.random.default_rng(min_pts)
    ds = Dataset(rng.integers(0, 40, size=(1000, 2)) * 0.25)
    params = DbscanParams(1.5, min_pts)
    lab = run_dbscan(ds, params)
    labels, classes = _reference_dbscan(ds, params)
    assert lab.labels.tolist() == labels
    assert lab.classes.tolist() == classes


@pytest.mark.parametrize("lo, hi", [(0.7, 0.7), (0.7, 1.0)])
def test_each_tile_is_joined_before_the_next(monkeypatch, lo, hi):
    # when the sweep asks for a tile, every pair it has been given with both
    # ends swept and mutual reachability within lo already shares one root;
    # 2000 points with no certified cell, so all 8 to 12 tiles (at a budget
    # of 4096 entries) are row tiles, for which tiles never calls roots: a
    # sweep that held a tile's edges back past the next tile fails here
    monkeypatch.setattr(neighborhood, "_ENTRIES", 1 << 12)
    rng = np.random.default_rng(5)
    ds = Dataset(rng.uniform(0, 20, size=(2000, 2)))
    index = build_index(ds)
    core = kth_d2(index, 8, hi)
    given, checked = [], []
    tiles = NeighborIndex.tiles

    def joined(self, eps, roots=None, rows=None):
        assert np.array_equal(roots(np.arange(len(ds))), np.arange(len(ds)))  # no block
        for tile in tiles(self, eps, roots, rows):
            yield tile
            given.append(tile)
            swept = np.isin(np.arange(len(ds)), np.concatenate([t[0] for t in given]))
            a, b, d2 = (np.concatenate(x) for x in zip(*((t[0][t[1]], t[2], t[3]) for t in given)))
            fold = swept[b] & (np.maximum(np.maximum(d2, core[a]), core[b]) <= lo * lo)
            assert np.array_equal(roots(a[fold]), roots(b[fold]))
            checked.append(fold.sum())

    monkeypatch.setattr(NeighborIndex, "tiles", joined)
    EpsBracket(index, 8, lo, hi)
    assert len(checked) > 3 and 0 < checked[0] < checked[-1]


def test_a_waiting_point_keeps_a_link_to_each_component():
    # point 4 waits on four pairs at lo * lo = 0.25: sure links from 0 and 1,
    # which share a component, and from 2, in another; and a pair from 3,
    # which is not core. One sure link becomes 4's tie, but a link to the
    # other component must be held, or a core 4 would never join the two,
    # and so must 3's pair, whose fate turns on 4
    parent = np.array([0, 0, 2, 3, 4])
    tie = np.full(5, -1)
    core_d2 = np.array([0.25, 0.25, 0.25, np.nan, 0.25])
    a, b, d2 = np.arange(4), np.full(4, 4), np.array([0.2, 0.1, 0.25, 0.1])
    held = dbscan._tie(parent, tie, a, b, d2, core_d2, 0.25)
    assert tie[4] in (0, 1, 2)
    assert (held[1] == 4).all() and np.array_equal(held[2], d2[held[0]]) and 3 in held[0]
    assert {int(parent[x]) for x in [tie[4], *held[0]]} == {0, 2, 3}


def test_tied_links_match_reference_across_a_bracket(work, monkeypatch):
    # a 16 x 16 lattice of step 0.25 and the bracket [0.5, 0.75]: pairs lie
    # at exactly lo, and min_pts 13 is an inner point's whole lo-ball, so its
    # pairs wait until its last neighbour is swept. With 4-row tiles and a
    # budget of 8 waiting pairs, sure links are tied; a tie comes back at
    # d2 = lo * lo (at hi * hi the lattice falls apart into 3 clusters at lo)
    monkeypatch.setattr(neighborhood, "_TILE", 4)
    monkeypatch.setattr(neighborhood, "_ENTRIES", 1)
    monkeypatch.setattr(dbscan, "_PAIR_BUDGET", 8)
    ds = Dataset(np.stack(np.meshgrid(np.arange(16), np.arange(16)), -1).reshape(-1, 2) * 0.25)
    lo, hi, min_pts = 0.5, 0.75, 13
    bracket = EpsBracket(build_index(ds), min_pts, lo, hi)
    assert work["ties"] >= 1
    assert work["narrows"] == work["brackets"] == 1  # the sweep ends by narrowing to its own lo
    for eps in (lo, 0.5 * (lo + hi), hi):
        labels, classes = _reference_dbscan(ds, DbscanParams(eps, min_pts))
        lab = bracket.labeling(eps)
        assert lab.labels.tolist() == labels
        assert lab.classes.tolist() == classes


def test_matches_reference_when_border_pairs_are_cut(monkeypatch):
    # the 532 border points of the min_pts 80 case above link to core points
    # through 4820 pairs; a budget of 2^8 cuts them seven times mid-scan
    cuts = []
    closest_pairs = dbscan._closest_pairs
    monkeypatch.setattr(dbscan, "_PAIR_BUDGET", 1 << 8)
    monkeypatch.setattr(dbscan, "_closest_pairs", lambda *a: cuts.append(a[1].size) or closest_pairs(*a))
    rng = np.random.default_rng(80)
    ds = Dataset(rng.integers(0, 40, size=(1000, 2)) * 0.25)
    params = DbscanParams(1.5, 80)
    lab = run_dbscan(ds, params)
    labels, classes = _reference_dbscan(ds, params)
    assert len(cuts) >= 3
    assert lab.labels.tolist() == labels
    assert lab.classes.tolist() == classes


def _reference_predicates(ds, params):
    """From region_query_naive alone: each ball as a set, the core flags, each
    core's component under core-core adjacency (a tiny union-find), and
    touch[i], the components of the cores in i's ball."""
    balls = [set(region_query_naive(ds, i, params.eps).tolist()) for i in range(len(ds))]
    core = [len(b) >= params.min_pts for b in balls]
    parent = list(range(len(ds)))

    def comp(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for i, ball in enumerate(balls):
        for j in ball:
            if core[i] and core[j]:
                parent[comp(i)] = comp(j)
    touch = [{comp(j) for j in ball if core[j]} for ball in balls]
    return balls, core, comp, touch


@settings(max_examples=200, deadline=None)
@given(st.one_of(_scan_inputs(), _spread_inputs()), st.data())
def test_predicates_match_an_independent_reference(case, data):
    ds, params = case
    balls, core, comp, touch = _reference_predicates(ds, params)
    index = build_index(ds)
    for i in range(len(ds)):
        assert int(classify_point(ds, i, params, index)) == (C if core[i] else B if touch[i] else N)
    ids = st.integers(0, len(ds) - 1)
    for p, q in data.draw(st.lists(st.tuples(ids, ids), min_size=30, max_size=30)):
        assert is_directly_density_reachable(ds, p, q, params, index) == (core[q] and p in balls[q])
        assert is_density_reachable(ds, p, q, params, index) == (p == q or (core[q] and comp(q) in touch[p]))
        assert is_density_connected(ds, p, q, params, index) == bool(touch[p] & touch[q])


@pytest.mark.parametrize("chunk", [1, 2, 3, 7])
def test_sweep_matches_the_oracle_across_chunks(monkeypatch, chunk):
    # rows and blocks have their runs looked up a few at a time, so tiles end
    # at chunk boundaries, and the blocks (certified cells: the stacks of 9,
    # 12 and 6 points among 5 or 6 at min_pts 5, and 14-19 at min_pts 2)
    # span several chunks
    monkeypatch.setattr(neighborhood, "_CHUNK", chunk)
    rng = np.random.default_rng(chunk)
    stacks = np.repeat([[0.5, 0.5], [1.0, 1.25], [1.5, 0.25], [0.75, 1.75]], [9, 1, 12, 6], axis=0)
    coords = np.concatenate([rng.integers(0, 8, size=(60, 2)) * 0.25, stacks])
    ds, eps = Dataset(coords[rng.permutation(len(coords))]), 0.5
    rows = rng.choice(len(ds), size=len(ds) // 3, replace=False)
    for subset in (None, rows):
        seen = []
        for tile, i, j, _ in build_index(ds).tiles(eps, rows=subset):
            seen += tile.tolist()
            for q, r in enumerate(tile):
                assert np.array_equal(np.sort(j[i == q]), region_query_naive(ds, r, eps))
        assert sorted(seen) == sorted(range(len(ds)) if subset is None else rows.tolist())
    for min_pts in (2, 5):
        labels, classes = _reference_dbscan(ds, DbscanParams(eps, min_pts))
        lab = run_dbscan(ds, DbscanParams(eps, min_pts))
        assert lab.labels.tolist() == labels
        assert lab.classes.tolist() == classes


def test_run_dbscan_sweeps_the_tiles_once(monkeypatch):
    # core distances come from the same sweep as the pairs, not from kth_d2
    sweeps = []
    tiles = NeighborIndex.tiles
    monkeypatch.setattr(NeighborIndex, "tiles", lambda self, eps, *a: sweeps.append(eps) or tiles(self, eps, *a))
    rng = np.random.default_rng(3)
    run_dbscan(Dataset(rng.uniform(0, 10, size=(500, 2))), DbscanParams(0.7, 5))
    assert sweeps == [0.7]


def _traced_peak(ds, params):
    tracemalloc.start()
    try:
        lab = run_dbscan(ds, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return lab, peak


@pytest.mark.parametrize(
    "case, bound",
    # the peaks before the sweep measured each pair once were 8.10 and 49.99
    # MiB. 4000 uniform points, min_pts 800: the pairs from one grid column
    # to the next wait for their later ends (60 MiB traced when all are
    # held). 20000 coincident points, a certified cell, with 40 points 0.3 to
    # 0.5 from them: 32 rows meet the whole stack in one tile
    [("dense", 8.0), ("halo", 49.9)],
)
def test_waiting_pairs_stay_in_bounded_memory(case, bound):
    rng = np.random.default_rng(0)
    if case == "dense":
        coords, params = rng.uniform(0.0, 1.0, size=(4000, 2)), DbscanParams(0.5, 800)
    else:
        angle, radius = rng.uniform(0.0, 2 * math.pi, 40), rng.uniform(0.3, 0.5, 40)
        halo = np.stack([radius * np.cos(angle), radius * np.sin(angle)], axis=1)
        coords, params = np.concatenate([np.zeros((20_000, 2)), halo]), DbscanParams(0.5, 10)
    lab, peak = _traced_peak(Dataset(coords), params)
    assert lab.n_clusters == 1
    assert peak < bound * 2**20


def test_coincident_points_stay_in_bounded_memory():
    # every pair of the 3000 points is a neighbor pair: 9M of them
    lab, peak = _traced_peak(Dataset(np.zeros((3000, 2))), DbscanParams(0.5, 10))
    assert lab.n_clusters == 1 and (lab.classes == C).all()
    assert peak < 16 * 2**20


_GRID = np.stack(np.meshgrid(np.arange(10), np.arange(10)), -1).reshape(-1, 2) * 0.25 + 0.125


@pytest.mark.parametrize(
    "sites, stack, clusters, per_point",
    # two stacks: every pair inside one of two certified cells (6.9M d2 at
    # full tiles). 100 stacks of 60, a quarter of lo apart: a block's first
    # row joins what lies within lo of it, so its later rows meet almost
    # no candidate (53k; 0.47M when a block's tiles are not joined before
    # the next one, 3.7M when its candidates are not re-rooted, 9M at full
    # tiles). Stacks far from the origin are certified too (9M d2 each when
    # their cell indices are not clipped but given up on)
    [
        ([[3.125, 4.5], [13.0, 15.25]], [2600, 400], 2, 1),
        (_GRID, 60, 1, 20),
        ([[1e16, 1e16]], [3000], 1, 1),
        ([[0.0, 0.0], [1e16, 1e16]], [3000, 10], 2, 1),
    ],
)
def test_certified_cells_measure_almost_no_distances(work, sites, stack, clusters, per_point):
    coords = np.repeat(sites, stack, axis=0)
    coords = coords[np.random.default_rng(5).permutation(len(coords))]
    lab = run_dbscan(Dataset(coords), DbscanParams(0.5, 10))
    assert lab.n_clusters == clusters and (lab.classes == C).all()
    assert work["entries"] < per_point * len(coords)


@pytest.mark.parametrize("shape, per_point", [("gaussian", 600), ("uniform", 350)])
def test_grid_tiles_measure_few_distances_in_3d(work, shape, per_point):
    # 2e4 3-D points: a Gaussian of std 1 at eps 0.3, and uniform points with
    # about 10 per ball. The grid's columns cut every axis but the sweep
    # axis, so a tile's candidates lie near it on all three: about 465 and
    # 300 d2 entries per point, where cutting one other axis only gave 970
    # and 445
    rng, n = np.random.default_rng(0), 20_000
    if shape == "gaussian":
        coords, eps = rng.normal(0.0, 1.0, size=(n, 3)), 0.3
    else:
        coords, eps = rng.uniform(0.0, 1.0, size=(n, 3)), (10 * 3 / (4 * math.pi * n)) ** (1 / 3)
    lab = run_dbscan(Dataset(coords), DbscanParams(eps, 10))
    assert lab.n_clusters >= 1
    assert work["entries"] < per_point * n


def test_grid_tiles_measure_each_row_against_its_own_box_in_2d(work):
    # 2e4 uniform 2-D points, about 10 per ball: a row's own padded box holds
    # about 19 candidates, padded to the widest row of its tile; a 32-row
    # tile's shared candidates came to about 112 d2 entries per point
    n = 20_000
    coords = np.random.default_rng(0).uniform(0.0, 1.0, size=(n, 2))
    lab = run_dbscan(Dataset(coords), DbscanParams(math.sqrt(10 / (math.pi * n)), 10))
    assert lab.n_clusters >= 1
    assert work["entries"] < 50 * n


def test_grid_tiles_measure_no_padding_in_2d(work):
    # the input above: each row is measured once against each candidate of
    # its own box, about 19.9 per point, not padded to the widest row of its
    # tile (31.8 per point)
    n = 20_000
    coords = np.random.default_rng(0).uniform(0.0, 1.0, size=(n, 2))
    lab = run_dbscan(Dataset(coords), DbscanParams(math.sqrt(10 / (math.pi * n)), 10))
    assert lab.n_clusters >= 1
    assert work["entries"] <= 21 * n


def test_rows_measure_each_pair_once(work):
    # 2e4 uniform points, about 10 per ball of radius 0.5, as in the sparse
    # benchmark input: each row meets only the points after it in the sweep,
    # where it met its whole box and 396,568 d2 entries were measured
    n = 20_000
    side = math.sqrt(n * math.pi * 0.5 * 0.5 / 10)
    coords = np.random.default_rng(1).uniform(0.0, side, size=(n, 2))
    lab = run_dbscan(Dataset(coords), DbscanParams(0.5, 10))
    assert lab.n_clusters >= 1
    assert work["entries"] <= 0.55 * 396_568


def test_sparse_points_stay_in_bounded_memory():
    # the input above: 3.52 MiB traced while the bracket also kept each
    # tie's d2, 8 bytes per point; 3.37 MiB with the tie's earlier end alone
    n = 20_000
    side = math.sqrt(n * math.pi * 0.5 * 0.5 / 10)
    coords = np.random.default_rng(1).uniform(0.0, side, size=(n, 2))
    lab, peak = _traced_peak(Dataset(coords), DbscanParams(0.5, 10))
    assert lab.n_clusters >= 1
    assert peak < 3.44 * 2**20


def test_eps_beyond_the_diameter_is_one_certified_cell():
    # 1e4 points, every pair within eps: one certified cell, no distance measured
    coords = np.random.default_rng(2).uniform(0.0, 1.0, size=(10_000, 2))
    start = time.perf_counter()
    lab = run_dbscan(Dataset(coords), DbscanParams(2.0, 10))
    assert time.perf_counter() - start < 0.5
    assert lab.n_clusters == 1 and (lab.classes == C).all()


def test_coincident_points_are_one_certified_cell():
    # 64M neighbor pairs, all inside one certified cell: the sweep measures
    # none of them
    lab, peak = _traced_peak(Dataset(np.zeros((8000, 2))), DbscanParams(0.5, 10))
    assert lab.n_clusters == 1 and (lab.classes == C).all()
    assert peak < 16 * 2**20


def test_coincident_points_scale_linearly():
    # 1e5 coincident points, 5e9 neighbor pairs: one certified cell, so time
    # and memory grow with n (50k took 53 s before the certificate)
    start = time.perf_counter()
    lab, peak = _traced_peak(Dataset(np.zeros((100_000, 2))), DbscanParams(0.5, 10))
    assert time.perf_counter() - start < 5.0
    assert lab.n_clusters == 1 and (lab.classes == C).all()
    assert peak < 16 * 2**20
