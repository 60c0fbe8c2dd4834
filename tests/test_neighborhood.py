"""Radius search: the sweep-index routes (one query, or every neighborhood
through the tiles) must match the naive scan exactly, boundary points
included, and a k-d tree away from ties."""
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from varden.model import DataError, Dataset, ParamError
from varden.neighborhood import (
    build_index,
    dataset_diameter,
    kth_d2,
    region_query,
    region_query_naive,
)


@pytest.fixture
def grid_ds():
    # 5x5 integer grid, spacing 1
    pts = [(float(x), float(y)) for x in range(5) for y in range(5)]
    return Dataset(np.array(pts))


def test_self_inclusive(grid_ds):
    idx = build_index(grid_ds)
    for i in (0, 7, 24):
        assert i in region_query(idx, i, 0.5)


def test_known_counts_on_grid(grid_ds):
    idx = build_index(grid_ds)
    # center point (2,2): closed ball r=1 holds self + 4 axis neighbors
    center = 2 * 5 + 2
    assert region_query(idx, center, 1.0).size == 5
    # r=1.5 adds the 4 diagonals (sqrt(2) <= 1.5)
    assert region_query(idx, center, 1.5).size == 9


def test_boundary_is_closed(grid_ds):
    idx = build_index(grid_ds)
    # distance from (0,0) to (1,0) is exactly 1.0 and must be included
    hits = region_query(idx, 0, 1.0)
    assert 5 in hits  # point (1,0) has index 1*5+0
    naive = region_query_naive(grid_ds, 0, 1.0)
    assert np.array_equal(hits, naive)


def test_query_by_coordinates(grid_ds):
    idx = build_index(grid_ds)
    got = region_query(idx, (2.0, 2.0), 1.0)
    assert np.array_equal(got, region_query(idx, 12, 1.0))


def test_results_sorted_ascending():
    rng = np.random.default_rng(42)
    ds = Dataset(rng.normal(size=(200, 2)))
    idx = build_index(ds)
    for i in range(0, 200, 17):
        hits = region_query(idx, i, 0.7)
        assert np.all(np.diff(hits) > 0)


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("seed", [1, 4, 32])
def test_matches_naive_random(dim, seed):
    rng = np.random.default_rng(100 * dim + seed)
    ds = Dataset(rng.uniform(-5, 5, size=(120, dim)))
    idx = build_index(ds)
    for _ in range(25):
        q = int(rng.integers(0, len(ds)))
        eps = float(rng.uniform(0.05, 6.0))
        assert np.array_equal(region_query(idx, q, eps), region_query_naive(ds, q, eps))
    for _ in range(25):  # coordinates that are no point of the dataset, some outside its range
        qc = rng.uniform(-7, 7, size=dim)
        eps = float(rng.uniform(0.05, 6.0))
        assert np.array_equal(region_query(idx, qc, eps), region_query_naive(ds, qc, eps))


def test_index_holds_no_copy_of_the_points():
    # 1e5 3-D points: the sweep order and the sweep keys take 0.8 MB each,
    # and a second copy of the points would add 2.4 MB
    ds = Dataset(np.random.default_rng(0).normal(size=(100_000, 3)))
    tracemalloc.start()
    try:
        idx = build_index(ds)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < 2 * 2**20
    assert np.array_equal(region_query(idx, 0, 0.1), region_query_naive(ds, 0, 0.1))


def test_matches_naive_at_exact_boundary_radii():
    # radii chosen to land exactly on pairwise distances
    rng = np.random.default_rng(7)
    lattice = rng.integers(0, 8, size=(60, 2)).astype(float)
    shared_x = lattice.copy()
    shared_x[:, 0] = 3.0  # every point has the same x
    coincident = np.full((60, 2), 2.5)
    for coords in (lattice, shared_x, coincident):
        ds = Dataset(coords)
        idx = build_index(ds)
        for q in range(0, 60, 7):
            diffs = coords - coords[q]
            dists = np.sqrt((diffs**2).sum(axis=1))
            for eps in [*np.unique(dists[dists > 0])[:5], 0.5]:
                got = region_query(idx, q, float(eps))
                want = region_query_naive(ds, q, float(eps))
                assert np.array_equal(got, want)


def _edge_points(q, eps, axes):
    """q's copies at q_a +- eps and the next 3 floats outward, for each axis a in axes."""
    pts = []
    for ax in axes:
        for sign in (-1.0, 1.0):
            p = q.copy()
            p[ax] = q[ax] + sign * eps
            for _ in range(4):
                pts.append(p.copy())
                p[ax] = np.nextafter(p[ax], sign * np.inf)
    return pts


def _slab_edge_cases(dim, scale):
    """(dataset, eps) pairs: a query point q with its edge points on every axis.

    The edge points that pass the d2 test lie just outside an unpadded
    q_a +- eps slab.
    """
    rng = np.random.default_rng(dim)
    for eps_scale in (1e-6, 1.0, 1e6):
        for _ in range(10):
            q = rng.uniform(-scale, scale, size=dim)
            eps = float(rng.uniform(0.1, 1.0)) * eps_scale
            yield Dataset(np.array([q, *_edge_points(q, eps, range(dim))])), eps


def _bbox_edge_cases(dim, scale):
    """(dataset, eps) pairs whose tiles cut between a row and its edge points.

    12 queries on a line along axis 0, 3 eps long, so axis 0 is the sweep
    axis, each with its edge points on the other axes, which the tiles' grid
    cuts into cells. A query's edge points then lie in its column or in a
    neighbouring one, just outside an unpadded bounding box of the rows,
    and on one side of a cell boundary or the other.
    """
    rng = np.random.default_rng(10 + dim)
    for eps_scale in (1e-6, 1.0, 1e6):
        for _ in range(2):
            q0 = rng.uniform(-scale, scale, size=dim)
            eps = float(rng.uniform(0.1, 1.0)) * eps_scale
            pts = []
            for i in range(12):
                q = q0.copy()
                q[0] += i * eps / 4
                pts += [q, *_edge_points(q, eps, range(1, dim))]
            yield Dataset(np.array(pts)[rng.permutation(len(pts))]), eps


def _cell_edge_cases(dim, scale):
    """(dataset, eps) pairs at the cell boundaries of the tiles' grid, side w = eps * (1 + 2^-50).

    eps is a power of two near scale, so lattice points m * eps are exact
    and lattice neighbors lie at exactly eps. m * eps lies just below the
    cell boundary m * w, so around cell index m = 2^4, 2^20 and 2^52 (either
    sign) on every axis, such pairs straddle cell boundaries. The last set
    puts axis 1 at +-2^62 * eps and +-1e300, where cell indices are clipped
    to +-2^61: every point twice, lattice pairs along axis 0, and two
    anchors at +-1e300 that keep axis 0 the sweep axis.
    """
    eps = 2.0 ** (round(math.log2(scale)) - 2)
    steps = np.array(list(itertools.product((-1, 0, 1, 2), repeat=dim)), dtype=float)
    for m in (2**4, 2**20, 2**52):
        for sign in (1.0, -1.0):
            yield Dataset((sign * m + steps) * eps), eps
    anchors = np.zeros((2, dim))
    anchors[:, 0] = (1e300, -1e300)
    pts = [anchors]
    for far in (2.0**62 * eps, -(2.0**62) * eps, 1e300, -1e300):
        block = (2**4 + steps) * eps
        block[:, min(1, dim - 1)] = far
        pts += [block, block]
    yield Dataset(np.concatenate(pts)), eps


def _tiny_and_huge_lines():
    """Points whose d2 underflows or overflows: two 80-point lines and a 5-point mix."""
    tiny = np.zeros((80, 2))
    tiny[:, 0] = np.arange(80) * 1e-163
    huge = np.zeros((80, 2))
    huge[:, 0] = np.linspace(-1e300, 1e300, 80)
    mixed = np.array([[0.0, 0.0], [1e-163, 0.0], [0.0, -3e-160], [1e300, 0.0], [-1e300, 5.0]])
    return [Dataset(c) for c in (tiny, huge, mixed)]


def _tile_neighborhoods(ds, eps, rows=None):
    """Each point's hits gathered from the tiles, ascending; every point (of
    rows, when given) is a row once. A tile's hits come row by row, i
    ascending, each with the d2 the naive scan accumulates, within eps."""
    hoods = [None] * len(ds)
    coords = ds.coords
    for tile, i, j, d2 in build_index(ds).tiles(eps, rows=rows):
        assert i.shape == j.shape == d2.shape and np.all(np.diff(i) >= 0)
        with np.errstate(over="ignore", under="ignore"):
            naive = sum(((coords[j, ax] - coords[tile[i], ax]) ** 2 for ax in range(ds.dim)), np.zeros(j.size))
        assert np.array_equal(d2, naive) and np.all(d2 <= eps * eps)
        for q, r in enumerate(tile):
            assert hoods[r] is None
            hoods[r] = np.sort(j[i == q])
    return hoods


def _assert_tiles_match_naive(ds, eps):
    for i, hood in enumerate(_tile_neighborhoods(ds, eps)):
        assert np.array_equal(hood, region_query_naive(ds, i, eps))


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
def test_matches_naive_at_slab_edges(dim, scale):
    for ds, eps in _slab_edge_cases(dim, scale):
        idx = build_index(ds)
        for i in range(len(ds)):
            assert np.array_equal(region_query(idx, i, eps), region_query_naive(ds, i, eps))


class TestTiles:
    """Every point's hits, gathered across all tiles, equal the naive scan's."""

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
    def test_slab_edges(self, dim, scale):
        for ds, eps in _slab_edge_cases(dim, scale):
            _assert_tiles_match_naive(ds, eps)

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
    def test_second_axis_bounding_box_edges(self, dim, scale):
        for ds, eps in _bbox_edge_cases(dim, scale):
            _assert_tiles_match_naive(ds, eps)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
    def test_cell_edges(self, dim, scale):
        for ds, eps in _cell_edge_cases(dim, scale):
            _assert_tiles_match_naive(ds, eps)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_random_lattice(self, dim):
        # more points than one tile, on a lattice that puts pairs at exactly eps
        rng = np.random.default_rng(dim)
        ds = Dataset(rng.integers(0, 12, size=(300, dim)) * 0.25)
        for eps in (0.25, 2**0.5 * 0.25, 1.0):
            _assert_tiles_match_naive(ds, eps)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_row_subset(self, dim):
        # the rows named, each once however often it is named, with its whole
        # neighborhood; the other points are candidates only
        rng = np.random.default_rng(dim)
        lattice = Dataset(rng.integers(0, 12, size=(300, dim)) * 0.25)  # ties at exactly eps
        cases = [*_slab_edge_cases(dim, 1.0), *_cell_edge_cases(dim, 1.0), (lattice, 0.25), (lattice, 1.0)]
        for ds, eps in cases:
            rows = rng.choice(len(ds), size=len(ds) // 3 + 1, replace=False)
            hoods = _tile_neighborhoods(ds, eps, rows=np.concatenate([rows, rows[:2]]))
            for i, hood in enumerate(hoods):
                if i in rows:
                    assert np.array_equal(hood, region_query_naive(ds, i, eps))
                else:
                    assert hood is None

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_skewed_rows(self, dim):
        # a dense clump beside sparse points, so that the rows of one tile
        # meet very different numbers of candidates; all rows, and a subset
        rng = np.random.default_rng(dim)
        coords = np.concatenate([rng.normal(0.0, 0.02, size=(500, dim)), rng.uniform(-2.0, 2.0, size=(300, dim))])
        ds, eps = Dataset(coords[rng.permutation(len(coords))]), 0.25
        skew = max(np.bincount(i).max() / np.bincount(i).min() for _, i, _, _ in build_index(ds).tiles(eps))
        assert skew >= 10
        rows = rng.choice(len(ds), size=len(ds) // 4, replace=False)
        for subset in (None, rows):
            for r, hood in enumerate(_tile_neighborhoods(ds, eps, rows=subset)):
                if subset is None or r in rows:
                    assert np.array_equal(hood, region_query_naive(ds, r, eps))
                else:
                    assert hood is None

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_empty_and_single_point(self, dim):
        for n in (0, 1):
            idx = build_index(Dataset(np.zeros((n, dim))))
            for roots in (None, lambda p: p):
                assert [rows.tolist() for rows, *_ in idx.tiles(1.0, roots)] == [[0]] * n

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_coordinates_rejected(self, bad):
        # the message validate_dataset gives, not a RuntimeWarning from the grid
        ds = Dataset([[0.0, 0.0], [1.0, bad], [bad, 1.0], [0.5, 0.5]])
        uses = (
            build_index,
            lambda d: list(build_index(d).tiles(1.0)),
            lambda d: region_query(build_index(d), 0, 1.0),
            lambda d: kth_d2(build_index(d), 2, 1.0),
        )
        for use in uses:
            with pytest.raises(DataError, match="non-finite coordinate at point 1"):
                use(ds)

    def test_axis_with_zero_spread(self):
        rng = np.random.default_rng(7)
        shared_y = rng.integers(0, 30, size=(100, 2)).astype(float)
        shared_y[:, 1] = 3.0
        for coords in (shared_y, shared_y[:, ::-1], np.full((100, 2), 2.5)):
            for eps in (0.5, 1.0, 4.0):
                _assert_tiles_match_naive(Dataset(coords), eps)

    def test_eps_squared_underflows_or_overflows(self):
        # eps * eps is subnormal, zero or infinite, and the naive scan's d2
        # rounds alike for points well beyond eps; on the 80-point lines
        # those points lie in other tiles
        for ds in _tiny_and_huge_lines():
            for eps in (1e-170, 1e-158, 1e155, 1e200):
                _assert_tiles_match_naive(ds, eps)

    def test_eps_validation(self, grid_ds):
        idx = build_index(grid_ds)
        for bad in (0.0, -1.0, math.nan, math.inf, None, "x"):
            with pytest.raises(ParamError):
                next(idx.tiles(bad))

    @pytest.mark.parametrize("dim", [2, 3])
    def test_matches_a_kd_tree_away_from_ties(self, dim):
        # an oracle that shares no code with the sweep: every pair on which
        # the tiles and the tree disagree must sit at eps to within 1e-9
        spatial = pytest.importorskip("scipy.spatial")
        rng = np.random.default_rng(dim)
        coords = np.concatenate([rng.uniform(0, 1, size=(8000, dim)), rng.normal(0.5, 0.1, size=(2000, dim))])
        eps = 0.02 if dim == 2 else 0.06
        n = len(coords)
        pairs = []
        for rows, i, j, _ in build_index(Dataset(coords)).tiles(eps):
            pairs.append(rows[i] * n + j)
        ours = np.concatenate(pairs)
        hoods = spatial.cKDTree(coords).query_ball_point(coords, eps)
        theirs = np.concatenate([i * n + np.asarray(h, dtype=np.int64) for i, h in enumerate(hoods)])
        assert ours.size > 10 * n
        differ = np.setxor1d(ours, theirs)
        d2 = ((coords[differ // n] - coords[differ % n]) ** 2).sum(axis=1)
        assert np.all(np.abs(d2 - eps * eps) <= 1e-9 * eps * eps)


def _sorted_d2(ds):
    """Each point's d2 to every point, itself included, ascending; d2 is
    accumulated axis by axis in pure Python, as the naive scan does."""
    coords = ds.coords.tolist()
    rows = []
    for q in coords:
        row = []
        for p in coords:
            d2 = 0.0
            for a, b in zip(p, q):
                diff = a - b
                d2 += diff * diff
            row.append(d2)
        rows.append(sorted(row))
    return rows


def _assert_kth_d2_matches_reference(ds, radii):
    rows = _sorted_d2(ds)
    idx = build_index(ds)
    n = len(ds)
    for k in sorted({1, n // 2 + 1, n, n + 1}):
        kth = np.array([row[k - 1] if k <= n else math.nan for row in rows])
        for r in radii:
            np.testing.assert_array_equal(kth_d2(idx, k, r), np.where(kth <= r * r, kth, math.nan))
        # r * r is inf: no value is capped, and each is defined up to k = n
        uncapped = kth_d2(idx, k, 2.0**512)
        np.testing.assert_array_equal(uncapped, kth)
        assert np.isnan(uncapped).any() == (k > n)


class TestKthD2:
    """The k-th smallest d2, self included, where it is <= r * r and NaN elsewhere."""

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
    def test_slab_edges(self, dim, scale):
        for ds, eps in _slab_edge_cases(dim, scale):
            _assert_kth_d2_matches_reference(ds, [eps])

    @pytest.mark.parametrize("dim", [2, 3])
    def test_second_axis_bounding_box_edges(self, dim):
        for ds, eps in _bbox_edge_cases(dim, 1.0):
            _assert_kth_d2_matches_reference(ds, [eps])

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_random_lattice(self, dim):
        # ties at every k, and pairs at exactly r
        rng = np.random.default_rng(dim)
        ds = Dataset(rng.integers(0, 12, size=(300, dim)) * 0.25)
        _assert_kth_d2_matches_reference(ds, [0.25, 1.0])

    def test_r_squared_underflows_or_overflows(self):
        for ds in _tiny_and_huge_lines():
            _assert_kth_d2_matches_reference(ds, [1e-170, 1e200])

    def test_r_validation(self, grid_ds):
        idx = build_index(grid_ds)
        for bad in (0.0, -1.0, math.nan, math.inf, None, "x"):
            with pytest.raises(ParamError):
                kth_d2(idx, 1, bad)

    @pytest.mark.parametrize("k, r", [(0, 1.0), (-1, 1.0), (1.5, 1.0), (2.0, 0.0), ("x", 1.0), (None, 1.0), (2, -1.0)])
    def test_argument_validation(self, grid_ds, k, r):
        # each argument under its own name; an integral float k is its integer
        idx = build_index(grid_ds)
        with pytest.raises(ParamError, match="^k must be an integer >= 1" if r == 1.0 else "^r must be finite and > 0"):
            kth_d2(idx, k, r)
        assert kth_d2(idx, 2.0, 1.0).tobytes() == kth_d2(idx, 2, 1.0).tobytes()


def test_matches_naive_when_eps_squared_underflows_or_overflows():
    # eps * eps is subnormal, zero or infinite here, and the naive scan's d2
    # rounds alike for points well beyond eps; the index must agree with it.
    ds = Dataset(np.array([[0.0, 0.0], [1e-163, 0.0], [0.0, -3e-160], [1e300, 0.0], [-1e300, 5.0]]))
    idx = build_index(ds)
    with np.errstate(over="ignore"):
        for eps in (1e-170, 1e-158, 1e155, 1e200):
            for i in range(len(ds)):
                assert np.array_equal(region_query(idx, i, eps), region_query_naive(ds, i, eps))


def test_duplicate_points():
    ds = Dataset(np.array([[1.0, 1.0]] * 10 + [[5.0, 5.0]]))
    idx = build_index(ds)
    assert region_query(idx, 0, 0.1).size == 10
    assert np.array_equal(region_query(idx, 0, 0.1), np.arange(10))


def test_eps_validation(grid_ds):
    idx = build_index(grid_ds)
    for bad in (0.0, -1.0, math.nan, math.inf, None, "x"):
        with pytest.raises(ParamError):
            region_query(idx, 0, bad)
        with pytest.raises(ParamError):
            region_query_naive(grid_ds, 0, bad)


def test_query_validation(grid_ds):
    idx = build_index(grid_ds)
    with pytest.raises(DataError):
        region_query(idx, 999, 1.0)
    with pytest.raises(DataError):
        region_query(idx, (1.0, 2.0, 3.0), 1.0)
    with pytest.raises(DataError):
        region_query(idx, (math.nan, 0.0), 1.0)


@pytest.mark.parametrize("q", ["ab", 0.0, ("a", 1.0), None])
def test_malformed_query_point_rejected(grid_ds, q):
    with pytest.raises(DataError, match="malformed query point"):
        region_query(build_index(grid_ds), q, 1.0)
    with pytest.raises(DataError, match="malformed query point"):
        region_query_naive(grid_ds, q, 1.0)


def test_empty_dataset_queries_by_coords():
    ds = Dataset(np.empty((0, 2)))
    idx = build_index(ds)
    assert region_query(idx, (0.0, 0.0), 1.0).size == 0


@pytest.mark.parametrize("n", [0, 3])
def test_zero_axis_dataset_is_data_error(n):
    with pytest.raises(DataError, match="no coordinate axes"):
        build_index(Dataset(np.empty((n, 0))))


class TestDiameter:
    def test_known_value(self):
        ds = Dataset(np.array([[0.0, 0.0], [3.0, 4.0], [1.0, 1.0]]))
        assert dataset_diameter(ds) == 5.0

    def test_degenerate(self):
        assert dataset_diameter(Dataset(np.array([[2.0, 2.0]]))) == 0.0
        assert dataset_diameter(Dataset(np.empty((0, 2)))) == 0.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("row", [0, 1, 2])
    def test_non_finite_coordinate_rejected(self, bad, row):
        coords = np.array([[0.0, 0.0], [1.0, 0.0], [3.0, 0.0]])
        coords[row, 0] = bad
        with pytest.raises(DataError, match=f"non-finite coordinate at point {row}"):
            dataset_diameter(Dataset(coords))

    def test_matches_bruteforce_random(self):
        # the 3-d set is one where a fused d2 (einsum) lands an ulp off the axis-by-axis sum
        for seed, shape in ((3, (300, 2)), (9, (40, 3))):
            ds = Dataset(np.random.default_rng(seed).normal(size=shape))
            coords = ds.coords
            best = 0.0
            for i in range(len(ds)):
                d2 = ((coords - coords[i]) ** 2).sum(axis=1)
                best = max(best, float(d2.max()))
            assert dataset_diameter(ds) == pytest.approx(math.sqrt(best), rel=0, abs=0)
