"""Radius search: the sweep-index routes (one query, or every neighborhood
through the tiles) must match the naive scan exactly, boundary points included."""
import math

import numpy as np
import pytest

from varden.model import DataError, Dataset, ParamError
from varden.neighborhood import (
    build_index,
    dataset_diameter,
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
    axis, each with its edge points on the other axes. Cut into tiles along
    the second axis, some tiles hold queries but not their edge points on
    one side, which then lie just outside an unpadded bounding box.
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


def _tile_neighborhoods(ds, eps):
    """Each point's hits gathered from the tiles, ascending; every point is a row once."""
    hoods = [None] * len(ds)
    for rows, cols, hit in build_index(ds).tiles(eps):
        assert hit.shape == (rows.size, cols.size)
        for r, h in zip(rows, hit):
            assert hoods[r] is None
            hoods[r] = np.sort(cols[h])
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
    def test_random_lattice(self, dim):
        # more points than one strip, on a lattice that puts pairs at exactly eps
        rng = np.random.default_rng(dim)
        ds = Dataset(rng.integers(0, 12, size=(300, dim)) * 0.25)
        for eps in (0.25, 2**0.5 * 0.25, 1.0):
            _assert_tiles_match_naive(ds, eps)

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
        tiny = np.zeros((80, 2))
        tiny[:, 0] = np.arange(80) * 1e-163
        huge = np.zeros((80, 2))
        huge[:, 0] = np.linspace(-1e300, 1e300, 80)
        mixed = np.array([[0.0, 0.0], [1e-163, 0.0], [0.0, -3e-160], [1e300, 0.0], [-1e300, 5.0]])
        for coords in (tiny, huge, mixed):
            for eps in (1e-170, 1e-158, 1e155, 1e200):
                _assert_tiles_match_naive(Dataset(coords), eps)

    def test_eps_validation(self, grid_ds):
        idx = build_index(grid_ds)
        for bad in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ParamError):
                next(idx.tiles(bad))


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
    for bad in (0.0, -1.0, math.nan, math.inf):
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
