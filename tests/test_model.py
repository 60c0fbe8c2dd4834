"""Type-level contracts: validation, immutability, derived properties."""
import numpy as np
import pytest

from varden.model import (
    AdaptiveResult,
    AdbscanParams,
    DataError,
    Dataset,
    DbscanParams,
    Labeling,
    LabeledDataset,
    NOISE,
    ParamError,
    Point,
    PointClass,
    validate_dataset,
    validate_labeling,
)


class TestPoint:
    def test_coords_coerced_to_float(self):
        p = Point((1, 2))
        assert p.coords == (1.0, 2.0)
        assert isinstance(p.coords[0], float)

    def test_xy_accessors(self):
        p = Point((3.0, -4.5))
        assert p.x == 3.0 and p.y == -4.5

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            Point(())

    @pytest.mark.parametrize("coords", [("a",), 1.5, ((1.0, 2.0),)])
    def test_malformed_coordinates_rejected(self, coords):
        with pytest.raises(DataError, match="malformed point coordinates"):
            Point(coords)

    def test_1d_point_has_no_y(self):
        with pytest.raises(DataError):
            Point((1.0,)).y

    def test_iteration_and_indexing(self):
        p = Point((1.0, 2.0, 3.0))
        assert list(p) == [1.0, 2.0, 3.0]
        assert p[2] == 3.0 and len(p) == 3


class TestDataset:
    def test_from_points(self):
        ds = Dataset.from_points([Point((0.0, 0.0)), (1.0, 2.0)])
        assert len(ds) == 2 and ds.dim == 2
        assert ds.point(1) == Point((1.0, 2.0))

    def test_coords_are_read_only(self):
        ds = Dataset(np.zeros((3, 2)))
        with pytest.raises(ValueError):
            ds.coords[0, 0] = 1.0

    def test_copies_input(self):
        arr = np.zeros((2, 2))
        ds = Dataset(arr)
        arr[0, 0] = 9.0
        assert ds.coords[0, 0] == 0.0

    def test_wrong_ndim(self):
        with pytest.raises(DataError):
            Dataset(np.zeros(5))

    @pytest.mark.parametrize("coords", [[[0, 1], [2]], [["a", "b"]]])
    def test_malformed_coordinates_rejected(self, coords):
        with pytest.raises(DataError, match="malformed coordinates"):
            Dataset(coords)

    @pytest.mark.parametrize("points", [[1, 2], [(0.0, 1.0), (2.0,)]])
    def test_malformed_points_rejected(self, points):
        with pytest.raises(DataError, match="malformed"):
            Dataset.from_points(points)

    @pytest.mark.parametrize("i", [-1, 99, 1.5, None])
    def test_bad_point_index_rejected(self, i):
        with pytest.raises(DataError, match="point index"):
            Dataset(np.zeros((2, 2))).point(i)

    def test_numpy_integer_point_index_accepted(self):
        ds = Dataset(np.array([[0.0, 1.0], [2.0, 3.0]]))
        assert ds.point(np.int64(1)) == Point((2.0, 3.0))

    def test_bounds(self):
        ds = Dataset(np.array([[0.0, 5.0], [2.0, -1.0]]))
        mins, maxs = ds.bounds()
        assert list(mins) == [0.0, -1.0]
        assert list(maxs) == [2.0, 5.0]


class TestValidateDataset:
    def test_accepts_finite_2d(self):
        validate_dataset(Dataset(np.random.default_rng(0).normal(size=(10, 2))))

    def test_rejects_empty(self):
        with pytest.raises(DataError, match="empty"):
            validate_dataset(Dataset(np.empty((0, 2))))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(DataError, match="non-finite"):
            validate_dataset(Dataset(np.array([[0.0, 0.0], [1.0, bad]])))


class TestDbscanParams:
    def test_valid(self):
        p = DbscanParams(0.5, 10)
        assert p.eps == 0.5 and p.min_pts == 10

    @pytest.mark.parametrize("eps", [0.0, -1.0, float("nan"), float("inf"), None, "x"])
    def test_bad_eps(self, eps):
        with pytest.raises(ParamError):
            DbscanParams(eps, 10)

    @pytest.mark.parametrize("mp", [0, -3, 2.5, float("nan"), float("inf")])
    def test_bad_min_pts(self, mp):
        with pytest.raises(ParamError):
            DbscanParams(1.0, mp)

    def test_integral_float_min_pts_ok(self):
        assert DbscanParams(1.0, 10.0).min_pts == 10


class TestAdbscanParams:
    def test_defaults(self):
        p = AdbscanParams(k=3)
        assert (p.eps0, p.min_pts0, p.step) == (0.5, 10.0, 0.5)
        assert (p.accept_fraction, p.residual_fraction) == (0.10, 0.05)
        assert p.eps_cap is None and p.max_iters == 100

    def test_real_min_pts0_allowed(self):
        assert AdbscanParams(k=1, min_pts0=3.5).min_pts0 == 3.5

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"k": 0},
            {"k": 1, "eps0": 0.0},
            {"k": 1, "min_pts0": 0.5},
            {"k": 1, "step": -0.5},
            {"k": 1, "accept_fraction": 0.0},
            {"k": 1, "accept_fraction": 1.0},
            {"k": 1, "residual_fraction": -0.1},
            {"k": 1, "residual_fraction": 1.0},
            {"k": 1, "eps_cap": 0.0},
            {"k": 1, "max_iters": 0},
            {"k": float("nan")},
            {"k": float("inf")},
            {"k": 1, "max_iters": float("nan")},
            {"k": 1, "max_iters": float("inf")},
            {"k": 1, "eps0": None},
            {"k": 1, "eps0": "x"},
            {"k": 1, "min_pts0": None},
            {"k": 1, "step": None},
            {"k": 1, "step": "x"},
            {"k": 1, "eps_step": "x"},
            {"k": 1, "accept_fraction": None},
            {"k": 1, "accept_fraction": "x"},
            {"k": 1, "residual_fraction": None},
            {"k": 1, "eps_cap": "x"},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ParamError):
            AdbscanParams(**kwargs)

    def test_step_overrides_validated(self):
        p = AdbscanParams(k=1, eps_step=1.0, min_pts_step=0.25)
        assert p.eps_step == 1.0 and p.min_pts_step == 0.25
        with pytest.raises(ParamError):
            AdbscanParams(k=1, eps_step=float("nan"))


class TestLabeling:
    def test_n_clusters(self):
        lab = Labeling([0, 0, 1, NOISE], [2, 2, 2, 0])
        assert lab.n_clusters == 2
        assert lab.point_class(3) is PointClass.NOISE

    def test_all_noise(self):
        lab = Labeling([NOISE, NOISE], [0, 0])
        assert lab.n_clusters == 0

    @pytest.mark.parametrize("i", [-1, 99, 5, 1.5, None])
    def test_bad_point_index_rejected(self, i):
        with pytest.raises(DataError, match="point index"):
            Labeling([0, NOISE], [2, 0]).point_class(i)

    def test_numpy_integer_point_index_accepted(self):
        assert Labeling([0, NOISE], [2, 0]).point_class(np.int64(0)) is PointClass.CORE

    def test_arrays_read_only(self):
        lab = Labeling([0], [2])
        with pytest.raises(ValueError):
            lab.labels[0] = 5


class TestValidateLabeling:
    def test_consistent_passes(self):
        validate_labeling(Labeling([0, 1, NOISE], [2, 2, 0]), n=3)

    def test_length_mismatch(self):
        with pytest.raises(DataError):
            validate_labeling(Labeling([0], [2]), n=2)

    def test_gap_in_cluster_ids(self):
        with pytest.raises(DataError, match="contiguous"):
            validate_labeling(Labeling([0, 2], [2, 2]))

    def test_noise_class_disagreement(self):
        # labeled point marked class-noise
        with pytest.raises(DataError, match="disagree"):
            validate_labeling(Labeling([0, 0], [2, 0]))


class TestLabeledDataset:
    def test_length_checked(self):
        ds = Dataset(np.zeros((3, 2)))
        with pytest.raises(DataError):
            LabeledDataset(ds, np.array([0, 1]))

    # a fraction used to be truncated: 1.5 to blob 1 and -0.7 to blob 0
    @pytest.mark.parametrize(
        "truth", [["x"], [None], [1e30], [1.5], [-0.7], np.array([np.nan]), [np.inf], [-np.inf]]
    )
    def test_malformed_truth_rejected(self, truth):
        with pytest.raises(DataError, match="malformed truth labels"):
            LabeledDataset(Dataset(np.zeros((1, 2))), truth)

    @pytest.mark.parametrize("truth", [[1.0, -1.0], np.zeros(2), [True, False], np.array([3, NOISE], dtype=np.int32)])
    def test_integral_truth_accepted(self, truth):
        d = LabeledDataset(Dataset(np.zeros((2, 2))), truth)
        assert d.truth.dtype == np.int64 and d.truth.tolist() == [int(t) for t in truth]

    def test_truth_read_only(self):
        d = LabeledDataset(Dataset(np.zeros((2, 2))), np.array([0, NOISE]))
        with pytest.raises(ValueError):
            d.truth[0] = 3


class TestAdaptiveResult:
    def test_counts_and_labeling_view(self):
        res = AdaptiveResult([0, 1, NOISE], [2, 1, 0], trace=(), stop_reason="k_reached")
        assert isinstance(res, Labeling)
        assert res.n_clusters == 2 and res.iterations == 0 and len(res) == 3
        with pytest.raises(ValueError):
            res.labels[0] = 5
        lab = res.as_labeling()
        assert list(lab.labels) == [0, 1, NOISE]
