"""Scenario generation: bit-level determinism, spec validation, the
built-in geometry rules, and the text spec format."""
import math

import numpy as np
import pytest

from varden.model import NOISE, Point
from varden.synthgen import (
    BlobSpec,
    InvalidSpec,
    SCENARIO_NAMES,
    ScenarioSpec,
    UnknownScenario,
    format_scenario,
    gen_scenario,
    parse_scenario,
    paper_scenario,
)

WIDE = ((-100.0, 100.0), (-100.0, 100.0))


def _single_blob(sd=0.2, count=300, seed=1, noise=0, bounds=WIDE):
    return ScenarioSpec(
        blobs=(BlobSpec(Point((0.0, 0.0)), sd, count),),
        noise_count=noise,
        noise_bounds=bounds,
        seed=seed,
    )


class TestGenScenario:
    def test_degenerate_single_point(self):
        d = gen_scenario(_single_blob(count=1))
        assert len(d) == 1
        assert list(d.truth) == [0]

    def test_determinism_bit_identical(self):
        spec = paper_scenario("three_varying")
        a, b = gen_scenario(spec), gen_scenario(spec)
        assert a.dataset.coords.tobytes() == b.dataset.coords.tobytes()
        assert np.array_equal(a.truth, b.truth)

    def test_different_seeds_differ(self):
        a = gen_scenario(_single_blob(seed=1))
        b = gen_scenario(_single_blob(seed=2))
        assert not np.array_equal(a.dataset.coords, b.dataset.coords)

    def test_counts_exact(self):
        spec = paper_scenario("four_varying")
        d = gen_scenario(spec)
        assert len(d) == spec.total_points
        for i, blob in enumerate(spec.blobs):
            assert int((d.truth == i).sum()) == blob.count
        assert int((d.truth == NOISE).sum()) == spec.noise_count

    def test_noise_points_inside_bounds(self):
        spec = paper_scenario("two_equal")
        d = gen_scenario(spec)
        pts = d.dataset.coords[d.truth == NOISE]
        for ax, (lo, hi) in enumerate(spec.noise_bounds):
            assert pts[:, ax].min() >= lo and pts[:, ax].max() < hi

    def test_blob_order_is_dataset_order(self):
        spec = paper_scenario("three_varying")
        d = gen_scenario(spec)
        expected = np.concatenate(
            [np.full(b.count, i) for i, b in enumerate(spec.blobs)]
            + [np.full(spec.noise_count, NOISE)]
        )
        assert np.array_equal(d.truth, expected)

    @pytest.mark.parametrize("seed", range(1, 101))
    def test_four_sigma_tail_bound(self, seed):
        # Gaussian tail check the generator must satisfy: for sigma=0.2 and
        # 300 draws, at least 99% of points land within 4 sigma of center.
        d = gen_scenario(_single_blob(sd=0.2, count=300, seed=seed))
        r = np.sqrt((d.dataset.coords**2).sum(axis=1))
        assert float(np.mean(r <= 0.8)) >= 0.99

    def test_three_dimensional_spec_supported(self):
        spec = ScenarioSpec(
            blobs=(BlobSpec(Point((0.0, 0.0, 0.0)), 1.0, 50),),
            noise_count=10,
            noise_bounds=((-5.0, 5.0),) * 3,
            seed=9,
        )
        d = gen_scenario(spec)
        assert d.dataset.dim == 3 and len(d) == 60

    def test_blob_sample_moments(self):
        d = gen_scenario(_single_blob(sd=0.5, count=5000, seed=3))
        assert abs(float(d.dataset.coords.mean())) < 0.02
        assert abs(float(d.dataset.coords.std()) - 0.5) < 0.02


class TestSpecValidation:
    def test_center_outside_bounds(self):
        with pytest.raises(InvalidSpec, match="outside"):
            ScenarioSpec(
                blobs=(BlobSpec(Point((200.0, 0.0)), 1.0, 5),),
                noise_count=0,
                noise_bounds=WIDE,
                seed=1,
            )

    def test_mixed_blob_dimensions(self):
        with pytest.raises(InvalidSpec, match="mixed"):
            ScenarioSpec(
                blobs=(BlobSpec(Point((0.0, 0.0)), 1.0, 5), BlobSpec(Point((0.0,)), 1.0, 5)),
                noise_count=0,
                noise_bounds=WIDE,
                seed=1,
            )

    @pytest.mark.parametrize("sd", [0.0, -1.0, math.nan, None, "x"])
    def test_bad_std_dev(self, sd):
        with pytest.raises(InvalidSpec):
            BlobSpec(Point((0.0, 0.0)), sd, 5)

    @pytest.mark.parametrize(
        "field, bad",
        [
            ("count", 0),
            ("count", math.nan),
            ("count", math.inf),
            ("noise", math.nan),
            ("noise", math.inf),
            ("seed", math.nan),
            ("seed", math.inf),
            ("seed", 2**64),
            ("bounds", ((None, 1.0), (-1.0, 1.0))),
            ("bounds", ((-1.0, "x"), (-1.0, 1.0))),
        ],
    )
    def test_bad_count(self, field, bad):
        # counts and seeds that int() cannot take or would change, and noise
        # bounds that float() cannot take, are InvalidSpec too
        with pytest.raises(InvalidSpec):
            _single_blob(**{field: bad})

    @pytest.mark.parametrize(
        "field, bad",
        [
            ("noise_bounds", ((0, 1, 2), (0, 1))),
            ("noise_bounds", 5),
            ("noise_bounds", None),
            ("noise_bounds", ((0, 1), 5)),
            ("blobs", None),
            ("blobs", ((0, 0),)),
        ],
    )
    def test_malformed_scenario_shapes(self, field, bad):
        # each shape is checked before it is unpacked: no raw ValueError,
        # TypeError or AttributeError
        spec = dict(blobs=(BlobSpec(Point((0.0, 0.0)), 1.0, 5),), noise_count=0, noise_bounds=WIDE, seed=1)
        with pytest.raises(InvalidSpec):
            ScenarioSpec(**{**spec, field: bad})

    @pytest.mark.parametrize("center", [None, 5, ("a", 1.0), ()])
    def test_malformed_blob_center(self, center):
        with pytest.raises(InvalidSpec):
            BlobSpec(center, 1.0, 5)

    def test_inverted_bounds(self):
        with pytest.raises(InvalidSpec, match="bound"):
            ScenarioSpec(
                blobs=(BlobSpec(Point((0.0, 0.0)), 1.0, 5),),
                noise_count=0,
                noise_bounds=((1.0, -1.0), (-1.0, 1.0)),
                seed=1,
            )

    def test_no_blobs(self):
        with pytest.raises(InvalidSpec):
            ScenarioSpec(blobs=(), noise_count=0, noise_bounds=WIDE, seed=1)

    def test_negative_noise_count(self):
        with pytest.raises(InvalidSpec):
            _single_blob(noise=-1)

    def test_wrong_type_rejected(self):
        with pytest.raises(InvalidSpec):
            gen_scenario("two_equal")


class TestBuiltins:
    def test_names(self):
        assert SCENARIO_NAMES == ("four_varying", "three_varying", "two_equal")

    def test_unknown_name(self):
        with pytest.raises(UnknownScenario):
            paper_scenario("five_clusters")

    def test_two_equal_shape(self):
        spec = paper_scenario("two_equal")
        assert len(spec.blobs) == 2
        assert spec.blobs[0].std_dev == spec.blobs[1].std_dev == 0.15
        assert all(b.count == 300 for b in spec.blobs)
        assert spec.noise_count == 30
        # equal pair rule: centers at least 10 sigma apart
        c0, c1 = (np.array(tuple(b.center)) for b in spec.blobs)
        assert np.linalg.norm(c0 - c1) >= 10 * 0.15

    def test_three_varying_sigmas_increase(self):
        sds = [b.std_dev for b in paper_scenario("three_varying").blobs]
        assert sds == sorted(sds) and len(set(sds)) == 3

    @pytest.mark.parametrize("name,counts,noise", [
        ("three_varying", 3, 45),
        ("four_varying", 4, 60),
    ])
    def test_varying_separation_rule(self, name, counts, noise):
        spec = paper_scenario(name)
        assert len(spec.blobs) == counts and spec.noise_count == noise
        centers = [np.array(tuple(b.center)) for b in spec.blobs]
        for i in range(len(spec.blobs)):
            for j in range(i + 1, len(spec.blobs)):
                gap = float(np.linalg.norm(centers[i] - centers[j]))
                assert gap >= 6 * max(spec.blobs[i].std_dev, spec.blobs[j].std_dev)

    @pytest.mark.parametrize("name", ["three_varying", "four_varying"])
    def test_density_contrast(self, name):
        # the varying scenarios must make one radius genuinely unsuitable:
        # median 10-NN distance of the densest blob at least 4x smaller
        # than the sparsest blob's
        spec = paper_scenario(name)
        d = gen_scenario(spec)
        coords = d.dataset.coords

        def med_knn(blob_idx):
            members = np.flatnonzero(d.truth == blob_idx)
            vals = []
            for i in members:
                dist = np.sqrt(((coords - coords[i]) ** 2).sum(axis=1))
                vals.append(np.sort(dist)[10])
            return float(np.median(vals))

        dense = med_knn(0)
        sparse = med_knn(len(spec.blobs) - 1)
        assert sparse >= 4 * dense


class TestTextFormat:
    def test_round_trip(self):
        spec = paper_scenario("four_varying")
        assert parse_scenario(format_scenario(spec)) == spec

    def test_round_trip_custom(self):
        spec = ScenarioSpec(
            blobs=(BlobSpec(Point((0.125, -3.5)), 0.3, 42),),
            noise_count=7,
            noise_bounds=((-4.0, 4.0), (-8.0, 8.0)),
            seed=987654321,
        )
        assert parse_scenario(format_scenario(spec)) == spec

    def test_comments_blanks_and_defaults(self):
        text = """
        # a scenario with defaults
        noise_bounds -2 2 -2 2

        blob 0 0 0.5 20  # trailing comment
        """
        spec = parse_scenario(text)
        assert spec.seed == 1 and spec.noise_count == 0
        assert spec.blobs[0].count == 20

    def test_missing_bounds(self):
        with pytest.raises(InvalidSpec, match="noise_bounds"):
            parse_scenario("blob 0 0 1 5\n")

    def test_missing_blobs(self):
        with pytest.raises(InvalidSpec, match="blob"):
            parse_scenario("noise_bounds -1 1 -1 1\n")

    def test_unknown_key_reports_line(self):
        with pytest.raises(InvalidSpec, match="line 2"):
            parse_scenario("noise_bounds -1 1 -1 1\nwobble 3\nblob 0 0 1 5\n")

    def test_malformed_blob_line(self):
        with pytest.raises(InvalidSpec):
            parse_scenario("noise_bounds -1 1 -1 1\nblob 0 0\n")

    def test_odd_bounds_count(self):
        with pytest.raises(InvalidSpec):
            parse_scenario("noise_bounds -1 1 -1\nblob 0 0 1 5\n")
