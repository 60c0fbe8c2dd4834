"""Inputs shared by the byte-reference tests of the CSV and SVG writers."""
import numpy as np

from varden.model import Dataset, Labeling, NOISE

# signed zero, the smallest subnormal, extremes, an integer past 2^53, and
# values that .6g rounds (at a tie, up a decade, across an exponent switch)
ADVERSARIAL_FLOATS = (
    0.0, -0.0, 5e-324, -5e-324, 1e-300, 1e300, -1e300, 1e16, 1e16 + 2, 0.1, 1 / 3,
    0.1234565, 999999.5, 9.9999995e-5, 123456.5, 2.5e-7, 1e-5, 99999.95, -0.00012345678,
)


def adversarial_scene(seed, n=300, clusters=15):
    """Coordinates mixing ADVERSARIAL_FLOATS with random ones, and a labeling
    with more clusters than the palette, noise, and core and border points."""
    rng = np.random.default_rng(seed)
    pool = np.array(ADVERSARIAL_FLOATS)
    spread = 10.0 ** rng.integers(-3, 6)
    coords = np.where(rng.random((n, 2)) < 0.4, rng.choice(pool, size=(n, 2)), rng.normal(0, spread, (n, 2)))
    labels = rng.integers(-1, clusters, size=n)
    classes = np.where(labels == NOISE, 0, rng.integers(1, 3, size=n))
    return Dataset(coords), Labeling(labels, classes)
