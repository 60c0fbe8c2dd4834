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


# signed zeros in every combination, so that sites equal as floats but not
# as bits follow each other, and sites whose text takes the longest reprs
REPEATED_SITES = ((0.0, 0.0), (-0.0, 0.0), (0.0, -0.0), (-0.0, -0.0), (0.1, 1 / 3), (1e300, -5e-324), (0.1234565, 999999.5))


def repeated_scene(seed=0, n=300, clusters=15):
    """Runs of 1 to 20 points on one site of REPEATED_SITES, first the four
    signed zero sites side by side with one label and class; within a run,
    the label and the class change now and then, and the runs cross the ends
    of blocks of 7 points."""
    rng = np.random.default_rng(seed)
    sites = np.concatenate([[0, 1, 3, 2, 0, 2, 1, 3], rng.integers(len(REPEATED_SITES), size=n)])
    lengths = rng.integers(1, 21, size=sites.size)
    coords = np.repeat(np.array(REPEATED_SITES)[sites], lengths, axis=0)[:n]
    run_labels, run_classes = rng.integers(-1, clusters, size=sites.size), rng.integers(1, 3, size=sites.size)
    run_labels[:8], run_classes[:8] = run_labels[0], run_classes[0]
    labels = np.repeat(run_labels, lengths)[:n]
    relabel = rng.random(n) < 0.1
    labels[relabel] = rng.integers(-1, clusters, size=int(relabel.sum()))
    classes = np.where(labels == NOISE, 0, np.repeat(run_classes, lengths)[:n])
    reclass = (rng.random(n) < 0.1) & (labels != NOISE)
    classes[reclass] = 3 - classes[reclass]
    return Dataset(coords), Labeling(labels, classes)


def scene(key):
    """The writers' byte-reference input named key: adversarial_scene(key)
    for an integer seed, repeated_scene() for "runs"."""
    return repeated_scene() if key == "runs" else adversarial_scene(key)
