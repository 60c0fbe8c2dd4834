"""Seeded synthetic scenarios: Gaussian blobs plus uniform background noise.

Everything is reproducible bit for bit from the spec alone: one splitmix64
stream (see rng) seeded with the spec's seed emits, in order, each blob's
points (axis by axis, Box-Muller) and then the noise points (axis by axis,
uniform over the noise box). Built-in scenarios cover the shapes the library
is demonstrated on: a pair of equal-density blobs, and three- and four-blob
layouts whose densities differ enough that no single radius suits them all.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import Dataset, LabeledDataset, NOISE, Point, VardenError, check_float, check_int
from .rng import SplitMix64


class InvalidSpec(VardenError):
    """A scenario spec violates its invariants or cannot be parsed."""


class UnknownScenario(VardenError):
    """No built-in scenario has the requested name."""


def _sequence(value, name: str) -> tuple:
    """value as a tuple; InvalidSpec, not a raw TypeError, when it is not iterable."""
    try:
        return tuple(value)
    except TypeError:
        raise InvalidSpec(f"{name} must be a sequence, got {value!r}") from None


@dataclass(frozen=True)
class BlobSpec:
    """One isotropic Gaussian blob.

    center: blob mean.
    std_dev: spread along every axis, > 0.
    count: points to draw, >= 1.
    """

    center: Point
    std_dev: float
    count: int

    def __post_init__(self) -> None:
        if not isinstance(self.center, Point):
            coords = _sequence(self.center, "blob center")
            if not coords:
                raise InvalidSpec("blob center must have at least one coordinate")
            center = Point(tuple(check_float(c, "blob center coordinate", error=InvalidSpec) for c in coords))
            object.__setattr__(self, "center", center)
        object.__setattr__(self, "std_dev", check_float(self.std_dev, "std_dev", 0, error=InvalidSpec))
        object.__setattr__(self, "count", check_int(self.count, "count", 1, error=InvalidSpec))


@dataclass(frozen=True)
class ScenarioSpec:
    """A full generation recipe; the seed fully determines the output.

    noise_bounds: ((lo, hi), ...) per axis; must contain every blob center.
    """

    blobs: tuple[BlobSpec, ...]
    noise_count: int
    noise_bounds: tuple[tuple[float, float], ...]
    seed: int

    def __post_init__(self) -> None:
        blobs = _sequence(self.blobs, "blobs")
        if not blobs:
            raise InvalidSpec("a scenario needs at least one blob")
        if not all(isinstance(b, BlobSpec) for b in blobs):
            raise InvalidSpec(f"blobs must be BlobSpecs, got {blobs!r}")
        object.__setattr__(self, "blobs", blobs)
        dim = len(blobs[0].center)
        for b in blobs:
            if len(b.center) != dim:
                raise InvalidSpec("blob centers have mixed dimensions")
        object.__setattr__(self, "noise_count", check_int(self.noise_count, "noise_count", 0, error=InvalidSpec))
        bounds = []
        for pair in _sequence(self.noise_bounds, "noise_bounds"):
            pair = _sequence(pair, "a noise bound")
            if len(pair) != 2:
                raise InvalidSpec(f"a noise bound must be a (lo, hi) pair, got {pair!r}")
            bounds.append(tuple(check_float(x, "noise bound", error=InvalidSpec) for x in pair))
        bounds = tuple(bounds)
        if len(bounds) != dim:
            raise InvalidSpec(f"noise_bounds cover {len(bounds)} axes, blobs are {dim}-d")
        for lo, hi in bounds:
            if lo >= hi:
                raise InvalidSpec(f"bad noise bound ({lo!r}, {hi!r})")
        for b in blobs:
            for ax, c in enumerate(b.center):
                lo, hi = bounds[ax]
                if not lo <= c <= hi:
                    raise InvalidSpec(f"blob center {tuple(b.center)} outside noise_bounds")
        object.__setattr__(self, "noise_bounds", bounds)
        object.__setattr__(self, "seed", check_int(self.seed, "seed", 0, 2**64, InvalidSpec))

    @property
    def dim(self) -> int:
        return len(self.blobs[0].center)

    @property
    def total_points(self) -> int:
        return sum(b.count for b in self.blobs) + self.noise_count


def gen_scenario(spec: ScenarioSpec) -> LabeledDataset:
    """Draw the scenario's points; truth holds blob indices, NOISE for noise."""
    if not isinstance(spec, ScenarioSpec):
        raise InvalidSpec(f"expected a ScenarioSpec, got {type(spec).__name__}")
    rng = SplitMix64(spec.seed)
    draws = [rng.normal(c, b.std_dev) for b in spec.blobs for _ in range(b.count) for c in b.center]
    draws += [rng.uniform(lo, hi) for _ in range(spec.noise_count) for lo, hi in spec.noise_bounds]
    truth = np.repeat(np.arange(len(spec.blobs)), [b.count for b in spec.blobs])
    truth = np.concatenate((truth, np.full(spec.noise_count, NOISE)))
    return LabeledDataset(Dataset(np.array(draws).reshape(-1, spec.dim)), truth)


# Built-in scenario geometry. The blobs are listed densest first; every pair
# of centers is at least 6x the pair's larger std_dev apart (10x for the
# equal pair), which is what lets a radius tuned to one density provably
# shatter or miss the others.
_BUILTINS = {
    "two_equal": ScenarioSpec(
        blobs=(
            BlobSpec(Point((0.0, 0.0)), 0.15, 300),
            BlobSpec(Point((3.0, 0.0)), 0.15, 300),
        ),
        noise_count=30,
        noise_bounds=((-1.5, 4.5), (-1.5, 1.5)),
        seed=1,
    ),
    "three_varying": ScenarioSpec(
        blobs=(
            BlobSpec(Point((0.0, 0.0)), 0.2, 300),
            BlobSpec(Point((10.0, 0.0)), 1.0, 300),
            BlobSpec(Point((5.0, 18.0)), 2.5, 300),
        ),
        noise_count=45,
        noise_bounds=((-8.0, 18.0), (-8.0, 28.0)),
        seed=1,
    ),
    "four_varying": ScenarioSpec(
        blobs=(
            BlobSpec(Point((0.0, 0.0)), 0.2, 300),
            BlobSpec(Point((6.0, 0.0)), 0.8, 300),
            BlobSpec(Point((0.0, 14.0)), 1.8, 300),
            BlobSpec(Point((22.0, 14.0)), 3.0, 300),
        ),
        noise_count=60,
        noise_bounds=((-8.0, 34.0), (-8.0, 26.0)),
        seed=1,
    ),
}

SCENARIO_NAMES = tuple(sorted(_BUILTINS))


def paper_scenario(name: str) -> ScenarioSpec:
    """Fixed built-in recipe by name; see SCENARIO_NAMES."""
    try:
        return _BUILTINS[name]
    except KeyError:
        raise UnknownScenario(f"unknown scenario {name!r}; choices: {', '.join(SCENARIO_NAMES)}") from None


def format_scenario(spec: ScenarioSpec) -> str:
    """Render a spec in the key-value text schema (see parse_scenario)."""
    lines = [f"seed {spec.seed}", f"noise_count {spec.noise_count}"]
    lines.append("noise_bounds " + " ".join(f"{lo!r} {hi!r}" for lo, hi in spec.noise_bounds))
    for b in spec.blobs:
        coords = " ".join(repr(c) for c in b.center)
        lines.append(f"blob {coords} {b.std_dev!r} {b.count}")
    return "\n".join(lines) + "\n"


def parse_scenario(text: str) -> ScenarioSpec:
    """Parse the key-value schema:

        seed <uint64>
        noise_count <int>
        noise_bounds <lo> <hi> [<lo> <hi> ...]   # one pair per axis
        blob <c1> ... <cd> <std_dev> <count>     # one line per blob

    '#' starts a comment; blank lines are ignored; keys may come in any
    order; seed defaults to 1 and noise_count to 0 when omitted.
    """
    seed = 1
    noise_count = 0
    noise_bounds: tuple[tuple[float, float], ...] | None = None
    blobs: list[BlobSpec] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, *rest = line.split()
        try:
            if key == "seed":
                (v,) = rest
                seed = int(v)
            elif key == "noise_count":
                (v,) = rest
                noise_count = int(v)
            elif key == "noise_bounds":
                vals = [float(v) for v in rest]
                if len(vals) < 2 or len(vals) % 2:
                    raise ValueError("needs an even number of values")
                noise_bounds = tuple((vals[i], vals[i + 1]) for i in range(0, len(vals), 2))
            elif key == "blob":
                vals = [float(v) for v in rest]
                if len(vals) < 3:
                    raise ValueError("needs center coords, std_dev, count")
                blobs.append(BlobSpec(Point(tuple(vals[:-2])), vals[-2], int(rest[-1])))
            else:
                raise ValueError(f"unknown key {key!r}")
        except (ValueError, TypeError) as exc:
            raise InvalidSpec(f"scenario line {lineno}: {exc}") from None
    if not blobs:
        raise InvalidSpec("scenario has no blob lines")
    if noise_bounds is None:
        raise InvalidSpec("scenario has no noise_bounds line")
    return ScenarioSpec(tuple(blobs), noise_count, noise_bounds, seed)
