"""Deterministic SVG scatter plots of 2-D clusterings.

No plotting library: the file is the header, one circle per point in
dataset order, then the legend, with the circles written a block of points
at a time from one row template by dataio's block writer, so identical
inputs always give identical bytes. Clusters cycle through a fixed 12-color
palette, noise is gray, core points draw at full radius and border/noise
points at 70%, and a legend lists cluster sizes.
"""
from __future__ import annotations

import numpy as np

from .dataio import _write_rows
from .model import DataError, Dataset, Labeling, NOISE, PointClass

PALETTE = (
    "#1f77b4",
    "#ff7f0e",
    "#2ca02c",
    "#d62728",
    "#9467bd",
    "#8c564b",
    "#e377c2",
    "#bcbd22",
    "#17becf",
    "#aec7e8",
    "#ffbb78",
    "#98df8a",
)
NOISE_COLOR = "#999999"


class UnsupportedDimension(DataError):
    """SVG rendering is defined for 2-d datasets only."""


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def render_svg(dataset: Dataset, labeling: Labeling, path) -> None:
    """Write a standalone scatter SVG; see module docstring for the look."""
    if dataset.dim != 2:
        raise UnsupportedDimension(f"can only render 2-d datasets, got {dataset.dim}-d")
    if len(labeling) != len(dataset):
        raise DataError(f"labeling covers {len(labeling)} points, dataset has {len(dataset)}")

    mins, maxs = dataset.bounds()
    xmin, ymin = float(mins[0]), float(mins[1])
    xmax, ymax = float(maxs[0]), float(maxs[1])
    pad_x = 0.05 * (xmax - xmin) if xmax > xmin else 0.5
    pad_y = 0.05 * (ymax - ymin) if ymax > ymin else 0.5
    vx, vy = xmin - pad_x, ymin - pad_y
    vw, vh = (xmax - xmin) + 2 * pad_x, (ymax - ymin) + 2 * pad_y
    span = max(vw, vh)
    r_full = 0.009 * span
    r_small = 0.7 * r_full

    labels = labeling.labels
    k = labeling.n_clusters
    sizes = np.bincount(labels[labels >= 0], minlength=k).tolist()
    n_noise = int((labels == NOISE).sum())

    head = [
        '<svg xmlns="http://www.w3.org/2000/svg" width="800" height="800" '
        f'viewBox="{_fmt(vx)} {_fmt(vy)} {_fmt(vw)} {_fmt(vh)}">',
        f'<rect x="{_fmt(vx)}" y="{_fmt(vy)}" width="{_fmt(vw)}" height="{_fmt(vh)}" '
        'fill="#ffffff"/>',
    ]
    font = 0.025 * span
    swatch = 0.012 * span
    lx = vx + 0.03 * span
    ly = vy + 0.05 * span
    entries = [(PALETTE[cid % len(PALETTE)], f"cluster {cid} (n={sizes[cid]})") for cid in range(k)]
    if n_noise:
        entries.append((NOISE_COLOR, f"noise (n={n_noise})"))
    legend = []
    for row, (color, text) in enumerate(entries):
        ey = ly + row * font * 1.5
        legend.append(f'<circle cx="{_fmt(lx)}" cy="{_fmt(ey)}" r="{_fmt(swatch)}" fill="{color}"/>')
        legend.append(
            f'<text x="{_fmt(lx + 2 * swatch)}" y="{_fmt(ey + font * 0.35)}" '
            f'font-family="monospace" font-size="{_fmt(font)}" fill="#333333">{text}</text>'
        )
    legend.append("</svg>")

    # The point circles sit between the two: core points draw at full
    # radius, and each cluster's color is its id's place in the palette.
    flip = ymin + ymax  # mirror y so larger values draw higher
    fills = np.array(PALETTE + (NOISE_COLOR,), dtype=object)
    radius = np.array([_fmt(r_small), _fmt(r_full)], dtype=object)
    cells = (
        (labeling.classes, lambda c: radius.take(c == int(PointClass.CORE))),
        (labels, lambda lab: fills.take(np.where(lab == NOISE, len(PALETTE), lab % len(PALETTE)))),
    )
    circle, position = '<circle {0} r="%s" fill="%s"/>\n', 'cx="%.6g" cy="%.6g"'
    _write_rows(path, dataset, "\n".join(head) + "\n", circle, position, cells, "\n".join(legend) + "\n", flip)
