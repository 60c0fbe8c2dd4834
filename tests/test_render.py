"""SVG rendering: structure, radii, palette, and byte determinism."""
import re

import numpy as np
import pytest

from adversarial import scene
from varden.model import Dataset, Labeling, NOISE, PointClass
from varden import dataio
from varden.render import NOISE_COLOR, PALETTE, UnsupportedDimension, render_svg

CIRCLE_RE = re.compile(r'<circle cx="([^"]+)" cy="([^"]+)" r="([^"]+)" fill="([^"]+)"/>')


def _circles(text):
    return [(float(x), float(y), float(r), fill) for x, y, r, fill in CIRCLE_RE.findall(text)]


@pytest.fixture
def small_scene(tmp_path):
    ds = Dataset(np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [8.0, 9.0]]))
    lab = Labeling([0, 0, 1, NOISE], [2, 1, 2, 0])  # core, border, core, noise
    path = tmp_path / "scene.svg"
    render_svg(ds, lab, path)
    return ds, lab, path.read_text()


def test_one_circle_per_point_plus_legend(small_scene):
    ds, lab, text = small_scene
    # 4 point circles + 3 legend swatches (cluster 0, cluster 1, noise)
    assert len(_circles(text)) == 4 + 3


def test_fill_colors(small_scene):
    _, _, text = small_scene
    pts = _circles(text)[:4]
    assert pts[0][3] == PALETTE[0]
    assert pts[1][3] == PALETTE[0]
    assert pts[2][3] == PALETTE[1]
    assert pts[3][3] == NOISE_COLOR


def test_border_radius_is_70_percent(small_scene):
    _, _, text = small_scene
    pts = _circles(text)[:4]
    core_r = pts[0][2]
    assert pts[1][2] == pytest.approx(0.7 * core_r, rel=1e-6)
    assert pts[2][2] == core_r
    assert pts[3][2] == pytest.approx(0.7 * core_r, rel=1e-6)  # noise draws small too


def test_viewbox_has_five_percent_margin(tmp_path):
    ds = Dataset(np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]]))
    lab = Labeling([NOISE] * 3, [0] * 3)
    path = tmp_path / "v.svg"
    render_svg(ds, lab, path)
    m = re.search(r'viewBox="([^"]+)"', path.read_text())
    vx, vy, vw, vh = (float(v) for v in m.group(1).split())
    assert (vx, vy, vw, vh) == (-0.5, -0.5, 11.0, 11.0)


def test_y_axis_points_up(tmp_path):
    # higher data y must land at smaller SVG cy
    ds = Dataset(np.array([[0.0, 0.0], [0.0, 10.0]]))
    lab = Labeling([NOISE, NOISE], [0, 0])
    path = tmp_path / "flip.svg"
    render_svg(ds, lab, path)
    pts = _circles(path.read_text())[:2]
    assert pts[1][1] < pts[0][1]


def test_all_noise_renders_gray(tmp_path):
    ds = Dataset(np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 0.5]]))
    lab = Labeling([NOISE] * 3, [0] * 3)
    path = tmp_path / "noise.svg"
    render_svg(ds, lab, path)
    text = path.read_text()
    pts = _circles(text)
    assert len(pts) == 3 + 1  # 3 points + 1 legend swatch
    assert all(fill == NOISE_COLOR for _, _, _, fill in pts)
    for color in PALETTE:
        assert color not in text


def test_legend_lists_cluster_sizes(small_scene):
    _, _, text = small_scene
    assert ">cluster 0 (n=2)</text>" in text
    assert ">cluster 1 (n=1)</text>" in text
    assert ">noise (n=1)</text>" in text


def test_palette_cycles_beyond_twelve(tmp_path):
    n = 13
    coords = np.array([[float(i) * 10, 0.0] for i in range(n)])
    lab = Labeling(list(range(n)), [2] * n)
    path = tmp_path / "many.svg"
    render_svg(Dataset(coords), lab, path)
    pts = _circles(path.read_text())[:n]
    assert pts[12][3] == PALETTE[0]
    assert pts[11][3] == PALETTE[11]


def test_byte_deterministic(tmp_path):
    rng = np.random.default_rng(1)
    ds = Dataset(rng.normal(size=(50, 2)))
    labels = rng.integers(-1, 3, size=50)
    classes = np.where(labels == NOISE, 0, 2)
    lab = Labeling(labels, classes)
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    render_svg(ds, lab, a)
    render_svg(ds, lab, b)
    assert a.read_bytes() == b.read_bytes()


def test_single_point_dataset(tmp_path):
    ds = Dataset(np.array([[3.0, 4.0]]))
    lab = Labeling([NOISE], [0])
    path = tmp_path / "one.svg"
    render_svg(ds, lab, path)  # zero span must not break the viewBox
    m = re.search(r'viewBox="([^"]+)"', path.read_text())
    _, _, vw, vh = (float(v) for v in m.group(1).split())
    assert vw > 0 and vh > 0


def test_three_d_rejected(tmp_path):
    ds = Dataset(np.zeros((2, 3)))
    lab = Labeling([0, 0], [2, 2])
    with pytest.raises(UnsupportedDimension):
        render_svg(ds, lab, tmp_path / "x.svg")


def test_length_mismatch(tmp_path):
    ds = Dataset(np.zeros((2, 2)))
    with pytest.raises(Exception):
        render_svg(ds, Labeling([0], [2]), tmp_path / "x.svg")


def _reference_svg(dataset, labeling):
    """The whole file as the per-point loop and the per-cluster size scans wrote it."""
    fmt = lambda v: f"{v:.6g}"
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
    labels, classes, k = labeling.labels, labeling.classes, labeling.n_clusters
    sizes = [int((labels == cid).sum()) for cid in range(k)]
    n_noise = int((labels == NOISE).sum())
    lines = [
        '<svg xmlns="http://www.w3.org/2000/svg" width="800" height="800" '
        f'viewBox="{fmt(vx)} {fmt(vy)} {fmt(vw)} {fmt(vh)}">',
        f'<rect x="{fmt(vx)}" y="{fmt(vy)}" width="{fmt(vw)}" height="{fmt(vh)}" fill="#ffffff"/>',
    ]
    coords = dataset.coords
    flip = ymin + ymax
    for i in range(len(dataset)):
        lab = int(labels[i])
        color = NOISE_COLOR if lab == NOISE else PALETTE[lab % len(PALETTE)]
        r = r_full if int(classes[i]) == int(PointClass.CORE) else r_small
        cx, cy = float(coords[i, 0]), flip - float(coords[i, 1])
        lines.append(f'<circle cx="{fmt(cx)}" cy="{fmt(cy)}" r="{fmt(r)}" fill="{color}"/>')
    font, swatch = 0.025 * span, 0.012 * span
    lx, ly = vx + 0.03 * span, vy + 0.05 * span
    entries = [(PALETTE[cid % len(PALETTE)], f"cluster {cid} (n={sizes[cid]})") for cid in range(k)]
    if n_noise:
        entries.append((NOISE_COLOR, f"noise (n={n_noise})"))
    for row, (color, text) in enumerate(entries):
        ey = ly + row * font * 1.5
        lines.append(f'<circle cx="{fmt(lx)}" cy="{fmt(ey)}" r="{fmt(swatch)}" fill="{color}"/>')
        lines.append(
            f'<text x="{fmt(lx + 2 * swatch)}" y="{fmt(ey + font * 0.35)}" '
            f'font-family="monospace" font-size="{fmt(font)}" fill="#333333">{text}</text>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("seed, block", [(0, 7), (1, 7), (2, 7), (3, 4096), (4, 4096), (5, 4096), *(("runs", b) for b in (1, 7, 4096))])
def test_matches_the_per_point_loop_byte_for_byte(tmp_path, monkeypatch, seed, block):
    # signed zeros, subnormals, 1e±300, values .6g rounds, 15 clusters (the
    # palette cycles), noise, core and border points, and class codes other
    # than the three (drawn small, as any non-core point); blocks of 7 points
    # end inside the scene, one of 4096 holds it whole, and in the "runs"
    # scene runs of repeated points cross the block ends
    monkeypatch.setattr(dataio, "_BLOCK", block)
    ds, lab = scene(seed)
    if seed in (1, 3, 5):
        lab = Labeling(lab.labels, np.where(lab.classes == 1, 5, lab.classes))
    path = tmp_path / "scene.svg"
    render_svg(ds, lab, path)
    assert path.read_bytes() == _reference_svg(ds, lab).encode("utf-8")
