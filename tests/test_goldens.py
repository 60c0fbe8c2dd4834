"""Byte goldens: the SHA-256 of every file the CLI writes for fixed inputs.

Criterion 12 only checks that two runs agree with each other; these hashes
catch a change of output bytes across a rewrite of the clustering code. They
were recorded from the breadth-first labeling that the tiled union-find
replaced.
"""
import hashlib

import numpy as np
import pytest

from varden.cli import cli_main

COMPARE_SEED = 3
COMPARE_GOLDENS = {
    "two_equal": {
        "adbscan.csv": "bf190c4478d8532f709cf7e1087ab71bf75494068c49ebc4f6f102b4306cc8e3",
        "adbscan.svg": "4f7a5f0192b714e6ac7730ed9c8edd2f8a303fd4557feb5cb74df35fd82f9a2d",
        "adbscan_manifest.txt": "98734624a03a3049cf91ef073961d134c8eef39d9802a22708989d030c1de20f",
        "dataset.csv": "e892c40f7dc87e4b386fc5d43795263ad38bd427b49c09c27fc78cc130a311e3",
        "dbscan.csv": "6c5baee5608183d2866979bc9c59a96a2a4b5ede7107f7c9ae6076a08a77f9cc",
        "dbscan.svg": "246e3b75d1883653b32c7b8747df348ffe2605ff14ffc4966aba28b891139477",
        "dbscan_manifest.txt": "d08a041f56f905ef81a2c751e6e087bc3ed1226ea54e5243bde3a82e1d4f6a62",
    },
    "three_varying": {
        "adbscan.csv": "57036d63822e9e5e562f7d2f45c906b6dd7a2f327211cbdd246675fcb78d23de",
        "adbscan.svg": "b4f5dc1c4db02269d25fc10c01c9e00a9666e21a3f7e3430ff92467a7eaa87ba",
        "adbscan_manifest.txt": "c7164a490eeea36d01f75fdec372cb85430500f09feb95404eb601c83bbc9715",
        "dataset.csv": "49adeefa44821a83b84d5a8200b00573155f8fa545f78981a8861e994a2b16bf",
        "dbscan.csv": "d003e2d323c3c6359e3d21ba370db5c28d423ef3b0d5acd6c81ec65fcc82bcf6",
        "dbscan.svg": "63b5368f6ceec3052d7e521d4ed2ca645f5b969f31a64136b013cb837d79163a",
        "dbscan_manifest.txt": "298263a50fdff1adf38c6cc710337d04781efed824aff26ee20e8beaf227fa3f",
    },
    "four_varying": {
        "adbscan.csv": "fd692c52d781da27ae3b5dcf2eee2abf27912ffbdc684a67a52d60b23c53b524",
        "adbscan.svg": "0d011aec405e7f4c1648a8878d58365801661587b8ad42eadfd0dc83925cd498",
        "adbscan_manifest.txt": "b6e263f0c3f4451f459d601c2daa33d69599321909915638515cb650d5f14cd6",
        "dataset.csv": "61569d677a57f1fa81739eceb04897563bde1113042e59590f91bfecc2c10f31",
        "dbscan.csv": "fab2775825c961a9d6b755bc7146904ae42ab17632f586f80ac40aea53a48676",
        "dbscan.svg": "5bdad98e2f501cfe63775766d6eb91e37b148d5a980094bb77cec2ac74e2d2a5",
        "dbscan_manifest.txt": "7e6837a33537ff05f444e57af127ad6fa4a670e0a36ac1db6e2a561983605d04",
    },
}
DBSCAN_GOLDENS = {
    "labels.csv": "fac8a3b5445b7db4104fc7c17f1d746f057f5aa918147a1ff0c10bb11949d0f1",
    "labels.svg": "b174e41b28f3f1161411cf785f53fe70953f0c02914308e8d174fdef9c85642e",
}


def _hashes(out_dir):
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out_dir.iterdir())}


@pytest.mark.parametrize("scenario", sorted(COMPARE_GOLDENS))
def test_compare_outputs_are_pinned(tmp_path, scenario):
    out = tmp_path / "out"
    argv = ["compare", "--scenario", scenario, "--seed", str(COMPARE_SEED), "--out-dir", str(out)]
    assert cli_main(argv) == 0
    assert _hashes(out) == COMPARE_GOLDENS[scenario]


def test_dbscan_on_lattice_is_pinned(tmp_path):
    # Quarter-lattice coordinates are exact in binary, so many pairs sit at
    # exactly eps and 4 border points touch two clusters.
    coords = np.round(np.random.default_rng(5).uniform(0.0, 10.0, size=(400, 2)) * 4) / 4
    src = tmp_path / "in.csv"
    src.write_text("x,y\n" + "".join(f"{x!r},{y!r}\n" for x, y in coords.tolist()), encoding="utf-8")
    out = tmp_path / "out"
    out.mkdir()
    argv = ["dbscan", "--in", str(src), "--eps", "0.5", "--min-pts", "5"]
    assert cli_main(argv + ["--out", str(out / "labels.csv"), "--svg", str(out / "labels.svg")]) == 0
    assert _hashes(out) == DBSCAN_GOLDENS
