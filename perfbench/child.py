"""One varden CLI invocation in a fresh interpreter, measured from inside it.

    python3 perfbench/child.py REPORT SPAWN_TIME TRACE [varden arguments...]

SPAWN_TIME is the parent's time.monotonic() just before it started this
process. CLOCK_MONOTONIC is shared by every process on the machine, so the
difference taken when `import varden.cli` returns is the set-up time. The
invocation is timed from entering cli_main to its return; with TRACE=1 the
layers are wrapped in spans first (see spans.py). The measurements go to
REPORT as JSON; the CLI's own output goes wherever the parent sends it.
"""
import sys
import time

import varden.cli

SETUP_S = time.monotonic() - float(sys.argv[2])

import json  # noqa: E402  (after the set-up measurement on purpose)
from pathlib import Path  # noqa: E402


def peak_rss_mb() -> float:
    """This process's own peak resident memory (VmHWM), in MiB.

    getrusage's ru_maxrss is not used: exec carries the parent's high-water
    mark into it, so a child of a large parent would report the parent's peak.
    """
    for line in Path("/proc/self/status").read_text(encoding="ascii").splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0  # the kernel reports kB
    raise RuntimeError("no VmHWM line in /proc/self/status")


def main(argv: list[str]) -> int:
    report_path, _, trace, *cli_args = argv
    src = Path(__file__).resolve().parents[1] / "src"
    if Path(varden.cli.__file__).resolve().parents[1] != src:
        print(f"varden was imported from {varden.cli.__file__}, not from {src}", file=sys.stderr)
        return 3
    report = {"setup_s": SETUP_S}
    if trace == "1":
        import spans

        rec = spans.Recorder()
        with spans.installed(rec):
            t0 = time.perf_counter()
            rc = varden.cli.cli_main(cli_args)
            wall = time.perf_counter() - t0
        report["layers"] = spans.layer_metrics(rec.spans)
    else:
        t0 = time.perf_counter()
        rc = varden.cli.cli_main(cli_args)
        wall = time.perf_counter() - t0
    report["wall_s"] = wall
    report["rc"] = rc
    report["peak_rss_mb"] = peak_rss_mb()
    Path(report_path).write_text(json.dumps(report), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
