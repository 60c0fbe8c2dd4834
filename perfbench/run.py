"""Benchmark of the varden CLI: runs a workload and prints its metrics.

    python3 perfbench/run.py [--workload NAME] --seed N --seconds S --trace 0|1

Closed loop with one client: one fresh child interpreter at a time
(child.py), each making one CLI invocation, until S seconds have passed. No
threads and no parallel children. Every invocation passes the correctness
gate in workloads.py, outside the timed region, or counts as failed.

--trace 0 prints the end-to-end metrics: the median wall time of one
invocation, set-up time (interpreter start to `import varden.cli`), the
child's peak RSS and the ARI. --trace 1 alternates untraced and traced
invocations and prints the per-layer metrics of spans.py, with the tracing
overhead as traced minus untraced median wall time. Each workload's
result is one JSON line, the last line of its output; without --workload
every workload runs in turn. The exit code is 0 only when every invocation
passed the gate.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parents[1]
WORK = ROOT / ".perfbench_work"
CHILD = Path(__file__).with_name("child.py")
CHILD_TIMEOUT_S = 120
LAYERS = ("cli.", "synthgen.", "dataio.", "neighborhood.", "dbscan.", "adbscan.", "metrics.", "render.")


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in ("VARDEN_SEED", "PYTHONDONTWRITEBYTECODE")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def invoke(cli_args: list[str], trace: bool, env: dict[str, str]) -> dict:
    """Run one child to completion; its report, or RuntimeError if it failed."""
    report_path = WORK / "report.json"
    report_path.unlink(missing_ok=True)
    cmd = [sys.executable, str(CHILD), str(report_path), repr(time.monotonic()), str(int(trace)), *cli_args]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    try:
        _, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"no result within {CHILD_TIMEOUT_S} s") from None
    if proc.returncode != 0 or not report_path.is_file():
        raise RuntimeError(f"child exited {proc.returncode}: {err.decode(errors='replace').strip()[-500:]}")
    report = json.loads(report_path.read_text(encoding="utf-8"))
    if report["rc"] != 0:
        raise RuntimeError(f"CLI exited {report['rc']}: {err.decode(errors='replace').strip()[-500:]}")
    return report


def tail_note(values: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it, if any is above the median."""
    n = len(values)
    pct = int(100 * (1 - 10 / n)) if n > 10 else 0
    if pct <= 50:
        return f"{n} samples: no percentile above the median has ten samples beyond it"
    return f"{n} samples: p{pct} {statistics.quantiles(values, n=100)[pct - 1]!r} s"


def measure(workload: workloads.Workload, seconds: float, trace: bool) -> tuple[int, list[dict], list[dict]]:
    """Invocations until the time is up; (attempted, untraced reports, traced reports)."""
    env = child_env()
    out = WORK / "out"
    cli_args = [a.replace("{out}", str(out)) for a in workload.argv]
    invoke(["--version"], False, env)  # fills the bytecode cache before anything is timed
    plain, traced = [], []
    attempted = 0
    deadline = time.monotonic() + seconds
    while attempted == 0 or time.monotonic() < deadline:
        for mode in (False, True) if trace else (False,):
            attempted += 1
            shutil.rmtree(out, ignore_errors=True)
            out.mkdir()
            try:
                report = invoke(cli_args, mode, env)
                report["ari"] = workload.check(out)
            except (RuntimeError, workloads.GateFailure) as exc:
                print(f"invocation {attempted} failed: {exc}", file=sys.stderr)
                continue
            (traced if mode else plain).append(report)
    return attempted, plain, traced


def end_to_end(plain: list[dict]) -> dict[str, dict]:
    def median(key):
        return statistics.median(r[key] for r in plain)

    walls = [r["wall_s"] for r in plain]
    print(f"wall_s median {statistics.median(walls)!r} s over {tail_note(walls)}")
    print("wall_s samples: " + " ".join(f"{w:.4f}" for w in walls))
    return {
        "wall_s": {"value": median("wall_s"), "unit": "s"},
        "setup_s": {"value": median("setup_s"), "unit": "s"},
        "peak_rss_mb": {"value": median("peak_rss_mb"), "unit": "MiB"},
        "ari": {"value": median("ari"), "unit": "1"},
    }


def per_layer(plain: list[dict], traced: list[dict]) -> dict[str, dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]
    wall = statistics.median(r["wall_s"] for r in traced)
    values = {key: statistics.median(r["layers"][key] for r in traced) for key in traced[0]["layers"]}
    values["trace.wall_s"] = wall
    values["trace.overhead_s"] = wall - statistics.median(r["wall_s"] for r in plain)
    shares = sorted(
        ((v / wall, k) for k, v in values.items() if k.endswith((".s", "self_s")) and k.startswith(LAYERS)),
        reverse=True,
    )
    print("share of traced wall time: " + ", ".join(f"{k} {share:.1%}" for share, k in shares[:6]))
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> bool:
    """Measure one workload and print its result line; True when nothing failed."""
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    try:
        workload = workloads.prepare(name, seed, WORK)
        attempted, plain, traced = measure(workload, seconds, trace)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    failed = attempted - len(plain) - len(traced)
    print(f"{name} seed {seed}: {attempted} invocations, {failed} failed (failed_frac {failed / attempted!r})")
    if not plain or (trace and not traced):
        metrics = {}
    elif trace:
        metrics = per_layer(plain, traced)
    else:
        metrics = end_to_end(plain)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return failed == 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.NAMES, help="default: every workload in turn")
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (ROOT / "src" / "varden" / "cli.py").is_file():
        print(f"perfbench: no varden sources in {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = [args.workload] if args.workload else workloads.NAMES
    passed = [run_workload(name, args.seed, args.seconds, bool(args.trace)) for name in names]
    return 0 if all(passed) else 1


if __name__ == "__main__":
    sys.exit(main())
