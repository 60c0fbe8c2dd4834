"""Command-line surface.

Subcommands: gen (synthesize a scenario), dbscan (one fixed-parameter
scan), adbscan (adaptive escalation), eval (score a prediction against
truth), compare (run both algorithms on one scenario side by side, the
fixed scan at the eps that adbscan.tune_eps_densest picks). This module
only parses flags, calls the library and writes the files.
Exit codes: 0 success, 1 usage error, 2 data error. All file outputs are
deterministic given (input bytes, flags, seed); `VARDEN_SEED` supplies the
seed when --seed is absent.
"""
from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .adbscan import run_adbscan, tune_eps_densest
from .dataio import (
    FileNotFound,
    RunManifest,
    dataset_hash,
    read_csv,
    write_csv,
    write_dataset_csv,
    write_manifest,
)
from .dbscan import run_dbscan
from .metrics import LengthMismatch, MissingGroundTruth, evaluate
from .model import (
    AdbscanParams,
    DataError,
    Dataset,
    DbscanParams,
    Labeling,
    LabeledDataset,
    NOISE,
    PointClass,
    VardenError,
    validate_labeling,
)
# Not called here: kept bound because perfbench's span tracer looks these names up on varden.cli.
from .neighborhood import build_index, dataset_diameter  # noqa: F401
from .render import render_svg
from .synthgen import SCENARIO_NAMES, gen_scenario, paper_scenario, parse_scenario


class _UsageError(Exception):
    """Problems equivalent to bad flags (e.g. a malformed VARDEN_SEED)."""


def _resolve_seed(flag_seed: int | None, spec_seed: int) -> int:
    if flag_seed is not None:
        return flag_seed
    env = os.environ.get("VARDEN_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise _UsageError(f"VARDEN_SEED must be an integer, got {env!r}") from None
    return spec_seed


def _load_dataset(path) -> Dataset:
    data = read_csv(path)
    return data.dataset if isinstance(data, LabeledDataset) else data


def _cmd_gen(args) -> int:
    if args.scenario:
        spec = paper_scenario(args.scenario)
    else:
        try:
            text = Path(args.spec).read_text(encoding="utf-8")
        except OSError as exc:
            raise FileNotFound(f"cannot read {args.spec}: {exc}") from None
        spec = parse_scenario(text)
    spec = replace(spec, seed=_resolve_seed(args.seed, spec.seed))
    labeled = gen_scenario(spec)
    write_dataset_csv(labeled, args.out)
    print(
        f"wrote {len(labeled)} points ({len(spec.blobs)} blobs + {spec.noise_count} noise, "
        f"seed {spec.seed}) to {args.out}"
    )
    return 0


def _cmd_dbscan(args) -> int:
    ds = _load_dataset(args.infile)
    labeling = run_dbscan(ds, DbscanParams(args.eps, args.min_pts))
    write_csv(ds, labeling, args.out)
    if args.svg:
        render_svg(ds, labeling, args.svg)
    n_noise = int((labeling.labels == NOISE).sum())
    print(f"{labeling.n_clusters} clusters, {n_noise}/{len(ds)} noise points")
    return 0


def _adbscan_param_record(params: AdbscanParams) -> dict:
    rec = {
        "k": params.k,
        "eps0": params.eps0,
        "min_pts0": params.min_pts0,
        "step": params.step,
        "accept_fraction": params.accept_fraction,
        "residual_fraction": params.residual_fraction,
        "max_iters": params.max_iters,
    }
    if params.eps_cap is not None:
        rec["eps_cap"] = params.eps_cap
    if params.eps_step is not None:
        rec["eps_step"] = params.eps_step
    if params.min_pts_step is not None:
        rec["min_pts_step"] = params.min_pts_step
    return rec


def _cmd_adbscan(args) -> int:
    ds = _load_dataset(args.infile)
    params = AdbscanParams(
        k=args.k,
        eps0=args.eps0,
        min_pts0=args.min_pts0,
        step=args.step,
        accept_fraction=args.accept,
        residual_fraction=args.residual,
        eps_cap=args.eps_cap,
        max_iters=args.max_iters,
    )
    result = run_adbscan(ds, params)
    write_csv(ds, result, args.out)
    if args.svg:
        render_svg(ds, result, args.svg)
    if args.trace:
        manifest = RunManifest(
            command="adbscan",
            tool_version=__version__,
            dataset_hash=dataset_hash(ds),
            params=_adbscan_param_record(params),
            trace=result.trace,
            stop_reason=result.stop_reason,
        )
        write_manifest(manifest, args.trace)
    print(
        f"{result.n_clusters} clusters in {result.iterations} iterations "
        f"(stop: {result.stop_reason})"
    )
    return 0


def _prediction_labeling(pred, n: int, data: LabeledDataset) -> Labeling:
    if not isinstance(pred, LabeledDataset):
        raise DataError("prediction file has no cluster column")
    if len(pred) != n:
        raise LengthMismatch(f"prediction covers {len(pred)} points, dataset has {n}")
    if not np.array_equal(pred.dataset.coords, data.dataset.coords):
        raise DataError("prediction coordinates do not match the input dataset")
    labels = pred.truth
    classes = np.where(labels == NOISE, int(PointClass.NOISE), int(PointClass.CORE)).astype(np.int8)
    labeling = Labeling(labels, classes)
    validate_labeling(labeling, n)
    return labeling


def _cmd_eval(args) -> int:
    data = read_csv(args.infile)
    if not isinstance(data, LabeledDataset):
        raise MissingGroundTruth(f"{args.infile} has no truth column")
    labeling = _prediction_labeling(read_csv(args.pred), len(data), data)
    report = evaluate(data, labeling)
    sys.stdout.write(report.to_text())
    if args.report:
        manifest = RunManifest(
            command="eval",
            tool_version=__version__,
            dataset_hash=dataset_hash(data.dataset),
            params={"in": str(args.infile), "pred": str(args.pred)},
            report=report,
        )
        write_manifest(manifest, args.report)
    return 0


def _cmd_compare(args) -> int:
    spec = paper_scenario(args.scenario)
    seed = _resolve_seed(args.seed, spec.seed)
    spec = replace(spec, seed=seed)
    labeled = gen_scenario(spec)
    ds = labeled.dataset
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_dataset_csv(labeled, out / "dataset.csv")
    h = dataset_hash(ds)

    tuned = tune_eps_densest(labeled, min_pts=10)
    scan = run_dbscan(ds, DbscanParams(tuned, 10))
    write_csv(ds, scan, out / "dbscan.csv")
    render_svg(ds, scan, out / "dbscan.svg")
    scan_report = evaluate(labeled, scan)
    write_manifest(
        RunManifest(
            command="compare/dbscan",
            tool_version=__version__,
            dataset_hash=h,
            params={"scenario": args.scenario, "seed": seed, "eps": tuned, "min_pts": 10},
            report=scan_report,
        ),
        out / "dbscan_manifest.txt",
    )

    aparams = AdbscanParams(k=len(spec.blobs))
    result = run_adbscan(ds, aparams)
    write_csv(ds, result, out / "adbscan.csv")
    render_svg(ds, result, out / "adbscan.svg")
    result_report = evaluate(labeled, result)
    arec = _adbscan_param_record(aparams)
    arec["scenario"] = args.scenario
    arec["seed"] = seed
    write_manifest(
        RunManifest(
            command="compare/adbscan",
            tool_version=__version__,
            dataset_hash=h,
            params=arec,
            trace=result.trace,
            stop_reason=result.stop_reason,
            report=result_report,
        ),
        out / "adbscan_manifest.txt",
    )

    print(
        f"dbscan: eps={tuned!r} min_pts=10 -> {scan_report.num_clusters_found} clusters, "
        f"ari={scan_report.ari!r}"
    )
    print(
        f"adbscan: k={aparams.k} defaults -> {result_report.num_clusters_found} clusters, "
        f"ari={result_report.ari!r}"
    )
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="varden",
        description="Density-based clustering with an adaptive parameter schedule.",
    )
    parser.add_argument("--version", action="version", version=f"varden {__version__}")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("gen", help="generate a synthetic scenario as CSV")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--scenario", choices=SCENARIO_NAMES, help="built-in scenario name")
    src.add_argument("--spec", help="scenario spec file (key-value format)")
    p.add_argument("--seed", type=int, help="override the spec's seed")
    p.add_argument("--out", required=True, help="output CSV (x,y,label)")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("dbscan", help="one density scan at fixed parameters")
    p.add_argument("--in", dest="infile", required=True, help="input CSV")
    p.add_argument("--eps", type=float, default=0.5, help="neighborhood radius (default 0.5)")
    p.add_argument("--min-pts", type=int, default=10, help="density threshold (default 10)")
    p.add_argument("--out", required=True, help="output CSV (x,y,cluster,class)")
    p.add_argument("--svg", help="also render a scatter SVG here")
    p.set_defaults(func=_cmd_dbscan)

    p = sub.add_parser("adbscan", help="adaptive escalation run")
    p.add_argument("--in", dest="infile", required=True, help="input CSV")
    p.add_argument("--k", type=int, required=True, help="number of clusters to find")
    p.add_argument("--eps0", type=float, default=0.5, help="starting eps (default 0.5)")
    p.add_argument("--min-pts0", type=float, default=10, help="starting min_pts (default 10)")
    p.add_argument("--step", type=float, default=0.5, help="escalation per iteration (default 0.5)")
    p.add_argument("--accept", type=float, default=0.10, help="acceptance fraction (default 0.10)")
    p.add_argument("--residual", type=float, default=0.05, help="stop remainder (default 0.05)")
    p.add_argument("--eps-cap", type=float, default=None, help="stop once eps exceeds this")
    p.add_argument("--max-iters", type=int, default=100, help="iteration budget (default 100)")
    p.add_argument("--out", required=True, help="output CSV (x,y,cluster,class)")
    p.add_argument("--svg", help="also render a scatter SVG here")
    p.add_argument("--trace", help="write a run manifest with the iteration trace here")
    p.set_defaults(func=_cmd_adbscan)

    p = sub.add_parser("eval", help="score a prediction against ground truth")
    p.add_argument("--in", dest="infile", required=True, help="dataset CSV with truth column")
    p.add_argument("--pred", required=True, help="prediction CSV (cluster column)")
    p.add_argument("--report", help="write a run manifest with the report here")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("compare", help="run both algorithms on one scenario")
    p.add_argument("--scenario", choices=SCENARIO_NAMES, required=True)
    p.add_argument("--seed", type=int, help="override the scenario seed")
    p.add_argument("--out-dir", dest="out_dir", required=True, help="directory for all outputs")
    p.set_defaults(func=_cmd_compare)
    return parser


def cli_main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except VardenError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_main(sys.argv[1:]))
