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
from .adbscan import _tuned_scan, run_adbscan
from .dataio import (
    FileNotFound,
    RunManifest,
    _FormattedDataset,
    dataset_hash,
    read_csv,
    write_csv,
    write_dataset_csv,
    write_manifest,
)
from .dbscan import run_dbscan
from .metrics import EvalReport, LengthMismatch, MissingGroundTruth, evaluate
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
)
# Not called here: kept bound because perfbench's span tracer looks these names up on varden.cli.
from .adbscan import tune_eps_densest  # noqa: F401
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


def _write_run(ds, labeling, csv=None, svg=None, manifest=None, command="", params=None, h=None, **fields) -> None:
    """Write labeling's CSV to csv, its SVG to svg and a RunManifest to manifest, each when its path is given.

    fields are the manifest's optional fields (report, trace, stop_reason).
    h is ds's dataset_hash when the caller has it; otherwise it is computed
    here, and only when a manifest is written.
    """
    if csv:
        write_csv(ds, labeling, csv)
    if svg:
        render_svg(ds, labeling, svg)
    if manifest:
        h = dataset_hash(ds) if h is None else h
        write_manifest(RunManifest(command, __version__, h, params, **fields), manifest)


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
    _write_run(ds, labeling, args.out, args.svg)
    n_noise = int((labeling.labels == NOISE).sum())
    print(f"{labeling.n_clusters} clusters, {n_noise}/{len(ds)} noise points")
    return 0


# The adbscan manifest's params, in record order; a None value is left out.
_ADBSCAN_RECORD = (
    "k", "eps0", "min_pts0", "step", "accept_fraction", "residual_fraction", "max_iters",
    "eps_cap", "eps_step", "min_pts_step",
)


def _adbscan_param_record(params: AdbscanParams) -> dict:
    return {key: v for key in _ADBSCAN_RECORD if (v := getattr(params, key)) is not None}


def _cmd_adbscan(args) -> int:
    ds = _load_dataset(args.infile)
    params = AdbscanParams(**{key: getattr(args, key) for key in _ADBSCAN_RECORD if hasattr(args, key)})
    result = run_adbscan(ds, params)
    _write_run(
        ds, result, args.out, args.svg, args.trace, "adbscan", _adbscan_param_record(params),
        trace=result.trace, stop_reason=result.stop_reason,
    )
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
    return Labeling(labels, classes)


def _cmd_eval(args) -> int:
    data = read_csv(args.infile)
    if not isinstance(data, LabeledDataset):
        raise MissingGroundTruth(f"{args.infile} has no truth column")
    labeling = _prediction_labeling(read_csv(args.pred), len(data), data)
    report = evaluate(data, labeling)
    sys.stdout.write(report.to_text())
    params = {"in": str(args.infile), "pred": str(args.pred)}
    _write_run(data.dataset, labeling, manifest=args.report, command="eval", params=params, report=report)
    return 0


def _cmd_compare(args) -> int:
    spec = paper_scenario(args.scenario)
    seed = _resolve_seed(args.seed, spec.seed)
    spec = replace(spec, seed=seed)
    labeled = gen_scenario(spec)
    ds = _FormattedDataset(labeled.dataset.coords)  # every file below shares its coordinate text
    labeled = LabeledDataset(ds, labeled.truth)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_dataset_csv(labeled, out / "dataset.csv")
    h = dataset_hash(ds)

    def write_run(name: str, labeling: Labeling, params: dict, **fields) -> EvalReport:
        """Write name's CSV, SVG and manifest under out; return its evaluation."""
        report = evaluate(labeled, labeling)
        paths = (out / f"{name}.csv", out / f"{name}.svg", out / f"{name}_manifest.txt")
        _write_run(ds, labeling, *paths, f"compare/{name}", params, h, report=report, **fields)
        return report

    tuned, scan = _tuned_scan(labeled, 10)
    scan_report = write_run("dbscan", scan, {"scenario": args.scenario, "seed": seed, "eps": tuned, "min_pts": 10})
    aparams = AdbscanParams(k=len(spec.blobs))
    result = run_adbscan(ds, aparams)
    result_report = write_run(
        "adbscan",
        result,
        {**_adbscan_param_record(aparams), "scenario": args.scenario, "seed": seed},
        trace=result.trace,
        stop_reason=result.stop_reason,
    )

    for name, setting, report in (
        ("dbscan", f"eps={tuned!r} min_pts=10", scan_report),
        ("adbscan", f"k={aparams.k} defaults", result_report),
    ):
        print(f"{name}: {setting} -> {report.num_clusters_found} clusters, ari={report.ari!r}")
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
    # Left out, a flag keeps AdbscanParams' default; each dest is the field it sets.
    p.add_argument("--eps0", type=float, default=argparse.SUPPRESS, help="starting eps (default 0.5)")
    p.add_argument("--min-pts0", type=float, default=argparse.SUPPRESS, help="starting min_pts (default 10)")
    p.add_argument("--step", type=float, default=argparse.SUPPRESS, help="escalation per iteration (default 0.5)")
    p.add_argument(
        "--accept", dest="accept_fraction", metavar="ACCEPT", type=float, default=argparse.SUPPRESS,
        help="acceptance fraction (default 0.10)",
    )
    p.add_argument(
        "--residual", dest="residual_fraction", metavar="RESIDUAL", type=float, default=argparse.SUPPRESS,
        help="stop remainder (default 0.05)",
    )
    p.add_argument("--eps-cap", type=float, default=argparse.SUPPRESS, help="stop once eps exceeds this")
    p.add_argument("--max-iters", type=int, default=argparse.SUPPRESS, help="iteration budget (default 100)")
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
