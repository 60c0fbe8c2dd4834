"""The public API in varden.__all__ is an output: a name may not drop out of it unnoticed.
Nor may a name that the benchmark's span tracer wraps."""
import importlib
import importlib.util
from pathlib import Path

import varden

PUBLIC = [
    "AdaptiveResult",
    "AdbscanParams",
    "BlobSpec",
    "DataError",
    "Dataset",
    "DbscanParams",
    "EvalReport",
    "LabeledDataset",
    "Labeling",
    "NOISE",
    "PALETTE",
    "ParamError",
    "Point",
    "PointClass",
    "RunManifest",
    "SCENARIO_NAMES",
    "ScenarioSpec",
    "VardenError",
    "accept_cluster",
    "adjusted_rand_index",
    "build_index",
    "classify_point",
    "dataset_diameter",
    "dataset_hash",
    "evaluate",
    "format_manifest",
    "format_scenario",
    "gen_scenario",
    "is_density_connected",
    "is_density_reachable",
    "is_directly_density_reachable",
    "paper_scenario",
    "parse_manifest",
    "parse_scenario",
    "read_csv",
    "region_query",
    "region_query_naive",
    "remove_cluster",
    "run_adbscan",
    "run_dbscan",
    "step_params",
    "validate_dataset",
    "validate_labeling",
    "write_csv",
    "write_dataset_csv",
    "write_manifest",
]


def test_all_is_pinned():
    assert sorted(varden.__all__) == PUBLIC


def test_every_public_name_resolves():
    for name in varden.__all__:
        assert getattr(varden, name) is not None, name


def test_benchmark_tracer_targets_resolve():
    # perfbench/spans.py skips a target it cannot find, and its metrics then read 0
    spec = importlib.util.spec_from_file_location("spans", Path(__file__).resolve().parents[1] / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for module, attr, *_ in spans.TARGETS:
        assert callable(getattr(importlib.import_module(module), attr, None)), f"{module}.{attr}"
