import pytest

import varden.adbscan
import varden.cli
import varden.dbscan

import spans


def _recorder(events):
    """A recorder whose clock returns the given times in order."""
    times = iter(events)
    return spans.Recorder(clock=lambda: next(times))


def test_covered_merges_overlaps_and_clips():
    assert spans.covered([], 0.0, 10.0) == 0.0
    assert spans.covered([(1.0, 3.0), (2.0, 5.0), (7.0, 8.0)], 0.0, 10.0) == 5.0
    assert spans.covered([(-2.0, 1.0), (9.0, 12.0)], 0.0, 10.0) == 2.0
    assert spans.covered([(4.0, 6.0), (1.0, 2.0), (4.5, 5.0)], 0.0, 10.0) == 3.0


def test_self_time_subtracts_children_but_not_grandchildren():
    rec = _recorder([0.0, 1.0, 2.0, 3.0, 4.0, 6.0, 7.0, 10.0])
    root = rec.begin("root")        # 0 .. 10
    a = rec.begin("a")              # 1 .. 4
    grandchild = rec.begin("g")     # 2 .. 3
    rec.end(grandchild)
    rec.end(a)
    b = rec.begin("b")              # 6 .. 7
    rec.end(b)
    rec.end(root)
    assert [s.parent for s in rec.spans] == [-1, 0, 1, 0]
    assert spans.self_times(rec.spans) == [6.0, 2.0, 1.0, 1.0]


def test_layer_metrics_attribute_probes_and_adaptive_scans():
    rec = _recorder([float(t) for t in range(12)])
    root = rec.begin("cli.cli_main")
    tune = rec.begin("cli.tune_eps_densest")
    for _ in range(2):
        probe = rec.begin("dbscan.run_dbscan")
        query = rec.begin("neighborhood.region_query")
        rec.end(query)
        query.counts = {"hits": 4}
        rec.end(probe)
        probe.counts = {"points": 3, "core": 1, "clusters": 1}
    rec.end(tune)
    rec.end(root)
    m = spans.layer_metrics(rec.spans)
    assert m["cli.tune_eps_densest.probes"] == 2
    assert m["dbscan.run_dbscan.calls"] == 2
    assert m["dbscan.run_dbscan.s"] == 6.0
    assert m["dbscan.run_dbscan.self_s"] == 4.0
    assert m["cli.tune_eps_densest.self_s"] == 3.0
    assert m["cli.self_s"] == 2.0
    assert m["neighborhood.region_query.hits"] == 8
    assert m["dbscan.hits_per_point"] == 4.0
    assert m["adbscan.points_scanned"] == 0
    assert m["adbscan.accept_ratio"] == 0.0


def _bindings():
    return [getattr(__import__(mod, fromlist=[attr]), attr) for mod, attr, _, _ in spans.TARGETS]


def test_installed_wraps_every_target_and_restores_it():
    before = _bindings()
    rec = spans.Recorder()
    with spans.installed(rec):
        during = _bindings()
        assert all(d is not b and d.__wrapped__ is b for d, b in zip(during, before))
        assert varden.cli.run_dbscan is not varden.adbscan.run_dbscan
    assert all(a is b for a, b in zip(_bindings(), before))
    assert varden.dbscan.region_query is varden.neighborhood.region_query


def test_installed_restores_after_an_exception():
    before = _bindings()
    with pytest.raises(RuntimeError):
        with spans.installed(spans.Recorder()):
            raise RuntimeError("boom")
    assert all(a is b for a, b in zip(_bindings(), before))


def test_installed_skips_missing_targets():
    targets = spans.TARGETS + (("varden.cli", "no_such_function", "cli.none", None),)
    with spans.installed(spans.Recorder(), targets):
        assert not hasattr(varden.cli, "no_such_function")
    assert not hasattr(varden.cli, "no_such_function")


def test_traced_cli_run_records_nested_spans(tmp_path):
    rec = spans.Recorder()
    with spans.installed(rec):
        assert varden.cli.cli_main(["compare", "--scenario", "two_equal", "--out-dir", str(tmp_path)]) == 0
    m = spans.layer_metrics(rec.spans)
    assert rec.spans[0].name == "cli.cli_main"
    assert m["cli.tune_eps_densest.probes"] >= 1
    assert m["adbscan.iterations"] >= 1
    assert m["adbscan.points_scanned"] >= m["synthgen.points"] == 630
    assert m["dataio.bytes_written"] > 0 and m["render.bytes"] > 0
    assert 0.0 <= m["dbscan.run_dbscan.self_s"] <= m["dbscan.run_dbscan.s"]
