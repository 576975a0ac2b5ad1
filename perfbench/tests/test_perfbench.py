"""Tests of the benchmark itself (run: ``python -m pytest perfbench/tests``)."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace
from types import SimpleNamespace

import pytest

from perfbench import checks, report, run, tracing, workloads
from perfbench.tracing import Span, Tracer, layer_table, self_times

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

#: Tiny shapes of the three workloads: same code paths, seconds to run.
TINY = {
    "soak-serial": dict(racks=4, nodes_per_rack=16, initial=240, chunk=80,
                        read_every=2, setups=2),
    "federated-process": dict(racks=2, nodes_per_rack=8, initial=120, chunk=20,
                              read_every=2, setups=1, checkpoint_every=2),
    "analyst-queries": dict(racks=2, nodes_per_rack=16, initial=600, chunk=100,
                            setups=2),
}
TINY_ROUNDS = {"soak-serial": 4, "federated-process": 3, "analyst-queries": 3}


def tiny(name: str, **overrides) -> workloads.Workload:
    return replace(workloads.WORKLOADS[name], **{**TINY[name], **overrides})


def run_tiny(name: str, tmp_path, *, trace=False, seed=3, **overrides) -> dict:
    return workloads.run_workload(
        tiny(name, **overrides), seed, 1, trace=trace, workdir=str(tmp_path),
        rounds=TINY_ROUNDS[name],
    )


# --------------------------------------------------------------------------- #
# Smoke runs
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_run_reports_every_metric_and_passes_checks(name, tmp_path):
    record = run_tiny(name, tmp_path)
    assert record["failed"] == 0 and record["attempted"] > TINY_ROUNDS[name]
    assert all(record["checks"].values()), record["checks"]
    for metric in run.END_TO_END:
        row = record["metrics"][metric]
        assert row["value"] is not None and row["value"] > 0, metric
        assert row["samples"] >= 1
    assert record["metrics"]["error_rate"]["value"] == 0.0
    assert os.listdir(tmp_path) == []  # checkpoint scratch removed


def test_traced_run_covers_every_layer_row(tmp_path):
    record = run_tiny("soak-serial", tmp_path, trace=True)
    line = run.result_line({**record, "correct": True}, trace=True)
    assert set(line["metrics"]) == set(run.per_layer_units())
    layers = record["layers"]
    for name in ("service.round", "parallel.submit", "pipeline.fit_baseline",
                 "core.partial_fit", "core.reconstruction_error",
                 "core.tree_reconstruct", "baseline.fit", "alerts.evaluate",
                 "checkpoint.save"):
        assert layers[name]["calls"] > 0, name
    assert record["counters"]["core.tree_reconstruct.cols"] > 0
    assert record["counters"]["pipeline.fit_baseline.cols"] > 0


def test_tracer_restores_every_original():
    tracer = Tracer()
    before = [
        vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
        for owner, attr in (tracing._resolve(layer.target) for layer in tracer.layers)
    ]
    tracer.install()
    tracer.uninstall()
    after = [
        vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
        for owner, attr in (tracing._resolve(layer.target) for layer in tracer.layers)
    ]
    assert before == after


# --------------------------------------------------------------------------- #
# Self-time arithmetic
# --------------------------------------------------------------------------- #
def test_self_time_on_hand_built_tree():
    spans = [
        Span("service.round", 0.0, 10.0),            # 0: root
        Span("pipeline.ingest", 1.0, 5.0, parent=0),  # 1
        Span("core.partial_fit", 2.0, 4.0, parent=1),  # 2
        Span("pipeline.zscores", 6.0, 9.0, parent=0),  # 3
        Span("core.tree_reconstruct", 6.5, 8.0, parent=3),  # 4
        Span("service.round", 20.0, 21.0),           # 5: second root, leaf
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 2.0, 1.5, 1.5, 1.0])
    table = layer_table(spans)
    assert table["service.round"]["calls"] == 2
    assert table["service.round"]["ms"] == pytest.approx(11_000.0)
    # Service self time moves to the unattributed row.
    assert table["service.round"]["self_ms"] == 0.0
    assert table[tracing.UNATTRIBUTED]["self_ms"] == pytest.approx(4_000.0)
    total_self = sum(row["self_ms"] for row in table.values())
    assert total_self == pytest.approx(11_000.0)  # == sum of root durations


def test_self_time_clips_overlapping_children():
    spans = [
        Span("a", 0.0, 10.0),
        Span("b", 2.0, 6.0, parent=0),
        Span("c", 4.0, 8.0, parent=0),   # overlaps b (another thread)
        Span("d", 9.0, 12.0, parent=0),  # runs past the parent's end
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_nested_phase_of_same_layer_is_one_span():
    tracer = Tracer(layers=())
    outer = tracing.Layer("x:y", "core.partial_fit")
    inner = tracing.Layer("x:z", "core.partial_fit", count=False)
    tracer.call(outer, lambda: tracer.call(inner, lambda: 1, (), {}), (), {})
    assert len(tracer.spans) == 1 and tracer.spans[0].count


# --------------------------------------------------------------------------- #
# Correctness checks trip on wrong results
# --------------------------------------------------------------------------- #
def test_rack_values_check_trips():
    keys = {("m0", 0), ("m0", 1)}
    assert checks.rack_values_complete({("m0", 0): 0.5, ("m0", 1): -1.0}, keys)
    assert not checks.rack_values_complete({("m0", 0): 0.5}, keys)
    assert not checks.rack_values_complete({("m0", 0): 0.5, ("m0", 1): float("nan")}, keys)
    assert not checks.rack_values_complete(
        {("m0", 0): 0.5, ("m0", 1): 1.0, ("m0", 2): 1.0}, keys
    )


def test_restore_check_trips():
    live = {("m0", 0): 0.1 + 0.2, ("m0", 1): 1.0}
    assert checks.same_rack_values(live, dict(live))
    off_by_one_ulp = dict(live)
    off_by_one_ulp[("m0", 0)] = float.fromhex(live[("m0", 0)].hex()) + 5.6e-17
    assert off_by_one_ulp[("m0", 0)] != live[("m0", 0)]
    assert not checks.same_rack_values(live, off_by_one_ulp)
    assert not checks.same_rack_values(live, {("m0", 0): live[("m0", 0)]})

    def broken_restore():
        raise OSError("checkpoint missing")

    assert not checks.same_rack_values(live, broken_restore)


def test_anomaly_checks_trip():
    machine = workloads.WORKLOADS["soak-serial"].machine()
    rack1 = [n for n in range(machine.n_nodes) if machine.rack_of_node(n) == 1]
    rack0 = [n for n in range(machine.n_nodes) if machine.rack_of_node(n) == 0]

    def alert(node, step):
        return SimpleNamespace(node=node, step=step)

    good = [alert(rack1[0], 150), alert(rack0[0], 150), alert(None, 160)]
    assert checks.rack_alerted(good, machine, 1, onset=100)
    assert not checks.rack_alerted([alert(rack1[0], 50)], machine, 1, onset=100)
    assert not checks.rack_alerted([alert(rack0[0], 150)], machine, 1, onset=100)
    assert checks.alert_precision(good, rack1, onset=100) == pytest.approx(0.5)
    assert checks.alert_precision([alert(rack1[0], 50)], rack1, onset=100) == 0.0
    assert checks.alert_precision([alert(None, 150)], rack1, onset=100) is None


def test_wrong_restore_fails_the_run(tmp_path, monkeypatch):
    def skewed(self, root, window):
        return {key: value + 1e-12 for key, value in self.rack_map(window).items()}

    monkeypatch.setattr(workloads._Single, "restored_rack_map", skewed)
    record = run_tiny("analyst-queries", tmp_path)
    assert record["checks"]["checkpoint_restores_bit_for_bit"] is False


# --------------------------------------------------------------------------- #
# Backend equivalence
# --------------------------------------------------------------------------- #
def test_federated_process_equals_serial(tmp_path):
    process = run_tiny("federated-process", tmp_path, seed=5)
    serial = run_tiny("federated-process", tmp_path, seed=5, backend="serial")
    assert process["detail"]["output_digest"] == serial["detail"]["output_digest"]
    assert process["metrics"]["recon_rel_err"]["value"] == serial["metrics"]["recon_rel_err"]["value"]


# --------------------------------------------------------------------------- #
# Result schema and the command-line contract
# --------------------------------------------------------------------------- #
def _record(version):
    return json.dumps({"header": {"schema_version": version}, "metrics": {}})


def test_unknown_schema_versions_are_refused():
    assert report.load_result(_record(report.SCHEMA_VERSION))["header"]
    for version in (None, 0, report.SCHEMA_VERSION + 1, "1"):
        with pytest.raises(report.SchemaError):
            report.load_result(_record(version))
    with pytest.raises(report.SchemaError):
        report.load_result(json.dumps({"metrics": {}}))


def test_benchmark_json_matches_the_runner():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert set(run.WORKLOAD_NAMES) == set(workloads.WORKLOADS)
    assert any(m["name"] == "setup_s" for m in spec["end_to_end"])


def test_runner_stops_workers_and_the_resource_tracker():
    import multiprocessing
    import time
    from multiprocessing import resource_tracker

    resource_tracker.ensure_running()
    tracker_pid = resource_tracker._resource_tracker._pid
    child = multiprocessing.get_context("spawn").Process(target=time.sleep, args=(60,))
    child.start()
    run.stop_helper_processes()
    assert not child.is_alive() and multiprocessing.active_children() == []
    assert resource_tracker._resource_tracker._pid is None
    with pytest.raises(ChildProcessError):  # already waited for
        os.waitpid(tracker_pid, os.WNOHANG)
    run.stop_helper_processes()  # idempotent


def test_runner_refuses_a_checkout_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "soak-serial",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
