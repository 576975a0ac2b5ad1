"""The benchmark's three workloads and the closed-loop driver that runs them.

Each workload is a single-process, closed-loop client: it hands the
monitor its next chunk only after the previous call returned, exactly as
``ScenarioRunner`` does.  All telemetry, hardware logs, injected anomalies
and read windows are generated from the seed before any timer starts; the
program only ever receives the generated arrays.

The driver reaches ``repro`` through its public API only (``FleetMonitor``,
``FederatedMonitor``, ``save_checkpoint``/``save_federated_checkpoint``)
and always looks the checkpoint functions up on their modules at call
time, so the tracer's wrappers see every call.
"""

from __future__ import annotations

import hashlib
import shutil
import statistics
import tempfile
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from repro.core import MrDMDConfig
from repro.federation import FederatedMonitor
from repro.federation import checkpoint as federation_checkpoint
from repro.hwlog.generator import HardwareErrorModel
from repro.pipeline import PipelineConfig
from repro.service import FleetMonitor, RackSharding
from repro.service import checkpoint as service_checkpoint
from repro.service.alerts import AlertEngine, default_rules
from repro.telemetry import MachineDescription, TelemetryGenerator, xc40_sensor_suite
from repro.telemetry.anomalies import CoolingDegradation

from . import checks
from .report import children_peak_kb, peak_rss_mb, percentile
from .tracing import COUNTERS, Tracer, calls_under, layer_table

__all__ = ["WORKLOADS", "Workload", "run_workload"]

#: Width of the "recent" window: alert scoring and the rack view both use it.
RECENT = 200
#: Fewest streaming rounds a run makes, however short ``--seconds`` is.
MIN_ROUNDS = 4
#: Fewest rounds chunk_ms_tail takes its median over (short streams).
MIN_TAIL = 20
#: Historical windows per read pass.
HISTORY_READS = 4
#: The rack whose cooling degrades in ``soak-serial``.
ANOMALY_RACK = 1


@dataclass(frozen=True)
class Workload:
    """One named input set and how the client drives it.

    ``rounds_per_second`` turns ``--seconds`` into a round
    count (a fixed amount of work for a given ``--seconds``, so a faster
    program does not get a longer, costlier stream).  One pass of the read
    mix follows every ``read_every``-th round, so reads sample the whole
    run rather than one burst of it.
    """

    name: str
    why: str
    machines: int
    racks: int
    nodes_per_rack: int
    max_levels: int
    retain_data: str | None
    backend: str
    initial: int
    chunk: int
    rounds_per_second: float
    alerts: bool
    checkpoint_every: int | None
    anomaly: bool = False
    read_every: int = 1
    setups: int = 5

    def rounds(self, seconds: float) -> int:
        return max(MIN_ROUNDS, int(round(self.rounds_per_second * seconds)))

    def machine(self) -> MachineDescription:
        slots = min(4, self.nodes_per_rack // 4)
        return MachineDescription(
            name="xc40",
            n_rows=1,
            racks_per_row=self.racks,
            cabinets_per_rack=self.nodes_per_rack // (slots * 4),
            slots_per_cabinet=slots,
            blades_per_slot=1,
            nodes_per_blade=4,
            sensors=xc40_sensor_suite(),
            dt_seconds=15.0,
        )

    def config(self) -> PipelineConfig:
        # The scenario catalog's config: the baseline band brackets the
        # generator's quiet operating point so anomalies land outside it.
        return PipelineConfig(
            mrdmd=MrDMDConfig(max_levels=self.max_levels),
            baseline_range=(40.0, 75.0),
            power_quantile=0.0,
            retain_data=self.retain_data,
        )

    def params(self, seconds: float) -> dict:
        out = asdict(self)
        out.pop("why")
        out["rounds"] = self.rounds(seconds)
        out["nodes_per_machine"] = self.racks * self.nodes_per_rack
        out["retention"] = self.config().effective_retention
        return out


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="soak-serial",
            why=(
                "the path every CLI scenario runs: serial shards, full "
                "retention, alerts and periodic async delta checkpoints; "
                "per-chunk cost grows with stream length"
            ),
            machines=1, racks=4, nodes_per_rack=32, max_levels=4,
            retain_data=None, backend="serial", initial=400, chunk=100,
            rounds_per_second=4.0, alerts=True, checkpoint_every=10,
            anomaly=True, read_every=4,
        ),
        Workload(
            name="federated-process",
            why=(
                "the only workload that crosses process boundaries: small "
                "rounds over two process-resident machines make dispatch, "
                "transport, merge and routing a large share"
            ),
            machines=2, racks=8, nodes_per_rack=8, max_levels=4,
            retain_data="window", backend="process", initial=200, chunk=20,
            rounds_per_second=4.0, alerts=True, checkpoint_every=10,
            read_every=4, setups=3,
        ),
        Workload(
            name="analyst-queries",
            why=(
                "interactive rack views and spectra beside a live ingest: "
                "reads dominate, so reconstruction caching and windowed "
                "reconstruct show here"
            ),
            machines=1, racks=8, nodes_per_rack=32, max_levels=5,
            retain_data="none", backend="serial", initial=2000, chunk=200,
            rounds_per_second=1.8, alerts=False, checkpoint_every=None,
        ),
    )
}


# --------------------------------------------------------------------------- #
# Inputs (generated before any timer starts)
# --------------------------------------------------------------------------- #
@dataclass
class Inputs:
    machine: MachineDescription
    streams: dict           # machine name -> TelemetryStream
    hwlogs: dict            # machine name -> HardwareLog (empty without alerts)
    total: int              # snapshots per machine
    onset: int | None       # anomaly start (snapshot index)
    anomaly_nodes: tuple
    # Per read pass: [(kind, window)], kind in recent/history/spectrum.
    read_plan: list = field(default_factory=list)


def _read_pass(step: int, windows) -> list[tuple]:
    """The analyst's read mix at timeline position ``step``; ``windows``
    holds one (width, position fraction) pair per historical read."""
    recent = (step - RECENT, step)
    reads = [("recent", recent)]
    for width, fraction in windows:
        width = min(int(width), step - 1)
        lo = int(fraction * (step - width))
        reads.append(("history", (lo, lo + width)))
    reads += [("recent", recent), ("spectrum", None)]
    return reads


def _history_windows(rng: np.random.Generator) -> np.ndarray:
    """One pass's (width, position fraction) pairs, stratified: one width
    from each quarter of [100, 2000) and one position from each quarter
    of the timeline, paired at random.  Every pass, whatever the seed,
    then reads a short, a medium and two long windows spread over young
    and old data (a window's cost depends on both: older positions
    overlap more level-1 nodes)."""
    def stratified() -> np.ndarray:
        return (rng.permutation(HISTORY_READS) + rng.random(HISTORY_READS)) / HISTORY_READS

    return np.column_stack([100 + (1900 * stratified()).astype(int), stratified()])


def make_inputs(workload: Workload, seed: int, rounds: int) -> Inputs:
    machine = workload.machine()
    total = workload.initial + rounds * workload.chunk
    onset = None
    anomaly_nodes: tuple = ()
    anomalies = []
    if workload.anomaly:
        onset = workload.initial + (rounds // 2) * workload.chunk
        anomaly_nodes = tuple(
            n for n in range(machine.n_nodes) if machine.rack_of_node(n) == ANOMALY_RACK
        )
        anomalies.append(CoolingDegradation(
            node_indices=anomaly_nodes, start=onset, rate_per_hour=18.0,
            dt_seconds=machine.dt_seconds, label="rack cooling failure",
        ))
    streams, hwlogs = {}, {}
    for index in range(workload.machines):
        name = f"m{index}"
        machine_seed = seed * 1009 + 31 * index
        streams[name] = TelemetryGenerator(
            machine, seed=machine_seed, utilization_target=0.3
        ).generate(total, sensors=["cpu_temp"], anomalies=anomalies)
        if workload.alerts:
            hwlogs[name] = HardwareErrorModel(
                n_nodes=machine.n_nodes, seed=machine_seed + 1
            ).generate(total, hot_nodes=list(anomaly_nodes[:4]))
    inputs = Inputs(machine, streams, hwlogs, total, onset, anomaly_nodes)
    rng = np.random.default_rng(seed)
    ends = [
        workload.initial + r * workload.chunk
        for r in range(workload.read_every, rounds + 1, workload.read_every)
    ]
    inputs.read_plan = [_read_pass(end, _history_windows(rng)) for end in ends]
    return inputs


# --------------------------------------------------------------------------- #
# The system under test, behind one small adapter per topology
# --------------------------------------------------------------------------- #
class _System:
    """What the driver needs of the monitor under test; one subclass per
    topology (one machine, or several behind a federation)."""

    def __init__(self, inputs: Inputs) -> None:
        self.values = {name: s.values for name, s in inputs.streams.items()}
        self.hwlogs = inputs.hwlogs

    def flush(self) -> None:
        self.monitor.flush_checkpoints()

    def read(self, kind: str, window) -> object:
        if kind == "spectrum":
            return self.monitor.fleet_spectrum()
        return self.monitor.rack_values(time_range=window)

    def rack_map(self, window) -> dict:
        """``{(machine, node): z}`` over ``window``."""
        return self._flat(self.monitor.rack_values(time_range=window))

    def restored_rack_map(self, root: str, window) -> dict:
        """The same, from a monitor restored from the newest checkpoint."""
        restored = self._load(root)
        try:
            return self._flat(restored.rack_values(time_range=window))
        finally:
            self._close(restored)

    def close(self) -> None:
        self._close(self.monitor)

    def shard_models(self):
        """(model, raw rows it saw) per shard; call after close()."""
        for name, monitor in self._machines().items():
            for spec in monitor.shards:
                rows = spec.take(self.values[name][:, : monitor.step])
                yield monitor.pipeline(spec.shard_id).model, rows


class _Single(_System):
    """One machine: a FleetMonitor over rack shards."""

    def __init__(self, workload: Workload, inputs: Inputs) -> None:
        super().__init__(inputs)
        engine = (
            AlertEngine(rules=default_rules(), cooldown=120) if workload.alerts else None
        )
        self.monitor = FleetMonitor.from_stream(
            inputs.streams["m0"], policy=RackSharding(), config=workload.config(),
            alert_engine=engine, executor=workload.backend,
        )

    def initial(self, width: int) -> None:
        self.monitor.ingest(self.values["m0"][:, :width])

    def ingest(self, lo: int, hi: int) -> list:
        chunk = self.values["m0"][:, lo:hi]
        if self.monitor.alert_engine is None:
            self.monitor.ingest(chunk)
            return []
        return self.monitor.ingest_and_alert(chunk, hwlog=self.hwlogs["m0"])[1]

    def save(self, root: str) -> None:
        service_checkpoint.save_checkpoint(
            root, self.monitor, keep_last=2, format="delta", mode="async"
        )

    @staticmethod
    def _flat(values: dict) -> dict:
        return {("m0", node): z for node, z in values.items()}

    @staticmethod
    def _load(root: str):
        return service_checkpoint.load_checkpoint(root, rules=default_rules())

    @staticmethod
    def _close(monitor) -> None:
        monitor.close()

    def _machines(self) -> dict:
        return {"m0": self.monitor}


class _Federated(_System):
    """Several machines behind a FederatedMonitor."""

    def __init__(self, workload: Workload, inputs: Inputs) -> None:
        super().__init__(inputs)
        machines = {
            name: FleetMonitor.from_stream(
                stream, policy=RackSharding(), config=workload.config(),
                alert_engine=AlertEngine(rules=default_rules(), cooldown=120),
            )
            for name, stream in inputs.streams.items()
        }
        self.monitor = FederatedMonitor(
            machines, executor=workload.backend, max_workers=min(2, len(machines)),
        )

    def initial(self, width: int) -> None:
        self.monitor.ingest({name: v[:, :width] for name, v in self.values.items()})

    def ingest(self, lo: int, hi: int) -> list:
        chunks = {name: values[:, lo:hi] for name, values in self.values.items()}
        return self.monitor.ingest_and_alert(chunks, hwlogs=self.hwlogs)[1]

    def save(self, root: str) -> None:
        federation_checkpoint.save_federated_checkpoint(
            root, self.monitor, keep_last=2, format="delta", mode="async"
        )

    @staticmethod
    def _flat(per_machine: dict) -> dict:
        return {
            (name, node): z
            for name, values in per_machine.items()
            for node, z in values.items()
        }

    @staticmethod
    def _load(root: str):
        return federation_checkpoint.load_federated_checkpoint(root, rules=default_rules())

    @staticmethod
    def _close(federated) -> None:
        federated.close()
        federated.registry.close()

    def _machines(self) -> dict:
        return self.monitor.registry.monitors()


def _build(workload: Workload, inputs: Inputs):
    return (_Federated if workload.machines > 1 else _Single)(workload, inputs)


# --------------------------------------------------------------------------- #
# The driver
# --------------------------------------------------------------------------- #
class OperationFailed(RuntimeError):
    """An operation of the workload raised; the run stops there."""


class _Clock:
    """Times operations; under a tracer, traces them in ABBA BAAB order
    (A = traced), which balances the two halves of the overhead
    comparison against a cost that grows along the stream and against
    the read-pass and checkpoint cadences."""

    def __init__(self, tracer: Tracer | None) -> None:
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.error: str | None = None

    def run(self, index: int, fn, *args):
        """Run one operation; returns (result, seconds, traced)."""
        traced = self.tracer is not None and index % 8 in (0, 3, 5, 6)
        self.attempted += 1
        if traced:
            self.tracer.install()
        try:
            start = time.perf_counter()
            result = fn(*args)
            elapsed = time.perf_counter() - start
        except Exception as exc:
            self.failed += 1
            self.error = f"{getattr(fn, '__name__', fn)}: {type(exc).__name__}: {exc}"
            raise OperationFailed(self.error) from exc
        finally:
            if traced:
                self.tracer.uninstall()
        return result, elapsed, traced


def _median(values) -> float | None:
    return float(statistics.median(values)) if values else None


def run_workload(
    workload: Workload,
    seed: int,
    seconds: float,
    *,
    trace: bool = False,
    workdir: str,
    rounds: int | None = None,
) -> dict:
    """Run one workload; returns the result record's body (no header).

    ``rounds`` overrides the round count derived from ``seconds`` (tests
    use tiny runs).  Every timed phase happens here; the correctness
    checks run afterwards, outside the timers.
    """
    rounds = workload.rounds(seconds) if rounds is None else rounds
    inputs = make_inputs(workload, seed, rounds)
    root = tempfile.mkdtemp(prefix="ckpt-", dir=workdir)
    tracer = Tracer() if trace else None
    clock = _Clock(tracer)
    chunk_s: list[float] = []
    chunk_traced: list[bool] = []
    query_s: list[float] = []
    query_traced: list[bool] = []
    query_kind: list[str] = []
    alerts: list = []
    setup_s: list[float] = []
    stream_wall = 0.0
    saved_step = None
    system = None
    detail: dict = {}
    try:
        # ---- set-up: build, initial fit, executor start (repeated) ---- #
        for _ in range(workload.setups):
            if system is not None:
                system.close()
            start = time.perf_counter()
            system = _build(workload, inputs)
            system.initial(workload.initial)
            setup_s.append(time.perf_counter() - start)

        def do_reads(plan) -> None:
            for kind, window in plan:
                _, elapsed, traced = clock.run(len(query_s), system.read, kind, window)
                query_s.append(elapsed)
                query_traced.append(traced)
                query_kind.append(kind)

        # ---- streaming phase ---------------------------------------- #
        stream_start = time.perf_counter()
        for r in range(rounds):
            lo = workload.initial + r * workload.chunk
            hi = lo + workload.chunk

            def one_round(lo=lo, hi=hi, r=r):
                fired = system.ingest(lo, hi)
                if workload.checkpoint_every and (r + 1) % workload.checkpoint_every == 0:
                    clock.attempted += 1  # the save is an operation of its own
                    system.save(root)
                return fired

            fired, elapsed, traced = clock.run(r, one_round)
            if workload.checkpoint_every and (r + 1) % workload.checkpoint_every == 0:
                saved_step = hi
            chunk_s.append(elapsed)
            chunk_traced.append(traced)
            alerts.extend(fired)
            if (r + 1) % workload.read_every == 0:
                do_reads(inputs.read_plan[(r + 1) // workload.read_every - 1])
        stream_wall = time.perf_counter() - stream_start

        # ---- durability barrier ------------------------------------- #
        # A final entry at the last step (async like the others: a sync
        # save would sweep the block store under an in-flight commit).
        if saved_step != inputs.total:
            clock.run(0, system.save, root)
        clock.run(0, system.flush)
        worker_kb = children_peak_kb()
    except BaseException as exc:
        # Stop worker processes and drop the scratch before reporting.
        if system is not None:
            system.close()
        shutil.rmtree(root, ignore_errors=True)
        if isinstance(exc, OperationFailed):
            return _failed_record(clock)
        raise

    # ---- correctness (outside every timer) --------------------------- #
    final = inputs.total
    window = (final - RECENT, final)
    live = system.rack_map(window)
    expected_nodes = {
        (name, node) for name in inputs.streams for node in range(inputs.machine.n_nodes)
    }
    check_results = {
        "rack_values_finite_and_complete": checks.rack_values_complete(live, expected_nodes),
        "checkpoint_restores_bit_for_bit": checks.same_rack_values(
            live, lambda: system.restored_rack_map(root, window)
        ),
    }
    precision = None
    if workload.anomaly:
        check_results["anomaly_rack_alerted_after_onset"] = checks.rack_alerted(
            alerts, inputs.machine, ANOMALY_RACK, inputs.onset
        )
        precision = checks.alert_precision(alerts, inputs.anomaly_nodes, inputs.onset)
    system.close()
    # (||X - X_hat||_F, ||X||_F) per shard.
    errors = [
        (model.reconstruction_error(rows), float(np.linalg.norm(rows)))
        for model, rows in system.shard_models()
    ]
    shutil.rmtree(root, ignore_errors=True)

    # ---- metrics ------------------------------------------------------ #
    n_read = len(inputs.streams) * inputs.machine.n_nodes * rounds * workload.chunk
    tail = chunk_s[-max(MIN_TAIL, len(chunk_s) // 10):]
    metrics = {
        "setup_s": _metric(_median(setup_s), "s", "lower", len(setup_s)),
        "chunk_ms_p50": _metric(_pct(chunk_s, 50), "ms", "lower", len(chunk_s)),
        "chunk_ms_p90": _metric(_pct(chunk_s, 90), "ms", "lower", len(chunk_s)),
        "chunk_ms_tail": _metric(_median(tail) * 1e3, "ms", "lower", len(tail)),
        "readings_per_s": _metric(n_read / stream_wall, "1/s", "higher", len(chunk_s)),
        "query_ms_p50": _metric(_pct(query_s, 50), "ms", "lower", len(query_s)),
        "query_ms_p90": _metric(_pct(query_s, 90), "ms", "lower", len(query_s)),
        "peak_rss_mb": _metric(peak_rss_mb(worker_kb), "MB", "lower", 1),
        "recon_rel_err": _metric(
            np.sqrt(sum(e * e for e, _ in errors) / sum(n * n for _, n in errors)),
            "ratio", "lower", len(errors),
        ),
        "alert_precision": _metric(
            precision, "ratio", "higher",
            sum(1 for a in alerts if a.node is not None),
        ),
        "error_rate": _metric(clock.failed / clock.attempted, "ratio", "lower",
                              clock.attempted),
    }
    detail["chunk_ms_first10"] = _median(chunk_s[:10]) * 1e3
    detail["chunk_ms_last10"] = _median(chunk_s[-10:]) * 1e3
    for kind in ("recent", "history", "spectrum"):
        samples = [s for s, k in zip(query_s, query_kind) if k == kind]
        if samples:
            detail[f"query_ms_{kind}_p50"] = _median(samples) * 1e3
    detail["recon_rel_err_max_shard"] = max(e / n for e, n in errors)
    detail["alerts"] = len(alerts)
    detail["output_digest"] = output_digest(live, alerts)
    record = {
        "metrics": metrics,
        "checks": check_results,
        "attempted": clock.attempted,
        "failed": clock.failed,
        "detail": detail,
    }
    if tracer is not None:
        record.update(_trace_record(workload, tracer, chunk_s, chunk_traced,
                                    query_s, query_traced))
    return record


def output_digest(rack_map: dict, alerts) -> str:
    """SHA-256 over the final rack values and the alert trail: equal
    digests mean bit-for-bit equal products (e.g. across backends)."""
    h = hashlib.sha256()
    for key in sorted(rack_map):
        h.update(f"{key}={float(rack_map[key]).hex()};".encode())
    for a in alerts:
        h.update(f"{a.rule}|{a.step}|{a.node}|{a.shard_id}|{a.machine};".encode())
    return h.hexdigest()


def _pct(samples, q) -> float | None:
    return percentile(samples, q) * 1e3 if samples else None


def _metric(value, unit: str, better: str, samples: int) -> dict:
    return {"value": None if value is None else float(value), "unit": unit,
            "better": better, "samples": int(samples)}


def _failed_record(clock: _Clock) -> dict:
    return {
        "metrics": {},
        "checks": {"all_operations_succeeded": False},
        "attempted": max(clock.attempted, 1),
        "failed": max(clock.failed, 1),
        "detail": {"error": clock.error},
    }


def _trace_record(workload, tracer, chunk_s, chunk_traced, query_s, query_traced) -> dict:
    """Per-layer rows plus derived ratios from the traced operations."""
    layers = layer_table(tracer.spans)
    counters = {name: tracer.counters.get(name, 0.0) for name in COUNTERS}
    # Cache lookups are the pipeline's reconstruction reads; a miss is a
    # tree expansion made directly under one of them.
    lookup_layers = {"pipeline.zscores", "pipeline.fit_baseline"}
    reconstructs = calls_under(tracer.spans, "core.tree_reconstruct", lookup_layers)
    lookups = sum(layers[name]["calls"] for name in lookup_layers)
    counters["pipeline.recon_cache.hit_ratio"] = (
        1.0 - reconstructs / lookups if lookups else 0.0
    )
    saved = counters["checkpoint.shards_saved"]
    counters["checkpoint.reuse_ratio"] = (
        counters["checkpoint.shards_reused"] / saved if saved else 0.0
    )
    # Overhead: traced vs untraced operations of the kind the workload is
    # about (rounds, or reads when every round reads: the analyst).
    if workload.read_every == 1:
        samples, flags = query_s, query_traced
    else:
        samples, flags = chunk_s, chunk_traced
    on = [s for s, t in zip(samples, flags) if t]
    off = [s for s, t in zip(samples, flags) if not t]
    counters["trace.overhead"] = (
        statistics.median(on) / statistics.median(off) - 1.0 if on and off else 0.0
    )
    notes = [
        "per-layer numbers cover the traced half of the operations "
        "(ABBA BAAB order); trace.overhead compares the two halves",
    ]
    if workload.backend == "process":
        notes.append(
            "process backend: worker-side layers (pipeline, core, baseline, alerts, "
            "worker checkpoint writes) run in other processes and appear only as "
            "parallel.wait"
        )
    return {"layers": layers, "counters": counters, "notes": notes}
