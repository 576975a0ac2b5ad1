"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload soak-serial --seed 1 --seconds 25 --trace 0

Prints a header (commit, CPU count, Python/NumPy, BLAS and its thread
count, seed, workload parameters), a metric table with units, better
direction and sample counts, the correctness checks and, with
``--trace 1``, the per-layer self-time table.  The last line is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` — the
end-to-end metrics untraced, the per-layer metrics traced.  Exits 1 when
a correctness check fails, 2 when the program under test cannot be
imported.  ``--out FILE`` also stores the full record; ``--show FILE``
prints a stored record again.
"""

import os

# Pin BLAS before NumPy loads; spawned workers inherit the environment.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: The end-to-end metrics on the last line of an untraced run (the
#: ``end_to_end`` list of BENCHMARK.json).  The rest are printed in the
#: table only: error_rate is 0 on a passing run, alert_precision exists on
#: soak-serial alone, and query_ms_p50 on federated-process spreads across
#: seeds by about its whole regression bound (see README.md).
END_TO_END = (
    "setup_s", "chunk_ms_p50", "chunk_ms_p90", "chunk_ms_tail", "readings_per_s",
    "query_ms_p90", "peak_rss_mb", "recon_rel_err",
)

WORKLOAD_NAMES = ("soak-serial", "federated-process", "analyst-queries")


def per_layer_units() -> dict[str, str]:
    """Name -> unit of every per-layer metric (the ``per_layer`` list)."""
    from perfbench.tracing import COUNTERS, LAYER_NAMES, UNATTRIBUTED

    units: dict[str, str] = {}
    for name in LAYER_NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.ms"] = "ms"
        if not name.startswith("service."):
            units[f"{name}.self_ms"] = "ms"
    units[f"{UNATTRIBUTED}.self_ms"] = "ms"
    for name in COUNTERS:
        units[name] = "B" if name.startswith("checkpoint.bytes") else "count"
    for name in ("pipeline.recon_cache.hit_ratio", "checkpoint.reuse_ratio",
                 "trace.overhead"):
        units[name] = "ratio"
    return units


def result_line(record: dict, trace: bool) -> dict:
    """The summary object printed as the last line of a run."""
    metrics = {}
    if trace and "layers" in record:
        flat = dict(record["counters"])
        for layer, row in record["layers"].items():
            for key, value in row.items():
                flat[f"{layer}.{key}"] = value
        for name, unit in per_layer_units().items():
            metrics[name] = {"value": flat[name], "unit": unit}
    elif not trace:
        for name in END_TO_END:
            row = record["metrics"].get(name)
            if row is not None and row["value"] is not None:
                metrics[name] = {"value": row["value"], "unit": row["unit"]}
    return {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }


def stop_helper_processes() -> None:
    """Stop every process this run started and wait for each to end.

    The workloads close their executors, which join the shard workers;
    this also catches workers left behind by a failed close and stops
    multiprocessing's resource tracker, which the process backend's
    shared-memory transport starts and which otherwise outlives the run
    until it notices its parent has gone.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.terminate()
        child.join(timeout=5.0)
        if child.is_alive():
            child.kill()
            child.join()
    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_pid", None) is not None:  # started by this process
        tracker._stop()


def main(argv=None) -> int:
    # A termination request unwinds like an error, so the workload closes
    # its executors and the helpers below are stopped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        return _main(argv)
    finally:
        stop_helper_processes()


def _main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the full result record here")
    parser.add_argument("--show", help="print a stored result record and exit")
    args = parser.parse_args(argv)

    # The checkout root, not this directory, goes first on the path.
    sys.path[0:1] = [os.path.join(ROOT, "src"), ROOT]
    try:
        from perfbench import report, workloads
    except ImportError as exc:
        print(f"perfbench: cannot import the program under test: {exc}",
              file=sys.stderr)
        return 2

    if args.show:
        with open(args.show, encoding="utf-8") as handle:
            report.render(report.load_result(handle.read()))
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    workload = workloads.WORKLOADS[args.workload]
    header = report.run_header(
        ROOT, seed=args.seed, workload=workload.name,
        params=workload.params(args.seconds), trace=bool(args.trace),
        seconds=args.seconds,
    )
    work_root = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(work_root, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=work_root)
    try:
        body = workloads.run_workload(
            workload, args.seed, args.seconds, trace=bool(args.trace), workdir=workdir
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(work_root)
        except OSError:
            pass  # another run still uses it

    threads = header["blas"]["threads"]
    body["checks"]["blas_single_thread"] = threads in (None, 1)
    record = {"header": header, **body}
    record["correct"] = all(body["checks"].values()) and body["failed"] == 0
    report.render(record)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=2)
    print(json.dumps(result_line(record, bool(args.trace))))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
