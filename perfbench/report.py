"""Result records: statistics, the run header, the versioned schema and
the printed tables."""

from __future__ import annotations

import ctypes
import json
import os
import platform
import resource
import sys

import numpy as np

__all__ = [
    "SCHEMA_VERSION",
    "SchemaError",
    "blas_info",
    "children_peak_kb",
    "git_sha",
    "load_result",
    "peak_rss_mb",
    "percentile",
    "render",
    "run_header",
]

#: Version of the result record written by ``run.py --out``.
SCHEMA_VERSION = 1


class SchemaError(ValueError):
    """A stored result this version of the benchmark cannot read."""


def percentile(samples, q: float) -> float:
    """Linear-interpolated percentile ``q`` in [0, 100] of ``samples``."""
    return float(np.percentile(np.asarray(samples, dtype=float), q))


# --------------------------------------------------------------------------- #
# Environment header
# --------------------------------------------------------------------------- #
def git_sha(root: str) -> str:
    """The checked-out commit, read from ``.git`` without running git;
    ``"unknown"`` outside a git work tree (e.g. an exported checkout)."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


_THREAD_QUERIES = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
    "MKL_Get_Max_Threads",
    "bli_thread_get_num_threads",
)


def blas_info() -> dict:
    """The BLAS library NumPy loaded and its live thread count.

    The thread count is asked of the library itself (``None`` when it
    exposes no known query); the caller asserts it is 1.
    """
    libs = set()
    with open("/proc/self/maps", encoding="utf-8") as handle:
        for line in handle:
            path = line.split()[-1]
            base = os.path.basename(path).lower()
            if base.endswith(".so") or ".so." in base:
                if any(key in base for key in ("openblas", "mkl_rt", "blis", "libblas")):
                    libs.add(path)
    info = {"library": None, "threads": None}
    try:
        config = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["library"] = f"{config.get('name')} {config.get('version')}"
    except (KeyError, TypeError):
        pass
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in _THREAD_QUERIES:
            query = getattr(lib, symbol, None)
            if query is not None:
                query.restype = ctypes.c_int
                info["threads"] = int(query())
                info["path"] = os.path.basename(path)
                return info
    return info


def run_header(root: str, *, seed: int, workload: str, params: dict,
               trace: bool, seconds: int) -> dict:
    blas = blas_info()
    return {
        "schema_version": SCHEMA_VERSION,
        "git_sha": git_sha(root),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "platform": platform.platform(),
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "workload": workload,
        "params": params,
    }


# --------------------------------------------------------------------------- #
# Memory
# --------------------------------------------------------------------------- #
def _child_pids() -> list[int]:
    me = os.getpid()
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="utf-8") as handle:
                stat = handle.read()
        except OSError:
            continue
        # Field 4 (ppid) follows the parenthesised command name.
        fields = stat.rsplit(")", 1)[-1].split()
        if int(fields[1]) == me:
            pids.append(int(entry))
    return pids


def _hwm_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def peak_rss_mb(worker_kb: int = 0) -> float:
    """Peak resident MiB of this process plus ``worker_kb`` sampled from
    its live children (see :func:`children_peak_kb`)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return (own + worker_kb) / 1024.0


def children_peak_kb() -> int:
    """Sum of the peak resident KiB of this process's live children."""
    return sum(_hwm_kb(pid) for pid in _child_pids())


# --------------------------------------------------------------------------- #
# Stored results
# --------------------------------------------------------------------------- #
def load_result(text: str) -> dict:
    """Parse a stored result record, refusing versions this code does
    not know (their metric definitions may differ)."""
    record = json.loads(text)
    if not isinstance(record, dict) or "header" not in record:
        raise SchemaError("not a benchmark result record (no header)")
    version = record["header"].get("schema_version")
    if version != SCHEMA_VERSION:
        raise SchemaError(
            f"result schema version {version!r} is not supported "
            f"(this benchmark reads version {SCHEMA_VERSION})"
        )
    return record


def _share(part: float, total: float) -> float:
    return 100.0 * part / total if total else 0.0


def render(record: dict, out=sys.stdout) -> None:
    """Print a record's header, metric table and (if traced) layer table."""
    header = record["header"]
    print(f"# perfbench {header['workload']}  seed={header['seed']}  "
          f"trace={int(header['trace'])}  sha={header['git_sha'][:12]}  "
          f"nproc={header['nproc']}  python={header['python']}  "
          f"numpy={header['numpy']}  blas={header['blas'].get('library')} "
          f"threads={header['blas'].get('threads')}", file=out)
    print(f"# params {json.dumps(header['params'], sort_keys=True)}", file=out)
    print(f"{'metric':<24}{'value':>14}  {'unit':<8}{'better':<8}{'samples':>8}",
          file=out)
    for name, row in record["metrics"].items():
        value = row["value"]
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"{name:<24}{shown:>14}  {row['unit']:<8}{row['better']:<8}"
              f"{row['samples']:>8}", file=out)
    for name, value in record.get("detail", {}).items():
        print(f"detail {name:<30}{value}", file=out)
    for check, ok in record["checks"].items():
        print(f"check {check:<40}{'ok' if ok else 'FAILED'}", file=out)
    layers = record.get("layers")
    if layers:
        # Self times partition the root calls' time, so their sum is the
        # denominator of both share columns.
        total = sum(row["self_ms"] for row in layers.values())
        print(f"{'layer':<28}{'calls':>8}{'ms':>12}{'ms%':>8}{'self_ms':>12}"
              f"{'self%':>8}", file=out)
        ordered = sorted(layers.items(), key=lambda item: -item[1]["self_ms"])
        for name, row in ordered:
            print(f"{name:<28}{row['calls']:>8.0f}{row['ms']:>12.1f}"
                  f"{_share(row['ms'], total):>7.1f}%{row['self_ms']:>12.1f}"
                  f"{_share(row['self_ms'], total):>7.1f}%", file=out)
        for name, value in record.get("counters", {}).items():
            print(f"{name:<28}{value:>20.6g}", file=out)
        for note in record.get("notes", ()):
            print(f"note: {note}", file=out)
