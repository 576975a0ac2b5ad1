"""Correctness checks on a workload's outputs.

Each check returns ``True`` when the output is right and ``False``
otherwise; a failing check makes ``run.py`` print ``"correct": false``
and exit non-zero.  They run after the timed phases.
"""

from __future__ import annotations

import math
from typing import Callable

__all__ = [
    "alert_precision",
    "rack_alerted",
    "rack_values_complete",
    "same_rack_values",
]


def rack_values_complete(values: dict, expected_keys: set) -> bool:
    """Every expected node has a value, and every value is finite."""
    return set(values) == set(expected_keys) and all(
        math.isfinite(z) for z in values.values()
    )


def same_rack_values(live: dict, restored: dict | Callable[[], dict]) -> bool:
    """The restored monitor's rack values equal the live ones bit-for-bit.

    ``restored`` may be a callable producing them, so a restore that
    raises counts as a failed check instead of aborting the run.
    """
    if callable(restored):
        try:
            restored = restored()
        except Exception:  # any failed restore is a wrong result here
            return False
    return set(live) == set(restored) and all(
        float(live[key]).hex() == float(restored[key]).hex() for key in live
    )


def _node_alerts(alerts, onset: int):
    return [a for a in alerts if a.node is not None and a.step >= onset]


def rack_alerted(alerts, machine, rack: int, onset: int) -> bool:
    """Some node of ``rack`` raised an alert at or after ``onset``."""
    return any(machine.rack_of_node(a.node) == rack for a in _node_alerts(alerts, onset))


def alert_precision(alerts, anomaly_nodes, onset: int) -> float | None:
    """Share of node alerts naming an injected-anomaly node at or after
    its onset (``None`` when no node alert fired at all)."""
    node_alerts = [a for a in alerts if a.node is not None]
    if not node_alerts:
        return None
    anomalous = set(int(n) for n in anomaly_nodes)
    hits = sum(1 for a in _node_alerts(node_alerts, onset) if int(a.node) in anomalous)
    return hits / len(node_alerts)
