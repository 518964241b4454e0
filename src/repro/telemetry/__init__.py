"""First-class observability: metrics, trace spans, exporters.

``repro.telemetry`` is the one place in the library allowed to touch
the monotonic clock directly (the ``telemetry-clock`` lint rule).  It
depends on nothing else in ``repro``, so every layer — core, parallel,
distributed, resilience, device — can instrument itself without
layering cycles.

Disabled (the default) the hooks are single-bool no-ops; enabled (via
``PicassoParams(telemetry=True)`` or the CLI ``--trace-json`` /
``--metrics-out`` flags) each process accumulates
into a local registry and worker/agent deltas are merged into the
dispatcher's view on the existing finalize channels.  See
:mod:`repro.telemetry.core` for the model and
:mod:`repro.telemetry.export` for the exporter formats.
"""

from repro.telemetry.core import (
    Registry,
    absorb_snapshots,
    clock,
    combine_agent_snapshot,
    count,
    drain_worker_snapshot,
    enable,
    enabled,
    gauge_max,
    is_snapshot,
    is_worker_process,
    mark_worker_process,
    observe,
    registry,
    reset,
    snapshot,
    span,
)
from repro.telemetry.export import (
    prometheus_lines,
    trace_lines,
    write_prometheus,
    write_trace_jsonl,
)

__all__ = [
    "Registry",
    "absorb_snapshots",
    "clock",
    "combine_agent_snapshot",
    "count",
    "drain_worker_snapshot",
    "enable",
    "enabled",
    "gauge_max",
    "is_snapshot",
    "is_worker_process",
    "mark_worker_process",
    "observe",
    "registry",
    "reset",
    "snapshot",
    "span",
    "prometheus_lines",
    "trace_lines",
    "write_prometheus",
    "write_trace_jsonl",
]
