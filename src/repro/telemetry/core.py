"""Process-local metrics registry, trace spans, and the telemetry clock.

This is the observability substrate for the whole executor stack: a
thread-safe registry of **counters**, **gauges** (max-merged),
**histograms** (count/sum/min/max) and **span** timers, with a
zero-cost disabled default — every instrumentation entry point checks
one module-level bool before touching the registry, so the default
(telemetry off) path costs a single global read per hook.

Cross-process collection is delta-based: pool workers and cluster
agents accumulate into their own process-local registry and ship the
accumulated delta back on the channels the executors already use (the
pool finalize broadcast, the distributed finalize RPC).  The
dispatcher absorbs each snapshot under a deterministic per-slot prefix
(``w0``, ``w1``, … for pool workers, ``s0``, ``s1``, … for cluster
shards — nested as ``s1:w0`` for hierarchical agents), so one run
produces one merged view regardless of how many processes it spanned.

Two invariants keep telemetry *neutral*:

- no instrumentation ever feeds a value back into the pipeline — the
  registry is write-only from the algorithm's point of view, so runs
  with telemetry on and off are bit-identical per seed;
- all timing goes through :func:`clock` (the wrapped monotonic
  ``time.perf_counter``), never the wall clock — enforced by the
  ``telemetry-clock`` reprolint rule, which makes this module the only
  place in the library allowed to touch ``time`` timers directly.
"""

from __future__ import annotations

import itertools
import threading
import time
from typing import Any

__all__ = [
    "clock",
    "enabled",
    "enable",
    "count",
    "gauge_max",
    "observe",
    "span",
    "snapshot",
    "reset",
    "drain_worker_snapshot",
    "absorb_snapshots",
    "combine_agent_snapshot",
    "mark_worker_process",
    "is_worker_process",
    "is_snapshot",
    "Registry",
]

#: Marker key identifying a registry snapshot dict on the wire, so
#: finalize-channel return values that are *not* telemetry (other
#: teardown returns, plain None) are skipped safely.
_MARKER = "__telemetry__"


def clock() -> float:
    """The one sanctioned monotonic clock (``time.perf_counter``).

    Every span/metric timing in the library goes through this wrapper
    so traces and phase buckets share a single clock source; the
    ``telemetry-clock`` lint rule bans direct ``time.perf_counter()``
    calls outside this package.
    """
    return time.perf_counter()


def _key(name: str, labels: dict[str, Any]) -> str:
    """Flat series key: ``name`` or ``name{k=v,...}`` with sorted labels."""
    if not labels:
        return name
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


def _empty_snapshot() -> dict[str, Any]:
    return {
        _MARKER: True,
        "counters": {},
        "gauges": {},
        "hists": {},
        "events": [],
        "ops": 0,
    }


def is_snapshot(obj: Any) -> bool:
    """Whether a finalize-channel return value is a telemetry snapshot."""
    return isinstance(obj, dict) and bool(obj.get(_MARKER))


def merge_snapshot(
    dst: dict[str, Any], src: dict[str, Any], prefix: str | None = None
) -> None:
    """Merge snapshot ``src`` into ``dst`` in place.

    Counters add, gauges keep the max, histograms combine their
    count/sum/min/max moments.  With a ``prefix``, span events are
    re-homed under it: the event's process label and its span/parent
    ids gain a ``prefix:`` namespace, which keeps ids collision-free
    and parent links intact when many processes merge into one view.
    """
    for k, v in src.get("counters", {}).items():
        dst["counters"][k] = dst["counters"].get(k, 0.0) + v
    for k, v in src.get("gauges", {}).items():
        old = dst["gauges"].get(k)
        dst["gauges"][k] = v if old is None else max(old, v)
    for k, h in src.get("hists", {}).items():
        agg = dst["hists"].get(k)
        if agg is None:
            dst["hists"][k] = dict(h)
        else:
            agg["count"] += h["count"]
            agg["sum"] += h["sum"]
            agg["min"] = min(agg["min"], h["min"])
            agg["max"] = max(agg["max"], h["max"])
    for ev in src.get("events", ()):
        if prefix is None:
            dst["events"].append(dict(ev))
            continue
        proc = ev.get("proc") or ""
        moved = dict(ev)
        moved["proc"] = prefix if not proc else f"{prefix}:{proc}"
        moved["id"] = f"{prefix}:{ev['id']}"
        if ev.get("parent") is not None:
            moved["parent"] = f"{prefix}:{ev['parent']}"
        dst["events"].append(moved)
    dst["ops"] += int(src.get("ops", 0))


class Registry:
    """One process's accumulated metrics and span events.

    All mutation happens under one lock; span nesting (parent ids) is
    tracked per thread so concurrent threads produce independent,
    correctly-parented span stacks.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._stacks = threading.local()
        self.counters: dict[str, float] = {}
        self.gauges: dict[str, float] = {}
        self.hists: dict[str, dict[str, float]] = {}
        self.events: list[dict[str, Any]] = []
        self.ops = 0

    # -- span-stack bookkeeping (per thread) ---------------------------
    def _stack(self) -> list[Any]:
        stack = getattr(self._stacks, "stack", None)
        if stack is None:
            stack = self._stacks.stack = []
        return stack

    # -- instrumentation -----------------------------------------------
    def count(self, name: str, value: float, labels: dict[str, Any]) -> None:
        key = _key(name, labels)
        with self._lock:
            self.counters[key] = self.counters.get(key, 0.0) + value
            self.ops += 1

    def gauge_max(self, name: str, value: float, labels: dict[str, Any]) -> None:
        key = _key(name, labels)
        with self._lock:
            old = self.gauges.get(key)
            self.gauges[key] = value if old is None else max(old, value)
            self.ops += 1

    def observe(self, name: str, value: float, labels: dict[str, Any]) -> None:
        key = _key(name, labels)
        with self._lock:
            agg = self.hists.get(key)
            if agg is None:
                self.hists[key] = {
                    "count": 1, "sum": value, "min": value, "max": value,
                }
            else:
                agg["count"] += 1
                agg["sum"] += value
                agg["min"] = min(agg["min"], value)
                agg["max"] = max(agg["max"], value)
            self.ops += 1

    def add_event(self, event: dict[str, Any]) -> None:
        with self._lock:
            self.events.append(event)
            self.ops += 1

    # -- collection ----------------------------------------------------
    def snapshot(self) -> dict[str, Any]:
        """A deep-enough copy of the accumulated state (wire-safe)."""
        with self._lock:
            return {
                _MARKER: True,
                "counters": dict(self.counters),
                "gauges": dict(self.gauges),
                "hists": {k: dict(v) for k, v in self.hists.items()},
                "events": [dict(e) for e in self.events],
                "ops": self.ops,
            }

    def drain(self) -> dict[str, Any]:
        """Snapshot and reset — the per-worker delta shipped home."""
        with self._lock:
            snap = {
                _MARKER: True,
                "counters": self.counters,
                "gauges": self.gauges,
                "hists": self.hists,
                "events": self.events,
                "ops": self.ops,
            }
            self.counters = {}
            self.gauges = {}
            self.hists = {}
            self.events = []
            self.ops = 0
            return snap

    def reset(self) -> None:
        self.drain()

    def absorb(self, snap: dict[str, Any], prefix: str | None) -> None:
        """Merge a shipped snapshot into this registry under ``prefix``."""
        with self._lock:
            view = {
                "counters": self.counters,
                "gauges": self.gauges,
                "hists": self.hists,
                "events": self.events,
                "ops": 0,
            }
            merge_snapshot(view, snap, prefix)
            self.ops += int(snap.get("ops", 0))


class _Span:
    """Context manager recording one span event on exit."""

    __slots__ = ("_reg", "_name", "_attrs", "_id", "_parent", "_t0")

    def __init__(self, reg: Registry, name: str, attrs: dict[str, Any]) -> None:
        self._reg = reg
        self._name = name
        self._attrs = attrs

    def __enter__(self) -> "_Span":
        stack = self._reg._stack()
        self._parent = stack[-1] if stack else None
        self._id = next(self._reg._ids)
        stack.append(self._id)
        self._t0 = clock()
        return self

    def __exit__(self, *exc: object) -> bool:
        dur = clock() - self._t0
        stack = self._reg._stack()
        if stack and stack[-1] == self._id:
            stack.pop()
        self._reg.add_event(
            {
                "name": self._name,
                "proc": "",
                "id": self._id,
                "parent": self._parent,
                "t0": self._t0,
                "dur_s": dur,
                "attrs": self._attrs,
            }
        )
        return False


class _NullSpan:
    """Shared no-op span for the disabled path (no allocation per call)."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> bool:
        return False


_NULL_SPAN = _NullSpan()

_REGISTRY = Registry()
_ENABLED = False
_IS_WORKER = False


def enabled() -> bool:
    """Whether telemetry is recording in this process."""
    return _ENABLED


def enable(on: bool = True) -> None:
    """Turn recording on/off in this process (the registry is kept)."""
    global _ENABLED
    _ENABLED = bool(on)


def registry() -> Registry:
    """This process's registry (the merged view on the dispatcher)."""
    return _REGISTRY


def snapshot() -> dict[str, Any]:
    """Wire-safe copy of the current merged state."""
    return _REGISTRY.snapshot()


def reset() -> None:
    """Drop all accumulated state (bench/test isolation seam)."""
    _REGISTRY.reset()


def mark_worker_process() -> None:
    """Flag this process as a worker/agent: its metrics are a *delta*
    shipped home by :func:`drain_worker_snapshot`, not the merged view.
    Called from the pool worker bootstrap and the agent serve loop —
    never from initializers, which also run in-process under the serial
    executor."""
    global _IS_WORKER
    _IS_WORKER = True


def is_worker_process() -> bool:
    return _IS_WORKER


def count(name: str, value: float = 1.0, **labels: Any) -> None:
    """Add to a counter (no-op when disabled)."""
    if _ENABLED:
        _REGISTRY.count(name, value, labels)


def gauge_max(name: str, value: float, **labels: Any) -> None:
    """Record a high-water-mark gauge (max-merged; no-op when disabled)."""
    if _ENABLED:
        _REGISTRY.gauge_max(name, value, labels)


def observe(name: str, value: float, **labels: Any) -> None:
    """Add one observation to a histogram (no-op when disabled)."""
    if _ENABLED:
        _REGISTRY.observe(name, value, labels)


def span(name: str, **attrs: Any) -> _Span | _NullSpan:
    """Time a block as a trace span (shared no-op object when disabled)."""
    if not _ENABLED:
        return _NULL_SPAN
    return _Span(_REGISTRY, name, attrs)


def drain_worker_snapshot() -> dict[str, Any] | None:
    """The delta a worker/agent ships on the finalize channel.

    Returns ``None`` (nothing to ship) unless this process is a marked
    worker with telemetry enabled — under the serial executor the
    "worker" is the dispatcher itself and its metrics are already in
    the right registry.
    """
    if not (_ENABLED and _IS_WORKER):
        return None
    return _REGISTRY.drain()


def absorb_snapshots(returns: Any, prefix: str = "w") -> None:
    """Dispatcher-side merge of finalize-channel return values.

    ``returns`` is whatever the executor's finalize broadcast yielded —
    one entry per worker slot, in slot order, so the merge is
    deterministic.  Non-snapshot entries (None, other teardown returns)
    are skipped.
    """
    if not _ENABLED or not returns:
        return
    for i, snap in enumerate(returns):
        if is_snapshot(snap):
            _REGISTRY.absorb(snap, f"{prefix}{i}")


def combine_agent_snapshot(inner_returns: Any) -> dict[str, Any] | None:
    """Agent-side fold for hierarchical agents: merge the inner pool's
    worker snapshots with this agent process's own delta into the one
    snapshot the finalize RPC replies with."""
    own = drain_worker_snapshot()
    inner = [s for s in (inner_returns or ()) if is_snapshot(s)]
    if not inner:
        return own
    combined = _empty_snapshot()
    if own is not None:
        merge_snapshot(combined, own)
    for i, snap in enumerate(inner):
        merge_snapshot(combined, snap, f"w{i}")
    return combined
