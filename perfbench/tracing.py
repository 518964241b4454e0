"""Layer spans recorded from outside the program.

:class:`LayerTracer` wraps the public functions at each layer boundary
of ``repro`` (module attributes and class methods, restored on exit)
so one ``Picasso.color`` call yields a span tree: name, start, end and
parent, all spans of one call sharing one call id.  Counts are taken
at the same boundaries.  Only the dispatcher's main thread records:
pool workers forked while the wrappers are installed pass straight
through, and cluster agents are spawned from a clean import.

Layers and what is wrapped (dotted names are the span names):

- ``core.palette.assign`` — ``assign_color_lists`` as ``repro.core.picasso`` calls it
- ``core.conflict.build`` — ``build_fused_conflict_state`` /
  ``build_conflict_graph`` as ``repro.core.picasso`` calls them
- ``device.intersect`` — ``KernelBackend.lists_intersect_block``
- ``pauli.oracle`` — ``PauliComplementSource.edge_block`` / ``edge_mask``
- ``graphs.csr`` — ``csr_from_coo_chunks`` as ``parallel.pool`` calls it
- ``coloring.color`` — every registered ``ListColoringEngine.color``
- ``parallel.imap`` / ``parallel.wait`` — pool and cluster
  ``Executor.imap`` and each blocking ``next`` on its result stream
- ``distributed.send`` / ``distributed.recv`` — the transport's
  ``send_msg`` / ``recv_msg``; bytes are counted on the sockets the
  cluster executor dials
"""

from __future__ import annotations

import functools
import json
import math
import os
import threading
import time
from collections import defaultdict
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from pathlib import Path

from perfbench import probes


class Recorder:
    """Spans and counters of the traced calls, kept in memory."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.thread = threading.get_ident()
        self.call_id = 0
        #: ``(span_id, parent_id, name, t0_ns, t1_ns, call_id)``
        self.spans: list[tuple[int, int | None, str, int, int, int]] = []
        self.counts: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self._stack: list[tuple[int, str, int]] = []
        self._next_id = 1

    def recording(self) -> bool:
        return os.getpid() == self.pid and threading.get_ident() == self.thread

    def open(self, name: str) -> int:
        sid = self._next_id
        self._next_id += 1
        self._stack.append((sid, name, time.perf_counter_ns()))
        return sid

    def close(self, sid: int) -> None:
        t1 = time.perf_counter_ns()
        top, name, t0 = self._stack.pop()
        if top != sid:
            raise RuntimeError(f"span {name!r} closed out of order")
        parent = self._stack[-1][0] if self._stack else None
        self.spans.append((sid, parent, name, t0, t1, self.call_id))

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        sid = self.open(name)
        try:
            yield
        finally:
            self.close(sid)

    def add(self, counter: str, value: float = 1.0) -> None:
        self.counts[self.call_id][counter] += value

    def gauge_max(self, counter: str, value: float) -> None:
        bucket = self.counts[self.call_id]
        bucket[counter] = max(bucket.get(counter, 0.0), value)


class CountingSocket:
    """Socket proxy that counts the bytes crossing it."""

    def __init__(self, sock, rec: Recorder) -> None:
        self._sock = sock
        self._rec = rec

    # The transport frames with ``sendall`` and reads with ``recv_into``.
    def sendall(self, data, *args):
        self._rec.add("distributed.bytes_sent", memoryview(data).nbytes)
        return self._sock.sendall(data, *args)

    def recv_into(self, buf, *args):
        got = self._sock.recv_into(buf, *args)
        self._rec.add("distributed.bytes_recv", got)
        return got

    def __getattr__(self, name: str):
        return getattr(self._sock, name)


class LayerTracer:
    """Installs the layer wrappers for the duration of a ``with`` block."""

    def __init__(self, rec: Recorder, kernel_backend: str) -> None:
        self.rec = rec
        self.kernel_backend = kernel_backend

    def _timed(self, name: str, fn: Callable, after: Callable | None = None) -> Callable:
        rec = self.rec

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not rec.recording():
                return fn(*args, **kwargs)
            sid = rec.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec.close(sid)
            if after is not None:
                after(args, out)
            return out

        return wrapper

    def _traced_imap(self, fn: Callable) -> Callable:
        rec = self.rec

        def stream(it):
            try:
                while True:
                    sid = rec.open("parallel.wait")
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        rec.close(sid)
                    yield item
            finally:
                close = getattr(it, "close", None)
                if close is not None:
                    close()

        @functools.wraps(fn)
        def imap(executor, task_fn, tasks, *args, **kwargs):
            if not rec.recording():
                return fn(executor, task_fn, tasks, *args, **kwargs)
            tasks = list(tasks)
            rec.add("parallel.tasks", len(tasks))
            with rec.span("parallel.imap"):
                it = fn(executor, task_fn, tasks, *args, **kwargs)
            return stream(it)

        return imap

    def _patches(self) -> list[tuple[object, str, Callable]]:
        from repro.coloring import engine as engine_mod
        from repro.core import picasso
        from repro.core.sources import PauliComplementSource
        from repro.device.backends import resolve_backend
        from repro.distributed import cluster, transport
        from repro.parallel import pool
        from repro.parallel.executor import PoolExecutor
        from repro.parallel.shm import ShmRegionPool

        rec = self.rec
        t = self._timed
        patches: list[tuple[object, str, Callable]] = []

        def add(owner, attr, make):
            patches.append((owner, attr, make(getattr(owner, attr))))

        add(picasso, "assign_color_lists", lambda f: t("core.palette.assign", f))
        for attr in ("build_fused_conflict_state", "build_conflict_graph"):
            add(picasso, attr, lambda f: t("core.conflict.build", f))

        backend_cls = type(resolve_backend(self.kernel_backend))
        add(backend_cls, "lists_intersect_block", lambda f: t("device.intersect", f))

        add(PauliComplementSource, "edge_block", lambda f: t(
            "pauli.oracle", f,
            lambda a, out: rec.add("pauli.oracle_pairs", (a[2] - a[1]) * (a[4] - a[3]))))
        add(PauliComplementSource, "edge_mask", lambda f: t(
            "pauli.oracle", f,
            lambda a, out: rec.add("pauli.oracle_pairs", len(a[1]))))

        add(pool, "csr_from_coo_chunks", lambda f: t("graphs.csr", f))

        def colored(args, outcome):
            attempted = len(args[2])
            rec.add("coloring.attempted", attempted)
            rec.add("coloring.colored", attempted - len(outcome.uncolored))

        for name in engine_mod.available_engines():
            cls = type(engine_mod.get_engine(name))
            if "color" in vars(cls):
                add(cls, "color", lambda f: t("coloring.color", f, colored))

        for cls in (PoolExecutor, cluster.ClusterExecutor):
            add(cls, "imap", self._traced_imap)
        add(ShmRegionPool, "acquire", lambda f: t(
            "parallel.shm_acquire", f, lambda a, out: rec.add("parallel.shm_acquires")))

        def pool_close(f):
            @functools.wraps(f)
            def close(executor):
                if rec.recording():
                    for pid in executor.worker_pids() or ():
                        rec.gauge_max("parallel.worker_peak_rss_mb", probes.peak_rss_mb(pid))
                return f(executor)
            return close

        add(PoolExecutor, "close", pool_close)

        add(transport, "send_msg", lambda f: t(
            "distributed.send", f, lambda a, out: rec.add("distributed.frames_sent")))
        add(transport, "recv_msg", lambda f: t(
            "distributed.recv", f, lambda a, out: rec.add("distributed.frames_recv")))

        def counting_connect(f):
            @functools.wraps(f)
            def connect(*args, **kwargs):
                conn = f(*args, **kwargs)
                if rec.recording():
                    conn.sock = CountingSocket(conn.sock, rec)
                return conn
            return connect

        add(cluster, "connect", counting_connect)
        return patches

    @contextmanager
    def installed(self) -> Iterator[None]:
        undo = []
        try:
            for owner, attr, new in self._patches():
                had = attr in vars(owner)
                undo.append((owner, attr, had, vars(owner).get(attr)))
                setattr(owner, attr, new)
            yield
        finally:
            for owner, attr, had, old in reversed(undo):
                if had:
                    setattr(owner, attr, old)
                else:
                    delattr(owner, attr)


# -- analysis ---------------------------------------------------------------


def _union_ns(intervals: list[tuple[int, int]]) -> int:
    total = 0
    end = None
    for a, b in sorted(intervals):
        if end is None or a > end:
            total += b - a
            end = b
        elif b > end:
            total += b - end
            end = b
    return total


def span_tables(spans) -> tuple[dict[str, float], dict[str, float], dict[str, int]]:
    """Busy seconds (union of a name's spans), self seconds (span time
    not covered by its child spans) and span counts, per name."""
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for sid, parent, _name, t0, t1, _cid in spans:
        if parent is not None:
            children[parent].append((t0, t1))
    by_name: dict[str, list[tuple[int, int]]] = defaultdict(list)
    self_ns: dict[str, int] = defaultdict(int)
    n_spans: dict[str, int] = defaultdict(int)
    for sid, _parent, name, t0, t1, _cid in spans:
        by_name[name].append((t0, t1))
        self_ns[name] += (t1 - t0) - _union_ns(children.get(sid, []))
        n_spans[name] += 1
    busy = {name: _union_ns(iv) / 1e9 for name, iv in by_name.items()}
    return busy, {k: v / 1e9 for k, v in self_ns.items()}, dict(n_spans)


def call_layer_metrics(rec: Recorder, call_id: int, result) -> dict[str, float]:
    """Per-layer metrics of one traced call (root span ``picasso.color``)."""
    spans = [s for s in rec.spans if s[5] == call_id]
    busy, own, _ = span_tables(spans)
    counts = rec.counts[call_id]
    (root,) = [s for s in spans if s[2] == "picasso.color"]
    covered = _union_ns([(s[3], s[4]) for s in spans if s[1] == root[0]])

    pairs = sum(it.n_active * (it.n_active - 1) // 2 for it in result.iterations)
    words = sum(
        it.n_active * (it.n_active - 1) // 2 * math.ceil(it.palette_size / 64)
        for it in result.iterations
    )
    edges = sum(it.n_conflict_edges for it in result.iterations)
    attempted = counts.get("coloring.attempted", 0.0)
    return {
        "core.iterations": float(result.n_iterations),
        "core.palette.assign_s": busy.get("core.palette.assign", 0.0),
        "core.conflict.build_s": busy.get("core.conflict.build", 0.0),
        "core.conflict.self_s": own.get("core.conflict.build", 0.0),
        "core.model_peak_mb": result.peak_bytes / 2**20,
        "core.max_conflict_edges": float(result.max_conflict_edges),
        "device.intersect_s": busy.get("device.intersect", 0.0),
        "device.pairs_tested": float(pairs),
        "device.intersect_words": float(words),
        "device.useful_pair_ratio": edges / pairs if pairs else 0.0,
        "pauli.oracle_s": busy.get("pauli.oracle", 0.0),
        "pauli.oracle_pairs": counts.get("pauli.oracle_pairs", 0.0),
        "graphs.csr_s": busy.get("graphs.csr", 0.0),
        "graphs.conflict_edges": float(edges),
        "coloring.color_s": busy.get("coloring.color", 0.0),
        "coloring.rounds": float(result.stats.get("color_rounds", 0)),
        "coloring.colored_ratio": (
            counts.get("coloring.colored", 0.0) / attempted if attempted else 0.0
        ),
        "parallel.wait_s": _union_ns(
            [(s[3], s[4]) for s in spans if s[2] in ("parallel.imap", "parallel.wait")]
        ) / 1e9,
        "parallel.tasks": counts.get("parallel.tasks", 0.0),
        "parallel.shm_acquires": counts.get("parallel.shm_acquires", 0.0),
        "parallel.worker_peak_rss_mb": counts.get("parallel.worker_peak_rss_mb", 0.0),
        "distributed.frames_sent": counts.get("distributed.frames_sent", 0.0),
        "distributed.frames_recv": counts.get("distributed.frames_recv", 0.0),
        "distributed.bytes_sent": counts.get("distributed.bytes_sent", 0.0),
        "distributed.bytes_recv": counts.get("distributed.bytes_recv", 0.0),
        "distributed.recv_wait_s": busy.get("distributed.recv", 0.0),
        "trace.coverage": covered / (root[4] - root[3]),
    }


def self_time_table(rec: Recorder) -> str:
    """Per-span-name busy and self time over all traced calls."""
    busy, own, n_spans = span_tables(rec.spans)
    n_calls = len({s[5] for s in rec.spans}) or 1
    root_s = busy.get("picasso.color", 0.0) or 1.0
    lines = [
        f"{'span':<24}{'spans/call':>11}{'busy s/call':>13}{'self s/call':>13}{'self %':>8}"
    ]
    for name in sorted(busy, key=lambda k: -own[k]):
        lines.append(
            f"{name:<24}{n_spans[name] / n_calls:>11.1f}{busy[name] / n_calls:>13.4f}"
            f"{own[name] / n_calls:>13.4f}{100 * own[name] / root_s:>8.1f}"
        )
    return "\n".join(lines)


def write_chrome_trace(rec: Recorder, path: Path, metadata: dict) -> None:
    """Chrome trace-event JSON (opens in Perfetto / chrome://tracing):
    one complete event per span, one track per traced call."""
    t_base = min((s[3] for s in rec.spans), default=0)
    events = [
        {
            "name": name,
            "cat": name.split(".", 1)[0],
            "ph": "X",
            "ts": (t0 - t_base) / 1e3,
            "dur": (t1 - t0) / 1e3,
            "pid": rec.pid,
            "tid": call_id,
            "args": {"span_id": sid, "parent_id": parent, "call_id": call_id},
        }
        for sid, parent, name, t0, t1, call_id in rec.spans
    ]
    events += [
        {"name": "thread_name", "ph": "M", "pid": rec.pid, "tid": cid,
         "args": {"name": f"color call {cid}"}}
        for cid in sorted({s[5] for s in rec.spans})
    ]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(
        {"traceEvents": events, "displayTimeUnit": "ms", "metadata": metadata}
    ))
