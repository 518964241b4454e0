"""Telemetry core: registry semantics, spans, cross-process merge.

The registry is write-only from the algorithm's point of view; these
tests pin the semantics the instrumentation sites rely on — disabled
hooks record nothing and allocate no spans, counters add, gauges
max-merge, histograms fold, span parent stacks nest per thread, and
worker snapshots remap deterministically under slot prefixes.
"""

import threading

import pytest

from repro import telemetry
from repro.telemetry.core import _MARKER, Registry, _Span, merge_snapshot


@pytest.fixture(autouse=True)
def clean_registry():
    """Every test starts and ends disabled with an empty registry."""
    telemetry.reset()
    telemetry.enable(False)
    yield
    telemetry.reset()
    telemetry.enable(False)


class TestDisabledPath:
    def test_disabled_records_nothing(self):
        telemetry.count("x")
        telemetry.gauge_max("g", 5.0)
        telemetry.observe("h", 1.0)
        with telemetry.span("s"):
            pass
        snap = telemetry.snapshot()
        assert snap["counters"] == {}
        assert snap["gauges"] == {}
        assert snap["hists"] == {}
        assert snap["events"] == []

    def test_disabled_span_is_shared_noop(self):
        # Zero-cost contract: no allocation per disabled span call.
        assert telemetry.span("a") is telemetry.span("b")

    def test_clock_is_monotonic(self):
        t0 = telemetry.clock()
        t1 = telemetry.clock()
        assert t1 >= t0


class TestRegistry:
    def test_counters_add(self):
        telemetry.enable(True)
        telemetry.count("c")
        telemetry.count("c", 2.5)
        assert telemetry.snapshot()["counters"]["c"] == 3.5

    def test_counter_labels_key(self):
        telemetry.enable(True)
        telemetry.count("d", backend="numpy")
        telemetry.count("d", backend="numba")
        telemetry.count("d", backend="numpy")
        counters = telemetry.snapshot()["counters"]
        assert counters["d{backend=numpy}"] == 2.0
        assert counters["d{backend=numba}"] == 1.0

    def test_gauge_max(self):
        telemetry.enable(True)
        telemetry.gauge_max("g", 2.0)
        telemetry.gauge_max("g", 7.0)
        telemetry.gauge_max("g", 3.0)
        assert telemetry.snapshot()["gauges"]["g"] == 7.0

    def test_hist_folds(self):
        telemetry.enable(True)
        for v in (1.0, 4.0, 2.0):
            telemetry.observe("h", v)
        h = telemetry.snapshot()["hists"]["h"]
        assert h["count"] == 3
        assert h["sum"] == 7.0
        assert h["min"] == 1.0
        assert h["max"] == 4.0

    def test_span_records_duration_and_attrs(self):
        telemetry.enable(True)
        with telemetry.span("phase", iteration=3):
            pass
        (ev,) = telemetry.snapshot()["events"]
        assert ev["name"] == "phase"
        assert ev["attrs"] == {"iteration": 3}
        assert ev["dur_s"] >= 0.0
        assert ev["parent"] is None

    def test_span_nesting_sets_parent(self):
        telemetry.enable(True)
        with telemetry.span("outer"):
            with telemetry.span("inner"):
                pass
        events = {e["name"]: e for e in telemetry.snapshot()["events"]}
        assert events["inner"]["parent"] == events["outer"]["id"]
        assert events["outer"]["parent"] is None

    def test_span_parent_stack_is_per_thread(self):
        telemetry.enable(True)
        done = threading.Event()

        def other():
            with telemetry.span("thread-span"):
                pass
            done.set()

        with telemetry.span("main-span"):
            t = threading.Thread(target=other)
            t.start()
            t.join()
        assert done.is_set()
        events = {e["name"]: e for e in telemetry.snapshot()["events"]}
        # The other thread's span must not pick up main's open span.
        assert events["thread-span"]["parent"] is None

    def test_reset_clears(self):
        telemetry.enable(True)
        telemetry.count("c")
        telemetry.reset()
        assert telemetry.snapshot()["counters"] == {}


class TestCrossProcessMerge:
    def _worker_snap(self) -> dict:
        reg = Registry()
        reg.count("pool.strip", 1.0, {})
        reg.count("transport.bytes_sent", 100.0, {})
        with _Span(reg, "w-span", {}):
            pass
        return reg.drain()

    def test_drain_marks_and_resets(self):
        reg = Registry()
        reg.count("c", 1.0, {})
        snap = reg.drain()
        assert snap[_MARKER] is True
        assert snap["counters"]["c"] == 1.0
        assert reg.drain()["counters"] == {}

    def test_is_snapshot(self):
        assert telemetry.is_snapshot(self._worker_snap())
        assert not telemetry.is_snapshot(None)
        assert not telemetry.is_snapshot({"counters": {}})
        assert not telemetry.is_snapshot(42)

    def test_merge_remaps_proc_and_ids(self):
        dst = Registry().drain()
        src = Registry()
        with _Span(src, "outer", {}):
            with _Span(src, "inner", {}):
                pass
        merge_snapshot(dst, src.drain(), "w0")
        events = {e["name"]: e for e in dst["events"]}
        assert events["outer"]["proc"] == "w0"
        assert events["inner"]["proc"] == "w0"
        assert events["inner"]["parent"] == events["outer"]["id"]

    def test_merge_counters_add_across_slots(self):
        dst = Registry().drain()
        merge_snapshot(dst, self._worker_snap(), "w0")
        merge_snapshot(dst, self._worker_snap(), "w1")
        assert dst["counters"]["pool.strip"] == 2.0
        assert dst["counters"]["transport.bytes_sent"] == 200.0
        procs = {e["proc"] for e in dst["events"]}
        assert procs == {"w0", "w1"}

    def test_absorb_snapshots_slot_order(self):
        telemetry.enable(True)
        returns = [self._worker_snap(), None, self._worker_snap()]
        telemetry.absorb_snapshots(returns, prefix="s")
        procs = sorted({e["proc"] for e in telemetry.snapshot()["events"]})
        assert procs == ["s0", "s2"]

    def test_absorb_disabled_is_noop(self):
        telemetry.absorb_snapshots([self._worker_snap()], prefix="w")
        assert telemetry.snapshot()["events"] == []

    def test_combine_agent_snapshot_nests_inner(self):
        telemetry.enable(True)
        telemetry.mark_worker_process()
        try:
            telemetry.count("agent.own")
            combined = telemetry.combine_agent_snapshot(
                [self._worker_snap(), self._worker_snap()]
            )
        finally:
            # Restore dispatcher-process state for other tests.
            telemetry.core._IS_WORKER = False
        assert telemetry.is_snapshot(combined)
        assert combined["counters"]["agent.own"] == 1.0
        assert combined["counters"]["pool.strip"] == 2.0
        procs = sorted({e["proc"] for e in combined["events"]})
        assert procs == ["w0", "w1"]

    def test_drain_worker_snapshot_requires_worker(self):
        telemetry.enable(True)
        # Enabled but not a worker process: nothing to piggyback.
        assert telemetry.drain_worker_snapshot() is None
