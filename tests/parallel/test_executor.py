"""Tests for the execution backend layer (serial / pool, fork / spawn)."""

import multiprocessing as mp
import os
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

from repro.core.conflict import build_conflict_graph
from repro.core.palette import assign_color_lists
from repro.core.sources import PauliComplementSource
from repro.parallel.executor import (
    PoolExecutor,
    SerialExecutor,
    default_start_method,
    make_executor,
)
from repro.pauli import random_pauli_set

SRC = os.path.abspath(
    os.path.join(os.path.dirname(__file__), "..", "..", "src")
)

# Module-level so they pickle into spawn-context pool workers.
_STATE: dict = {}


def _install(bias):
    _STATE["bias"] = bias


def _square_plus_bias(x):
    return x * x + _STATE["bias"]


def _raise_install():
    raise ValueError("install failed")


def _sleep_then_pid(seconds):
    time.sleep(seconds)
    return os.getpid()


class TestSerialExecutor:
    def test_map_order_and_initializer(self):
        ex = SerialExecutor()
        out = ex.map(_square_plus_bias, [3, 1, 2], initializer=_install, payload=(10,))
        assert out == [19, 11, 14]

    def test_empty_tasks(self):
        assert SerialExecutor().map(_square_plus_bias, []) == []

    def test_empty_tasks_never_run_initializer(self):
        """The unified imap contract: no work, no payload install."""
        _STATE.clear()
        out = list(
            SerialExecutor().imap(
                _square_plus_bias, [], initializer=_install, payload=(7,)
            )
        )
        assert out == []
        assert "bias" not in _STATE

    def test_initializer_is_eager(self):
        """The initializer runs when imap *returns*, not when the first
        result is consumed — consumers may rely on installed state."""
        _STATE.clear()
        it = SerialExecutor().imap(
            _square_plus_bias, [2], initializer=_install, payload=(5,)
        )
        assert _STATE.get("bias") == 5  # before any next()
        assert list(it) == [9]


class TestPoolExecutor:
    def test_map_preserves_task_order(self):
        ex = PoolExecutor(2)
        out = ex.map(_square_plus_bias, list(range(10)), initializer=_install, payload=(1,))
        assert out == [k * k + 1 for k in range(10)]

    def test_spawn_forced(self):
        """The documented fallback path: payload pickled per worker."""
        ex = PoolExecutor(2, start_method="spawn")
        assert ex.resolved_start_method() == "spawn"
        out = ex.map(_square_plus_bias, [4, 5], initializer=_install, payload=(-16,))
        assert out == [0, 9]

    def test_empty_tasks_skip_pool(self):
        ex = PoolExecutor(2)
        assert ex.map(_square_plus_bias, []) == []
        # Contract: no tasks -> no pool, no initializer anywhere.
        assert not ex.pool_alive

    def test_pool_persists_across_maps(self):
        with PoolExecutor(2) as ex:
            ex.map(_square_plus_bias, [1, 2], initializer=_install, payload=(0,))
            pids = ex.worker_pids()
            assert len(pids) == 2
            ex.map(_square_plus_bias, [3], initializer=_install, payload=(1,))
            assert ex.worker_pids() == pids
        assert not ex.pool_alive

    def test_payload_token_tracking(self):
        with PoolExecutor(2) as ex:
            assert not ex.holds_token("t")
            ex.map(
                _square_plus_bias, [1, 2], initializer=_install,
                payload=(0,), payload_token="t",
            )
            assert ex.holds_token("t")
            assert not ex.holds_token("other")
            # A tokenless install clears the record.
            ex.map(_square_plus_bias, [1], initializer=_install, payload=(0,))
            assert not ex.holds_token("t")
        assert not ex.holds_token("t")

    def test_holds_token_never_true_for_none(self):
        ex = SerialExecutor()
        ex.map(_square_plus_bias, [1], initializer=_install, payload=(0,))
        assert not ex.holds_token(None)

    def test_close_idempotent(self):
        ex = PoolExecutor(2)
        ex.map(_square_plus_bias, [1], initializer=_install, payload=(0,))
        ex.close()
        ex.close()
        assert not ex.pool_alive

    def test_failed_install_surfaces_fast_and_recycles(self):
        """A failing initializer must abort the install barrier (peers
        release immediately, not after the 120 s timeout), recycle the
        pool, and leave the executor usable."""
        import time

        ex = PoolExecutor(2)
        t0 = time.perf_counter()
        with pytest.raises(Exception):
            ex.map(_square_plus_bias, [1, 2], initializer=_raise_install)
        assert time.perf_counter() - t0 < 30
        assert not ex.pool_alive  # broken barrier -> recycled
        assert ex.map(_square_plus_bias, [2], initializer=_install,
                      payload=(0,)) == [4]
        ex.close()

    def test_env_forced_start_method(self, monkeypatch):
        monkeypatch.setenv("REPRO_START_METHOD", "spawn")
        assert default_start_method() == "spawn"
        assert PoolExecutor(2).resolved_start_method() == "spawn"
        monkeypatch.setenv("REPRO_START_METHOD", "teleport")
        with pytest.raises(ValueError, match="not available"):
            default_start_method()

    def test_imap_streams_in_task_order(self):
        """The streaming form the device COO path consumes: results
        arrive incrementally but strictly in task order."""
        ex = PoolExecutor(2)
        it = ex.imap(_square_plus_bias, [3, 1, 2], initializer=_install, payload=(0,))
        assert next(it) == 9
        assert list(it) == [1, 4]

    def test_abandoned_stream_mid_send_recycles_without_hanging(self):
        """Dropping a stream while workers are sending large results
        must recycle the pool, not wedge ``Pool.terminate`` on a result
        lock held by a worker killed mid-send.  Runs in its own process
        group so a wedged pool fails the test instead of hanging it."""
        script = (
            "from functools import partial\n"
            "import numpy as np\n"
            "from repro.parallel.executor import PoolExecutor\n"
            "# 8 MiB results: a worker spends most of a task sending.\n"
            "big = partial(np.zeros, dtype=np.int64)\n"
            "with PoolExecutor(2) as ex:\n"
            "    for _ in range(8):\n"
            "        it = ex.imap(big, [1 << 20] * 12)\n"
            "        next(it)\n"
            "        it.close()\n"
            "        assert not ex.pool_alive\n"
            "    assert len(ex.map(big, [4, 4])) == 2\n"
            "print('ok')\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (SRC, env.get("PYTHONPATH")) if p
        )
        proc = subprocess.Popen(
            [sys.executable, "-c", script], env=env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            start_new_session=True,
        )
        try:
            out, err = proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            pytest.fail("pool recycle hung on an abandoned stream")
        assert proc.returncode == 0, err.decode()
        assert out.decode().strip() == "ok"

    def test_abandoned_stream_skips_queued_tasks(self):
        """Tasks still queued when the stream is dropped are cancelled,
        so the recycle waits only for the strips already running."""
        with PoolExecutor(2) as ex:
            it = ex.imap(_sleep_then_pid, [0.0] + [0.25] * 40)
            next(it)
            t0 = time.perf_counter()
            it.close()
            # Running all 40 queued tasks on 2 workers would take 5 s.
            assert time.perf_counter() - t0 < 2.5
            assert not ex.pool_alive

    def test_invalid_workers(self):
        with pytest.raises(ValueError):
            PoolExecutor(0)

    def test_invalid_start_method(self):
        with pytest.raises(ValueError, match="not available"):
            PoolExecutor(2, start_method="teleport")

    def test_default_start_method_prefers_fork(self, monkeypatch):
        monkeypatch.delenv("REPRO_START_METHOD", raising=False)
        if "fork" in mp.get_all_start_methods():
            assert default_start_method() == "fork"
        monkeypatch.setattr(
            mp, "get_all_start_methods", lambda: ["spawn", "forkserver"]
        )
        assert default_start_method() == "spawn"
        assert PoolExecutor(2).resolved_start_method() == "spawn"


class TestMakeExecutor:
    def test_auto(self):
        assert isinstance(make_executor("auto", 1), SerialExecutor)
        ex = make_executor("auto", 3)
        assert isinstance(ex, PoolExecutor)
        assert ex.n_workers == 3

    def test_forced_backends(self):
        assert isinstance(make_executor("serial", 8), SerialExecutor)
        ex = make_executor("pool", 1)
        assert isinstance(ex, PoolExecutor)
        assert ex.n_workers == 1

    def test_instance_passthrough(self):
        ex = PoolExecutor(2)
        assert make_executor(ex) is ex

    def test_unknown_spec(self):
        with pytest.raises(ValueError, match="unknown executor"):
            make_executor("threads")


class TestSpawnConflictBuild:
    def test_spawn_build_bit_identical(self):
        """Forcing spawn must reproduce the serial CSR bit for bit —
        the backend the fork-less platforms fall back to."""
        ps = random_pauli_set(90, 6, seed=3)
        _, masks = assign_color_lists(90, 14, 4, rng=1)
        src = PauliComplementSource(ps)
        ref, m_ref = build_conflict_graph(
            90, src.edge_mask, masks, edge_block_fn=src.edge_block
        )
        got, m_got = build_conflict_graph(
            90,
            src.edge_mask,
            masks,
            edge_block_fn=src.edge_block,
            executor=PoolExecutor(2, start_method="spawn"),
        )
        assert m_got == m_ref
        np.testing.assert_array_equal(got.offsets, ref.offsets)
        np.testing.assert_array_equal(got.targets, ref.targets)
