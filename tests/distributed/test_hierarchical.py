"""Hierarchical cluster agents: each agent fans out to a local pool.

PR 7 acceptance: an agent started with ``inner_workers > 1`` advertises
its pool size as capacity in the handshake, runs its shard's strips on
the inner pool, and keeps every PR 6 failure contract — a SIGKILLed
*inner* worker surfaces on the dispatcher as the pool's typed
:class:`~repro.parallel.executor.WorkerFailure` (within the inner
result bound), a SIGKILLed *agent* behaves exactly like a flat one, and
redistribution over hierarchical shards stays bit-identical.
"""

import os
import time

import numpy as np
import pytest

from repro.core import Picasso, PicassoParams
from repro.core.conflict import build_conflict_graph
from repro.core.palette import assign_color_lists
from repro.core.sources import PauliComplementSource
from repro.distributed import ClusterExecutor, LocalCluster
from repro.parallel.executor import WorkerFailure
from repro.pauli import random_pauli_set
from repro.resilience.faults import clear_faults


@pytest.fixture(autouse=True)
def _disarm():
    clear_faults()
    yield
    clear_faults()


def _getpid(_):
    return os.getpid()


def _square(x):
    return x * x


def _slow_echo(seconds):
    time.sleep(seconds)
    return seconds


def _problem(n=120, seed=3):
    ps = random_pauli_set(n, 6, seed=seed)
    _, masks = assign_color_lists(n, 16, 4, rng=1)
    src = PauliComplementSource(ps)
    ref, m_ref = build_conflict_graph(
        n, src.edge_mask, masks, edge_block_fn=src.edge_block
    )
    return src, masks, ref, m_ref


def _build(src, masks, ex, **kw):
    return build_conflict_graph(
        src.n, src.edge_mask, masks, edge_block_fn=src.edge_block,
        executor=ex, **kw
    )


def _assert_identical(got, m_got, ref, m_ref):
    assert m_got == m_ref
    np.testing.assert_array_equal(got.offsets, ref.offsets)
    np.testing.assert_array_equal(got.targets, ref.targets)


class TestHierarchicalAgent:
    def test_capacity_advertised_in_hello(self):
        with LocalCluster(2, inner_workers=3) as cluster:
            with cluster.executor() as ex:
                assert ex.worker_capacities() == [3, 3]

    def test_flat_agent_capacity_is_one(self):
        with LocalCluster(2) as cluster:
            with cluster.executor() as ex:
                assert ex.worker_capacities() == [1, 1]

    def test_tasks_run_on_inner_pool(self):
        """Strips execute in the agent's pool workers, not the agent
        process itself."""
        with LocalCluster(1, inner_workers=2) as cluster:
            agent_pid = cluster.worker_pids()[0]
            with cluster.executor() as ex:
                pids = set(ex.map(_getpid, list(range(8))))
            assert agent_pid not in pids
            assert 1 <= len(pids) <= 2

    def test_build_bit_identical_and_delta_path(self):
        """Sharded build over hierarchical agents matches serial, and
        repeat sweeps on one executor ride the token-cached delta path
        through the agents' inner pools."""
        src, masks, ref, m_ref = _problem()
        with LocalCluster(2, inner_workers=2) as cluster:
            with cluster.executor() as ex:
                for _ in range(2):
                    got, m_got = _build(src, masks, ex, source=src)
                    _assert_identical(got, m_got, ref, m_ref)
                assert any(ex.holds_token(t) for t in ex._tokens.values())

    def test_heterogeneous_capacities_weighted_and_identical(self):
        """Mixed flat + hierarchical agents trigger the capacity-
        weighted strip deal; the result is still bit-identical."""
        from repro.parallel.pool import strip_shares

        src, masks, ref, m_ref = _problem()
        with LocalCluster(1) as flat, LocalCluster(1, inner_workers=3) as hier:
            hosts = flat.hosts + hier.hosts
            with ClusterExecutor(hosts) as ex:
                assert ex.worker_capacities() == [1, 3]
                assert strip_shares(ex, 6) == [1, 3, 1, 3, 1, 3]
                got, m_got = _build(src, masks, ex)
        _assert_identical(got, m_got, ref, m_ref)

    def test_picasso_hierarchical_identical(self):
        ps = random_pauli_set(120, 7, seed=5)
        ref = Picasso(params=PicassoParams(), seed=3).color(ps)
        with LocalCluster(2, inner_workers=2) as cluster:
            got = Picasso(
                params=PicassoParams(hosts=cluster.hosts), seed=3
            ).color(ps)
        np.testing.assert_array_equal(ref.colors, got.colors)


class TestHierarchicalFailures:
    def test_killed_inner_worker_surfaces_typed_failure(
        self, monkeypatch, tmp_path
    ):
        """SIGKILL an *inner* pool worker mid-strip: the agent's pool
        detects it within its result bound, the typed WorkerFailure
        crosses the wire verbatim, and the agent (inner pool recycled)
        serves the next sweep bit-identically."""
        src, masks, ref, m_ref = _problem()
        # The agent reads its inner result bound at spawn; the kill
        # fault fires in the first inner worker to run a strip, once.
        monkeypatch.setenv("REPRO_RESULT_TIMEOUT_S", "5")
        monkeypatch.setenv("REPRO_FAULT", "kill:task:1")
        monkeypatch.setenv("REPRO_FAULT_ONCE", str(tmp_path / "once"))
        monkeypatch.setenv("REPRO_FAULT_SPARE_PID", str(os.getpid()))
        with LocalCluster(2, inner_workers=2) as cluster:
            with cluster.executor(result_timeout_s=30.0) as ex:
                t0 = time.perf_counter()
                with pytest.raises(WorkerFailure):
                    _build(src, masks, ex)
                assert time.perf_counter() - t0 < 40.0
                got, m_got = _build(src, masks, ex)
        _assert_identical(got, m_got, ref, m_ref)
        assert os.path.exists(tmp_path / "once")

    def test_killed_agent_behaves_like_flat(self):
        """PR 6 parity: SIGKILLing a hierarchical agent mid-round
        surfaces a bounded error, recycles, and a same-port restart
        serves again."""
        with LocalCluster(2, inner_workers=2) as cluster:
            ex = cluster.executor(result_timeout_s=30.0)
            it = ex.imap(_slow_echo, [0.0, 5.0, 0.0, 5.0])
            assert next(it) == 0.0
            cluster.kill_worker(1)
            t0 = time.perf_counter()
            with pytest.raises(RuntimeError):
                list(it)
            assert time.perf_counter() - t0 < 40.0
            assert not ex.connected
            cluster.restart_worker(1)
            assert ex.map(_square, [1, 2, 3]) == [1, 4, 9]
            ex.close()

    def test_redistribution_over_hierarchical_shards_identical(
        self, monkeypatch, tmp_path
    ):
        """A shard that fails (inner worker killed) redistributes to
        the survivors and the CSR stays bit-identical — the PR 6
        redistribution contract, unchanged under hierarchy."""
        src, masks, ref, m_ref = _problem()
        monkeypatch.setenv("REPRO_RESULT_TIMEOUT_S", "5")
        monkeypatch.setenv("REPRO_FAULT", "kill:task:1")
        monkeypatch.setenv("REPRO_FAULT_ONCE", str(tmp_path / "once"))
        monkeypatch.setenv("REPRO_FAULT_SPARE_PID", str(os.getpid()))
        with LocalCluster(2, inner_workers=2) as cluster:
            with cluster.executor(
                result_timeout_s=30.0, redistribute=True
            ) as ex:
                got, m_got = _build(src, masks, ex)
        _assert_identical(got, m_got, ref, m_ref)
