"""The coloring-engine subsystem: registry, cross-engine equivalence,
the round-synchronous parallel list engine, and provenance.

CI runs this file with ``REPRO_TEST_N_WORKERS=2`` and under a forced
``spawn`` start method, like the parallel backend suite."""

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coloring import (
    ColoringResult,
    greedy_coloring,
    jones_plassmann_ldf,
    luby_coloring,
    speculative_coloring,
)
from repro.coloring.engine import (
    ListColoringEngine,
    available_engines,
    get_engine,
    register_engine,
)
from repro.core import Picasso, PicassoParams
from repro.core.sources import PauliComplementSource
from repro.device.sim import DeviceSim
from repro.graphs import complement_graph, complete_graph, empty_graph, erdos_renyi
from repro.parallel.executor import PoolExecutor, SerialExecutor
from repro.pauli import random_pauli_set

#: CI pins the pool size via REPRO_TEST_N_WORKERS (mirrors tests/parallel).
_CI_WORKERS = int(os.environ.get("REPRO_TEST_N_WORKERS", "2"))

ALL_ENGINES = ("greedy-dynamic", "sets", "greedy-static", "parallel-list")


def _random_instance(seed, n_lo=2, n_hi=40):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(n_lo, n_hi))
    gc = erdos_renyi(n, float(rng.random()), seed=seed)
    L = int(rng.integers(1, 6))
    P = int(rng.integers(L, L + 10))
    lists = np.stack(
        [rng.choice(P, size=L, replace=False) for _ in range(n)]
    ).astype(np.int64)
    return gc, lists


def assert_valid_outcome(gc, col_lists, outcome):
    """The invariants every engine must satisfy: colors from the
    vertex's own list, no monochrome conflict edge, and Vu == the
    ``-1``-colored vertices exactly (identical rollover semantics)."""
    colors, vu = outcome.colors, outcome.uncolored
    colored = np.nonzero(colors >= 0)[0]
    for v in colored:
        assert colors[v] in col_lists[v]
    e = gc.edges()
    if len(e):
        both = (colors[e[:, 0]] >= 0) & (colors[e[:, 1]] >= 0)
        assert not (colors[e[both, 0]] == colors[e[both, 1]]).any()
    np.testing.assert_array_equal(np.sort(vu), np.nonzero(colors < 0)[0])
    assert len(colored) + len(vu) == gc.n_vertices


class TestRegistry:
    def test_available(self):
        assert set(ALL_ENGINES) <= set(available_engines())

    def test_unknown_engine(self):
        with pytest.raises(ValueError, match="unknown coloring engine"):
            get_engine("nope")

    def test_duplicate_registration_rejected(self):
        class Dup(ListColoringEngine):
            name = "greedy-dynamic"

            def color(self, *a, **k):  # pragma: no cover - never called
                raise NotImplementedError

        with pytest.raises(ValueError, match="already registered"):
            register_engine(Dup)

    def test_unnamed_registration_rejected(self):
        class NoName(ListColoringEngine):
            def color(self, *a, **k):  # pragma: no cover - never called
                raise NotImplementedError

        with pytest.raises(ValueError, match="non-empty name"):
            register_engine(NoName)

    def test_engine_knobs(self):
        assert get_engine("greedy-static", order="lf").order == "lf"
        assert get_engine("parallel-list", max_rounds=7).max_rounds == 7
        with pytest.raises(TypeError):
            get_engine("greedy-dynamic", order="lf")

    def test_provenance_fields(self):
        gc, lists = _random_instance(5)
        for name in ALL_ENGINES:
            out = get_engine(name).color(gc, lists, rng=0)
            assert out.engine == name
            assert out.n_rounds >= 1
            assert out.peak_bytes > 0


class TestCrossEngineEquivalence:
    @pytest.mark.parametrize("name", ALL_ENGINES)
    @given(seed=st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=15, deadline=None)
    def test_every_engine_respects_lists(self, name, seed):
        gc, lists = _random_instance(seed)
        out = get_engine(name).color(gc, lists, rng=seed)
        assert_valid_outcome(gc, lists, out)

    @given(seed=st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=20, deadline=None)
    def test_greedy_dynamic_matches_sets_bit_identical(self, seed):
        gc, lists = _random_instance(seed)
        a = get_engine("greedy-dynamic").color(gc, lists, rng=seed)
        b = get_engine("sets").color(gc, lists, rng=seed)
        np.testing.assert_array_equal(a.colors, b.colors)
        np.testing.assert_array_equal(a.uncolored, b.uncolored)

    def test_forced_vu(self):
        """K3 with identical single-color lists: one vertex colored,
        two roll into Vu — in every engine."""
        gc = complete_graph(3)
        lists = np.zeros((3, 1), dtype=np.int64)
        for name in ALL_ENGINES:
            out = get_engine(name).color(gc, lists, rng=0)
            assert (out.colors >= 0).sum() == 1, name
            assert len(out.uncolored) == 2, name

    def test_padding_rows_join_vu(self):
        gc = empty_graph(3)
        lists = np.array([[0, 1], [-1, -1], [2, 0]], dtype=np.int64)
        for name in ("greedy-dynamic", "parallel-list"):
            out = get_engine(name).color(gc, lists, rng=0)
            assert out.colors[1] == -1, name
            np.testing.assert_array_equal(out.uncolored, [1])

    @pytest.mark.parametrize("name", ALL_ENGINES)
    def test_zero_vertices(self, name):
        out = get_engine(name).color(
            empty_graph(0), np.empty((0, 2), dtype=np.int64), rng=0
        )
        assert len(out.colors) == 0 and len(out.uncolored) == 0


class TestParallelListEngine:
    def test_deterministic_per_seed(self):
        gc, lists = _random_instance(11, n_lo=20, n_hi=60)
        a = get_engine("parallel-list").color(gc, lists, rng=5)
        b = get_engine("parallel-list").color(gc, lists, rng=5)
        np.testing.assert_array_equal(a.colors, b.colors)
        assert a.n_rounds == b.n_rounds

    def test_pool_matches_serial(self):
        """Rounds are pure functions of committed state, so the strip
        partition cannot change the output: serial, SerialExecutor and
        an n-worker pool produce identical colorings and Vu."""
        gc, lists = _random_instance(12, n_lo=30, n_hi=80)
        eng = get_engine("parallel-list")
        ref = eng.color(gc, lists, rng=9)
        ser = eng.color(gc, lists, rng=9, executor=SerialExecutor())
        np.testing.assert_array_equal(ref.colors, ser.colors)
        with PoolExecutor(_CI_WORKERS) as ex:
            par = eng.color(gc, lists, rng=9, executor=ex)
        np.testing.assert_array_equal(ref.colors, par.colors)
        np.testing.assert_array_equal(ref.uncolored, par.uncolored)
        assert ref.n_rounds == par.n_rounds

    def test_pool_spawn_matches_serial(self):
        """The fork-less path (Windows / macOS default) must agree too."""
        gc, lists = _random_instance(13, n_lo=20, n_hi=50)
        eng = get_engine("parallel-list")
        ref = eng.color(gc, lists, rng=2)
        with PoolExecutor(2, start_method="spawn") as ex:
            par = eng.color(gc, lists, rng=2, executor=ex)
        np.testing.assert_array_equal(ref.colors, par.colors)
        np.testing.assert_array_equal(ref.uncolored, par.uncolored)

    def test_rounds_reuse_one_pool_with_delta(self):
        """All rounds of one run go through a single persistent pool
        (same worker pids before and after), with the palette installed
        under a ``("color", ...)`` channel token."""
        gc, lists = _random_instance(14, n_lo=40, n_hi=90)
        with PoolExecutor(2) as ex:
            out = get_engine("parallel-list").color(gc, lists, rng=3, executor=ex)
            pids = ex.worker_pids()
            assert len(pids) == 2
            out2 = get_engine("parallel-list").color(gc, lists, rng=3, executor=ex)
            assert ex.worker_pids() == pids  # no pool churn across runs
        np.testing.assert_array_equal(out.colors, out2.colors)

    def test_max_rounds_knob(self):
        gc = complete_graph(4)
        lists = np.tile(np.arange(6, dtype=np.int64), (4, 1))
        out = get_engine("parallel-list", max_rounds=10).color(gc, lists, rng=0)
        assert out.n_rounds <= 10
        assert len(out.uncolored) == 0


class TestTokenChannels:
    def test_sweep_and_color_tokens_coexist(self):
        """The PR 4 seam: alternating sweep and coloring installs on one
        persistent pool must not evict each other's delta path."""
        from repro.core.conflict import build_conflict_graph
        from repro.core.palette import assign_color_lists

        ps = random_pauli_set(120, 6, seed=21)
        src = PauliComplementSource(ps)
        _, colmasks = assign_color_lists(ps.n, 16, 4, np.random.default_rng(0))
        gc, lists = _random_instance(22, n_lo=40, n_hi=80)
        eng = get_engine("parallel-list")
        with PoolExecutor(2) as ex:
            ref_g, m_ref = build_conflict_graph(
                ps.n, src.edge_mask, colmasks
            )
            ref_c = eng.color(gc, lists, rng=4)
            for _ in range(2):
                g, m = build_conflict_graph(
                    ps.n, src.edge_mask, colmasks, executor=ex, source=src
                )
                assert m == m_ref
                np.testing.assert_array_equal(g.offsets, ref_g.offsets)
                np.testing.assert_array_equal(g.targets, ref_g.targets)
                sweep_token = ex._installed_token
                assert sweep_token is not None and sweep_token[0] == "sweep"
                out = eng.color(gc, lists, rng=4, executor=ex)
                np.testing.assert_array_equal(out.colors, ref_c.colors)
                # The color install did not evict the sweep channel.
                assert ex.holds_token(sweep_token)


class TestPicassoEndToEnd:
    def test_parallel_list_end_to_end(self):
        """Acceptance: ``PicassoParams(color_engine="parallel-list")``
        produces a valid list coloring with Vu rollover preserved and
        per-seed deterministic output for a fixed worker count."""
        ps = random_pauli_set(400, 10, seed=30)
        params = PicassoParams(color_engine="parallel-list")
        r1 = Picasso(params=params, seed=7).color(ps)
        assert PauliComplementSource(ps).validate(r1.colors)
        assert r1.engine == "parallel-list"
        assert r1.stats["color_rounds"] >= r1.n_iterations
        r2 = Picasso(params=params, seed=7).color(ps)
        np.testing.assert_array_equal(r1.colors, r2.colors)

    def test_worker_count_invariant(self):
        """Round-synchronous rounds are partition-independent, so even
        across worker counts the coloring is identical."""
        ps = random_pauli_set(300, 8, seed=31)
        base = PicassoParams(color_engine="parallel-list")
        ref = Picasso(params=base, seed=3).color(ps)
        par = Picasso(
            params=base.with_(n_workers=_CI_WORKERS), seed=3
        ).color(ps)
        np.testing.assert_array_equal(ref.colors, par.colors)

    def test_auto_resolution_preserves_legacy_pairing(self):
        assert PicassoParams().resolved_color_engine() == "greedy-dynamic"
        assert PicassoParams(engine="pairs").resolved_color_engine() == "sets"
        p = PicassoParams(conflict_order="lf")
        assert p.resolved_color_engine() == "greedy-static"
        assert p.color_engine_knobs() == {"order": "lf"}
        q = PicassoParams(color_engine="sets", engine="tiled")
        assert q.resolved_color_engine() == "sets"

    def test_unknown_color_engine_rejected(self):
        with pytest.raises(ValueError, match="color_engine"):
            PicassoParams(color_engine="bogus")

    def test_explicit_engines_all_valid(self):
        ps = random_pauli_set(150, 6, seed=32)
        for name in ALL_ENGINES:
            r = Picasso(
                params=PicassoParams(color_engine=name), seed=1
            ).color(ps)
            assert PauliComplementSource(ps).validate(r.colors), name
            assert r.engine == name


class TestDeviceCharging:
    def test_palette_scratch_charged_and_freed(self):
        gc, lists = _random_instance(40, n_lo=30, n_hi=60)
        for name in ALL_ENGINES:
            device = DeviceSim(budget_bytes=1 << 20)
            out = get_engine(name).color(gc, lists, rng=0, device=device)
            assert device.used_bytes == 0, name  # freed on exit
            assert device.peak_bytes > 0, name
            assert_valid_outcome(gc, lists, out)

    def test_scratch_oom_propagates(self):
        gc, lists = _random_instance(41, n_lo=50, n_hi=80)
        from repro.device.sim import DeviceOutOfMemory

        device = DeviceSim(budget_bytes=16)
        with pytest.raises(DeviceOutOfMemory):
            get_engine("parallel-list").color(gc, lists, rng=0, device=device)
        assert device.used_bytes == 0


class TestBaselineProvenance:
    def test_uniform_engine_and_rounds(self):
        ps = random_pauli_set(120, 6, seed=50)
        g = complement_graph(ps)
        results: list[ColoringResult] = [
            greedy_coloring(g, "dlf"),
            jones_plassmann_ldf(g, seed=0),
            speculative_coloring(g, seed=0),
            luby_coloring(g, seed=0),
        ]
        for r in results:
            assert r.engine, r.algorithm
            assert r.n_rounds >= 1, r.algorithm
            assert r.peak_bytes > 0, r.algorithm


class TestShim:
    def test_repro_core_import_does_not_warn(self):
        """`import repro.core` alone never raises a DeprecationWarning."""
        import subprocess
        import sys

        proc = subprocess.run(
            [sys.executable, "-W", "error::DeprecationWarning", "-c",
             "import repro.core"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
