"""Integration tests for the Picasso driver (Algorithm 1)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    Picasso,
    PicassoParams,
    aggressive_params,
    normal_params,
    picasso_color,
)
from repro.core.sources import PauliComplementSource
from repro.coloring import greedy_coloring
from repro.graphs import complement_graph, complete_graph, erdos_renyi
from repro.pauli import random_pauli_set


class TestPauliWorkload:
    def test_proper_and_complete(self):
        ps = random_pauli_set(120, 6, seed=0)
        r = picasso_color(ps, seed=1)
        assert (r.colors >= 0).all()
        assert PauliComplementSource(ps).validate(r.colors)

    def test_matches_explicit_graph_coloring_validity(self):
        ps = random_pauli_set(80, 5, seed=2)
        r = picasso_color(ps, seed=3)
        g = complement_graph(ps)
        assert g.validate_coloring(r.colors)

    def test_aggressive_fewer_colors_than_normal(self):
        """Paper Table III: aggressive < normal color count (statistically)."""
        wins = 0
        for seed in range(5):
            ps = random_pauli_set(150, 6, seed=seed)
            c_norm = picasso_color(ps, normal_params(), seed=seed).n_colors
            c_aggr = picasso_color(ps, aggressive_params(), seed=seed).n_colors
            wins += c_aggr <= c_norm
        assert wins >= 4

    def test_reproducible(self):
        ps = random_pauli_set(60, 5, seed=4)
        a = picasso_color(ps, seed=9)
        b = picasso_color(ps, seed=9)
        np.testing.assert_array_equal(a.colors, b.colors)

    def test_seeds_differ(self):
        ps = random_pauli_set(60, 5, seed=4)
        a = picasso_color(ps, seed=1)
        b = picasso_color(ps, seed=2)
        assert (a.colors != b.colors).any()


class TestEngines:
    def test_tiled_and_pairs_identical_colorings(self):
        """Both engines build identical conflict graphs and draw the
        same random numbers, so whole runs must match bit for bit."""
        for seed in range(3):
            ps = random_pauli_set(140, 6, seed=seed)
            rt = picasso_color(ps, PicassoParams(engine="tiled"), seed=seed)
            rp = picasso_color(ps, PicassoParams(engine="pairs"), seed=seed)
            np.testing.assert_array_equal(rt.colors, rp.colors)
            assert rt.n_iterations == rp.n_iterations

    def test_tiled_engine_on_explicit_graph(self):
        g = erdos_renyi(90, 0.4, seed=21)
        rt = picasso_color(g, PicassoParams(engine="tiled"), seed=2)
        rp = picasso_color(g, PicassoParams(engine="pairs"), seed=2)
        np.testing.assert_array_equal(rt.colors, rp.colors)
        assert g.validate_coloring(rt.colors)

    def test_tile_budget_knob(self):
        ps = random_pauli_set(80, 5, seed=1)
        r = picasso_color(
            ps,
            PicassoParams(engine="tiled", tile_budget_bytes=1 << 13),
            seed=4,
        )
        assert PauliComplementSource(ps).validate(r.colors)

    def test_engine_validated(self):
        with pytest.raises(ValueError):
            PicassoParams(engine="bogus")
        with pytest.raises(ValueError):
            PicassoParams(tile_budget_bytes=0)


class TestExplicitGraphWorkload:
    def test_random_graph(self):
        g = erdos_renyi(100, 0.5, seed=5)
        r = picasso_color(g, seed=0)
        assert g.validate_coloring(r.colors)

    def test_complete_graph_needs_n_colors(self):
        g = complete_graph(12)
        r = picasso_color(g, seed=0)
        assert r.n_colors == 12

    def test_sparse_graph(self):
        g = erdos_renyi(200, 0.02, seed=6)
        r = picasso_color(g, seed=0)
        assert g.validate_coloring(r.colors)

    def test_type_error(self):
        with pytest.raises(TypeError):
            picasso_color("not a graph")

    @given(st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=10, deadline=None)
    def test_random_instances_proper(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(5, 80))
        g = erdos_renyi(n, float(rng.random()), seed=seed)
        r = picasso_color(g, seed=seed)
        assert g.validate_coloring(r.colors)


class TestIterationTrace:
    def test_stats_populated(self):
        ps = random_pauli_set(100, 6, seed=7)
        r = picasso_color(ps, seed=0)
        assert r.n_iterations >= 1
        total_colored = sum(s.n_colored for s in r.iterations)
        assert total_colored == 100
        first = r.iterations[0]
        assert first.n_active == 100
        assert first.palette_size == round(0.125 * 100)
        assert first.list_size >= 1
        assert r.max_conflict_edges >= 0
        phases = r.phase_times()
        assert set(phases) == {
            "assignment", "conflict_graph", "conflict_coloring",
            "sweep", "assemble", "edge_sweep",
        }
        # The build splits into its sweep/assemble sub-buckets.
        assert phases["sweep"] > 0.0
        assert phases["assemble"] > 0.0

    def test_unfused_edge_sweep_measured(self):
        # The degree scan + relabel is a pass of its own after the
        # build, not fused into it, so its bucket is measured.
        ps = random_pauli_set(100, 6, seed=7)
        r = picasso_color(ps, seed=0)
        assert r.phase_times()["edge_sweep"] > 0.0

    def test_active_counts_decrease(self):
        ps = random_pauli_set(150, 6, seed=8)
        r = picasso_color(ps, seed=0)
        actives = [s.n_active for s in r.iterations]
        assert all(a > b for a, b in zip(actives, actives[1:]))

    def test_fresh_palette_per_iteration(self):
        """Colors used in iteration l+1 must not collide with iteration l
        (palette offset discipline)."""
        ps = random_pauli_set(150, 6, seed=9)
        params = PicassoParams(palette_fraction=0.05, alpha=1.0)
        r = picasso_color(ps, params, seed=0)
        assert r.n_iterations >= 2  # need multiple iterations to test
        # Track which global colors each iteration could emit.
        base = 0
        for s in r.iterations:
            lo, hi = base, base + s.palette_size
            emitted = r.colors[
                (r.colors >= lo) & (r.colors < hi)
            ]
            base = hi
        assert r.colors.max() < base

    def test_total_palette_recorded(self):
        ps = random_pauli_set(80, 5, seed=10)
        r = picasso_color(ps, seed=0)
        assert r.stats["total_palette_colors"] == sum(
            s.palette_size for s in r.iterations
        )

    def test_peak_bytes_positive(self):
        ps = random_pauli_set(80, 5, seed=11)
        r = picasso_color(ps, seed=0)
        assert r.peak_bytes > 0


class TestParameterTradeoffs:
    def test_smaller_palette_fewer_colors_more_conflicts(self):
        """Fig. 5's central trade-off, statistically."""
        ps = random_pauli_set(200, 6, seed=12)
        small = picasso_color(
            ps, PicassoParams(palette_fraction=0.04, alpha=3.0), seed=0
        )
        large = picasso_color(
            ps, PicassoParams(palette_fraction=0.4, alpha=3.0), seed=0
        )
        assert small.n_colors <= large.n_colors
        assert small.max_conflict_edges >= large.max_conflict_edges

    def test_quality_within_2x_of_greedy_dlf(self):
        ps = random_pauli_set(150, 6, seed=13)
        g = complement_graph(ps)
        ref = greedy_coloring(g, "dlf").n_colors
        r = picasso_color(ps, aggressive_params(), seed=0)
        assert r.n_colors <= 2 * ref

    def test_memory_below_explicit_graph(self):
        """Table IV's headline: streaming beats explicit CSR residency.

        The saving factor is ~n / log^2 n (Lemma 2), so at toy scale it
        is modest but must (a) exceed 1 beyond the crossover and
        (b) grow with n.
        """
        ratios = []
        for n in (800, 1600):
            ps = random_pauli_set(n, 8, seed=14)
            g = complement_graph(ps)
            r = picasso_color(ps, normal_params(), seed=0)
            ratios.append(g.nbytes / r.peak_bytes)
        assert ratios[-1] > 1.1
        assert ratios[1] > ratios[0]

    def test_static_conflict_order_works(self):
        ps = random_pauli_set(80, 5, seed=15)
        for order in ("natural", "random", "lf"):
            r = picasso_color(
                ps, PicassoParams(conflict_order=order), seed=0
            )
            assert PauliComplementSource(ps).validate(r.colors)

    def test_max_iterations_enforced(self):
        ps = random_pauli_set(100, 6, seed=16)
        params = PicassoParams(
            palette_fraction=0.01,
            alpha=30.0,
            max_iterations=1,
            grow_on_stall=1.0,
        )
        with pytest.raises(RuntimeError, match="did not converge"):
            picasso_color(ps, params, seed=0)

    def test_single_vertex(self):
        ps = random_pauli_set(1, 4, seed=0)
        r = picasso_color(ps, seed=0)
        assert r.n_colors == 1
