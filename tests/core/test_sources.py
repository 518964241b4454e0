"""Tests for edge sources (streaming Pauli complement vs explicit graph)."""

import numpy as np
import pytest

from repro.core.sources import ExplicitGraphSource, PauliComplementSource
from repro.graphs import complement_graph, erdos_renyi
from repro.pauli import random_pauli_set


class TestPauliComplementSource:
    def test_matches_explicit_complement(self):
        ps = random_pauli_set(30, 5, seed=0)
        src = PauliComplementSource(ps)
        g = complement_graph(ps)
        ii, jj = np.triu_indices(30, k=1)
        mask = src.edge_mask(ii, jj).astype(bool)
        expected = np.array([g.has_edge(a, b) for a, b in zip(ii, jj)])
        np.testing.assert_array_equal(mask, expected)

    def test_subset_consistent(self):
        ps = random_pauli_set(25, 5, seed=1)
        src = PauliComplementSource(ps)
        idx = np.array([3, 7, 11, 20])
        sub = src.subset(idx)
        assert sub.n == 4
        ii, jj = np.triu_indices(4, k=1)
        np.testing.assert_array_equal(
            sub.edge_mask(ii, jj), src.edge_mask(idx[ii], idx[jj])
        )

    def test_nbytes_excludes_graph(self):
        """The whole point: resident bytes scale with n, not n^2."""
        small = PauliComplementSource(random_pauli_set(50, 6, seed=2))
        big = PauliComplementSource(random_pauli_set(500, 6, seed=2))
        assert big.nbytes < 50 * small.nbytes  # linear-ish, not 100x

    def test_validate_accepts_proper(self):
        ps = random_pauli_set(20, 4, seed=3)
        src = PauliComplementSource(ps)
        colors = np.arange(20)  # rainbow is always proper
        assert src.validate(colors)

    def test_validate_rejects_monochrome_edge(self):
        ps = random_pauli_set(20, 4, seed=3)
        src = PauliComplementSource(ps)
        g = complement_graph(ps)
        e = g.edges()[0]
        colors = np.arange(20)
        colors[e[1]] = colors[e[0]]
        assert not src.validate(colors)

    def test_validate_rejects_uncolored(self):
        ps = random_pauli_set(10, 4, seed=4)
        src = PauliComplementSource(ps)
        colors = np.arange(10)
        colors[0] = -1
        assert not src.validate(colors)

    def test_validate_rejects_one_commuting_pair_at_high_ids(self):
        # A rainbow coloring except for one same-color commuting pair
        # among the last vertices: the within-class check must find it.
        ps = random_pauli_set(300, 6, seed=6)
        src = PauliComplementSource(ps)
        hi = np.arange(250, 300)
        ii, jj = np.triu_indices(len(hi), k=1)
        commute = src.edge_mask(hi[ii], hi[jj]).astype(bool)
        a, b = hi[ii[commute][-1]], hi[jj[commute][-1]]
        colors = np.arange(300)
        assert src.validate(colors)
        colors[b] = colors[a]
        assert not src.validate(colors)

    def test_validate_rejects_vertex_left_uncolored(self):
        ps = random_pauli_set(50, 5, seed=7)
        src = PauliComplementSource(ps)
        colors = np.arange(50)
        colors[49] = -1
        assert not src.validate(colors)
        # A lone -1 shares its "class" with nobody: the uncolored check
        # must reject it on its own.
        assert not src.validate(np.full(50, -1))

    @pytest.mark.parametrize("seed", range(6))
    def test_validate_agrees_with_all_pairs(self, seed):
        rng = np.random.default_rng(seed)
        ps = random_pauli_set(60, 4, seed=seed)
        src = PauliComplementSource(ps)
        ii, jj = np.triu_indices(60, k=1)
        commute = src.edge_mask(ii, jj).astype(bool)
        colorings = [rng.integers(0, k, 60) for k in (2, 8, 30, 55)]
        colorings.append(rng.permutation(60))  # rainbow: always proper
        for colors in colorings:
            brute = not (commute & (colors[ii] == colors[jj])).any()
            assert src.validate(colors) == brute


class TestExplicitGraphSource:
    def test_edge_mask_matches_graph(self):
        g = erdos_renyi(40, 0.3, seed=0)
        src = ExplicitGraphSource(g)
        ii, jj = np.triu_indices(40, k=1)
        mask = src.edge_mask(ii, jj).astype(bool)
        expected = np.array([g.has_edge(a, b) for a, b in zip(ii, jj)])
        np.testing.assert_array_equal(mask, expected)

    def test_isolated_vertices(self):
        g = erdos_renyi(10, 0.0, seed=0)
        src = ExplicitGraphSource(g)
        ii, jj = np.triu_indices(10, k=1)
        assert src.edge_mask(ii, jj).sum() == 0

    def test_subset(self):
        g = erdos_renyi(30, 0.5, seed=1)
        src = ExplicitGraphSource(g)
        idx = np.array([0, 5, 10, 15, 29])
        sub = src.subset(idx)
        ii, jj = np.triu_indices(5, k=1)
        np.testing.assert_array_equal(
            sub.edge_mask(ii, jj), src.edge_mask(idx[ii], idx[jj])
        )

    def test_validate_delegates(self):
        g = erdos_renyi(15, 0.4, seed=2)
        src = ExplicitGraphSource(g)
        assert src.validate(np.arange(15))
        bad = np.zeros(15, dtype=np.int64)
        if g.n_edges:
            assert not src.validate(bad)

    def test_nbytes_includes_graph(self):
        g = erdos_renyi(50, 0.5, seed=3)
        src = ExplicitGraphSource(g)
        assert src.nbytes >= g.nbytes
