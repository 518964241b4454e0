"""Color-bucket conflict kernel: index, pair generation, the kernel rule,
and byte-identical CSRs against the tile kernel on every host path."""

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.core.conflict import build_conflict_graph, count_conflict_edges
from repro.core.palette import assign_color_lists
from repro.core.sources import ExplicitGraphSource, PauliComplementSource
from repro.device.buckets import (
    BUCKET_PAIR_COST,
    ColorBuckets,
    bucket_kernel_wins,
    generated_pair_count,
    list_entries,
    plan_sweep,
)
from repro.graphs import erdos_renyi
from repro.parallel.executor import PoolExecutor
from repro.pauli import random_pauli_set
from repro.util.bits import bitset_indices
from repro.util.chunking import num_pairs

_N_WORKERS = int(os.environ.get("REPRO_TEST_N_WORKERS", "2"))


def _masks(n, palette, list_size, seed=0):
    return assign_color_lists(n, palette, list_size, rng=seed)


def _brute_sharing_pairs(lists):
    sets = [set(map(int, row)) for row in lists]
    return [
        (i, j)
        for i in range(len(sets))
        for j in range(i + 1, len(sets))
        if sets[i] & sets[j]
    ]


def _assert_same_csr(got, ref):
    np.testing.assert_array_equal(got.offsets, ref.offsets)
    np.testing.assert_array_equal(got.targets, ref.targets)
    assert got.offsets.dtype == ref.offsets.dtype
    assert got.targets.dtype == ref.targets.dtype


def _build(src, masks, kernel, **kw):
    return build_conflict_graph(
        src.n, src.edge_mask, masks, src.edge_block, kernel=kernel, **kw
    )


class TestIndex:
    def test_entries_are_the_list_bits(self):
        lists, masks = _masks(90, 150, 9, seed=4)
        verts, colors = list_entries(masks)
        for v in range(90):
            np.testing.assert_array_equal(
                np.sort(colors[verts == v]), bitset_indices(masks[v])
            )

    def test_empty_masks(self):
        verts, colors = list_entries(np.zeros((5, 2), dtype=np.uint64))
        assert len(verts) == len(colors) == 0
        empty = ColorBuckets.from_masks(np.zeros((5, 2), dtype=np.uint64))
        assert not empty.row_weights().any()

    def test_generated_pairs_is_bucket_pair_sum(self):
        lists, masks = _masks(70, 20, 5, seed=1)
        sizes = np.bincount(lists.ravel(), minlength=20)
        g = int(sum(s * (s - 1) // 2 for s in sizes))
        _, colors = list_entries(masks)
        assert generated_pair_count(colors, 64) == g
        assert int(ColorBuckets.from_masks(masks).row_weights().sum()) == g

    def test_candidates_are_exactly_the_sharing_pairs(self):
        lists, masks = _masks(60, 25, 4, seed=2)
        buckets = ColorBuckets.from_masks(masks)
        i, j = buckets.candidate_pairs(0, 60)
        assert list(zip(i.tolist(), j.tolist())) == _brute_sharing_pairs(lists)

    def test_row_chunks_cover_rows_in_order(self):
        _, masks = _masks(80, 30, 6, seed=3)
        buckets = ColorBuckets.from_masks(masks)
        whole = buckets.candidate_pairs(0, 80)
        parts = [buckets.candidate_pairs(a, b) for a, b in buckets.row_chunks(0, 80, chunk=40)]
        assert len(parts) > 3
        np.testing.assert_array_equal(np.concatenate([p[0] for p in parts]), whole[0])
        np.testing.assert_array_equal(np.concatenate([p[1] for p in parts]), whole[1])


class TestRule:
    def test_full_lists_always_pick_tile(self):
        # L = P: every pair shares all P colors, G = P * n(n-1)/2.
        for palette in (1, 2, 30, 64, 65, 200):
            _, masks = _masks(50, palette, palette)
            _, colors = list_entries(masks)
            g = generated_pair_count(colors, 64 * masks.shape[1])
            assert g == palette * num_pairs(50)
            assert not bucket_kernel_wins(50, masks.shape[1], g)

    def test_sparse_lists_pick_bucket(self):
        # Normal-preset shape at n = 10k: G / (n(n-1)/2 W) ~ 1/77.
        n, words = 10_000, 20
        g = num_pairs(n) * 26 // 100
        assert bucket_kernel_wins(n, words, g)
        assert BUCKET_PAIR_COST > 1.0

    def test_plan_respects_forced_kernels(self):
        _, masks = _masks(40, 8, 8)
        src = PauliComplementSource(random_pauli_set(40, 6, seed=0))
        assert plan_sweep(40, masks, "auto", src.edge_mask) is None
        assert plan_sweep(40, masks, "tile", src.edge_mask) is None
        assert plan_sweep(40, masks, "bucket", src.edge_mask) is not None
        # No pairwise oracle: only the tile kernel can run.
        assert plan_sweep(40, masks, "bucket", None) is None
        with pytest.raises(ValueError):
            plan_sweep(40, masks, "pairs", src.edge_mask)

    def test_h6_aggressive_picks_tile_every_iteration(self):
        from repro.chemistry.hamiltonian import hn_pauli_set
        from repro.core import Picasso
        from repro.core.params import aggressive_params

        ps = hn_pauli_set(6, 2, "sto3g")
        telemetry.reset()
        telemetry.enable(False)
        try:
            result = Picasso(
                aggressive_params(executor="serial", telemetry=True), seed=1
            ).color(ps)
            counters = result.telemetry["counters"]
        finally:
            telemetry.reset()
            telemetry.enable(False)
        assert result.n_iterations > 20
        assert counters.get("sweep.kernel{kernel=bucket}", 0) == 0
        assert counters["sweep.kernel{kernel=tile}"] == result.n_iterations


class TestSerialEquivalence:
    @pytest.mark.parametrize("n,palette,list_size", [
        (300, 40, 5),      # several tiles of 64 rows below
        (50, 1, 1),        # P = 1: one bucket holds everyone
        (120, 12, 12),     # L = P
        (30, 200, 3),      # n below one tile, sparse
    ])
    def test_bucket_csr_byte_identical(self, n, palette, list_size):
        src = PauliComplementSource(random_pauli_set(n, 7, seed=n))
        _, masks = _masks(n, palette, list_size, seed=7)
        ref, m = _build(src, masks, "tile", tile_bytes=1)
        got, m2 = _build(src, masks, "bucket")
        assert m == m2
        _assert_same_csr(got, ref)

    def test_count_conflict_edges_agrees(self):
        src = PauliComplementSource(random_pauli_set(200, 7, seed=3))
        _, masks = _masks(200, 30, 4, seed=3)
        counts = {
            k: count_conflict_edges(200, src.edge_mask, masks, src.edge_block, kernel=k)
            for k in ("tile", "bucket", "auto")
        }
        assert len(set(counts.values())) == 1


@given(
    n=st.integers(min_value=2, max_value=160),
    palette=st.integers(min_value=1, max_value=150),
    list_frac=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(min_value=0, max_value=2**16),
    explicit=st.booleans(),
)
@settings(max_examples=40, deadline=None)
def test_bucket_matches_tile_property(n, palette, list_frac, seed, explicit):
    list_size = max(1, min(palette, round(list_frac * palette)))
    if explicit:
        source = ExplicitGraphSource(erdos_renyi(n, 0.4, seed=seed))
    else:
        # Three qubits and no uniqueness: duplicate strings are common.
        source = PauliComplementSource(
            random_pauli_set(n, 3, seed=seed, unique=False)
        )
    _, masks = _masks(n, palette, list_size, seed=seed)
    ref, m = _build(source, masks, "tile", tile_bytes=1)
    got, m2 = _build(source, masks, "bucket")
    assert m == m2
    _assert_same_csr(got, ref)


class TestPoolEquivalence:
    @pytest.mark.parametrize("shm", [False, True], ids=["pickle", "shm"])
    def test_pool_bucket_matches_serial_tile(self, shm):
        ps = random_pauli_set(400, 8, seed=11)
        src = PauliComplementSource(ps)
        _, masks = _masks(400, 60, 6, seed=11)
        ref, m = _build(src, masks, "tile")
        with PoolExecutor(_N_WORKERS) as ex:
            for kernel in ("bucket", "tile"):
                got, m2 = _build(
                    src, masks, kernel, executor=ex, shm=shm, source=src
                )
                assert m2 == m
                _assert_same_csr(got, ref)


@given(
    n=st.integers(min_value=1, max_value=1300),
    palette=st.integers(min_value=1, max_value=300),
    list_size=st.integers(min_value=1, max_value=12),
    seed=st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=25, deadline=None)
def test_blockwise_row_weights_match_the_index(n, palette, list_size, seed):
    from repro.device.buckets import row_pair_weights

    _, masks = _masks(n, palette, min(list_size, palette), seed=seed)
    np.testing.assert_array_equal(
        row_pair_weights(masks), ColorBuckets.from_masks(masks).row_weights()
    )
