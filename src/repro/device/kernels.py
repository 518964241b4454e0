"""Vectorized "device" kernels.

Each function is the NumPy analog of one CUDA kernel of the paper's §V
implementation: it consumes flat pair-index chunks (one SIMT thread per
unordered pair) and whole-array buffers.  The same functions back the
host path; the device path differs only in that its buffers are
accounted against a :class:`repro.device.sim.DeviceSim` budget.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator

import numpy as np

from repro.util.bits import popcount_rows
from repro.util.chunking import num_pairs, pair_index_to_ij

#: Type of the complement-edge oracle: (i, j) -> uint8 mask (1 = edge of
#: the graph being colored exists between i and j).
EdgeMaskFn = Callable[[np.ndarray, np.ndarray], np.ndarray]


def lists_intersect_kernel(
    colmasks: np.ndarray, i: np.ndarray, j: np.ndarray
) -> np.ndarray:
    """uint8 mask: 1 where the color lists of ``i`` and ``j`` intersect.

    ``colmasks`` is the packed palette bitset matrix ``(n, W)``; the
    test is a word-wise AND + any-bit check (the sorted-list O(L) merge
    of §IV-A collapsed into SIMD popcounts).
    """
    return (popcount_rows(colmasks[i] & colmasks[j]) > 0).astype(np.uint8)


def lists_intersect_sorted(
    sorted_lists: np.ndarray, i: np.ndarray, j: np.ndarray
) -> np.ndarray:
    """The paper's O(L) sorted-merge intersection test (§IV-A), batched.

    ``sorted_lists`` is the ``(n, L)`` candidate matrix with each row
    pre-sorted.  Kept as an ablation/reference for the bitset kernel
    (:func:`lists_intersect_kernel`), which wins once L exceeds a few
    words — tested equivalent.
    """
    a = sorted_lists[i]
    b = sorted_lists[j]
    m, L = a.shape
    out = np.zeros(m, dtype=np.uint8)
    # Vectorized merge: advance per-pair pointers until hit or exhaustion.
    pa = np.zeros(m, dtype=np.int64)
    pb = np.zeros(m, dtype=np.int64)
    live = np.ones(m, dtype=bool)
    rows = np.arange(m)
    while live.any():
        r = rows[live]
        va = a[r, pa[r]]
        vb = b[r, pb[r]]
        hit = va == vb
        out[r[hit]] = 1
        live[r[hit]] = False
        adv_a = va < vb
        pa[r[adv_a]] += 1
        pb[r[~hit & ~adv_a]] += 1
        done = (pa >= L) | (pb >= L)
        live &= ~done
    return out


def conflict_pair_kernel(
    edge_mask_fn: EdgeMaskFn,
    colmasks: np.ndarray,
    i: np.ndarray,
    j: np.ndarray,
) -> np.ndarray:
    """The fused §V kernel: a pair is a conflict edge iff it is an edge
    of the graph being colored AND the endpoints share a candidate color.

    Evaluates the cheap list intersection first and consults the edge
    oracle only on surviving pairs — the same work-skipping the CUDA
    kernel gets from its early-exit branch.
    """
    shared = lists_intersect_kernel(colmasks, i, j).astype(bool)
    out = np.zeros(len(i), dtype=np.uint8)
    if shared.any():
        sub_i = i[shared]
        sub_j = j[shared]
        out[shared] = edge_mask_fn(sub_i, sub_j)
    return out


def conflict_pair_hits(
    n: int,
    edge_mask_fn: EdgeMaskFn,
    colmasks: np.ndarray,
    start: int = 0,
    stop: int | None = None,
    chunk_size: int = 1 << 18,
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Conflict edges of the flat pair slice ``[start, stop)`` (default:
    all pairs), yielded as one ``(i, j)`` chunk per ``chunk_size`` pairs.

    Runs :func:`conflict_pair_kernel` in flat-index (row-major) order,
    so the chunks feed :func:`repro.graphs.csr.csr_from_coo_chunks` the
    same per-vertex arc order as the tiled sweep.  Needs no block
    scratch — the device build's fallback when a minimum tile does not
    fit, the multi-device per-slice sweep, and the tests' reference.
    """
    if chunk_size <= 0:
        raise ValueError("chunk_size must be positive")
    if stop is None:
        stop = num_pairs(n)
    for s in range(start, stop, chunk_size):
        k = np.arange(s, min(s + chunk_size, stop), dtype=np.int64)
        i, j = pair_index_to_ij(k, n)
        mask = conflict_pair_kernel(edge_mask_fn, colmasks, i, j).astype(bool)
        yield i[mask], j[mask]


def conflict_pair_kernel_python(
    edge_mask_fn: EdgeMaskFn,
    col_lists: list[set[int]],
    i: np.ndarray,
    j: np.ndarray,
) -> np.ndarray:
    """Scalar reference implementation (the paper's "CPU only" row in
    Table V): per-pair Python loop with set intersection.  Used only by
    the speedup benchmark and as a correctness oracle in tests."""
    out = np.zeros(len(i), dtype=np.uint8)
    edge = edge_mask_fn(np.asarray(i), np.asarray(j))
    for k in range(len(i)):
        if edge[k] and col_lists[int(i[k])] & col_lists[int(j[k])]:
            out[k] = 1
    return out
