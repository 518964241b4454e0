"""Greedy list coloring of the conflict graph (paper §IV-B, Algorithm 2).

Given the conflict graph ``Gc`` and each vertex's candidate color list,
assign every vertex a color *from its own list* such that no conflict
edge is monochrome.  Vertices whose list empties out stay uncolored and
roll over to the next Picasso iteration (the set ``Vu``).

Home of the serial Algorithm 2 machinery: :mod:`repro.coloring.engine`
wraps these functions behind the
:class:`~repro.coloring.engine.ListColoringEngine` registry.

Three schemes:

- :func:`greedy_list_color_dynamic` — Algorithm 2 on packed palette
  *bitsets*: always color a vertex with the currently smallest list
  ("most constrained first").  Candidate lists live in a ``(n, W)``
  uint64 bitset matrix, neighbor updates are one vectorized word mask
  per step, and the smallest-list priority structure is flat int-array
  bucket queues (value = list size) with O(1) swap-removal — no Python
  ``set`` objects or list-of-lists on the hot path.
- :func:`greedy_list_color_dynamic_sets` — the original Python-``set``
  implementation, kept as the seeded-equivalence reference and as the
  legacy half of the tiled-vs-gather ablation.  Both dynamic variants
  draw the same random numbers and make identical choices, so they
  produce identical colorings for a given seed (property-tested).
- :func:`greedy_list_color_static` — process vertices in a fixed order
  (natural / random / largest-degree-first), taking the first list
  color not used by an already-colored neighbor.  The paper reports
  dynamic ordering colors better; the static variants are kept for the
  ablation.

Random choices are canonical in both dynamic variants: the vertex is
drawn uniformly from the lowest bucket (by position), and the color is
drawn uniformly from the vertex's surviving candidates *in ascending
color order* — the natural order of a bitset scan.
"""

from __future__ import annotations

import numpy as np

from repro.graphs.csr import CSRGraph
from repro.util.bits import bitset_from_lists, bitset_indices, popcount_rows
from repro.util.rng import as_generator


def greedy_list_color_dynamic(
    gc: CSRGraph,
    col_lists: np.ndarray,
    rng: np.random.Generator | int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Algorithm 2: bucket-based dynamic greedy list coloring on bitsets.

    Parameters
    ----------
    gc:
        Conflict graph (local vertex ids ``0..n-1``).
    col_lists:
        ``(n, L)`` matrix of local candidate color ids.  Negative
        entries are treated as padding and ignored.
    rng:
        Drives the uniform choices of Algorithm 2 (vertex from lowest
        bucket, color from list).

    Returns
    -------
    (colors, uncolored):
        ``colors`` holds a local palette id per vertex (-1 where the
        list emptied); ``uncolored`` is the sorted array ``Vu``.
    """
    rng = as_generator(rng)
    n = gc.n_vertices
    col_lists = np.asarray(col_lists, dtype=np.int64)
    if col_lists.shape[0] != n:
        raise ValueError("col_lists rows must match vertex count")
    colors = np.full(n, -1, dtype=np.int64)
    if n == 0:
        return colors, np.empty(0, dtype=np.int64)

    # Packed per-vertex candidate bitsets over the local palette
    # (duplicates in a row collapse, exactly like the set() reference).
    nbits = int(col_lists.max()) + 1 if col_lists.size else 1
    masks = bitset_from_lists(col_lists, max(nbits, 1))
    sizes = popcount_rows(masks)
    max_size = int(sizes.max())

    # Flat int-array bucket queues: bucket s holds the unprocessed
    # vertices whose list currently has s candidates.  Each bucket is a
    # growable int64 array with a fill count; `pos` gives every
    # vertex's slot in its bucket so removal is an O(1) swap with the
    # last element (the paper's auxiliary-array trick).  Initial
    # population order is vertex-ascending, matching the reference.
    bucket_count = np.zeros(max_size + 1, dtype=np.int64)
    init_counts = np.bincount(sizes, minlength=max_size + 1)
    buckets = [np.empty(int(c), dtype=np.int64) for c in init_counts]
    pos = np.empty(n, dtype=np.int64)
    order = np.argsort(sizes, kind="stable")
    starts = np.zeros(max_size + 2, dtype=np.int64)
    np.cumsum(init_counts, out=starts[1:])
    for s in range(max_size + 1):
        members = order[starts[s] : starts[s + 1]]
        buckets[s][: len(members)] = members
        pos[members] = np.arange(len(members))
        bucket_count[s] = len(members)

    processed = np.zeros(n, dtype=bool)
    uncolored: list[int] = []
    n_processed = 0

    # One upfront widening of the adjacency (int32 CSR ids) beats a
    # per-step astype on every neighbor slice.
    row_offsets = gc.offsets
    targets64 = gc.targets.astype(np.int64, copy=False)

    # Degenerate all-padding rows have no candidates at all: they join
    # Vu immediately (the reference predates padding and never sees
    # such rows on the Picasso path).
    empty0 = buckets[0][: bucket_count[0]]
    if len(empty0):
        processed[empty0] = True
        n_processed += len(empty0)
        uncolored.extend(int(v) for v in empty0)
        bucket_count[0] = 0

    lowest = 0
    while n_processed < n:
        # Lowest non-empty bucket: sizes only decrease for unprocessed
        # vertices, so scanning upward after resets stays O(L) per step.
        while lowest <= max_size and bucket_count[lowest] == 0:
            lowest += 1
        buf = buckets[lowest]
        cnt = int(bucket_count[lowest])
        idx = int(rng.integers(cnt)) if cnt > 1 else 0
        v = int(buf[idx])

        # Swap-remove v from its bucket.
        last = buf[cnt - 1]
        buf[idx] = last
        pos[last] = idx
        bucket_count[lowest] = cnt - 1
        processed[v] = True
        n_processed += 1

        # Uniform color from the surviving candidates (ascending order).
        k = int(sizes[v])
        r = int(rng.integers(k)) if k > 1 else 0
        c = int(bitset_indices(masks[v])[r])
        colors[v] = c

        nbrs = targets64[row_offsets[v] : row_offsets[v + 1]]
        if len(nbrs) == 0:
            continue
        w = c >> 6
        bit = np.uint64(1) << np.uint64(c & 63)
        # One vectorized pass: neighbors still unprocessed whose list
        # contains c lose that bit and drop one bucket.
        affected = nbrs[((masks[nbrs, w] & bit) != 0) & ~processed[nbrs]]
        if len(affected) == 0:
            continue
        masks[affected, w] &= ~bit
        sizes[affected] -= 1
        for u in affected.tolist():
            s_old = int(sizes[u]) + 1
            p = int(pos[u])
            b = buckets[s_old]
            cnt2 = int(bucket_count[s_old])
            last = b[cnt2 - 1]
            b[p] = last
            pos[last] = p
            bucket_count[s_old] = cnt2 - 1
            s_new = s_old - 1
            if s_new == 0:
                # List emptied: u joins Vu and is done for this iteration.
                processed[u] = True
                n_processed += 1
                uncolored.append(u)
                continue
            b2 = buckets[s_new]
            c2 = int(bucket_count[s_new])
            if c2 == len(b2):
                grown = np.empty(max(2 * len(b2), 4), dtype=np.int64)
                grown[:c2] = b2[:c2]
                buckets[s_new] = b2 = grown
            b2[c2] = u
            pos[u] = c2
            bucket_count[s_new] = c2 + 1
            if s_new < lowest:
                lowest = s_new
    return colors, np.array(sorted(uncolored), dtype=np.int64)


def greedy_list_color_dynamic_sets(
    gc: CSRGraph,
    col_lists: np.ndarray,
    rng: np.random.Generator | int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Algorithm 2 on Python sets — the seeded-equivalence reference.

    Structurally the original implementation (per-vertex ``set`` state,
    list-of-lists buckets); random draws are canonicalized to ascending
    candidate order so :func:`greedy_list_color_dynamic` reproduces its
    output exactly for any seed.  Used by tests and as the legacy half
    of the tiled-vs-gather ablation (``engine="pairs"``).
    """
    rng = as_generator(rng)
    n = gc.n_vertices
    if col_lists.shape[0] != n:
        raise ValueError("col_lists rows must match vertex count")
    list_size = col_lists.shape[1]
    colors = np.full(n, -1, dtype=np.int64)
    if n == 0:
        return colors, np.empty(0, dtype=np.int64)

    # Mutable per-vertex list state: live[v] = remaining candidates
    # (Python sets give O(1) removal; lists are O(L) small).
    live: list[set[int]] = [set(row) for row in col_lists.tolist()]
    sizes = np.array([len(s) for s in live], dtype=np.int64)

    # Bucket array B[s] = vertices whose current list size is s, with a
    # position index for O(1) swap-removal (paper's auxiliary array).
    buckets: list[list[int]] = [[] for _ in range(list_size + 1)]
    pos = np.empty(n, dtype=np.int64)
    for v in range(n):
        pos[v] = len(buckets[sizes[v]])
        buckets[sizes[v]].append(v)

    def bucket_remove(v: int) -> None:
        b = buckets[sizes[v]]
        p = pos[v]
        last = b[-1]
        b[p] = last
        pos[last] = p
        b.pop()

    def bucket_insert(v: int) -> None:
        b = buckets[sizes[v]]
        pos[v] = len(b)
        b.append(v)

    processed = np.zeros(n, dtype=bool)
    uncolored: list[int] = []
    n_processed = 0
    lowest = 0
    while n_processed < n:
        # Find the lowest non-empty bucket.  Sizes only decrease for
        # unprocessed vertices, so scanning upward from `lowest` after a
        # reset to the smallest possible decrease keeps this O(L) per
        # step as the paper argues.
        while lowest <= list_size and not buckets[lowest]:
            lowest += 1
        blist = buckets[lowest]
        v = blist[int(rng.integers(len(blist)))] if len(blist) > 1 else blist[0]

        bucket_remove(v)
        processed[v] = True
        n_processed += 1
        cand = live[v]
        if len(cand) > 1:
            ordered = sorted(cand)
            c = ordered[int(rng.integers(len(ordered)))]
        else:
            c = next(iter(cand))
        colors[v] = c
        for u in gc.neighbors(v):
            u = int(u)
            if processed[u] or c not in live[u]:
                continue
            live[u].discard(c)
            bucket_remove(u)
            sizes[u] -= 1
            if sizes[u] == 0:
                # List emptied: u joins Vu and is done for this iteration.
                processed[u] = True
                n_processed += 1
                uncolored.append(u)
            else:
                bucket_insert(u)
                if sizes[u] < lowest:
                    lowest = int(sizes[u])
    return colors, np.array(sorted(uncolored), dtype=np.int64)


def greedy_list_color_static(
    gc: CSRGraph,
    col_lists: np.ndarray,
    order: str = "natural",
    rng: np.random.Generator | int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Static-order list coloring (§IV-B "static order schemes").

    Vertices are visited in a fixed order (``natural``, ``random`` or
    ``lf`` = conflict-graph degree descending); each takes the first
    color of its list unused by already-colored neighbors.
    """
    rng = as_generator(rng)
    n = gc.n_vertices
    if col_lists.shape[0] != n:
        raise ValueError("col_lists rows must match vertex count")
    if order == "natural":
        perm = np.arange(n, dtype=np.int64)
    elif order == "random":
        perm = rng.permutation(n).astype(np.int64)
    elif order == "lf":
        perm = np.argsort(-gc.degree(), kind="stable").astype(np.int64)
    else:
        raise ValueError(f"unknown static order {order!r}")

    colors = np.full(n, -1, dtype=np.int64)
    uncolored: list[int] = []
    for v in perm:
        taken = set(
            int(c) for c in colors[gc.neighbors(v)] if c >= 0
        )
        chosen = -1
        for c in col_lists[v]:
            if int(c) not in taken:
                chosen = int(c)
                break
        if chosen < 0:
            uncolored.append(int(v))
        else:
            colors[v] = chosen
    return colors, np.array(sorted(uncolored), dtype=np.int64)
