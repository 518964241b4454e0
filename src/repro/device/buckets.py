"""Color-bucket conflict kernel: the output-sensitive pair sweep.

Two active vertices can only be in conflict when their candidate lists
share a color (palette sparsification; the paper's Lemma 2).  The tiled
sweep of :mod:`repro.device.tiles` still tests all ``n(n-1)/2`` pairs
against ``W = ceil(P/64)`` palette words.  This kernel generates only
the pairs that share a color:

1. **Index.**  The ``(vertex, color)`` entries of the candidate lists
   are recovered from the packed ``colmasks`` by peeling the lowest set
   bit of each word column until it is empty — ``O(n·W + n·L)`` work,
   never an ``(n, P)`` bit matrix — then grouped by color, each bucket
   sorted by vertex.
2. **Generate.**  Every entry ``(i, c)`` emits the members of bucket
   ``c`` after ``i``, so every pair ``i < j`` sharing a color appears
   once per shared color: ``G = sum_c C(s_c, 2)`` generated pairs for
   bucket sizes ``s_c``.  The ragged suffixes are laid out with one
   ``np.repeat``; no Python loop runs per bucket.
3. **Dedup and filter.**  Rows are processed in chunks of at most
   :data:`PAIR_CHUNK` generated pairs.  A chunk is whole rows, so all
   copies of a pair fall in one chunk; one sort of ``i·n + j`` removes
   them and leaves the chunk in ``(i, j)``-ascending order.  The
   survivors then go through the source's gathered ``edge_mask``.

**Canonical order.**  A tile stream fills CSR row ``x`` with its upper
neighbours ascending, then its lower neighbours ascending (see
:func:`repro.graphs.csr.csr_from_coo_chunks`).  The bucket stream is
``(i, j)``-ascending across chunks and strips, which fills every row the
same way, so both kernels assemble byte-identical CSRs and colorings.

**Choosing the kernel.**  :func:`bucket_kernel_wins` compares the exact
``G`` against the tile sweep's ``n(n-1)/2 · W`` word tests through one
measured constant, :data:`BUCKET_PAIR_COST`.  With ``L = P`` (small
Aggressive subproblems) every pair shares all ``P`` colors, so
``G = P · n(n-1)/2 >= n(n-1)/2 · W`` and the rule always picks the
tile sweep.  :func:`plan_sweep` plans an in-process sweep (it returns
the index); :func:`plan_strip_weights` plans one dealt to workers (it
returns only the row weights, and the workers build the index).
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from repro import telemetry
from repro.util.chunking import num_pairs

__all__ = [
    "PAIR_CHUNK",
    "BUCKET_PAIR_COST",
    "list_entries",
    "generated_pair_count",
    "bucket_kernel_wins",
    "ColorBuckets",
    "row_pair_weights",
    "plan_sweep",
    "plan_strip_weights",
    "bucket_hits_rows",
    "bucket_hits_strip",
]

#: Generated pairs per dedup sort: the chunk's int64 temporaries stay at
#: a few MB, and the sort runs on a cache-friendly array.
PAIR_CHUNK = 1 << 18

#: Rows per step of :func:`row_pair_weights`.
WEIGHT_BLOCK = 512

#: Cost of one generated pair of the bucket kernel (index, repeat,
#: gather, dedup sort) in units of one tile-sweep pair-word test: the
#: bucket kernel runs when ``R = tile words / G`` exceeds it.  Measured
#: with ``benchmarks/bench_sweep_crossover.py`` (numpy backend, 2-vCPU
#: Xeon; README "The conflict sweep"): on the Normal preset single runs
#: flip between the kernels at R = 0.4-1.3 (n = 500-1k) and the bucket
#: kernel wins from R = 4.4 (n = 2k) on, while every ``L = P``
#: subproblem has ``R <= 1`` and runs up to 5.5x faster on the tile
#: kernel.  2 sits between, with a 2x margin over the ``L = P`` bound.
BUCKET_PAIR_COST = 2.0

_EMPTY = np.empty(0, dtype=np.int64)
_ONE = np.uint64(1)


def list_entries(colmasks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The ``(vertex, color)`` entries of packed candidate bitsets.

    Peels the lowest set bit of every word column until the column is
    empty, touching only the rows that still hold bits.  Returns two
    int64 arrays in peel order (not sorted).
    """
    colmasks = np.asarray(colmasks, dtype=np.uint64)
    verts: list[np.ndarray] = []
    colors: list[np.ndarray] = []
    for w in range(colmasks.shape[1]):
        col = colmasks[:, w]
        rows = np.flatnonzero(col)
        vals = col[rows]
        while len(rows):
            low = vals & (~vals + _ONE)
            verts.append(rows)
            # An isolated bit is a power of two: exact in float64.
            colors.append(64 * w + np.log2(low.astype(np.float64)).astype(np.int64))
            vals ^= low
            live = np.flatnonzero(vals)
            rows = rows[live]
            vals = vals[live]
    if not verts:
        return _EMPTY, _EMPTY
    return np.concatenate(verts), np.concatenate(colors)


def generated_pair_count(colors: np.ndarray, width: int) -> int:
    """``G = sum_c C(s_c, 2)``: pairs the bucket kernel generates."""
    sizes = np.bincount(colors, minlength=width).astype(np.int64)
    return int((sizes * (sizes - 1) // 2).sum())


def bucket_kernel_wins(n: int, words: int, generated_pairs: int) -> bool:
    """True when generating ``G`` pairs costs less than the tile sweep's
    ``n(n-1)/2 · W`` pair-word tests."""
    return BUCKET_PAIR_COST * generated_pairs < num_pairs(n) * words


class ColorBuckets:
    """Color-major index of the candidate-list entries.

    ``members`` lists the vertices of every color bucket, buckets in
    color order and each sorted by vertex.  The per-entry arrays are
    vertex-major (``entry_ptr`` gives each row's slice): entry ``e``
    of vertex ``entry_verts[e]`` has ``later[e]`` bucket members after
    it, starting at ``members[first[e]]``.
    """

    def __init__(
        self, n: int, verts: np.ndarray, colors: np.ndarray, width: int
    ) -> None:
        self.n = int(n)
        # Vertex-major; the peel emits each row's colors ascending, so a
        # stable sort by vertex keeps them ascending within the row.
        order = np.argsort(verts, kind="stable")
        verts = verts[order]
        colors = colors[order]
        # Color-major; stable again, so each bucket is vertex-sorted.
        by_color = np.argsort(colors, kind="stable")
        self.members = verts[by_color]
        pos = np.empty(len(verts), dtype=np.int64)
        pos[by_color] = np.arange(len(verts), dtype=np.int64)
        bucket_end = np.cumsum(np.bincount(colors, minlength=width))
        self.entry_verts = verts
        self.first = pos + 1
        self.later = bucket_end[colors] - self.first
        self.entry_ptr = np.zeros(self.n + 1, dtype=np.int64)
        np.cumsum(np.bincount(verts, minlength=self.n), out=self.entry_ptr[1:])
        #: Generated pairs before rows ``[0, v)``: row ``v`` generates
        #: ``row_cum[v + 1] - row_cum[v]``.
        later_cum = np.zeros(len(verts) + 1, dtype=np.int64)
        np.cumsum(self.later, out=later_cum[1:])
        self.row_cum = later_cum[self.entry_ptr]

    @classmethod
    def from_masks(cls, colmasks: np.ndarray) -> "ColorBuckets":
        verts, colors = list_entries(colmasks)
        return cls(colmasks.shape[0], verts, colors, 64 * colmasks.shape[1])

    def row_weights(self) -> np.ndarray:
        """Generated pairs per row, the strip-partition weight."""
        return np.diff(self.row_cum)

    def row_chunks(
        self, lo: int, hi: int, chunk: int = PAIR_CHUNK
    ) -> Iterator[tuple[int, int]]:
        """Split rows ``[lo, hi)`` into whole-row ranges of at most
        ``chunk`` generated pairs (a single heavier row stands alone).
        Ranges that generate nothing are skipped."""
        cum = self.row_cum
        a = lo
        while a < hi:
            b = int(np.searchsorted(cum, cum[a] + chunk, side="right")) - 1
            b = min(max(b, a + 1), hi)
            if cum[b] > cum[a]:
                yield a, b
            a = b

    def candidate_pairs(self, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
        """Every pair ``i < j`` with ``i`` in ``[lo, hi)`` that shares a
        color, once each, in ``(i, j)``-ascending order."""
        e0, e1 = int(self.entry_ptr[lo]), int(self.entry_ptr[hi])
        cnt = self.later[e0:e1]
        total = int(self.row_cum[hi] - self.row_cum[lo])
        if total == 0:
            return _EMPTY, _EMPTY
        # Ragged suffix gather: pair k of entry e reads
        # members[first[e] + (k - start of e's run)].
        run_start = np.cumsum(cnt) - cnt
        idx = np.arange(total, dtype=np.int64)
        idx += np.repeat(self.first[e0:e1] - run_start, cnt)
        key = np.repeat(self.entry_verts[e0:e1] * self.n, cnt)
        key += self.members[idx]
        del idx
        key.sort()
        keep = np.empty(len(key), dtype=bool)
        keep[0] = True
        np.not_equal(key[1:], key[:-1], out=keep[1:])
        key = key[keep]
        i = key // self.n
        return i, key - i * self.n


def row_pair_weights(colmasks: np.ndarray) -> np.ndarray:
    """Generated pairs per row (:meth:`ColorBuckets.row_weights`)
    without building the index.

    Rows are taken bottom-up in blocks of :data:`WEIGHT_BLOCK`: an entry
    ``(v, c)`` generates the members of ``c`` in the rows below its
    block (a running per-color count) plus those after ``v`` within the
    block.  Every temporary is block-sized, so the dispatcher of a pool
    or cluster sweep, which needs only the strip weights, stays lean.
    """
    n, words = colmasks.shape
    below = np.zeros(64 * words, dtype=np.int64)
    out = np.zeros(n, dtype=np.int64)
    for hi in range(n, 0, -WEIGHT_BLOCK):
        lo = max(hi - WEIGHT_BLOCK, 0)
        verts, colors = list_entries(colmasks[lo:hi])
        order = np.argsort(colors * WEIGHT_BLOCK + verts)
        colors = colors[order]
        sizes = np.bincount(colors, minlength=len(below))
        after = np.cumsum(sizes)[colors] - np.arange(1, len(order) + 1)
        out[lo:hi] = np.bincount(
            verts[order], weights=after + below[colors], minlength=hi - lo
        )
        below += sizes
    return out


def _kernel_choice(n: int, kernel: str, edge_mask_fn) -> str:
    """``kernel`` resolved as far as it can be without the masks:
    ``"tile"``, ``"bucket"``, or ``"auto"`` for the cost rule."""
    if kernel not in ("auto", "tile", "bucket"):
        raise ValueError(f"unknown sweep kernel {kernel!r}")
    # The bucket kernel needs the pairwise oracle.
    return "tile" if edge_mask_fn is None or n < 2 else kernel


def plan_sweep(
    n: int, colmasks: np.ndarray, kernel: str = "auto", edge_mask_fn=None
) -> ColorBuckets | None:
    """The bucket index when an in-process sweep should use the bucket
    kernel, ``None`` for the tile kernel.

    ``kernel`` is ``"auto"`` (the :func:`bucket_kernel_wins` rule),
    ``"tile"`` or ``"bucket"``.  The bucket kernel needs the pairwise
    ``edge_mask_fn``; without one the tile kernel runs.
    """
    choice = _kernel_choice(n, kernel, edge_mask_fn)
    buckets = None
    if choice != "tile":
        verts, colors = list_entries(colmasks)
        width = 64 * colmasks.shape[1]
        if choice == "bucket" or bucket_kernel_wins(
            n, colmasks.shape[1], generated_pair_count(colors, width)
        ):
            buckets = ColorBuckets(n, verts, colors, width)
    telemetry.count("sweep.kernel", kernel="tile" if buckets is None else "bucket")
    return buckets


def plan_strip_weights(
    n: int, colmasks: np.ndarray, kernel: str = "auto", edge_mask_fn=None
) -> np.ndarray | None:
    """:func:`plan_sweep` for a sweep dealt to workers: the per-row
    strip weights when the bucket kernel runs, ``None`` for the tile
    kernel.  Workers build the index themselves."""
    choice = _kernel_choice(n, kernel, edge_mask_fn)
    weights = None
    if choice != "tile":
        rows = row_pair_weights(colmasks)
        if choice == "bucket" or bucket_kernel_wins(
            n, colmasks.shape[1], int(rows.sum())
        ):
            weights = rows
    telemetry.count("sweep.kernel", kernel="tile" if weights is None else "bucket")
    return weights


def bucket_hits_rows(
    buckets: ColorBuckets, lo: int, hi: int, edge_mask_fn
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Conflict edges with ``i`` in rows ``[lo, hi)``, one ``(i, j)``
    chunk per :meth:`ColorBuckets.row_chunks` range, ascending."""
    for a, b in buckets.row_chunks(lo, hi):
        i, j = buckets.candidate_pairs(a, b)
        keep = np.asarray(edge_mask_fn(i, j)).astype(bool, copy=False)
        telemetry.count(
            "sweep.bucket.generated", float(buckets.row_cum[b] - buckets.row_cum[a])
        )
        yield i[keep], j[keep]


def bucket_hits_strip(
    buckets: ColorBuckets, lo: int, hi: int, edge_mask_fn
) -> tuple[np.ndarray, np.ndarray]:
    """One strip's conflict edges as a single ``(i, j)`` pair — the
    unit of work a pool worker or cluster agent runs."""
    us: list[np.ndarray] = []
    vs: list[np.ndarray] = []
    for i, j in bucket_hits_rows(buckets, lo, hi, edge_mask_fn):
        if len(i):
            us.append(i)
            vs.append(j)
    if not us:
        return _EMPTY, _EMPTY
    return np.concatenate(us), np.concatenate(vs)
