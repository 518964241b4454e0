"""Compressed Sparse Row graph.

The only explicit graph representation in the library (matching the
paper's §V choice: CSR gives contiguous adjacency scans during conflict
coloring).  Undirected graphs store each edge twice.  All arrays are
NumPy so the memory accounting of Table IV is exact:
``offsets`` is ``int64[n+1]``; ``targets`` is ``int32``/``int64``
depending on vertex count (mirroring the paper's 4-byte/8-byte counter
switch in Algorithm 3).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def index_dtype(n_vertices: int) -> type:
    """4-byte ids when they fit, 8-byte otherwise (paper §V)."""
    return np.int32 if n_vertices < 2**31 else np.int64


@dataclass(frozen=True)
class CSRGraph:
    """Undirected graph in CSR form.

    Attributes
    ----------
    offsets:
        ``int64[n+1]`` prefix offsets into ``targets``.
    targets:
        Neighbor ids; each undirected edge appears in both endpoint rows.
    """

    offsets: np.ndarray
    targets: np.ndarray

    def __post_init__(self) -> None:
        if self.offsets.ndim != 1 or self.targets.ndim != 1:
            raise ValueError("offsets and targets must be 1-D")
        if self.offsets[0] != 0 or self.offsets[-1] != len(self.targets):
            raise ValueError("offsets do not span targets")
        if np.any(np.diff(self.offsets) < 0):
            raise ValueError("offsets must be non-decreasing")

    @property
    def n_vertices(self) -> int:
        return len(self.offsets) - 1

    @property
    def n_edges(self) -> int:
        """Undirected edge count (half the stored directed arcs)."""
        return len(self.targets) // 2

    def degree(self, v: int | None = None) -> np.ndarray | int:
        """Degree of ``v``, or the full degree vector when ``v`` is None."""
        if v is None:
            return np.diff(self.offsets).astype(np.int64)
        return int(self.offsets[v + 1] - self.offsets[v])

    def neighbors(self, v: int) -> np.ndarray:
        """View of the adjacency row of ``v``."""
        return self.targets[self.offsets[v] : self.offsets[v + 1]]

    def max_degree(self) -> int:
        if self.n_vertices == 0:
            return 0
        return int(np.diff(self.offsets).max())

    def average_degree(self) -> float:
        if self.n_vertices == 0:
            return 0.0
        return float(len(self.targets)) / self.n_vertices

    def has_edge(self, u: int, v: int) -> bool:
        return bool(np.isin(v, self.neighbors(u)).any())

    def edges(self) -> np.ndarray:
        """``(m, 2)`` array of unique undirected edges with u < v."""
        src = np.repeat(
            np.arange(self.n_vertices, dtype=self.targets.dtype),
            np.diff(self.offsets),
        )
        mask = src < self.targets
        return np.stack([src[mask], self.targets[mask]], axis=1)

    @property
    def nbytes(self) -> int:
        """Bytes held by the CSR arrays (Table IV accounting)."""
        return self.offsets.nbytes + self.targets.nbytes

    def validate_coloring(self, colors: np.ndarray) -> bool:
        """True iff ``colors`` is a proper coloring (no monochrome edge);
        vertices colored -1 are treated as uncolored and fail."""
        colors = np.asarray(colors)
        if colors.shape != (self.n_vertices,):
            raise ValueError("color array has wrong length")
        if (colors < 0).any():
            return False
        e = self.edges()
        if len(e) == 0:
            return True
        return not (colors[e[:, 0]] == colors[e[:, 1]]).any()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CSRGraph(n={self.n_vertices}, m={self.n_edges})"


#: Arcs scattered per fill step.  A chunk's arcs are filled in slices
#: of this size, in order, so the sort and rank temporaries stay a few
#: MB however large a gathered strip is; the cursor carries each
#: vertex's position across slices, so the result does not change.
_FILL_SLICE = 1 << 18


def _fill_arcs(
    cursor: np.ndarray, targets: np.ndarray, src: np.ndarray, dst: np.ndarray
) -> None:
    """Scatter one direction of arcs into preallocated CSR ``targets``.

    ``cursor`` holds each vertex's next write position and advances by
    that vertex's arc count — the "fill" half of the two-pass
    count-then-fill construction.  Arcs are written in appearance
    order: inputs already sorted by ``src`` (tile/pair sweeps emit rows
    ascending) skip the stable counting sort entirely.
    """
    for k in range(0, len(src), _FILL_SLICE):
        _fill_slice(
            cursor, targets, src[k : k + _FILL_SLICE], dst[k : k + _FILL_SLICE]
        )


def _fill_slice(
    cursor: np.ndarray, targets: np.ndarray, src: np.ndarray, dst: np.ndarray
) -> None:
    """One :data:`_FILL_SLICE` step of :func:`_fill_arcs`."""
    if np.any(src[:-1] > src[1:]):
        order = np.argsort(src, kind="stable")
        src = src[order]
        dst = dst[order]
    # Rank of each arc within its (contiguous) source-vertex run.
    change = np.empty(len(src), dtype=bool)
    change[0] = True
    np.not_equal(src[1:], src[:-1], out=change[1:])
    starts = np.flatnonzero(change)
    run_lengths = np.diff(np.append(starts, len(src)))
    rank = np.arange(len(src), dtype=np.int64) - np.repeat(starts, run_lengths)
    targets[cursor[src] + rank] = dst
    cursor[src[starts]] += run_lengths


def csr_from_coo_chunks(
    chunks: list[tuple[np.ndarray, np.ndarray]], n_vertices: int
) -> CSRGraph:
    """Two-pass count-then-fill CSR assembly from streamed COO chunks.

    ``chunks`` is a list of ``(u, v)`` endpoint arrays, each unordered
    edge appearing exactly once across all chunks (the output of a pair
    or tile sweep).  Pass 1 accumulates per-vertex degrees; pass 2
    scatters both arc directions into one exactly-sized ``targets``
    buffer.  Nothing is concatenated and no global sort runs — the
    assembly is O(arcs) after the counting pass.

    Arc order per vertex matches the legacy concatenate-and-stable-sort
    assembly (all ``u``-side arcs in chunk order, then all ``v``-side
    arcs), so downstream order-sensitive consumers see identical CSR.

    **Canonical row order.**  Both conflict sweeps emit every edge as
    ``u < v``: the tile kernel row-major within ascending tiles, the
    color-bucket kernel ``(u, v)``-ascending.  Either stream leaves row
    ``x`` holding its upper neighbours (``v > x``) ascending, then its
    lower neighbours (``u < x``) ascending.  Any stream with that
    property assembles the same bytes, which is what makes the two
    kernels, and serial, pool and cluster sweeps, interchangeable.
    """
    chunks = [
        (np.asarray(u, dtype=np.int64), np.asarray(v, dtype=np.int64))
        for u, v in chunks
        if len(u)
    ]
    counts = np.zeros(n_vertices, dtype=np.int64)
    m = 0
    for u, v in chunks:
        # Small chunks scatter directly; big ones amortize a full-width
        # bincount.  Keeps the counting pass O(arcs + n), not
        # O(n_chunks * n), when a tile sweep feeds thousands of chunks.
        if 4 * len(u) < n_vertices:
            np.add.at(counts, u, 1)
            np.add.at(counts, v, 1)
        else:
            counts += np.bincount(u, minlength=n_vertices)
            counts += np.bincount(v, minlength=n_vertices)
        m += len(u)
    offsets = np.zeros(n_vertices + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    targets = np.empty(2 * m, dtype=index_dtype(n_vertices))
    cursor = offsets[:-1].copy()
    for u, v in chunks:
        _fill_arcs(cursor, targets, u, v)
    for u, v in chunks:
        _fill_arcs(cursor, targets, v, u)
    return CSRGraph(offsets=offsets, targets=targets)


def from_edge_list(
    u: np.ndarray, v: np.ndarray, n_vertices: int, dedupe: bool = False
) -> CSRGraph:
    """Build a :class:`CSRGraph` from an undirected edge list.

    Two-pass count-then-fill construction: per-vertex degrees are
    counted first, then both arc directions are scattered into a
    preallocated ``targets`` array (no concatenation, no global sort).

    Parameters
    ----------
    u, v:
        Endpoint arrays (any orientation; self-loops rejected).
    n_vertices:
        Total vertex count (isolated vertices allowed).
    dedupe:
        Remove duplicate edges first (costs a sort of the edge list).
    """
    u = np.asarray(u, dtype=np.int64)
    v = np.asarray(v, dtype=np.int64)
    if u.shape != v.shape:
        raise ValueError("endpoint arrays differ in length")
    if (u == v).any():
        raise ValueError("self-loops not allowed")
    if len(u) and (min(u.min(), v.min()) < 0 or max(u.max(), v.max()) >= n_vertices):
        raise ValueError("vertex id out of range")
    if dedupe and len(u):
        lo = np.minimum(u, v)
        hi = np.maximum(u, v)
        key = lo * np.int64(n_vertices) + hi
        _, keep = np.unique(key, return_index=True)
        u, v = lo[keep], hi[keep]
    return csr_from_coo_chunks([(u, v)], n_vertices)
