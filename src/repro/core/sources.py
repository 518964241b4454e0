"""Edge sources: where the graph being colored comes from.

Picasso never materializes its input graph.  A *source* answers one
question — "is ``(i, j)`` an edge of the graph I should color?" — over
vectorized pair-index arrays, and exposes the subset operation the
iterative driver needs (Algorithm 1 line 11).

Two sources cover the paper's settings:

- :class:`PauliComplementSource` — the quantum-computing application:
  vertices are Pauli strings; the colored graph is the *complement* of
  the anticommutation graph, derived on the fly from the 3-bit encoding
  (§IV-A).  This is the memory-efficient streaming path.
- :class:`ExplicitGraphSource` — the generalized setting: any
  :class:`CSRGraph` (§I's "can be used in a generalized graph setting").
"""

from __future__ import annotations

import numpy as np

from repro.graphs.csr import CSRGraph
from repro.pauli.strings import PauliSet


class PauliComplementSource:
    """Stream complement ("commute") edges of a Pauli set's graph."""

    def __init__(self, pauli_set: PauliSet, kernel: str = "iooh") -> None:
        self.pauli_set = pauli_set
        self._oracle = pauli_set.oracle(kernel)

    @property
    def n(self) -> int:
        return self.pauli_set.n

    def edge_mask(self, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        """1 where (i, j) is an edge of the graph to color (= commuting
        distinct Pauli pairs)."""
        return self._oracle.commute_edges(i, j)

    def edge_block(self, r0: int, r1: int, c0: int, c1: int) -> np.ndarray:
        """Block form of :meth:`edge_mask` for the tiled engine: one
        word-broadcast over the encoded payload, no row gather.  Only
        strict upper-triangle entries are meaningful."""
        return self._oracle.commute_block(r0, r1, c0, c1)

    def subset(self, idx: np.ndarray) -> "PauliComplementSource":
        """Source induced by the uncolored vertices (new local ids)."""
        return PauliComplementSource(
            self.pauli_set.subset(idx), kernel=self._oracle.kernel
        )

    @property
    def nbytes(self) -> int:
        """Resident bytes: the encoded Pauli payload only — no graph."""
        return self.pauli_set.nbytes + self._oracle.nbytes

    def validate(self, colors: np.ndarray) -> bool:
        """Check coloring properness against the streamed edges.

        Exact, and touches only same-color pairs: every vertex must be
        colored, and no pair inside a color class may be an edge
        (commute).  Pairs of different colors cannot break properness,
        so the ``sum_c |C|^2 / 2`` within-class pairs are the whole
        certificate — far fewer than the ``n^2 / 2`` of all pairs.
        """
        from repro.util.chunking import iter_same_color_pairs

        colors = np.asarray(colors)
        if len(colors) != self.n or (colors < 0).any():
            return False
        return not any(
            self.edge_mask(i, j).any() for i, j in iter_same_color_pairs(colors)
        )


class ExplicitGraphSource:
    """Color an explicit :class:`CSRGraph` (generalized setting).

    Edge queries are vectorized binary searches over sorted adjacency
    rows, built once at construction.
    """

    def __init__(self, graph: CSRGraph) -> None:
        self.graph = graph
        # Sort each adjacency row once for searchsorted queries.
        targets = graph.targets.astype(np.int64).copy()
        for v in range(graph.n_vertices):
            lo, hi = graph.offsets[v], graph.offsets[v + 1]
            targets[lo:hi] = np.sort(targets[lo:hi])
        self._sorted_targets = targets

    @property
    def n(self) -> int:
        return self.graph.n_vertices

    def edge_mask(self, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        """Vectorized membership test of ``j`` in ``adj(i)``."""
        i = np.asarray(i, dtype=np.int64)
        j = np.asarray(j, dtype=np.int64)
        out = np.zeros(len(i), dtype=np.uint8)
        lo = self.graph.offsets[i]
        hi = self.graph.offsets[i + 1]
        # Rows are short or long; a per-query searchsorted over the row
        # slice needs a loop — group queries by source vertex instead.
        order = np.argsort(i, kind="stable")
        k = 0
        while k < len(order):
            v = i[order[k]]
            end = k
            while end < len(order) and i[order[end]] == v:
                end += 1
            row = self._sorted_targets[lo[order[k]] : hi[order[k]]]
            qs = j[order[k:end]]
            if len(row) == 0:
                found = np.zeros(len(qs), dtype=bool)
            else:
                pos = np.searchsorted(row, qs)
                found = (pos < len(row)) & (
                    row[np.minimum(pos, len(row) - 1)] == qs
                )
            out[order[k:end]] = found.astype(np.uint8)
            k = end
        return out

    def edge_block(self, r0: int, r1: int, c0: int, c1: int) -> np.ndarray:
        """Dense adjacency block ``(r1-r0, c1-c0)`` as uint8.

        Scatters the CSR rows of the block's vertices into a zeroed
        block — O(arcs incident to the row range) per tile, fully
        vectorized (no per-pair membership search).
        """
        offsets = self.graph.offsets
        lo, hi = int(offsets[r0]), int(offsets[r1])
        tgt = self._sorted_targets[lo:hi]
        src = np.repeat(
            np.arange(r0, r1, dtype=np.int64),
            np.diff(offsets[r0 : r1 + 1]).astype(np.int64),
        )
        sel = (tgt >= c0) & (tgt < c1)
        block = np.zeros((r1 - r0, c1 - c0), dtype=np.uint8)
        block[src[sel] - r0, tgt[sel] - c0] = 1
        return block

    def subset(self, idx: np.ndarray) -> "ExplicitGraphSource":
        from repro.graphs.ops import induced_subgraph

        sub, _ = induced_subgraph(self.graph, idx)
        return ExplicitGraphSource(sub)

    @property
    def nbytes(self) -> int:
        """Explicit sources pay for the whole graph (baseline regime)."""
        return int(self.graph.nbytes + self._sorted_targets.nbytes)

    def validate(self, colors: np.ndarray) -> bool:
        return self.graph.validate_coloring(np.asarray(colors))
