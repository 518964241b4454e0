"""Pauli-grouping relations beyond anticommutation (paper §III).

The measurement-reduction literature groups Pauli strings under three
compatibility relations, all reducible to clique partitioning:

- ``"anticommute"`` — unitary partitioning (the paper's target):
  groups are pairwise-*anticommuting* cliques, composing into single
  unitaries (Eq. 2);
- ``"commute"`` — general commutativity (GC, Yen et al.): groups are
  pairwise-commuting, simultaneously diagonalizable by one Clifford;
- ``"qubitwise"`` — qubit-wise commutativity (QWC, Altepeter et al.):
  strings agree or hit identity at *every* position — measurable in a
  single product basis without extra gates.  QWC implies commute.

Each relation induces a compatibility graph whose clique partition we
obtain, exactly as in §II-B, by coloring the *complement* — with the
edges streamed from the encodings, never stored, so all three schemes
run through the same memory-efficient Picasso machinery.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.pauli.encoding import I
from repro.pauli.strings import PauliSet

RELATIONS = ("anticommute", "commute", "qubitwise")


def qubitwise_commute_pairs(
    chars: np.ndarray, i: np.ndarray, j: np.ndarray
) -> np.ndarray:
    """uint8 mask: 1 where strings ``i`` and ``j`` qubit-wise commute
    (every position equal, or at least one identity)."""
    a = chars[i]
    b = chars[j]
    ok = (a == b) | (a == I) | (b == I)
    return ok.all(axis=1).astype(np.uint8)


class PauliRelationSource:
    """Edge source for clique-partitioning any of the three relations.

    The graph *colored* is the complement of the compatibility graph:
    an edge means "these two strings must NOT share a group".
    Implements the source protocol consumed by
    :meth:`repro.core.Picasso.color_source`.
    """

    def __init__(self, pauli_set: PauliSet, relation: str = "anticommute") -> None:
        if relation not in RELATIONS:
            raise ValueError(
                f"unknown relation {relation!r}; expected one of {RELATIONS}"
            )
        self.pauli_set = pauli_set
        self.relation = relation
        self._oracle = pauli_set.oracle()

    @property
    def n(self) -> int:
        return self.pauli_set.n

    def compatible(self, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        """uint8 mask: 1 where the pair may share a group."""
        if self.relation == "anticommute":
            return self._oracle.anticommute(i, j)
        if self.relation == "commute":
            return self._oracle.commute_edges(i, j)
        return qubitwise_commute_pairs(self.pauli_set.chars, i, j)

    def edge_mask(self, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        """Edges of the graph to color = incompatible pairs."""
        return (1 - self.compatible(i, j)).astype(np.uint8)

    def subset(self, idx: np.ndarray) -> "PauliRelationSource":
        return PauliRelationSource(self.pauli_set.subset(idx), self.relation)

    @property
    def nbytes(self) -> int:
        return self.pauli_set.nbytes + self._oracle.nbytes

    def validate(self, colors: np.ndarray) -> bool:
        """Every vertex colored and no incompatible pair inside a color
        class (only same-color pairs are tested)."""
        from repro.util.chunking import iter_same_color_pairs

        colors = np.asarray(colors)
        if len(colors) != self.n or (colors < 0).any():
            return False
        return not any(
            self.edge_mask(i, j).any() for i, j in iter_same_color_pairs(colors)
        )


@dataclass
class GroupingResult:
    """Outcome of :func:`group_pauli_set` for one relation."""

    relation: str
    groups: list[np.ndarray]
    n_colors: int

    @property
    def reduction(self) -> float:
        """Input strings per group (the §III "1/10 to 1/6" metric)."""
        total = sum(len(g) for g in self.groups)
        return total / max(self.n_colors, 1)


def group_pauli_set(
    pauli_set: PauliSet,
    relation: str = "anticommute",
    params=None,
    seed: int | np.random.Generator | None = None,
) -> GroupingResult:
    """Clique-partition a Pauli set under any of the three relations
    using Picasso on the streamed complement.

    Returns the groups (index arrays) with pairwise compatibility
    guaranteed by the coloring.
    """
    from repro.core.picasso import Picasso

    source = PauliRelationSource(pauli_set, relation)
    result = Picasso(params=params, seed=seed).color_source(source)
    groups = result.color_classes()
    return GroupingResult(
        relation=relation, groups=list(groups), n_colors=result.n_colors
    )


def validate_grouping(pauli_set: PauliSet, grouping: GroupingResult) -> bool:
    """Exhaustively re-check pairwise compatibility inside every group."""
    source = PauliRelationSource(pauli_set, grouping.relation)
    seen = 0
    for g in grouping.groups:
        seen += len(g)
        if len(g) < 2:
            continue
        ii, jj = np.triu_indices(len(g), k=1)
        if not source.compatible(g[ii], g[jj]).all():
            return False
    return seen == pauli_set.n
