"""Output certificates: every coloring the benchmark times is checked.

Picasso colors the *complement* of the anticommutation graph (its
edges are commuting pairs), so a proper coloring groups strings into
classes that are pairwise **anticommuting**.  The certificate checks
that every vertex is colored and that every pair inside every class
anticommutes, with the character-comparison kernel of
:mod:`repro.pauli` — a different encoding from the one the program
colors with, so a kernel bug cannot certify itself.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

import numpy as np

from repro.pauli import PauliSet, anticommute_pairs_chars

#: Pairs per oracle launch while certifying.
_CHUNK = 1 << 18


class CertificateError(RuntimeError):
    """A coloring failed its certificate."""


def class_pairs(colors: np.ndarray):
    """Yield ``(i, j)`` chunks covering every unordered pair of vertices
    that share a color (``sum |C| (|C| - 1) / 2`` pairs in all)."""
    order = np.argsort(colors, kind="stable")
    sorted_colors = colors[order]
    starts = np.flatnonzero(np.r_[True, sorted_colors[1:] != sorted_colors[:-1]])
    sizes = np.diff(np.r_[starts, len(colors)])
    i_parts: list[np.ndarray] = []
    j_parts: list[np.ndarray] = []
    pending = 0
    for start, size in zip(starts[sizes > 1], sizes[sizes > 1]):
        a, b = np.triu_indices(int(size), k=1)
        i_parts.append(order[start + a])
        j_parts.append(order[start + b])
        pending += len(a)
        if pending >= _CHUNK:
            yield np.concatenate(i_parts), np.concatenate(j_parts)
            i_parts, j_parts, pending = [], [], 0
    if i_parts:
        yield np.concatenate(i_parts), np.concatenate(j_parts)


def certify(pauli_set: PauliSet, colors: np.ndarray) -> int:
    """Raise :class:`CertificateError` unless ``colors`` is a complete
    grouping into pairwise-anticommuting classes; returns the number
    of within-class pairs checked."""
    colors = np.asarray(colors)
    if colors.shape != (pauli_set.n,):
        raise CertificateError(
            f"{colors.shape} colors for {pauli_set.n} strings"
        )
    uncolored = int(np.count_nonzero(colors < 0))
    if uncolored:
        raise CertificateError(f"{uncolored} strings left uncolored")
    checked = 0
    for i, j in class_pairs(colors):
        anti = anticommute_pairs_chars(pauli_set.chars, i, j)
        bad = np.flatnonzero(anti == 0)
        if len(bad):
            k = bad[0]
            raise CertificateError(
                f"strings {i[k]} and {j[k]} share color {colors[i[k]]} "
                "but commute"
            )
        checked += len(i)
    return checked


def digest(colors: np.ndarray) -> str:
    """Stable digest of a coloring (int64 little-endian bytes)."""
    data = np.ascontiguousarray(colors, dtype="<i8").tobytes()
    return hashlib.sha256(data).hexdigest()[:32]


class DigestStore:
    """Colorings recorded per (program sources, input, seed).

    Every run of a cross-checked workload compares its digest with the
    one recorded for the same input and seed by whichever executor ran
    first, so serial, pool and cluster runs of one seed must agree.
    Keys include the source digest: a changed program starts afresh.
    """

    def __init__(self, directory: Path, source_sha: str) -> None:
        self.directory = directory
        self.source_sha = source_sha

    def _path(self, input_name: str, seed: int) -> Path:
        return self.directory / f"{self.source_sha[:16]}-{input_name}-seed{seed}.json"

    def lookup(self, input_name: str, seed: int) -> dict | None:
        try:
            return json.loads(self._path(input_name, seed).read_text())
        except (OSError, ValueError):
            return None

    def record(self, input_name: str, seed: int, entry: dict) -> None:
        path = self._path(input_name, seed)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(f".tmp{os.getpid()}")
        tmp.write_text(json.dumps(entry))
        os.replace(tmp, path)
