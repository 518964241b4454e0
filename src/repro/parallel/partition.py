"""Pair-space and tile-grid partitioning for parallel execution.

Decompositions of the same upper-triangular pair domain:

- :func:`partition_pairs` splits the flat index range ``[0, n(n-1)/2)``
  into balanced contiguous :class:`PairRange` slices — the per-device
  slices of the multi-device build (:mod:`repro.device.multi`), one
  simulated SIMT thread per pair.
- :func:`partition_tiles` splits the upper-triangular ``(row_block,
  col_block)`` grid of the tiled sweep (:mod:`repro.device.tiles`)
  into balanced contiguous :class:`TileBlock` strips.  Tiles keep their
  canonical row-major order inside each strip, so a parallel sweep that
  concatenates strip results in strip order reproduces the serial
  sweep's chunk stream exactly — the property that keeps parallel and
  serial conflict-graph builds bit-identical.
- :func:`partition_weights` is the same balanced cut over any weighted
  1-D domain; the bucket sweep (:mod:`repro.device.buckets`) deals
  row strips weighted by their generated pairs through it.

Partitioning either domain — rather than the vertex range — gives
balanced work regardless of degree skew, the same decomposition the
paper's CUDA grid uses.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.util.chunking import num_pairs

__all__ = [
    "PairRange",
    "partition_pairs",
    "TileBlock",
    "tile_grid",
    "block_pair_count",
    "partition_tiles",
    "partition_weights",
]

#: Per-part capacity weights: any 1-D integer sequence (one positive
#: entry per part), e.g. the executor's advertised worker capacities.
ShareSpec = Sequence[int] | np.ndarray


@dataclass(frozen=True)
class PairRange:
    """Half-open flat pair-index range ``[start, stop)``."""

    start: int
    stop: int

    def __len__(self) -> int:
        return self.stop - self.start


def _check_shares(shares: ShareSpec, n_parts: int) -> np.ndarray:
    arr = np.asarray(shares, dtype=np.int64)
    if arr.ndim != 1 or len(arr) != n_parts:
        raise ValueError("shares must have one entry per part")
    if np.any(arr <= 0):
        raise ValueError("shares must be positive")
    return arr


def partition_pairs(n: int, n_parts: int) -> list[PairRange]:
    """Split the pair space of ``n`` vertices into ``n_parts`` balanced
    contiguous ranges (sizes differ by at most one pair).  Empty ranges
    are dropped; a degenerate pair space yields one empty range."""
    if n_parts < 1:
        raise ValueError("n_parts must be >= 1")
    total = num_pairs(n)
    out: list[PairRange] = []
    base, extra = divmod(total, n_parts)
    start = 0
    for k in range(n_parts):
        size = base + (1 if k < extra else 0)
        out.append(PairRange(start, start + size))
        start += size
    return [r for r in out if len(r) > 0] or [PairRange(0, 0)]


@dataclass(frozen=True)
class TileBlock:
    """Contiguous strip ``[start, stop)`` of upper-triangle tile indices
    in the canonical row-major order of
    :func:`repro.device.tiles.iter_tiles` (or of rows, for the bucket
    sweep), plus its pair weight."""

    start: int
    stop: int
    n_pairs: int

    def __len__(self) -> int:
        return self.stop - self.start


def tile_grid(n: int, tile: int) -> list[tuple[int, int, int, int]]:
    """The canonical upper-triangle tile list ``[(r0, r1, c0, c1), ...]``.

    Materialized from :func:`repro.device.tiles.iter_tiles` so every
    consumer — serial sweep, partitioner, pool workers — agrees on one
    tile order.
    """
    from repro.device.tiles import iter_tiles

    return list(iter_tiles(n, tile))


def block_pair_count(r0: int, r1: int, c0: int, c1: int) -> int:
    """Number of unordered pairs ``i < j`` inside one tile.

    Diagonal tiles of :func:`tile_grid` are square (``r0 == c0``,
    ``r1 == c1``) and contribute their strict upper triangle; every
    other tile sits fully above the diagonal and contributes the whole
    rectangle.
    """
    if r0 == c0:
        s = r1 - r0
        return s * (s - 1) // 2
    return (r1 - r0) * (c1 - c0)


def partition_tiles(
    n: int,
    tile: int,
    n_parts: int,
    shares: ShareSpec | None = None,
    keep_empty: bool = False,
) -> list[TileBlock]:
    """Split the tile grid into ``n_parts`` contiguous strips balanced
    by pair weight (:func:`partition_weights` over the per-tile pair
    counts of :func:`tile_grid`)."""
    grid = tile_grid(n, tile)
    weights = np.array(
        [block_pair_count(*b) for b in grid], dtype=np.int64
    )
    return partition_weights(weights, n_parts, shares, keep_empty)


def partition_weights(
    weights: np.ndarray,
    n_parts: int,
    shares: ShareSpec | None = None,
    keep_empty: bool = False,
) -> list[TileBlock]:
    """Split a weighted 1-D domain into ``n_parts`` contiguous strips
    balanced by weight.

    The domain is the tile list of the tile sweep, or the rows of the
    bucket sweep weighted by their generated pairs.  Strip boundaries
    are placed where the prefix weight crosses the ideal targets
    ``total * k / n_parts``, so each strip's weight differs from the
    ideal share by less than one item's weight (items are atomic —
    "balance within one tile").  Empty strips are dropped; a degenerate
    domain yields one empty block, mirroring :func:`partition_pairs`.

    With ``shares`` (one positive integer per part), targets become
    ``total * cumsum(shares) / sum(shares)`` so strip k's weight is
    proportional to ``shares[k]``, still within one item of its quota.
    Uniform shares reproduce the unweighted targets exactly, so the
    weighted partitioner is a strict generalization.  ``keep_empty``
    keeps zero-item strips in place (always exactly ``n_parts``
    entries) for the capacity-weighted positional deal.
    """
    if n_parts < 1:
        raise ValueError("n_parts must be >= 1")
    if shares is not None:
        _check_shares(shares, n_parts)
    prefix = np.cumsum(np.asarray(weights, dtype=np.int64))
    total = int(prefix[-1]) if len(prefix) else 0
    if total == 0:
        if keep_empty:
            return [TileBlock(0, 0, 0)] * n_parts
        return [TileBlock(0, 0, 0)]
    # Boundary after the first item whose prefix weight reaches each
    # ideal target; monotone by construction of the targets.
    if shares is None:
        targets = (total * np.arange(1, n_parts, dtype=np.int64)) // n_parts
    else:
        csum = np.cumsum(_check_shares(shares, n_parts))
        targets = (total * csum[:-1]) // int(csum[-1])
    cuts = np.searchsorted(prefix, targets, side="left") + 1
    bounds = [0, *cuts.tolist(), len(prefix)]
    out: list[TileBlock] = []
    for a, b in zip(bounds[:-1], bounds[1:]):
        if b > a:
            w = int(prefix[b - 1]) - (int(prefix[a - 1]) if a else 0)
            out.append(TileBlock(a, b, w))
        elif keep_empty:
            out.append(TileBlock(a, b, 0))
    return out or [TileBlock(0, 0, 0)]
