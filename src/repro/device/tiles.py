"""Block-tiled pair-sweep kernel engine (§V, reimagined as cache tiles).

The pair-chunk kernels in :mod:`repro.device.kernels` emulate one SIMT
thread per unordered pair: they take flat pair-index chunks, invert
``k -> (i, j)`` with a ``sqrt``, and *gather* the packed operand rows
(``packed[i]``, ``packed[j]``) for every pair — so each of the ``n``
rows is duplicated ~``n`` times across a full sweep.  This module is
the CUDA-style *tiled* formulation of the same sweep: the upper
triangle of pair space is walked in ``(row_block, col_block)`` tiles,
each tile loads its two row slices once (the "shared memory" staging of
a GPU kernel) and computes the pair results as a word-broadcast
``a[:, None, :] op b[None, :, :]`` — no flat-index inversion and no
quadratic row gather on the hot path.

Design notes (the tiling model):

- **Tile size heuristic.**  A tile of edge ``T`` needs scratch for a
  handful of ``(T, T)`` temporaries: the uint64 word-AND, the uint8
  popcount/parity accumulator, and the boolean hit mask — about
  :data:`SCRATCH_BYTES_PER_PAIR` bytes per pair *independent of the
  word count* because the kernels loop over word columns and reuse the
  same temporary.  :func:`tile_edge` inverts that:
  ``T = sqrt(budget / SCRATCH_BYTES_PER_PAIR)``, snapped down to a
  multiple of 64 (warp-width friendly, keeps word loads aligned) and
  clamped to ``[MIN_TILE, MAX_TILE]``.  The default 768 KiB budget
  lands at ``T = 256``, sized to keep the tile's word-AND temporary
  resident in a per-core L2 the way a CUDA kernel sizes its
  shared-memory staging — the temporary is written and re-read once
  per word column, so its residency dominates the sweep bandwidth.
- **Memory model per tile.**  Input traffic is ``2 * T * W * 8`` bytes
  (two row slices, contiguous), scratch is ``SCRATCH_BYTES_PER_PAIR *
  T^2``, and output is proportional to the tile's *hits* only — the
  same output-proportional shape as Algorithm 3's COO stream.
- **Device-budget interaction.**  On the :class:`~repro.device.sim.DeviceSim`
  path the tile scratch is a named allocation against the device
  budget, reserved *before* the COO buffer grabs the remainder
  (:mod:`repro.device.csr_build`).  When the budget is too tight to
  host even a minimum tile alongside the COO stream, the build falls
  back to the flat pair-chunk kernel
  (:func:`repro.device.kernels.conflict_pair_hits`), which needs no
  block scratch — the same graceful degradation Algorithm 3 uses for
  its device/host CSR choice.
- **Fused conflict kernel.**  :func:`conflict_hits_block` evaluates the
  cheap palette intersection first (the paper's list-intersect early
  exit): only surviving pairs consult the edge oracle, either as a
  sparse gathered query (few survivors) or as a block oracle call when
  the tile is dense enough that the broadcast beats the gather.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterator
from functools import lru_cache
from typing import TYPE_CHECKING

import numpy as np

from repro import telemetry
from repro.util.bits import anybit_block, parity_block

if TYPE_CHECKING:
    from repro.device.backends.base import KernelBackend

__all__ = [
    "DEFAULT_TILE_BYTES",
    "SCRATCH_BYTES_PER_PAIR",
    "MIN_TILE",
    "MAX_TILE",
    "DENSE_EDGE_FRACTION",
    "tile_edge",
    "tile_scratch_bytes",
    "iter_tiles",
    "upper_triangle_mask",
    "TileScratch",
    "anticommute_parity_block",
    "lists_intersect_block",
    "conflict_hits_block",
    "conflict_hits_strip",
    "block_hits",
    "block_hits_strip",
    "sweep_conflict_hits",
    "sweep_block_hits",
    "count_block_hits",
]

#: Default scratch budget for one tile, in bytes.  768 KiB puts the
#: default tile edge at 256, whose uint64 word-AND temporary (512 KiB)
#: stays resident in a per-core L2 — measured ~1.6x faster than
#: L3-sized tiles on a 10k-vertex sweep, because the temporary makes a
#: full write+read round trip per word column.
DEFAULT_TILE_BYTES = 768 * 1024

#: Scratch bytes per pair inside a tile: the uint64 word-AND temporary
#: (8), the boolean compare buffer (1) and the boolean hit accumulator
#: (1) — exactly what :class:`TileScratch` allocates.  The word loop
#: reuses the same temporaries, so this does not scale with the packed
#: word count.
SCRATCH_BYTES_PER_PAIR = 10

#: Tile edges are multiples of this (and never smaller).
MIN_TILE = 64

#: Upper clamp on the tile edge — beyond this the broadcast temporaries
#: stop fitting in last-level cache and the win evaporates.
MAX_TILE = 8192

#: When at least this fraction of a tile survives the palette
#: intersection, the fused kernel evaluates the edge oracle as a block
#: broadcast instead of gathering the survivors pairwise.
DENSE_EDGE_FRACTION = 0.1

_EMPTY = np.empty(0, dtype=np.int64)

#: Block edge oracle: (r0, r1, c0, c1) -> uint8/bool (r1-r0, c1-c0)
#: matrix over global vertex ids (only entries with i != j are used).
EdgeBlockFn = Callable[[int, int, int, int], np.ndarray]


def tile_edge(
    tile_bytes: int = DEFAULT_TILE_BYTES,
    n: int | None = None,
) -> int:
    """Tile edge ``T`` whose scratch fits ``tile_bytes``.

    The palette word count does not enter the formula — see the module
    notes on the per-pair scratch model.  ``n`` caps the tile at the
    problem size so tiny problems do not round up to a 64-wide tile of
    mostly out-of-range rows.

    The tile edge never drops below :data:`MIN_TILE` (sub-64 tiles are
    all Python overhead), so budgets under
    ``tile_scratch_bytes(MIN_TILE)`` (~41 KB) are exceeded rather than
    honored — the budget is a sizing hint, not a hard cap.  The device
    path enforces its real cap separately by checking the resulting
    scratch against ``device.available`` before allocating.

    The budget solve is memoized per ``tile_bytes`` (the device build
    probes it repeatedly while fitting the tile scratch next to the COO
    buffer); the ``n`` cap is applied outside the cache.
    """
    t = _tile_edge_base(int(tile_bytes))
    if n is not None:
        t = min(t, max(int(n), 1))
    return t


@lru_cache(maxsize=64)
def _tile_edge_base(tile_bytes: int) -> int:
    """The budget solve of :func:`tile_edge`, before the ``n`` cap."""
    t = int(math.isqrt(max(tile_bytes, 1) // SCRATCH_BYTES_PER_PAIR))
    return max(MIN_TILE, min(t - t % MIN_TILE, MAX_TILE))


def tile_scratch_bytes(tile: int) -> int:
    """Worst-case scratch bytes for one ``tile x tile`` block."""
    return SCRATCH_BYTES_PER_PAIR * tile * tile


def iter_tiles(n: int, tile: int) -> Iterator[tuple[int, int, int, int]]:
    """Yield ``(r0, r1, c0, c1)`` blocks covering the upper triangle.

    Blocks are axis-aligned on a ``tile``-spaced grid; only blocks with
    ``c0 >= r0`` are emitted, so every unordered pair ``i < j`` lands in
    exactly one block (diagonal blocks still contain ``i >= j`` entries
    — mask those with :func:`upper_triangle_mask`).
    """
    if tile <= 0:
        raise ValueError("tile must be positive")
    for r0 in range(0, n, tile):
        r1 = min(r0 + tile, n)
        for c0 in range(r0, n, tile):
            yield r0, r1, c0, min(c0 + tile, n)


def upper_triangle_mask(r0: int, r1: int, c0: int, c1: int) -> np.ndarray:
    """Boolean block mask: True where the global pair has ``i < j``.

    Global ``r0 + li < c0 + lj`` depends only on the block shape and
    the diagonal offset ``c0 - r0``, so every diagonal tile of every
    sweep shares one cached (read-only) mask instead of recomputing the
    broadcast compare per tile.
    """
    return _triangle_mask(r1 - r0, c1 - c0, c0 - r0)


@lru_cache(maxsize=64)
def _triangle_mask(rows: int, cols: int, shift: int) -> np.ndarray:
    mask = (
        np.arange(rows, dtype=np.int64)[:, None]
        < np.arange(cols, dtype=np.int64)[None, :] + shift
    )
    # Callers only read it (the kernels use it as the RHS of ``&=``);
    # freezing the buffer keeps the cache sharable.
    mask.setflags(write=False)
    return mask


class TileScratch:
    """Preallocated per-sweep tile buffers (the "shared memory" of the
    engine): one uint64 word-AND temporary, one boolean compare buffer,
    and one boolean hit accumulator, each ``tile x tile``.  Edge tiles
    use leading views.  Allocating these once per sweep keeps the hot
    loop off the allocator — the buffers are exactly what
    :func:`tile_scratch_bytes` charges against a device budget."""

    def __init__(self, tile: int) -> None:
        self.tile = tile
        self.tmp = np.empty((tile, tile), dtype=np.uint64)
        self.tmp_bool = np.empty((tile, tile), dtype=bool)
        self.hit = np.empty((tile, tile), dtype=bool)

    def views(self, rows: int, cols: int):
        return (
            self.tmp[:rows, :cols],
            self.tmp_bool[:rows, :cols],
            self.hit[:rows, :cols],
        )


def anticommute_parity_block(
    packed: np.ndarray, r0: int, r1: int, c0: int, c1: int
) -> np.ndarray:
    """Tiled anticommutation kernel: ``parity(popcount(a & b))`` for the
    ``(r0:r1) x (c0:c1)`` block of the packed IOOH matrix, as uint8."""
    return parity_block(packed[r0:r1], packed[c0:c1])


def lists_intersect_block(
    colmasks: np.ndarray,
    r0: int,
    r1: int,
    c0: int,
    c1: int,
    scratch: TileScratch | None = None,
) -> np.ndarray:
    """Tiled palette-intersection kernel: boolean block, True where the
    candidate-color bitsets of the row and column vertex intersect."""
    if scratch is None:
        return anybit_block(colmasks[r0:r1], colmasks[c0:c1])
    tmp, tmp_bool, hit = scratch.views(r1 - r0, c1 - c0)
    return anybit_block(colmasks[r0:r1], colmasks[c0:c1], tmp, tmp_bool, hit)


def conflict_hits_block(
    colmasks: np.ndarray,
    r0: int,
    r1: int,
    c0: int,
    c1: int,
    edge_mask_fn=None,
    edge_block_fn: EdgeBlockFn | None = None,
    dense_edge_fraction: float = DENSE_EDGE_FRACTION,
    scratch: TileScratch | None = None,
    backend: KernelBackend | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """The fused §V conflict kernel for one tile, emitting ``(i, j)``.

    A pair is a conflict edge iff it is an edge of the graph being
    colored AND the endpoints share a candidate color.  The cheap
    palette intersection runs first over the whole tile; the edge
    oracle is consulted only for survivors — gathered pairwise through
    ``edge_mask_fn`` when survivors are sparse, or as one
    ``edge_block_fn`` broadcast when at least ``dense_edge_fraction``
    of the tile survived (the broadcast reads each operand row once,
    beating the gather as density grows).

    ``backend`` (a :class:`~repro.device.backends.KernelBackend`,
    ``None`` = numpy) supplies the palette-intersection kernel and is
    counted as one ``device.dispatch{backend=...}``.  The survivor
    bookkeeping, diagonal masking and oracle policy stay here, so
    every backend shares this one driver.

    Hits are returned as global index arrays in row-major tile order
    (``i`` ascending, ``j`` ascending within a row) — the order the
    two-pass CSR fill relies on.
    """
    if edge_mask_fn is None and edge_block_fn is None:
        raise ValueError("need edge_mask_fn or edge_block_fn")
    if backend is None:
        # Deferred: the backend package imports this module.
        from repro.device.backends import get_backend

        backend = get_backend("numpy")
    telemetry.count("device.dispatch", backend=backend.name)
    hit = backend.lists_intersect_block(colmasks, r0, r1, c0, c1, scratch)
    if r0 == c0:
        hit &= upper_triangle_mask(r0, r1, c0, c1)
    li, lj = np.nonzero(hit)
    if len(li) == 0:
        return _EMPTY, _EMPTY
    gi = li + r0
    gj = lj + c0
    if edge_block_fn is not None and (
        edge_mask_fn is None or len(li) >= dense_edge_fraction * hit.size
    ):
        keep = np.asarray(edge_block_fn(r0, r1, c0, c1))[li, lj].astype(
            bool, copy=False
        )
    else:
        keep = np.asarray(edge_mask_fn(gi, gj)).astype(bool, copy=False)
    return gi[keep], gj[keep]


def conflict_hits_strip(
    colmasks: np.ndarray,
    tiles,
    edge_mask_fn=None,
    edge_block_fn: EdgeBlockFn | None = None,
    dense_edge_fraction: float = DENSE_EDGE_FRACTION,
    scratch: TileScratch | None = None,
    backend: KernelBackend | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Run the fused conflict kernel over a strip of tiles.

    ``tiles`` is an iterable of ``(r0, r1, c0, c1)`` blocks in canonical
    row-major order; the per-tile hits are concatenated in that order,
    so a partitioned sweep that gathers strip results in strip order
    reproduces the serial sweep's global hit stream exactly.  This is
    the unit of work an execution backend ships to a worker process —
    one task, one ``(i, j)`` result pair.
    """
    us: list[np.ndarray] = []
    vs: list[np.ndarray] = []
    for r0, r1, c0, c1 in tiles:
        i, j = conflict_hits_block(
            colmasks, r0, r1, c0, c1, edge_mask_fn, edge_block_fn,
            dense_edge_fraction=dense_edge_fraction, scratch=scratch,
            backend=backend,
        )
        if len(i):
            us.append(i)
            vs.append(j)
    if not us:
        return _EMPTY, _EMPTY
    return np.concatenate(us), np.concatenate(vs)


def block_hits(
    block_fn: EdgeBlockFn, r0: int, r1: int, c0: int, c1: int
) -> tuple[np.ndarray, np.ndarray]:
    """Upper-triangle hits of ``block_fn`` on one tile, as global
    ``(i, j)`` index arrays — the shared per-tile body of
    :func:`sweep_block_hits` and :func:`block_hits_strip` (one place to
    keep the diagonal masking, so serial and parallel explicit-builder
    sweeps cannot diverge)."""
    blk = np.asarray(block_fn(r0, r1, c0, c1)).astype(bool, copy=False)
    if r0 == c0:
        blk = blk & upper_triangle_mask(r0, r1, c0, c1)
    li, lj = np.nonzero(blk)
    if len(li) == 0:
        return _EMPTY, _EMPTY
    return li + r0, lj + c0


def block_hits_strip(
    block_fn: EdgeBlockFn, tiles
) -> tuple[np.ndarray, np.ndarray]:
    """Per-worker task of the generic tiled pair sweep: concatenate the
    upper-triangle hits of ``block_fn`` over a strip of tiles (the
    parallel unit behind :func:`sweep_block_hits`)."""
    us: list[np.ndarray] = []
    vs: list[np.ndarray] = []
    for r0, r1, c0, c1 in tiles:
        i, j = block_hits(block_fn, r0, r1, c0, c1)
        if len(i):
            us.append(i)
            vs.append(j)
    if not us:
        return _EMPTY, _EMPTY
    return np.concatenate(us), np.concatenate(vs)


def sweep_conflict_hits(
    n: int,
    colmasks: np.ndarray,
    edge_mask_fn=None,
    edge_block_fn: EdgeBlockFn | None = None,
    tile: int | None = None,
    tile_bytes: int = DEFAULT_TILE_BYTES,
    backend: KernelBackend | None = None,
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Run the fused conflict kernel over all upper-triangle tiles,
    yielding one ``(i, j)`` hit pair per tile (possibly empty)."""
    if tile is None:
        tile = tile_edge(tile_bytes, n=n)
    scratch = TileScratch(tile)
    for r0, r1, c0, c1 in iter_tiles(n, tile):
        yield conflict_hits_block(
            colmasks, r0, r1, c0, c1, edge_mask_fn, edge_block_fn,
            scratch=scratch, backend=backend,
        )


def sweep_block_hits(
    n: int, block_fn: EdgeBlockFn, tile: int
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Generic tiled pair sweep: yield global ``(i, j)`` where
    ``block_fn``'s block is nonzero, upper triangle only.

    Used by the explicit graph builders, whose predicate (anticommute /
    commute) applies to every pair rather than being conflict-filtered.
    """
    for r0, r1, c0, c1 in iter_tiles(n, tile):
        yield block_hits(block_fn, r0, r1, c0, c1)


def count_block_hits(n: int, block_fn: EdgeBlockFn, tile: int) -> int:
    """Count nonzero upper-triangle pairs of a block predicate without
    materializing any index arrays."""
    total = 0
    for r0, r1, c0, c1 in iter_tiles(n, tile):
        blk = np.asarray(block_fn(r0, r1, c0, c1)).astype(bool, copy=False)
        if r0 == c0:
            blk &= upper_triangle_mask(r0, r1, c0, c1)
        total += int(np.count_nonzero(blk))
    return total
