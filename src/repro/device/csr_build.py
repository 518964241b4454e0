"""Algorithm 3: device-assisted conflict-graph construction in CSR form.

Faithful to the paper's control flow:

1. allocate ``min(worst-case edge list, remaining device memory)`` for
   the unordered COO buffer (line 1–2);
2. launch the pair kernel to fill the COO edge list and per-vertex
   degree counters (line 3) — overflowing the COO buffer is a device
   OOM, the failure mode Fig. 2's dashed line delimits;
3. exclusive-scan the counters into CSR offsets (line 4);
4. if the COO list fits in half the *allocated* memory, assemble CSR
   "on device", otherwise fall back to host assembly (lines 5–8) —
   CSR stores each edge twice, hence the factor of two.

Counters are 4-byte when ``|V|^2 < 2^32`` and 8-byte otherwise, exactly
as §V describes.
"""

from __future__ import annotations

from contextlib import ExitStack, nullcontext
from dataclasses import dataclass

import numpy as np

from repro.device.kernels import EdgeMaskFn, conflict_pair_hits
from repro.device.sim import DeviceSim
from repro.device.tiles import (
    DEFAULT_TILE_BYTES,
    EdgeBlockFn,
    tile_edge,
    tile_scratch_bytes,
)
from repro.graphs.csr import CSRGraph, csr_from_coo_chunks
from repro.parallel.executor import Executor, owned_executor
from repro.parallel.pool import conflict_hit_chunks


@dataclass
class BuildStats:
    """Where and how big the Algorithm 3 build was."""

    n_vertices: int
    n_conflict_edges: int
    built_on_device: bool
    device_peak_bytes: int
    coo_capacity_edges: int
    #: ``"tiled"``, or ``"pairs"`` when the flat-kernel fallback ran.
    engine: str = "tiled"
    n_workers: int = 1
    gather: str = "pickle"


def build_conflict_csr(
    n: int,
    edge_mask_fn: EdgeMaskFn,
    colmasks: np.ndarray,
    device: DeviceSim,
    edge_block_fn: EdgeBlockFn | None = None,
    tile_bytes: int = DEFAULT_TILE_BYTES,
    n_workers: int = 1,
    executor: str | Executor = "auto",
    shm: bool = False,
    est_conflict_edges: float | None = None,
    source=None,
    active_idx=None,
    kernel_backend: str | None = None,
) -> tuple[CSRGraph, BuildStats]:
    """Run Algorithm 3 on a simulated device.

    Parameters
    ----------
    n:
        Number of active vertices.
    edge_mask_fn:
        Complement-edge oracle over pair index arrays.
    colmasks:
        ``(n, W)`` packed candidate-color bitsets.
    device:
        Budgeted device; raises :class:`DeviceOutOfMemory` when the COO
        buffer cannot hold the conflict edges.
    edge_block_fn:
        Optional block edge oracle for the tiled sweep.
    tile_bytes:
        Upper bound on the tile scratch allocation *per worker*.  The
        tile scratch is a named device allocation sized against the
        remaining budget *before* the COO buffer takes the rest; if
        even a minimum tile cannot fit alongside a useful COO buffer,
        the build degrades to the scratch-free flat pair kernel, run
        in-process (mirroring Algorithm 3's own device/host fallback
        discipline).
    n_workers:
        Worker processes for the sweep; every worker owns a private
        tile scratch, so the device is charged ``n_workers`` times the
        per-tile scratch (a multi-SM kernel reserves shared memory per
        resident block the same way).
    executor:
        Backend spec or instance (see :mod:`repro.parallel.executor`).
        A spec-created backend is closed before returning; a passed
        instance stays open for its owner.
    shm:
        Stage worker hits in a shared-memory COO region
        (:mod:`repro.parallel.shm`) instead of the result pipe.  The
        staging region is charged to the device budget like any other
        allocation (pinned host staging of a real GPU gather), so OOM
        semantics stay honest.  Ignored for backends that cannot carry
        it (serial in-process sweeps, cross-host cluster backends).
    est_conflict_edges:
        Lemma 2 expectation for shm region sizing (``None`` derives a
        bound from the masks).
    source, active_idx:
        Root edge source + active indices for the persistent-pool
        delta payload (:mod:`repro.parallel.pool`).
    kernel_backend:
        Kernel-backend *name* (:mod:`repro.device.backends`) for the
        sweep's hot kernels; ``None`` means numpy.

    Returns
    -------
    (graph, stats):
        The conflict graph in CSR form plus build provenance.
    """
    with owned_executor(executor, n_workers) as ex:
        return _algorithm3(
            n, edge_mask_fn, colmasks, device, edge_block_fn,
            tile_bytes, ex, shm, est_conflict_edges,
            source, active_idx, kernel_backend,
        )


def _algorithm3(
    n, edge_mask_fn, colmasks, device, edge_block_fn,
    tile_bytes, ex, shm, est_conflict_edges, source, active_idx,
    kernel_backend=None,
) -> tuple[CSRGraph, BuildStats]:
    """Algorithm 3 proper, against an already-resolved executor."""
    workers = max(1, ex.n_workers)

    # All build allocations go through DeviceSim.scratch on one
    # ExitStack — the same named-allocation discipline the coloring
    # engines use for their palette scratch — so every buffer is freed
    # exactly once whether the build completes or aborts mid-stream.
    with ExitStack() as allocs:
        # Input residency: encoded strings + color lists live on device
        # for the kernel (approximated by the colmask bytes; the Pauli
        # payload is charged by the caller, which owns its lifetime).
        allocs.enter_context(device.scratch("colmasks", int(colmasks.nbytes)))

        # Degree counters: 4-byte if |V|^2 < 2^32 else 8-byte (§V).
        counter_bytes = 4 if n * n < 2**32 else 8
        allocs.enter_context(
            device.scratch("edge_counters", 2 * n * counter_bytes)
        )

        # Tile scratch: reserved ahead of the COO buffer (which takes
        # all remaining memory).  At most a quarter of what is left —
        # split across workers, each of which owns a private scratch —
        # so the COO stream keeps the lion's share; degrade to the
        # in-process flat pair kernel when a minimum tile per worker
        # would not fit.
        tile = tile_edge(
            min(tile_bytes, device.available // 4 // workers), n=n
        )
        # The block edge oracle (dense-tile path) brings its own (R, C)
        # temporaries on top of the TileScratch buffers — charge both,
        # for every worker, so the simulated peak stays honest.
        scratch = (
            tile_scratch_bytes(tile) * (2 if edge_block_fn else 1) * workers
        )
        if scratch <= device.available // 2:
            allocs.enter_context(device.scratch("tile_scratch", scratch))
        else:
            tile = None
        # The fallback sweeps in-process, so nothing crosses a pipe and
        # no shm staging is needed.
        use_shm = shm and ex.supports_shm_gather and tile is not None

        # Shm staging must be budgeted *before* the COO buffer takes
        # all remaining memory, or the mandatory staging allocation
        # would find 0 bytes available whenever the worst case reaches
        # the budget.
        staging_hint = 0
        if use_shm:
            from repro.parallel.pool import TASKS_PER_WORKER
            from repro.parallel.shm import (
                estimate_conflict_edges,
                staging_bytes_hint,
            )

            if est_conflict_edges is None:
                # Reused below for slot planning too — one mask pass,
                # not two.
                est_conflict_edges = estimate_conflict_edges(n, colmasks)
            staging_hint = staging_bytes_hint(
                n, est_conflict_edges, workers * TASKS_PER_WORKER
            )

        # COO buffer: min(worst case, all remaining memory minus the
        # shm staging reservation). Each COO entry is two vertex ids.
        id_bytes = 4 if n < 2**31 else 8
        worst_case_bytes = 2 * n * max(n - 1, 0) * id_bytes
        coo_bytes = min(
            worst_case_bytes, max(device.available - staging_hint, 0)
        )
        allocs.enter_context(device.scratch("coo_edges", coo_bytes))
        capacity = coo_bytes // (2 * id_bytes)

        # Shared-memory staging regions are device-charged as they
        # appear (the initial region, plus a retry region on
        # undershoot) — the pinned-host-staging analog of a real GPU
        # gather.
        shm_count = 0

        def _charge_shm_region(nbytes: int) -> None:
            nonlocal shm_count
            allocs.enter_context(
                device.scratch(f"shm_coo_{shm_count}", nbytes)
            )
            shm_count += 1

        id_dtype = np.int32 if id_bytes == 4 else np.int64
        coo_u = np.empty(capacity, dtype=id_dtype)
        coo_v = np.empty(capacity, dtype=id_dtype)
        n_edges = 0
        if tile is None:
            hits = nullcontext(conflict_pair_hits(n, edge_mask_fn, colmasks))
        else:
            hits = conflict_hit_chunks(
                n, edge_mask_fn, colmasks, edge_block_fn,
                tile=tile, executor=ex, shm=shm,
                est_conflict_edges=est_conflict_edges,
                source=source, active_idx=active_idx,
                region_cb=_charge_shm_region,
                kernel_backend=kernel_backend,
            )
        with hits as hit_stream:
            try:
                for ei, ej in hit_stream:
                    if n_edges + len(ei) > capacity:
                        device.n_ooms += 1
                        from repro.device.sim import DeviceOutOfMemory

                        raise DeviceOutOfMemory(
                            f"COO buffer overflow: {n_edges + len(ei)} "
                            f"conflict edges exceed capacity {capacity}"
                        )
                    coo_u[n_edges : n_edges + len(ei)] = ei
                    coo_v[n_edges : n_edges + len(ej)] = ej
                    n_edges += len(ei)
            finally:
                # The loop variables are views into the shared region on
                # the shm path; drop them before the gather context
                # closes the segment, or the unmap would see live
                # buffer exports.
                ei = ej = None

        # CSR needs each edge twice; assemble on device only if the COO
        # list occupies at most half of the *allocated* region (Alg. 3
        # line 5) — the CSR targets are then scattered into the spare
        # half of the same allocation, so no further device memory is
        # requested.  Otherwise the unordered list is read back and
        # converted on the host (lines 7-8).  Either way the filled COO
        # prefix goes through the same two-pass count-then-fill
        # assembly as every host build (degree scan, exclusive scan,
        # scatter), so device and host CSRs are identical byte for byte.
        csr_payload = 2 * n_edges * id_bytes
        on_device = csr_payload <= coo_bytes // 2
        graph = csr_from_coo_chunks([(coo_u[:n_edges], coo_v[:n_edges])], n)

    stats = BuildStats(
        n_vertices=n,
        n_conflict_edges=n_edges,
        built_on_device=on_device,
        device_peak_bytes=device.peak_bytes,
        coo_capacity_edges=int(capacity),
        engine="pairs" if tile is None else "tiled",
        n_workers=workers,
        gather="shm" if use_shm else "pickle",
    )
    return graph, stats
