"""Multi-device conflict-graph construction (paper future work, §VIII).

The paper's stated next step is "distributed multi-GPU parallel
implementations".  The natural decomposition is already in place: the
conflict kernel's domain is the flat pair range, so ``k`` devices each
own a contiguous 1/k slice of pair space.  Each device streams its
slice into its own COO buffer (bounded by its own budget); the host
folds the per-device partial edge lists — one COO chunk per device, in
slice order — straight into the shared two-pass count-then-fill
assembly (:func:`repro.graphs.csr.csr_from_coo_chunks`), the same path
every other build front uses: nothing is concatenated, and the result
is bit-identical to a single-device build of the same pair space.
(The cross-*host* analog of this decomposition lives in
:mod:`repro.distributed`.)

The aggregate capacity is the sum of the devices' budgets, so inputs
that overflow one device complete on several — the property the tests
pin down.
"""

from __future__ import annotations

from contextlib import ExitStack
from dataclasses import dataclass

import numpy as np

from repro.device.kernels import EdgeMaskFn, conflict_pair_hits
from repro.device.sim import DeviceOutOfMemory, DeviceSim
from repro.graphs.csr import CSRGraph, csr_from_coo_chunks
from repro.parallel.partition import PairRange, partition_pairs


@dataclass
class MultiBuildStats:
    """Per-device telemetry for a multi-device build."""

    n_vertices: int
    n_conflict_edges: int
    edges_per_device: list[int]
    peak_bytes_per_device: list[int]


def build_conflict_csr_multi(
    n: int,
    edge_mask_fn: EdgeMaskFn,
    colmasks: np.ndarray,
    devices: list[DeviceSim],
    chunk_size: int = 1 << 18,
) -> tuple[CSRGraph, MultiBuildStats]:
    """Build the conflict graph across several simulated devices.

    Each device holds a replica of the encoded inputs (colmasks) plus a
    COO buffer sized to its remaining budget, and scans a contiguous
    slice of pair space.  Raises :class:`DeviceOutOfMemory` naming the
    device whose slice overflowed.
    """
    if not devices:
        raise ValueError("need at least one device")
    ranges = partition_pairs(n, len(devices))
    # partition_pairs drops empty ranges; align by padding.
    while len(ranges) < len(devices):
        ranges.append(PairRange(0, 0))

    chunks: list[tuple[np.ndarray, np.ndarray]] = []
    edges_per_device: list[int] = []
    id_bytes = 4 if n < 2**31 else 8
    id_dtype = np.int32 if id_bytes == 4 else np.int64

    for rank, (dev, rng) in enumerate(zip(devices, ranges)):
        # One ExitStack for all three buffers: an allocation that raises
        # must not strand the ones made before it.
        with ExitStack() as allocs:
            allocs.enter_context(dev.scratch("colmasks", int(colmasks.nbytes)))
            counter_bytes = 4 if n * n < 2**32 else 8
            allocs.enter_context(
                dev.scratch("edge_counters", 2 * n * counter_bytes)
            )
            coo_bytes = dev.available
            allocs.enter_context(dev.scratch("coo_edges", coo_bytes))
            capacity = coo_bytes // (2 * id_bytes)
            u_buf = np.empty(capacity, dtype=id_dtype)
            v_buf = np.empty(capacity, dtype=id_dtype)
            filled = 0
            for ei, ej in conflict_pair_hits(
                n, edge_mask_fn, colmasks, rng.start, rng.stop, chunk_size
            ):
                if filled + len(ei) > capacity:
                    dev.n_ooms += 1
                    raise DeviceOutOfMemory(
                        f"device {rank} ({dev.name}): slice "
                        f"[{rng.start}, {rng.stop}) produced more than "
                        f"{capacity} conflict edges"
                    )
                u_buf[filled : filled + len(ei)] = ei
                v_buf[filled : filled + len(ej)] = ej
                filled += len(ei)
        chunks.append(
            (
                u_buf[:filled].astype(np.int64),
                v_buf[:filled].astype(np.int64),
            )
        )
        edges_per_device.append(filled)

    # One COO chunk per device, in pair-slice order, straight into the
    # shared two-pass assembly — the same chunk stream a single-device
    # (or strip-parallel) sweep of the full pair space produces, so the
    # CSR is bit-identical to those builds.
    graph = csr_from_coo_chunks(chunks, n)
    stats = MultiBuildStats(
        n_vertices=n,
        n_conflict_edges=int(sum(edges_per_device)),
        edges_per_device=edges_per_device,
        peak_bytes_per_device=[d.peak_bytes for d in devices],
    )
    return graph, stats
