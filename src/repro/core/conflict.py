"""Host-path conflict-graph construction (Algorithm 1, line 7).

An edge ``(u, v)`` of the graph being colored is *conflicted* when the
candidate color lists of ``u`` and ``v`` intersect.  Only those edges
are materialized — the sparsity that gives Picasso its sublinear space
(Lemma 2).  The device path with budget accounting lives in
:mod:`repro.device.csr_build`; this host path shares the same kernels.

The pair space is swept by one of two kernels, chosen per sweep by
:func:`repro.device.buckets.plan_sweep`:

- the block-broadcast tile kernel of :mod:`repro.device.tiles`, which
  tests all ``n(n-1)/2`` pairs against the ``W`` palette words, each
  ``(row_block, col_block)`` tile as one word broadcast;
- the color-bucket kernel of :mod:`repro.device.buckets`, which only
  generates the ``G`` pairs that share a candidate color.

It picks the bucket kernel when ``G`` generated pairs cost less than
``n(n-1)/2 · W`` word tests.  Both kernels emit the same canonical hit
order, so the CSR is byte-identical whichever runs.

The sweep runs through an execution backend
(:mod:`repro.parallel.executor`): serial in-process streaming, or a
process pool that sweeps balanced contiguous strips of the domain and
gathers results in deterministic strip order.  All paths feed the same
two-pass count-then-fill CSR assembly
(:func:`repro.graphs.csr.csr_from_coo_chunks`), so serial and parallel
builds are bit-identical per seed.
"""

from __future__ import annotations

import numpy as np

from repro.device.tiles import DEFAULT_TILE_BYTES, EdgeBlockFn
from repro.graphs.csr import CSRGraph
from repro.graphs.ops import induced_subgraph
from repro.parallel.executor import Executor, owned_executor
from repro.parallel.pool import conflict_sweep_chunks, gathered_conflict_csr


def build_conflict_graph(
    n: int,
    edge_mask_fn,
    colmasks: np.ndarray,
    edge_block_fn: EdgeBlockFn | None = None,
    tile_bytes: int = DEFAULT_TILE_BYTES,
    n_workers: int = 1,
    executor: str | Executor = "auto",
    shm: bool = False,
    est_conflict_edges: float | None = None,
    source=None,
    active_idx: np.ndarray | None = None,
    hosts=None,
    timings: dict | None = None,
    kernel_backend: str | None = None,
    kernel: str = "auto",
) -> tuple[CSRGraph, int]:
    """Build the conflict graph over ``n`` active vertices on the host.

    Parameters
    ----------
    n, edge_mask_fn, colmasks:
        Active vertex count, pairwise edge oracle, packed palette
        bitsets.
    edge_block_fn:
        Optional block edge oracle (dense tiles then skip the pairwise
        survivor gather entirely).
    tile_bytes:
        Per-tile scratch budget.
    n_workers:
        Worker processes for the sweep (1 = serial streaming).
    executor:
        Backend spec (``"auto"``/``"serial"``/``"pool"``) or an
        :class:`~repro.parallel.executor.Executor` instance.  With a
        pool backend the edge oracle and colmasks ship once per worker
        and the strip results are gathered in deterministic order, so
        the built CSR is bit-identical to the serial one.  A
        spec-created backend is closed before returning; a passed
        instance stays open for its owner (executor lifecycle
        contract).
    shm:
        Gather hits through a shared COO region sized by the Lemma 2
        estimate (:mod:`repro.parallel.shm`) instead of pickling strip
        results — zero-copy into the CSR assembly.  Ignored for serial
        backends, where results never cross a pipe to begin with.
    est_conflict_edges:
        Expected conflict-edge count for shm region sizing (the driver
        passes the Lemma 2 expectation; ``None`` derives a bound from
        the masks).
    source, active_idx:
        Root edge source and active-vertex indices for the
        persistent-pool delta payload (see
        :mod:`repro.parallel.pool`).
    hosts:
        Worker-agent addresses for the distributed backend (spec
        ``"cluster"``, or ``"auto"`` with hosts set; see
        :mod:`repro.distributed`).  Sharded builds stay bit-identical
        to serial — strips merge in canonical order.
    timings:
        Optional dict accumulating ``sweep_s`` / ``assemble_s`` phase
        buckets (see :func:`repro.parallel.pool.gathered_conflict_csr`).
    kernel_backend:
        Kernel-backend *name* (:mod:`repro.device.backends`) for the
        sweep's hot kernels; ``None`` means numpy.
        Resolved worker-side, bit-identical across backends.
    kernel:
        Pair kernel: ``"auto"`` (the measured rule), ``"tile"`` or
        ``"bucket"``.  Output is byte-identical either way.

    Returns the CSR conflict graph and the conflict-edge count.
    """
    with owned_executor(executor, n_workers, hosts=hosts) as ex:
        return gathered_conflict_csr(
            n, edge_mask_fn, colmasks, edge_block_fn,
            tile_bytes=tile_bytes, executor=ex, shm=shm,
            est_conflict_edges=est_conflict_edges,
            source=source, active_idx=active_idx, timings=timings,
            kernel_backend=kernel_backend, kernel=kernel,
        )


# No caller: kept only because perfbench/tracing.py wraps this name.
def build_fused_conflict_state(
    n: int, edge_mask_fn, colmasks: np.ndarray, **kwargs
) -> tuple[CSRGraph, np.ndarray, int]:
    """:func:`build_conflict_graph` followed by the driver's degree scan
    and induced-subgraph relabel: returns the conflicted-subgraph CSR,
    the conflict vertex ids and the conflict-edge count."""
    gc, n_edges = build_conflict_graph(n, edge_mask_fn, colmasks, **kwargs)
    conflicted = np.nonzero(gc.degree() > 0)[0]
    return induced_subgraph(gc, conflicted)[0], conflicted, n_edges


def count_conflict_edges(
    n: int,
    edge_mask_fn,
    colmasks: np.ndarray,
    edge_block_fn: EdgeBlockFn | None = None,
    tile_bytes: int = DEFAULT_TILE_BYTES,
    n_workers: int = 1,
    executor: str | Executor = "auto",
    hosts=None,
    kernel_backend: str | None = None,
    kernel: str = "auto",
) -> int:
    """Conflict-edge count without materializing the graph (parameter
    sweeps, Fig. 5's ``max |Ec|`` heatmap)."""
    with owned_executor(executor, n_workers, hosts=hosts) as ex:
        total = 0
        for i, _ in conflict_sweep_chunks(
            n, edge_mask_fn, colmasks, edge_block_fn,
            tile_bytes=tile_bytes, executor=ex,
            kernel_backend=kernel_backend, kernel=kernel,
        ):
            total += len(i)
        return total
