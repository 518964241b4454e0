"""Unified parallel pair-sweep dispatch over execution backends.

The paper provides "a sequential and a parallel implementation" (§I);
its CPU parallelism is shared-memory threads over pair chunks.  Python
processes substitute for threads (the GIL rules those out for compute).
This module is the seam where every conflict/graph sweep meets an
:class:`~repro.parallel.executor.Executor`: the upper-triangular tile
grid is partitioned into balanced contiguous
:class:`~repro.parallel.partition.TileBlock` strips, and each worker
runs the fused block-broadcast kernel over its strip and returns one
concatenated ``(i, j)`` hit pair.

Payload shipping is two-tier for the persistent pool.  The payload is
split into a **static** part (the edge source / oracle and kernel
configuration — constant across Algorithm 1 iterations when the caller
passes the *root* ``source``) and a per-sweep **delta** (the packed
color masks, the active-vertex indices and the tile size).  The static
part is installed once under a token and cached worker-side; while the
pool lives and the token matches, later sweeps ship only the delta —
the per-iteration colmasks instead of the full payload.  Workers derive
the iteration's edge oracle from the cached root source and the active
indices, which reproduces the dispatcher's own subset construction
exactly.  Strips keep the canonical tile order and results are gathered
in task order, so the concatenated hit stream is identical to the
serial sweep's and the two-pass CSR assembly
(:func:`repro.graphs.csr.csr_from_coo_chunks`) produces **bit-identical
graphs** for serial and parallel builds per seed.

Hit arrays travel back either pickled through the result pipe (the
default) or through a shared-memory COO region
(:mod:`repro.parallel.shm`) where workers write into reserved slices
and only hit counts cross the pipe.

Per-sweep worker state (colmasks, derived oracle, tile scratch) is
cleared in a ``finally`` on the dispatcher side after every sweep —
both in-process and, for pools, via a teardown broadcast — so large
arrays never stay alive between builds.  Only the token-cached static
payload survives, by design, until the executor closes.

On a single-core box this demonstrates correctness, not speedup; the
Table V speedup comes from the vectorized kernels instead.
"""

from __future__ import annotations

import itertools
import threading
import weakref
from collections.abc import Iterator
from contextlib import ExitStack, contextmanager

import numpy as np

from repro import telemetry
from repro.device.buckets import (
    ColorBuckets,
    bucket_hits_rows,
    bucket_hits_strip,
    plan_strip_weights,
    plan_sweep,
)
from repro.device.tiles import (
    DEFAULT_TILE_BYTES,
    EdgeBlockFn,
    TileScratch,
    block_hits_strip,
    conflict_hits_strip,
    sweep_block_hits,
    sweep_conflict_hits,
    tile_edge,
)
from repro.graphs.csr import CSRGraph, csr_from_coo_chunks
from repro.parallel.executor import Executor, SerialExecutor, owned_executor
from repro.parallel.partition import partition_tiles, partition_weights, tile_grid
from repro.parallel.shm import (
    close_worker_attachments,
    shm_conflict_gather,
    write_strip_hits,
)
from repro.pauli.anticommute import AnticommuteOracle
from repro.resilience.faults import fault_point

__all__ = [
    "conflict_sweep_chunks",
    "conflict_hit_chunks",
    "gathered_conflict_csr",
    "block_sweep_chunks",
    "parallel_conflict_graph",
    "payload_token_for",
    "imap_delta_install",
    "PayloadNotInstalled",
    "TASKS_PER_WORKER",
    "strip_shares",
    "finalize_sweep",
]


class PayloadNotInstalled(RuntimeError):
    """A delta-only install reached a worker without the cached static
    payload (it was auto-respawned after dying) — the one install
    failure that is mechanically recoverable by re-sending in full."""

#: Tasks handed to the pool per worker: a few strips each so stragglers
#: (denser strips, busier cores) rebalance through the pool queue.
TASKS_PER_WORKER = 4

# Worker-global per-sweep state, installed by the payload initializer
# and cleared by :func:`teardown_sweep_worker` when the sweep ends.
_WORKER: dict = {}

# Worker-global static-payload cache: one entry, keyed by the payload
# token.  Holds the root edge source and kernel configuration across
# sweeps of a persistent pool so repeat installs can ship only the
# delta.  Replaced on the next full install; dies with the pool.
_STATIC_CACHE: dict = {}

# Dispatcher-side token registry: every source object gets one stable
# token for its lifetime; tokens are never reused (a dead source's
# entry vanishes with it and the counter only moves forward), so a
# stale worker cache can never be mistaken for the current payload.
_TOKEN_COUNTER = itertools.count(1)
_SOURCE_TOKENS: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def payload_token_for(source) -> int:
    """Stable install token for a root edge source object."""
    token = _SOURCE_TOKENS.get(source)
    if token is None:
        token = next(_TOKEN_COUNTER)
        _SOURCE_TOKENS[source] = token
    return token


def _backend_for(kernel_backend: str | None):
    """Resolve a kernel-backend *name* to an instance (``None`` =
    numpy).  The import is deferred so the pool module never drags the
    backend registry (and through it the device package) into its own
    import cycle.
    """
    from repro.device.backends import resolve_backend

    return resolve_backend(kernel_backend or "numpy")


def sweep_payload(
    n: int,
    tile: int,
    colmasks: np.ndarray,
    edge_mask_fn,
    edge_block_fn,
    source=None,
    active_idx: np.ndarray | None = None,
    executor: Executor | None = None,
    kernel_backend: str | None = None,
    kernel: str = "tile",
) -> tuple[dict, int | None]:
    """Build the install payload and its token for one sweep.

    With a ``source`` and a cache-capable executor the static part is
    the *root* source; when the executor still holds the token, the
    static part is elided and only the delta (colmasks, active indices,
    tile) ships.  Without a source the edge functions themselves are
    the static part and every install is a full one (token ``None``).

    ``kernel_backend`` ships as a *name* in the static part and is
    resolved by :func:`init_sweep_worker` in the worker process —
    spawned and remote workers pick their backend against their own
    environment (a cluster agent without numba degrades to numpy on
    its own, bit-identically).

    ``kernel`` (``"tile"`` or ``"bucket"``, the dispatcher's choice for
    this sweep) rides the delta: workers build the matching per-sweep
    state — tile scratch, or the color-bucket index derived from the
    shipped ``colmasks``.
    """
    delta = {
        "n": n,
        "tile": tile,
        "colmasks": colmasks,
        "active_idx": active_idx,
        "kernel": kernel,
    }
    if source is not None and executor is not None and executor.supports_payload_cache:
        # The token must name the *whole* static part, not just the
        # source: the same executor swept with a different kernel
        # backend is a different payload, and a delta-only install
        # against the old cache would run stale config.  The leading
        # "sweep" element is the token channel (see
        # :func:`repro.parallel.executor.token_channel`): sweep and
        # coloring payloads coexist on one persistent pool without
        # evicting each other's delta path.
        # Telemetry rides the token too: a worker that cached a static
        # payload without the recording flag must take a full install
        # when recording turns on (and vice versa), or it would keep
        # running under the stale flag.  Neutral either way — the flag
        # never touches the numerics.
        token = (
            "sweep", payload_token_for(source), kernel_backend,
            telemetry.enabled(),
        )
        static = {
            "source": source,
            "edge_mask_fn": None,
            "edge_block_fn": None,
            "kernel_backend": kernel_backend,
            "telemetry": telemetry.enabled(),
        }
        if executor.holds_token(token):
            static = None
        telemetry.count(
            "pool.install.delta" if static is None else "pool.install.full"
        )
        return {"token": token, "static": static, "delta": delta}, token
    static = {
        "source": source,
        "edge_mask_fn": edge_mask_fn if source is None else None,
        "edge_block_fn": edge_block_fn if source is None else None,
        "kernel_backend": kernel_backend,
        "telemetry": telemetry.enabled(),
    }
    telemetry.count("pool.install.full")
    return {"token": None, "static": static, "delta": delta}, None


def imap_delta_install(
    executor: Executor, task_fn, tasks, initializer, make_payload
):
    """Submit with a token-cached payload, retrying once on the
    delta-install respawn race — the one retry protocol shared by the
    conflict sweep and the parallel coloring engine.

    ``make_payload(force_full)`` returns ``(payload, token, is_full)``.
    ``holds_token`` is checked when the payload is built, but a worker
    can die (and be auto-respawned with an empty cache) before the
    broadcast lands; the stranded worker then raises
    :class:`PayloadNotInstalled` and the broadcast recycles the pool.
    Because an install has no side effects beyond worker state, the
    recovery is mechanical: rebuild the payload in full (a recycled
    pool no longer holds the token, so delta-aware builders come out
    full on their own) and submit once more.  The failure may also
    surface as a *peer's* ``BrokenBarrierError`` (the stranded worker
    aborts the install barrier, and whichever error the pool reports
    wins), so both count as the respawn race — but only for a
    delta-only install; a failure on a *full* install is a real error
    and propagates.

    A supervised executor
    (:class:`repro.resilience.supervisor.ResilientExecutor`) exposes
    ``imap_with_payload`` and takes over the whole protocol — it must
    re-materialize the payload on *every* retry/failover, not just
    once, so the delta decision is made against whichever backend is
    current.
    """
    supervised = getattr(executor, "imap_with_payload", None)
    if supervised is not None:
        return supervised(task_fn, tasks, initializer, make_payload)
    payload, token, is_full = make_payload(False)
    try:
        return executor.imap(
            task_fn, tasks, initializer=initializer,
            payload=(payload,), payload_token=token,
        )
    except (PayloadNotInstalled, threading.BrokenBarrierError):
        if is_full:
            raise
        payload, token, _ = make_payload(True)
        return executor.imap(
            task_fn, tasks, initializer=initializer,
            payload=(payload,), payload_token=token,
        )


def imap_sweep(executor: Executor, task_fn, tasks, payload_args: dict):
    """Install a sweep payload and stream the tasks (see
    :func:`imap_delta_install` for the retry semantics)."""

    def make_payload(force_full: bool):
        # Full-ness is decided by sweep_payload via holds_token; after
        # the respawn race recycled the pool the token is gone, so the
        # rebuild comes out full without needing the flag.
        payload, token = sweep_payload(**payload_args)
        return payload, token, payload["static"] is not None

    return imap_delta_install(
        executor, task_fn, tasks, init_sweep_worker, make_payload
    )


def init_sweep_worker(payload: dict) -> None:
    """Install a sweep payload; derive per-worker oracle and tile state.

    A payload whose ``static`` part is ``None`` reuses the worker's
    token-cached static payload (the delta-only install of a persistent
    pool).  The previous sweep's state is dropped first.
    """
    token = payload["token"]
    static = payload["static"]
    if static is not None:
        # Any full install evicts the previous cache entry — a
        # token-less sweep (bare edge fns) must not leave the prior
        # run's root source pinned in the worker.
        _STATIC_CACHE.clear()
        if token is not None:
            _STATIC_CACHE[token] = static
    else:
        static = _STATIC_CACHE.get(token)
        if static is None:
            raise PayloadNotInstalled(
                f"sweep payload token {token!r} not installed in this worker "
                "(respawned after a crash?)"
            )
    teardown_sweep_worker()
    _WORKER.update(static)
    _WORKER.update(payload["delta"])
    # The recording flag ships with the static payload so pool workers
    # and cluster agents mirror the dispatcher's telemetry state.  Only
    # ever switched on here: under the serial executor this runs in the
    # dispatcher process, whose state is already authoritative.
    if _WORKER.get("telemetry"):
        telemetry.enable(True)
    source = _WORKER.get("source")
    if source is not None:
        idx = _WORKER.get("active_idx")
        if idx is not None:
            source = source.subset(idx)
        _WORKER["edge_mask_fn"] = source.edge_mask
        _WORKER["edge_block_fn"] = getattr(source, "edge_block", None)
    if _WORKER["kernel"] == "bucket":
        _WORKER["buckets"] = ColorBuckets.from_masks(_WORKER["colmasks"])
        return
    # Worker-side backend resolution: the payload carries the *name*,
    # each worker resolves it against its own environment.
    _WORKER["backend"] = _backend_for(_WORKER.get("kernel_backend"))
    _WORKER["grid"] = tile_grid(_WORKER["n"], _WORKER["tile"])
    _WORKER["scratch"] = TileScratch(_WORKER["tile"])


def teardown_sweep_worker() -> dict | None:
    """Drop per-sweep worker state (the dispatcher's ``finally`` duty).

    Clears the colmasks, the derived oracle functions, the tile scratch
    or bucket index, and closes cached shared-memory attachments, so
    none of it outlives the sweep.  The token-cached static payload is kept — that
    persistence is what lets the next install ship only a delta.

    Returns this worker's accumulated telemetry delta (``None`` when
    telemetry is off or in-process): the teardown broadcast runs after
    every sweep on the channel the executor already has, so worker
    metrics piggyback home without an extra round trip — see
    :func:`finalize_sweep`."""
    close_worker_attachments()
    _WORKER.clear()
    return telemetry.drain_worker_snapshot()


def finalize_sweep(executor: Executor) -> None:
    """Tear down per-sweep worker state across an executor and absorb
    the telemetry deltas the teardown returns, merged under the
    backend's slot prefix (``w<k>`` pool workers, ``s<k>`` shards) in
    deterministic slot order."""
    telemetry.absorb_snapshots(
        executor.finalize(teardown_sweep_worker),
        prefix=getattr(executor, "telemetry_prefix", "w"),
    )


def _run_sweep_strip(task: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    """Worker task: one strip of the installed sweep — tiles
    ``[start, stop)`` of the grid for the tile kernel, rows
    ``[start, stop)`` for the bucket kernel."""
    fault_point("task")
    start, stop = task
    with telemetry.span("pool.strip", start=start, stop=stop):
        if _WORKER["kernel"] == "bucket":
            u, v = bucket_hits_strip(
                _WORKER["buckets"], start, stop, _WORKER["edge_mask_fn"]
            )
        else:
            u, v = conflict_hits_strip(
                _WORKER["colmasks"],
                _WORKER["grid"][start:stop],
                _WORKER["edge_mask_fn"],
                _WORKER["edge_block_fn"],
                scratch=_WORKER["scratch"],
                backend=_WORKER["backend"],
            )
    telemetry.observe("pool.strip_hits", float(len(u)))
    return u, v


def run_sweep_strip_shm(task) -> int:
    """Worker task: one strip swept into a shared COO slice; returns
    the hit count (negated on reservation overflow)."""
    (start, stop), spec = task
    u, v = _run_sweep_strip((start, stop))
    return write_strip_hits(u, v, spec)


def _init_block_worker(payload: dict) -> None:
    _WORKER.clear()
    _WORKER.update(payload)
    _WORKER["grid"] = tile_grid(payload["n"], payload["tile"])


def _run_block_strip(task: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    """Worker task: generic block predicate over one strip of tiles."""
    start, stop = task
    return block_hits_strip(_WORKER["block_fn"], _WORKER["grid"][start:stop])


def strip_shares(executor: Executor, n_tasks: int) -> list[int] | None:
    """Capacity shares for the weighted strip deal, or ``None`` for the
    classic equal-share partition.

    Every executor deals task ``k`` to worker slot ``k % n_workers``
    (the pool queue rebalances freely; the cluster deal is positional),
    so giving strip ``k`` a share equal to slot ``k % n_workers``'s
    advertised capacity hands each shard total pair weight proportional
    to its capacity *without touching the deal itself* — the task list
    keeps its canonical contiguous cover, so results (and therefore the
    CSR and the coloring) are bit-identical to the unweighted deal.
    Uniform capacities return ``None``: the equal-share path is kept
    byte-exact."""
    get_caps = getattr(executor, "worker_capacities", None)
    if get_caps is None:
        return None
    caps = list(get_caps())
    if not caps or len(set(caps)) == 1:
        return None
    return [int(caps[k % len(caps)]) for k in range(n_tasks)]


def sweep_strip_tasks(
    n: int, tile: int, executor: Executor, row_weights: np.ndarray | None = None
) -> tuple[list[tuple[int, int]], np.ndarray]:
    """Partition the sweep for an executor: ``(start, stop)`` strip
    tasks in canonical order plus each strip's pair weight (the shm
    gather sizes slot reservations from the weights).

    The tile kernel deals tile strips weighted by their pair counts.
    Given the bucket kernel's per-row generated pairs
    (:meth:`~repro.device.buckets.ColorBuckets.row_weights`), the
    strips are row ranges weighted by them — an upper bound on a
    strip's hits, like a tile strip's pair count.

    Heterogeneous backends (hierarchical cluster agents advertising
    their inner pool size) get a capacity-weighted partition: strip
    ``k``'s pair weight is proportional to the capacity of the worker
    slot the positional deal sends it to.  Weighted partitions keep
    empty strips in place so the ``tasks[k::n]`` alignment holds."""
    n_workers = max(1, executor.n_workers)
    n_tasks = n_workers * TASKS_PER_WORKER
    shares = strip_shares(executor, n_tasks)
    keep = shares is not None
    if row_weights is None:
        blocks = partition_tiles(n, tile, n_tasks, shares=shares, keep_empty=keep)
    else:
        blocks = partition_weights(
            row_weights, n_tasks, shares=shares, keep_empty=keep
        )
    blocks = blocks if keep else [b for b in blocks if len(b)]
    tasks = [(b.start, b.stop) for b in blocks]
    weights = np.array([b.n_pairs for b in blocks], dtype=np.int64)
    return tasks, weights


def planned_strip_tasks(
    n: int, tile: int, executor: Executor, colmasks: np.ndarray,
    kernel: str, edge_mask_fn,
) -> tuple[list[tuple[int, int]], np.ndarray, str]:
    """Pick the sweep kernel
    (:func:`repro.device.buckets.plan_strip_weights`) and partition the
    sweep for it: :func:`sweep_strip_tasks` plus the chosen kernel's
    name, which ships in the payload delta.  Workers build the bucket
    index from the shipped colmasks; the dispatcher only weighs rows."""
    weights = plan_strip_weights(n, colmasks, kernel, edge_mask_fn)
    if weights is None:
        return (*sweep_strip_tasks(n, tile, executor), "tile")
    return (*sweep_strip_tasks(n, tile, executor, weights), "bucket")


def conflict_sweep_chunks(
    n: int,
    edge_mask_fn,
    colmasks: np.ndarray,
    edge_block_fn: EdgeBlockFn | None = None,
    tile_bytes: int = DEFAULT_TILE_BYTES,
    tile: int | None = None,
    executor: Executor | None = None,
    source=None,
    active_idx: np.ndarray | None = None,
    kernel_backend: str | None = None,
    kernel: str = "auto",
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Executor-routed conflict sweep: yield ``(i, j)`` edge chunks.

    The single entry point behind the host build
    (:mod:`repro.core.conflict`), the device build
    (:mod:`repro.device.csr_build`) and
    :func:`parallel_conflict_graph`.  A serial backend (or ``None``)
    short-circuits to the streaming in-process sweep — same kernels,
    same tile order, lowest memory.  A pool backend partitions the tile
    grid into contiguous strips, installs the payload once per worker,
    and yields the per-strip results in strip order, which makes the
    concatenated hit stream — and therefore the assembled CSR —
    bit-identical to the serial sweep's.

    ``source``/``active_idx`` (optional) enable the persistent-pool
    delta payload: the root ``source`` is installed once under a token,
    later sweeps ship only colmasks + active indices, and each worker
    derives ``source.subset(active_idx)`` locally.  Per-sweep worker
    state is cleared in a ``finally`` whether the sweep completes or
    aborts.

    ``kernel`` picks the pair kernel: ``"auto"`` (the
    :func:`repro.device.buckets.plan_sweep` rule), ``"tile"`` or
    ``"bucket"``.  Both emit the same canonical stream order.
    """
    if tile is None:
        tile = tile_edge(tile_bytes, n=n)
    if executor is None or isinstance(executor, SerialExecutor):
        buckets = plan_sweep(n, colmasks, kernel, edge_mask_fn)
        if buckets is not None:
            yield from bucket_hits_rows(buckets, 0, n, edge_mask_fn)
            return
        yield from sweep_conflict_hits(
            n, colmasks, edge_mask_fn, edge_block_fn,
            tile=tile, backend=_backend_for(kernel_backend),
        )
        return
    tasks, _, kernel = planned_strip_tasks(
        n, tile, executor, colmasks, kernel, edge_mask_fn
    )
    payload_args = dict(
        n=n, tile=tile, colmasks=colmasks, edge_mask_fn=edge_mask_fn,
        edge_block_fn=edge_block_fn,
        source=source, active_idx=active_idx, executor=executor,
        kernel_backend=kernel_backend, kernel=kernel,
    )
    try:
        yield from imap_sweep(executor, _run_sweep_strip, tasks, payload_args)
    finally:
        finalize_sweep(executor)


@contextmanager
def conflict_hit_chunks(
    n: int,
    edge_mask_fn,
    colmasks: np.ndarray,
    edge_block_fn: EdgeBlockFn | None = None,
    tile_bytes: int = DEFAULT_TILE_BYTES,
    tile: int | None = None,
    executor: Executor | None = None,
    shm: bool = False,
    est_conflict_edges: float | None = None,
    source=None,
    active_idx: np.ndarray | None = None,
    region_cb=None,
    kernel_backend: str | None = None,
    kernel: str = "auto",
):
    """One gather-policy seam for every conflict build.

    Yields an iterable of ``(i, j)`` hit chunks in canonical strip
    order, resolved through the shared-memory gather when ``shm`` is on
    and the backend supports it (same-node worker pools), and through
    the plain result stream otherwise — ``shm`` is meaningless for
    in-process sweeps (nothing crosses a pipe) and impossible for
    cluster backends (shared segments do not cross hosts), so both
    take the plain path.
    Keeping the policy here, not in each caller, is what guarantees the
    host build, the device build and :func:`parallel_conflict_graph`
    can never diverge on it.  Shm-backed chunks are views into the
    shared region and are only valid inside the ``with`` block.
    """
    if shm and executor is not None and executor.supports_shm_gather:
        with shm_conflict_gather(
            n, edge_mask_fn, colmasks, edge_block_fn,
            tile_bytes=tile_bytes, tile=tile, executor=executor,
            est_conflict_edges=est_conflict_edges,
            source=source, active_idx=active_idx, region_cb=region_cb,
            kernel_backend=kernel_backend, kernel=kernel,
        ) as gather:
            yield gather.chunks
        return
    stream = conflict_sweep_chunks(
        n, edge_mask_fn, colmasks, edge_block_fn,
        tile_bytes=tile_bytes, tile=tile, executor=executor,
        source=source, active_idx=active_idx,
        kernel_backend=kernel_backend, kernel=kernel,
    )
    try:
        yield stream
    finally:
        # Close explicitly: a consumer that aborts mid-stream (device
        # COO overflow) unwinds the executor's stream now instead of at
        # garbage collection.
        stream.close()


def gathered_conflict_csr(
    n: int,
    edge_mask_fn,
    colmasks: np.ndarray,
    edge_block_fn: EdgeBlockFn | None = None,
    tile_bytes: int = DEFAULT_TILE_BYTES,
    executor: Executor | None = None,
    shm: bool = False,
    est_conflict_edges: float | None = None,
    source=None,
    active_idx: np.ndarray | None = None,
    timings: dict | None = None,
    kernel_backend: str | None = None,
    kernel: str = "auto",
) -> tuple[CSRGraph, int]:
    """Sweep-and-assemble: the shared back half of every host conflict
    build.  Runs one sweep through :func:`conflict_hit_chunks` and
    folds the hit stream into the two-pass CSR assembly, returning
    ``(graph, n_conflict_edges)``.

    Centralized because the shm view-lifetime protocol is subtle: the
    chunk references must be dropped *before* the gather context closes
    the shared region, or the unmap sees live buffer exports.  One copy
    of that dance, not one per caller.

    ``timings``, when given, accumulates ``sweep_s`` (draining the hit
    stream — worker compute plus gather) and ``assemble_s`` (the CSR
    build) into the dict, for the per-iteration phase metrics.
    """
    with ExitStack() as stack:
        try:
            t0 = telemetry.clock()
            with telemetry.span("sweep.gather"):
                # Entered inside the clock and the span: the shm gather
                # runs the whole worker sweep when its context opens.
                hit_stream = stack.enter_context(conflict_hit_chunks(
                    n, edge_mask_fn, colmasks, edge_block_fn,
                    tile_bytes=tile_bytes, executor=executor,
                    shm=shm, est_conflict_edges=est_conflict_edges,
                    source=source, active_idx=active_idx,
                    kernel_backend=kernel_backend, kernel=kernel,
                ))
                chunks = [(u, v) for u, v in hit_stream if len(u)]
            t1 = telemetry.clock()
            m = sum(len(u) for u, _ in chunks)
            with telemetry.span("sweep.assemble"):
                graph = csr_from_coo_chunks(chunks, n)
            if timings is not None:
                timings["sweep_s"] = (
                    timings.get("sweep_s", 0.0) + (t1 - t0)
                )
                timings["assemble_s"] = (
                    timings.get("assemble_s", 0.0)
                    + (telemetry.clock() - t1)
                )
        finally:
            chunks = None
    return graph, m


def block_sweep_chunks(
    n: int,
    block_fn: EdgeBlockFn,
    tile: int,
    executor: Executor | None = None,
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Executor-routed generic tiled pair sweep (explicit graph
    builders): yield upper-triangle ``(i, j)`` hits of ``block_fn`` in
    canonical tile order, strip-parallel when a pool backend is given."""
    if executor is None or isinstance(executor, SerialExecutor):
        yield from sweep_block_hits(n, block_fn, tile)
        return
    n_tasks = max(1, executor.n_workers) * TASKS_PER_WORKER
    blocks = partition_tiles(n, tile, n_tasks)
    tasks = [(b.start, b.stop) for b in blocks if len(b)]
    payload = {"n": n, "tile": tile, "block_fn": block_fn}
    try:
        yield from executor.imap(
            _run_block_strip, tasks, initializer=_init_block_worker,
            payload=(payload,),
        )
    finally:
        finalize_sweep(executor)


def parallel_conflict_graph(
    pauli_set,
    colmasks: np.ndarray,
    n_workers: int = 2,
    want_anticommute: bool = False,
    tile_bytes: int = DEFAULT_TILE_BYTES,
    executor: Executor | None = None,
    shm: bool = False,
    kernel_backend: str | None = None,
) -> tuple[CSRGraph, int]:
    """Build the conflict graph over a Pauli set with worker processes.

    Thin front end over :func:`conflict_sweep_chunks` plus the shared
    two-pass count-then-fill CSR assembly — the same code path the
    serial host build uses, so parallel and serial graphs are
    bit-identical.

    Parameters
    ----------
    pauli_set:
        The active :class:`repro.pauli.PauliSet` (complement edges are
        derived on the fly in each worker).
    colmasks:
        Packed candidate-color bitsets for the active vertices.
    n_workers:
        Pool size; 1 short-circuits to the in-process streaming sweep.
        Ignored when ``executor`` is given.
    want_anticommute:
        Color the anticommute graph itself instead of its complement
        (used by tests to cross-check orientations).
    executor:
        Explicit backend; overrides ``n_workers``.  A spec-created
        backend is closed before returning; a passed instance is left
        open for its owner.
    shm:
        Gather hits through a shared-memory COO region instead of the
        result pipe (:mod:`repro.parallel.shm`).

    Returns
    -------
    (graph, n_conflict_edges)
    """
    oracle = AnticommuteOracle(pauli_set.chars)
    if want_anticommute:
        edge_mask_fn = oracle.anticommute
        edge_block_fn = oracle.anticommute_block
    else:
        edge_mask_fn = oracle.commute_edges
        edge_block_fn = oracle.commute_block
    with owned_executor(executor if executor is not None else "auto", n_workers) as ex:
        return gathered_conflict_csr(
            pauli_set.n,
            edge_mask_fn,
            colmasks,
            edge_block_fn=edge_block_fn,
            tile_bytes=tile_bytes,
            executor=ex,
            shm=shm,
            kernel_backend=kernel_backend,
        )
