"""Semi-streaming Picasso: one pass over the edge stream per iteration.

ACK's sublinear coloring (§III) lives in the semi-streaming model: the
algorithm may not store the graph, only o(|E|) state, and reads edges
as a stream.  Picasso's iterative variant maps onto that model
directly — per iteration it needs exactly one pass, retaining only the
edges whose endpoints (a) are still uncolored and (b) share a candidate
color.  This module implements that path over any replayable
:mod:`repro.streaming.stream` source.

Resident state per pass: candidate-color bitsets (``O(n P / 64)``
words) plus the conflict edges (``O(n log^3 n)`` w.h.p. by Lemma 2) —
never the stream itself.
"""

from __future__ import annotations

import numpy as np

from repro import telemetry
from repro.coloring.base import ColoringResult
from repro.coloring.engine import get_engine
from repro.core.palette import assign_color_lists
from repro.core.params import PicassoParams
from repro.device.kernels import lists_intersect_kernel
from repro.graphs.csr import from_edge_list
from repro.graphs.ops import induced_subgraph
from repro.resilience.supervisor import supervised_executor
from repro.util.rng import as_generator


def semi_streaming_color(
    stream,
    params: PicassoParams | None = None,
    seed: int | np.random.Generator | None = None,
) -> ColoringResult:
    """Color a streamed graph with the iterative palette scheme.

    Parameters
    ----------
    stream:
        Replayable edge stream exposing ``n`` and ``__iter__`` yielding
        ``(u, v)`` batches (see :mod:`repro.streaming.stream`).
    params, seed:
        As for :class:`repro.core.Picasso`.

    Returns
    -------
    :class:`ColoringResult` whose stats record passes and the maximum
    per-pass retained (conflict) edge count — the semi-streaming memory
    certificate.
    """
    params = params or PicassoParams()
    rng = as_generator(seed)
    # Same pluggable Algorithm 2 seam as the in-memory driver: the
    # conflict coloring of each pass goes through the engine registry,
    # and parallel engines receive the run's executor — the default
    # params resolve to the in-process serial backend, but
    # ``n_workers``/``hosts`` put the per-pass conflict coloring on a
    # pool or on multi-host worker agents exactly as in the in-memory
    # driver (one persistent backend for all passes).
    color_engine = get_engine(
        params.resolved_color_engine(), **params.color_engine_knobs()
    )
    # ``failover``/``max_retries`` wrap the backend in the
    # retry/failover supervisor, exactly as in the in-memory driver;
    # without them this is plain make_executor.  Spec-created either
    # way, so this function owns and closes it.
    executor = supervised_executor(
        params.executor, params.n_workers,
        hosts=params.hosts, failover=params.failover,
        max_retries=params.max_retries,
    )
    try:
        return _semi_streaming_color(stream, params, rng, color_engine, executor)
    finally:
        executor.close()


def _semi_streaming_color(stream, params, rng, color_engine, executor):
    """The pass loop, against an already-resolved executor."""
    n = stream.n
    t0 = telemetry.clock()
    colors = np.full(n, -1, dtype=np.int64)
    active = np.ones(n, dtype=bool)
    base_color = 0
    palette_fraction = params.palette_fraction
    passes = 0
    max_retained = 0

    for _ in range(params.max_iterations):
        n_active = int(active.sum())
        if n_active == 0:
            break
        # Local ids for the active subproblem.
        local_of = np.full(n, -1, dtype=np.int64)
        active_ids = np.nonzero(active)[0]
        local_of[active_ids] = np.arange(n_active)

        palette, list_size = params.palette_and_list_size(
            n_active, palette_fraction
        )
        col_lists, colmasks = assign_color_lists(n_active, palette, list_size, rng)

        # Single pass: retain only live conflicted edges.
        passes += 1
        keep_u: list[np.ndarray] = []
        keep_v: list[np.ndarray] = []
        retained = 0
        for u, v in stream:
            live = active[u] & active[v]
            if not live.any():
                continue
            lu = local_of[u[live]]
            lv = local_of[v[live]]
            shared = lists_intersect_kernel(colmasks, lu, lv).astype(bool)
            if shared.any():
                keep_u.append(lu[shared])
                keep_v.append(lv[shared])
                retained += int(shared.sum())
        max_retained = max(max_retained, retained)
        cu = np.concatenate(keep_u) if keep_u else np.empty(0, dtype=np.int64)
        cv = np.concatenate(keep_v) if keep_v else np.empty(0, dtype=np.int64)
        gc = from_edge_list(cu, cv, n_active, dedupe=True)

        # Color: unconflicted free, conflicted via Algorithm 2.
        local_colors = np.full(n_active, -1, dtype=np.int64)
        degrees = gc.degree()
        unconflicted = np.nonzero(degrees == 0)[0]
        local_colors[unconflicted] = col_lists[unconflicted, 0]
        conflicted = np.nonzero(degrees > 0)[0]
        if len(conflicted):
            sub_gc, _ = induced_subgraph(gc, conflicted)
            outcome = color_engine.color(
                sub_gc, col_lists[conflicted], rng, executor=executor
            )
            local_colors[conflicted] = outcome.colors

        colored = np.nonzero(local_colors >= 0)[0]
        colors[active_ids[colored]] = base_color + local_colors[colored]
        base_color += palette
        if len(colored) == 0:
            palette_fraction = min(1.0, palette_fraction * params.grow_on_stall)
        active[active_ids[colored]] = False
    else:
        raise RuntimeError(
            f"semi_streaming_color did not converge in {params.max_iterations} passes"
        )

    return ColoringResult(
        colors=colors,
        algorithm="picasso-semistream",
        elapsed_s=telemetry.clock() - t0,
        engine=color_engine.name,
        n_rounds=passes,
        stats={"passes": passes, "max_retained_edges": max_retained},
    )
