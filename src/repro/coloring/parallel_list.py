"""Round-synchronous parallel *list* coloring (Algorithm 2's parallel analog).

The speculative/Jones–Plassmann scheme of the unconstrained baselines
(:mod:`repro.coloring.speculative`, :mod:`repro.coloring.jones_plassmann`)
lifted to the *list*-coloring problem on the packed ``(n, W)`` uint64
palette bitsets Algorithm 2 already uses:

- **Tentative pick** — every open vertex takes the lowest set bit of
  ``list & ~forbidden`` (its smallest candidate not yet claimed by a
  committed neighbor).  One vectorized pass, no cross-vertex ordering.
- **Conflict sweep** — edge-based, over the live conflict edges: each
  monochrome edge uncolors its lower-priority endpoint (random
  priorities drawn once up front), exactly the Kokkos-EB discipline.
  Survivors commit; losers retry next round against updated forbidden
  bitsets.
- **Vu rollover** — a vertex whose ``list & ~forbidden`` empties joins
  the uncolored set ``Vu`` and rolls into the next Picasso iteration,
  identical in semantics to the greedy engines (``colors == -1``
  exactly on ``Vu``).

Each round is a pure function of the previous round's committed state,
so the result is **deterministic per seed for any worker count** — the
strip partition only changes where rows are computed, never what they
compute.

Rounds dispatch over vertex strips through an
:class:`~repro.parallel.executor.Executor`.  On a persistent pool the
candidate bitsets install once under a ``("color", ...)`` payload token
(its own channel, coexisting with the sweep token) and every later
round ships only the *changed forbidden words* — the same token-cached
delta path the conflict sweep uses for colmasks.  Workers keep a
mutable forbidden copy keyed by the token and apply word deltas
in-place.
"""

from __future__ import annotations

import itertools

import numpy as np

from repro import telemetry
from repro.graphs.csr import CSRGraph
from repro.parallel.executor import Executor, SerialExecutor
from repro.util.bits import bitset_from_lists
from repro.util.rng import as_generator

__all__ = [
    "parallel_list_color",
    "teardown_palette_worker",
]

# Worker-global per-round state, installed by the payload initializer.
_CWORKER: dict = {}

# Worker-global token-keyed palette cache: the static candidate bitsets
# plus the worker's mutable forbidden copy, kept across rounds of one
# coloring run so repeat installs ship only changed words.
_PALETTE_CACHE: dict = {}

# Every coloring run gets a fresh token; never reused, so a stale
# worker cache can never be mistaken for the current run's palette.
_COLOR_TOKENS = itertools.count(1)


def _init_palette_worker(payload: dict) -> None:
    """Install a round payload; apply the forbidden-word delta.

    A payload whose ``static`` part is ``None`` reuses the token-cached
    palette (delta-only install); the worker's forbidden copy then
    receives just the words the dispatcher changed since the last
    install.  Word values are *assigned*, not OR-ed, so replaying a
    full snapshot after a respawn is idempotent.
    """
    from repro.parallel.pool import PayloadNotInstalled

    token = payload["token"]
    static = payload["static"]
    if static is not None:
        _PALETTE_CACHE.clear()
        state = {
            "masks": static["masks"],
            "forbidden": np.zeros_like(static["masks"]),
            "kernel_backend": static.get("kernel_backend"),
        }
        if token is not None:
            _PALETTE_CACHE[token] = state
        # Enable-only, as for the sweep install: under the serial
        # backend this runs in the dispatcher, whose state is
        # authoritative and must not be switched off from a payload.
        if static.get("telemetry"):
            telemetry.enable(True)
    else:
        state = _PALETTE_CACHE.get(token)
        if state is None:
            raise PayloadNotInstalled(
                f"palette token {token!r} not installed in this worker "
                "(respawned after a crash?)"
            )
    rows, words, vals = payload["delta"]
    if len(rows):
        state["forbidden"][rows, words] = vals
    _CWORKER.clear()
    _CWORKER["masks"] = state["masks"]
    _CWORKER["forbidden"] = state["forbidden"]
    _CWORKER["active"] = payload["active"]
    # Worker-side backend resolution, as for the conflict sweep: the
    # payload ships the name, the worker resolves it locally.
    _CWORKER["backend"] = _resolve_backend(state.get("kernel_backend"))


def _resolve_backend(kernel_backend: str | None):
    """Kernel-backend instance for the pick scan (``None`` = numpy;
    import deferred to keep layering lazy)."""
    from repro.device.backends import resolve_backend

    return resolve_backend(kernel_backend or "numpy")


def _pick_strip(task: tuple[int, int]) -> np.ndarray:
    """Worker task: tentative picks for one strip of the active rows."""
    start, stop = task
    rows = _CWORKER["active"][start:stop]
    avail = _CWORKER["masks"][rows] & ~_CWORKER["forbidden"][rows]
    return _CWORKER["backend"].lowest_set_bit_rows(avail)


def teardown_palette_worker() -> dict | None:
    """Drop all palette worker state (end of a coloring run).

    Unlike the sweep teardown, the token cache goes too: color tokens
    are per-run, so nothing survives a run by design.  Returns this
    worker's drained telemetry delta (``None`` when telemetry is off or
    in-process) — the teardown broadcast's return values are the
    piggyback channel the dispatcher absorbs."""
    _CWORKER.clear()
    _PALETTE_CACHE.clear()
    return telemetry.drain_worker_snapshot()


def _strip_tasks(m: int, executor: Executor) -> list[tuple[int, int]]:
    """Contiguous strips of the active-row range, a few per worker.

    Heterogeneous backends (hierarchical agents advertising their inner
    pool size) get capacity-weighted strip sizes through the same
    positional-deal principle as the conflict sweep
    (:func:`repro.parallel.pool.strip_shares`): strip ``k`` is sized
    for the slot the ``tasks[k::n]`` deal sends it to.  Round picks are
    pure functions of the committed state, so strip boundaries never
    change the output — weighting is purely a throughput knob.  Empty
    strips stay in place under weighting to keep the deal aligned.
    """
    from repro.parallel.pool import TASKS_PER_WORKER, strip_shares

    n_tasks = max(1, executor.n_workers) * TASKS_PER_WORKER
    shares = strip_shares(executor, n_tasks)
    if shares is None:
        bounds = np.linspace(0, m, n_tasks + 1).astype(np.int64)
        return [
            (int(a), int(b)) for a, b in zip(bounds[:-1], bounds[1:]) if b > a
        ]
    csum = np.cumsum(np.asarray(shares, dtype=np.int64))
    bounds = np.concatenate(
        ([0], (m * csum) // int(csum[-1]))
    ).astype(np.int64)
    return [(int(a), int(b)) for a, b in zip(bounds[:-1], bounds[1:])]


def parallel_list_color(
    gc: CSRGraph,
    col_lists: np.ndarray,
    rng: np.random.Generator | int | None = None,
    executor: Executor | None = None,
    max_rounds: int | None = None,
    kernel_backend: str | None = None,
) -> tuple[np.ndarray, np.ndarray, dict]:
    """Round-synchronous speculative list coloring.

    Parameters
    ----------
    gc:
        Conflict graph (local vertex ids ``0..n-1``).
    col_lists:
        ``(n, L)`` candidate color ids; negative entries are padding.
    rng:
        Draws the conflict-resolution priorities (one permutation, up
        front — the only randomness, so output is deterministic per
        seed for any worker count).
    executor:
        Optional backend.  ``None`` / :class:`SerialExecutor` run the
        rounds in-process; a pool dispatches each round's picks over
        vertex strips with the token-cached forbidden-word delta.
    max_rounds:
        Safety valve; every round commits at least one vertex (the
        globally highest-priority tentative never loses), so ``n + 1``
        is a true upper bound.
    kernel_backend:
        Optional kernel-backend *name* for the lowest-set-bit pick scan
        (see :mod:`repro.device.backends`).  ``None`` runs the numpy
        backend; a name is resolved in-process for serial rounds
        and worker-side for pool rounds.  Backends are bit-identical,
        so this never changes the coloring.

    Returns
    -------
    (colors, uncolored, info):
        As the greedy engines, plus ``info`` with ``n_rounds``,
        ``n_conflicts`` and the analytic ``peak_bytes``.
    """
    rng = as_generator(rng)
    n = gc.n_vertices
    col_lists = np.asarray(col_lists, dtype=np.int64)
    if col_lists.shape[0] != n:
        raise ValueError("col_lists rows must match vertex count")
    colors = np.full(n, -1, dtype=np.int64)
    if n == 0:
        return colors, np.empty(0, dtype=np.int64), {
            "n_rounds": 0, "n_conflicts": 0, "peak_bytes": 0,
        }

    nbits = int(col_lists.max()) + 1 if col_lists.size else 1
    masks = bitset_from_lists(col_lists, max(nbits, 1))
    forbidden = np.zeros_like(masks)
    # Random priorities resolve same-round conflicts symmetrically —
    # drawn before anything else so the rng consumption is fixed.
    priority = rng.permutation(n)

    edges = gc.edges()
    eu = edges[:, 0].astype(np.int64)
    ev = edges[:, 1].astype(np.int64)
    # Analytic peak: palette + forbidden bitsets, the resident edge
    # list, priorities, colors/tentative, plus the CSR itself (the
    # edge-based sweep is the memory-hungry half of the trade, exactly
    # as for the Kokkos-EB baseline).
    peak_bytes = int(
        2 * masks.nbytes
        + eu.nbytes + ev.nbytes
        + priority.nbytes
        + 2 * colors.nbytes
        + gc.nbytes
        + n  # vu mask
    )

    vu_mask = np.zeros(n, dtype=bool)
    use_pool = executor is not None and not isinstance(executor, SerialExecutor)
    token = ("color", next(_COLOR_TOKENS)) if use_pool else None
    nwords = masks.shape[1]
    # (row, word) pairs changed since the last successful install,
    # as flat indices row * W + word (dedupe is one np.unique).
    pending_flat: list[np.ndarray] = []

    def _delta(full: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        if full:
            rows, words = np.nonzero(forbidden)
        elif pending_flat:
            flat = np.unique(np.concatenate(pending_flat))
            rows, words = flat // nwords, flat % nwords
        else:
            rows = words = np.empty(0, dtype=np.int64)
        return rows, words, forbidden[rows, words]

    local_backend = _resolve_backend(kernel_backend) if not use_pool else None

    def _round_picks(active: np.ndarray) -> np.ndarray:
        if not use_pool:
            avail = masks[active] & ~forbidden[active]
            return local_backend.lowest_set_bit_rows(avail)
        from repro.parallel.pool import imap_delta_install

        tasks = _strip_tasks(len(active), executor)

        def make_payload(force_full: bool):
            full = force_full or not executor.holds_token(token)
            static = (
                {
                    "masks": masks,
                    "kernel_backend": kernel_backend,
                    "telemetry": telemetry.enabled(),
                }
                if full else None
            )
            telemetry.count(
                "color.install.delta" if static is None
                else "color.install.full"
            )
            payload = {
                "token": token,
                "static": static,
                "delta": _delta(full),
                "active": active,
            }
            return payload, token, full

        chunks = list(imap_delta_install(
            executor, _pick_strip, tasks, _init_palette_worker, make_payload
        ))
        pending_flat.clear()
        return np.concatenate(chunks)

    n_conflicts = 0
    rounds = 0
    if max_rounds is None:
        max_rounds = n + 1
    try:
        for _ in range(max_rounds):
            active = np.flatnonzero((colors < 0) & ~vu_mask)
            if active.size == 0:
                break
            rounds += 1
            picks = _round_picks(active)

            # Vu rollover: lists fully claimed by committed neighbors.
            vu_mask[active[picks < 0]] = True

            tentative = np.full(n, -1, dtype=np.int64)
            tentative[active] = picks
            # Edge-based conflict sweep: monochrome edges lose their
            # lower-priority endpoint (cross-round conflicts cannot
            # happen — forbidden already excludes committed colors).
            if eu.size:
                bad = (tentative[eu] >= 0) & (tentative[eu] == tentative[ev])
                losers = np.where(
                    priority[eu[bad]] < priority[ev[bad]], eu[bad], ev[bad]
                )
                n_conflicts += int(losers.size)
                tentative[losers] = -1
            committed = np.flatnonzero(tentative >= 0)
            colors[committed] = tentative[committed]

            if eu.size and committed.size:
                just = np.zeros(n, dtype=bool)
                just[committed] = True
                open_ = (colors < 0) & ~vu_mask
                # Commit fan-out: every open neighbor of a newly
                # committed vertex loses that color from its palette.
                for a, b in ((eu, ev), (ev, eu)):
                    sel = just[a] & open_[b]
                    if sel.any():
                        rows = b[sel]
                        cols = colors[a[sel]]
                        words = cols >> 6
                        bits = np.uint64(1) << (cols & 63).astype(np.uint64)
                        np.bitwise_or.at(forbidden, (rows, words), bits)
                        if use_pool:
                            # Delta tracking feeds the next round's
                            # worker install; pointless off-pool.
                            pending_flat.append(rows * nwords + words)
                # Arcs with a resolved endpoint (committed or Vu) can
                # never conflict again — the live list only shrinks.
                live = open_[eu] & open_[ev]
                eu, ev = eu[live], ev[live]
        else:  # pragma: no cover - max_rounds is a safety valve
            raise RuntimeError("parallel_list_color failed to converge")
    finally:
        if use_pool:
            telemetry.absorb_snapshots(
                executor.finalize(teardown_palette_worker),
                prefix=getattr(executor, "telemetry_prefix", "w"),
            )

    info = {
        "n_rounds": rounds,
        "n_conflicts": n_conflicts,
        "peak_bytes": peak_bytes,
    }
    return colors, np.flatnonzero(vu_mask), info
