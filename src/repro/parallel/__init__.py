"""Parallel execution substrate (paper §I's parallel implementation).

Four layers: partitioners slice the pair/tile domain
(:mod:`repro.parallel.partition`), execution backends run task lists
over persistent workers (:mod:`repro.parallel.executor`), the
shared-memory gather carries hits back zero-copy
(:mod:`repro.parallel.shm`), and the sweep dispatcher wires kernels to
backends (:mod:`repro.parallel.pool`).
"""

from repro.parallel.executor import (
    Executor,
    PoolExecutor,
    SerialExecutor,
    default_start_method,
    make_executor,
)
from repro.parallel.partition import (
    PairRange,
    TileBlock,
    block_pair_count,
    partition_pairs,
    partition_tiles,
    tile_grid,
)
from repro.parallel.pool import (
    block_sweep_chunks,
    conflict_sweep_chunks,
    parallel_conflict_graph,
    payload_token_for,
)
from repro.parallel.shm import (
    ShmCooRegion,
    ShmGatherResult,
    estimate_conflict_edges,
    plan_strip_slots,
    shm_conflict_gather,
)

__all__ = [
    "Executor",
    "PoolExecutor",
    "SerialExecutor",
    "default_start_method",
    "make_executor",
    "ShmCooRegion",
    "ShmGatherResult",
    "estimate_conflict_edges",
    "plan_strip_slots",
    "shm_conflict_gather",
    "payload_token_for",
    "PairRange",
    "TileBlock",
    "block_pair_count",
    "partition_pairs",
    "partition_tiles",
    "tile_grid",
    "block_sweep_chunks",
    "conflict_sweep_chunks",
    "parallel_conflict_graph",
]
