"""Tile vs color-bucket conflict sweep: where each kernel wins.

For random 50-qubit Pauli sets under the Normal preset (first
iteration's palette and lists), and for every iteration of the H6
Aggressive run, this builds the conflict graph serially with both
kernels and reports:

- ``build_s``: :func:`repro.core.conflict.build_conflict_graph` wall
  time (sweep, edge oracle and CSR assembly) at the driver's default
  tile budget;
- ``G``: pairs the bucket kernel generates, ``sum_c C(s_c, 2)``;
- ``tile_words``: the tile kernel's pair-word tests, ``n(n-1)/2 · W``;
- ``survivors``: distinct pairs that share a color (both kernels send
  exactly these to the edge oracle), and the conflict edges kept;
- ``peak_rss_mb``: peak RSS of the process that ran the one build
  (each random-set build runs in a fresh interpreter);
- ``R``: ``tile_words / G``.  The rule picks the bucket kernel when
  ``R > BUCKET_PAIR_COST``, so the rows where the measured ``faster``
  kernel changes locate the constant;
- ``pick``: the kernel :func:`repro.device.buckets.bucket_kernel_wins`
  picks.

Both builds must give byte-identical CSRs; the script fails otherwise.

Usage::

    PYTHONPATH=src python benchmarks/bench_sweep_crossover.py
    PYTHONPATH=src python benchmarks/bench_sweep_crossover.py --quick

``--quick`` is the smoke size (n in {400, 1200}, the H4 molecule).  The
full run covers n in {500, 1k, 2k, 5k, 10k, 20k, 40k} and skips the
tile kernel above 20k; it writes
``benchmarks/results/sweep_crossover.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import resource
import subprocess
import sys
import time

import numpy as np

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
OUT_PATH = REPO_ROOT / "benchmarks" / "results" / "sweep_crossover.json"

FULL_SIZES = (500, 1_000, 2_000, 5_000, 10_000, 20_000, 40_000)
QUICK_SIZES = (400, 1_200)
#: Largest n the tile kernel is timed at (it grows as ~n^3).
TILE_MAX_N = 20_000
N_QUBITS = 50


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _sweep_inputs(colmasks: np.ndarray):
    from repro.device.buckets import (
        ColorBuckets,
        bucket_kernel_wins,
        generated_pair_count,
        list_entries,
    )
    from repro.util.chunking import num_pairs

    n, words = colmasks.shape
    verts, colors = list_entries(colmasks)
    g = generated_pair_count(colors, 64 * words)
    buckets = ColorBuckets(n, verts, colors, 64 * words)
    survivors = sum(
        len(buckets.candidate_pairs(a, b)[0]) for a, b in buckets.row_chunks(0, n)
    )
    tile_words = num_pairs(n) * words
    return {
        "G": g,
        "tile_words": tile_words,
        "R": tile_words / g if g else None,
        "survivors": survivors,
        "pick": "bucket" if bucket_kernel_wins(n, words, g) else "tile",
    }


def _build(n, source, colmasks, kernel):
    from repro.core.conflict import build_conflict_graph
    from repro.core.params import PicassoParams

    t0 = time.perf_counter()
    graph, m = build_conflict_graph(
        n, source.edge_mask, colmasks, source.edge_block,
        tile_bytes=PicassoParams().tile_budget_bytes,
        executor="serial", kernel=kernel,
    )
    return graph, m, time.perf_counter() - t0


def child_random(n: int, kernel: str, seed: int) -> dict:
    """One build of one kernel on a fresh random set (child process)."""
    from repro.core.palette import assign_color_lists
    from repro.core.params import normal_params
    from repro.core.sources import PauliComplementSource
    from repro.pauli import random_pauli_set

    source = PauliComplementSource(random_pauli_set(n, N_QUBITS, seed=seed))
    palette, list_size = normal_params().palette_and_list_size(n)
    _, colmasks = assign_color_lists(
        n, palette, list_size, np.random.default_rng(seed)
    )
    rss_before = _peak_rss_mb()
    graph, m, build_s = _build(n, source, colmasks, kernel)
    row = {
        "n": n, "P": palette, "L": list_size, "W": colmasks.shape[1],
        "kernel": kernel, "build_s": build_s, "edges": m,
        "rss_before_mb": rss_before, "peak_rss_mb": _peak_rss_mb(),
        "csr_digest": _digest(graph),
    }
    del graph
    row.update(_sweep_inputs(colmasks))
    return row


def _digest(graph) -> str:
    import hashlib

    h = hashlib.sha256()
    for arr in (graph.offsets, graph.targets):
        h.update(str(arr.dtype).encode())
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def run_child(spec: dict) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run(
        [sys.executable, __file__, "--child", json.dumps(spec)],
        check=True, capture_output=True, text=True, env=env,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def random_rows(sizes, seed: int) -> list[dict]:
    rows = []
    for n in sizes:
        tile = None
        if n <= TILE_MAX_N:
            tile = run_child({"n": n, "kernel": "tile", "seed": seed})
        bucket = run_child({"n": n, "kernel": "bucket", "seed": seed})
        if tile is not None and tile["csr_digest"] != bucket["csr_digest"]:
            raise SystemExit(f"n={n}: tile and bucket CSRs differ")
        rows.append({"tile": tile, "bucket": bucket})
    return rows


def molecule_rows(name: str, seed: int) -> list[dict]:
    """Both kernels on every iteration of an Aggressive molecule run.

    Wraps the driver's host build so each iteration's exact inputs are
    swept by both kernels; the run itself keeps the default rule.
    """
    from repro.chemistry.hamiltonian import hn_pauli_set
    from repro.core import picasso as picasso_mod
    from repro.core.params import aggressive_params
    from repro.datasets import MOLECULE_SUITE

    (spec,) = [s for s in MOLECULE_SUITE if s.name == name]
    pauli_set = hn_pauli_set(spec.n_atoms, spec.dimensionality, spec.basis)
    rows: list[dict] = []
    inner = picasso_mod.build_conflict_graph

    def traced(n, edge_mask_fn, colmasks, **kwargs):
        row = {"iteration": len(rows) + 1, "n": n, "W": colmasks.shape[1]}
        digests = {}
        for kernel in ("tile", "bucket"):
            t0 = time.perf_counter()
            graph, m = inner(n, edge_mask_fn, colmasks, **{**kwargs, "kernel": kernel})
            row[f"{kernel}_s"] = time.perf_counter() - t0
            digests[kernel] = _digest(graph)
        if digests["tile"] != digests["bucket"]:
            raise SystemExit(f"{name} iteration {row['iteration']}: CSRs differ")
        row["edges"] = m
        row.update(_sweep_inputs(colmasks))
        rows.append(row)
        return inner(n, edge_mask_fn, colmasks, **kwargs)

    picasso_mod.build_conflict_graph = traced
    try:
        picasso_mod.Picasso(aggressive_params(executor="serial"), seed=seed).color(
            pauli_set
        )
    finally:
        picasso_mod.build_conflict_graph = inner
    return rows


def _fmt(x, spec=".3f"):
    return "-" if x is None else format(x, spec)


def _faster(tile_s, bucket_s):
    if tile_s is None:
        return "-"
    return "tile" if tile_s < bucket_s else "bucket"


def report(random: list[dict], molecule: list[dict], name: str) -> str:
    lines = [
        "| n | P | L | W | G | tile words | R | survivors | edges | tile s | "
        "bucket s | tile RSS MB | bucket RSS MB | faster | pick |",
        "|---|---|---|---|---|---|---|---|---|---|---|---|---|---|---|",
    ]
    for r in random:
        t, b = r["tile"], r["bucket"]
        tile_s = t and t["build_s"]
        lines.append(
            f"| {b['n']} | {b['P']} | {b['L']} | {b['W']} | {b['G']:,} | "
            f"{b['tile_words']:,} | {_fmt(b['R'], '.2f')} | {b['survivors']:,} | "
            f"{b['edges']:,} | {_fmt(tile_s)} | {b['build_s']:.3f} | "
            f"{_fmt(t and t['peak_rss_mb'], '.0f')} | {b['peak_rss_mb']:.0f} | "
            f"{_faster(tile_s, b['build_s'])} | {b['pick']} |"
        )
    lines += [
        "",
        f"{name}, Aggressive preset, every iteration:",
        "",
        "| it | n | W | G | tile words | R | tile s | bucket s | faster | pick |",
        "|---|---|---|---|---|---|---|---|---|---|",
    ]
    for r in molecule:
        lines.append(
            f"| {r['iteration']} | {r['n']} | {r['W']} | {r['G']:,} | "
            f"{r['tile_words']:,} | {_fmt(r['R'], '.3f')} | {r['tile_s']:.4f} | "
            f"{r['bucket_s']:.4f} | {_faster(r['tile_s'], r['bucket_s'])} | "
            f"{r['pick']} |"
        )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true", help="smoke sizes only")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--child", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.child:
        spec = json.loads(args.child)
        print(json.dumps(child_random(spec["n"], spec["kernel"], spec["seed"])))
        return 0
    sizes = QUICK_SIZES if args.quick else FULL_SIZES
    name = "H4_1D_sto3g" if args.quick else "H6_2D_sto3g"
    random = random_rows(sizes, args.seed)
    molecule = molecule_rows(name, args.seed)
    print(report(random, molecule, name))
    wrong = [r["iteration"] for r in molecule if r["pick"] != "tile"]
    if wrong:
        print(f"rule picked bucket on {name} iterations {wrong}", file=sys.stderr)
        return 1
    if not args.quick:
        OUT_PATH.parent.mkdir(parents=True, exist_ok=True)
        OUT_PATH.write_text(json.dumps(
            {"random": random, "molecule": molecule, "molecule_name": name},
            indent=1,
        ))
    return 0


if __name__ == "__main__":
    sys.exit(main())
