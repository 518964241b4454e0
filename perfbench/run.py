"""Benchmark entry point: ``Picasso.color`` end to end, then by layer.

Usage, from the repository root::

    python3 perfbench/run.py --workload pauli10k-serial --seed 1 --seconds 20 --trace 0

One run sets up (imports, input generation, LocalCluster agents),
makes one untimed warm-up call, then times ``Picasso.color`` calls with
tracing off for ``--seconds`` seconds and reports their medians.  Every
call is certified outside the timed region (:mod:`perfbench.certify`),
and colorings of the shared 10k input must agree across the serial,
pool and cluster executors for a seed.  ``--trace 1`` alternates
untraced calls with calls traced through :mod:`perfbench.tracing` and
reports the per-layer metrics instead, writing the spans as Chrome
trace-event JSON under ``.perfbench/traces``.

The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; metric names and
units come from ``BENCHMARK.json``.  The full result — per-call
samples, host diagnostics and the manifest — goes to
``.perfbench/results``.  Exit status: 0 when every operation passed, 1
on a failed operation or a cross-executor mismatch, 3 when the program
cannot be imported.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
#: Timed calls per run: at least this many, whatever ``--seconds`` says.
MIN_CALLS = 3
MAX_CALLS = 200
#: Set-ups per run (this process plus fresh-process repeats); the
#: median is ``setup_s``.
SETUP_REPS = 3


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    from perfbench.workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--size", choices=("full", "tiny"), default="full",
        help="tiny shrinks every input for the smoke test",
    )
    p.add_argument(
        "--state-dir", type=Path, default=ROOT / ".perfbench",
        help="where results, traces and recorded colorings go",
    )
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def declared_metrics() -> tuple[dict[str, str], dict[str, str]]:
    """``{name: unit}`` of the end-to-end and per-layer metrics."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


class Setup:
    """Input and, for the cluster workload, live loopback agents."""

    def __init__(self, workload, seed: int, size: str) -> None:
        from perfbench.workloads import N_PROCS, build_input

        self.pauli_set = build_input(workload, seed, size)
        self.cluster = None
        self.hosts = None
        if workload.executor == "cluster":
            from repro.distributed import LocalCluster

            self.cluster = LocalCluster(N_PROCS)
            self.hosts = ",".join(self.cluster.hosts)

    @property
    def agent_pids(self) -> list[int]:
        return self.cluster.worker_pids() if self.cluster else []

    def close(self) -> None:
        if self.cluster is not None:
            self.cluster.close()


def setup_probe(args, t0: float) -> int:
    """Set up once in this fresh process and report how long it took."""
    from perfbench.workloads import WORKLOADS

    setup = Setup(WORKLOADS[args.workload], args.seed, args.size)
    elapsed = time.perf_counter() - t0
    setup.close()
    print(json.dumps({"setup_s": elapsed}))
    return 0


def repeat_setup(args) -> list[float]:
    """``SETUP_REPS - 1`` set-ups, each in a fresh interpreter."""
    times = []
    for _ in range(SETUP_REPS - 1):
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", "0", "--size", args.size],
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(json.loads(out.stdout.strip().splitlines()[-1])["setup_s"])
    return times


class Runner:
    """Times, certifies and cross-checks ``Picasso.color`` calls."""

    def __init__(self, workload, seed: int, setup: Setup) -> None:
        from perfbench.workloads import make_params

        self.workload = workload
        self.seed = seed
        self.setup = setup
        self.params = make_params(workload, hosts=setup.hosts)
        self.digests: set[str] = set()
        self.failures: list[str] = []

    def call(self, around=contextlib.nullcontext):
        """One ``color`` call, measured from outside.

        ``around()`` is entered just around ``color`` (the traced run's
        root span).  Returns ``(result, sample)``; ``result`` is None
        when the call raised or its coloring failed the certificate.
        """
        from perfbench import probes
        from perfbench.certify import CertificateError, certify, digest
        from repro.core.picasso import Picasso

        agents = self.setup.agent_pids
        picasso = Picasso(self.params, seed=self.seed)
        ref_s = probes.reference_kernel_s()
        probes.reset_peak_rss()
        for pid in agents:
            probes.reset_peak_rss(pid)
        ticks0 = probes.cpu_ticks()
        agent_cpu0 = sum(probes.pid_cpu_s(pid) for pid in agents)
        cpu0 = probes.process_cpu_s(agents)
        t0 = time.perf_counter()
        try:
            with around():
                result = picasso.color(self.setup.pauli_set)
        except Exception as exc:  # an operation that raises is a failed operation
            result, error = None, f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - t0
        cpu = probes.process_cpu_s(agents) - cpu0
        sample = {
            "color_s": wall,
            "cpu_s": cpu,
            "peak_rss_mb": probes.peak_rss_mb(),
            "agent_cpu_s": sum(probes.pid_cpu_s(pid) for pid in agents) - agent_cpu0,
            "agent_peak_rss_mb": max((probes.peak_rss_mb(p) for p in agents), default=0.0),
            "ticks": (ticks0, probes.cpu_ticks()),
            "ref_s": ref_s,
        }
        if result is not None:
            try:
                sample["pairs_certified"] = certify(self.setup.pauli_set, result.colors)
            except CertificateError as exc:
                result, error = None, f"certificate: {exc}"
        if result is not None:
            sample["n_colors"] = result.n_colors
            sample["iterations"] = result.n_iterations
            sample["digest"] = digest(result.colors)
            self.digests.add(sample["digest"])
            if len(self.digests) > 1:
                result, error = None, "colorings differ between calls of one seed"
        if result is None:
            self.failures.append(error)
            sample["error"] = error
        return result, sample

    def cross_check(self, store, name: str, digest: str) -> str | None:
        """Compare with the coloring recorded for this input and seed by
        the first run of any executor; returns an error message on a
        mismatch."""
        entry = store.lookup(name, self.seed)
        if entry is None:
            store.record(name, self.seed, {"digest": digest, "executor": self.workload.executor})
            return None
        if entry["digest"] != digest:
            return (
                f"{self.workload.executor} coloring {digest} differs from the "
                f"{entry['executor']} coloring {entry['digest']} of seed {self.seed}"
            )
        return None


def timed_loop(seconds: float, call, min_calls: int) -> None:
    """Call ``call()`` until the next call would overrun ``seconds``."""
    t0 = time.perf_counter()
    durations: list[float] = []
    while len(durations) < MAX_CALLS:
        t = time.perf_counter()
        call()
        durations.append(time.perf_counter() - t)
        elapsed = time.perf_counter() - t0
        if len(durations) >= min_calls and elapsed + statistics.median(durations) > seconds:
            return


def median_of(samples: list[dict], key: str) -> float:
    return statistics.median(s[key] for s in samples)


def steal_pct(samples: list[dict]) -> float:
    """Share of all CPU time the hypervisor stole during the calls."""
    stolen = sum(s["ticks"][1][0] - s["ticks"][0][0] for s in samples)
    total = sum(s["ticks"][1][1] - s["ticks"][0][1] for s in samples)
    return 100.0 * stolen / total if total > 0 else 0.0


def _exit_on_sigterm(signum, frame) -> None:
    # SystemExit unwinds through the ``finally`` that stops the agents.
    raise SystemExit(128 + signum)


def live_children() -> list[int]:
    """Pids of this process's children, reaped or not, from ``/proc``."""
    me = os.getpid()
    kids = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        if int(stat.rsplit(")", 1)[1].split()[1]) == me:
            kids.append(int(entry.name))
    return kids


def stop_children(grace_s: float = 10.0) -> None:
    """Stop and reap every process this one started.

    The program closes its pool workers and cluster agents itself, but
    ``multiprocessing``'s resource tracker (started by the first shared
    memory segment or spawned process) only exits once its creator is
    gone, and is then left to a parent that may never reap it.  It is
    stopped here; any other child still running gets SIGTERM, then
    SIGKILL after ``grace_s``.
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()
    kids = live_children()
    for pid in kids:
        with contextlib.suppress(ProcessLookupError):
            os.kill(pid, signal.SIGTERM)
    deadline = time.monotonic() + grace_s
    for pid in kids:
        try:
            while os.waitpid(pid, os.WNOHANG)[0] == 0:
                if time.monotonic() > deadline:
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)
                    break
                time.sleep(0.01)
        except (ChildProcessError, ProcessLookupError):
            pass  # already reaped


def main(argv: list[str] | None = None) -> int:
    try:
        return run_benchmark(argv)
    finally:
        stop_children()


def run_benchmark(argv: list[str] | None) -> int:
    t_start = time.perf_counter()
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    sys.path[:0] = [str(SRC), str(ROOT)]
    args = parse_args(argv)
    try:
        import numpy  # noqa: F401

        import repro
    except ImportError as exc:
        print(f"perfbench: cannot import the program from {SRC}: {exc}", file=sys.stderr)
        return 3
    if Path(repro.__file__).resolve().parent != SRC / "repro":
        print(f"perfbench: the program is not in {SRC}", file=sys.stderr)
        return 3
    if args.setup_probe:
        return setup_probe(args, t_start)

    from perfbench import probes
    from perfbench.certify import DigestStore
    from perfbench.workloads import WORKLOADS, input_name

    workload = WORKLOADS[args.workload]
    e2e_units, layer_units = declared_metrics()
    setup = Setup(workload, args.seed, args.size)
    try:
        setup_samples = [time.perf_counter() - t_start] + repeat_setup(args)
        src_sha = probes.source_digest(SRC / "repro")
        runner = Runner(workload, args.seed, setup)
        manifest = probes.manifest(ROOT, src_sha, {
            "workload": workload.name,
            "why": workload.why,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "size": args.size,
            "input": input_name(workload, args.size),
            "n_strings": setup.pauli_set.n,
            "params": dict(vars(runner.params)),
        })
        warm_result, warm = runner.call()
        samples, traced = [], []
        report = {}
        if warm_result is not None:
            if args.trace:
                report = traced_run(args, runner, samples, traced, manifest)
            else:
                timed_loop(args.seconds, lambda: samples.append(runner.call()[1]), MIN_CALLS)
        measured = samples + [t for t, _ in traced] or [warm]
        digest = warm.get("digest")
        if workload.cross_checked and digest and not runner.failures:
            store = DigestStore(args.state_dir / "digests", src_sha)
            mismatch = runner.cross_check(store, input_name(workload, args.size), digest)
            if mismatch:
                runner.failures.append(mismatch)
    finally:
        setup.close()

    host = {
        "host.ref_s": median_of(measured, "ref_s"),
        "host.steal_pct": steal_pct(measured),
    }
    if args.trace:
        metrics = {**report, **host}
        units = layer_units
    else:
        metrics = {
            "color_s": median_of(measured, "color_s"),
            "cpu_s": median_of(measured, "cpu_s"),
            "n_colors": float(warm.get("n_colors", 0)),
            "peak_rss_mb": median_of(measured, "peak_rss_mb"),
            "setup_s": statistics.median(setup_samples),
        }
        units = e2e_units
    failed = len(runner.failures)
    correct = failed == 0
    if correct and set(metrics) != set(units):
        raise RuntimeError(
            f"metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json"
        )
    attempted = max(1, len(measured))
    out = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        # A failed run may miss layer metrics; it reports them as 0.
        "metrics": {k: {"value": metrics.get(k, 0.0), "unit": units[k]} for k in units},
    }
    full = {
        **out,
        "manifest": manifest,
        "host": host,
        "setup_samples_s": setup_samples,
        "failures": runner.failures,
        "samples": [{k: v for k, v in s.items() if k != "ticks"} for s in measured],
    }
    suffix = "" if args.size == "full" else f"-{args.size}"
    result_path = (
        args.state_dir / "results"
        / f"{workload.name}-seed{args.seed}-trace{args.trace}{suffix}.json"
    )
    result_path.parent.mkdir(parents=True, exist_ok=True)
    result_path.write_text(json.dumps(full, indent=1))
    print_summary(full, result_path)
    print(json.dumps(out))
    return 0 if correct else 1


def traced_run(args, runner: Runner, samples: list, traced: list, manifest: dict) -> dict:
    """Alternate untraced and traced calls; per-layer metrics are the
    medians over the traced calls."""
    from perfbench import tracing

    rec = tracing.Recorder()
    tracer = tracing.LayerTracer(rec, runner.params.resolved_kernel_backend())

    def traced_call():
        rec.call_id += 1
        with tracer.installed():
            result, sample = runner.call(lambda: rec.span("picasso.color"))
        traced.append((sample, rec.call_id))
        if result is not None:
            layers = tracing.call_layer_metrics(rec, rec.call_id, result)
            layers["distributed.agent_cpu_s"] = sample["agent_cpu_s"]
            layers["distributed.agent_peak_rss_mb"] = sample["agent_peak_rss_mb"]
            sample["layers"] = layers

    def pair():
        samples.append(runner.call()[1])
        traced_call()

    timed_loop(args.seconds, pair, 2)
    stem = f"{runner.workload.name}-seed{args.seed}" + (
        "" if args.size == "full" else f"-{args.size}"
    )
    trace_path = args.state_dir / "traces" / f"{stem}.trace.json"
    tracing.write_chrome_trace(rec, trace_path, manifest)
    table = tracing.self_time_table(rec)
    (args.state_dir / "traces" / f"{stem}.self_time.txt").write_text(table + "\n")
    print(f"trace: {trace_path}\n{table}", file=sys.stderr)

    layered = [s["layers"] for s, _ in traced if "layers" in s]
    if not layered:
        return {}
    report = {k: statistics.median(d[k] for d in layered) for k in layered[0]}
    untraced = median_of(samples, "color_s")
    traced_s = statistics.median(s["color_s"] for s, _ in traced)
    report["trace.overhead_pct"] = 100.0 * (traced_s / untraced - 1.0)
    return report


def print_summary(full: dict, path: Path) -> None:
    m = full["manifest"]
    print(
        f"{m['workload']} seed={m['seed']} trace={m['trace']} "
        f"rev={m['git_revision'][:12]} src={m['source_sha256'][:12]} "
        f"cpu={m['cpu_model']!r} nproc={m['nproc']} numpy={m['numpy']} "
        f"python={m['python']}",
        file=sys.stderr,
    )
    for name, v in full["metrics"].items():
        print(f"  {name:<32}{v['value']:>16.6g} {v['unit']}", file=sys.stderr)
    for name, v in full["host"].items():
        if name not in full["metrics"]:
            print(f"  {name:<32}{v:>16.6g}", file=sys.stderr)
    print(
        f"  calls={full['attempted']} failed={full['failed']} "
        f"setup_samples={['%.3f' % s for s in full['setup_samples_s']]}",
        file=sys.stderr,
    )
    for failure in full["failures"]:
        print(f"  FAILED: {failure}", file=sys.stderr)
    print(f"  result: {path}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
