"""Smoke test of the benchmark on tiny inputs.

Every workload runs through the real entry point (a 2-agent
LocalCluster included) with tracing off and on; each must print every
declared metric with its unit and fail no operation.  The failure
paths are exercised too: a recorded coloring that disagrees fails the
run, a wrong coloring fails the certificate, and a tree without the
program exits nonzero without printing a result.  No process the benchmark
starts may outlive it.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(workload: str, trace: int, state_dir: Path, root: Path = ROOT):
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"),
         "--workload", workload, "--seed", "3", "--seconds", "0.2",
         "--trace", str(trace), "--size", "tiny", "--state-dir", str(state_dir)],
        capture_output=True, text=True, timeout=300, cwd=root,
    )


def last_json(proc) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_printed_and_no_operation_failed(workload, trace, tmp_path):
    proc = run_bench(workload, trace, tmp_path)
    assert proc.returncode == 0, proc.stderr
    out = last_json(proc)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True
    assert out["failed"] == 0 and out["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in out["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    result = json.loads(
        (tmp_path / "results" / f"{workload}-seed3-trace{trace}-tiny.json").read_text()
    )
    assert result["manifest"]["seed"] == 3 and result["manifest"]["nproc"] >= 1
    if trace:
        assert out["metrics"]["trace.coverage"]["value"] > 0.5
        events = json.loads(
            (tmp_path / "traces" / f"{workload}-seed3-tiny.trace.json").read_text()
        )["traceEvents"]
        spans = [e for e in events if e["ph"] == "X"]
        ids = {e["args"]["span_id"] for e in spans}
        roots = [e for e in spans if e["name"] == "picasso.color"]
        assert roots and all(e["args"]["parent_id"] is None for e in roots)
        assert all(
            e["args"]["parent_id"] in ids for e in spans if e["name"] != "picasso.color"
        )


@pytest.mark.parametrize("workload", ["pauli10k-pool", "pauli10k-cluster"])
def test_no_process_outlives_a_run(workload, tmp_path):
    # In-process, so the children of the benchmark's own process can be
    # listed after ``main`` returns: pool workers, agents and the
    # multiprocessing resource tracker must all be gone.
    script = (
        "import sys; sys.path.insert(0, sys.argv[1]); from perfbench import run; "
        "rc = run.main(sys.argv[2:]); print(rc, run.live_children())"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, str(ROOT), "--workload", workload,
         "--seed", "3", "--seconds", "0.2", "--trace", "1", "--size", "tiny",
         "--state-dir", str(tmp_path)],
        capture_output=True, text=True, timeout=300, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "0 []"


def test_cross_executor_mismatch_fails_the_run(tmp_path):
    assert run_bench("pauli10k-serial", 0, tmp_path).returncode == 0
    (recorded,) = (tmp_path / "digests").glob("*.json")
    entry = json.loads(recorded.read_text())
    entry["digest"] = "0" * 32
    recorded.write_text(json.dumps(entry))
    proc = run_bench("pauli10k-pool", 0, tmp_path)
    assert proc.returncode == 1
    assert last_json(proc)["correct"] is False
    assert "differs" in proc.stderr


def test_certificate_rejects_commuting_classes():
    from perfbench.certify import CertificateError, certify
    from repro.pauli import PauliSet

    ps = PauliSet.from_strings(["XX", "ZZ", "XZ"])
    certify(ps, np.array([0, 1, 0]))  # XX and XZ anticommute
    with pytest.raises(CertificateError, match="commute"):
        certify(ps, np.array([0, 0, 1]))  # XX and ZZ commute
    with pytest.raises(CertificateError, match="uncolored"):
        certify(ps, np.array([0, -1, 1]))


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("pauli10k-serial", 0, tmp_path / "state", root=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
