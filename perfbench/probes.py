"""Process and host probes read from ``/proc`` and ``resource``.

Everything here observes the program from outside: CPU time of the
dispatcher, its reaped children (pool workers) and live agents, the
dispatcher's resident high-water mark, hypervisor steal, a fixed
reference kernel that tracks host speed, and the run manifest.
"""

from __future__ import annotations

import hashlib
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

_TICK_S = 1.0 / os.sysconf("SC_CLK_TCK")


def process_cpu_s(agent_pids: list[int] = ()) -> float:
    """User+sys CPU seconds of this process, its reaped children and
    the given live processes (cluster agents are never reaped while
    they serve, so they are read from ``/proc/<pid>/stat``)."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    total = own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime
    return total + sum(pid_cpu_s(pid) for pid in agent_pids)


def pid_cpu_s(pid: int) -> float:
    """User+sys CPU seconds of a live process (0 once it is gone)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return 0.0
    # Fields after the parenthesised command name; utime and stime
    # are fields 14 and 15 of the full line.
    fields = stat.rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) * _TICK_S


def peak_rss_mb(pid: int | str = "self") -> float:
    """Resident high-water mark (``VmHWM``) in MiB; 0 if unreadable."""
    try:
        status = Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return 0.0
    for line in status.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    return 0.0


def reset_peak_rss(pid: int | str = "self") -> bool:
    """Reset ``VmHWM`` to the current RSS; False where the kernel
    refuses (the peak then covers the whole process lifetime)."""
    try:
        Path(f"/proc/{pid}/clear_refs").write_text("5")
    except OSError:
        return False
    return True


def cpu_ticks() -> tuple[int, int]:
    """``(steal, total)`` jiffies over all CPUs from ``/proc/stat``."""
    try:
        first = Path("/proc/stat").read_text().splitlines()[0].split()
    except OSError:
        return 0, 0
    ticks = [int(x) for x in first[1:]]
    # user nice system idle iowait irq softirq steal [guest guest_nice];
    # guest time is already counted in user/nice.
    steal = ticks[7] if len(ticks) > 7 else 0
    return steal, sum(ticks[:8])


def reference_kernel_s() -> float:
    """Wall time of a fixed numpy + Python workload.

    The work never changes, so drift in this number is drift in the
    host, not in the program: a run whose ``color_s`` moved while
    ``host.ref_s`` moved by the same share was a slower host.  It mixes
    the three things a ``color`` call spends time on: cache-resident
    word kernels, interpreter loops, and streaming over arrays larger
    than the last-level cache of a core.
    """
    import numpy as np

    rng = np.random.default_rng(12345)
    words = rng.integers(0, 2**63, size=(2048, 4), dtype=np.uint64)
    stream = rng.integers(0, 2**63, size=(32 << 20) // 8, dtype=np.uint64)
    t0 = time.perf_counter()
    live = 0
    for r0 in range(0, 1024, 64):
        block = words[r0:r0 + 64, None, :] & words[None, :, :]
        live += int(np.count_nonzero(block.any(axis=2)))
    for k in range(300_000):
        live += k & 7
    for _ in range(4):
        live += int(np.bitwise_and(stream, stream[::-1])[::4096].sum() & 1)
    elapsed = time.perf_counter() - t0
    if live < 0:  # keeps every result live
        raise RuntimeError("unreachable")
    return elapsed


def source_digest(src: Path) -> str:
    """SHA-256 over the program's sources (path + bytes, sorted), the
    revision stamp that also works in an exported tree without git."""
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_revision(root: Path) -> str:
    """``git rev-parse HEAD`` of ``root``, or ``"unknown"`` outside git."""
    try:
        out = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() or "unknown"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def manifest(root: Path, src_sha: str, extra: dict) -> dict:
    """Everything needed to decide whether two results are comparable."""
    import numpy as np

    return {
        "git_revision": git_revision(root),
        "source_sha256": src_sha,
        "cpu_model": cpu_model(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "platform": platform.platform(),
        "started_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        **extra,
    }
