"""Small measurement helpers: order statistics, failure tallies, CPU/RSS, environment."""

from __future__ import annotations

import os
import platform
import resource
import subprocess
import time
from dataclasses import dataclass
from pathlib import Path

# Thread-count variables that change how the BLAS under numpy behaves.
# The benchmark records them as found and never sets them.
THREAD_ENV_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

TAIL_BEYOND = 10


def tail(values: "list[float]", beyond: int = TAIL_BEYOND) -> "tuple[float, float, int] | None":
    """The highest percentile with at least ``beyond`` ranked samples above it.

    Returns ``(value, percentile, count)``: ``value`` is the ranked sample
    with exactly ``beyond`` samples after it, ``percentile`` the share of
    samples at or below that rank (in %), and ``count`` the sample count.
    ``None`` when there are too few samples for any such percentile.
    """
    ranked = sorted(values)
    count = len(ranked)
    index = count - 1 - beyond
    if index < 0:
        return None
    return float(ranked[index]), 100.0 * (index + 1) / count, count


@dataclass
class Tally:
    """Attempted vs failed operations (cells or requests)."""

    attempted: int = 0
    failed: int = 0

    def add(self, attempted: int, failed: int = 0) -> None:
        if failed < 0 or failed > attempted:
            raise ValueError(f"failed={failed} outside 0..{attempted}")
        self.attempted += attempted
        self.failed += failed

    @property
    def failed_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def cpu_seconds() -> float:
    """User+system CPU of this process and every child it has waited for."""
    times = os.times()
    return times.user + times.system + times.children_user + times.children_system


def proc_cpu_seconds(pid: int) -> float:
    """User+system CPU of a live process and its waited-for children (Linux)."""
    fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    ticks = sum(int(value) for value in fields[11:15])  # utime stime cutime cstime
    return ticks / os.sysconf("SC_CLK_TCK")


def peak_rss_mb() -> float:
    """This process's peak RSS plus the largest waited-for child's peak."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0  # ru_maxrss is in KiB on Linux


def host_probe_s() -> float:
    """Median time of a fixed single-threaded Python loop: how fast the host runs now.

    Metadata beside the metrics.  On a shared machine the host's speed
    drifts between runs; the probe tells such a drift apart from a change
    in the program.
    """
    times = []
    for _ in range(5):
        start = time.perf_counter()
        total = 0
        for value in range(200_000):
            total += value * value % 7
        times.append(time.perf_counter() - start)
    return sorted(times)[2]


def _blas() -> dict:
    import numpy as np

    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        return {"name": blas.get("name"), "version": blas.get("version"),
                "openblas_configuration": blas.get("openblas configuration")}
    except (TypeError, KeyError):  # numpy < 1.26 has no dict mode
        return {"name": None, "version": None}


def _git_sha(root: Path) -> "str | None":
    if not (root / ".git").exists():  # an exported checkout, not a clone
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment(root: Path, seed: int) -> dict:
    """The numerical environment a result was measured in (metadata, not metrics)."""
    import numpy as np

    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = os.cpu_count()
    return {
        "cpus": os.cpu_count(),
        "cpus_usable": usable,
        "numpy": np.__version__,
        "blas": _blas(),
        "thread_env": {name: os.environ.get(name) for name in THREAD_ENV_VARS},
        "python": platform.python_version(),
        "git_sha": _git_sha(root),
        "seed": seed,
    }
