"""Helpers shared by the served and the traced run.

Locating the package under test, percentiles, process trees under
``/proc``, and the run directory.  Nothing here imports :mod:`repro`; the
callers do that after :func:`require_sources` has put ``src`` on the path.
"""

from __future__ import annotations

import math
import os
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

#: The checkout root: the benchmark lives one directory below it.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Per-run scratch (generated graphs, port files, WAL dirs, server logs).
WORK = Path(__file__).resolve().parent / ".runs"


class BenchError(RuntimeError):
    """A run that cannot produce a result (missing sources, dead server)."""


def require_sources() -> None:
    """Put ``src`` on ``sys.path``; fail when the package is not there."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(
            f"no repro package under {SRC}; run from a repository checkout"
        )
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> dict:
    """Environment for ``python -m repro`` subprocesses."""
    env = dict(os.environ)
    existing = env.get("PYTHONPATH", "")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + existing if existing else "")
    # Fault injection and chaos variables must not leak into measurements.
    env.pop("REPRO_CHAOS", None)
    env.pop("REPRO_CHAOS_SPENT", None)
    return env


def make_run_dir(workload: str, seed: int) -> Path:
    """A fresh, empty directory for one run."""
    path = WORK / f"{workload}-s{seed}-p{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------

def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]) of a non-empty sample."""
    ordered = sorted(values)
    if not ordered:
        raise BenchError("percentile of an empty sample")
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def fastest(samples) -> dict:
    """Each distinct request's fastest time, from ``(request, seconds)``
    samples: ``{request: seconds}``."""
    best: dict = {}
    for request, seconds in samples:
        best[request] = min(seconds, best.get(request, math.inf))
    if not best:
        raise BenchError("no request completed")
    return best


def median(values) -> float:
    values = list(values)
    if not values:
        raise BenchError("median of an empty sample")
    return statistics.median(values)


# ----------------------------------------------------------------------
# Process trees
# ----------------------------------------------------------------------

def _proc_stats():
    """``(pid, fields)`` for every process, where *fields* are the
    ``/proc/PID/stat`` fields after the command name: state, ppid, pgrp..."""
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as handle:
                stat = handle.read()
        except OSError:
            continue
        # The command name may contain spaces and parentheses.
        yield int(entry), stat[stat.rfind(b")") + 2:].split()


def process_tree(root: int) -> list[int]:
    """*root* and all its live descendants."""
    children: dict[int, list[int]] = {}
    for pid, fields in _proc_stats():
        children.setdefault(int(fields[1]), []).append(pid)
    tree, stack = [], [root]
    while stack:
        pid = stack.pop()
        tree.append(pid)
        stack.extend(children.get(pid, ()))
    return tree


def cmdline(pid: int) -> list[str]:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as handle:
            return [a.decode(errors="replace") for a in handle.read().split(b"\0") if a]
    except OSError:
        return []


def peak_rss_mb(root: int) -> float:
    """Sum of the peak resident sizes (VmHWM) over *root*'s tree, MiB."""
    total_kb = 0
    for pid in process_tree(root):
        try:
            with open(f"/proc/{pid}/status") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            continue
    return total_kb / 1024.0


def kill_group(pgid: int) -> None:
    """SIGKILL a whole process group; silent when it is already gone."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def wait_group_gone(pgid: int, timeout: float) -> bool:
    """Wait until no process of group *pgid* is left (zombies excluded)."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if not any(int(f[2]) == pgid and f[0] != b"Z" for _, f in _proc_stats()):
            return True
        time.sleep(0.02)
    return False
