"""Where the headline benches write, and the provenance of each run.

``BENCH_build.json`` and ``BENCH_update.json`` at the repo root are the
committed headlines.  Every run merges its payload into its file (the
top level is the latest view) and appends a ``{sha, host, headline}``
row to the file's ``history`` list, so earlier runs are kept, never
overwritten.  Under ``--quick`` the same files are written below
``_config.RESULTS_DIR`` instead, so smoke-scale numbers never replace
the committed ones.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
from pathlib import Path

import repro

import _config

REPO_ROOT = Path(__file__).parent.parent


def bench_path(name: str) -> Path:
    """The headline file *name*: repo root, or the smoke results dir."""
    return (_config.RESULTS_DIR if _config.QUICK else REPO_ROOT) / name


def read_bench(name: str) -> dict:
    try:
        return json.loads(bench_path(name).read_text(encoding="utf-8"))
    except FileNotFoundError:
        return {}


def write_bench(name: str, fields: dict) -> None:
    """Merge *fields* into the headline file, keeping the keys it does
    not set."""
    merged = read_bench(name)
    merged.update(fields)
    path = bench_path(name)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(merged, indent=2) + "\n", encoding="utf-8")


def write_headline(name: str, payload: dict) -> None:
    """Write *payload* as the latest view and append its history row."""
    row = {
        "sha": source_sha(),
        "host": host(),
        "headline": payload["headline"],
    }
    history = read_bench(name).get("history", [])
    write_bench(name, {**payload, "history": history + [row]})


def host() -> str:
    """CPU model, logical CPU count and Python version of this machine."""
    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return (
        f"{model}, {os.cpu_count()} CPUs, "
        f"Python {platform.python_version()}"
    )


def source_sha() -> str:
    """Short sha of the checkout the measured ``repro`` comes from.

    ``+dirty`` marks uncommitted changes under ``src/``; ``unknown``
    means the package is not in a git checkout.
    """
    root = Path(repro.__file__).resolve().parents[2]

    def git(*args):
        return subprocess.run(
            ["git", *args], cwd=root, capture_output=True, text=True,
            check=True,
        ).stdout.strip()

    try:
        sha = git("rev-parse", "--short", "HEAD")
        dirty = git("status", "--porcelain", "--", "src")
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return sha + ("+dirty" if dirty else "")
