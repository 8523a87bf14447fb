"""Slow-query log: threshold- and sample-gated structured JSONL sink.

Aggregate histograms answer "how slow is the p99?" but not "why was
*this* query slow?".  The slow-query log keeps the individual evidence:
every request whose total latency crosses ``threshold_ms`` is written as
one JSON line carrying its trace id, pair count, first pair, epoch,
outcome and the per-stage timing breakdown the network server measured
(read-lock wait, cache/index probe, cache hits and misses, total).
Requests *below* the threshold are probabilistically sampled at
``sample_rate`` so the log also holds a baseline of normal traffic to
compare the outliers against.

The record schema (one JSON object per line)::

    {"ts": 1754489000.1, "trace": "9f2a...", "dur_ms": 83.2,
     "slow": true, "outcome": "ok", "pairs": 16,
     "pair": ["a", "b"], "epoch": 412, "degraded": false,
     "stages": {"lock_ms": 79.6, "probe_ms": 3.2, "cache_hits": 3,
                "cache_misses": 13, "total_ms": 83.2, ...}}

``outcome`` is ``"ok"``, ``"shed"`` (the connection budget refused the
request — shed replies are always logged when a threshold is set to 0,
otherwise they obey the same gate) or ``"error"``.

Writers call :meth:`SlowQueryLog.record`; readers use
:func:`read_slowlog` / :func:`aggregate_slowlog` or the ``repro
slowlog`` CLI, which tails and aggregates the file.
"""

from __future__ import annotations

import json
import threading
import time
from pathlib import Path
from random import Random
from typing import Optional, Union

__all__ = ["SlowQueryLog", "read_slowlog", "aggregate_slowlog"]

PathLike = Union[str, Path]


class SlowQueryLog:
    """Append-only JSONL sink gated by a latency threshold and a sampler.

    Parameters
    ----------
    path:
        The JSONL file (created if missing, appended to otherwise, so a
        server restart continues the same log).
    threshold_ms:
        Requests at or above this total latency are always written.
    sample_rate:
        Probability in ``[0, 1]`` that a request *below* the threshold
        is written anyway (the normal-traffic baseline).  0 disables
        sampling.
    seed:
        Seed for the sampling RNG (deterministic tests).

    Thread-safe: one lock guards the file handle and the sampler.
    """

    def __init__(
        self,
        path: PathLike,
        *,
        threshold_ms: float = 50.0,
        sample_rate: float = 0.0,
        seed: Optional[int] = None,
    ) -> None:
        if threshold_ms < 0:
            raise ValueError(f"threshold_ms must be >= 0, got {threshold_ms}")
        if not 0.0 <= sample_rate <= 1.0:
            raise ValueError(
                f"sample_rate must be in [0, 1], got {sample_rate}"
            )
        self.path = Path(path)
        self.threshold_ms = threshold_ms
        self.sample_rate = sample_rate
        self._rng = Random(seed)
        self._lock = threading.Lock()
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._file = open(self.path, "a", encoding="utf-8")
        self.seen = 0
        self.written = 0
        self.sampled = 0

    def record(
        self,
        *,
        trace: Optional[str],
        dur_ms: float,
        stages: Optional[dict] = None,
        pairs: int = 0,
        pair=None,
        epoch: Optional[int] = None,
        outcome: str = "ok",
        degraded: bool = False,
    ) -> bool:
        """Offer one finished request; return whether it was written.

        Above-threshold requests always land (``"slow": true``); the
        rest are sampled at :attr:`sample_rate` (``"slow": false``).
        """
        with self._lock:
            self.seen += 1
            slow = dur_ms >= self.threshold_ms
            if not slow:
                if not self.sample_rate or self._rng.random() >= self.sample_rate:
                    return False
                self.sampled += 1
            entry = {
                "ts": time.time(),
                "trace": trace,
                "dur_ms": round(dur_ms, 4),
                "slow": slow,
                "outcome": outcome,
                "pairs": pairs,
                "pair": list(pair) if isinstance(pair, tuple) else pair,
                "epoch": epoch,
                "degraded": degraded,
            }
            if stages:
                entry["stages"] = {
                    k: (round(v, 4) if isinstance(v, float) else v)
                    for k, v in stages.items()
                }
            if self._file.closed:
                return False
            self._file.write(
                json.dumps(entry, default=str, separators=(",", ":")) + "\n"
            )
            self._file.flush()
            self.written += 1
            return True

    def stats(self) -> dict:
        """Counters: requests offered, written, sampled-in below threshold."""
        with self._lock:
            return {
                "seen": self.seen,
                "written": self.written,
                "sampled": self.sampled,
                "threshold_ms": self.threshold_ms,
                "sample_rate": self.sample_rate,
            }

    def close(self) -> None:
        """Flush and close the file (idempotent)."""
        with self._lock:
            if not self._file.closed:
                self._file.close()

    def __enter__(self) -> "SlowQueryLog":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}({str(self.path)!r}, "
            f"threshold_ms={self.threshold_ms}, written={self.written})"
        )


def read_slowlog(path: PathLike, *, tail: Optional[int] = None) -> list[dict]:
    """Parse a slow-query log; optionally only the last *tail* records.

    Malformed lines (a crash mid-write) are skipped, not raised.
    """
    records = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError:
                continue
    if tail is not None and tail >= 0:
        records = records[-tail:] if tail else []
    return records


def _percentile(sorted_values: list[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    position = min(
        len(sorted_values) - 1, int(round(q * (len(sorted_values) - 1)))
    )
    return sorted_values[position]


def aggregate_slowlog(records: list[dict]) -> dict:
    """Summarize slow-log records for the ``repro slowlog --aggregate`` view.

    Returns counts by outcome, the latency distribution, mean per-stage
    milliseconds over records that carried a breakdown, and the slowest
    few trace ids (for follow-up grepping).
    """
    durations = sorted(
        r["dur_ms"] for r in records if isinstance(r.get("dur_ms"), (int, float))
    )
    by_outcome: dict[str, int] = {}
    stage_totals: dict[str, float] = {}
    stage_counts: dict[str, int] = {}
    for r in records:
        by_outcome[r.get("outcome", "ok")] = (
            by_outcome.get(r.get("outcome", "ok"), 0) + 1
        )
        for name, value in (r.get("stages") or {}).items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                stage_totals[name] = stage_totals.get(name, 0.0) + value
                stage_counts[name] = stage_counts.get(name, 0) + 1
    slowest = sorted(
        (
            r
            for r in records
            if isinstance(r.get("dur_ms"), (int, float))
        ),
        key=lambda r: -r["dur_ms"],
    )[:5]
    return {
        "count": len(records),
        "slow": sum(1 for r in records if r.get("slow")),
        "by_outcome": by_outcome,
        "dur_ms": {
            "p50": _percentile(durations, 0.50),
            "p95": _percentile(durations, 0.95),
            "p99": _percentile(durations, 0.99),
            "max": durations[-1] if durations else 0.0,
            "mean": sum(durations) / len(durations) if durations else 0.0,
        },
        "stage_means_ms": {
            name: stage_totals[name] / stage_counts[name]
            for name in sorted(stage_totals)
        },
        "slowest_traces": [
            {"trace": r.get("trace"), "dur_ms": r["dur_ms"],
             "outcome": r.get("outcome", "ok")}
            for r in slowest
        ],
    }
