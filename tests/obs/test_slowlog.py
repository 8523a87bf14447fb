"""Unit tests for the slow-query log: gating, schema, reader, aggregator."""

import json

import pytest

from repro.obs.slowlog import SlowQueryLog, aggregate_slowlog, read_slowlog


class TestGating:
    def test_above_threshold_always_written(self, tmp_path):
        with SlowQueryLog(tmp_path / "slow.jsonl", threshold_ms=10.0) as log:
            assert log.record(trace="aa", dur_ms=10.0)  # at threshold: slow
            assert log.record(trace="bb", dur_ms=99.0)
        records = read_slowlog(tmp_path / "slow.jsonl")
        assert [r["trace"] for r in records] == ["aa", "bb"]
        assert all(r["slow"] for r in records)

    def test_below_threshold_dropped_without_sampling(self, tmp_path):
        with SlowQueryLog(tmp_path / "slow.jsonl", threshold_ms=10.0) as log:
            assert not log.record(trace="aa", dur_ms=9.9)
            assert log.stats()["seen"] == 1
            assert log.stats()["written"] == 0
        assert read_slowlog(tmp_path / "slow.jsonl") == []

    def test_sampling_admits_a_baseline(self, tmp_path):
        log = SlowQueryLog(
            tmp_path / "slow.jsonl",
            threshold_ms=1000.0,
            sample_rate=0.5,
            seed=7,
        )
        with log:
            written = sum(
                log.record(trace=f"{i:02x}", dur_ms=1.0) for i in range(200)
            )
        # Seeded RNG: deterministic, and close to the nominal rate.
        assert written == log.stats()["sampled"]
        assert 60 <= written <= 140
        assert all(not r["slow"] for r in read_slowlog(log.path))

    def test_sample_rate_one_writes_everything(self, tmp_path):
        with SlowQueryLog(
            tmp_path / "s.jsonl", threshold_ms=1000.0, sample_rate=1.0
        ) as log:
            assert log.record(trace="aa", dur_ms=0.1)

    def test_threshold_zero_logs_every_request(self, tmp_path):
        with SlowQueryLog(tmp_path / "s.jsonl", threshold_ms=0.0) as log:
            assert log.record(trace="aa", dur_ms=0.0)

    def test_invalid_parameters_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            SlowQueryLog(tmp_path / "s.jsonl", threshold_ms=-1.0)
        with pytest.raises(ValueError):
            SlowQueryLog(tmp_path / "s.jsonl", sample_rate=1.5)


class TestSchema:
    def test_record_carries_full_breakdown(self, tmp_path):
        with SlowQueryLog(tmp_path / "s.jsonl", threshold_ms=0.0) as log:
            log.record(
                trace="feedbeef",
                dur_ms=83.21234,
                stages={"probe_ms": 0.123456, "lock_ms": 38.5,
                        "cache_hits": 3, "degraded": False},
                pairs=16,
                pair=("a", "b"),
                epoch=412,
                outcome="ok",
            )
        [rec] = read_slowlog(tmp_path / "s.jsonl")
        assert rec["trace"] == "feedbeef"
        assert rec["dur_ms"] == 83.2123  # rounded to 4dp
        assert rec["pair"] == ["a", "b"]  # tuples become JSON arrays
        assert rec["epoch"] == 412
        assert rec["outcome"] == "ok"
        assert rec["stages"]["probe_ms"] == 0.1235
        assert rec["stages"]["cache_hits"] == 3
        assert rec["stages"]["degraded"] is False
        assert "ts" in rec

    def test_append_mode_survives_reopen(self, tmp_path):
        path = tmp_path / "s.jsonl"
        with SlowQueryLog(path, threshold_ms=0.0) as log:
            log.record(trace="aa", dur_ms=1.0)
        with SlowQueryLog(path, threshold_ms=0.0) as log:
            log.record(trace="bb", dur_ms=2.0)
        assert [r["trace"] for r in read_slowlog(path)] == ["aa", "bb"]

    def test_record_after_close_is_a_noop(self, tmp_path):
        log = SlowQueryLog(tmp_path / "s.jsonl", threshold_ms=0.0)
        log.close()
        assert not log.record(trace="aa", dur_ms=99.0)
        log.close()  # idempotent


class TestReader:
    def test_tail_keeps_the_newest(self, tmp_path):
        path = tmp_path / "s.jsonl"
        with SlowQueryLog(path, threshold_ms=0.0) as log:
            for i in range(10):
                log.record(trace=f"{i:02x}", dur_ms=float(i))
        tail = read_slowlog(path, tail=3)
        assert [r["trace"] for r in tail] == ["07", "08", "09"]
        assert read_slowlog(path, tail=0) == []

    def test_malformed_lines_skipped(self, tmp_path):
        path = tmp_path / "s.jsonl"
        with SlowQueryLog(path, threshold_ms=0.0) as log:
            log.record(trace="aa", dur_ms=1.0)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"trace": "torn-mid-wri\n')  # crash mid-write
        with SlowQueryLog(path, threshold_ms=0.0) as log:
            log.record(trace="bb", dur_ms=2.0)
        assert [r["trace"] for r in read_slowlog(path)] == ["aa", "bb"]


class TestAggregate:
    def _records(self):
        return [
            {"trace": "aa", "dur_ms": 10.0, "slow": True, "outcome": "ok",
             "stages": {"lock_ms": 4.0, "probe_ms": 6.0, "degraded": False}},
            {"trace": "bb", "dur_ms": 30.0, "slow": True, "outcome": "ok",
             "stages": {"lock_ms": 8.0, "probe_ms": 22.0, "degraded": False}},
            {"trace": "cc", "dur_ms": 1.0, "slow": False, "outcome": "shed"},
        ]

    def test_summary_shape(self):
        agg = aggregate_slowlog(self._records())
        assert agg["count"] == 3
        assert agg["slow"] == 2
        assert agg["by_outcome"] == {"ok": 2, "shed": 1}
        assert agg["dur_ms"]["max"] == 30.0
        assert agg["dur_ms"]["p50"] == 10.0
        assert agg["stage_means_ms"] == {"lock_ms": 6.0, "probe_ms": 14.0}
        # Booleans inside stages must not pollute the numeric means.
        assert "degraded" not in agg["stage_means_ms"]
        assert [t["trace"] for t in agg["slowest_traces"]] == [
            "bb", "aa", "cc"
        ]

    def test_empty_log_aggregates_cleanly(self):
        agg = aggregate_slowlog([])
        assert agg["count"] == 0
        assert agg["dur_ms"]["mean"] == 0.0
        assert agg["slowest_traces"] == []

    def test_aggregate_is_json_safe(self):
        json.dumps(aggregate_slowlog(self._records()))
