"""Crash safety for the serving layer: WAL, checkpoints, recovery.

The paper's index is an in-memory structure; a process crash loses it.
This module adds the standard database recipe around
:class:`~repro.service.server.ReachabilityService`:

* :class:`WriteAheadLog` — every update is appended as a length-prefixed,
  CRC32-checksummed JSON record *before* it is applied, under a
  configurable fsync policy (``always`` / ``batch`` / ``never``).
  Opening a WAL validates every record and truncates the first torn or
  corrupt tail — the normal aftermath of a crash mid-append.
* :class:`CheckpointStore` — periodic snapshots of the served graph as
  graph-only TOLF packs (:func:`repro.core.serialize.pack_graph`,
  format-versioned, checksummed), written to a temp file and atomically
  renamed, with the newest few retained.  Loading walks newest-to-oldest
  past any corrupt file, but stops at one in a format it cannot read.
* :func:`recover_state` — the recovery path: load the newest *valid*
  checkpoint, then replay the WAL suffix (records with a sequence number
  beyond the checkpoint's coverage) on top of it.  The index itself is
  never persisted: it is rebuilt deterministically from the recovered
  graph, which is what the crash-matrix test verifies against a BFS
  oracle.

Sequence numbers are assigned by the WAL, start at 1, and survive
checkpoint trims (the file header records the trimmed base).  The WAL is
trimmed only through the *oldest retained* checkpoint, so falling back
to any checkpoint still on disk leaves no gap: ``checkpoint coverage +
WAL suffix`` always partitions the update history.  An update is
*durable* once its record is appended and synced; an update is *acked*
only when ``flush()`` returns — so a crash at any
named :data:`~repro.service.faults.CRASH_POINTS` site loses at most
un-acked updates, never acked ones (with ``fsync="always"``/``"batch"``).

All WAL/checkpoint I/O goes through the module's
:class:`~repro.service.faults.FaultInjector` crash points, which is what
makes the crash matrix deterministic.
"""

from __future__ import annotations

import json
import os
import struct
import threading
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Union

from ..core.serialize import pack_graph, unpack_graph
from ..errors import ReproError, SerializationError, UnsupportedFormatError
from ..graph.digraph import DiGraph
from ..obs import trace as obs_trace
from ..obs.registry import MetricRegistry
from .faults import NULL_INJECTOR, FaultInjector, InjectedCrash
from ..core.ops import UpdateOp

__all__ = [
    "FSYNC_POLICIES",
    "WriteAheadLog",
    "CheckpointStore",
    "DurabilityManager",
    "RecoveryReport",
    "recover_state",
]

PathLike = Union[str, Path]

#: When the WAL calls ``os.fsync``: after every append, once per batch
#: (at the explicit :meth:`WriteAheadLog.sync`), or never (page cache
#: only — durable against process crash, not power loss).
FSYNC_POLICIES = ("always", "batch", "never")

_WAL_MAGIC = b"TOLWAL1\n"
_WAL_BASE = struct.Struct("<Q")  # seq covered by trims before record 1
_RECORD_HEADER = struct.Struct("<II")  # payload length, CRC32(payload)
_WAL_HEADER_LEN = len(_WAL_MAGIC) + _WAL_BASE.size

#: Magic of the zlib-JSON checkpoints written before checkpoints became
#: TOLF packs.  Recovery refuses them rather than skip the base graph.
_LEGACY_CHECKPOINT_MAGIC = b"TOLC"


def _encode_record(
    seq: int, op: UpdateOp, trace: Optional[str] = None
) -> bytes:
    body = {"seq": seq, "op": op.to_dict()}
    if trace is not None:
        # Only stamped records carry the key, so untraced WALs stay
        # byte-identical with every log written before trace ids existed.
        body["trace"] = trace
    payload = json.dumps(
        body, separators=(",", ":"), sort_keys=True
    ).encode("utf-8")
    return _RECORD_HEADER.pack(len(payload), zlib.crc32(payload)) + payload


def _scan_records(
    blob: bytes,
) -> tuple[int, list[tuple[int, UpdateOp, Optional[str]]], int]:
    """Parse a WAL image; return ``(base_seq, records, valid_end)``.

    Records are ``(seq, op, trace)`` triples — ``trace`` is the
    originating batch's trace id, or ``None`` for unstamped records.
    Stops — without raising — at the first torn, corrupt, or
    out-of-sequence record; ``valid_end`` is the byte offset of the last
    good record's end, which :meth:`WriteAheadLog.open` truncates to.
    """
    if blob[: len(_WAL_MAGIC)] != _WAL_MAGIC or len(blob) < _WAL_HEADER_LEN:
        raise SerializationError("not a TOL write-ahead log (bad magic)")
    (base,) = _WAL_BASE.unpack_from(blob, len(_WAL_MAGIC))
    records: list[tuple[int, UpdateOp, Optional[str]]] = []
    prev = base
    offset = _WAL_HEADER_LEN
    while offset + _RECORD_HEADER.size <= len(blob):
        length, checksum = _RECORD_HEADER.unpack_from(blob, offset)
        start = offset + _RECORD_HEADER.size
        if length > len(blob) - start:
            break  # torn tail: length prefix promises more bytes than exist
        payload = blob[start : start + length]
        if zlib.crc32(payload) != checksum:
            break
        try:
            body = json.loads(payload.decode("utf-8"))
            seq = body["seq"]
            op = UpdateOp.from_dict(body["op"])
            trace = body.get("trace")
        except (ValueError, KeyError, TypeError, ReproError):
            break
        if seq != prev + 1:
            break  # a gap or replay means everything after is suspect
        records.append((seq, op, trace))
        prev = seq
        offset = start + length
    return base, records, offset


class WriteAheadLog:
    """An append-only log of update records with torn-tail recovery.

    Record layout: 4-byte little-endian payload length, 4-byte CRC32 of
    the payload, then the payload — the JSON ``{"seq": n, "op": {...}}``.
    The file starts with an 8-byte magic and an 8-byte *base* sequence
    number (the highest seq removed by checkpoint trims), so sequence
    numbers stay monotonic across the log's whole lifetime.

    Opening an existing log validates every record and truncates the
    file at the first bad one; :attr:`truncated_bytes` reports how much
    was dropped (0 for a clean shutdown).

    Thread-safe; every public method takes the internal lock.
    """

    def __init__(
        self,
        path: PathLike,
        *,
        fsync: str = "batch",
        injector: FaultInjector = NULL_INJECTOR,
        registry=None,
    ) -> None:
        if fsync not in FSYNC_POLICIES:
            raise ValueError(
                f"fsync must be one of {FSYNC_POLICIES}, got {fsync!r}"
            )
        self._path = Path(path)
        self._fsync = fsync
        self._injector = injector
        self._lock = threading.RLock()
        self._file = None
        self._base_seq = 0
        self._last_seq = 0
        self._bind(MetricRegistry() if registry is None else registry)
        self.truncated_bytes = 0
        self._open()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def _open(self) -> None:
        path = self._path
        path.parent.mkdir(parents=True, exist_ok=True)
        if not path.exists():
            self._write_fresh(path, base=0, records=())
        blob = path.read_bytes()
        if len(blob) < _WAL_HEADER_LEN and _WAL_MAGIC.startswith(
            blob[: len(_WAL_MAGIC)]
        ):
            # Crash during creation left a partial header: start over.
            self.truncated_bytes = len(blob)
            self._write_fresh(path, base=0, records=())
            blob = path.read_bytes()
        base, records, valid_end = _scan_records(blob)
        self._base_seq = base
        self._last_seq = records[-1][0] if records else base
        if valid_end < len(blob):
            self.truncated_bytes += len(blob) - valid_end
            with open(path, "r+b") as f:
                f.truncate(valid_end)
                f.flush()
                if self._fsync != "never":
                    os.fsync(f.fileno())
        self._file = open(path, "ab")

    def _write_fresh(self, path: Path, base: int, records) -> None:
        tmp = path.with_name(path.name + ".tmp")
        with open(tmp, "wb") as f:
            f.write(_WAL_MAGIC + _WAL_BASE.pack(base))
            for seq, op, trace in records:
                f.write(_encode_record(seq, op, trace))
            f.flush()
            if self._fsync != "never":
                os.fsync(f.fileno())
        os.replace(tmp, path)

    def close(self) -> None:
        """Flush and close the append handle (the log stays valid)."""
        with self._lock:
            if self._file is not None:
                self._file.flush()
                self._file.close()
                self._file = None

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Appending
    # ------------------------------------------------------------------

    def append(self, op: UpdateOp, *, trace: Optional[str] = None) -> int:
        """Append one update record; return its sequence number.

        The record is flushed to the OS before returning (so it survives
        a process crash); ``fsync="always"`` additionally syncs it to
        stable storage here, ``"batch"`` defers that to :meth:`sync`.
        *trace* stamps the record with the originating batch's trace id
        so durability incidents correlate with client-visible replies
        (untraced records encode byte-identically to older WALs).
        """
        with self._lock:
            if self._file is None:
                raise SerializationError("write-ahead log is closed")
            seq = self._last_seq + 1
            record = _encode_record(seq, op, trace)
            self._injector.fire("wal.append.before")
            if self._injector.take("wal.append.torn") is not None:
                # Simulate a crash mid-write: half the record reaches the
                # file, then the process dies.  open() must truncate it.
                self._file.write(record[: max(1, len(record) // 2)])
                self._file.flush()
                raise InjectedCrash("wal.append.torn")
            self._file.write(record)
            self._file.flush()
            self._injector.fire("wal.append.after")
            self._last_seq = seq
            self._appended.incr()
            if self._fsync == "always":
                self._sync_locked()
            return seq

    def tell(self) -> tuple[int, int]:
        """The log's end as ``(byte offset, last seq)``, for :meth:`rollback`."""
        with self._lock:
            if self._file is None:
                raise SerializationError("write-ahead log is closed")
            return self._file.tell(), self._last_seq

    def rollback(self, mark: tuple[int, int]) -> None:
        """Drop every record appended since :meth:`tell` returned *mark*.

        The append handle is closed first, discarding any bytes a failed
        write left buffered, then the file is cut back to the mark and
        reopened; the next append reuses the mark's next sequence number.
        """
        offset, seq = mark
        with self._lock:
            try:
                self._file.close()
            except OSError:
                pass  # the unflushed tail is exactly what is dropped
            os.truncate(self._path, offset)
            self._file = open(self._path, "ab")
            if self._fsync != "never":
                os.fsync(self._file.fileno())
            self._last_seq = seq

    def sync(self) -> None:
        """Force appended records to stable storage (fsync policy permitting)."""
        with self._lock:
            self._sync_locked()

    def _sync_locked(self) -> None:
        if self._file is None:
            return
        self._file.flush()
        self._injector.fire("wal.sync")
        if self._fsync == "never":
            return
        os.fsync(self._file.fileno())
        self._fsynced.incr()

    # ------------------------------------------------------------------
    # Reading and trimming
    # ------------------------------------------------------------------

    def records(self) -> list[tuple[int, UpdateOp]]:
        """Re-read every valid ``(seq, op)`` record from disk, in order."""
        return [(seq, op) for seq, op, _ in self.records_with_traces()]

    def records_with_traces(
        self,
    ) -> list[tuple[int, UpdateOp, Optional[str]]]:
        """``(seq, op, trace)`` triples from disk; ``trace`` may be ``None``."""
        with self._lock:
            if self._file is not None:
                self._file.flush()
            _, records, _ = _scan_records(self._path.read_bytes())
            return records

    def truncate_through(self, seq: int) -> int:
        """Drop every record with sequence number <= *seq*; return kept count.

        Called after a checkpoint covering *seq*: the dropped prefix is
        redundant with the snapshot.  The rewrite goes through a temp
        file and an atomic rename, so a crash mid-trim leaves either the
        old or the new log, never a mangled one.
        """
        with self._lock:
            keep = [
                (s, op, trace)
                for s, op, trace in self.records_with_traces()
                if s > seq
            ]
            if self._file is not None:
                self._file.close()
            self._write_fresh(self._path, base=seq, records=keep)
            self._file = open(self._path, "ab")
            self._base_seq = seq
            self._last_seq = max(self._last_seq, seq)
            return len(keep)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def path(self) -> Path:
        """Location of the log file."""
        return self._path

    @property
    def last_seq(self) -> int:
        """Sequence number of the newest record (trims included)."""
        with self._lock:
            return self._last_seq

    @property
    def base_seq(self) -> int:
        """Highest sequence number trimmed away (0 = nothing trimmed)."""
        with self._lock:
            return self._base_seq

    def bind_registry(self, registry) -> None:
        """Route counters into *registry* (seeding it with current totals)."""
        with self._lock:
            appended = self.records_appended
            fsyncs = self.fsyncs
            self._bind(registry)
            self._appended.incr(appended)
            self._fsynced.incr(fsyncs)

    def _bind(self, registry) -> None:
        self._appended = registry.counter("wal.records_appended")
        self._fsynced = registry.counter("wal.fsyncs")

    @property
    def records_appended(self) -> int:
        """Records appended, as counted by the bound registry."""
        return self._appended.value

    @property
    def fsyncs(self) -> int:
        """fsync calls made, as counted by the bound registry."""
        return self._fsynced.value

    def stats(self) -> dict:
        """Counters for snapshots: seq position, appends, fsyncs, trims."""
        with self._lock:
            return {
                "last_seq": self._last_seq,
                "records_appended": self.records_appended,
                "fsyncs": self.fsyncs,
                "truncated_bytes": self.truncated_bytes,
            }

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}({str(self._path)!r}, "
            f"last_seq={self.last_seq}, fsync={self._fsync!r})"
        )


class CheckpointStore:
    """Atomic, retained, corruption-tolerant graph snapshots.

    Files are named ``ckpt-<wal_seq>.tolf`` so the covered WAL position
    is readable without opening them.  :meth:`write` goes through a temp
    file and ``os.replace``; :meth:`load_latest` walks newest-to-oldest
    and skips truncated or CRC-failing packs, so one corrupt (or
    half-renamed) checkpoint costs recovery freshness, never
    availability.  A checkpoint in a format or version this code does
    not read stops it instead: skipping that would lose its graph.
    """

    def __init__(
        self,
        directory: PathLike,
        *,
        keep: int = 2,
        injector: FaultInjector = NULL_INJECTOR,
    ) -> None:
        if keep < 1:
            raise ValueError(f"keep must be >= 1, got {keep}")
        self._dir = Path(directory)
        self._dir.mkdir(parents=True, exist_ok=True)
        self._keep = keep
        self._injector = injector

    @property
    def directory(self) -> Path:
        """The checkpoint directory."""
        return self._dir

    def paths(self) -> list[Path]:
        """Checkpoint files, oldest first (temp files excluded)."""
        return sorted(
            p for p in self._dir.glob("ckpt-*") if p.suffix != ".tmp"
        )

    @staticmethod
    def seq_of(path: Path) -> int:
        """The WAL sequence number a checkpoint file's name claims."""
        return int(path.stem.split("-", 1)[1])

    def write(self, graph: DiGraph, meta: dict) -> Path:
        """Persist one snapshot; returns the final (renamed) path."""
        seq = int(meta.get("wal_seq", 0))
        final = self._dir / f"ckpt-{seq:012d}.tolf"
        tmp = final.with_name(final.name + ".tmp")
        self._injector.fire("checkpoint.serialize")
        with open(tmp, "wb") as f:
            f.write(pack_graph(graph, meta))
            f.flush()
            os.fsync(f.fileno())
        self._injector.fire("checkpoint.rename")
        os.replace(tmp, final)
        self._fsync_dir()
        self._injector.fire("checkpoint.after")
        self.prune()
        return final

    def load_latest(self) -> Optional[tuple[DiGraph, dict, Path]]:
        """Newest checkpoint that decodes cleanly, or ``None``.

        Returns ``(graph, meta, path)``.  Corrupt or truncated files are
        skipped (newest first), which is the fallback the crash matrix
        exercises by tearing the most recent checkpoint.

        Raises
        ------
        SerializationError
            Naming the file, when a checkpoint is in a format or version
            this code does not read (e.g. a legacy TOLC checkpoint).
        """
        for path in reversed(self.paths()):
            try:
                blob = path.read_bytes()
                if blob[:4] == _LEGACY_CHECKPOINT_MAGIC:
                    raise UnsupportedFormatError(
                        "legacy TOLC checkpoint; this version reads TOLF packs"
                    )
                graph, meta = unpack_graph(blob)
            except UnsupportedFormatError as exc:
                raise SerializationError(
                    f"checkpoint {path} cannot be read: {exc}"
                ) from None
            except (SerializationError, OSError):
                continue
            return graph, meta, path
        return None

    def prune(self) -> None:
        """Drop all but the newest *keep* checkpoints, and stray temp files."""
        for stale in self.paths()[: -self._keep]:
            stale.unlink(missing_ok=True)
        for tmp in self._dir.glob("ckpt-*.tmp"):
            tmp.unlink(missing_ok=True)

    def _fsync_dir(self) -> None:
        # Make the rename itself durable; best-effort off-POSIX.
        try:
            fd = os.open(self._dir, os.O_RDONLY)
        except OSError:
            return
        try:
            os.fsync(fd)
        except OSError:
            pass
        finally:
            os.close(fd)

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}({str(self._dir)!r}, "
            f"checkpoints={len(self.paths())})"
        )


class DurabilityManager:
    """One WAL plus one checkpoint store under a single directory.

    Layout: ``<directory>/wal.log`` and ``<directory>/checkpoints/``.
    The manager tracks how far the newest checkpoint covers the WAL and
    reports a new one due every *checkpoint_every* appended records
    (:attr:`checkpoint_due`; the service then calls :meth:`checkpoint`);
    after a successful checkpoint the WAL prefix covered by every
    retained checkpoint is trimmed.
    """

    def __init__(
        self,
        directory: PathLike,
        *,
        fsync: str = "batch",
        checkpoint_every: int = 256,
        keep_checkpoints: int = 2,
        injector: FaultInjector = NULL_INJECTOR,
    ) -> None:
        if checkpoint_every < 0:
            raise ValueError(
                f"checkpoint_every must be >= 0, got {checkpoint_every}"
            )
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.wal = WriteAheadLog(
            self.directory / "wal.log", fsync=fsync, injector=injector
        )
        self.checkpoints = CheckpointStore(
            self.directory / "checkpoints",
            keep=keep_checkpoints,
            injector=injector,
        )
        self._checkpoint_every = checkpoint_every
        self._checkpointed_seq = max(
            (CheckpointStore.seq_of(p) for p in self.checkpoints.paths()),
            default=0,
        )

    @property
    def checkpointed_seq(self) -> int:
        """WAL position covered by the newest checkpoint (0 = none)."""
        return self._checkpointed_seq

    @property
    def checkpoint_due(self) -> bool:
        """Whether the uncovered WAL suffix reached the threshold."""
        return bool(self._checkpoint_every) and (
            self.wal.last_seq - self._checkpointed_seq
            >= self._checkpoint_every
        )

    def checkpoint(self, graph: DiGraph, meta: dict) -> Path:
        """Write a snapshot covering the current WAL position, then trim.

        The trim stops at the oldest retained checkpoint, so recovery can
        fall back to it if the newest fails to load.
        """
        meta = dict(meta)
        meta.setdefault("wal_seq", self.wal.last_seq)
        path = self.checkpoints.write(graph, meta)
        self._checkpointed_seq = int(meta["wal_seq"])
        oldest = min(map(CheckpointStore.seq_of, self.checkpoints.paths()))
        self.wal.truncate_through(oldest)
        return path

    def bind_registry(self, registry) -> None:
        """Route WAL counters into the service's metric registry."""
        self.wal.bind_registry(registry)

    def close(self) -> None:
        """Close the WAL handle."""
        self.wal.close()

    def stats(self) -> dict:
        """WAL counters plus checkpoint coverage, for snapshots."""
        return {
            **self.wal.stats(),
            "checkpointed_seq": self._checkpointed_seq,
            "checkpoints": len(self.checkpoints.paths()),
        }

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}({str(self.directory)!r}, "
            f"last_seq={self.wal.last_seq}, "
            f"checkpointed_seq={self._checkpointed_seq})"
        )


@dataclass
class RecoveryReport:
    """What :func:`recover_state` found and rebuilt."""

    graph: DiGraph
    last_seq: int
    checkpoint_seq: int
    checkpoint_path: Optional[Path]
    replayed: int
    skipped: int
    truncated_bytes: int
    checkpoint_meta: dict = field(default_factory=dict)

    def __str__(self) -> str:
        source = (
            f"checkpoint {self.checkpoint_path.name} (seq {self.checkpoint_seq})"
            if self.checkpoint_path is not None
            else "empty graph (no valid checkpoint)"
        )
        return (
            f"recovered |V|={self.graph.num_vertices} "
            f"|E|={self.graph.num_edges} from {source}; "
            f"replayed {self.replayed} WAL records "
            f"(skipped {self.skipped}, truncated {self.truncated_bytes} "
            f"torn bytes, last seq {self.last_seq})"
        )


def recover_state(
    directory: PathLike,
    *,
    fsync: str = "batch",
    injector: FaultInjector = NULL_INJECTOR,
) -> RecoveryReport:
    """Rebuild the served graph from a durability directory.

    Loads the newest checkpoint that passes its checksum (walking past
    corrupt ones), then replays every WAL record with ``seq`` beyond the
    checkpoint's coverage.  Raises :class:`SerializationError` when a
    checkpoint is in a format this code does not read, or when the one
    it found (none counts as seq 0) is older than the WAL's trimmed base:
    the records in between are gone, so replay would silently lose
    acknowledged updates.  Replayed records that the graph rejects
    (:class:`~repro.errors.ReproError` — e.g. an op the live service had
    also rejected) are counted in ``skipped`` and do not stop replay.
    Opening the WAL truncates any torn tail as a side effect.

    The caller turns ``report.graph`` into a fresh index;
    :meth:`ReachabilityService.recover` packages that.
    """
    directory = Path(directory)
    store = CheckpointStore(directory / "checkpoints", injector=injector)
    found = store.load_latest()
    if found is None:
        graph, meta, path = DiGraph(), {}, None
    else:
        graph, meta, path = found
    base_seq = int(meta.get("wal_seq", 0))
    replayed = skipped = 0
    with WriteAheadLog(
        directory / "wal.log", fsync=fsync, injector=injector
    ) as wal:
        if base_seq < wal.base_seq:
            raise SerializationError(
                f"recovery gap: the newest loadable checkpoint covers seq "
                f"{base_seq} but the WAL starts after seq {wal.base_seq}"
            )
        for seq, op, trace_id in wal.records_with_traces():
            if seq <= base_seq:
                continue
            try:
                op.apply_to_graph(graph)
            except ReproError:
                skipped += 1
                obs_trace.event(
                    "wal.replay_skipped", seq=seq, trace=trace_id,
                    kind=op.kind,
                )
            else:
                replayed += 1
                obs_trace.event(
                    "wal.replay", seq=seq, trace=trace_id, kind=op.kind
                )
        return RecoveryReport(
            graph=graph,
            last_seq=max(wal.last_seq, base_seq),
            checkpoint_seq=base_seq,
            checkpoint_path=path,
            replayed=replayed,
            skipped=skipped,
            truncated_bytes=wal.truncated_bytes,
            checkpoint_meta=dict(meta),
        )
