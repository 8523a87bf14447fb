"""Multi-process serving: a supervisor over writer + N reader workers.

The supervisor (what ``repro serve --workers N`` becomes) owns only the
things that must survive any child's death:

* the **public listening socket** — bound before any child exists, its
  fd inherited by every worker, so the kernel load-balances accepts and
  the port never changes;
* the **writer listening socket** — same trick for the loopback socket
  forwarded traffic lands on, so a respawned writer reappears at the
  same address and worker reconnects just work;
* the **control block** — created here (owner pid = supervisor pid, the
  janitor's liveness anchor) and attached by every child, so worker
  stats slots and the snapshot triple survive writer failover;
* the **port file** — written atomically once the assembly is ready,
  removed on shutdown.

Everything else runs in children, spawned as fresh interpreters via
``subprocess.Popen(pass_fds=...)`` (no ``os.fork`` from a threaded
parent):

* ``repro serve-writer`` (:mod:`repro.net.writerproc`) builds or
  *recovers* the service, attaches the publisher to the control block
  and serves forwarded ops on the writer socket;
* ``repro serve-worker`` (:mod:`repro.net.worker`) answers queries from
  the shared snapshot.

Supervision treats the writer exactly like a worker: a dead child is
respawned with the same argv and the same inherited fds.  The respawned
writer finds the WAL on disk and recovers; readers keep answering from
the last published snapshot the whole time (bounded-staleness mode —
see docs/robustness.md).  Boot also runs the shm janitor: segment
families whose owning supervisor is dead are unlinked before we create
our own.

Shutdown (SIGTERM/SIGINT) drains in dependency order: stop respawning,
SIGTERM the workers (each drains its connections), SIGTERM the writer
(drains + final WAL sync), close the sockets, then unlink the control
block and sweep any segments the writer's exit left linked.
"""

from __future__ import annotations

import os
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Optional

from ..shm.control import ControlBlock, new_base_name
from ..shm.janitor import reap_orphans, sweep_family
from .portfile import remove_port_file, write_port_file

__all__ = ["MultiProcessServer"]

#: Give up respawning after this many restarts per worker slot on
#: average — a crash-looping worker binary should fail the server, not
#: spin forever.
MAX_RESTARTS_PER_WORKER = 50

#: Same guard for the writer: a writer that cannot finish recovery this
#: many times in a row is not going to.
MAX_WRITER_RESTARTS = 20


def _child_env() -> dict:
    """Child env with ``repro``'s source root on ``PYTHONPATH``."""
    import repro

    src_root = str(Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ)
    existing = env.get("PYTHONPATH", "")
    if src_root not in existing.split(os.pathsep):
        env["PYTHONPATH"] = (
            src_root + (os.pathsep + existing if existing else "")
        )
    return env


class _Child:
    """One supervised subprocess slot (spawn and respawn identically)."""

    def __init__(self, name: str, argv: list, env: dict,
                 pass_fds: tuple) -> None:
        self.name = name
        self.argv = argv
        self.env = env
        self.pass_fds = pass_fds
        self.proc: Optional[subprocess.Popen] = None
        self.restarts = 0

    def spawn(self) -> None:
        self.proc = subprocess.Popen(
            self.argv, env=self.env, pass_fds=self.pass_fds
        )

    @property
    def pid(self) -> Optional[int]:
        return self.proc.pid if self.proc is not None else None

    def poll(self):
        return self.proc.poll() if self.proc is not None else None

    def terminate(self) -> None:
        if self.proc is not None and self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)

    def wait(self, timeout: float) -> None:
        if self.proc is None:
            return
        try:
            self.proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait(timeout=5.0)


class MultiProcessServer:
    """Supervise the writer + readers + shared-memory assembly."""

    def __init__(
        self,
        *,
        workers: int,
        writer_args: list,
        host: str = "127.0.0.1",
        port: int = 0,
        max_staleness: float = 0.0,
        forward_timeout: float = 5.0,
        max_connections: int = 0,
        janitor: bool = True,
        writer_boot_timeout: float = 60.0,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self.host = host

        if janitor:
            reaped = reap_orphans()
            if reaped:
                names = sum(len(v) for v in reaped.values())
                print(
                    f"shm janitor: reaped {names} orphaned segment(s) "
                    f"from {len(reaped)} dead server(s)",
                    flush=True,
                )

        self.base = new_base_name()
        self.control = ControlBlock.create(self.base, num_workers=workers)

        # Public socket: bound and listening before any child exists,
        # so the port is known, connections queue in the backlog from
        # the first instant, and every worker shares the same fd.
        self._public = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._public.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._public.bind((host, port))
        self._public.listen(512)
        self._public.set_inheritable(True)
        self.port = self._public.getsockname()[1]

        # Writer socket: loopback-only, forwarded traffic + admin ops.
        # The supervisor holds the listening fd so the writer's address
        # is stable across respawns.
        self._writer_sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._writer_sock.setsockopt(
            socket.SOL_SOCKET, socket.SO_REUSEADDR, 1
        )
        self._writer_sock.bind(("127.0.0.1", 0))
        self._writer_sock.listen(128)
        self._writer_sock.set_inheritable(True)
        self.writer_port = self._writer_sock.getsockname()[1]

        env = _child_env()
        writer_fd = self._writer_sock.fileno()
        public_fd = self._public.fileno()
        self._writer = _Child(
            "writer",
            [
                sys.executable, "-m", "repro", "serve-writer",
                "--fd", str(writer_fd),
                "--control", self.control.name,
                *writer_args,
            ],
            env,
            (writer_fd,),
        )
        self._readers = [
            _Child(
                f"worker-{i}",
                [
                    sys.executable, "-m", "repro", "serve-worker",
                    "--fd", str(public_fd),
                    "--control", self.control.name,
                    "--writer-port", str(self.writer_port),
                    "--worker-id", str(i),
                    "--max-staleness", str(max_staleness),
                    "--forward-timeout", str(forward_timeout),
                    "--max-connections", str(max_connections),
                ],
                env,
                (public_fd,),
            )
            for i in range(workers)
        ]
        self._writer_boot_timeout = writer_boot_timeout
        self._stopping = threading.Event()
        self._failed = False
        self._port_file: Optional[str] = None

    # ------------------------------------------------------------------
    # Run loop
    # ------------------------------------------------------------------

    def run(self, *, port_file: Optional[str] = None, on_ready=None) -> int:
        """Serve until SIGTERM/SIGINT; returns a process exit code."""
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                signal.signal(sig, lambda *_: self._stopping.set())
            except ValueError:  # pragma: no cover - non-main thread
                pass

        try:
            self._writer.spawn()
            if not self._await_writer_published():
                print("writer failed to publish a first snapshot; aborting",
                      flush=True)
                self._failed = True
                return 1
            for reader in self._readers:
                reader.spawn()
            # Only declare readiness once every worker has registered
            # its control-block slot — the port file is the "ready"
            # signal for clients, and a stats/health probe right after
            # it appears should see the full roster.
            self._await_workers_registered()
            if port_file:
                write_port_file(port_file, self.port)
                self._port_file = port_file
            if on_ready is not None:
                on_ready(self)
            self._supervise()
        finally:
            self._shutdown()
        return 1 if self._failed else 0

    def _await_writer_published(self) -> bool:
        """Wait (bounded) for the first snapshot and writer registration.

        Workers attach eagerly at boot; spawning them before generation
        1 exists would just burn their bounded attach retries.  Recovery
        from a big WAL takes real time, hence the generous default.
        """
        deadline = time.monotonic() + self._writer_boot_timeout
        while time.monotonic() < deadline and not self._stopping.is_set():
            if self.control.generation > 0 and self.control.writer_pid > 0:
                return True
            if self._writer.poll() is not None:
                return False
            time.sleep(0.05)
        return False

    def _await_workers_registered(self, timeout: float = 15.0) -> None:
        """Wait (bounded) until every worker slot carries a live pid."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline and not self._stopping.is_set():
            stats = self.control.workers()
            if len(stats) == self.workers and all(
                s["pid"] > 0 for s in stats
            ):
                return
            if any(r.poll() is not None for r in self._readers):
                return  # dead already; the supervisor owns respawning
            time.sleep(0.05)

    def _supervise(self) -> None:
        """Respawn dead children until asked to stop.

        Writer death: clear its control-block pid *first* (workers use
        the liveness probe to fail forwarded ops fast instead of
        timing out), then respawn; the new writer recovers from the
        WAL, repairs the seqlock if needed, and re-registers itself.
        """
        total_worker_restarts = 0
        while not self._stopping.wait(0.25):
            code = self._writer.poll()
            if self._writer.proc is not None and code is not None:
                self.control.set_writer_pid(0)
                self._writer.restarts += 1
                self.control.incr_writer_restarts()
                print(
                    f"writer exited with code {code}; respawning "
                    f"(restart #{self._writer.restarts})",
                    flush=True,
                )
                if self._writer.restarts > MAX_WRITER_RESTARTS:
                    print("writer is crash-looping; shutting down",
                          flush=True)
                    self._failed = True
                    return
                self._writer.spawn()
            for reader in self._readers:
                code = reader.poll()
                if reader.proc is not None and code is not None:
                    reader.restarts += 1
                    total_worker_restarts += 1
                    self.control.incr_worker_restarts()
                    print(
                        f"{reader.name} exited with code {code}; "
                        f"respawning (restart #{reader.restarts})",
                        flush=True,
                    )
                    if (
                        total_worker_restarts
                        > self.workers * MAX_RESTARTS_PER_WORKER
                    ):
                        print("workers are crash-looping; shutting down",
                              flush=True)
                        self._failed = True
                        return
                    reader.spawn()

    def _shutdown(self) -> None:
        # Tell late readers the assembly is going away, then drain
        # children in dependency order: readers first (each drains its
        # own connections), writer last (final WAL sync + checkpoint).
        self.control.set_shutdown()
        for reader in self._readers:
            reader.terminate()
        deadline = time.monotonic() + 10.0
        for reader in self._readers:
            reader.wait(max(0.1, deadline - time.monotonic()))
        self._writer.terminate()
        self._writer.wait(10.0)
        for sock in (self._public, self._writer_sock):
            try:
                sock.close()
            except OSError:  # pragma: no cover
                pass
        self.control.close()
        self.control.unlink()
        # The writer's publisher leaves the current data segment linked
        # (readers may still be attached at the instant it exits); with
        # every child gone, sweep whatever remains so a kill-loop leaks
        # nothing.
        sweep_family(self.base)
        if self._port_file:
            remove_port_file(self._port_file)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def control_block_workers(self) -> list:
        return self.control.workers()

    def worker_pids(self) -> list:
        return [r.pid for r in self._readers]

    def writer_pid(self) -> Optional[int]:
        return self._writer.pid

    def restarts(self) -> int:
        return sum(r.restarts for r in self._readers)

    def writer_restarts(self) -> int:
        return self._writer.restarts
