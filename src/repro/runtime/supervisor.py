"""One worker supervisor for elastic training and the serving pool.

:class:`Supervisor` is the coordinator side of N forked workers, each on a
duplex pipe, and the one owner of their lifecycle; :class:`WorkerLink` is
the worker side. Callers bring only what differs: the worker body (their
message protocol) and what happens to a failed worker's work (their
recovery policy). Per-rank state machine::

    SPAWNED ── heartbeat ──▶ LIVE ──┬─ died / timed out / caller's cause ─▶ BACKOFF
                                    │       (restart budget left)             │
                                    │                            spawn after
                                    │                 restart_backoff * 2^(k-1)
                                    └─ budget exhausted ──▶ RETIRED
    all RETIRED ──▶ the coordinator works inline (degrade, don't die)

- Workers are forked: both callers rely on inheriting weights and the
  shard-store mmap without pickling. A fault plan arms a rank's *first*
  incarnation only; a restarted worker counts its commands from 1 again,
  and a re-armed plan would burn the whole budget on one injected fault.
- A heartbeat thread in each worker sends ``("hb", rank, rss_bytes)``.
  :meth:`Supervisor.sweep` reports ``process_died`` and
  ``heartbeat_timeout`` (no message for ``worker_timeout``), so a stall is
  handled like a death; callers add causes such as ``exception`` (a
  worker's ``("error", rank, traceback)``) by calling :meth:`Supervisor.fail`.
- :meth:`Supervisor.fail` SIGKILLs the worker and schedules the rank's
  k-th restart or retires it. Sweeps report ``restart_due`` and the caller
  respawns, so it can hold respawns back (the pool does during a reload).
- :meth:`Supervisor.shutdown` asks, joins, then SIGKILLs: no orphans.
- Workers ignore SIGINT and SIGTERM (:func:`mask_worker_signals`): a
  terminal signal reaches the whole process group and only the
  coordinator, through :class:`DrainGuard`, may act on it.
"""

from __future__ import annotations

import multiprocessing
import os
import signal as signal_module
import threading
import time
import traceback
from dataclasses import dataclass
from multiprocessing import connection as mp_connection
from multiprocessing.connection import Connection
from multiprocessing.process import BaseProcess
from typing import Callable, Iterator

from repro.observability import Telemetry, process_rss_bytes

__all__ = [
    "SupervisorConfig",
    "WorkerHandle",
    "Supervisor",
    "WorkerLink",
    "DrainGuard",
    "mask_worker_signals",
]

START_METHOD = "fork"
KILL_EXIT_CODE = 37
"""Exit code of a fault-injected worker kill (distinguishable in tests)."""
STALL_SECONDS = 3600.0
"""A stalled worker hangs this long; the supervisor kills it far sooner."""


@dataclass(frozen=True)
class SupervisorConfig:
    """Supervision policy of a worker pool.

    Parameters
    ----------
    workers:
        Worker processes. ``0`` means none: the coordinator does the work
        inline.
    worker_timeout:
        Seconds without a message before a worker is declared dead.
    heartbeat_interval:
        How often workers send heartbeats (must be < ``worker_timeout``).
    poll_interval:
        Coordinator's supervision cadence while waiting on workers; never
        delays a dispatch.
    max_worker_restarts:
        Per-rank restart budget; exhausting it retires the rank.
    restart_backoff:
        Base delay before respawning a failed worker; doubles per restart
        of that rank (``backoff * 2^k``).
    """

    workers: int = 2
    worker_timeout: float = 10.0
    heartbeat_interval: float = 0.25
    poll_interval: float = 0.02
    max_worker_restarts: int = 2
    restart_backoff: float = 0.1

    def __post_init__(self) -> None:
        if self.workers < 0:
            raise ValueError(f"workers must be >= 0, got {self.workers}")
        if self.worker_timeout <= 0:
            raise ValueError(f"worker_timeout must be positive, got {self.worker_timeout}")
        if not 0 < self.heartbeat_interval < self.worker_timeout:
            raise ValueError(
                f"heartbeat_interval must be in (0, worker_timeout), "
                f"got {self.heartbeat_interval} vs {self.worker_timeout}"
            )
        if self.poll_interval <= 0:
            raise ValueError(f"poll_interval must be positive, got {self.poll_interval}")
        if self.max_worker_restarts < 0:
            raise ValueError(
                f"max_worker_restarts must be >= 0, got {self.max_worker_restarts}"
            )
        if self.restart_backoff < 0:
            raise ValueError(f"restart_backoff must be >= 0, got {self.restart_backoff}")
        if self.workers > 0 and START_METHOD not in multiprocessing.get_all_start_methods():
            raise ValueError(
                f"worker processes need the {START_METHOD!r} start method, which "
                f"this platform lacks (have {multiprocessing.get_all_start_methods()}); "
                "use workers=0"
            )


def mask_worker_signals() -> None:
    """Make a worker deaf to SIGINT and SIGTERM.

    A terminal signal goes to the whole foreground process group. Only the
    coordinator may react: it writes the one graceful snapshot, or stops
    admission and drains in-flight work that the workers are still doing.
    The coordinator ends workers through the pipe (``shutdown``) and
    SIGKILL, neither of which can be masked.
    """
    signal_module.signal(signal_module.SIGINT, signal_module.SIG_IGN)
    signal_module.signal(signal_module.SIGTERM, signal_module.SIG_IGN)


class DrainGuard:
    """Latch SIGTERM/SIGINT into a flag instead of dying.

    The coordinator polls :attr:`signum` (or :attr:`draining`) at safe
    points and winds down gracefully: the serve loop stops admission and
    drains, the trainers write one final snapshot. A second signal still
    only sets the flag, so shutdown stays graceful and idempotent.
    """

    def __init__(self, signals=(signal_module.SIGTERM, signal_module.SIGINT)) -> None:
        self.signals = tuple(signals)
        self.signum: int | None = None
        self._previous: dict[int, object] = {}

    @property
    def draining(self) -> bool:
        return self.signum is not None

    def install(self) -> "DrainGuard":
        """Route :attr:`signals` to the latch until :meth:`restore`; a no-op
        off the main thread, where Python cannot install handlers."""

        def _flag(signum, frame):  # noqa: ARG001 - signal handler signature
            self.signum = signum

        if threading.current_thread() is not threading.main_thread():
            return self
        for sig in self.signals:
            self._previous[sig] = signal_module.signal(sig, _flag)
        return self

    def restore(self) -> None:
        """Put back the handlers :meth:`install` replaced."""
        for sig, handler in self._previous.items():
            signal_module.signal(sig, handler)
        self._previous.clear()


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
class WorkerLink:
    """The worker end of a supervised pipe: rank-tagged sends, locked
    because the heartbeat thread shares the pipe, and fault injection."""

    def __init__(self, rank: int, conn: Connection, fault_plan=None) -> None:
        self.rank = rank
        self.conn = conn
        self.stopped = threading.Event()
        self._fault_plan = fault_plan
        self._commands = 0
        self._lock = threading.Lock()

    def send(self, kind: str, *payload) -> bool:
        """Send ``(kind, rank, *payload)``; False once the pipe is gone."""
        try:
            with self._lock:
                self.conn.send((kind, self.rank, *payload))
            return True
        except (BrokenPipeError, OSError):
            return False

    def inject(self) -> str | None:
        """Count one fault-keyed command and apply the plan's action: exit
        on ``kill``; on ``stall`` stop heartbeating and hang until killed.
        Any other action is returned for the worker body to apply."""
        self._commands += 1
        action = self._fault_plan.action_for(self.rank, self._commands) if self._fault_plan else None
        if action == "stall":
            self.stopped.set()
            time.sleep(STALL_SECONDS)
        if action in ("kill", "stall"):
            os._exit(KILL_EXIT_CODE)
        return action


def _worker_main(rank, conn, heartbeat_interval, fault_plan, body, args) -> None:
    """Process entry point: mask signals, heartbeat, run ``body(link, *args)``
    until it returns on ``("shutdown",)``. An exception is reported as
    ``("error", rank, traceback)`` and the worker exits 1."""
    mask_worker_signals()
    link = WorkerLink(rank, conn, fault_plan)

    def _heartbeat() -> None:
        # RSS rides on every heartbeat: with weights and the corpus mmap
        # shared, it stays near the model-replica size.
        while not link.stopped.is_set() and link.send("hb", process_rss_bytes()):
            link.stopped.wait(heartbeat_interval)

    threading.Thread(target=_heartbeat, name=f"hb-{rank}", daemon=True).start()
    try:
        link.send("hello", os.getpid())
        body(link, *args)
    except (EOFError, KeyboardInterrupt):
        return
    except Exception:  # noqa: BLE001 - a worker must report, not vanish
        link.send("error", traceback.format_exc())
        os._exit(1)
    finally:
        link.stopped.set()


# ----------------------------------------------------------------------
# Coordinator side
# ----------------------------------------------------------------------
@dataclass
class WorkerHandle:
    """Coordinator-side state of one worker rank."""

    rank: int
    process: BaseProcess | None = None
    conn: Connection | None = None
    last_heartbeat: float = 0.0
    rss_bytes: int = 0
    restarts_used: int = 0
    status: str = "live"  # live | backoff | retired
    backoff_until: float = 0.0

    @property
    def pid(self) -> int | None:
        return self.process.pid if self.process is not None else None


class Supervisor:
    """Owns a coordinator's worker processes (see the module docstring).

    Each worker runs ``body(link, *args)`` with a :class:`WorkerLink`;
    ``args`` are inherited through fork, not pickled. ``fault_plan`` is the
    chaos seam (``action_for(rank, nth_command)``), None in production.
    Processes are named ``<name>-<rank>``.
    """

    def __init__(
        self,
        config: SupervisorConfig,
        body: Callable[..., None],
        args: tuple = (),
        fault_plan=None,
        name: str = "worker",
    ) -> None:
        self.config = config
        self.body = body
        self.args = args
        self.fault_plan = fault_plan
        self.name = name
        self.handles: dict[int, WorkerHandle] = {}

    def add(self, rank: int) -> WorkerHandle:
        """Register a (not yet spawned) handle for ``rank``."""
        handle = self.handles[rank] = WorkerHandle(rank=rank)
        return handle

    def spawn(self, handle: WorkerHandle) -> None:
        """Fork a fresh incarnation of ``handle``'s rank and mark it live."""
        ctx = multiprocessing.get_context(START_METHOD)
        parent_conn, child_conn = ctx.Pipe(duplex=True)
        fault_plan = self.fault_plan if handle.restarts_used == 0 else None
        process = ctx.Process(
            target=_worker_main,
            args=(handle.rank, child_conn, self.config.heartbeat_interval,
                  fault_plan, self.body, self.args),
            name=f"{self.name}-{handle.rank}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        handle.process = process
        handle.conn = parent_conn
        handle.last_heartbeat = time.monotonic()
        handle.status = "live"

    def kill(self, handle: WorkerHandle) -> None:
        """SIGKILL and reap ``handle``'s process and close its pipe."""
        if handle.process is not None:
            if handle.process.is_alive():
                handle.process.kill()
            handle.process.join(timeout=5.0)
            handle.process = None
        if handle.conn is not None:
            try:
                handle.conn.close()
            except OSError:
                pass
            handle.conn = None

    def shutdown(self) -> None:
        """Stop and reap every worker; idempotent, never leaves orphans."""
        for handle in self.handles.values():
            self.send(handle, ("shutdown",))
        deadline = time.monotonic() + 5.0
        for handle in self.handles.values():
            if handle.process is not None:
                handle.process.join(timeout=max(0.1, deadline - time.monotonic()))
            self.kill(handle)
        self.handles.clear()

    def sweep(self) -> Iterator[tuple[WorkerHandle, str]]:
        """One liveness pass: yield ``(handle, cause)`` per live worker that
        failed (``process_died``, ``heartbeat_timeout``) and ``(handle,
        "restart_due")`` per rank whose backoff elapsed. The caller acts on
        each (:meth:`fail`, :meth:`spawn`) before the next is examined."""
        now = time.monotonic()
        for handle in list(self.handles.values()):
            if handle.status == "live":
                if handle.process is None or not handle.process.is_alive():
                    yield handle, "process_died"
                elif now - handle.last_heartbeat > self.config.worker_timeout:
                    yield handle, "heartbeat_timeout"
            elif handle.status == "backoff" and now >= handle.backoff_until:
                yield handle, "restart_due"

    def fail(self, handle: WorkerHandle) -> float | None:
        """Kill a failed worker, then schedule its k-th restart after
        ``restart_backoff * 2^(k-1)`` seconds (returned) or, with the budget
        spent, retire the rank (returns None)."""
        self.kill(handle)
        if handle.restarts_used >= self.config.max_worker_restarts:
            handle.status = "retired"
            return None
        handle.restarts_used += 1
        backoff = self.config.restart_backoff * (2 ** (handle.restarts_used - 1))
        handle.status = "backoff"
        handle.backoff_until = time.monotonic() + backoff
        return backoff

    def send(self, handle: WorkerHandle, message: tuple) -> bool:
        """Send to a worker; False if its pipe is gone (the next sweep
        reaps it)."""
        if handle.conn is None:
            return False
        try:
            handle.conn.send(message)
            return True
        except (BrokenPipeError, OSError):
            return False

    def messages(self) -> Iterator[tuple[WorkerHandle, tuple]]:
        """Wait up to ``poll_interval`` on the live workers' pipes; yield
        ``(handle, message)`` for each readable non-heartbeat message."""
        conns = {h.conn: h for h in self.live()}
        if not conns:
            return
        for conn in mp_connection.wait(list(conns), timeout=self.config.poll_interval):
            handle = conns[conn]
            for message in self.pending(handle):
                yield handle, message

    def pending(self, handle: WorkerHandle) -> Iterator[tuple]:
        """Yield the messages already readable on ``handle``'s pipe, until it
        is empty or the caller fails the worker; any message refreshes the
        heartbeat and heartbeats are consumed here."""
        conn = handle.conn
        while conn is not None and handle.conn is conn:
            try:
                if not conn.poll():
                    return
                message = conn.recv()
            except (EOFError, OSError):
                return  # pipe gone: the next sweep reaps the rank
            handle.last_heartbeat = time.monotonic()
            if message[0] == "hb":
                handle.rss_bytes = int(message[2])
                continue
            yield message

    def live(self) -> list[WorkerHandle]:
        """Live handles, in the order their ranks were added."""
        return [h for h in self.handles.values() if h.status == "live"]

    @property
    def healing(self) -> bool:
        """Some rank is waiting out its backoff and will respawn."""
        return any(h.status == "backoff" for h in self.handles.values())

    def survivors(self) -> list[int]:
        """Ranks not retired, sorted."""
        return sorted(h.rank for h in self.handles.values() if h.status != "retired")

    def live_pids(self) -> list[int]:
        """PIDs of workers still running (empty after :meth:`shutdown`)."""
        return [h.pid for h in self.handles.values() if h.process and h.process.is_alive()]

    def rss(self) -> dict[int, int]:
        """Rank → latest heartbeat-reported RSS in bytes (live ranks)."""
        return {h.rank: h.rss_bytes for h in self.live() if h.rss_bytes > 0}

    def emit_gauges(self, telemetry: Telemetry, prefix: str, efficiency=None) -> None:
        """Gauge ``<prefix>.world_size``, each live rank's ``heartbeat_age``
        (a stall shows before its timeout fires) and ``rss_mb``, and
        ``scaling_efficiency`` when given."""
        now = time.monotonic()
        live = self.live()
        telemetry.gauge(f"{prefix}.world_size", float(len(live)))
        for h in sorted(live, key=lambda h: h.rank):
            telemetry.gauge(f"{prefix}.worker{h.rank}.heartbeat_age", now - h.last_heartbeat)
        for rank, rss in sorted(self.rss().items()):
            telemetry.gauge(f"{prefix}.worker{rank}.rss_mb", float(rss) / 1048576.0)
        if efficiency is not None:
            telemetry.gauge(f"{prefix}.scaling_efficiency", float(efficiency))
