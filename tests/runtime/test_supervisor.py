"""The worker supervisor on its own, driven through a tiny echo protocol.

Each case forks real workers whose body answers ``("echo", n)`` with
``("echo", rank, n)`` and injects one fault — kill, stall or exception —
on rank 0's second command. The cases pin the lifecycle contract both
elastic training and the serving pool rely on: the failure cause, a fault
plan that fires in the first incarnation only, backoff that doubles per
restart of a rank, retirement once the budget is spent, workers deaf to
SIGINT/SIGTERM, and a shutdown that leaves no live descendant.
"""

import os
import signal
import sys
import time
from dataclasses import dataclass

import pytest

REPO_ROOT = os.path.normpath(os.path.join(os.path.dirname(__file__), "..", ".."))
sys.path.insert(0, os.path.join(REPO_ROOT, "tests", "training"))

from faults import assert_no_orphans, descendant_pids  # noqa: E402

from repro.runtime.supervisor import Supervisor, SupervisorConfig  # noqa: E402

BACKOFF = 0.05
CAUSES = {"kill": "process_died", "stall": "heartbeat_timeout", "exception": "exception"}


@dataclass(frozen=True)
class EchoFaultPlan:
    """Fire ``action`` on rank 0's ``nth`` echo command."""

    action: str
    nth: int = 2

    def action_for(self, rank, nth_command):
        return self.action if (rank, nth_command) == (0, self.nth) else None


def echo_body(link):
    while True:
        message = link.conn.recv()
        if message[0] == "shutdown":
            return
        if link.inject() == "exception":
            raise RuntimeError("injected fault")
        link.send("echo", message[1])


def make_supervisor(workers=1, max_worker_restarts=1, fault=None):
    config = SupervisorConfig(
        workers=workers,
        worker_timeout=0.5,
        heartbeat_interval=0.05,
        poll_interval=0.01,
        max_worker_restarts=max_worker_restarts,
        restart_backoff=BACKOFF,
    )
    plan = EchoFaultPlan(fault) if fault else None
    supervisor = Supervisor(config, echo_body, fault_plan=plan, name="echo")
    for rank in range(workers):
        supervisor.spawn(supervisor.add(rank))
    return supervisor


def exchange(supervisor, handle, n, timeout=5.0):
    """Send echo ``n`` to ``handle``; return the echoed value or the cause
    of the worker's failure, as a coordinator would see it."""
    supervisor.send(handle, ("echo", n))
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        for source, message in supervisor.messages():
            if source is handle and message[0] == "echo":
                return message[2]
            if source is handle and message[0] == "error":
                return "exception"
        for failed, cause in supervisor.sweep():
            if failed is handle and cause != "restart_due":
                # A worker that raised reports before it exits; the sweep
                # may see the exit first, so its pipe is read before the
                # cause is taken.
                pending = [m[0] for m in supervisor.pending(handle)]
                return "exception" if "error" in pending else cause
    raise AssertionError(f"rank {handle.rank} neither answered nor failed")


def wait_restart_due(supervisor, handle, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if (handle, "restart_due") in list(supervisor.sweep()):
            return
        time.sleep(0.005)
    raise AssertionError(f"rank {handle.rank} never became due for restart")


@pytest.mark.parametrize("max_worker_restarts", [0, 1])
@pytest.mark.parametrize("fault", ["kill", "stall", "exception"])
def test_fault_is_detected_then_restarted_or_retired(fault, max_worker_restarts):
    supervisor = make_supervisor(max_worker_restarts=max_worker_restarts, fault=fault)
    handle = supervisor.handles[0]
    spawned = [handle.pid]
    try:
        assert exchange(supervisor, handle, 1) == 1
        assert exchange(supervisor, handle, 2) == CAUSES[fault]
        backoff = supervisor.fail(handle)
        assert handle.process is None and handle.conn is None
        if max_worker_restarts == 0:
            assert backoff is None
            assert handle.status == "retired"
            assert supervisor.live() == [] and supervisor.survivors() == []
            return
        assert backoff == pytest.approx(BACKOFF)
        assert handle.status == "backoff"
        wait_restart_due(supervisor, handle)
        supervisor.spawn(handle)
        spawned.append(handle.pid)
        # The plan armed the first incarnation only: the same command
        # number is answered normally by the second one.
        assert exchange(supervisor, handle, 1) == 1
        assert exchange(supervisor, handle, 2) == 2
        # The budget is spent: the next failure retires the rank.
        handle.process.kill()
        assert exchange(supervisor, handle, 3) == "process_died"
        assert supervisor.fail(handle) is None
        assert handle.status == "retired"
    finally:
        supervisor.shutdown()
        assert supervisor.live_pids() == []
        assert_no_orphans(spawned)
        assert not set(descendant_pids(os.getpid())) & set(spawned)


def test_backoff_doubles_per_restart_of_a_rank():
    supervisor = make_supervisor(workers=2, max_worker_restarts=3)
    rank0, rank1 = supervisor.handles[0], supervisor.handles[1]
    spawned = [rank0.pid, rank1.pid]
    backoffs = []
    try:
        for n in range(4):
            rank0.process.kill()
            assert exchange(supervisor, rank0, n) == "process_died"
            backoffs.append(supervisor.fail(rank0))
            if backoffs[-1] is not None:
                wait_restart_due(supervisor, rank0)
                supervisor.spawn(rank0)
                spawned.append(rank0.pid)
        assert backoffs[:3] == pytest.approx([BACKOFF, 2 * BACKOFF, 4 * BACKOFF])
        assert backoffs[3] is None
        assert rank0.status == "retired"
        # The budget is per rank: rank 1 never failed and still answers.
        assert rank1.restarts_used == 0
        assert exchange(supervisor, rank1, 7) == 7
        assert supervisor.survivors() == [1]
    finally:
        supervisor.shutdown()
        assert_no_orphans(spawned)


def test_workers_ignore_sigint_and_sigterm():
    supervisor = make_supervisor()
    handle = supervisor.handles[0]
    pid = handle.pid
    try:
        assert exchange(supervisor, handle, 1) == 1  # the masks are in place
        os.kill(pid, signal.SIGINT)
        os.kill(pid, signal.SIGTERM)
        assert exchange(supervisor, handle, 2) == 2
        assert list(supervisor.sweep()) == []
    finally:
        supervisor.shutdown()
        assert_no_orphans([pid])
