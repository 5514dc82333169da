"""One controlled execution of a program under test.

Program threads are real threads, but the permit protocol serializes
them: a thread runs only between receiving a grant and sending its next
boundary message (its next announcement, a yield, or its end), so at most
one program thread executes between two scheduler decisions. The runner
thread makes every scheduling decision and is parked whenever a program
thread runs; program threads touch checker-side structures (registry,
race counters) only while they hold the permit, so nothing here needs a
lock.

The main thread starts with an implicit permit: it runs its prologue
(registrations, up to its first announcement) before the first decision.
A spawned thread starts inside its spawner's partition and parks at its
own first announcement before the spawner continues, which pins identity
assignment and message order to the schedule.
"""

from __future__ import annotations

import hashlib
import queue
import threading
from dataclasses import dataclass, field
from typing import Any, Callable

from .dpor import ExecutedStep, ExecutionLog
from .errors import CheckerStoppedError, ProtocolError
from .model import AccessKind, ObjectId, RaceDetail, Token, Trace, VisibleOp
from .race import RaceDetector
from .registry import IdentityTable
from .scheduler import (
    DEADLOCK,
    NORMAL_END,
    BoundCheck,
    Decision,
    IterationOutcome,
    Scheduler,
    check_bound,
    classify_overrun,
)
from .shadow import Api, ProgramHandle, SharedCell, _WaitingOp


class _IterationAbort(BaseException):
    """Unwinds a program thread when its iteration is torn down."""


@dataclass
class _Host:
    """Checker-side handle for one program thread."""

    tid: int
    thread: threading.Thread | None = None
    permit: threading.Event = field(default_factory=threading.Event)
    started: threading.Event = field(default_factory=threading.Event)
    waiting: _WaitingOp | None = None
    ended: bool = False
    announced_at: int = 0  # trace depth current at the last announcement


class ExecutionContext:
    """Shared state of one execution; the bridge between Api and runner."""

    def __init__(self, runner: "IterationRunner") -> None:
        self._runner = runner
        self.queue: queue.SimpleQueue = queue.SimpleQueue()
        self.race = RaceDetector(strict=runner.strict_races) if runner.race_enabled else None
        self.registry = IdentityTable(
            on_cell_registered=self.race.on_register if self.race else None
        )
        self.hosts: dict[int, _Host] = {}
        self.aborted = False
        self.failure: BaseException | None = None
        self._tls = threading.local()

    # -- called from program threads -------------------------------------------

    def current_tid(self) -> int:
        return self._current_host().tid

    def check_alive(self) -> None:
        if self.aborted:
            raise CheckerStoppedError("the checker has stopped this execution")

    def register_object(self, handle: Any, *, is_cell: bool) -> ObjectId:
        self.check_alive()
        return self.registry.register_object(handle, is_cell=is_cell)

    def race_pending(self, oid: ObjectId, kind: AccessKind) -> None:
        if self.race is not None:
            self.race.on_pending(oid, kind)

    def race_complete(self, oid: ObjectId, kind: AccessKind) -> None:
        if self.race is not None:
            self.race.on_complete(oid, kind)

    def thread_exists(self, tid: int) -> bool:
        return tid in self.hosts

    def thread_ended(self, tid: int) -> bool:
        return self.hosts[tid].ended

    def visible_nonblocking(self, op: VisibleOp, effect: Callable[[], Any]) -> Any:
        host = self._current_host()
        host.waiting = None
        self._park(host, op)
        return effect()

    def visible_waiting(self, op: VisibleOp, wop: _WaitingOp) -> None:
        host = self._current_host()
        host.waiting = wop
        self._park(host, op)
        while True:
            if wop.attempt():
                host.waiting = None
                return
            self._send(host, ("yield", host.tid))
            self._wait_permit(host)

    def spawn_child(self, body: Callable[[Api], None]) -> int:
        """Runs inside the spawner's permit window."""
        self.check_alive()
        tid = int(self.registry.register_thread())
        host = _Host(tid=tid)
        self.hosts[tid] = host
        self.queue.put(("spawned", tid))
        host.thread = threading.Thread(
            target=self._thread_main, args=(host, body), name=f"prog-{tid}", daemon=True
        )
        host.thread.start()
        if not host.started.wait(timeout=self._runner.hang_timeout):
            raise ProtocolError(f"spawned thread {tid} never reached a boundary")
        return tid

    # -- plumbing -----------------------------------------------------------------

    def _park(self, host: _Host, op: VisibleOp) -> None:
        self._send(host, ("announce", host.tid, op))
        self._wait_permit(host)

    def _wait_permit(self, host: _Host) -> None:
        host.permit.wait()
        host.permit.clear()
        if self.aborted:
            raise _IterationAbort()

    def _send(self, host: _Host, msg: tuple) -> None:
        self.queue.put(msg)
        if not host.started.is_set():
            host.started.set()

    def _current_host(self) -> _Host:
        host = getattr(self._tls, "host", None)
        if host is None:
            raise ProtocolError("shadow API used outside a program thread")
        return host

    def _thread_main(self, host: _Host, body: Callable[[Api], None]) -> None:
        self._tls.host = host
        try:
            body(self._runner.api)
        except _IterationAbort:
            pass
        except BaseException as exc:  # report program bugs with context
            self._send(host, ("error", host.tid, exc))
        else:
            host.ended = True
            self._send(host, ("end", host.tid))

    def start_main(self, entry: Callable[[Api], None]) -> None:
        tid = int(self.registry.register_thread())  # main is always 0
        host = _Host(tid=tid)
        host.permit.set()  # implicit permit: the prologue runs ungated
        self.hosts[tid] = host
        host.thread = threading.Thread(
            target=self._main_thread, args=(host, entry), name="prog-main", daemon=True
        )
        host.thread.start()

    def _main_thread(self, host: _Host, entry: Callable[[Api], None]) -> None:
        self._tls.host = host
        host.permit.wait()
        host.permit.clear()
        self._thread_main(host, entry)

    def state_digest(self) -> str:
        """Hash of all shadow-object state, in object-id order."""
        parts: list[str] = []
        for handle in self.registry.handles():
            if isinstance(handle, SharedCell):
                parts.append(f"c{int(handle.oid)}={handle.value}")
            elif hasattr(handle, "holder"):
                parts.append(f"m{int(handle.oid)}={handle.holder}")
            elif hasattr(handle, "count"):
                parts.append(f"s{int(handle.oid)}={handle.count}")
            else:
                parts.append(
                    f"v{int(handle.oid)}={handle.signal_flag},{handle.waiters}"
                )
        return hashlib.sha1(";".join(parts).encode()).hexdigest()

    def shutdown(self) -> None:
        # Parked threads wake on the permit, see the abort flag, and
        # unwind; a thread stuck in user code outside the API cannot be
        # recovered and is left behind as a daemon.
        self.aborted = True
        for host in self.hosts.values():
            host.permit.set()
        for host in self.hosts.values():
            if host.thread is not None and host.thread is not threading.current_thread():
                host.thread.join(timeout=5.0)


@dataclass
class SchedulePlan:
    """How one iteration is driven.

    ``replay`` steps are granted verbatim first. ``pick_branch``, when
    given, runs at the end of the replay with the live pending operations
    and returns the thread id to force; afterwards the scheduler runs
    free.
    """

    replay: list[int] = field(default_factory=list)
    pick_branch: Callable[[dict[int, VisibleOp]], int] | None = None


# Hook signature: (log, step, pre_state_ops, enabled, mode) -> None
StepHook = Callable[[ExecutionLog, ExecutedStep, dict[int, VisibleOp], frozenset, str], None]


@dataclass
class IterationResult:
    iteration: int
    outcome: IterationOutcome
    trace: Trace
    decisions: list[Decision]
    # The executed steps with their enabled sets; ``trace`` is its thread ids.
    log: ExecutionLog = field(default_factory=ExecutionLog)
    race_detail: RaceDetail | None = None
    terminal_cells: tuple[int, ...] | None = None
    state_hashes: list[str] = field(default_factory=list)
    # Threads whose access on the racing object was pending at the abort:
    # (tid, trace depth when announced, access kind). Used to bank the
    # schedules that retire one racer before the other is announced.
    race_racers: list[tuple[int, int, AccessKind]] = field(default_factory=list)

    @property
    def op_log(self) -> list[VisibleOp]:
        """The executed operations in order, read off the log."""
        return [step.op for step in self.log.steps]


class IterationRunner:
    """Runs a single execution of the program under a schedule plan."""

    def __init__(
        self,
        program: ProgramHandle,
        *,
        iteration: int = 0,
        bound: int = 1000,
        plan: SchedulePlan | None = None,
        race_enabled: bool = True,
        strict_races: bool = False,
        step_hook: StepHook | None = None,
        record_state_hashes: bool = False,
        unfair_prune: bool = False,
        hang_timeout: float = 30.0,
    ) -> None:
        self.program = program
        self.iteration = iteration
        self.bound = bound
        self.plan = plan or SchedulePlan()
        self.race_enabled = race_enabled
        self.strict_races = strict_races
        self.step_hook = step_hook
        self.record_state_hashes = record_state_hashes
        self.unfair_prune = unfair_prune
        self.hang_timeout = hang_timeout
        self.ctx = ExecutionContext(self)
        self.api = Api(self.ctx)
        self.scheduler = Scheduler()
        self.log = ExecutionLog()
        self.state_hashes: list[str] = []
        # tid -> (consecutive recorded steps spent ready-but-unscheduled,
        #         fairness window ratcheted to 2 x the largest live count seen)
        self._streaks: dict[int, tuple[int, int]] = {}

    def run(self) -> IterationResult:
        try:
            return self._run()
        finally:
            self.ctx.shutdown()

    # -- main loop -------------------------------------------------------------------

    def _run(self) -> IterationResult:
        ctx = self.ctx
        sch = self.scheduler
        log = self.log

        sch.add_thread(0)
        ctx.start_main(self.program.entry)
        self._pump(granted=None)  # wait for main's first boundary
        if self.plan.replay:
            sch.begin_replay(self.plan.replay)
        branch_pending = self.plan.pick_branch is not None

        while True:
            if ctx.failure is not None:
                raise ctx.failure
            if self._race_fired():
                return self._finish(IterationOutcome.DATA_RACE)
            if branch_pending and not sch.replaying:
                forced = self.plan.pick_branch(sch.pending_ops())
                sch.force_next(forced)
                branch_pending = False

            decision = sch.pick_next()
            if decision is NORMAL_END:
                return self._finish(IterationOutcome.NORMAL_END)
            if decision is DEADLOCK:
                return self._finish(IterationOutcome.DEADLOCK)

            tid = decision
            mode = sch.decisions[-1].mode
            pre_ops = sch.pending_ops()
            enabled = frozenset(t for t in pre_ops if self._ready(t))
            granted_op = pre_ops[tid]

            host = ctx.hosts[tid]
            host.permit.set()
            progressed = self._pump(
                granted=tid, granted_waiting=granted_op.token is Token.WAITING
            )
            if not progressed:
                continue  # the try failed; nothing happened

            step = log.append(granted_op, enabled)
            if self.record_state_hashes:
                self.state_hashes.append(ctx.state_digest())
            if self.step_hook is not None:
                self.step_hook(log, step, pre_ops, enabled, mode)
            if self._update_streaks(tid, pre_ops, enabled, mode):
                return self._finish(IterationOutcome.UNFAIR_STOP)

            if check_bound(len(log), self.bound) is BoundCheck.EXCEEDED:
                live = sch.live_tids()
                if not live:
                    continue  # the tripping step completed the program
                live_ready = {t: self._ready(t) for t in live}
                if classify_overrun(self._trace(), live_ready):
                    return self._finish(IterationOutcome.LIVELOCK_CANDIDATE)
                return self._finish(IterationOutcome.BOUND_WARNING)

    # A branch is abandoned once it starves a ready operation this many
    # fairness windows in a row. Bounded delays (waiting out another
    # thread's whole body) stay explorable; endless spin-vs-write chains,
    # which no fair scheduler can produce, are cut off.
    UNFAIR_STREAK_FACTOR = 3

    def _update_streaks(
        self,
        scheduled: int,
        pre_ops: dict[int, VisibleOp],
        enabled: frozenset,
        mode: str,
    ) -> bool:
        """Track ready-but-unscheduled streaks; True when the schedule turned unfair.

        Streaks accumulate through replayed prefixes, but only steps this
        exploration chose itself (free or forced) may condemn the
        schedule; verbatim replays are always driven to the end.
        """
        window_now = (
            self.UNFAIR_STREAK_FACTOR * 2 * max(1, len(self.scheduler.live_tids()))
        )
        unfair = False
        for tid in pre_ops:
            if tid == scheduled or tid not in enabled:
                self._streaks.pop(tid, None)
                continue
            streak, window = self._streaks.get(tid, (0, 0))
            streak += 1
            window = max(window, window_now)
            self._streaks[tid] = (streak, window)
            if streak > window:
                unfair = True
        return unfair and self.unfair_prune and mode != "replay"

    def _ready(self, tid: int) -> bool:
        """Could this thread's pending operation progress right now?"""
        host = self.ctx.hosts[tid]
        if host.ended:
            return False
        if host.waiting is None:
            return True
        return bool(host.waiting.ready())

    def _race_fired(self) -> bool:
        return self.ctx.race is not None and self.ctx.race.fired is not None

    def _pump(self, granted: int | None, granted_waiting: bool = False) -> bool:
        """Consume messages until the granted thread parks again.

        Returns True when the grant progressed (the thread announced its
        next operation or ended), False when it yielded. With no grant
        outstanding, waits for the main thread's first boundary.
        """
        ctx = self.ctx
        sch = self.scheduler
        while True:
            try:
                msg = ctx.queue.get(timeout=self.hang_timeout)
            except queue.Empty:
                raise ProtocolError(
                    "program made no progress (a thread is busy outside the shadow API?)"
                ) from None
            kind = msg[0]
            if kind == "spawned":
                sch.add_thread(msg[1])
            elif kind == "announce":
                tid, op = msg[1], msg[2]
                ctx.hosts[tid].announced_at = len(self.log)
                if tid == granted:
                    self._note_progress(tid, granted_waiting)
                    sch.on_announce(tid, op)
                    return True
                sch.on_announce(tid, op)
                if granted is None:
                    return True
            elif kind == "end":
                tid = msg[1]
                if tid == granted:
                    self._note_progress(tid, granted_waiting)
                    sch.on_end(tid)
                    return True
                sch.on_end(tid)
                if granted is None:
                    return True
            elif kind == "yield":
                tid = msg[1]
                if tid != granted:
                    raise ProtocolError(f"yield from non-granted thread {tid}")
                sch.on_yield(tid)
                return False
            elif kind == "error":
                ctx.failure = msg[2]
                raise msg[2]
            else:
                raise ProtocolError(f"unknown runtime message {msg!r}")

    def _note_progress(self, tid: int, granted_waiting: bool) -> None:
        if granted_waiting:
            self.scheduler.on_pass(tid)
        else:
            self.scheduler.on_nonblocking_complete(tid)

    def _trace(self) -> Trace:
        return Trace(steps=[int(s.op.tid) for s in self.log.steps], iteration=self.iteration)

    def _finish(self, outcome: IterationOutcome) -> IterationResult:
        race_detail = self.ctx.race.fired if self.ctx.race is not None else None
        terminal = None
        if outcome is IterationOutcome.NORMAL_END:
            terminal = tuple(
                h.value for h in self.ctx.registry.handles() if isinstance(h, SharedCell)
            )
        racers: list[tuple[int, int, AccessKind]] = []
        if outcome is IterationOutcome.DATA_RACE and race_detail is not None:
            for tid, op in sorted(self.scheduler.pending_ops().items()):
                if op.target == race_detail.object and op.access is not AccessKind.DONT_CARE:
                    racers.append((tid, self.ctx.hosts[tid].announced_at, op.access))
        return IterationResult(
            iteration=self.iteration,
            outcome=outcome,
            trace=self._trace(),
            decisions=list(self.scheduler.decisions),
            log=self.log,
            race_detail=race_detail,
            terminal_cells=terminal,
            state_hashes=self.state_hashes,
            race_racers=racers,
        )
