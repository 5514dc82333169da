"""One controlled execution of a program under test.

Program threads are real threads, but control is handed from one thread
to the next, so at most one of them runs at a time. The runner thread
asks the scheduler for every decision, together with the set of threads
whose pending operation can pass; a pick that cannot pass is settled
inside that call, without handing over control. The runner opens the
granted thread's permit gate and waits on its own gate. So a grant
always takes effect: the granted thread performs its
operation and runs on to its next boundary (its next announcement or its
end). There, still in control, it records the boundary in the scheduler
itself and opens the gate of whoever handed it control, then waits on
its permit again. Program threads touch checker-side structures
(scheduler, identities, race counters) only while they are in control, so
nothing here needs a lock beyond the gates. Every primitive takes one
path, ``ExecutionContext.visible``, which announces the operation (token
``y`` exactly when the primitive states a pass condition), parks, and
takes the effect once granted. For a cell access it counts the completion
itself but only queues the announcement; the runner feeds the queue to the
race detector when it has control back, in announcement order, so a race
always fires on the runner thread.

The main thread starts in control: it runs its prologue (registrations,
up to its first announcement) before the first decision. A spawned
thread starts inside its spawner's partition: the spawner waits on its
own permit, and the child's first boundary opens that permit instead of
the runner's gate. That pins identity assignment and announcement order
to the schedule: a thread's id is the number of threads started before
it, an object's id its index among the registered objects.

The runner owns the schedule. It prescribes the plan's replayed steps to
the scheduler, then the forced branch, and then lets the scheduler pick.
It keeps no per-thread state: after each step it asks the scheduler
whether the schedule turned unfair and, past the bound, how to classify
the overrun. Its result carries the operations still pending at the end.

Program threads run on a process-wide pool of parked OS threads, so an
iteration starts an OS thread only when no pooled one is idle. Teardown
wakes every thread that has handed control back and waits until its
worker is idle again. A thread stuck outside the shadow API is not waited
for: it unwinds at its next boundary and rejoins the pool then.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Callable

from .dpor import ExecutedStep, ExecutionLog
from .errors import CheckerStoppedError, ProtocolError, UsageError
from .model import DONT_CARE, AccessKind, ObjectId, RaceDetail, ThreadId, Token, Trace, VisibleOp
from .model import make_visible_op
from .race import RaceDetector
from .scheduler import Decision, IterationOutcome, Scheduler
from .shadow import Api, ProgramHandle, SharedCell, ShadowObject


class _IterationAbort(BaseException):
    """Unwinds a program thread when its iteration is torn down."""


def _closed_gate() -> threading.Lock:
    gate = threading.Lock()
    gate.acquire()
    return gate


@dataclass
class _Host:
    """Checker-side handle for one program thread."""

    tid: int
    # Opened at this thread's next boundary: its spawner's permit until the
    # thread first parks, the runner's gate from then on.
    hand_back: threading.Lock
    permit: threading.Lock = field(default_factory=_closed_gate)
    # Opened by the pool worker once this thread's body has returned.
    finished: threading.Lock = field(default_factory=_closed_gate)
    # Set before this thread hands control back, cleared when it is granted
    # again: teardown wakes the parked threads and waits until they finish.
    parked: bool = False


class ExecutionContext:
    """Shared state of one execution; the bridge between Api and runner."""

    def __init__(self, runner: "IterationRunner") -> None:
        self._runner = runner
        self.scheduler = runner.scheduler
        self.race = RaceDetector(strict=runner.strict_races) if runner.race_enabled else None
        self.objects: list[Any] = []  # registered handles; an object id is the index
        self.hosts: dict[int, _Host] = {}
        self.runner_gate = _closed_gate()
        # Accesses announced since the runner last had control, in order.
        self.announced: list[tuple[ObjectId, AccessKind]] = []
        self.aborted = False
        self.failure: BaseException | None = None
        self._tls = threading.local()

    # -- called from program threads -------------------------------------------

    def current_tid(self) -> ThreadId:
        return ThreadId(self._current_host().tid)

    def check_alive(self) -> None:
        if self.aborted:
            raise CheckerStoppedError("the checker has stopped this execution")

    def register(self, handle: ShadowObject) -> Any:
        """Give ``handle`` the next dense id and this owner; watch a cell for races."""
        self.check_alive()
        handle.oid = ObjectId(len(self.objects))
        handle._ctx = self
        self.objects.append(handle)
        if self.race is not None and isinstance(handle, SharedCell):
            self.race.on_register(handle.oid)
        return handle

    def caller(self, obj: ShadowObject | None = None) -> _Host:
        """The calling program thread, once ``obj`` is known to belong here."""
        if obj is not None and getattr(obj, "_ctx", None) is not self:
            raise UsageError(f"{type(obj).__name__} does not belong to the current execution")
        return self._current_host()

    def thread_ended(self, tid: int) -> bool:
        return self.scheduler.status_of(tid).ended

    def visible(
        self,
        host: _Host,
        obj: ShadowObject | None,
        access: AccessKind,
        effect: Callable[[], Any],
        ready: Callable[[], bool] | None = None,
    ) -> Any:
        """Announce ``host``'s ``access`` to ``obj`` (none for spawn and join),
        park until granted, then take ``effect`` and return its result.

        A waiting operation passes only once its condition ``ready()`` holds,
        and the scheduler grants it only then; a grant that finds it false
        is a checker bug, raised before the effect can touch shadow state.
        """
        token = Token.NON_BLOCKING if ready is None else Token.WAITING
        target = DONT_CARE if obj is None else obj.oid
        op = make_visible_op(token, host.tid, access, target)
        watched = self.race is not None and isinstance(obj, SharedCell)
        if watched:
            self.announced.append((target, access))
        self._park(host, op, ready)
        if ready is not None and not ready():
            raise ProtocolError(f"thread {host.tid} granted {op.to_wire()}, which cannot pass")
        result = effect()
        if watched:
            self.race.on_complete(target, access)
        self.scheduler.on_progress(host.tid)
        return result

    def spawn_child(self, spawner: _Host, body: Callable[[Api], None]) -> int:
        """Runs inside the spawner's partition; returns once the child parks."""
        self.check_alive()
        tid = len(self.hosts)
        spawner.parked = True
        self._start(_Host(tid=tid, hand_back=spawner.permit), body)
        self._wait_permit(spawner)
        return tid

    # -- called from the runner thread ---------------------------------------------

    def start_main(self, entry: Callable[[Api], None]) -> None:
        """Start the main thread (always tid 0) and wait for its first boundary."""
        self._start(_Host(tid=0, hand_back=self.runner_gate), entry)
        self._await_boundary()

    def grant(self, tid: int) -> None:
        """Hand control to ``tid`` and wait until it reaches a boundary."""
        self.hosts[tid].permit.release()
        self._await_boundary()

    def shutdown(self) -> None:
        # Parked threads wake on the permit, see the abort flag, and
        # unwind. A thread stuck in user code outside the API is not
        # waited for; it unwinds at its next boundary.
        self.aborted = True
        parked = [host for host in self.hosts.values() if host.parked]
        for host in parked:
            if host.permit.locked():
                host.permit.release()
        for host in parked:
            host.finished.acquire(timeout=self._runner.hang_timeout)

    # -- plumbing -----------------------------------------------------------------

    def _start(self, host: _Host, body: Callable[[Api], None]) -> None:
        self.hosts[host.tid] = host
        self.scheduler.add_thread(host.tid)
        _POOL.run(self, host, body)

    def _await_boundary(self) -> None:
        if not self.runner_gate.acquire(timeout=self._runner.hang_timeout):
            raise ProtocolError(
                "program made no progress (a thread is busy outside the shadow API?)"
            )
        if self.failure is not None:
            raise self.failure
        for oid, kind in self.announced:
            self.race.on_pending(oid, kind)
        self.announced.clear()

    def _park(self, host: _Host, op: VisibleOp, ready: Callable[[], bool] | None) -> None:
        self._boundary(host, self.scheduler.on_announce, op, ready)
        self._wait_permit(host)

    def _boundary(self, host: _Host, note: Callable[..., None], *args: Any) -> None:
        """Record a boundary in the scheduler and return control; not after teardown."""
        if self.aborted:
            raise _IterationAbort()
        note(host.tid, *args)
        host.parked = True  # before the hand-back, or teardown could miss it
        gate, host.hand_back = host.hand_back, self.runner_gate
        gate.release()

    def _wait_permit(self, host: _Host) -> None:
        host.permit.acquire()
        host.parked = False
        if self.aborted:
            raise _IterationAbort()

    def _current_host(self) -> _Host:
        host = getattr(self._tls, "host", None)
        if host is None:
            raise ProtocolError("shadow API used outside a program thread")
        return host

    def _thread_main(self, host: _Host, body: Callable[[Api], None]) -> None:
        self._tls.host = host
        try:
            body(self._runner.api)
            self._boundary(host, self.scheduler.on_end)
        except _IterationAbort:
            pass
        except BaseException as exc:  # report program bugs with context
            if not self.aborted:
                # This thread was the only one running, so the runner is
                # waiting on its gate; it raises the failure. A spawner
                # waiting for this child stays parked until teardown.
                self.failure = exc
                host.parked = True
                self.runner_gate.release()


class _Worker:
    """A pooled OS thread; it runs one program thread after another."""

    __slots__ = ("gate", "job")

    def __init__(self, job: tuple[ExecutionContext, _Host, Callable[[Api], None]]) -> None:
        self.gate = _closed_gate()  # opened when the next job has been handed over
        self.job: tuple[ExecutionContext, _Host, Callable[[Api], None]] | None = job


class _Pool:
    """Parked daemon OS threads shared by every execution in the process.

    A worker is started only when none is idle, so the pool grows to the
    largest number of program threads alive (or stuck) at one time.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.idle: list[_Worker] = []
        self.size = 0

    def run(self, ctx: ExecutionContext, host: _Host, body: Callable[[Api], None]) -> None:
        with self._lock:
            worker = self.idle.pop() if self.idle else None
            if worker is None:
                self.size += 1
        if worker is not None:
            worker.job = (ctx, host, body)
            worker.gate.release()
            return
        threading.Thread(
            target=self._serve,
            args=(_Worker((ctx, host, body)),),
            name="shadowcheck-worker",
            daemon=True,
        ).start()

    def _serve(self, worker: _Worker) -> None:
        while True:
            ctx, host, body = worker.job
            worker.job = None
            try:
                ctx._thread_main(host, body)
            except BaseException:
                host.finished.release()
                raise  # a checker bug: this worker leaves the pool
            finished = host.finished
            del ctx, host, body  # an idle worker keeps no execution alive
            # Idle before ``finished`` opens, so the next execution after a
            # teardown that waited on it can reuse this worker.
            with self._lock:
                self.idle.append(worker)
            finished.release()
            worker.gate.acquire()


_POOL = _Pool()


@dataclass
class SchedulePlan:
    """How one iteration is driven.

    The runner prescribes the ``replay`` steps verbatim first. ``pick_branch``,
    when given, runs at the end of the replay with the live pending
    operations and returns the thread id to force; afterwards the scheduler
    picks freely.
    """

    replay: list[int] = field(default_factory=list)
    pick_branch: Callable[[dict[int, VisibleOp]], int] | None = None


# Called after each executed step with the log and the step just appended.
StepHook = Callable[[ExecutionLog, ExecutedStep], None]


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
    # Each live thread's pending operation at the end, in thread order, with
    # the trace position of the grant during which it was announced.
    pending: list[tuple[VisibleOp, int]] = field(default_factory=list)

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
        unfair_prune: bool = False,
        hang_timeout: float = 30.0,
    ) -> None:
        if bound < 1:
            raise ValueError(f"depth bound must be >= 1, got {bound}")
        self.program = program
        self.iteration = iteration
        self.bound = bound
        self.plan = plan or SchedulePlan()
        self.race_enabled = race_enabled
        self.strict_races = strict_races
        self.step_hook = step_hook
        self.unfair_prune = unfair_prune
        self.hang_timeout = hang_timeout
        self.scheduler = Scheduler()
        self.log = ExecutionLog()
        self.ctx = ExecutionContext(self)
        self.api = Api(self.ctx)

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

        replay = self.plan.replay
        branch_pending = self.plan.pick_branch is not None

        ctx.start_main(self.program.entry)
        while True:
            if ctx.race is not None and ctx.race.fired is not None:
                return self._finish(IterationOutcome.DATA_RACE)
            pre_ops = sch.pending_ops()
            enabled = sch.enabled(pre_ops)
            # Every pick grants a step: the log's length is the replay position.
            prescribed, mode = None, "free"
            if len(log) < len(replay):
                prescribed, mode = replay[len(log)], "replay"
            elif branch_pending:
                prescribed, mode = self.plan.pick_branch(pre_ops), "force"
                branch_pending = False

            tid = sch.pick_next(prescribed, mode, len(log), enabled=enabled)
            if isinstance(tid, IterationOutcome):
                return self._finish(tid)
            ctx.grant(tid)
            step = log.append(pre_ops[tid], enabled)
            if self.step_hook is not None:
                self.step_hook(log, step)
            # Streaks accumulate through replayed prefixes, but only steps
            # this exploration chose itself (free or forced) may condemn the
            # schedule; verbatim replays are always driven to the end.
            if sch.after_step(tid, enabled) and self.unfair_prune and mode != "replay":
                return self._finish(IterationOutcome.UNFAIR_STOP)
            if len(log) > self.bound:  # the tripping step is still recorded
                overrun = sch.classify_overrun(len(log))
                if overrun is not None:  # else the tripping step completed the program
                    return self._finish(overrun)

    def _finish(self, outcome: IterationOutcome) -> IterationResult:
        race_detail = self.ctx.race.fired if self.ctx.race is not None else None
        terminal = None
        if outcome is IterationOutcome.NORMAL_END:
            terminal = tuple(h.value for h in self.ctx.objects if isinstance(h, SharedCell))
        sch = self.scheduler
        pending = [(op, sch.status_of(tid).announced_at) for tid, op in sch.pending_ops().items()]
        return IterationResult(
            iteration=self.iteration,
            outcome=outcome,
            trace=Trace(steps=[int(s.op.tid) for s in self.log.steps], iteration=self.iteration),
            decisions=list(sch.decisions),
            log=self.log,
            race_detail=race_detail,
            terminal_cells=terminal,
            pending=pending,
        )
