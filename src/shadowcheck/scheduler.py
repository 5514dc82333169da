"""The fair, non-preemptive scheduler.

Threads announce one visible operation at a time and the scheduler grants
permits one at a time, so program execution is fully serialized. When the
pick is a waiting operation that cannot pass, the runner settles it
without handing the thread control: the thread yields and leaves the
pickable set until some other thread makes progress (the shared state
cannot have changed before then). A yield also drops the thread's
priority below everyone who has progressed since.

Fairness is enforced by starvation aging: a thread that stays pickable for
``live_count`` consecutive decisions without being granted is serviced
ahead of the usual priority order. That bounds any continuously enabled
thread's wait at 2 * live_count - 1 decisions, which is what makes spin
loops against a not-yet-written flag terminate and keeps blocked threads
periodically retried so a bound-tripping cycle can be told apart from
plain starvation.

The scheduler keeps no schedule of its own. The iteration runner
prescribes each replayed or forced step to ``pick_next``, which checks
that the thread can run and grants it; without a prescription it picks
freely by the rules above.

Decisions are recorded in a log (one entry per pick, including picks
that end in a yield); the trace records only picks that progressed.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .errors import ProtocolError, ReplayDivergenceError
from .model import Trace, VisibleOp

# Fairness window: a continuously pickable thread is granted within
# WINDOW_FACTOR * live_count consecutive decisions.
WINDOW_FACTOR = 2


class ThreadState(Enum):
    RUNNABLE = "runnable"
    YIELDED = "yielded"
    ENDED = "ended"


@dataclass
class ThreadStatus:
    """Scheduler-side record for one program thread."""

    tid: int
    state: ThreadState = ThreadState.RUNNABLE
    pending_op: VisibleOp | None = None
    priority: int = 0
    hunger: int = 0


@dataclass
class Decision:
    index: int
    pick: int
    mode: str  # free | replay | force
    candidates: tuple[int, ...] = ()
    live: int = 0

    def debug_line(self) -> str:
        return f"step={self.index} pick={self.pick} mode={self.mode}"


class Scheduler:
    """Serial decision agent: one outstanding permit at most."""

    def __init__(self) -> None:
        self._threads: dict[int, ThreadStatus] = {}
        self._granted: int | None = None
        self.decisions: list[Decision] = []

    # -- registration and announcements ------------------------------------

    def add_thread(self, tid: int) -> None:
        if tid in self._threads:
            raise ProtocolError(f"thread {tid} registered twice")
        self._threads[tid] = ThreadStatus(tid=tid)

    def on_announce(self, tid: int, op: VisibleOp) -> None:
        status = self._status(tid)
        if status.state is ThreadState.ENDED:
            raise ProtocolError(f"ended thread {tid} announced {op.to_wire()}")
        if self._granted == tid:
            # The announce is the partition boundary: the permit comes home.
            self._granted = None
        status.pending_op = op
        status.state = ThreadState.RUNNABLE

    def on_end(self, tid: int) -> None:
        status = self._status(tid)
        status.state = ThreadState.ENDED
        status.pending_op = None
        if self._granted == tid:
            self._granted = None

    # -- permit protocol ----------------------------------------------------

    def on_yield(self, tid: int) -> None:
        """The picked waiting operation cannot pass; nothing changed."""
        if self._granted != tid:
            raise ProtocolError(f"yield from thread {tid} without the permit")
        self._granted = None
        status = self._status(tid)
        status.state = ThreadState.YIELDED
        live_priorities = [
            t.priority for t in self._threads.values() if t.state is not ThreadState.ENDED
        ]
        status.priority = min(live_priorities) - 1

    def on_progress(self, tid: int) -> None:
        """The granted operation took effect."""
        if self._granted != tid:
            raise ProtocolError(f"progress from thread {tid} without the permit")
        status = self._status(tid)
        status.priority = 0
        # The shared state changed: every parked waiter is worth retrying.
        for other in self._threads.values():
            if other.tid != tid and other.state is ThreadState.YIELDED:
                other.state = ThreadState.RUNNABLE

    # -- the decision -------------------------------------------------------

    def pick_next(
        self, prescribed: int | None = None, mode: str = "free", step: int = 0
    ) -> int | IterationOutcome:
        """Grant ``prescribed`` (a replayed or forced step) or pick freely.

        ``step`` is the trace position the grant would execute; it only
        locates a prescribed thread that cannot run.
        """
        if self._granted is not None:
            raise ProtocolError("pick requested while a permit is outstanding")
        live = [t for t in self._threads.values() if t.state is not ThreadState.ENDED]
        if not live:
            return IterationOutcome.NORMAL_END
        runnable = [t for t in live if t.state is ThreadState.RUNNABLE]
        if not runnable:
            return IterationOutcome.DEADLOCK

        if prescribed is not None:
            chosen = self._threads.get(prescribed)
            if chosen is None or chosen.state is not ThreadState.RUNNABLE:
                raise ReplayDivergenceError(
                    f"{mode} schedules thread {prescribed}, which cannot run", step
                )
        else:
            hungry = [t for t in runnable if t.hunger >= self._aging_threshold(len(live))]
            if hungry:
                chosen = max(hungry, key=lambda t: (t.hunger, -t.tid))
            else:
                chosen = max(runnable, key=lambda t: (t.priority, -t.tid))
        return self._grant(chosen, mode, runnable, len(live))

    def _aging_threshold(self, live_count: int) -> int:
        return max(1, live_count)

    def _grant(
        self, status: ThreadStatus, mode: str, runnable: list[ThreadStatus], live: int
    ) -> int:
        for other in runnable:
            if other.tid != status.tid:
                other.hunger += 1
        status.hunger = 0
        self._granted = status.tid
        self.decisions.append(
            Decision(
                index=len(self.decisions),
                pick=status.tid,
                mode=mode,
                candidates=tuple(sorted(t.tid for t in runnable)),
                live=live,
            )
        )
        return status.tid

    # -- introspection --------------------------------------------------------

    def pending_ops(self) -> dict[int, VisibleOp]:
        """Announced ops of all live parked threads."""
        return {
            t.tid: t.pending_op
            for t in self._threads.values()
            if t.state is not ThreadState.ENDED and t.pending_op is not None
        }

    def live_tids(self) -> list[int]:
        return sorted(
            t.tid for t in self._threads.values() if t.state is not ThreadState.ENDED
        )

    def status_of(self, tid: int) -> ThreadStatus:
        return self._status(tid)

    def _status(self, tid: int) -> ThreadStatus:
        try:
            return self._threads[tid]
        except KeyError:
            raise ProtocolError(f"unknown thread {tid}") from None


# -- iteration outcomes and bound handling -------------------------------------


class IterationOutcome(Enum):
    """How one execution ended.

    DATA_RACE terminates the iteration from outside the scheduler: the
    race detector fires mid-partition and the controller cuts the
    iteration at the current step. UNFAIR_STOP is exploration-internal:
    the schedule being built starved a ready thread beyond the fairness
    window, so it cannot occur under the fair scheduler and is abandoned,
    never reported.
    """

    NORMAL_END = "normal-end"
    DEADLOCK = "deadlock"
    LIVELOCK_CANDIDATE = "livelock-candidate"
    BOUND_WARNING = "bound-warning"
    DATA_RACE = "data-race"
    UNFAIR_STOP = "unfair-stop"


def estimate_bound(partitions: list[int]) -> int:
    """Expected step count for a program: the sum of per-thread partition counts."""
    if not partitions:
        raise ValueError("no partition counts given")
    if any(p < 1 for p in partitions):
        raise ValueError("partition counts must be >= 1")
    return sum(partitions)


DEFAULT_BOUND_FALLBACK = 1000
BOUND_HEADROOM = 10  # default bound = estimated steps x headroom


def default_bound(program) -> int:
    """The depth bound of a run that names none: the program's declared
    partition counts times the headroom, else a flat fallback."""
    if program.declared_partitions:
        return estimate_bound(program.declared_partitions) * BOUND_HEADROOM
    return DEFAULT_BOUND_FALLBACK


def classify_overrun(
    trace: Trace,
    live_ready: dict[int, bool],
) -> bool:
    """Bound exceeded: fair cycle (livelock candidate) or mere starvation?

    ``live_ready`` maps each live thread to whether its pending operation
    would succeed right now. A thread that progressed inside the fairness
    window is cycling; a thread outside the window whose operation would
    succeed was starved of a grant, which makes the overrun a scheduling
    artifact rather than a livelock. Blocked threads (operation cannot
    succeed) do not count against the cycle.
    """
    window = WINDOW_FACTOR * max(1, len(live_ready))
    recent = set(trace.steps[-window:])
    for tid, ready in live_ready.items():
        if tid in recent:
            continue
        if ready:
            return False  # starved, not cycling
    return True
