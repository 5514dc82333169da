"""The fair, non-preemptive scheduler.

Threads announce one visible operation at a time, each with its pass
condition, and the scheduler grants permits one at a time, so program
execution is fully serialized. The runner asks the scheduler which
pending operations can pass (``enabled``) and hands that set to
``pick_next``, which grants only one of them. A free pick whose waiting
operation cannot pass is a yield, settled inside the same call: it is
recorded as a decision, the thread drops below every live thread's
priority and leaves the candidates, and the pick goes on. When no
candidate is left the state is a deadlock. Every grant is followed by
progress, so a yield never outlives the pick that made it.

Fairness is enforced by starvation aging: a thread that stays pickable for
``live_count`` consecutive decisions without being granted is serviced
ahead of the usual priority order. That bounds any continuously enabled
thread's wait at 2 * live_count - 1 decisions, which is what makes spin
loops against a not-yet-written flag terminate and keeps blocked threads
periodically retried so a bound-tripping cycle can be told apart from
plain starvation.

Every per-thread fairness fact lives here: each thread's latest grant,
which classifies a run that overran its bound (``classify_overrun``),
and its unfair streak, the steps in a row it could pass but was not
granted, which ``after_step`` checks after each (replayed, forced or
free) step.

The scheduler keeps no schedule of its own. The iteration runner
prescribes each replayed or forced step to ``pick_next``, which checks
that the thread can run and grants it; without a prescription it picks
freely by the rules above.

Decisions are recorded in a log (one entry per pick, yields included);
the trace records only granted picks.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable

from .errors import ProtocolError, ReplayDivergenceError
from .model import VisibleOp

# Fairness window: a continuously pickable thread is granted within
# WINDOW_FACTOR * live_count consecutive decisions.
WINDOW_FACTOR = 2
# A branch is abandoned once it starves a ready operation this many
# fairness windows in a row. Bounded delays (waiting out another
# thread's whole body) stay explorable; endless spin-vs-write chains,
# which no fair scheduler can produce, are cut off.
UNFAIR_FACTOR = 3


@dataclass
class ThreadStatus:
    """Scheduler-side record for one program thread."""

    tid: int
    ended: bool = False
    pending_op: VisibleOp | None = None
    # The pending operation's pass condition; None when it always passes.
    ready: Callable[[], bool] | None = None
    priority: int = 0
    hunger: int = 0
    # Steps in a row spent able to pass but not granted, and the unfair
    # window ratcheted to the largest live count seen while it lasts.
    streak: int = 0
    streak_window: int = 0
    last_step: int = -1  # trace position of the latest grant
    announced_at: int = 0  # trace position of the grant it announced during


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
        self._step = 0  # trace position of the latest grant
        self.decisions: list[Decision] = []

    # -- registration and announcements ------------------------------------

    def add_thread(self, tid: int) -> None:
        if tid in self._threads:
            raise ProtocolError(f"thread {tid} registered twice")
        self._threads[tid] = ThreadStatus(tid=tid)

    def on_announce(
        self, tid: int, op: VisibleOp, ready: Callable[[], bool] | None = None
    ) -> None:
        status = self._status(tid)
        if status.ended:
            raise ProtocolError(f"ended thread {tid} announced {op.to_wire()}")
        if self._granted == tid:
            # The announce is the partition boundary: the permit comes home.
            self._granted = None
        status.pending_op = op
        status.ready = ready
        status.announced_at = self._step

    def on_end(self, tid: int) -> None:
        status = self._status(tid)
        status.ended = True
        status.pending_op = None
        if self._granted == tid:
            self._granted = None

    # -- permit protocol ----------------------------------------------------

    def on_progress(self, tid: int) -> None:
        """The granted operation took effect."""
        if self._granted != tid:
            raise ProtocolError(f"progress from thread {tid} without the permit")
        self._status(tid).priority = 0

    # -- the decision -------------------------------------------------------

    def enabled(self, tids: Iterable[int]) -> frozenset[int]:
        """The threads among ``tids`` whose pending operation can pass now."""
        return frozenset(
            tid for tid in tids if (ready := self._threads[tid].ready) is None or ready()
        )

    def pick_next(
        self,
        prescribed: int | None = None,
        mode: str = "free",
        step: int = 0,
        *,
        enabled: frozenset[int],
    ) -> int | IterationOutcome:
        """Grant ``prescribed`` (a replayed or forced step) or pick freely.

        Only a thread in ``enabled`` is granted: a free pick outside it
        yields and the pick goes on, a prescribed one raises. ``step`` is
        the trace position the grant executes.
        """
        if self._granted is not None:
            raise ProtocolError("pick requested while a permit is outstanding")
        live = [t for t in self._threads.values() if not t.ended]
        if not live:
            return IterationOutcome.NORMAL_END
        runnable = list(live)
        if prescribed is not None:
            chosen = self._threads.get(prescribed)
            if chosen is None or chosen.ended or prescribed not in enabled:
                raise ReplayDivergenceError(
                    f"{mode} schedules thread {prescribed}, which cannot run", step
                )
        else:
            chosen = self._choose(runnable, len(live))
            while chosen.tid not in enabled:  # a yield: recorded, demoted, dropped
                self._record(chosen, mode, runnable, len(live))
                chosen.priority = min(t.priority for t in live) - 1
                runnable.remove(chosen)
                if not runnable:
                    return IterationOutcome.DEADLOCK
                chosen = self._choose(runnable, len(live))
        self._record(chosen, mode, runnable, len(live))
        self._granted = chosen.tid
        chosen.last_step = self._step = step
        return chosen.tid

    @staticmethod
    def _choose(runnable: list[ThreadStatus], live: int) -> ThreadStatus:
        """A thread starved for ``live`` decisions first, else the highest priority."""
        hungry = [t for t in runnable if t.hunger >= live]
        if hungry:
            return max(hungry, key=lambda t: (t.hunger, -t.tid))
        return max(runnable, key=lambda t: (t.priority, -t.tid))

    def _record(
        self, status: ThreadStatus, mode: str, runnable: list[ThreadStatus], live: int
    ) -> None:
        for other in runnable:
            if other.tid != status.tid:
                other.hunger += 1
        status.hunger = 0
        self.decisions.append(
            Decision(
                index=len(self.decisions),
                pick=status.tid,
                mode=mode,
                candidates=tuple(t.tid for t in runnable),
                live=live,
            )
        )

    # -- fairness after the step ---------------------------------------------

    def after_step(self, scheduled: int, enabled: frozenset[int]) -> bool:
        """Extend the streak of each thread in ``enabled`` but ``scheduled``
        and end every other; True when a streak outran its window, which
        ratchets up to the largest live count seen while the streak lasts."""
        threads = self._threads.values()
        window = UNFAIR_FACTOR * WINDOW_FACTOR * max(1, sum(not t.ended for t in threads))
        unfair = False
        for t in threads:
            if t.tid == scheduled or t.tid not in enabled:
                t.streak = t.streak_window = 0
                continue
            t.streak += 1
            t.streak_window = max(t.streak_window, window)
            if t.streak > t.streak_window:
                unfair = True
        return unfair

    def classify_overrun(self, steps: int) -> IterationOutcome | None:
        """A trace of ``steps`` steps overran the bound: fair cycle or starvation?

        A live thread granted within the fairness window is cycling; one
        outside it that can pass was starved, which makes the overrun a
        bound warning. Blocked threads do not count. None when nothing is live.
        """
        live = [t for t in self._threads.values() if not t.ended]
        if not live:
            return None
        recent = max(0, steps - WINDOW_FACTOR * len(live))
        for t in live:
            if t.last_step < recent and (t.ready is None or t.ready()):
                return IterationOutcome.BOUND_WARNING
        return IterationOutcome.LIVELOCK_CANDIDATE

    # -- introspection --------------------------------------------------------

    def pending_ops(self) -> dict[int, VisibleOp]:
        """Announced ops of all live parked threads."""
        return {t.tid: t.pending_op for t in self._threads.values() if t.pending_op is not None}

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
