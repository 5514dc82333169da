"""The exploration controller and its backtrack-point store.

Iteration 0 runs free. Every later iteration takes the deepest stored
backtrack point and one still-unexplored thread from it before it starts,
replays the point's schedule prefix, forces that thread at the branch
state, and continues free to an outcome. Points are keyed by (schedule
prefix, depth): the checker is stateless and never captures program
state, so the prefix *is* the state's name. A key remembers the threads
already taken from it for the whole run, which is what guarantees no
branch is explored twice and the store provably empties for bounded
programs.

Backtrack points are mined from the finished iteration, in one pass
(``Explorer._bank``) that runs only when its outcome lets points be
banked. They come from three places: states whose enabled pending
operations still conflict after discarding the pairwise-independent ones;
the classic look-back rule relating each executed step, and each
operation still pending at the end, to the latest earlier dependent step
of another thread (as in Flanagan and Godefroid's DPOR, every thread's
next transition counts, enabled or not); and race reports, which abort
the iteration before the racing accesses execute and so bank the
overlap-avoiding schedules themselves, each racer once, at the latest state
that avoids the overlap. A point owes every branch banked at it until the
branch is taken. Each branch names a thread enabled at the point's state
(as in Flanagan and Godefroid's DPOR), and a state is a function of its
prefix, so every banked branch can be forced.
With reduction disabled, every state with two or more enabled threads
branches, which enumerates all schedules.

The runner's ``ExecutionLog`` is its only per-step record: each executed
step with the threads enabled before it. (The trace sink still keeps the
scheduled thread ids to check them against the result.) The enabled
threads' operations at each state are rebuilt from it (``enabled_ops``),
and each state's prefix is cut from the finished trace, which the runner
builds from the log. The store holds ``BacktrackPoint``s keyed by
(prefix, depth) and selects the deepest live one, ties going to the
latest discovery.

The report's ``violations`` is the exploration's only violation list: the
trace sink names each violating iteration's file and returns the
violation, and ``report.txt`` is written from the report's list.

A worker seeded by a master owns only the states under its roots; the
points it finds elsewhere are handed back instead of banked (see
``dispatch`` for the ownership rule).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable

from . import dispatch as _codec
# Nothing here calls ``is_backtrack_point``; the bench harness wraps it under
# this module's name as well, and a name it cannot find stops the run.
from .dpor import ExecutedStep, dependent_subset, enabled_ops, is_backtrack_point, on_execute
from .errors import ProtocolError
from .model import AccessKind, BacktrackPoint, ViolationReport
from .runtime import IterationResult, IterationRunner, SchedulePlan
from .scheduler import IterationOutcome, default_bound
from .shadow import ProgramHandle
from .tracer import TraceSink, parse_trace

Key = tuple[tuple[int, ...], int]


@dataclass
class ExplorationConfig:
    out_dir: str | Path
    bound: int | None = None
    dpor_enabled: bool = True
    race_enabled: bool = True
    strict_races: bool = False
    keep_all_traces: bool = False
    node_count: int = 1
    seed_trace: str | Path | None = None
    node_id: int = 0

    def resolved_bound(self, program: ProgramHandle) -> int:
        return self.bound if self.bound is not None else default_bound(program)


@dataclass
class ExplorationReport:
    iterations_run: int = 0
    violations: list[ViolationReport] = field(default_factory=list)
    bound_warnings: int = 0
    points_explored: int = 0
    node_id: int = 0
    unfair_prunes: int = 0  # branches abandoned as unreachable under fair scheduling
    # A seeded worker's points for the master: those at states it does not
    # own, then each root's final record (see ``Explorer.explore``).
    handed_back: list[BacktrackPoint] = field(default_factory=list)


class BacktrackStore:
    """All backtrack points of one node, active and exhausted alike.

    Exhausted keys are kept (with empty pending sets) so a branch can
    never be resurrected once taken. Points are selected deepest first,
    ties going to the latest discovery. Every point an iteration banks
    lies on that iteration's own trace, so ``(depth, discovery_iteration)``
    names at most one point and the order is total.
    """

    def __init__(self, path: Path | None = None) -> None:
        self._records: dict[Key, BacktrackPoint] = {}
        self._path = path

    # -- growing ------------------------------------------------------------

    def absorb_state(
        self,
        prefix: tuple[int, ...],
        depth: int,
        candidates: set[int],
        scheduled: int,
        iteration: int,
    ) -> None:
        """A state's enabled ops still conflict; bank the untaken ones."""
        point = self._point(prefix, depth, iteration)
        point.done.add(scheduled)
        point.pending.discard(scheduled)
        point.pending |= candidates - point.done

    def absorb_addition(
        self,
        prefix: tuple[int, ...],
        depth: int,
        tid: int,
        executed: int,
        iteration: int,
    ) -> None:
        """Classic look-back addition: re-run ``tid`` from this state."""
        point = self._point(prefix, depth, iteration)
        point.done.add(executed)
        if tid not in point.done:
            point.pending.add(tid)

    def _point(self, prefix: tuple[int, ...], depth: int, iteration: int) -> BacktrackPoint:
        key = (prefix, depth)
        point = self._records.get(key)
        if point is None:
            point = BacktrackPoint(depth, prefix, set(), set(), iteration)
            self._records[key] = point
        return point

    # -- shrinking -----------------------------------------------------------

    def select_point(self) -> BacktrackPoint | None:
        """Deepest live point; ties go to the latest-discovered one."""
        live = (p for p in self._records.values() if p.pending)
        return max(live, key=lambda p: (p.depth, p.discovery_iteration), default=None)

    def take_branch(self, point: BacktrackPoint) -> int:
        """Extract the lowest-id pending thread; the rest stay owed.

        A remainder is kept whether or not its operations still conflict:
        a look-back addition is banked when its step executes, and the
        iterations that would bank it again may end in a race before that
        step.
        """
        point = self._records[(point.prefix, point.depth)]
        if not point.pending:
            raise ProtocolError("branch taken on an exhausted point")
        chosen = min(point.pending)
        point.pending.discard(chosen)
        point.done.add(chosen)
        return chosen

    # -- persistence ----------------------------------------------------------

    def live_points(self) -> list[BacktrackPoint]:
        """The points still owed a branch: deepest first, then earliest found.

        These are the store's own records, not copies; callers only read them.
        """
        live = [p for p in self._records.values() if p.pending]
        live.sort(key=lambda p: (-p.depth, p.discovery_iteration))
        return live

    def seed(self, points: list[BacktrackPoint]) -> list[BacktrackPoint]:
        """Merge records in; returns the store's own record for each.

        A thread done in any record stays done whatever order the records
        arrive in, so records handed back by several nodes merge alike.
        """
        records = []
        for p in points:
            point = self._point(p.prefix, p.depth, p.discovery_iteration)
            point.done |= p.done
            point.pending |= p.pending
            point.pending -= point.done
            records.append(point)
        return records

    def hand_over(self) -> list[BacktrackPoint]:
        """Ship the live points: copies go out, and every branch they owe is
        marked done here, so this store never takes one of them itself."""
        shipped = []
        for point in self.live_points():
            shipped.append(replace(point, pending=set(point.pending), done=set(point.done)))
            point.done |= point.pending
            point.pending.clear()
        return shipped

    def flush(self) -> None:
        if self._path is None:
            return
        data = "".join(_codec.encode_point(p) + "\n" for p in self.live_points()).encode()
        # Rewritten in place and cut to length after, not truncated on
        # open: on ext4, truncating a non-empty file to zero makes the
        # next close() start writeback, and this runs every iteration.
        with open(os.open(self._path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as out:
            out.write(data)
            out.truncate()

    def load(self) -> None:
        if self._path is None or not self._path.exists():
            return
        points = [
            _codec.decode_point(line)
            for line in self._path.read_text().splitlines()
            if line.strip()
        ]
        self.seed(points)


class Explorer:
    """Drives iterations for one node until its store is empty."""

    def __init__(
        self,
        program: ProgramHandle,
        config: ExplorationConfig,
        *,
        iteration_callback: Callable[[IterationResult], None] | None = None,
    ) -> None:
        self.program = program
        self.config = config
        self.bound = config.resolved_bound(program)
        out_dir = Path(config.out_dir)
        prefix = f"node{config.node_id}_" if config.node_id else ""
        self.sink = TraceSink(
            out_dir,
            keep_all_traces=config.keep_all_traces,
            file_prefix=prefix,
            bound=self.bound,
            strict_races=config.strict_races,
        )
        self.store = BacktrackStore(out_dir / f"btstore.node{config.node_id}")
        self.iteration_callback = iteration_callback
        self._seen_traces: set[tuple[int, ...]] = set()
        self.report = ExplorationReport(node_id=config.node_id)
        # A seeded worker's roots, each with the threads done there at
        # hand-over, and the store of points it hands back; None for a
        # node that owns every state.
        self._roots: list[tuple[BacktrackPoint, frozenset[int]]] | None = None
        self._hand_back = BacktrackStore()

    # -- public entry points --------------------------------------------------

    def explore(self, seed_points: list[BacktrackPoint] | None = None) -> ExplorationReport:
        """Run to exhaustion: iteration 0 free, then branches.

        A worker seeded with a master's points instead takes them as its
        roots and explores only what it owns (see ``_store_at``). Its
        report hands back the points it found elsewhere, followed by each
        root's final record, whose done set names every thread taken there.
        """
        if seed_points is None:
            self._run_iteration(0, self._initial_plan())
        else:
            roots = self.store.seed(seed_points)
            self._roots = [(root, frozenset(root.done)) for root in roots]
        self._drain()
        self.sink.write_report(self.report.violations)
        self.store.flush()
        if self._roots is not None:
            roots = [root for root, _ in self._roots]
            self.report.handed_back = self._hand_back.live_points() + roots
        return self.report

    def explore_initial(self) -> list[BacktrackPoint]:
        """Run only iteration 0 and hand over the points it discovered.

        Used by the dispatcher: the master runs the first iteration, then
        ships the live points instead of draining them itself. They are
        marked done here, so only points handed back are explored here later.
        """
        self._run_iteration(0, self._initial_plan())
        self.store.flush()
        return self.store.hand_over()

    def drain(self, points: list[BacktrackPoint]) -> None:
        """Merge points handed back by workers and explore what is still owed.

        The master's iteration numbers continue from 1 (only iteration 0
        ran here before), so its trace file names stay unique.
        """
        self.store.seed(points)
        self._drain()

    def _drain(self) -> None:
        """Take live points, deepest first, until none is left."""
        iteration = 0
        while True:
            point = self.store.select_point()
            if point is None:
                break
            iteration += 1
            plan = SchedulePlan(replay=list(point.prefix), branch=self.store.take_branch(point))
            self.report.points_explored += 1
            self._run_iteration(iteration, plan)
            self.store.flush()

    def _initial_plan(self) -> SchedulePlan:
        """Iteration 0 replays the seed trace, if one is configured, then runs free."""
        if self.config.seed_trace is None:
            return SchedulePlan()
        return SchedulePlan(replay=parse_trace(self.config.seed_trace).steps)

    # -- one iteration -----------------------------------------------------------

    def _run_iteration(self, iteration: int, plan: SchedulePlan) -> IterationResult:
        runner = IterationRunner(
            self.program,
            iteration=iteration,
            bound=self.bound,
            plan=plan,
            race_enabled=self.config.race_enabled,
            strict_races=self.config.strict_races,
            step_hook=lambda log, step: self.sink.record_step(iteration, int(step.op.tid)),
            unfair_prune=True,
        )
        result = runner.run()
        self.report.iterations_run += 1

        if result.outcome is IterationOutcome.UNFAIR_STOP:
            # Not a program behavior: the branch forced a schedule the fair
            # scheduler can never produce. Nothing is banked or reported.
            self.report.unfair_prunes += 1
            self.sink.drop_iteration(iteration)
            return result

        signature = tuple(result.trace.steps)
        if signature in self._seen_traces:
            raise ProtocolError(
                f"iteration {iteration} repeated an already-explored schedule"
            )
        self._seen_traces.add(signature)

        # Points are banked only if the iteration completed within the
        # depth bound: an execution the bound cut off sits at the
        # exploration horizon, so its branch points describe schedules
        # the bound would cut off again.
        if result.outcome is IterationOutcome.BOUND_WARNING:
            self.report.bound_warnings += 1
        elif result.outcome is not IterationOutcome.LIVELOCK_CANDIDATE:
            self._bank(result, iteration, len(plan.replay))
        violation = self.sink.close_iteration(result)
        if violation is not None:
            self.report.violations.append(violation)
        if self.iteration_callback is not None:
            self.iteration_callback(result)
        return result

    def _bank(self, result: IterationResult, iteration: int, replayed: int) -> None:
        """Bank the finished iteration's points: the conflicting states and
        the look-back of each step from depth ``replayed`` on (the replayed
        prefix was mined when it first ran), the look-back of each operation
        still pending, as a step at the end of the log that enables nothing,
        and the race dodges."""
        dpor_on = self.config.dpor_enabled
        log = result.log
        steps = result.trace.steps
        store_at = self._store_at(steps)
        pending = [op for op, _ in result.pending]
        for step, ops in enabled_ops(log, pending, replayed):
            # Without reduction, every state with two enabled threads branches.
            candidates = dependent_subset(ops) if dpor_on else set(ops)
            d = step.depth
            if steps[d] in candidates and len(candidates) >= 2:
                store_at(d).absorb_state(tuple(steps[:d]), d, candidates, steps[d], iteration)
        if not dpor_on:
            return
        ends = [ExecutedStep(len(log), op, frozenset()) for op in pending]
        for step in log.steps[replayed:] + ends:
            for j, tid in on_execute(log, step):
                store_at(j).absorb_addition(tuple(steps[:j]), j, tid, steps[j], iteration)
        if result.outcome is IterationOutcome.DATA_RACE:
            self._absorb_race_dodges(result, iteration, store_at)

    def _store_at(self, steps: list[int]) -> Callable[[int], BacktrackStore]:
        """The store that banks a point at each depth of this trace.

        A node without roots owns every state. A seeded worker owns each
        root's state, and the states below a root along a thread that was
        not done there at hand-over: the master or another node explores
        everything else, so a point anywhere else is handed back.
        """
        store = self.store
        if self._roots is None:
            return lambda depth: store
        at: set[int] = set()
        below = len(steps)  # no point lies this deep
        for root, handed_over_done in self._roots:
            d = root.depth
            if d < len(steps) and tuple(steps[:d]) == root.prefix:
                at.add(d)
                if steps[d] not in handed_over_done:
                    below = min(below, d + 1)
        hand_back = self._hand_back
        return lambda depth: store if depth in at or depth >= below else hand_back

    def _absorb_race_dodges(
        self, result, iteration: int, store_at: Callable[[int], BacktrackStore]
    ) -> None:
        """Bank the schedules on which the reported race does not occur.

        A race is an overlap of two pending accesses, detected the moment
        the later one is announced; it never comes to executing either.
        The overlap is avoided by the schedules that retire the
        earlier-announced access before the later racer's announcement,
        or that run the later racer's thread past its access before the
        earlier announcement. Each racer is banked once, at the latest
        state of its window where its thread is enabled: as in Flanagan
        and Godefroid's DPOR, the dodged access's own look-back, once it
        executes in that branch, banks any earlier state where a conflict
        calls for one. Announcements are pinned to schedule depths, which
        makes those states addressable as (prefix, depth) keys like any
        other point.
        """
        steps = result.trace.steps
        log = result.log.steps
        racing = result.race_detail.object
        racers = [(op, at) for op, at in result.pending if op.target == racing]
        readers = [(int(op.tid), at) for op, at in racers if op.access is AccessKind.READ]
        writers = [(int(op.tid), at) for op, at in racers if op.access is AccessKind.WRITE]
        pairs = [(r, w) for r in readers for w in writers]
        if not pairs:  # strict-mode overlap of writers only
            pairs = [(a, b) for a in writers for b in writers if a != b]

        def bank(depth: int, tid: int) -> None:
            store_at(depth).absorb_addition(
                tuple(steps[:depth]), depth, tid, steps[depth], iteration
            )

        def bank_latest(depths: range, tid: int) -> None:
            """Bank ``tid`` at the first of ``depths`` where it is enabled."""
            for depth in depths:
                if tid in log[depth].enabled:
                    bank(depth, tid)
                    return

        for a, b in pairs:
            early, late = (a, b) if a[1] <= b[1] else (b, a)
            if early[1] == late[1]:
                continue  # announced together; no schedule separates them
            # Retire the early access before the late racer is announced...
            bank_latest(range(late[1], early[1], -1), early[0])
            # ...advance the late racer's thread past its access before the
            # early one is announced...
            bank_latest(range(early[1], 0, -1), late[0])
            # ...or hold the early announcement back: let anything else
            # enabled run ahead of the step that created it.
            for tid in log[early[1]].enabled:
                if tid != steps[early[1]]:
                    bank(early[1], tid)


def explore(
    program: ProgramHandle,
    config: ExplorationConfig,
    *,
    iteration_callback: Callable[[IterationResult], None] | None = None,
) -> ExplorationReport:
    return Explorer(program, config, iteration_callback=iteration_callback).explore()
