"""Dependence analysis and backtrack-set computation.

Two announced operations are dependent when they name the same real object
and at least one side writes; lock, semaphore and condition-variable
operations announce writes on their primitive's own object id, so two
acquisitions of one lock conflict while operations on distinct objects, or
two reads of the same object, commute.

Backtrack candidates are read off a finished execution, from two places:

* for every executed step, and for every operation still pending at the
  end, the classic last-dependent rule looks back for the most recent
  earlier step by another thread whose operation conflicts with it and
  where its thread was enabled, and proposes re-running that thread from
  the earlier state;
* at every state, any set of mutually dependent enabled-but-unscheduled
  operations marks the state itself as a branch point.

Enabled snapshots record the threads whose pending operation could
actually progress at the state, so every stored alternative is forcible;
that operation is the next one the thread executes (``enabled_ops``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .model import AccessKind, DONT_CARE, VisibleOp


def dependent(a: VisibleOp, b: VisibleOp) -> bool:
    """Order of execution can matter: same real target, at least one write."""
    if a.target is DONT_CARE or b.target is DONT_CARE:
        return False
    if a.target != b.target:
        return False
    return a.access is AccessKind.WRITE or b.access is AccessKind.WRITE


@dataclass(frozen=True)
class ExecutedStep:
    depth: int
    op: VisibleOp
    enabled: frozenset[int]  # tids whose pending op could progress at this state


@dataclass
class ExecutionLog:
    """Executed steps of the current iteration, in order."""

    steps: list[ExecutedStep] = field(default_factory=list)

    def append(self, op: VisibleOp, enabled: frozenset[int]) -> ExecutedStep:
        step = ExecutedStep(depth=len(self.steps), op=op, enabled=enabled)
        self.steps.append(step)
        return step

    def __len__(self) -> int:
        return len(self.steps)


def enabled_ops(
    log: ExecutionLog, pending: list[VisibleOp], start: int = 0
) -> list[tuple[ExecutedStep, dict[int, VisibleOp]]]:
    """Each step from depth ``start`` on, in order, with the operations of
    the threads enabled before it, walking back from those still ``pending``
    at the end: an operation stays pending until its thread executes it."""
    next_op = {int(op.tid): op for op in pending}
    states = []
    for step in reversed(log.steps[start:]):
        next_op[int(step.op.tid)] = step.op
        states.append((step, {tid: next_op[tid] for tid in step.enabled}))
    return states[::-1]


def on_execute(log: ExecutionLog, step: ExecutedStep) -> set[tuple[int, int]]:
    """Backtrack additions owed after ``step`` (the most recent transition).

    Walks back for the latest earlier step by a different thread whose
    operation is dependent with the new one and where the new thread
    could actually have run, and owes that state a branch. A dependent
    step where the thread was disabled (typically the unlock this
    acquisition had to wait for, or a write by a thread not yet spawned)
    cannot take the direct addition; instead every other thread enabled
    there is owed a branch, since reordering them is what can move the
    disabling step, and the walk continues to the next-latest conflict.
    """
    tid = int(step.op.tid)
    additions: set[tuple[int, int]] = set()
    for earlier in reversed(log.steps[: step.depth]):
        if int(earlier.op.tid) == tid:
            continue
        if not dependent(earlier.op, step.op):
            continue
        if tid in earlier.enabled:
            additions.add((earlier.depth, tid))
            break
        executed = int(earlier.op.tid)
        for other in earlier.enabled:
            if other != executed and other != tid:
                additions.add((earlier.depth, other))
    return additions


def dependent_subset(ops: dict[int, VisibleOp]) -> set[int]:
    """Tids whose pending op conflicts with some other pending op."""
    tids = list(ops)
    keep: set[int] = set()
    for i, a in enumerate(tids):
        for b in tids[i + 1 :]:
            if dependent(ops[a], ops[b]):
                keep.add(a)
                keep.add(b)
    return keep


def is_backtrack_point(ops: dict[int, VisibleOp]) -> bool:
    """Does the state still branch once pairwise-independent ops are discarded?"""
    return len(dependent_subset(ops)) >= 2
