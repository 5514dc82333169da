"""Brute-force reference verdicts for the random-mix programs.

Walks every schedule of a straight-line program by plain recursion over
enabled threads, with no reduction of any kind, and collects the terminal
cell-value vectors of completed schedules plus the violation kinds of the
others. The semantics mirror the checker's observable ones:

- an implicit main thread spawns the workers in order, one step each, and
  a worker's first operation is pending from the moment it is spawned;
- a schedule aborts with a data race at the first state where a pending
  read and a pending write name the same cell;
- ``lock`` and ``wait`` are enabled only while the mutex is free or the
  semaphore count is positive; ``trylock`` is always enabled and takes the
  mutex only when it is free;
- ``tryunlock`` releases the mutex only when the thread's own ``trylock``
  took it, and is skipped without a step otherwise;
- a state where no worker can move while some are unfinished is a deadlock
  (main's joins can never complete).

The set of behaviours reachable from a state depends only on the state, so
the walk memoises per state; the verdict is unchanged by that. This module
shares no code with the checker and imports nothing from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import factorial


@dataclass(frozen=True)
class Op:
    kind: str  # read | write | lock | unlock | trylock | tryunlock | post | wait
    target: int  # cell, mutex or semaphore index, by kind
    value: int = 0  # written value


@dataclass(frozen=True)
class MixProgram:
    """Worker op lists over cells, mutexes and one counting semaphore."""

    workers: tuple[tuple[Op, ...], ...]
    n_cells: int
    n_mutexes: int
    sem_initial: int

    def interleaving_estimate(self) -> int:
        """Multinomial count of worker-op interleavings (ignores blocking)."""
        total = sum(len(w) for w in self.workers)
        est = factorial(total)
        for w in self.workers:
            est //= factorial(len(w))
        return est


@dataclass(frozen=True)
class Verdict:
    terminal_states: frozenset[tuple[int, ...]]
    violation_kinds: frozenset[str]

    @property
    def behaviours(self) -> int:
        return len(self.terminal_states) + len(self.violation_kinds)


def enumerate_verdict(program: MixProgram) -> Verdict:
    workers = program.workers
    n_workers = len(workers)

    def next_pc(pc: int, i: int, holders: tuple) -> int:
        """Skip a tryunlock whose trylock failed: it runs no visible op."""
        ops = workers[i]
        while pc < len(ops) and ops[pc].kind == "tryunlock" and holders[ops[pc].target] != i:
            pc += 1
        return pc

    def pending(state, i):
        cells, holders, sem, pcs, spawned = state
        if i >= spawned or pcs[i] >= len(workers[i]):
            return None
        return workers[i][pcs[i]]

    def race_overlap(state) -> bool:
        readers: set[int] = set()
        writers: set[int] = set()
        for i in range(n_workers):
            op = pending(state, i)
            if op is None:
                continue
            if op.kind == "read":
                readers.add(op.target)
            elif op.kind == "write":
                writers.add(op.target)
        return bool(readers & writers)

    def enabled_moves(state):
        cells, holders, sem, pcs, spawned = state
        moves = []
        if spawned < n_workers:
            moves.append("spawn")
        for i in range(n_workers):
            op = pending(state, i)
            if op is None:
                continue
            if op.kind == "lock" and holders[op.target] is not None:
                continue
            if op.kind == "wait" and sem == 0:
                continue
            moves.append(i)
        return moves

    def apply(state, move):
        cells, holders, sem, pcs, spawned = state
        if move == "spawn":
            return (cells, holders, sem, pcs, spawned + 1)
        op = workers[move][pcs[move]]
        cells = list(cells)
        holders = list(holders)
        if op.kind == "write":
            cells[op.target] = op.value
        elif op.kind == "lock":
            holders[op.target] = move
        elif op.kind == "trylock":
            if holders[op.target] is None:
                holders[op.target] = move
        elif op.kind in ("unlock", "tryunlock"):
            holders[op.target] = None
        elif op.kind == "post":
            sem += 1
        elif op.kind == "wait":
            sem -= 1
        holders = tuple(holders)
        pcs = list(pcs)
        pcs[move] = next_pc(pcs[move] + 1, move, holders)
        return (tuple(cells), holders, sem, tuple(pcs), spawned)

    @lru_cache(maxsize=None)
    def walk(state) -> tuple[frozenset, frozenset]:
        if race_overlap(state):
            return frozenset(), frozenset({"data-race"})
        moves = enabled_moves(state)
        if not moves:
            cells, holders, sem, pcs, spawned = state
            if all(pcs[i] >= len(workers[i]) for i in range(n_workers)):
                return frozenset({cells}), frozenset()
            return frozenset(), frozenset({"deadlock"})
        terminals: set = set()
        kinds: set = set()
        for move in moves:
            t, k = walk(apply(state, move))
            terminals |= t
            kinds |= k
        return frozenset(terminals), frozenset(kinds)

    no_holder = (None,) * program.n_mutexes
    initial_pcs = tuple(next_pc(0, i, no_holder) for i in range(n_workers))
    initial = ((0,) * program.n_cells, no_holder, program.sem_initial, initial_pcs, 0)
    terminals, kinds = walk(initial)
    return Verdict(terminal_states=terminals, violation_kinds=kinds)
