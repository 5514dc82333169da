"""DPOR against exhaustive exploration (``--no-dpor``).

Both must find the same terminal cell vectors and the same violation
kinds. Three fixed programs pin cases where the reduction once differed;
a generated family covers mutexes, trylock, a semaphore, a condition
variable and mid-body joins.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from shadowcheck import Api, ProgramHandle
from shadowcheck.explorer import ExplorationConfig, explore
from shadowcheck.scheduler import IterationOutcome


def verdict(program: ProgramHandle, out_dir: Path, **config):
    """(iterations, terminal cell vectors, violation kinds) of one exploration."""
    terminals = set()

    def collect(result):
        if result.outcome is IterationOutcome.NORMAL_END:
            terminals.add(result.terminal_cells)

    report = explore(
        program, ExplorationConfig(out_dir=out_dir, **config), iteration_callback=collect
    )
    kinds = {v.kind.value for v in report.violations}
    return report.iterations_run, terminals, kinds


def test_a_lock_still_blocked_at_the_deadlock_gets_the_look_back(tmp_path):
    # ``poster``'s lock is still blocked when the deadlock ends the first
    # run, so it never executes; only the look-back for operations still
    # pending at the end shows that running ``poster`` first avoids it.
    def entry(api: Api) -> None:
        c = api.register_shared(0)
        m = api.new_mutex()
        s = api.new_semaphore(0)

        def waiter(a: Api) -> None:
            a.mutex_lock(m)
            a.sem_wait(s)
            a.mutex_unlock(m)

        def poster(a: Api) -> None:
            a.write(c, 1)
            a.mutex_lock(m)
            a.sem_post(s)
            a.mutex_unlock(m)

        for tid in (api.spawn_thread(waiter), api.spawn_thread(poster)):
            api.join(tid)

    program = ProgramHandle(name="blocked-poster", entry=entry)
    reduced = verdict(program, tmp_path / "dpor", race_enabled=False)
    exhaustive = verdict(program, tmp_path / "all", race_enabled=False, dpor_enabled=False)
    assert exhaustive == (4, {(1,)}, {"deadlock"})
    assert reduced == (3, {(1,)}, {"deadlock"})


def test_a_branch_left_over_at_a_point_is_still_taken(tmp_path):
    # The final (1, 0) needs the second worker to run to its end before
    # the first writes, and before main spawns the reader. The look-back
    # banks that branch as the only one left at its state; the iterations
    # that would bank it again end in a race first. So the store must keep
    # a remainder that no longer conflicts with anything.
    workers = (
        (("write", 0),),
        (("write", 0), ("read", 1), ("read", 1), ("write", 0)),
        (("read", 0),),
    )
    program = to_program(workers, 0)
    reduced = verdict(program, tmp_path / "dpor")
    exhaustive = verdict(program, tmp_path / "all", dpor_enabled=False)
    assert exhaustive == (93, {(1, 0), (3, 0)}, {"data-race"})
    assert reduced == (32, {(1, 0), (3, 0)}, {"data-race"})


def test_dpor_finds_the_lost_signal_deadlock(tmp_path):
    # The signal is lost when it runs before the waiter registers. That
    # registration is the first of cond_wait's own visible steps, so the
    # signal and the waiter conflict on the condvar.
    def entry(api: Api) -> None:
        m = api.new_mutex()
        c = api.new_condvar()

        def waiter(a: Api) -> None:
            a.mutex_lock(m)
            a.cond_wait(c, m)
            a.mutex_unlock(m)

        def signaller(a: Api) -> None:
            a.cond_signal(c)

        for tid in (api.spawn_thread(waiter), api.spawn_thread(signaller)):
            api.join(tid)

    program = ProgramHandle(name="lost-signal", entry=entry)
    _, terminals, kinds = verdict(program, tmp_path / "dpor")
    _, all_terminals, all_kinds = verdict(program, tmp_path / "all", dpor_enabled=False)
    assert all_kinds == {"deadlock"}
    assert (terminals, kinds) == (all_terminals, all_kinds)


# -- generated programs ----------------------------------------------------------

CELLS = 2
OP_BUDGET = 7


def _ops(worker: int):
    """One worker operation; a later worker may also join an earlier one."""
    plain = st.one_of(
        st.tuples(st.just("read"), st.integers(0, CELLS - 1)),
        st.tuples(st.just("write"), st.integers(0, CELLS - 1)),
        st.sampled_from([("post",), ("wait",), ("signal",)]),
    )
    if worker == 0:
        return plain
    return st.one_of(plain, st.tuples(st.just("join"), st.integers(0, worker - 1)))


# A locked segment's opening operations and its closing one.
SEGMENTS = ((("lock",), "unlock"), (("trylock",), "tryunlock"), (("lock", "cond_wait"), "unlock"))


@st.composite
def programs(draw):
    """(workers, semaphore's initial count, race detection on); a worker is a
    tuple of operations.

    The workers share a budget of operations, those of a locked segment
    included, which keeps exhaustive exploration to a few hundred schedules
    a program.
    """
    count = draw(st.integers(2, 3))
    budget = OP_BUDGET
    workers = []
    for i in range(count):
        room = budget - (count - i - 1)  # at least one operation per later worker
        ops = draw(st.lists(_ops(i), min_size=1, max_size=min(4, room)))
        if room - len(ops) >= 2 and draw(st.booleans()):
            lo = draw(st.integers(0, len(ops) - 1))
            hi = draw(st.integers(lo, len(ops) - 1)) + 1
            fits = [seg for seg in SEGMENTS if len(seg[0]) < room - len(ops)]
            opening, closing = draw(st.sampled_from(fits))
            ops = ops[:lo] + [(op,) for op in opening] + ops[lo:hi] + [(closing,)] + ops[hi:]
        budget -= len(ops)
        workers.append(tuple(ops))
    return tuple(workers), draw(st.integers(0, 1)), draw(st.booleans())


def to_program(workers, sem_initial: int) -> ProgramHandle:
    """Main registers the cells, the mutex, the semaphore and the condvar,
    spawns the workers in order and joins them. Each write stores a value of
    its own."""

    def entry(api: Api) -> None:
        cells = [api.register_shared(0) for _ in range(CELLS)]
        m = api.new_mutex()
        s = api.new_semaphore(sem_initial)
        c = api.new_condvar()
        tids: list[int] = []
        value = iter(range(1, 100))

        def make_worker(ops):
            values = [next(value) if op[0] == "write" else 0 for op in ops]

            def body(a: Api) -> None:
                got = False
                for op, v in zip(ops, values):
                    kind = op[0]
                    if kind == "read":
                        a.read(cells[op[1]])
                    elif kind == "write":
                        a.write(cells[op[1]], v)
                    elif kind == "lock":
                        a.mutex_lock(m)
                    elif kind == "unlock":
                        a.mutex_unlock(m)
                    elif kind == "trylock":
                        got = a.mutex_trylock(m)
                    elif kind == "tryunlock":
                        if got:
                            a.mutex_unlock(m)
                    elif kind == "post":
                        a.sem_post(s)
                    elif kind == "wait":
                        a.sem_wait(s)
                    elif kind == "signal":
                        a.cond_signal(c)
                    elif kind == "cond_wait":
                        a.cond_wait(c, m)
                    else:
                        a.join(tids[op[1]])

            return body

        for ops in workers:
            tids.append(api.spawn_thread(make_worker(ops)))
        for tid in tids:
            api.join(tid)

    return ProgramHandle(name="generated", entry=entry)


@settings(
    derandomize=True,
    database=None,
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(programs())
def test_dpor_agrees_with_exhaustive_exploration(drawn):
    """Equal terminal cell vectors and violation kinds on generated programs.

    Every primitive appears: reads and writes, a mutex taken by lock or
    trylock, semaphore posts and waits, condvar signals, and a lock segment
    that opens with a ``cond_wait`` on it. Forty examples keep this fast;
    ``test_dpor_finds_the_lost_signal_deadlock`` is the fixed guard for the
    lost-signal deadlock, which this generator also finds when
    ``cond_wait`` registers its waiter without a visible step of its own.
    """
    workers, sem_initial, races = drawn
    program = to_program(workers, sem_initial)
    with tempfile.TemporaryDirectory() as out:
        _, terminals, kinds = verdict(program, Path(out) / "dpor", race_enabled=races)
        _, all_terminals, all_kinds = verdict(
            program, Path(out) / "all", race_enabled=races, dpor_enabled=False
        )
    assert (terminals, kinds) == (all_terminals, all_kinds)
