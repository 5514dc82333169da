"""Edge paths of the control hand-off between the runner and program threads."""

import threading
import time

import pytest

from shadowcheck import Api, ProgramHandle, runtime
from shadowcheck.cli import run as run_cli
from shadowcheck.corpus import get_program
from shadowcheck.errors import ProtocolError, ReplayDivergenceError
from shadowcheck.explorer import ExplorationConfig, explore
from shadowcheck.model import AccessKind, ObjectId, RaceDetail
from shadowcheck.runtime import IterationRunner, SchedulePlan
from shadowcheck.scheduler import IterationOutcome, Scheduler


class ProgramBug(Exception):
    pass


def run_once(entry, **kwargs):
    return IterationRunner(ProgramHandle(name="t", entry=entry), **kwargs).run()


def spawn_and_join(child):
    def entry(api: Api) -> None:
        api.join(api.spawn_thread(child))

    return entry


def test_child_failing_before_its_first_operation_fails_the_run():
    # The child fails while its spawner is parked on its own permit.
    def child(a: Api) -> None:
        raise ProgramBug("before the first operation")

    with pytest.raises(ProgramBug, match="before the first operation"):
        run_once(spawn_and_join(child), hang_timeout=10.0)


def test_child_failing_after_a_few_steps_fails_the_run():
    def child(a: Api) -> None:
        cell = a.register_shared(0)
        for value in range(3):
            a.write(cell, value)
        raise ProgramBug("after three writes")

    with pytest.raises(ProgramBug, match="after three writes"):
        run_once(spawn_and_join(child), hang_timeout=10.0)


def test_child_blocked_outside_the_api_trips_the_hang_timeout():
    def child(a: Api) -> None:
        cell = a.register_shared(0)
        a.write(cell, 1)
        threading.Event().wait(3)  # never set: busy outside the shadow API
        a.write(cell, 2)

    with pytest.raises(ProtocolError, match="made no progress"):
        run_once(spawn_and_join(child), hang_timeout=0.5)


def test_teardown_does_not_wait_for_a_thread_stuck_outside_the_api():
    release = threading.Event()

    def child(a: Api) -> None:
        cell = a.register_shared(0)
        a.write(cell, 1)
        release.wait(3)  # busy outside the shadow API
        a.write(cell, 2)

    started = time.monotonic()
    try:
        with pytest.raises(ProtocolError, match="made no progress"):
            run_once(spawn_and_join(child), hang_timeout=0.5)
        assert time.monotonic() - started < 0.5 + 1.0
    finally:
        release.set()


def test_a_registration_after_teardown_unwinds_past_except_exception():
    # The main thread is stuck outside the API until the run has timed out
    # and torn down; its registration then unwinds the thread, and the
    # program's own ``except Exception`` does not swallow that.
    release, done = threading.Event(), threading.Event()
    swallowed = []

    def entry(api: Api) -> None:
        release.wait(10)
        try:
            api.register_shared(0)
        except Exception as exc:
            swallowed.append(exc)
        finally:
            done.set()

    try:
        with pytest.raises(ProtocolError, match="made no progress"):
            run_once(entry, hang_timeout=0.3)
    finally:
        release.set()
    assert done.wait(10)
    assert swallowed == []


def _raising(a: Api) -> None:
    raise ProgramBug("earlier run")


def _hanging(a: Api) -> None:
    threading.Event().wait(1)  # before the first operation: the spawner waits
    a.register_shared(0)


@pytest.mark.parametrize(
    "earlier, error", [(_raising, ProgramBug), (_hanging, ProtocolError)], ids=["failed", "hung"]
)
def test_a_later_run_is_unaffected(earlier, error):
    with pytest.raises(error):
        run_once(spawn_and_join(earlier), hang_timeout=0.3)

    def entry(api: Api) -> None:
        cell = api.register_shared(0)
        tids = [api.spawn_thread(lambda a: a.write(cell, a.read(cell) + 1)) for _ in range(2)]
        for tid in tids:
            api.join(tid)

    result = run_once(entry, race_enabled=False)
    assert result.outcome is IterationOutcome.NORMAL_END
    assert result.terminal_cells == (2,)
    assert sorted(set(result.trace.steps)) == [0, 1, 2]


def _increment_twice(api: Api) -> None:
    cell = api.register_shared(0)
    tids = [api.spawn_thread(lambda a: a.write(cell, a.read(cell) + 1)) for _ in range(2)]
    for tid in tids:
        api.join(tid)


@pytest.fixture
def thread_starts(monkeypatch):
    """Counts OS thread starts while the test runs."""
    starts = []
    original = threading.Thread.start

    def start(thread):
        starts.append(thread.name)
        return original(thread)

    monkeypatch.setattr(threading.Thread, "start", start)
    return starts


def test_iterations_reuse_pooled_os_threads(tmp_path, thread_starts):
    live = []
    report = explore(
        get_program("livelock-philosophers"),
        ExplorationConfig(out_dir=tmp_path, bound=18),
        iteration_callback=lambda r: live.append(max(d.live for d in r.decisions)),
    )
    assert report.iterations_run == 40
    assert len(thread_starts) <= max(live)


def test_failing_runs_do_not_grow_the_pool(thread_starts):
    def child(a: Api) -> None:
        a.register_shared(0)
        raise ProgramBug("every run")

    for _ in range(20):
        with pytest.raises(ProgramBug):
            run_once(spawn_and_join(child), hang_timeout=10.0)
    assert len(thread_starts) <= 3


def test_a_stuck_thread_rejoins_the_pool_once_it_unwinds():
    release = threading.Event()

    def stuck(a: Api) -> None:
        release.wait(10)  # before the first operation: the spawner waits
        a.register_shared(0)

    with pytest.raises(ProtocolError):
        run_once(spawn_and_join(stuck), hang_timeout=0.3)
    result = run_once(_increment_twice, race_enabled=False)
    assert result.outcome is IterationOutcome.NORMAL_END
    assert result.terminal_cells == (2,)

    pool = runtime._POOL
    assert len(pool.idle) == pool.size - 1
    release.set()
    deadline = time.monotonic() + 5.0
    while len(pool.idle) < pool.size and time.monotonic() < deadline:
        time.sleep(0.01)
    assert len(pool.idle) == pool.size


def test_race_counts_a_spawned_child_before_its_spawner():
    # One grant runs main's second spawn: the child announces its read of
    # x, then main announces its write of x, while the first child's write
    # is pending. Counted in that order the race fires at the read with
    # one writer pending; counted the other way round it would show two.
    def entry(api: Api) -> None:
        x = api.register_shared(0)
        api.spawn_thread(lambda a: a.write(x, 1))
        api.spawn_thread(lambda a: a.read(x))
        api.write(x, 2)

    result = run_once(entry)
    assert result.outcome is IterationOutcome.DATA_RACE
    assert result.race_detail == RaceDetail(
        object=ObjectId(0), readers_pending=1, writers_pending=1
    )
    assert result.trace.steps == [0, 0]
    racers = [
        (int(op.tid), announced_at, op.access)
        for op, announced_at in result.pending
        if op.target == ObjectId(0)
    ]
    assert racers == [
        (0, 1, AccessKind.WRITE),
        (1, 0, AccessKind.WRITE),
        (2, 1, AccessKind.READ),
    ]


def test_every_grant_takes_effect(tmp_path, monkeypatch):
    # A wait that cannot pass is settled inside the pick without a grant,
    # so each grant executes one step; those yields are still decisions.
    grants = []
    original = runtime.ExecutionContext.grant

    def grant(ctx, tid):
        grants.append(tid)
        return original(ctx, tid)

    monkeypatch.setattr(runtime.ExecutionContext, "grant", grant)
    steps = decisions = 0

    def tally(result):
        nonlocal steps, decisions
        steps += len(result.trace.steps)
        decisions += len(result.decisions)

    explore(
        get_program("livelock-philosophers"),
        ExplorationConfig(out_dir=tmp_path, bound=18),
        iteration_callback=tally,
    )
    assert len(grants) == steps
    assert decisions > steps


def test_a_granted_wait_that_cannot_pass_is_a_protocol_error(monkeypatch):
    # Were the scheduler to take a blocked lock for enabled, the grant must fail
    # loudly before the lock changes hands, not yield and carry on.
    monkeypatch.setattr(Scheduler, "enabled", lambda self, tids: frozenset(tids))
    mutexes = []

    def entry(api: Api) -> None:
        m = api.new_mutex()
        mutexes.append(m)
        cell = api.register_shared(0)
        child = api.spawn_thread(lambda a: (a.mutex_lock(m), a.mutex_unlock(m)))
        api.mutex_lock(m)
        for value in range(3):
            api.write(cell, value)
        api.mutex_unlock(m)
        api.join(child)

    with pytest.raises(ProtocolError, match="cannot pass"):
        run_once(entry, race_enabled=False, hang_timeout=10.0)
    assert mutexes[0].holder == 0


def test_a_forced_branch_that_cannot_run_raises():
    # Main takes m and spawns a child whose first operation locks m: the
    # child cannot pass at step 2, so forcing it there is a divergence,
    # not a silent fall-back to a free pick of main.
    def entry(api: Api) -> None:
        m = api.new_mutex()
        api.mutex_lock(m)
        child = api.spawn_thread(lambda a: (a.mutex_lock(m), a.mutex_unlock(m)))
        api.mutex_unlock(m)
        api.join(child)

    plan = SchedulePlan(replay=[0, 0], branch=1)
    with pytest.raises(ReplayDivergenceError) as err:
        run_once(entry, plan=plan, race_enabled=False, hang_timeout=10.0)
    assert err.value.step_index == 2


def test_the_step_that_trips_the_bound_is_recorded():
    def entry(api: Api) -> None:
        cell = api.register_shared(0)
        for value in range(10):
            api.write(cell, value)

    within = run_once(entry, bound=10)
    assert (within.outcome, len(within.trace.steps)) == (IterationOutcome.NORMAL_END, 10)
    tripped = run_once(entry, bound=4)
    assert tripped.outcome is IterationOutcome.LIVELOCK_CANDIDATE
    assert len(tripped.trace.steps) == 5


def test_a_bound_below_one_is_rejected(tmp_path):
    with pytest.raises(ValueError, match="depth bound must be >= 1"):
        IterationRunner(ProgramHandle(name="t", entry=_increment_twice), bound=0)
    argv = ["check", "--program", "deadlock-two-mutexes", "--out", str(tmp_path), "--bound", "0"]
    assert run_cli(argv) == 2
