"""Behavioral tests of the shadow primitives, run through the real engine."""

import pytest

from shadowcheck import Api, ProgramHandle, UsageError
from shadowcheck.explorer import ExplorationConfig, explore
from shadowcheck.runtime import IterationRunner, SchedulePlan
from shadowcheck.scheduler import IterationOutcome


def run_once(entry, **kwargs):
    return IterationRunner(ProgramHandle(name="t", entry=entry), **kwargs).run()


def run_recording_states(entry, **kwargs):
    """Run once; also return every shadow object's fields after each executed step."""
    states = []

    def record(*_):
        states.append(
            [
                tuple(getattr(h, slot) for slot in type(h).__slots__ if slot != "_ctx")
                for h in runner.ctx.objects
            ]
        )

    runner = IterationRunner(ProgramHandle(name="t", entry=entry), step_hook=record, **kwargs)
    return runner.run(), states


def explore_all(entry, tmp_path, **kwargs):
    results = []
    report = explore(
        ProgramHandle(name="t", entry=entry),
        ExplorationConfig(out_dir=tmp_path, **kwargs),
        iteration_callback=results.append,
    )
    return report, results


def test_spawn_assigns_dense_thread_ids():
    seen = {}

    def entry(api: Api) -> None:
        seen["main"] = api.my_tid()

        def body(a: Api) -> None:
            seen.setdefault("own", []).append(a.my_tid())

        seen["first"] = api.spawn_thread(body)
        seen["second"] = api.spawn_thread(body)

    result = run_once(entry)
    assert result.outcome is IterationOutcome.NORMAL_END
    assert seen["main"] == 0
    assert (seen["first"], seen["second"]) == (1, 2)
    assert sorted(seen["own"]) == [1, 2]


def test_replayed_execution_assigns_identical_ids():
    def entry(api: Api) -> None:
        cell = api.register_shared(0)
        tids = [api.spawn_thread(lambda a: a.write(cell, 1)) for _ in range(2)]
        for tid in tids:
            api.join(tid)

    first, first_states = run_recording_states(entry)
    second, second_states = run_recording_states(
        entry, plan=SchedulePlan(replay=list(first.trace.steps))
    )
    assert first.trace.steps == second.trace.steps
    assert first.op_log == second.op_log
    assert first_states == second_states  # (op, state) pairs match


def test_registration_order_gives_dense_object_ids():
    made = []

    def entry(api: Api) -> None:
        made.extend(api.register_shared(0) for _ in range(3))
        made.extend([api.new_mutex(), api.new_semaphore(1), api.new_condvar()])
        made.append(api.register_shared(5))

    runner = IterationRunner(ProgramHandle(name="t", entry=entry))
    runner.run()
    assert [int(h.oid) for h in made] == [0, 1, 2, 3, 4, 5, 6]
    assert runner.ctx.objects == made
    # Only cells are watched for races.
    for cell in made[:3] + made[6:]:
        assert runner.ctx.race.counters(cell.oid) == (0, 0)
    with pytest.raises(UsageError):
        runner.ctx.race.counters(made[3].oid)


def test_read_sees_own_write_sequentially():
    seen = {}

    def entry(api: Api) -> None:
        cell = api.register_shared(0)
        api.write(cell, 5)
        seen["value"] = api.read(cell)

    run_once(entry)
    assert seen["value"] == 5


def test_foreign_cell_rejected():
    leaked = {}

    def first(api: Api) -> None:
        leaked["cell"] = api.register_shared(0)

    run_once(first)

    def second(api: Api) -> None:
        api.read(leaked["cell"])

    with pytest.raises(UsageError):
        run_once(second)


def test_uncontended_lock_and_unlock():
    def entry(api: Api) -> None:
        m = api.new_mutex()
        api.mutex_lock(m)
        assert m.holder == 0
        api.mutex_unlock(m)
        assert m.holder is None

    assert run_once(entry).outcome is IterationOutcome.NORMAL_END


def test_relock_by_holder_rejected():
    def entry(api: Api) -> None:
        m = api.new_mutex()
        api.mutex_lock(m)
        api.mutex_lock(m)

    with pytest.raises(UsageError):
        run_once(entry)


def test_unlock_by_non_holder_rejected():
    def entry(api: Api) -> None:
        m = api.new_mutex()
        api.mutex_unlock(m)

    with pytest.raises(UsageError):
        run_once(entry)


def test_trylock_reports_contention_without_blocking():
    outcomes = {}

    def entry(api: Api) -> None:
        m = api.new_mutex()
        outcomes["free"] = api.mutex_trylock(m)

        def contender(a: Api) -> None:
            outcomes["held"] = a.mutex_trylock(m)

        tid = api.spawn_thread(contender)
        api.join(tid)
        api.mutex_unlock(m)

    assert run_once(entry).outcome is IterationOutcome.NORMAL_END
    assert outcomes == {"free": True, "held": False}


def test_contended_lock_waits_for_release():
    order = []

    def entry(api: Api) -> None:
        m = api.new_mutex()
        api.mutex_lock(m)

        def contender(a: Api) -> None:
            a.mutex_lock(m)
            order.append("contender-acquired")
            a.mutex_unlock(m)

        tid = api.spawn_thread(contender)
        order.append("main-releasing")
        api.mutex_unlock(m)
        api.join(tid)

    assert run_once(entry).outcome is IterationOutcome.NORMAL_END
    assert order == ["main-releasing", "contender-acquired"]


def test_semaphore_wait_decrements_when_positive():
    def entry(api: Api) -> None:
        s = api.new_semaphore(1)
        api.sem_wait(s)
        assert s.count == 0
        api.sem_post(s)
        assert s.count == 1
        api.sem_wait(s)
        api.sem_post(s)  # post-then-wait nets to the same count
        assert s.count == 1

    assert run_once(entry).outcome is IterationOutcome.NORMAL_END


def test_semaphore_handoff_wakes_the_waiter():
    order = []

    def entry(api: Api) -> None:
        s = api.new_semaphore(0)

        def waiter(a: Api) -> None:
            a.sem_wait(s)
            order.append("woke")

        tid = api.spawn_thread(waiter)
        order.append("posting")
        api.sem_post(s)
        api.join(tid)

    assert run_once(entry).outcome is IterationOutcome.NORMAL_END
    assert order == ["posting", "woke"]


def test_join_on_ended_thread_passes_immediately():
    def entry(api: Api) -> None:
        tid = api.spawn_thread(lambda a: None)
        api.join(tid)

    assert run_once(entry).outcome is IterationOutcome.NORMAL_END


def test_join_self_rejected():
    def entry(api: Api) -> None:
        api.join(0)

    with pytest.raises(UsageError):
        run_once(entry)


def test_join_unknown_thread_rejected():
    def entry(api: Api) -> None:
        api.join(7)

    with pytest.raises(UsageError):
        run_once(entry)


def test_cond_signal_without_waiters_is_lost():
    def entry(api: Api) -> None:
        c = api.new_condvar()
        api.cond_signal(c)
        assert c.signal_flag == 0  # lost wakeup, by emulation semantics

    assert run_once(entry).outcome is IterationOutcome.NORMAL_END


def test_cond_wait_requires_holding_the_mutex():
    def entry(api: Api) -> None:
        c = api.new_condvar()
        m = api.new_mutex()
        api.cond_wait(c, m)

    with pytest.raises(UsageError):
        run_once(entry)


def test_cond_wait_then_signal_wakes_the_waiter(tmp_path):
    # Explored exhaustively: schedules where the signal lands after the
    # wait release the waiter; signal-first schedules lose the wakeup and
    # deadlock, which is exactly what the integer-flag emulation does.
    def entry(api: Api) -> None:
        c = api.new_condvar()
        m = api.new_mutex()
        done = api.register_shared(0)

        def waiter(a: Api) -> None:
            a.mutex_lock(m)
            a.cond_wait(c, m)
            a.mutex_unlock(m)
            a.write(done, 1)

        def signaler(a: Api) -> None:
            a.mutex_lock(m)
            a.cond_signal(c)
            a.mutex_unlock(m)

        t1 = api.spawn_thread(waiter)
        t2 = api.spawn_thread(signaler)
        api.join(t1)
        api.join(t2)

    report, results = explore_all(entry, tmp_path, dpor_enabled=False, bound=60)
    outcomes = {r.outcome for r in results}
    assert IterationOutcome.NORMAL_END in outcomes  # waiter passed on some schedule
    woken = [r.terminal_cells for r in results if r.outcome is IterationOutcome.NORMAL_END]
    assert all(cells == (1,) for cells in woken)
    assert IterationOutcome.DEADLOCK in outcomes  # the lost-wakeup schedules


def test_two_waiters_one_signal_releases_exactly_one(tmp_path):
    def entry(api: Api) -> None:
        c = api.new_condvar()
        m = api.new_mutex()
        woken = api.register_shared(0)

        def make_waiter(marker: int):
            def waiter(a: Api) -> None:
                a.mutex_lock(m)
                a.cond_wait(c, m)
                a.mutex_unlock(m)
                a.write(woken, a.read(woken) + marker)

            return waiter

        def signaler(a: Api) -> None:
            a.mutex_lock(m)
            a.cond_signal(c)
            a.mutex_unlock(m)

        t1 = api.spawn_thread(make_waiter(1))
        t2 = api.spawn_thread(make_waiter(10))
        t3 = api.spawn_thread(signaler)
        api.join(t1)
        api.join(t2)
        api.join(t3)

    report, results = explore_all(entry, tmp_path, dpor_enabled=False, bound=80)
    # No schedule ever completes: one waiter (at most) is released per
    # signal, so the run always deadlocks with the other still waiting.
    assert all(r.outcome is not IterationOutcome.NORMAL_END for r in results)
    deadlocked = [r for r in results if r.outcome is IterationOutcome.DEADLOCK]
    assert deadlocked
    # In every deadlock where somebody was woken, exactly one waiter ran:
    # the woken marker is 1 or 10, never 11.
    def final_woken(result):
        runner = IterationRunner(
            ProgramHandle(name="t", entry=entry),
            plan=SchedulePlan(replay=list(result.trace.steps)),
        )
        outcome = runner.run()
        cells = [h.value for h in runner.ctx.objects if hasattr(h, "value")]
        return cells[0]

    woken_values = {final_woken(r) for r in deadlocked}
    assert woken_values <= {0, 1, 10}
    assert woken_values & {1, 10}


def test_failed_try_leaves_shadow_state_unchanged():
    # A waiting operation that yields must not move any shadow fields:
    # observable as identical shadow states for the same schedule even
    # though the losing thread was picked (and yielded) in between.
    def entry(api: Api) -> None:
        m = api.new_mutex()
        cell = api.register_shared(0)
        api.mutex_lock(m)

        def contender(a: Api) -> None:
            a.mutex_lock(m)
            a.mutex_unlock(m)

        tid = api.spawn_thread(contender)
        api.write(cell, 1)  # contender's yields interleave here
        api.mutex_unlock(m)
        api.join(tid)

    first, first_states = run_recording_states(entry)
    second, second_states = run_recording_states(entry)
    assert first.outcome is IterationOutcome.NORMAL_END
    assert first_states == second_states
    assert first.trace.steps == second.trace.steps
