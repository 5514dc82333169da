"""Identity assignment: dense thread ids and registration-order object ids."""

import pytest

from shadowcheck import (
    Api,
    ProgramHandle,
    SharedCell,
    ShadowCondVar,
    ShadowMutex,
    ShadowSemaphore,
    UsageError,
)
from shadowcheck.runtime import IterationRunner
from shadowcheck.scheduler import IterationOutcome


def make_runner(entry=lambda api: None) -> IterationRunner:
    return IterationRunner(ProgramHandle(name="t", entry=entry))


def test_thread_ids_are_dense_from_zero():
    spawned = []

    def entry(api: Api) -> None:
        spawned.extend(api.spawn_thread(lambda a: None) for _ in range(3))

    runner = make_runner(entry)
    assert runner.run().outcome is IterationOutcome.NORMAL_END
    assert spawned == [1, 2, 3]
    assert sorted(runner.ctx.hosts) == [0, 1, 2, 3]


def test_object_ids_follow_registration_order():
    ctx = make_runner().ctx
    handles = [SharedCell(0), ShadowMutex(), ShadowCondVar()]
    assert [ctx.register(h) for h in handles] == handles
    assert [int(h.oid) for h in handles] == [0, 1, 2]
    assert ctx.objects == handles
    assert all(h._ctx is ctx for h in handles)


def test_cell_registration_notifies_race_detector():
    ctx = make_runner().ctx
    ctx.register(SharedCell(0))
    ctx.register(ShadowSemaphore(0))
    ctx.register(SharedCell(0))
    assert ctx.race.counters(0) == (0, 0)
    assert ctx.race.counters(2) == (0, 0)
    with pytest.raises(UsageError):
        ctx.race.counters(1)
