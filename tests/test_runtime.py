"""Edge paths of the control hand-off between the runner and program threads."""

import threading

import pytest

from shadowcheck import Api, ProgramHandle
from shadowcheck.errors import ProtocolError
from shadowcheck.runtime import IterationRunner
from shadowcheck.scheduler import IterationOutcome


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
