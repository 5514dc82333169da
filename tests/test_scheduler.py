import pytest

from shadowcheck import (
    DONT_CARE,
    AccessKind,
    ObjectId,
    ProtocolError,
    ReplayDivergenceError,
    ThreadId,
    Token,
    make_visible_op,
)
from shadowcheck.scheduler import IterationOutcome, Scheduler, estimate_bound


def nb_op(tid):
    return make_visible_op(Token.NON_BLOCKING, ThreadId(tid), AccessKind.DONT_CARE, DONT_CARE)


def wait_op(tid, oid=0):
    return make_visible_op(Token.WAITING, ThreadId(tid), AccessKind.WRITE, ObjectId(oid))


def scheduler_with(tids):
    sch = Scheduler()
    for tid in tids:
        sch.add_thread(tid)
    return sch


def test_estimate_bound_is_the_partition_sum():
    assert estimate_bound([4, 3, 3]) == 10
    assert estimate_bound([1]) == 1
    assert estimate_bound([5] * 7) == 35


def test_estimate_bound_rejects_bad_input():
    with pytest.raises(ValueError):
        estimate_bound([])
    with pytest.raises(ValueError):
        estimate_bound([2, 0])


def test_all_ended_signals_normal_end():
    sch = scheduler_with([0])
    sch.on_announce(0, nb_op(0))
    assert sch.pick_next(enabled=frozenset({0})) == 0
    sch.on_progress(0)
    sch.on_end(0)
    assert sch.pick_next(enabled=frozenset()) is IterationOutcome.NORMAL_END


def test_all_yielded_signals_deadlock():
    sch = scheduler_with([0, 1])
    sch.on_announce(0, wait_op(0))
    sch.on_announce(1, wait_op(1))
    assert sch.pick_next(enabled=frozenset()) is IterationOutcome.DEADLOCK
    # Both waits were tried, once each, inside the one pick.
    assert [(d.pick, d.candidates) for d in sch.decisions] == [(0, (0, 1)), (1, (1,))]


def test_enabled_evaluates_each_announced_pass_condition():
    sch = scheduler_with([0, 1, 2])
    sch.on_announce(0, wait_op(0), ready=lambda: False)
    sch.on_announce(1, wait_op(1), ready=lambda: True)
    sch.on_announce(2, nb_op(2))
    assert sch.enabled([0, 1, 2]) == {1, 2}


def test_lowest_tid_wins_fresh_ties():
    sch = scheduler_with([0, 1, 2])
    for tid in (0, 1, 2):
        sch.on_announce(tid, nb_op(tid))
    assert sch.pick_next(enabled=frozenset({0, 1, 2})) == 0


def test_yielded_thread_excluded_until_another_progresses():
    sch = scheduler_with([0, 1])
    sch.on_announce(0, wait_op(0))
    sch.on_announce(1, nb_op(1))
    # Thread 0 is picked first, cannot pass, and leaves the pick.
    assert sch.pick_next(enabled=frozenset({1})) == 1
    assert [(d.pick, d.candidates) for d in sch.decisions] == [(0, (0, 1)), (1, (1,))]
    sch.on_progress(1)
    sch.on_announce(1, nb_op(1))
    # Progress happened, so thread 0 is a candidate again; its dropped
    # priority keeps it behind the thread that progressed.
    assert sch.status_of(0).priority < sch.status_of(1).priority
    assert sch.pick_next(enabled=frozenset({0, 1})) == 1
    assert sch.decisions[-1].candidates == (0, 1)


def test_unfair_cycle_pruning_on_decision_log():
    # A yielded thread is never picked again before some other thread
    # progressed: directly assertable on the decision log.
    sch = scheduler_with([0, 1])
    sch.on_announce(0, wait_op(0))
    sch.on_announce(1, wait_op(1))
    sch.pick_next(enabled=frozenset())
    assert [d.pick for d in sch.decisions] == [0, 1]  # no re-pick of 0 after its yield


def test_hunger_aging_services_a_starved_thread():
    sch = scheduler_with([0, 1])
    sch.on_announce(1, nb_op(1))
    sch.on_announce(0, nb_op(0))
    picks = []
    for _ in range(6):
        tid = sch.pick_next(enabled=frozenset({0, 1}))
        picks.append(tid)
        sch.on_progress(tid)
        sch.on_announce(tid, nb_op(tid))
    # Tid order alone would pick 0 forever; aging must hand 1 a turn
    # within the fairness window (2 x 2 live threads).
    first_pick_of_1 = picks.index(1)
    assert first_pick_of_1 < 4


def test_pass_without_permit_is_a_protocol_error():
    sch = scheduler_with([0])
    sch.on_announce(0, wait_op(0))
    with pytest.raises(ProtocolError):
        sch.on_progress(0)


def test_announce_from_ended_thread_rejected():
    sch = scheduler_with([0])
    sch.on_end(0)
    with pytest.raises(ProtocolError):
        sch.on_announce(0, nb_op(0))


def test_replay_follows_the_trace_exactly():
    sch = scheduler_with([0, 1])
    sch.on_announce(0, nb_op(0))
    sch.on_announce(1, nb_op(1))
    assert sch.pick_next(1, "replay", enabled=frozenset({0, 1})) == 1
    sch.on_progress(1)
    sch.on_announce(1, nb_op(1))
    assert sch.pick_next(0, "replay", enabled=frozenset({0, 1})) == 0
    assert [d.mode for d in sch.decisions] == ["replay", "replay"]


def test_replay_divergence_raises():
    sch = scheduler_with([0])
    sch.on_announce(0, nb_op(0))
    with pytest.raises(ReplayDivergenceError) as err:
        sch.pick_next(5, "replay", 3, enabled=frozenset({0}))
    assert err.value.step_index == 3


def test_a_prescribed_thread_that_cannot_pass_raises():
    sch = scheduler_with([0, 1])
    sch.on_announce(0, nb_op(0))
    sch.on_announce(1, wait_op(1))
    with pytest.raises(ReplayDivergenceError) as err:
        sch.pick_next(1, "force", 2, enabled=frozenset({0}))
    assert err.value.step_index == 2
    assert sch.decisions == []


def test_forced_pick_returns_the_designated_thread():
    sch = scheduler_with([0, 1])
    sch.on_announce(0, nb_op(0))
    sch.on_announce(1, nb_op(1))
    assert sch.pick_next(1, "force", enabled=frozenset({0, 1})) == 1
    assert sch.decisions[-1].mode == "force"


def test_decision_log_line_format():
    sch = scheduler_with([0])
    sch.on_announce(0, nb_op(0))
    sch.pick_next(enabled=frozenset({0}))
    assert [d.debug_line() for d in sch.decisions] == ["step=0 pick=0 mode=free"]


def test_replayed_starving_schedule_ends_in_a_bound_warning():
    # A hand-built schedule that keeps scheduling the spinning reader
    # while the writer (ready the whole time) never runs: the overrun is
    # starvation, not a fair cycle, so it is a warning rather than a
    # livelock candidate.
    from shadowcheck.corpus import get_program
    from shadowcheck.model import Trace as TraceModel
    from shadowcheck.tracer import replay as replay_trace

    starving = TraceModel(steps=[0, 0] + [1] * 9)
    report = replay_trace(
        get_program("spin-flag"), starving, bound=10, race_enabled=False
    )
    assert report.outcome is IterationOutcome.BOUND_WARNING


def overrun_after(steps, thread0):
    """Classify an overrun after granting ``steps`` to threads 1 and 2, with
    thread 0 "ended", "blocked" or "ready" and never granted."""
    sch = scheduler_with([0, 1, 2])
    if thread0 == "ended":
        sch.on_end(0)
    else:
        sch.on_announce(0, wait_op(0), ready=lambda: thread0 == "ready")
    for tid in (1, 2):
        sch.on_announce(tid, nb_op(tid))
    for position, tid in enumerate(steps):
        assert sch.pick_next(tid, "replay", position, enabled=frozenset({1, 2})) == tid
        sch.on_progress(tid)
        sch.on_announce(tid, nb_op(tid))
    return sch.classify_overrun(len(steps))


def test_overrun_classification():
    # All live threads recently scheduled, none starved: a fair cycle.
    steps = [1, 2, 1, 2, 1, 2]
    assert overrun_after(steps, "ended") is IterationOutcome.LIVELOCK_CANDIDATE
    # A blocked thread outside the window does not break the cycle.
    assert overrun_after(steps, "blocked") is IterationOutcome.LIVELOCK_CANDIDATE
    # A thread that could progress but never got scheduled was starved.
    assert overrun_after(steps, "ready") is IterationOutcome.BOUND_WARNING
    # The tripping step completed the program: nothing to classify.
    ended = scheduler_with([0])
    ended.on_end(0)
    assert ended.classify_overrun(len(steps)) is None
