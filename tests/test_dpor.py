import random

import pytest

from shadowcheck import DONT_CARE, AccessKind, ObjectId, ThreadId, Token, make_visible_op
from shadowcheck.corpus import PROGRAMS, get_program
from shadowcheck.dpor import (
    ExecutionLog,
    dependent,
    dependent_subset,
    enabled_ops,
    is_backtrack_point,
    on_execute,
)
from shadowcheck.explorer import ExplorationConfig, explore
from shadowcheck.runtime import IterationRunner
from shadowcheck.scheduler import IterationOutcome

from _shadow_ports import to_program
from oracle import random_program


def op(tid, access, target=None, token=Token.NON_BLOCKING):
    if access is AccessKind.DONT_CARE:
        return make_visible_op(token, ThreadId(tid), access, DONT_CARE)
    return make_visible_op(token, ThreadId(tid), access, ObjectId(target))


def test_write_read_same_object_dependent():
    assert dependent(op(1, AccessKind.WRITE, 0), op(2, AccessKind.READ, 0))


def test_two_reads_independent():
    assert not dependent(op(1, AccessKind.READ, 0), op(2, AccessKind.READ, 0))


def test_writes_to_distinct_objects_independent():
    assert not dependent(op(1, AccessKind.WRITE, 0), op(2, AccessKind.WRITE, 1))


def test_dont_care_ops_independent_of_everything():
    dc = op(0, AccessKind.DONT_CARE)
    assert not dependent(dc, op(1, AccessKind.WRITE, 0))
    assert not dependent(dc, dc)


def test_dependence_is_symmetric():
    a, b = op(1, AccessKind.WRITE, 2), op(2, AccessKind.READ, 2)
    assert dependent(a, b) == dependent(b, a)


def test_self_dependence_by_effect():
    assert dependent(op(1, AccessKind.WRITE, 0), op(1, AccessKind.WRITE, 0))
    assert not dependent(op(1, AccessKind.READ, 0), op(1, AccessKind.READ, 0))


def _log(entries):
    log = ExecutionLog()
    for step_op, enabled in entries:
        log.append(step_op, frozenset(enabled))
    return log


def test_on_execute_adds_at_last_dependent_transition():
    # Thread 1 writes x at depth 2; thread 2 writes x at depth 5 and was
    # enabled back at depth 2, so depth 2 owes thread 2 a branch.
    log = _log(
        [
            (op(0, AccessKind.DONT_CARE), {0}),
            (op(0, AccessKind.DONT_CARE), {0, 1}),
            (op(1, AccessKind.WRITE, 0), {1, 2}),
            (op(1, AccessKind.WRITE, 1), {1, 2}),
            (op(1, AccessKind.READ, 2), {1, 2}),
            (op(2, AccessKind.WRITE, 0), {2}),
        ]
    )
    assert on_execute(log, log.steps[5]) == {(2, 2)}


def test_on_execute_skips_unenabled_conflicts_for_earlier_ones():
    # The latest conflicting step (depth 2) had thread 2 disabled; the
    # next-latest (depth 1) had it enabled and gets the addition.
    log = _log(
        [
            (op(0, AccessKind.DONT_CARE), {0, 2}),
            (op(1, AccessKind.WRITE, 3), {1, 2}),
            (op(1, AccessKind.WRITE, 3), {1}),
            (op(2, AccessKind.WRITE, 3), {2}),
        ]
    )
    assert on_execute(log, log.steps[3]) == {(1, 2)}


def test_on_execute_emits_nothing_without_foreign_conflicts():
    log = _log(
        [
            (op(1, AccessKind.WRITE, 0), {1, 2}),
            (op(2, AccessKind.WRITE, 1), {1, 2}),
            (op(2, AccessKind.WRITE, 1), {2}),
        ]
    )
    assert on_execute(log, log.steps[2]) == set()


def test_on_execute_drops_when_never_co_enabled():
    log = _log(
        [
            (op(1, AccessKind.WRITE, 0), {1}),
            (op(2, AccessKind.WRITE, 0), {2}),
        ]
    )
    assert on_execute(log, log.steps[1]) == set()


def test_backtrack_point_needs_two_mutually_dependent_ops():
    write_x = op(1, AccessKind.WRITE, 0)
    read_x = op(2, AccessKind.READ, 0)
    read_x2 = op(3, AccessKind.READ, 0)
    assert is_backtrack_point({1: write_x, 2: read_x})
    assert not is_backtrack_point({2: read_x, 3: read_x2})
    assert not is_backtrack_point({1: write_x})
    assert not is_backtrack_point({})


def test_dependent_subset_discards_unconflicted_ops():
    ops = {
        0: op(0, AccessKind.DONT_CARE),
        1: op(1, AccessKind.WRITE, 0),
        2: op(2, AccessKind.READ, 0),
        3: op(3, AccessKind.WRITE, 9),
    }
    assert dependent_subset(ops) == {1, 2}


def test_enabled_ops_reads_each_threads_next_operation():
    # Thread 2 is enabled throughout but reads only at depth 2; thread 1's
    # second write never runs and is still pending at the end.
    w1, w1b, r2 = op(1, AccessKind.WRITE, 0), op(1, AccessKind.WRITE, 1), op(2, AccessKind.READ, 0)
    dc = op(0, AccessKind.DONT_CARE)
    log = _log([(w1, {1, 2}), (dc, {0, 1, 2}), (r2, {1, 2})])
    states = enabled_ops(log, [w1b])
    assert [step.depth for step, _ in states] == [0, 1, 2]
    assert [ops for _, ops in states] == [
        {1: w1, 2: r2},
        {0: dc, 1: w1b, 2: r2},
        {1: w1b, 2: r2},
    ]
    assert [step.depth for step, _ in enabled_ops(log, [w1b], start=2)] == [2]


def _record_live_ops(monkeypatch):
    """Check every iteration's rebuilt enabled ops against the scheduler's
    pending operations restricted to the enabled set at each grant."""
    run = IterationRunner.run
    checked = []

    def checking_run(runner):
        live = []
        pick = runner.scheduler.pick_next

        def recording_pick(*args, enabled, **kwargs):
            ops = runner.scheduler.pending_ops()
            tid = pick(*args, enabled=enabled, **kwargs)
            if not isinstance(tid, IterationOutcome):
                live.append({t: ops[t] for t in enabled})
            return tid

        runner.scheduler.pick_next = recording_pick
        result = run(runner)
        rebuilt = enabled_ops(result.log, [op for op, _ in result.pending])
        assert [ops for _, ops in rebuilt] == live
        checked.append(len(live))
        return result

    monkeypatch.setattr(IterationRunner, "run", checking_run)
    return checked


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_rebuilt_enabled_ops_match_the_scheduler_on_the_corpus(name, tmp_path, monkeypatch):
    checked = _record_live_ops(monkeypatch)
    bound = 18 if name == "livelock-philosophers" else None
    explore(get_program(name), ExplorationConfig(out_dir=tmp_path, bound=bound, strict_races=True))
    assert checked and sum(checked) > 0


def test_rebuilt_enabled_ops_match_the_scheduler_on_random_programs(tmp_path, monkeypatch):
    checked = _record_live_ops(monkeypatch)
    rng = random.Random(20)
    for i in range(25):
        program = to_program(random_program(rng), f"random-{i}")
        explore(program, ExplorationConfig(out_dir=tmp_path / str(i), dpor_enabled=i % 2 == 0))
    assert len(checked) > 25
