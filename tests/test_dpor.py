from shadowcheck import DONT_CARE, AccessKind, ObjectId, ThreadId, Token, make_visible_op
from shadowcheck.dpor import (
    ExecutionLog,
    dependent,
    dependent_subset,
    is_backtrack_point,
    on_execute,
)


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
