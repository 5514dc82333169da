import pytest
from hypothesis import given
from hypothesis import strategies as st

from shadowcheck import (
    DONT_CARE,
    AccessKind,
    BacktrackPoint,
    ObjectId,
    RaceDetail,
    ThreadId,
    Token,
    Trace,
    UsageError,
    ViolationKind,
    ViolationReport,
    VisibleOp,
    make_visible_op,
)


def test_identities_reject_negative_values():
    with pytest.raises(ValueError):
        ThreadId(-1)
    with pytest.raises(ValueError):
        ObjectId(-3)


def test_identities_are_distinct_types_over_int():
    tid = ThreadId(2)
    oid = ObjectId(2)
    assert tid == 2 and oid == 2
    assert isinstance(tid, ThreadId) and not isinstance(tid, ObjectId)
    assert isinstance(oid, ObjectId) and not isinstance(oid, ThreadId)


def test_main_thread_registration_op():
    op = make_visible_op(Token.NON_BLOCKING, ThreadId(0), AccessKind.DONT_CARE, DONT_CARE)
    assert op.to_wire() == "{n,0,dc,dc}"


def test_waiting_write_op():
    op = make_visible_op(Token.WAITING, ThreadId(1), AccessKind.WRITE, ObjectId(2))
    assert op.to_wire() == "{y,1,w,2}"


def test_read_without_target_rejected():
    with pytest.raises(UsageError):
        make_visible_op(Token.NON_BLOCKING, ThreadId(3), AccessKind.READ, DONT_CARE)


def test_dont_care_access_with_real_target_rejected():
    with pytest.raises(UsageError):
        make_visible_op(Token.NON_BLOCKING, ThreadId(3), AccessKind.DONT_CARE, ObjectId(1))


_ops = st.builds(
    lambda token, tid, access, target: make_visible_op(
        token,
        ThreadId(tid),
        access,
        DONT_CARE if access is AccessKind.DONT_CARE else ObjectId(target),
    ),
    st.sampled_from(list(Token)),
    st.integers(0, 50),
    st.sampled_from(list(AccessKind)),
    st.integers(0, 50),
)


@given(_ops)
def test_wire_round_trip(op):
    assert VisibleOp.from_wire(op.to_wire()) == op


def test_from_wire_rejects_garbage():
    for text in ["", "{n,0,dc}", "n,0,dc,dc", "{q,0,dc,dc}", "{n,0,r,dc}"]:
        with pytest.raises((ValueError, UsageError)):
            VisibleOp.from_wire(text)


def test_backtrack_point_invariants():
    point = BacktrackPoint(depth=2, prefix=(0, 1), pending={2}, done={1}, discovery_iteration=0)
    point.validate()
    with pytest.raises(ValueError):
        BacktrackPoint(depth=2, prefix=(0, 1), pending={1}, done={1}, discovery_iteration=0).validate()
    with pytest.raises(ValueError):
        BacktrackPoint(depth=2, prefix=(0, 1), pending=set(), done={1}, discovery_iteration=0).validate()
    with pytest.raises(ValueError):
        BacktrackPoint(depth=3, prefix=(0, 1), pending={2}, done=set(), discovery_iteration=0).validate()


def test_violation_report_race_detail_rules():
    trace = Trace(steps=[0, 0])
    ViolationReport(
        kind=ViolationKind.DATA_RACE,
        iteration=0,
        trace=trace,
        race_detail=RaceDetail(ObjectId(0), readers_pending=1, writers_pending=1),
    ).validate()
    with pytest.raises(ValueError):
        ViolationReport(kind=ViolationKind.DATA_RACE, iteration=0, trace=trace).validate()
    with pytest.raises(ValueError):
        ViolationReport(
            kind=ViolationKind.DEADLOCK,
            iteration=0,
            trace=trace,
            race_detail=RaceDetail(ObjectId(0), 1, 1),
        ).validate()
    with pytest.raises(ValueError):
        ViolationReport(
            kind=ViolationKind.DATA_RACE,
            iteration=0,
            trace=trace,
            race_detail=RaceDetail(ObjectId(0), readers_pending=2, writers_pending=0),
        ).validate()


def test_identity_types_do_not_mix():
    with pytest.raises(UsageError):
        make_visible_op(Token.NON_BLOCKING, ObjectId(1), AccessKind.READ, ObjectId(0))
    with pytest.raises(UsageError):
        make_visible_op(Token.NON_BLOCKING, ThreadId(1), AccessKind.READ, ThreadId(0))
