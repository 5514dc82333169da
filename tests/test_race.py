import pytest
from hypothesis import given
from hypothesis import strategies as st

from shadowcheck import AccessKind, ObjectId, ProtocolError, UsageError
from shadowcheck.race import RaceDetector, check


def test_check_truth_table():
    assert check(1, 1) is True
    assert check(2, 0) is False
    assert check(0, 0) is False
    assert check(0, 3) is False
    assert check(5, 1) is True


def test_strict_mode_adds_writer_writer_overlap():
    assert check(0, 2, strict=True) is True
    assert check(0, 1, strict=True) is False
    assert check(1, 1, strict=True) is True


def test_negative_counters_rejected():
    with pytest.raises(ProtocolError):
        check(-1, 0)


def test_detector_fires_on_read_write_overlap():
    detector = RaceDetector()
    oid = ObjectId(0)
    detector.on_register(oid)
    detector.on_pending(oid, AccessKind.READ)
    assert detector.fired is None
    detector.on_pending(oid, AccessKind.WRITE)
    assert detector.fired is not None
    assert detector.fired.readers_pending == 1 and detector.fired.writers_pending == 1


def test_detector_tracks_objects_independently():
    detector = RaceDetector()
    a, b = ObjectId(0), ObjectId(1)
    detector.on_register(a)
    detector.on_register(b)
    detector.on_pending(a, AccessKind.READ)
    detector.on_pending(b, AccessKind.WRITE)
    assert detector.fired is None


def test_completion_clears_the_window():
    detector = RaceDetector()
    oid = ObjectId(0)
    detector.on_register(oid)
    detector.on_pending(oid, AccessKind.WRITE)
    detector.on_complete(oid, AccessKind.WRITE)
    detector.on_pending(oid, AccessKind.READ)
    assert detector.fired is None


def test_unmatched_completion_is_a_protocol_error():
    detector = RaceDetector()
    oid = ObjectId(0)
    detector.on_register(oid)
    with pytest.raises(ProtocolError):
        detector.on_complete(oid, AccessKind.READ)


def test_unregistered_object_is_a_usage_error():
    with pytest.raises(UsageError):
        RaceDetector().on_pending(ObjectId(7), AccessKind.READ)


def test_finish_resets_all_state():
    detector = RaceDetector()
    oid = ObjectId(0)
    detector.on_register(oid)
    detector.on_pending(oid, AccessKind.READ)
    detector.on_pending(oid, AccessKind.WRITE)
    assert detector.fired is not None
    detector.on_finish()
    assert detector.fired is None
    detector.on_register(oid)
    assert detector.counters(oid) == (0, 0)


# One weighted action stream drives the detector while a mirror model
# tracks what the counters must be.
_actions = st.lists(
    st.tuples(
        st.sampled_from(["pending", "complete", "finish"]),
        st.integers(0, 2),
        st.sampled_from([AccessKind.READ, AccessKind.WRITE]),
    ),
    max_size=60,
)


@given(_actions, st.booleans())
def test_counter_protocol_properties(actions, strict):
    detector = RaceDetector(strict=strict)
    mirror: dict[int, list[int]] = {}
    for oid_value in range(3):
        detector.on_register(ObjectId(oid_value))
        mirror[oid_value] = [0, 0]
    fired_when = None

    for action, oid_value, kind in actions:
        oid = ObjectId(oid_value)
        slot = 0 if kind is AccessKind.READ else 1
        if action == "pending":
            detector.on_pending(oid, kind)
            mirror[oid_value][slot] += 1
            readers, writers = mirror[oid_value]
            assert detector.counters(oid) == (readers, writers)
            assert readers >= 0 and writers >= 0
            should_fire = (writers > 0 and readers > 0) or (strict and writers >= 2)
            if should_fire and fired_when is None:
                fired_when = (readers, writers)
        elif action == "complete":
            if mirror[oid_value][slot] == 0:
                with pytest.raises(ProtocolError):
                    detector.on_complete(oid, kind)
                return  # detector state is poisoned past a protocol error
            detector.on_complete(oid, kind)
            mirror[oid_value][slot] -= 1
        else:
            detector.on_finish()
            for oid_value2 in range(3):
                detector.on_register(ObjectId(oid_value2))
                mirror[oid_value2] = [0, 0]
            fired_when = None

    if fired_when is None:
        assert detector.fired is None
    else:
        detail = detector.fired
        assert detail is not None
        assert (detail.readers_pending, detail.writers_pending) == fired_when
        assert detail.writers_pending >= 1
        assert detail.readers_pending + detail.writers_pending >= 2
