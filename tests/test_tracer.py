import pytest
from hypothesis import given
from hypothesis import strategies as st

from shadowcheck import Trace, TraceParseError, ViolationKind
from shadowcheck.corpus import get_program
from shadowcheck.explorer import ExplorationConfig, explore
from shadowcheck.runtime import IterationResult
from shadowcheck.scheduler import IterationOutcome
from shadowcheck.tracer import TraceSink, format_trace, parse_trace, replay, summary_line
from shadowcheck.model import ObjectId, RaceDetail

RACE_TRACE_BYTES = "1 0.\n2 0.\n3 0.\n4 0.\n"
DEADLOCK_TRACE_BYTES = "1 0.\n2 0.\n3 1.\n4 2.\n"


def result_with(outcome, steps, iteration=0, race_detail=None):
    return IterationResult(
        iteration=iteration,
        outcome=outcome,
        trace=Trace(steps=list(steps)),
        decisions=[],
        race_detail=race_detail,
    )


def test_format_matches_canonical_trace_files():
    assert format_trace(Trace(steps=[0, 0, 0, 0])) == RACE_TRACE_BYTES
    assert format_trace(Trace(steps=[0, 0, 1, 2])) == DEADLOCK_TRACE_BYTES


def test_parse_canonical_trace_files(tmp_path):
    path = tmp_path / "t"
    path.write_text(RACE_TRACE_BYTES)
    assert parse_trace(path).steps == [0, 0, 0, 0]
    path.write_text(DEADLOCK_TRACE_BYTES)
    assert parse_trace(path).steps == [0, 0, 1, 2]


@given(st.lists(st.integers(0, 9), max_size=40))
def test_round_trip(steps):
    import tempfile

    with tempfile.NamedTemporaryFile("w", suffix=".trace", delete=False) as handle:
        handle.write(format_trace(Trace(steps=steps)))
        path = handle.name
    assert parse_trace(path).steps == steps


@pytest.mark.parametrize(
    "content",
    [
        "2 0.\n",  # index must start at 1
        "1 0.\n3 1.\n",  # index gap
        "1 0.\n2 1\n",  # missing period
        "1 0.\nwat\n",  # malformed line
        "1 0.\n\n2 1.\n",  # blank line inside
        "1 x.\n",  # non-numeric tid
    ],
)
def test_strict_parse_rejects(tmp_path, content):
    path = tmp_path / "bad"
    path.write_text(content)
    with pytest.raises(TraceParseError):
        parse_trace(path)


def test_parse_error_names_the_line(tmp_path):
    path = tmp_path / "bad"
    path.write_text("1 0.\n3 1.\n")
    with pytest.raises(TraceParseError) as err:
        parse_trace(path)
    assert err.value.line_no == 2


def test_violation_file_names(tmp_path):
    sink = TraceSink(tmp_path)
    sink.close_iteration(result_with(IterationOutcome.DEADLOCK, [0, 0, 1, 2], iteration=1))
    sink.close_iteration(result_with(IterationOutcome.LIVELOCK_CANDIDATE, [0, 1], iteration=3))
    sink.close_iteration(
        result_with(
            IterationOutcome.DATA_RACE,
            [0, 0],
            iteration=0,
            race_detail=RaceDetail(ObjectId(0), 1, 1),
        )
    )
    names = {p.name for p in (tmp_path / "traces").iterdir()}
    assert names == {"bt_1_deadlock", "bt_3_livelock", "data_race0"}
    assert (tmp_path / "traces" / "bt_1_deadlock").read_text() == DEADLOCK_TRACE_BYTES


def test_clean_traces_deleted_by_default(tmp_path):
    sink = TraceSink(tmp_path)
    assert sink.close_iteration(result_with(IterationOutcome.NORMAL_END, [0, 0])) is None
    assert list((tmp_path / "traces").iterdir()) == []


def test_clean_traces_kept_on_request(tmp_path):
    sink = TraceSink(tmp_path, keep_all_traces=True)
    sink.close_iteration(result_with(IterationOutcome.NORMAL_END, [0, 0], iteration=2))
    assert (tmp_path / "traces" / "trace_2").read_text() == "1 0.\n2 0.\n"


def test_report_lines(tmp_path):
    sink = TraceSink(tmp_path)
    deadlock = sink.close_iteration(
        result_with(IterationOutcome.DEADLOCK, [0, 0, 1, 2], iteration=1)
    )
    race = sink.close_iteration(
        result_with(
            IterationOutcome.DATA_RACE,
            [0, 0],
            iteration=4,
            race_detail=RaceDetail(ObjectId(2), 1, 1),
        )
    )
    report = sink.write_report([deadlock, race]).read_text().splitlines()
    assert report[0].startswith("# generated ")
    assert report[1] == "deadlock iteration=1 trace=bt_1_deadlock"
    assert report[2] == (
        "data-race iteration=4 object=2 readers=1 writers=1 trace=data_race4"
    )
    assert summary_line(deadlock) == report[1]


def test_replay_reproduces_the_deadlock(tmp_path):
    program = get_program("deadlock-two-mutexes")
    report = explore(program, ExplorationConfig(out_dir=tmp_path))
    deadlocks = [v for v in report.violations if v.kind is ViolationKind.DEADLOCK]
    assert deadlocks
    victim = deadlocks[0]
    recorded = parse_trace(tmp_path / "traces" / victim.trace_file)
    rep = replay(program, recorded)
    assert rep.violation_kind is ViolationKind.DEADLOCK
    assert rep.trace.steps == victim.trace.steps


def test_replay_twice_is_byte_identical(tmp_path):
    program = get_program("data-race-flag")
    report = explore(program, ExplorationConfig(out_dir=tmp_path))
    victim = report.violations[0]
    recorded = parse_trace(tmp_path / "traces" / victim.trace_file)
    first = replay(program, recorded)
    second = replay(program, recorded)
    assert first.violation_kind is ViolationKind.DATA_RACE
    assert first.op_log == second.op_log
    assert first.op_log  # non-empty log


def test_replay_canonical_race_trace_reproduces_the_race(tmp_path):
    # The canonical 4-step schedule of the race example: the overlap
    # fires during the second step, before the schedule is exhausted.
    path = tmp_path / "data_race0"
    path.write_text(RACE_TRACE_BYTES)
    rep = replay(get_program("data-race-flag"), parse_trace(path))
    assert rep.violation_kind is ViolationKind.DATA_RACE


def test_replay_canonical_deadlock_trace_reproduces_the_deadlock(tmp_path):
    path = tmp_path / "bt_1_deadlock"
    path.write_text(DEADLOCK_TRACE_BYTES)
    rep = replay(get_program("deadlock-two-mutexes"), parse_trace(path))
    assert rep.violation_kind is ViolationKind.DEADLOCK
    assert rep.trace.steps == [0, 0, 1, 2]


def test_replay_divergence_on_the_wrong_program():
    from shadowcheck import ReplayDivergenceError

    program = get_program("two-writes-independent")
    with pytest.raises(ReplayDivergenceError):
        replay(program, Trace(steps=[0, 0, 1, 1, 1]))


def test_replay_of_a_trace_whose_step_yields_diverges():
    from shadowcheck import ReplayDivergenceError

    # Step 4 schedules thread 2, whose lock fails: a recorded trace never
    # holds such a step, so the replay reports the divergence at its
    # position instead of using the step up and ending in a deadlock.
    program = get_program("deadlock-two-mutexes")
    with pytest.raises(ReplayDivergenceError) as err:
        replay(program, Trace(steps=[0, 0, 1, 2, 2, 1]))
    assert err.value.step_index == 4


def test_replay_of_a_clean_trace_completes_normally(tmp_path):
    program = get_program("two-writes-independent")
    results = []
    explore(
        program,
        ExplorationConfig(out_dir=tmp_path, keep_all_traces=True),
        iteration_callback=results.append,
    )
    recorded = parse_trace(tmp_path / "traces" / "trace_0")
    rep = replay(program, recorded)
    assert rep.outcome is IterationOutcome.NORMAL_END
    assert rep.violation_kind is None
