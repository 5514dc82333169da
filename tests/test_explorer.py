import random

import pytest

from shadowcheck import Api, BacktrackPoint, ProgramHandle
from shadowcheck.dispatch import encode_point
from shadowcheck.explorer import BacktrackStore, ExplorationConfig, Explorer, explore
from shadowcheck.corpus import PROGRAMS, get_program
from shadowcheck.scheduler import IterationOutcome

from _shadow_ports import to_program
from oracle import random_program


def seeded_store(points):
    store = BacktrackStore()
    store.seed(points)
    return store


def point(prefix, depth, pending, done=frozenset(), iteration=0):
    return BacktrackPoint(
        depth=depth,
        prefix=tuple(prefix),
        pending=set(pending),
        done=set(done),
        discovery_iteration=iteration,
    )


def test_select_prefers_the_deepest_point():
    store = seeded_store([point([0, 0], 2, {1}), point([0, 0, 1, 1, 1], 5, {2})])
    assert store.select_point().depth == 5


def test_select_ties_go_to_the_latest_discovery():
    store = seeded_store(
        [point([0, 0], 2, {1}, iteration=1), point([0, 1], 2, {2}, iteration=3)]
    )
    assert store.select_point().discovery_iteration == 3


def test_select_on_empty_store_signals_end():
    assert BacktrackStore().select_point() is None


def test_branch_picks_min_tid_and_deletes_when_spent():
    store = seeded_store([point([0], 1, {2})])
    chosen = store.take_branch(store.select_point())
    assert chosen == 2
    assert store.select_point() is None


def test_branch_keeps_a_still_conflicting_remainder():
    # The branch's own iteration revisits the state and banks its still
    # conflicting ops again: the remainder stays owed and the taken
    # thread is not owed twice.
    store = seeded_store([point([0], 1, {1, 2, 3})])
    assert store.take_branch(store.select_point()) == 1
    store.absorb_state((0,), 1, {1, 2, 3}, scheduled=1, iteration=2)
    survivor = store.select_point()
    assert survivor is not None and survivor.pending == {2, 3}
    assert survivor.done == {1}


def test_branch_keeps_a_pairwise_independent_remainder():
    # A look-back addition owes its thread a branch whether or not the
    # rest of the point still conflicts: an iteration aborted by a race
    # may never execute the step that would bank it again.
    store = seeded_store([point([0], 1, {1, 2, 3})])
    assert store.take_branch(store.select_point()) == 1
    survivor = store.select_point()
    assert survivor is not None and survivor.pending == {2, 3}


def test_exhausted_branches_never_resurrect():
    store = seeded_store([point([0], 1, {1})])
    store.take_branch(store.select_point())
    store.absorb_state((0,), 1, {1, 2}, scheduled=2, iteration=4)
    survivor = store.select_point()
    assert survivor is None  # both 1 (branched) and 2 (scheduled) are done


def test_pending_only_shrinks_per_branch():
    store = seeded_store([point([0], 1, {1, 2, 3})])
    before = len(store.select_point().pending)
    store.take_branch(store.select_point())
    after_point = store.select_point()
    assert after_point is not None and len(after_point.pending) == before - 1
    store.take_branch(after_point)
    last = store.select_point()
    assert last is not None and last.pending == {3}  # a singleton remainder is kept
    store.take_branch(last)
    assert store.select_point() is None


def test_store_file_round_trips(tmp_path):
    path = tmp_path / "btstore.node0"
    store = BacktrackStore(path)
    store.seed([point([0, 1], 2, {2}, done={1}, iteration=5), point([], 0, {1})])
    store.flush()
    reloaded = BacktrackStore(path)
    reloaded.load()
    assert {
        (p.prefix, p.depth, frozenset(p.pending), frozenset(p.done), p.discovery_iteration)
        for p in reloaded.live_points()
    } == {
        (p.prefix, p.depth, frozenset(p.pending), frozenset(p.done), p.discovery_iteration)
        for p in store.live_points()
    }


def _point_tuples(points):
    return [
        (p.prefix, p.depth, p.pending, p.done, p.discovery_iteration) for p in points
    ]


@pytest.mark.parametrize("later_run", [False, True], ids=["same-store", "later-run"])
def test_flush_leaves_no_stale_tail(tmp_path, later_run):
    # The file is rewritten in place; a shorter store must not keep the
    # end of a longer one, whether this store or an earlier run wrote it.
    path = tmp_path / "btstore.node0"
    store = BacktrackStore(path)
    store.seed([point([0], 1, {1}), point([0, 1], 2, {2}), point([0, 1, 2], 3, {0})])
    store.flush()
    assert len(path.read_text().splitlines()) == 3
    if later_run:
        store = BacktrackStore(path)
        store.seed([point([0], 1, {1})])
    else:
        for _ in range(2):
            store.take_branch(store.select_point())
    store.flush()
    (only,) = store.live_points()
    assert path.read_bytes() == (encode_point(only) + "\n").encode()
    reloaded = BacktrackStore(path)
    reloaded.load()
    assert _point_tuples(reloaded.live_points()) == _point_tuples([only])


def test_single_threaded_program_explores_once(tmp_path):
    def entry(api: Api) -> None:
        cell = api.register_shared(0)
        api.write(cell, 1)
        api.read(cell)

    report = explore(
        ProgramHandle(name="solo", entry=entry), ExplorationConfig(out_dir=tmp_path)
    )
    assert report.iterations_run == 1
    assert report.points_explored == 0
    assert report.violations == []


def test_reduction_on_independent_writes(tmp_path):
    report = explore(
        get_program("two-writes-independent"), ExplorationConfig(out_dir=tmp_path)
    )
    assert report.iterations_run == 1


def test_dependent_writes_need_both_orders(tmp_path):
    results = []
    report = explore(
        get_program("two-writes-dependent"),
        ExplorationConfig(out_dir=tmp_path),
        iteration_callback=results.append,
    )
    assert report.iterations_run == 2
    finals = {r.terminal_cells for r in results}
    assert finals == {(1,), (2,)}


def test_no_two_iterations_share_a_trace(tmp_path):
    seen = set()

    def collect(result):
        signature = tuple(result.trace.steps)
        assert signature not in seen
        seen.add(signature)

    explore(
        get_program("deadlock-two-mutexes"),
        ExplorationConfig(out_dir=tmp_path),
        iteration_callback=collect,
    )
    assert len(seen) >= 2


def test_violation_files_exist_on_disk(tmp_path):
    report = explore(get_program("deadlock-two-mutexes"), ExplorationConfig(out_dir=tmp_path))
    for violation in report.violations:
        assert (tmp_path / "traces" / violation.trace_file).exists()


def test_exploration_continues_after_a_violation(tmp_path):
    # The deadlock is found mid-exploration; later iterations still run.
    results = []
    explore(
        get_program("deadlock-two-mutexes"),
        ExplorationConfig(out_dir=tmp_path),
        iteration_callback=results.append,
    )
    deadlock_iterations = [
        r.iteration for r in results if r.outcome is IterationOutcome.DEADLOCK
    ]
    assert deadlock_iterations
    assert max(r.iteration for r in results) > min(deadlock_iterations)


def test_dpor_union_of_violations_matches_exhaustive(tmp_path):
    reduced = explore(
        get_program("deadlock-two-mutexes"), ExplorationConfig(out_dir=tmp_path / "a")
    )
    exhaustive = explore(
        get_program("deadlock-two-mutexes"),
        ExplorationConfig(out_dir=tmp_path / "b", dpor_enabled=False),
    )
    assert {v.kind for v in reduced.violations} == {v.kind for v in exhaustive.violations}
    assert reduced.iterations_run < exhaustive.iterations_run


def test_seed_trace_starts_exploration_from_a_prefix(tmp_path):
    from shadowcheck.tracer import format_trace
    from shadowcheck.model import Trace

    seed = tmp_path / "seed"
    seed.write_text(format_trace(Trace(steps=[0, 0, 2])))
    results = []
    explore(
        get_program("deadlock-two-mutexes"),
        ExplorationConfig(out_dir=tmp_path, seed_trace=seed),
        iteration_callback=results.append,
    )
    assert results[0].trace.steps[:3] == [0, 0, 2]


def test_explore_initial_returns_the_store(tmp_path):
    explorer = Explorer(
        get_program("deadlock-two-mutexes"), ExplorationConfig(out_dir=tmp_path)
    )
    points = explorer.explore_initial()
    assert explorer.report.iterations_run == 1
    assert points  # iteration 0 of the deadlock program banks branch work
    for p in points:
        p.validate()


def test_iterations_that_bank_nothing_do_no_dpor_work(tmp_path, monkeypatch):
    # Livelock candidates, bound warnings and unfair stops bank no points,
    # so the finished log is never mined for them.
    from shadowcheck import explorer

    calls = {"on_execute": 0, "dependent_subset": 0}

    def counting(name):
        original = getattr(explorer, name)

        def counted(*args):
            calls[name] += 1
            return original(*args)

        return counted

    for name in calls:
        monkeypatch.setattr(explorer, name, counting(name))
    work: dict[IterationOutcome, list[int]] = {}
    run_iteration = Explorer._run_iteration

    def measured(self, iteration, plan):
        before = sum(calls.values())
        result = run_iteration(self, iteration, plan)
        work.setdefault(result.outcome, []).append(sum(calls.values()) - before)
        return result

    monkeypatch.setattr(Explorer, "_run_iteration", measured)
    livelock = ExplorationConfig(out_dir=tmp_path / "livelock", bound=18)
    explore(get_program("livelock-philosophers"), livelock)
    explore(get_program("spin-flag"), ExplorationConfig(out_dir=tmp_path / "spin"))
    unbanked = (
        IterationOutcome.LIVELOCK_CANDIDATE,
        IterationOutcome.BOUND_WARNING,
        IterationOutcome.UNFAIR_STOP,
    )
    for outcome in unbanked:
        assert work[outcome] and set(work[outcome]) == {0}, outcome
    assert all(sum(work[o]) > 0 for o in work if o not in unbanked)


MODES = {
    "races": {},
    "no-race": {"race_enabled": False},
    "strict": {"strict_races": True},
    "no-dpor": {"dpor_enabled": False},
}


def _check_banked_branches_are_enabled(monkeypatch) -> list[int]:
    """After each ``_bank``, check every point left owing a branch at a state
    of the banking iteration's trace: each thread it owes was enabled there.
    A state is a function of its prefix, so every such branch can be forced.
    Returns, per banking iteration, how many owed threads it checked."""
    bank = Explorer._bank
    checked = []

    def checking_bank(explorer, result, iteration, replayed):
        stores = (explorer.store, explorer._hand_back)
        before = {id(p): set(p.pending) for store in stores for p in store.live_points()}
        bank(explorer, result, iteration, replayed)
        steps, log = result.trace.steps, result.log.steps
        owed = 0
        for store in stores:
            for p in store.live_points():
                on_trace = p.depth < len(log) and p.prefix == tuple(steps[: p.depth])
                # A point this iteration banked a thread at lies on its trace.
                assert on_trace or p.pending <= before.get(id(p), set()), p
                if on_trace:
                    assert p.pending <= log[p.depth].enabled, p
                    owed += len(p.pending)
        checked.append(owed)

    monkeypatch.setattr(Explorer, "_bank", checking_bank)
    return checked


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_every_banked_branch_names_an_enabled_thread(name, mode, tmp_path, monkeypatch):
    checked = _check_banked_branches_are_enabled(monkeypatch)
    bound = 18 if name == "livelock-philosophers" else None
    explore(get_program(name), ExplorationConfig(out_dir=tmp_path, bound=bound, **MODES[mode]))
    assert checked


def test_every_banked_branch_names_an_enabled_thread_on_random_programs(tmp_path, monkeypatch):
    checked = _check_banked_branches_are_enabled(monkeypatch)
    rng = random.Random(23)
    modes = list(MODES.values())
    for i in range(25):
        program = to_program(random_program(rng), f"random-{i}")
        explore(program, ExplorationConfig(out_dir=tmp_path / str(i), **modes[i % len(modes)]))
    assert sum(checked) > 0
