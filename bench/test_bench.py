"""The benchmark's own tests: the reference, the generator and the harness.

Run with ``python3 -m pytest bench``.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import randmix
import run as harness
import workloads
from reference import MixProgram, Op, Verdict, enumerate_verdict

ROOT = Path(__file__).resolve().parent.parent


def _terminals_and_kinds(program: MixProgram, tmp_path: Path, **config) -> Verdict:
    from shadowcheck import ExplorationConfig, IterationOutcome, explore

    terminals = set()

    def collect(result) -> None:
        if result.outcome is IterationOutcome.NORMAL_END:
            terminals.add(result.terminal_cells)

    report = explore(
        randmix.to_program(program, "t"),
        ExplorationConfig(out_dir=tmp_path, **config),
        iteration_callback=collect,
    )
    return Verdict(frozenset(terminals), frozenset(v.kind.value for v in report.violations))


def test_reference_two_writes_dependent():
    # Two threads write one cell: either write lands last; two pending
    # writes are no race outside strict mode.
    program = MixProgram(
        workers=((Op("write", 0, 1),), (Op("write", 0, 2),)), n_cells=1, n_mutexes=0, sem_initial=0
    )
    assert enumerate_verdict(program) == Verdict(frozenset({(1,), (2,)}), frozenset())


WAITER_POSTER = MixProgram(
    workers=(
        (Op("lock", 0), Op("wait", 0), Op("unlock", 0)),
        (Op("write", 0, 1), Op("lock", 0), Op("post", 0), Op("unlock", 0)),
    ),
    n_cells=1,
    n_mutexes=1,
    sem_initial=0,
)


def test_reference_waiter_poster():
    # The waiter takes the mutex first and waits for a post that needs the
    # mutex: deadlock. The poster takes it first: normal end with c = 1.
    assert enumerate_verdict(WAITER_POSTER) == Verdict(frozenset({(1,)}), frozenset({"deadlock"}))


def test_reference_trylock_skips_unlock_after_failed_try():
    program = MixProgram(
        workers=(
            (Op("lock", 0), Op("write", 0, 1), Op("unlock", 0)),
            (Op("trylock", 0), Op("write", 1, 2), Op("tryunlock", 0)),
        ),
        n_cells=2,
        n_mutexes=1,
        sem_initial=0,
    )
    assert enumerate_verdict(program) == Verdict(frozenset({(1, 2)}), frozenset())


def test_reference_agrees_with_exhaustive_exploration(tmp_path):
    """Without reduction the checker enumerates every schedule; it must agree."""
    programs = randmix.draw_programs(7, 30)
    for i, program in enumerate(programs):
        exhaustive = _terminals_and_kinds(program, tmp_path / str(i), dpor_enabled=False)
        assert exhaustive == enumerate_verdict(program), program


def _roadmap_shape(program: MixProgram) -> bool:
    """A wait inside one worker's mutex segment, a post inside another's segment of it."""

    def inside(ops, kind):
        held, found = None, set()
        for op in ops:
            if op.kind in ("lock", "trylock"):
                held = op.target
            elif op.kind in ("unlock", "tryunlock"):
                held = None
            elif op.kind == kind and held is not None:
                found.add(held)
        return found

    waits = [inside(ops, "wait") for ops in program.workers]
    posts = [inside(ops, "post") for ops in program.workers]
    return any(
        waits[i] & posts[j] for i in range(len(waits)) for j in range(len(posts)) if i != j
    )


def test_generator_draws_the_missed_behaviour_shape():
    rng = random.Random(3)
    assert any(_roadmap_shape(randmix.random_program(rng)) for _ in range(5000))
    assert all(
        p.interleaving_estimate() <= randmix.INTERLEAVING_CAP for p in randmix.draw_programs(3, 50)
    )


def test_generator_is_seeded():
    assert randmix.draw_programs(5, 20) == randmix.draw_programs(5, 20)
    assert randmix.draw_programs(5, 20) != randmix.draw_programs(6, 20)


def _small_run() -> harness.Run:
    from shadowcheck.corpus import get_program

    livelock = workloads.WORKLOADS["livelock-nodes2"]
    ops = [
        workloads.Operation(get_program(workloads.LIVELOCK_PROGRAM), bound=18, nodes=1),
        workloads.Operation(get_program(workloads.LIVELOCK_PROGRAM), bound=18, nodes=2),
    ]
    programs = randmix.draw_programs(2, 8)
    ops += [workloads.Operation(randmix.to_program(p, f"m{i}")) for i, p in enumerate(programs)]
    for op in ops[:2]:
        op.reference = workloads.LIVELOCK_VERDICT
    for op, p in zip(ops[2:], programs):
        op.reference = enumerate_verdict(p)
    return harness.Run(livelock, ops)


def test_traced_and_untraced_runs_agree():
    run = _small_run()
    try:
        metrics, info = harness.traced(run, seconds=0)
    finally:
        run.close()
    # Every operation ran once untraced and once traced; iterations, steps
    # and violation lists matched between the two.
    assert run.attempted == 2 * len(run.ops)
    assert run.inconsistent == []
    assert run.wrong_outputs == 0
    assert len(run.signatures) == len(run.ops)
    # Layer self times add up to the traced wall time.
    accounted = sum(info["accounting"].values())
    assert accounted == pytest.approx(info["last traced wall_s"], rel=1e-3)
    assert metrics["dispatch.points_shipped"] > 0
    assert metrics["scheduler.decisions"] >= metrics["explorer.points_taken"]


def test_a_missing_entry_point_raises():
    import spans
    from shadowcheck import explorer

    patches = spans.Patches()
    with pytest.raises(KeyError):
        patches.wrap(explorer.BacktrackStore, "no_such_method", lambda original: original)
    patches.undo()


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == harness.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == harness.PER_LAYER
    assert spec["command"] == ["python3", "bench/run.py"]


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "livelock-nodes2", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
