"""No schedule is explored twice across nodes.

Each worker owns the subtrees under its roots and hands every other point
back to the master, which explores what is still owed. So no two trace
files of a multi-node run hold the same steps, and no violation is
reported twice. On the corpus the nodes also split exactly the one-node
run's schedules: the same unique violations, never more iterations.
"""

from __future__ import annotations

import random
import socket
import threading
from pathlib import Path

import pytest

from shadowcheck.corpus import PROGRAMS, get_program
from shadowcheck.dispatch import check_distributed, check_remote, serve_worker
from shadowcheck.explorer import ExplorationConfig, Explorer
from shadowcheck.runtime import SchedulePlan
from shadowcheck.scheduler import IterationOutcome
from shadowcheck.tracer import parse_trace

from _shadow_ports import to_program
from oracle import AbstractProgram, Op, random_program


def _violations(report) -> list[tuple[str, tuple[int, ...]]]:
    return [(v.kind.value, tuple(v.trace.steps)) for v in report.violations]


def _step_lists_by_name(out_dir: Path) -> dict[str, tuple[int, ...]]:
    """The steps of every trace and violation file, across all node prefixes."""
    return {
        path.name: tuple(parse_trace(path).steps)
        for path in sorted((out_dir / "traces").iterdir())
        if not path.name.endswith(".log")  # decision logs
    }


def explore_split(program, nodes: int, tmp_path: Path, bound=None):
    """Explore on one node and on ``nodes``; check the split run for repeats.

    Returns both reports, each with the set of schedules its run explored.
    """
    runs = []
    for count in (1, nodes):
        out = tmp_path / f"n{count}"
        config = ExplorationConfig(out_dir=out, bound=bound, node_count=count, keep_all_traces=True)
        report = check_distributed(program, config)
        steps = list(_step_lists_by_name(out).values())
        # Every iteration that is not an unfair prune leaves one trace file.
        assert len(steps) == report.iterations_run - report.unfair_prunes
        assert len(set(steps)) == len(steps), "a schedule was explored twice"
        found = _violations(report)
        assert len(set(found)) == len(found), "a violation was reported twice"
        runs.append((report, set(steps)))
    return runs


CORPUS = [
    (name, bound)
    for name in sorted(PROGRAMS)
    for bound in ((18, 22) if name == "livelock-philosophers" else (None,))
]


@pytest.mark.parametrize("nodes", (2, 3, 4))
@pytest.mark.parametrize(
    "name,bound", CORPUS, ids=[f"{n}@{b}" if b else n for n, b in CORPUS]
)
def test_corpus_nodes_explore_each_schedule_once(name, bound, nodes, tmp_path):
    (single, single_steps), (split, split_steps) = explore_split(
        get_program(name), nodes, tmp_path, bound=bound
    )
    assert split.iterations_run <= single.iterations_run
    assert set(_violations(split)) == set(_violations(single))
    assert split_steps == single_steps


def test_livelock_on_two_nodes_runs_the_single_node_iterations(tmp_path):
    program = get_program("livelock-philosophers")
    config = ExplorationConfig(out_dir=tmp_path, bound=18, node_count=2)
    report = check_distributed(program, config)
    assert (report.iterations_run, len(report.violations), report.bound_warnings) == (40, 10, 14)


@pytest.mark.parametrize("nodes", (2, 3))
def test_random_programs_explore_each_schedule_once(nodes, tmp_path):
    """As on the corpus: the nodes split exactly the one-node run's schedules.

    A point keeps every branch banked at it until the branch is taken, so
    the order in which look-back additions reach a point, on this node or
    through the master, does not change which branches it owes.
    """
    rng = random.Random(20261019)
    for i in range(60):
        program = to_program(random_program(rng), f"random-{i}")
        (single, single_steps), (split, split_steps) = explore_split(
            program, nodes, tmp_path / str(i), bound=300
        )
        assert split.iterations_run <= single.iterations_run
        assert set(_violations(split)) == set(_violations(single))
        assert split_steps == single_steps


# One worker reads a cell three times, the other reads and then writes it.
# On two nodes the master explores one of the four iterations itself, from
# a point a worker handed back.
HANDED_BACK = AbstractProgram(
    workers=[[Op("read", 0)] * 3, [Op("read", 0), Op("write", 0, 1)]],
    n_cells=1,
)


def test_a_race_banks_each_racer_once_at_its_latest_state(tmp_path):
    # Iteration 0 announces tid 1's read at depth 3 and tid 2's write at 4,
    # and the race aborts it. The reader is owed a branch where the write
    # is announced, and the writer's thread where the read is; no earlier
    # state of either window is banked.
    explorer = Explorer(to_program(HANDED_BACK, "handed-back"), ExplorationConfig(out_dir=tmp_path))
    result = explorer._run_iteration(0, SchedulePlan())
    assert result.outcome is IterationOutcome.DATA_RACE
    racing = result.race_detail.object
    racers = sorted((int(op.tid), at) for op, at in result.pending if op.target == racing)
    assert racers == [(1, 3), (2, 4)]
    assert [(p.depth, p.pending) for p in explorer.store.live_points()] == [(4, {1}), (3, {2})]


def test_remote_workers_hand_points_back_over_tcp(tmp_path):
    program = to_program(HANDED_BACK, "handed-back")
    local = check_distributed(
        program, ExplorationConfig(out_dir=tmp_path / "local", node_count=2, keep_all_traces=True)
    )
    master_files = [p for p in _step_lists_by_name(tmp_path / "local") if not p.startswith("node")]
    assert len(master_files) == 2  # iteration 0, then one point handed back

    servers = [socket.create_server(("127.0.0.1", 0)) for _ in range(2)]
    failures: list[Exception] = []

    def worker(server, node_id: int) -> None:
        config = ExplorationConfig(out_dir=tmp_path / "remote", node_id=node_id)
        try:
            conn, _ = server.accept()
            with conn, conn.makefile("r") as rfile, conn.makefile("w") as wfile:
                serve_worker(rfile, wfile, program, config)
        except Exception as exc:
            failures.append(exc)

    threads = [
        threading.Thread(target=worker, args=(server, k + 1), daemon=True)
        for k, server in enumerate(servers)
    ]
    for thread in threads:
        thread.start()
    addresses = [f"127.0.0.1:{server.getsockname()[1]}" for server in servers]
    remote = check_remote(program, ExplorationConfig(out_dir=tmp_path / "remote"), addresses)
    for thread in threads:
        thread.join(timeout=60)
    for server in servers:
        server.close()

    assert not any(thread.is_alive() for thread in threads)
    assert not failures
    single = check_distributed(program, ExplorationConfig(out_dir=tmp_path / "single"))
    assert remote.iterations_run == local.iterations_run == single.iterations_run == 4
    assert sorted(_violations(remote)) == sorted(_violations(local))
    assert set(_violations(remote)) == set(_violations(single))
