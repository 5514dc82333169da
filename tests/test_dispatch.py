import io
import os
import re
import socket
import subprocess
import sys
import threading
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import shadowcheck
from shadowcheck import Api, BacktrackPoint, DispatchError, ProgramHandle, ViolationKind
from shadowcheck.corpus import get_program
from shadowcheck.dispatch import (
    Workload,
    check_distributed,
    decode_point,
    decode_report,
    encode_point,
    encode_report,
    partition,
    send_workload,
    serve_worker,
)
from shadowcheck.explorer import ExplorationConfig, explore


def point(prefix, depth, pending, done=frozenset(), iteration=0):
    return BacktrackPoint(
        depth=depth,
        prefix=tuple(prefix),
        pending=set(pending),
        done=set(done),
        discovery_iteration=iteration,
    )


def test_partition_round_robins_deepest_first():
    points = [point([0] * d, d, {1}) for d in (5, 4, 3, 2, 1)]
    workloads = partition(points, 2)
    assert [len(w.points) for w in workloads] == [3, 2]
    assert [p.depth for p in workloads[0].points] == [5, 3, 1]
    assert [p.depth for p in workloads[1].points] == [4, 2]


def test_partition_handles_fewer_points_than_nodes():
    workloads = partition([], 4)
    assert len(workloads) == 4
    assert all(w.points == [] for w in workloads)


def test_partition_with_one_node_is_identity():
    points = [point([0], 1, {1}), point([0, 0], 2, {2})]
    assert partition(points, 1)[0].points == points


def test_every_point_lands_on_exactly_one_node():
    points = [point([0] * d, d, {1}) for d in range(1, 8)]
    workloads = partition(points, 3)
    assigned = [p for w in workloads for p in w.points]
    assert sorted(p.depth for p in assigned) == sorted(p.depth for p in points)


_points = st.builds(
    lambda prefix, pending, done, iteration: BacktrackPoint(
        depth=len(prefix),
        prefix=tuple(prefix),
        pending=set(pending) - set(done) or {99},
        done=set(done),
        discovery_iteration=iteration,
    ),
    st.lists(st.integers(0, 9), max_size=12),
    st.sets(st.integers(0, 9), min_size=1, max_size=4),
    st.sets(st.integers(10, 19), max_size=4),
    st.integers(0, 100),
)


@given(_points)
def test_point_codec_round_trip(p):
    decoded = decode_point(encode_point(p))
    assert (decoded.prefix, decoded.depth) == (p.prefix, p.depth)
    assert decoded.pending == p.pending
    assert decoded.done == p.done
    assert decoded.discovery_iteration == p.discovery_iteration


def test_decode_rejects_malformed_records():
    with pytest.raises(DispatchError):
        decode_point("depth=1 pending=2")
    with pytest.raises(DispatchError):
        decode_point("what even is this")
    for record in (
        "depth=x iter=0 done= pending=1 prefix=",
        "depth=2 iter=0 done= pending=1 prefix=0",
    ):
        with pytest.raises(DispatchError, match=re.escape(record)):
            decode_point(record)


def test_non_numeric_counts_are_rejected(tmp_path):
    with pytest.raises(DispatchError, match="'DONE x'"):
        send_workload(io.StringIO("HELLO\nDONE x\n"), io.StringIO(), Workload(node_id=1))
    with pytest.raises(DispatchError, match="'WORKLOAD 1 -1'"):
        serve_worker(
            io.StringIO("WORKLOAD 1 -1\n"),
            io.StringIO(),
            get_program("spin-flag"),
            ExplorationConfig(out_dir=tmp_path),
        )


GOOD_REPORT = (
    '{"node_id": 1, "iterations_run": 2, "bound_warnings": 0, "points_explored": 1,'
    ' "unfair_prunes": 0, "violations": [{"kind": "deadlock", "iteration": 1,'
    ' "steps": [0, 1], "trace_file": null, "race": null}]}'
)


def _scripted_worker_report(report_line: str):
    """The master's side of a link whose worker sends ``report_line`` as its report."""
    script = io.StringIO(f"HELLO\nDONE 0\n{report_line}\n")
    return send_workload(script, io.StringIO(), Workload(node_id=1))


def test_a_scripted_worker_report_decodes():
    report = _scripted_worker_report(GOOD_REPORT)
    assert (report.node_id, report.iterations_run, report.points_explored) == (1, 2, 1)
    assert [(v.kind, v.trace.steps) for v in report.violations] == [
        (ViolationKind.DEADLOCK, [0, 1])
    ]


@pytest.mark.parametrize(
    "line",
    [
        GOOD_REPORT.replace('"iterations_run": 2, ', ""),
        GOOD_REPORT[:-1],
        GOOD_REPORT.replace('"deadlock"', '"meltdown"'),
        GOOD_REPORT.replace('"iterations_run": 2', '"iterations_run": "2"'),
        GOOD_REPORT.replace('"violations": [', '"violations": [7, '),
        "[]",
    ],
    ids=["missing-field", "bad-json", "unknown-kind", "string-count", "bad-entry", "not-a-dict"],
)
def test_a_malformed_worker_report_is_a_dispatch_error(line):
    with pytest.raises(DispatchError, match=re.escape(repr(line))):
        _scripted_worker_report(line)


def test_report_codec_round_trip(tmp_path):
    original = explore(get_program("spin-flag"), ExplorationConfig(out_dir=tmp_path))
    assert original.unfair_prunes > 0
    decoded = decode_report(encode_report(original))
    assert decoded.iterations_run == original.iterations_run
    assert decoded.points_explored == original.points_explored
    assert decoded.bound_warnings == original.bound_warnings
    assert decoded.unfair_prunes == original.unfair_prunes
    assert [(v.kind, tuple(v.trace.steps)) for v in decoded.violations] == [
        (v.kind, tuple(v.trace.steps)) for v in original.violations
    ]


def _run_protocol(workload, program, config):
    left, right = socket.socketpair()
    box = {}

    def worker():
        with right.makefile("r") as r, right.makefile("w") as w:
            serve_worker(r, w, program, config)

    thread = threading.Thread(target=worker, daemon=True)
    thread.start()
    with left.makefile("r") as r, left.makefile("w") as w:
        box["report"] = send_workload(r, w, workload)
    thread.join(timeout=60)
    left.close()
    right.close()
    return box["report"]


def test_wire_protocol_round_trip(tmp_path):
    program = get_program("deadlock-two-mutexes")
    master = ExplorationConfig(out_dir=tmp_path, node_id=0)
    from shadowcheck.explorer import Explorer

    points = Explorer(program, master).explore_initial()
    assert points
    workload = Workload(node_id=1, points=points)
    report = _run_protocol(workload, program, ExplorationConfig(out_dir=tmp_path))
    assert report.node_id == 1  # the workload header's, not the worker's config
    assert report.iterations_run >= 1
    kinds = {v.kind for v in report.violations}
    assert ViolationKind.DEADLOCK in kinds


def test_wire_protocol_with_empty_workload(tmp_path):
    report = _run_protocol(
        Workload(node_id=2),
        get_program("two-writes-independent"),
        ExplorationConfig(out_dir=tmp_path),
    )
    assert report.iterations_run == 0
    assert report.violations == []


def test_worker_over_tcp(tmp_path):
    program = get_program("deadlock-two-mutexes")
    server = socket.create_server(("127.0.0.1", 0))
    port = server.getsockname()[1]

    def worker():
        conn, _ = server.accept()
        with conn, conn.makefile("r") as r, conn.makefile("w") as w:
            serve_worker(r, w, program, ExplorationConfig(out_dir=tmp_path))

    thread = threading.Thread(target=worker, daemon=True)
    thread.start()
    from shadowcheck.explorer import Explorer

    points = Explorer(program, ExplorationConfig(out_dir=tmp_path, node_id=0)).explore_initial()
    with socket.create_connection(("127.0.0.1", port)) as conn:
        with conn.makefile("r") as r, conn.makefile("w") as w:
            report = send_workload(r, w, Workload(node_id=1, points=points))
    thread.join(timeout=60)
    server.close()
    assert {v.kind for v in report.violations} == {ViolationKind.DEADLOCK}


def test_distributed_run_merges_node_reports(tmp_path):
    program = get_program("deadlock-two-mutexes")
    single = check_distributed(program, ExplorationConfig(out_dir=tmp_path / "n1", node_count=1))
    double = check_distributed(program, ExplorationConfig(out_dir=tmp_path / "n2", node_count=2))
    assert {v.kind for v in single.violations} == {v.kind for v in double.violations}
    assert {tuple(v.trace.steps) for v in single.violations} == {
        tuple(v.trace.steps) for v in double.violations
    }


def test_worker_trace_files_carry_the_node_prefix(tmp_path):
    program = get_program("deadlock-two-mutexes")
    report = check_distributed(
        program, ExplorationConfig(out_dir=tmp_path, node_count=2)
    )
    worker_files = [
        v.trace_file for v in report.violations if v.trace_file and v.trace_file.startswith("node")
    ]
    for name in worker_files:
        assert (tmp_path / "traces" / name).exists()


def test_unfair_prunes_add_up_across_nodes(tmp_path):
    program = get_program("spin-flag")
    single = check_distributed(program, ExplorationConfig(out_dir=tmp_path / "n1", node_count=1))
    double = check_distributed(program, ExplorationConfig(out_dir=tmp_path / "n2", node_count=2))
    assert double.iterations_run == single.iterations_run
    assert double.unfair_prunes == single.unfair_prunes == 1


class _ReadOne(Exception):
    pass


def _fails_when_two_writes_first(api: Api) -> None:
    cell = api.register_shared(0)
    t1 = api.spawn_thread(lambda a: a.write(cell, 1))
    t2 = api.spawn_thread(lambda a: a.write(cell, 2))
    api.join(t1)
    api.join(t2)
    if api.read(cell) == 1:
        raise _ReadOne("read 1")


def test_a_failing_worker_raises_instead_of_hanging(tmp_path):
    program = ProgramHandle(name="read-one", entry=_fails_when_two_writes_first)
    with pytest.raises(_ReadOne):
        explore(program, ExplorationConfig(out_dir=tmp_path / "n1"))

    outcome = {}

    def run() -> None:
        try:
            check_distributed(program, ExplorationConfig(out_dir=tmp_path / "n2", node_count=2))
        except BaseException as exc:
            outcome["error"] = exc

    # A regression hangs; the daemon thread turns that into a failure.
    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    thread.join(timeout=30)
    assert not thread.is_alive(), "check_distributed hung on a failing worker"
    error = outcome.get("error")
    assert isinstance(error, DispatchError)
    # The failing schedule (the second write first) is node 2's root branch;
    # node 1 hands it back rather than exploring it too.
    assert "worker 2" in str(error)
    assert isinstance(error.__cause__, _ReadOne)


def test_importing_the_package_loads_neither_socket_nor_datetime():
    # Only the links and ``write_report`` need them, and every set-up pays
    # for what the package imports.
    src = str(Path(shadowcheck.__file__).parent.parent)
    probe = (
        "import sys; before = set(sys.modules); import shadowcheck; "
        "print(sorted({'socket', 'datetime'} & (set(sys.modules) - before)))"
    )
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "[]"
