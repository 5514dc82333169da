import hashlib
import socket
import threading

from shadowcheck.cli import run
from shadowcheck.tracer import parse_trace


def test_estimate_bound_prints_the_sum(capsys):
    assert run(["estimate-bound", "4", "3", "3"]) == 0
    assert capsys.readouterr().out.strip() == "10"


def test_estimate_bound_rejects_bad_counts(capsys):
    assert run(["estimate-bound", "4", "0"]) == 2


def test_list_programs_names_the_corpus(capsys):
    assert run(["list-programs"]) == 0
    out = capsys.readouterr().out
    for name in ("deadlock-two-mutexes", "data-race-flag", "livelock-philosophers"):
        assert name in out


def test_unknown_program_exits_usage_and_lists_alternatives(capsys):
    code = run(["check", "--program", "nope", "--out", "/tmp/unused"])
    assert code == 2
    err = capsys.readouterr().err
    assert "deadlock-two-mutexes" in err


def test_check_deadlock_corpus(tmp_path, capsys):
    code = run(["check", "--program", "deadlock-two-mutexes", "--out", str(tmp_path)])
    assert code == 1
    assert list((tmp_path / "traces").glob("bt_*_deadlock"))
    assert (tmp_path / "report.txt").exists()
    assert "deadlock" in capsys.readouterr().out


def test_check_clean_program_exits_zero(tmp_path):
    assert run(["check", "--program", "two-writes-independent", "--out", str(tmp_path)]) == 0


def test_replay_reproduces_the_race(tmp_path, capsys):
    assert run(["check", "--program", "data-race-flag", "--out", str(tmp_path)]) == 1
    capsys.readouterr()
    trace = next((tmp_path / "traces").glob("data_race*"))
    code = run(["replay", "--program", "data-race-flag", "--trace", str(trace)])
    assert code == 1
    out = capsys.readouterr().out
    assert "outcome=data-race" in out
    assert "{n,0,dc,dc}" in out  # the visible-op log is printed


def test_replay_uses_the_bound_of_the_run(tmp_path, capsys):
    args = ["--program", "livelock-philosophers"]
    assert run(["check", *args, "--out", str(tmp_path), "--bound", "18"]) == 1
    header = (tmp_path / "report.txt").read_text().splitlines()[0]
    assert header.startswith("# generated ") and header.endswith(" bound=18")
    capsys.readouterr()
    trace = tmp_path / "traces" / "bt_14_livelock"
    assert run(["replay", *args, "--trace", str(trace)]) == 1
    assert "outcome=livelock-candidate" in capsys.readouterr().out
    # Away from its run's report the program's default bound (120) applies,
    # and under it the same schedule ends normally.
    (tmp_path / "copy" / "traces").mkdir(parents=True)
    moved = tmp_path / "copy" / "traces" / trace.name
    moved.write_text(trace.read_text())
    assert run(["replay", *args, "--trace", str(moved)]) == 0
    assert "outcome=normal-end" in capsys.readouterr().out


def test_replay_uses_the_race_mode_of_the_run(tmp_path, capsys):
    # Only strict detection calls the writer-writer overlap a race, so the
    # trace must replay under the mode its run recorded.
    args = ["--program", "two-writes-dependent"]
    assert run(["check", *args, "--out", str(tmp_path), "--strict-races"]) == 1
    header = (tmp_path / "report.txt").read_text().splitlines()[0]
    assert header.endswith(" races=strict")
    capsys.readouterr()
    trace = tmp_path / "traces" / "data_race0"
    assert run(["replay", *args, "--trace", str(trace)]) == 1
    assert "outcome=data-race" in capsys.readouterr().out


def test_report_is_deterministic_modulo_timestamp(tmp_path):
    for sub in ("a", "b"):
        assert (
            run(["check", "--program", "deadlock-two-mutexes", "--out", str(tmp_path / sub)])
            == 1
        )
    read = lambda sub: (tmp_path / sub / "report.txt").read_text().splitlines()[1:]
    assert read("a") == read("b")


def test_check_with_in_process_nodes(tmp_path):
    code = run(
        ["check", "--program", "deadlock-two-mutexes", "--out", str(tmp_path), "--nodes", "2"]
    )
    assert code == 1


def test_check_no_dpor_finds_the_deadlock_too(tmp_path):
    assert (
        run(["check", "--program", "deadlock-two-mutexes", "--out", str(tmp_path), "--no-dpor"])
        == 1
    )


def test_check_against_a_tcp_worker(tmp_path):
    server = socket.create_server(("127.0.0.1", 0))
    port = server.getsockname()[1]

    def worker():
        from shadowcheck import dispatch
        from shadowcheck.corpus import get_program
        from shadowcheck.explorer import ExplorationConfig

        conn, _ = server.accept()
        with conn, conn.makefile("r") as r, conn.makefile("w") as w:
            dispatch.serve_worker(
                r,
                w,
                get_program("deadlock-two-mutexes"),
                ExplorationConfig(out_dir=tmp_path / "worker", node_id=1),
            )

    thread = threading.Thread(target=worker, daemon=True)
    thread.start()
    code = run(
        [
            "check",
            "--program",
            "deadlock-two-mutexes",
            "--out",
            str(tmp_path / "master"),
            "--workers",
            f"127.0.0.1:{port}",
        ]
    )
    thread.join(timeout=60)
    server.close()
    assert code == 1


def test_check_against_a_cli_worker(tmp_path, capsys, monkeypatch):
    # The worker command binds port 0; the wrapped ``create_server`` tells
    # the test which port it got.
    servers = []
    bound = threading.Event()
    create_server = socket.create_server

    def recording_create_server(*args, **kwargs):
        server = create_server(*args, **kwargs)
        servers.append(server)
        bound.set()
        return server

    monkeypatch.setattr(socket, "create_server", recording_create_server)
    program = ["--program", "deadlock-two-mutexes"]
    codes = []
    worker = threading.Thread(
        target=lambda: codes.append(
            run(["worker", *program, "--out", str(tmp_path / "worker"), "--listen", "127.0.0.1:0"])
        ),
        daemon=True,
    )
    worker.start()
    assert bound.wait(timeout=60)
    port = servers[0].getsockname()[1]
    master = ["--out", str(tmp_path / "master"), "--workers", f"127.0.0.1:{port}"]
    code = run(["check", *program, *master])
    worker.join(timeout=60)
    assert not worker.is_alive()
    assert (codes, code) == ([0], 1)
    assert "workload complete" in capsys.readouterr().out.splitlines()
    traces = [p.name for p in (tmp_path / "worker" / "traces").iterdir()]
    assert traces and all(name.startswith("node1_") for name in traces)


def test_a_worker_report_missing_a_field_exits_usage(tmp_path, capsys):
    # A fake worker: it takes the workload and answers with a report that
    # lacks ``iterations_run``.
    server = socket.create_server(("127.0.0.1", 0))
    port = server.getsockname()[1]

    def worker():
        conn, _ = server.accept()
        with conn, conn.makefile("r") as r, conn.makefile("w") as w:
            w.write("HELLO 1\n")
            w.flush()
            count = int(r.readline().split()[1])
            for _ in range(count):
                r.readline()
            w.write('DONE 0\n{"node_id": 1, "bound_warnings": 0, "points_explored": 0,'
                    ' "unfair_prunes": 0, "violations": []}\n')
            w.flush()
            r.readline()

    thread = threading.Thread(target=worker, daemon=True)
    thread.start()
    code = run(
        [
            "check",
            "--program",
            "deadlock-two-mutexes",
            "--out",
            str(tmp_path),
            "--workers",
            f"127.0.0.1:{port}",
        ]
    )
    thread.join(timeout=60)
    server.close()
    assert code == 2
    assert "missing field 'iterations_run'" in capsys.readouterr().err


def test_seed_trace_flag(tmp_path):
    seed = tmp_path / "seed"
    seed.write_text("1 0.\n2 0.\n")
    code = run(
        [
            "check",
            "--program",
            "two-writes-independent",
            "--out",
            str(tmp_path),
            "--seed-trace",
            str(seed),
        ]
    )
    assert code == 0


def test_keep_all_traces_flag(tmp_path):
    run(
        [
            "check",
            "--program",
            "two-writes-independent",
            "--out",
            str(tmp_path),
            "--keep-all-traces",
        ]
    )
    kept = list((tmp_path / "traces").glob("trace_*"))
    assert kept
    parse_trace(kept[0])  # well-formed


def test_keep_all_traces_writes_every_decision_log(tmp_path):
    # One log per iteration, with replayed, forced, free and yielding
    # grants; the bytes were recorded when the explorer wrote these logs.
    run(
        [
            "check",
            "--program",
            "deadlock-two-mutexes",
            "--out",
            str(tmp_path),
            "--keep-all-traces",
        ]
    )
    logs = sorted((tmp_path / "traces").glob("decisions_*.log"))
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()[:16] for p in logs}
    assert digests == {
        "decisions_0.log": "74a55a0ad8e4d532",
        "decisions_1.log": "16efe3107c109bda",
        "decisions_2.log": "140ac5928a5d81e5",
        "decisions_3.log": "f1b71f53954cb754",
        "decisions_4.log": "3939c0b3059ba7fe",
    }
    assert (tmp_path / "traces" / "decisions_2.log").read_text() == (
        "step=0 pick=0 mode=replay\n"
        "step=1 pick=0 mode=replay\n"
        "step=2 pick=2 mode=force\n"
        "step=3 pick=0 mode=free\n"
        "step=4 pick=1 mode=free\n"
        "step=5 pick=1 mode=free\n"
        "step=6 pick=2 mode=free\n"
        "step=7 pick=0 mode=free\n"
    )
