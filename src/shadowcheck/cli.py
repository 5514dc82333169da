"""Command-line entry point.

Exit codes: 0 clean completion with no violations, 1 violations found,
2 usage or configuration error, 3 internal error.
"""

from __future__ import annotations

import argparse
import socket
import sys
from pathlib import Path

from . import dispatch
from .corpus import PROGRAMS, get_program
from .errors import CheckerError, ProtocolError, ReplayDivergenceError, UsageError
from .explorer import ExplorationConfig, explore
from .scheduler import estimate_bound
from .tracer import parse_trace, recorded_run, replay

EXIT_CLEAN = 0
EXIT_VIOLATIONS = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shadowcheck",
        description="systematically explore thread interleavings of shadow-API programs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--program", required=True, help="corpus program name")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--bound", type=int, default=None, help="depth bound per execution")
        p.add_argument("--no-dpor", action="store_true", help="explore without reduction")
        p.add_argument("--no-race", action="store_true", help="disable the race detector")
        p.add_argument(
            "--strict-races",
            action="store_true",
            help="also report writer-writer overlaps (extension)",
        )
        p.add_argument("--keep-all-traces", action="store_true")
        p.add_argument("--seed-trace", default=None, help="replay this prefix first")

    check = sub.add_parser("check", help="explore a program's interleavings")
    add_common(check)
    check.add_argument("--nodes", type=int, default=1, help="worker node count")
    check.add_argument(
        "--workers", default=None, help="comma-separated worker addresses (host:port)"
    )

    rep = sub.add_parser("replay", help="re-execute a recorded trace")
    rep.add_argument("--program", required=True)
    rep.add_argument("--trace", required=True)
    rep.add_argument(
        "--bound",
        type=int,
        default=None,
        help="depth bound (default: the one in the run's report.txt, else the program's)",
    )
    rep.add_argument("--no-race", action="store_true")

    worker = sub.add_parser("worker", help="serve one workload from a master")
    add_common(worker)
    worker.add_argument("--listen", required=True, help="host:port to listen on")

    est = sub.add_parser("estimate-bound", help="sum per-thread partition counts")
    est.add_argument("partitions", type=int, nargs="+")

    sub.add_parser("list-programs", help="list the built-in corpus")

    return parser


def _resolve_program(name: str) -> object:
    try:
        return get_program(name)
    except KeyError as exc:
        print(exc, file=sys.stderr)
        raise SystemExit(EXIT_USAGE) from None


def _config_from_args(args: argparse.Namespace) -> ExplorationConfig:
    return ExplorationConfig(
        out_dir=Path(args.out),
        bound=args.bound,
        dpor_enabled=not args.no_dpor,
        race_enabled=not args.no_race,
        strict_races=args.strict_races,
        keep_all_traces=args.keep_all_traces,
        node_count=getattr(args, "nodes", 1),
        seed_trace=args.seed_trace,
    )


def _cmd_check(args: argparse.Namespace) -> int:
    program = _resolve_program(args.program)
    config = _config_from_args(args)
    if args.workers:
        addresses = [a for a in args.workers.split(",") if a]
        report = dispatch.check_remote(program, config, addresses)
    elif config.node_count > 1:
        report = dispatch.check_distributed(program, config)
    else:
        report = explore(program, config)
    print(
        f"iterations={report.iterations_run} points={report.points_explored} "
        f"violations={len(report.violations)} bound-warnings={report.bound_warnings}"
    )
    for v in report.violations:
        print(f"  {v.kind.value} iteration={v.iteration} trace={v.trace_file}")
    return EXIT_VIOLATIONS if report.violations else EXIT_CLEAN


def _cmd_replay(args: argparse.Namespace) -> int:
    program = _resolve_program(args.program)
    trace = parse_trace(args.trace)
    # A trace lives in <out>/traces/; the run's report is <out>/report.txt.
    bound, strict = recorded_run(Path(args.trace).resolve().parent.parent / "report.txt")
    result = replay(
        program,
        trace,
        bound=bound if args.bound is None else args.bound,
        race_enabled=not args.no_race,
        strict_races=strict,
    )
    sys.stdout.write("".join(op.to_wire() + "\n" for op in result.op_log))
    print(f"outcome={result.outcome.value}")
    return EXIT_VIOLATIONS if result.violation_kind is not None else EXIT_CLEAN


def _cmd_worker(args: argparse.Namespace) -> int:
    program = _resolve_program(args.program)
    config = _config_from_args(args)
    host, _, port = args.listen.rpartition(":")
    server = socket.create_server((host or "127.0.0.1", int(port)))
    with server:
        conn, _ = server.accept()
        with conn, conn.makefile("r") as rfile, conn.makefile("w") as wfile:
            dispatch.serve_worker(rfile, wfile, program, config)
    print("workload complete")
    return EXIT_CLEAN


def _cmd_estimate_bound(args: argparse.Namespace) -> int:
    try:
        print(estimate_bound(args.partitions))
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return EXIT_USAGE
    return EXIT_CLEAN


def _cmd_list_programs(_: argparse.Namespace) -> int:
    for name in sorted(PROGRAMS):
        print(f"{name:26s} {PROGRAMS[name].description}")
    return EXIT_CLEAN


_COMMANDS = {
    "check": _cmd_check,
    "replay": _cmd_replay,
    "worker": _cmd_worker,
    "estimate-bound": _cmd_estimate_bound,
    "list-programs": _cmd_list_programs,
}


def run(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except (ProtocolError, ReplayDivergenceError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (UsageError, CheckerError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
