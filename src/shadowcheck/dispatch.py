"""Workload distribution: point records, partitioning, and the wire protocol.

Backtrack points share one line-oriented record format on disk and on the
wire, so the store file doubles as a shippable workload. After the first
iteration the master partitions the discovered points round-robin across
nodes (deepest first) and marks every branch it ships as done in its own
store.

Each node owns the subtrees under its roots, by prefix (Yang, Chen,
Gopalakrishnan and Kirby, SPIN 2007). It banks a point only at a root's
state, or below a root along a thread that was not done there at
hand-over; those states no other node reaches. Every other point it finds
lies on a root's prefix, on states the master or another node explores,
so it goes back to the master instead, together with each root's final
record (an exhausted point whose done set names every thread taken
there). The master merges all of these into its store, where a thread
done anywhere stays done, and drains what is still owed before merging
the reports. No schedule is explored twice across nodes.

Worker protocol over any reliable byte stream, one message per line:

    worker -> master:  HELLO <node_id>
    master -> worker:  WORKLOAD <count>   followed by <count> point records
    worker -> master:  DONE <count>       followed by <count> point records
                                          handed back, then one JSON report line
    master -> worker:  BYE
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass, field, replace
from typing import IO, Callable

from .errors import DispatchError
from .model import (
    BacktrackPoint,
    ObjectId,
    RaceDetail,
    Trace,
    ViolationKind,
    ViolationReport,
)


# -- point records ---------------------------------------------------------------


def _encode_csv(values) -> str:
    return ",".join(str(int(v)) for v in values)


def _decode_csv(text: str) -> list[int]:
    if text == "":
        return []
    return [int(part) for part in text.split(",")]


def encode_point(point: BacktrackPoint) -> str:
    return (
        f"depth={point.depth}"
        f" iter={point.discovery_iteration}"
        f" done={_encode_csv(sorted(point.done))}"
        f" pending={_encode_csv(sorted(point.pending))}"
        f" prefix={_encode_csv(point.prefix)}"
    )


def decode_point(line: str, *, exhausted_ok: bool = False) -> BacktrackPoint:
    record = line.strip()
    fields: dict[str, str] = {}
    for part in record.split(" "):
        if "=" not in part:
            raise DispatchError(f"malformed field {part!r} in point record {record!r}")
        name, value = part.split("=", 1)
        fields[name] = value
    try:
        point = BacktrackPoint(
            depth=int(fields["depth"]),
            prefix=tuple(_decode_csv(fields["prefix"])),
            pending=set(_decode_csv(fields["pending"])),
            done=set(_decode_csv(fields["done"])),
            discovery_iteration=int(fields["iter"]),
        )
        point.validate(exhausted_ok=exhausted_ok)
    except KeyError as missing:
        raise DispatchError(f"point record {record!r} is missing field {missing}") from None
    except ValueError as exc:
        raise DispatchError(f"corrupt point record {record!r}: {exc}") from None
    return point


# -- partitioning -------------------------------------------------------------------


@dataclass
class Workload:
    node_id: int
    points: list[BacktrackPoint] = field(default_factory=list)


def partition(points: list[BacktrackPoint], n: int) -> list[Workload]:
    """Round-robin the points (already deepest-first) over ``n`` nodes."""
    if n < 1:
        raise ValueError(f"need at least one node, got {n}")
    workloads = [Workload(node_id=i + 1) for i in range(n)]
    for i, point in enumerate(points):
        workloads[i % n].points.append(point)
    return workloads


# -- report serialization --------------------------------------------------------------


# A report's integer fields, in wire order.
_COUNTS = ("node_id", "iterations_run", "bound_warnings", "points_explored", "unfair_prunes")


def encode_report(report) -> str:
    payload = {name: getattr(report, name) for name in _COUNTS}
    payload["violations"] = [
        {
            "kind": v.kind.value,
            "iteration": v.iteration,
            "steps": list(v.trace.steps),
            "trace_file": v.trace_file,
            "race": (
                None
                if v.race_detail is None
                else {
                    "object": int(v.race_detail.object),
                    "readers": v.race_detail.readers_pending,
                    "writers": v.race_detail.writers_pending,
                }
            ),
        }
        for v in report.violations
    ]
    return json.dumps(payload)


def decode_report(text: str):
    """Parse a worker's report line; anything malformed is a ``DispatchError``."""
    from .explorer import ExplorationReport

    try:
        payload = json.loads(text)
        counts = {name: payload[name] for name in _COUNTS}
        if any(type(value) is not int for value in counts.values()):
            raise ValueError(f"a counter is not an integer: {counts}")
        report = ExplorationReport(**counts)
        for entry in payload["violations"]:
            race = entry["race"]
            report.violations.append(
                ViolationReport(
                    kind=ViolationKind(entry["kind"]),
                    iteration=entry["iteration"],
                    trace=Trace(steps=list(entry["steps"]), iteration=entry["iteration"]),
                    race_detail=(
                        None
                        if race is None
                        else RaceDetail(
                            object=ObjectId(race["object"]),
                            readers_pending=race["readers"],
                            writers_pending=race["writers"],
                        )
                    ),
                    trace_file=entry["trace_file"],
                )
            )
    except KeyError as missing:
        raise DispatchError(f"report {text!r} is missing field {missing}") from None
    except (TypeError, ValueError) as exc:  # bad JSON is a ValueError too
        raise DispatchError(f"corrupt report {text!r}: {exc}") from None
    return report


# -- the protocol, both sides -------------------------------------------------------------


def _read_line(stream: IO[str], context: str) -> str:
    line = stream.readline()
    if line == "":
        raise DispatchError(f"connection closed while waiting for {context}")
    return line.rstrip("\n")


def _read_count(stream: IO[str], keyword: str) -> int:
    """Read a ``<keyword> <count>`` header line."""
    header = _read_line(stream, f"{keyword} header")
    name, _, count = header.partition(" ")
    if name != keyword or not count.isdecimal():
        raise DispatchError(f"expected {keyword} <count>, got {header!r}")
    return int(count)


def serve_worker(rfile: IO[str], wfile: IO[str], program, config) -> None:
    """Run the worker side: announce, receive a workload, explore, hand
    points back, report."""
    from .explorer import Explorer

    wfile.write(f"HELLO {config.node_id}\n")
    wfile.flush()
    count = _read_count(rfile, "WORKLOAD")
    points = [decode_point(_read_line(rfile, "point record")) for _ in range(count)]

    explorer = Explorer(program, config)
    report = explorer.explore(seed_points=points)

    wfile.write(f"DONE {len(report.handed_back)}\n")
    for point in report.handed_back:
        wfile.write(encode_point(point) + "\n")
    wfile.write(encode_report(report) + "\n")
    wfile.flush()
    _read_line(rfile, "BYE")


def send_workload(rfile: IO[str], wfile: IO[str], workload: Workload):
    """Run the master side of one worker link; returns the worker's report,
    with the points it handed back."""
    hello = _read_line(rfile, "HELLO")
    if not hello.startswith("HELLO "):
        raise DispatchError(f"expected HELLO, got {hello!r}")
    wfile.write(f"WORKLOAD {len(workload.points)}\n")
    for point in workload.points:
        wfile.write(encode_point(point) + "\n")
    wfile.flush()
    count = _read_count(rfile, "DONE")
    handed_back = [
        decode_point(_read_line(rfile, "point record"), exhausted_ok=True)
        for _ in range(count)
    ]
    report = decode_report(_read_line(rfile, "report"))
    report.handed_back = handed_back
    wfile.write("BYE\n")
    wfile.flush()
    return report


# -- distributed check runs -------------------------------------------------------------


def check_distributed(program, config):
    """Explore with ``config.node_count`` nodes and merge the reports.

    A single node explores directly. With more, each worker is an
    in-process explorer behind the real wire protocol over a socketpair.
    """
    from .explorer import explore

    if config.node_count <= 1:
        return explore(program, config)

    def link(workload: Workload):
        worker_config = replace(config, node_id=workload.node_id)
        return _run_worker_over_socketpair(program, worker_config, workload)

    return _run_master(program, config, config.node_count, link)


def _run_worker_over_socketpair(program, config, workload: Workload):
    import socket

    left, right = socket.socketpair()
    worker_err: list[BaseException] = []

    def worker_side() -> None:
        # Closing this end on any exit ends the master's wait for DONE.
        with right, right.makefile("r") as rfile, right.makefile("w") as wfile:
            try:
                serve_worker(rfile, wfile, program, config)
            except BaseException as exc:
                worker_err.append(exc)

    thread = threading.Thread(target=worker_side, name=f"worker-{config.node_id}", daemon=True)
    thread.start()
    try:
        with left, left.makefile("r") as rfile, left.makefile("w") as wfile:
            return send_workload(rfile, wfile, workload)
    finally:
        thread.join(timeout=120)
        if worker_err:
            error = worker_err[0]
            raise DispatchError(
                f"worker {config.node_id} failed: {type(error).__name__}: {error}"
            ) from error


def check_remote(program, config, addresses: list[str]):
    """Like ``check_distributed`` but over TCP links to already-running workers."""
    import socket

    def link(workload: Workload):
        address = addresses[workload.node_id - 1]
        host, _, port = address.rpartition(":")
        try:
            conn = socket.create_connection((host or "127.0.0.1", int(port)))
        except OSError as exc:
            raise DispatchError(f"cannot reach worker at {address}") from exc
        with conn, conn.makefile("r") as rfile, conn.makefile("w") as wfile:
            return send_workload(rfile, wfile, workload)

    return _run_master(program, config, len(addresses), link)


def _run_master(program, config, node_count: int, link: Callable[[Workload], object]):
    """The master's side of a multi-node run.

    The master runs iteration 0, partitions the points it discovered, hands
    each node's share to ``link`` (which returns that node's report) in
    node order, explores what the nodes handed back, and merges the reports.
    """
    from .explorer import Explorer

    master = Explorer(program, replace(config, node_id=0))
    workloads = partition(master.explore_initial(), node_count)
    reports = [link(workload) for workload in workloads]
    master.drain([point for report in reports for point in report.handed_back])
    return _merge_reports(master, reports)


def _merge_reports(master, worker_reports):
    worker_reports = sorted(worker_reports, key=lambda r: r.node_id)
    merged = master.report
    for report in worker_reports:
        merged.iterations_run += report.iterations_run
        merged.bound_warnings += report.bound_warnings
        merged.points_explored += report.points_explored
        merged.unfair_prunes += report.unfair_prunes
        merged.violations.extend(report.violations)
    master.sink.violations = list(merged.violations)
    master.sink.write_report()
    return merged
