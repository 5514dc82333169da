"""Trace files: recording, violation naming, parsing, and replay.

One line per scheduled step, ``"<index> <tid>."`` with a 1-based
contiguous index, so a recorded file replays an execution exactly.
Violating iterations keep their trace under a distinguished name
(``bt_<n>_deadlock``, ``bt_<n>_livelock``, ``data_race<n>``); clean
iterations are deleted unless retention is requested. A trace fixes the
schedule but not the depth bound, which decides whether an execution ends
as a livelock candidate, nor the race mode, which decides whether a
writer-writer overlap is a race; ``report.txt`` records both in its
header so a replay can use them.

The sink keeps no violation list of its own: ``close_iteration`` returns
each violation to the explorer, whose report holds the exploration's list,
and ``write_report`` writes the list it is given. ``replay`` returns the
runner's own ``IterationResult``.
"""

from __future__ import annotations

from pathlib import Path

from .errors import ProtocolError, TraceParseError
from .model import Trace, ViolationKind, ViolationReport
from .runtime import IterationResult, IterationRunner, SchedulePlan
from .scheduler import default_bound
from .shadow import ProgramHandle


def format_trace(trace: Trace) -> str:
    return "".join(f"{i + 1} {tid}.\n" for i, tid in enumerate(trace.steps))


def parse_trace(path: str | Path) -> Trace:
    """Strict parse: contiguous 1-based indices, no trailing garbage."""
    steps: list[int] = []
    text = Path(path).read_text()
    for line_no, line in enumerate(text.splitlines(), start=1):
        if line.strip() == "":
            raise TraceParseError("blank line inside trace", line_no)
        parts = line.split(" ")
        if len(parts) != 2 or not parts[1].endswith("."):
            raise TraceParseError(f"malformed step line {line!r}", line_no)
        try:
            index = int(parts[0])
            tid = int(parts[1][:-1])
        except ValueError:
            raise TraceParseError(f"non-numeric step line {line!r}", line_no) from None
        if index != line_no:
            raise TraceParseError(
                f"step index {index} out of order (expected {line_no})", line_no
            )
        if tid < 0:
            raise TraceParseError(f"negative thread id {tid}", line_no)
        steps.append(tid)
    return Trace(steps=steps)


class TraceSink:
    """Per-exploration writer for trace files and the violation summary."""

    def __init__(
        self,
        out_dir: str | Path,
        *,
        keep_all_traces: bool = False,
        file_prefix: str = "",
        bound: int | None = None,
        strict_races: bool = False,
    ) -> None:
        self.out_dir = Path(out_dir)
        self.trace_dir = self.out_dir / "traces"
        self.trace_dir.mkdir(parents=True, exist_ok=True)
        self.keep_all_traces = keep_all_traces
        self.file_prefix = file_prefix
        self.bound = bound
        self.strict_races = strict_races
        self._open: dict[int, list[int]] = {}

    def record_step(self, iteration: int, tid: int) -> None:
        """Append one scheduled step to the iteration's open trace."""
        self._open.setdefault(iteration, []).append(tid)

    def drop_iteration(self, iteration: int) -> None:
        """Forget an abandoned iteration's steps without writing anything."""
        self._open.pop(iteration, None)

    def close_iteration(self, result: IterationResult) -> ViolationReport | None:
        """Write the iteration's trace under its outcome-derived name.

        Returns the violation report when the iteration violated, else
        None. Clean traces are kept only under ``keep_all_traces``, which
        also writes the iteration's scheduler decisions to
        ``decisions_<n>.log``.
        """
        recorded = self._open.pop(result.iteration, None)
        if recorded is not None and recorded != result.trace.steps:
            raise ProtocolError(
                f"iteration {result.iteration}: recorded steps disagree with the result"
            )
        trace = result.trace
        name: str | None = None
        violation: ViolationReport | None = None

        kind = result.violation_kind
        if kind is not None:
            race = kind is ViolationKind.DATA_RACE
            name = self.file_prefix + (
                f"data_race{result.iteration}" if race else f"bt_{result.iteration}_{kind.value}"
            )
            violation = ViolationReport(
                kind=kind,
                iteration=result.iteration,
                trace=trace,
                race_detail=result.race_detail if race else None,
            )
        elif self.keep_all_traces:
            name = f"{self.file_prefix}trace_{result.iteration}"

        if name is not None:
            path = self.trace_dir / name
            path.write_text(format_trace(trace))
            if violation is not None:
                violation.trace_file = name
        if self.keep_all_traces:
            decisions = self.trace_dir / f"{self.file_prefix}decisions_{result.iteration}.log"
            decisions.write_text("".join(d.debug_line() + "\n" for d in result.decisions))
        if violation is not None:
            violation.validate()
        return violation

    def write_report(self, violations: list[ViolationReport]) -> Path:
        """Write ``report.txt``: a header with the timestamp, the depth
        bound (when known) and ``races=strict`` under strict race
        detection, plus one line per violation in ``violations``."""
        import datetime

        header = f"# generated {datetime.datetime.now().isoformat()}"
        if self.bound is not None:
            header += f" bound={self.bound}"
        if self.strict_races:
            header += " races=strict"
        lines = [header, *map(summary_line, violations)]
        path = self.out_dir / "report.txt"
        path.write_text("".join(line + "\n" for line in lines))
        return path


def recorded_run(report: str | Path) -> tuple[int | None, bool]:
    """The depth bound (None if there is none) and whether races were
    strict, from a ``report.txt`` header; a missing report gives neither."""
    try:
        with open(report) as lines:
            header = lines.readline()
    except FileNotFoundError:
        return None, False
    fields = dict(field.split("=", 1) for field in header.split()[2:] if "=" in field)
    bound = fields.get("bound")
    return (None if bound is None else int(bound)), fields.get("races") == "strict"


def summary_line(v: ViolationReport) -> str:
    if v.kind is ViolationKind.DATA_RACE and v.race_detail is not None:
        d = v.race_detail
        return (
            f"data-race iteration={v.iteration} object={int(d.object)} "
            f"readers={d.readers_pending} writers={d.writers_pending} "
            f"trace={v.trace_file}"
        )
    return f"{v.kind.value} iteration={v.iteration} trace={v.trace_file}"


def replay(
    program: ProgramHandle,
    trace: Trace,
    *,
    bound: int | None = None,
    race_enabled: bool = True,
    strict_races: bool = False,
) -> IterationResult:
    """Drive the scheduler through exactly the trace's steps, then run free;
    returns the runner's result.

    For a violation trace the violation fires at (or immediately after)
    the recorded steps; a clean trace simply completes its execution. A
    step whose thread cannot run or whose operation cannot pass raises
    ``ReplayDivergenceError`` carrying the step's position. Without a
    ``bound`` the program's default applies, as in an exploration that
    names none.
    """
    return IterationRunner(
        program,
        bound=default_bound(program) if bound is None else bound,
        plan=SchedulePlan(replay=list(trace.steps)),
        race_enabled=race_enabled,
        strict_races=strict_races,
    ).run()
