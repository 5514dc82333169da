"""Exception hierarchy for the checker.

UsageError covers mistakes in the program under test (relocking a held
mutex, joining yourself, touching objects from a stale execution).
ProtocolError covers violations of the checker's own invariants and
indicates a bug in the checker or a corrupted artifact, never in the
program under test.
"""

from __future__ import annotations


class CheckerError(Exception):
    """Base class for all checker-raised errors."""


class UsageError(CheckerError):
    """The program under test misused the shadow API."""


class ProtocolError(CheckerError):
    """An internal invariant of the checker was violated."""


class TraceParseError(CheckerError):
    """A trace file is malformed."""

    def __init__(self, message: str, line_no: int | None = None) -> None:
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


class ReplayDivergenceError(CheckerError):
    """A replayed schedule asked for a thread that cannot progress."""

    def __init__(self, message: str, step_index: int) -> None:
        super().__init__(f"step {step_index}: {message}")
        self.step_index = step_index


class DispatchError(CheckerError):
    """A master/worker connection failed or spoke the protocol wrong."""
