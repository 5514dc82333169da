"""Stateless model checking of concurrent programs via a shadow threading API.

Programs are written against :class:`shadowcheck.Api`; the explorer
re-executes them under systematically varied schedules, pruning
equivalent interleavings with dynamic partial-order reduction, detecting
deadlocks, livelock candidates and data races, and recording each
violating schedule as a replayable trace file.
"""

from .errors import (
    CheckerError,
    DispatchError,
    ProtocolError,
    ReplayDivergenceError,
    TraceParseError,
    UsageError,
)
from .explorer import ExplorationConfig, ExplorationReport, Explorer, explore
from .model import (
    DONT_CARE,
    AccessKind,
    BacktrackPoint,
    ObjectId,
    RaceDetail,
    ThreadId,
    Token,
    Trace,
    ViolationKind,
    ViolationReport,
    VisibleOp,
    make_visible_op,
)
from .scheduler import IterationOutcome, estimate_bound
from .shadow import Api, ProgramHandle, SharedCell, ShadowCondVar, ShadowMutex, ShadowSemaphore
from .tracer import format_trace, parse_trace, replay

__all__ = [
    "AccessKind",
    "Api",
    "BacktrackPoint",
    "CheckerError",
    "DispatchError",
    "DONT_CARE",
    "ExplorationConfig",
    "ExplorationReport",
    "Explorer",
    "IterationOutcome",
    "ObjectId",
    "ProgramHandle",
    "ProtocolError",
    "RaceDetail",
    "ReplayDivergenceError",
    "SharedCell",
    "ShadowCondVar",
    "ShadowMutex",
    "ShadowSemaphore",
    "ThreadId",
    "Token",
    "Trace",
    "TraceParseError",
    "UsageError",
    "ViolationKind",
    "ViolationReport",
    "VisibleOp",
    "estimate_bound",
    "explore",
    "format_trace",
    "make_visible_op",
    "parse_trace",
    "replay",
]
