"""Core domain types shared by every other module.

Everything here is an immutable value: identities, announced operations,
traces, backtrack points, and violation reports. The wire rendering of an
announced operation is the four-position tuple ``{token,tid,access,oid}``
with ``dc`` filling the don't-care positions, so a parsed operation always
round-trips byte-for-byte.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from .errors import UsageError


class ThreadId(int):
    """Dense, creation-ordered thread identity. The main thread is 0."""

    def __new__(cls, value: int) -> ThreadId:
        if value < 0:
            raise ValueError(f"thread id must be non-negative, got {value}")
        return super().__new__(cls, value)


class ObjectId(int):
    """Dense, registration-ordered shared-object identity."""

    def __new__(cls, value: int) -> ObjectId:
        if value < 0:
            raise ValueError(f"object id must be non-negative, got {value}")
        return super().__new__(cls, value)


class _DontCare:
    """Distinguished sentinel filling unused tuple positions."""

    __slots__ = ()
    _instance: _DontCare | None = None

    def __new__(cls) -> _DontCare:
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "dc"


DONT_CARE = _DontCare()


class Token(Enum):
    """Whether the announced operation may fail to progress."""

    NON_BLOCKING = "n"
    WAITING = "y"


class AccessKind(Enum):
    READ = "r"
    WRITE = "w"
    DONT_CARE = "dc"


@dataclass(frozen=True)
class VisibleOp:
    """A thread's announced next operation: the ``{token,tid,access,oid}`` tuple."""

    token: Token
    tid: ThreadId
    access: AccessKind
    target: ObjectId | _DontCare

    def to_wire(self) -> str:
        oid = "dc" if self.target is DONT_CARE else str(int(self.target))
        return f"{{{self.token.value},{int(self.tid)},{self.access.value},{oid}}}"

    @classmethod
    def from_wire(cls, text: str) -> VisibleOp:
        body = text.strip()
        if not (body.startswith("{") and body.endswith("}")):
            raise ValueError(f"not a visible-op tuple: {text!r}")
        parts = body[1:-1].split(",")
        if len(parts) != 4:
            raise ValueError(f"expected four positions, got {len(parts)}: {text!r}")
        token = Token(parts[0])
        tid = ThreadId(int(parts[1]))
        access = AccessKind(parts[2])
        target: ObjectId | _DontCare
        target = DONT_CARE if parts[3] == "dc" else ObjectId(int(parts[3]))
        return make_visible_op(token, tid, access, target)


def make_visible_op(
    token: Token,
    tid: ThreadId,
    access: AccessKind,
    target: ObjectId | _DontCare,
) -> VisibleOp:
    """Build a validated operation tuple.

    A real access must name a real target; a don't-care access must leave
    the target position don't-care as well. Thread and object identities
    are deliberately distinct types, so one in the other's position is an
    error rather than a silent reinterpretation.
    """
    if isinstance(tid, ObjectId):
        raise UsageError(f"object id {int(tid)} used where a thread id belongs")
    if isinstance(target, ThreadId):
        raise UsageError(f"thread id {int(target)} used where an object id belongs")
    if not isinstance(tid, ThreadId):
        tid = ThreadId(tid)
    if access is AccessKind.DONT_CARE:
        if target is not DONT_CARE:
            raise UsageError(
                f"don't-care access cannot name a target (got {target!r})"
            )
    else:
        if target is DONT_CARE:
            raise UsageError(f"{access.value}-access must name a target object")
        if not isinstance(target, ObjectId):
            target = ObjectId(target)
    return VisibleOp(token, tid, access, target)


@dataclass
class Trace:
    """Ordered list of scheduled thread ids for one execution."""

    steps: list[int] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.steps)


@dataclass
class BacktrackPoint:
    """A depth in a recorded trace plus the alternatives still owed there.

    ``depth`` counts the steps executed before the state; ``prefix`` is the
    schedule that reaches it. ``pending`` holds thread ids enabled at the
    state but not yet explored from it, ``done`` the ones already taken.
    """

    depth: int
    prefix: tuple[int, ...]
    pending: set[int]
    done: set[int]
    discovery_iteration: int

    def validate(self, *, exhausted_ok: bool = False) -> None:
        """Check the record; only a record that reports a finished state
        (a worker's root, handed back) may have an empty pending set."""
        if len(self.prefix) != self.depth:
            raise ValueError(
                f"prefix length {len(self.prefix)} != depth {self.depth}"
            )
        if self.pending & self.done:
            raise ValueError("pending and done overlap")
        if not self.pending and not exhausted_ok:
            raise ValueError("stored point must keep a nonempty pending set")


class ViolationKind(Enum):
    DEADLOCK = "deadlock"
    LIVELOCK = "livelock"
    DATA_RACE = "data-race"


@dataclass(frozen=True)
class RaceDetail:
    object: ObjectId
    readers_pending: int
    writers_pending: int


@dataclass
class ViolationReport:
    """One detected violation plus the trace that exhibits it."""

    kind: ViolationKind
    iteration: int
    trace: Trace
    race_detail: RaceDetail | None = None
    trace_file: str | None = None

    def validate(self) -> None:
        if (self.kind is ViolationKind.DATA_RACE) != (self.race_detail is not None):
            raise ValueError("race_detail present iff kind is data-race")
        if self.race_detail is not None:
            d = self.race_detail
            if d.writers_pending < 1 or d.readers_pending + d.writers_pending < 2:
                raise ValueError(
                    f"implausible race counters R={d.readers_pending} W={d.writers_pending}"
                )
