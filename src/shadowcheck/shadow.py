"""The program-under-test interface.

Programs are written directly against this API instead of a native thread
library. Every primitive announces what it is about to do as a
``{token,tid,access,oid}`` tuple, parks the calling thread, and performs
its effect only once the scheduler grants the permit. Waiting primitives
(lock, semaphore wait, join, condition wait) also state their pass
condition, ``ready``; the runner grants a waiting operation only while
its condition holds, so every effect here is unconditional.

Thread bodies must be deterministic closures over their spawn arguments:
no wall-clock reads, no ambient randomness, no I/O. Program behavior is
then a pure function of the schedule, which is what makes recorded traces
replayable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from .errors import UsageError
from .model import (
    DONT_CARE,
    AccessKind,
    ObjectId,
    ThreadId,
    Token,
    make_visible_op,
)

if TYPE_CHECKING:
    from .runtime import ExecutionContext


class SharedCell:
    """A shared integer variable; reads and writes are visible operations."""

    __slots__ = ("oid", "value", "_ctx")

    def __init__(self, oid: ObjectId, value: int, ctx: object) -> None:
        self.oid = oid
        self.value = value
        self._ctx = ctx


class ShadowMutex:
    """Non-recursive mutual exclusion; lock is a waiting operation."""

    __slots__ = ("oid", "holder", "_ctx")

    def __init__(self, oid: ObjectId, ctx: object) -> None:
        self.oid = oid
        self.holder: int | None = None
        self._ctx = ctx


class ShadowSemaphore:
    __slots__ = ("oid", "count", "_ctx")

    def __init__(self, oid: ObjectId, count: int, ctx: object) -> None:
        if count < 0:
            raise UsageError("semaphore count must be non-negative")
        self.oid = oid
        self.count = count
        self._ctx = ctx


class ShadowCondVar:
    """Condition variable emulated with a single signal flag and a waiter count."""

    __slots__ = ("oid", "signal_flag", "waiters", "_ctx")

    def __init__(self, oid: ObjectId, ctx: object) -> None:
        self.oid = oid
        self.signal_flag = 0
        self.waiters = 0
        self._ctx = ctx


@dataclass
class ProgramHandle:
    """A checkable program: a name and a deterministic main-thread body.

    ``declared_partitions`` optionally gives per-thread partition counts so
    a default depth bound can be estimated for the program.
    """

    name: str
    entry: Callable[["Api"], None]
    declared_partitions: list[int] | None = None
    description: str = ""


class Api:
    """Facade handed to every thread body; one instance per execution."""

    def __init__(self, ctx: "ExecutionContext") -> None:
        self._ctx = ctx

    # -- identity and registration -------------------------------------------

    def my_tid(self) -> ThreadId:
        return ThreadId(self._ctx.current_tid())

    def register_shared(self, initial: int) -> SharedCell:
        """Register a shared variable; assigned the next dense object id."""
        ctx = self._ctx
        cell = SharedCell(ObjectId(0), initial, ctx)
        cell.oid = ctx.register_object(cell, is_cell=True)
        return cell

    def new_mutex(self) -> ShadowMutex:
        ctx = self._ctx
        m = ShadowMutex(ObjectId(0), ctx)
        m.oid = ctx.register_object(m, is_cell=False)
        return m

    def new_semaphore(self, count: int) -> ShadowSemaphore:
        ctx = self._ctx
        s = ShadowSemaphore(ObjectId(0), count, ctx)
        s.oid = ctx.register_object(s, is_cell=False)
        return s

    def new_condvar(self) -> ShadowCondVar:
        ctx = self._ctx
        c = ShadowCondVar(ObjectId(0), ctx)
        c.oid = ctx.register_object(c, is_cell=False)
        return c

    # -- threads ---------------------------------------------------------------

    def spawn_thread(self, body: Callable[["Api"], None]) -> ThreadId:
        """Create a thread; it receives the next dense ThreadId.

        The spawn is itself a non-blocking visible operation; the new
        thread starts and announces its own first operation before the
        spawner's partition continues.
        """
        ctx = self._ctx
        me = ctx.current_tid()
        op = make_visible_op(Token.NON_BLOCKING, ThreadId(me), AccessKind.DONT_CARE, DONT_CARE)
        return ctx.visible(op, lambda: ctx.spawn_child(body))

    def join(self, target: ThreadId | int) -> None:
        ctx = self._ctx
        me = ctx.current_tid()
        target = int(target)
        if target == me:
            raise UsageError("a thread cannot join itself")
        if not ctx.thread_exists(target):
            raise UsageError(f"join target {target} was never spawned")
        op = make_visible_op(Token.WAITING, ThreadId(me), AccessKind.DONT_CARE, DONT_CARE)
        ctx.visible(op, lambda: None, ready=lambda: ctx.thread_ended(target))

    # -- shared variables --------------------------------------------------------

    def read(self, cell: SharedCell) -> int:
        ctx = self._ctx
        self._check_owned(cell)
        me = ctx.current_tid()
        op = make_visible_op(Token.NON_BLOCKING, ThreadId(me), AccessKind.READ, cell.oid)
        ctx.race_pending(cell.oid, AccessKind.READ)

        def effect() -> int:
            value = cell.value
            ctx.race_complete(cell.oid, AccessKind.READ)
            return value

        return ctx.visible(op, effect)

    def write(self, cell: SharedCell, value: int) -> None:
        ctx = self._ctx
        self._check_owned(cell)
        me = ctx.current_tid()
        op = make_visible_op(Token.NON_BLOCKING, ThreadId(me), AccessKind.WRITE, cell.oid)
        ctx.race_pending(cell.oid, AccessKind.WRITE)

        def effect() -> None:
            cell.value = value
            ctx.race_complete(cell.oid, AccessKind.WRITE)

        ctx.visible(op, effect)

    # -- mutexes -------------------------------------------------------------------

    def mutex_lock(self, m: ShadowMutex) -> None:
        ctx = self._ctx
        self._check_owned(m)
        me = ctx.current_tid()
        if m.holder == me:
            raise UsageError("relocking a held mutex (non-recursive)")
        op = make_visible_op(Token.WAITING, ThreadId(me), AccessKind.WRITE, m.oid)

        def effect() -> None:
            m.holder = me

        ctx.visible(op, effect, ready=lambda: m.holder is None)

    def mutex_unlock(self, m: ShadowMutex) -> None:
        ctx = self._ctx
        self._check_owned(m)
        me = ctx.current_tid()
        if m.holder != me:
            raise UsageError("unlock by a thread that does not hold the mutex")
        op = make_visible_op(Token.NON_BLOCKING, ThreadId(me), AccessKind.WRITE, m.oid)

        def effect() -> None:
            m.holder = None

        ctx.visible(op, effect)

    def mutex_trylock(self, m: ShadowMutex) -> bool:
        """Single acquisition attempt; never blocks, reports success."""
        ctx = self._ctx
        self._check_owned(m)
        me = ctx.current_tid()
        op = make_visible_op(Token.NON_BLOCKING, ThreadId(me), AccessKind.WRITE, m.oid)

        def effect() -> bool:
            if m.holder is None:
                m.holder = me
                return True
            return False

        return ctx.visible(op, effect)

    # -- semaphores ---------------------------------------------------------------

    def sem_wait(self, s: ShadowSemaphore) -> None:
        ctx = self._ctx
        self._check_owned(s)
        me = ctx.current_tid()
        op = make_visible_op(Token.WAITING, ThreadId(me), AccessKind.WRITE, s.oid)

        def effect() -> None:
            s.count -= 1

        ctx.visible(op, effect, ready=lambda: s.count > 0)

    def sem_post(self, s: ShadowSemaphore) -> None:
        ctx = self._ctx
        self._check_owned(s)
        me = ctx.current_tid()
        op = make_visible_op(Token.NON_BLOCKING, ThreadId(me), AccessKind.WRITE, s.oid)

        def effect() -> None:
            s.count += 1

        ctx.visible(op, effect)

    # -- condition variables ---------------------------------------------------------

    def cond_wait(self, c: ShadowCondVar, m: ShadowMutex) -> None:
        """Wait for a signal; the mutex is held again on return.

        A signal already pending is consumed in a single scheduling step
        without releasing the mutex. Otherwise the mutex is released and
        the waiter registered atomically (still inside the caller's
        current partition), and the wake-up, which can pass only once the
        signal is set and the mutex free, consumes the signal and
        reacquires the mutex in a single step, so one signal releases
        exactly one waiter.
        """
        ctx = self._ctx
        self._check_owned(c)
        self._check_owned(m)
        me = ctx.current_tid()
        if m.holder != me:
            raise UsageError("cond_wait requires holding the mutex")
        op = make_visible_op(Token.WAITING, ThreadId(me), AccessKind.WRITE, c.oid)

        if c.signal_flag == 1:
            def consume() -> None:
                c.signal_flag = 0

            ctx.visible(op, consume)  # a pending signal always passes
            return

        m.holder = None
        c.waiters += 1

        def wake() -> None:
            m.holder = me
            c.waiters -= 1
            c.signal_flag = 0

        ctx.visible(op, wake, ready=lambda: c.signal_flag == 1 and m.holder is None)

    def cond_signal(self, c: ShadowCondVar) -> None:
        """Set the signal flag; lost when nobody is waiting."""
        ctx = self._ctx
        self._check_owned(c)
        me = ctx.current_tid()
        op = make_visible_op(Token.NON_BLOCKING, ThreadId(me), AccessKind.WRITE, c.oid)

        def effect() -> None:
            if c.waiters > 0:
                c.signal_flag = 1

        ctx.visible(op, effect)

    # -- internals ---------------------------------------------------------------------

    def _check_owned(self, obj) -> None:
        if getattr(obj, "_ctx", None) is not self._ctx:
            raise UsageError(
                f"{type(obj).__name__} does not belong to the current execution"
            )
