"""The program-under-test interface.

Programs are written directly against this API instead of a native thread
library. Each primitive states only the object it names, its access, its
pass condition if it waits (lock, semaphore wait, join, the condition
wait's wake-up) and its effect. ``ExecutionContext.visible`` announces it,
parks the calling thread, and performs the effect only once the scheduler
grants the permit, which it does for a waiting operation only while its
condition holds; so every effect here is unconditional.

Thread bodies must be deterministic closures over their spawn arguments:
no wall-clock reads, no ambient randomness, no I/O. Program behavior is
then a pure function of the schedule, which is what makes recorded traces
replayable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from .errors import UsageError
from .model import AccessKind

if TYPE_CHECKING:
    from .runtime import ExecutionContext


class ShadowObject:
    """Its dense id and owning execution, both set by ``ExecutionContext.register``."""

    __slots__ = ("oid", "_ctx")


class SharedCell(ShadowObject):
    """A shared integer variable; reads and writes are visible operations."""

    __slots__ = ("value",)

    def __init__(self, value: int) -> None:
        self.value = value


class ShadowMutex(ShadowObject):
    """Non-recursive mutual exclusion; lock is a waiting operation."""

    __slots__ = ("holder",)

    def __init__(self) -> None:
        self.holder: int | None = None


class ShadowSemaphore(ShadowObject):
    __slots__ = ("count",)

    def __init__(self, count: int) -> None:
        if count < 0:
            raise UsageError("semaphore count must be non-negative")
        self.count = count


class ShadowCondVar(ShadowObject):
    """Condition variable emulated with a single signal flag and a waiter count."""

    __slots__ = ("signal_flag", "waiters")

    def __init__(self) -> None:
        self.signal_flag = 0
        self.waiters = 0


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

    def my_tid(self) -> int:
        return self._ctx.current_tid()

    def register_shared(self, initial: int) -> SharedCell:
        """Register a shared variable; assigned the next dense object id."""
        return self._ctx.register(SharedCell(initial))

    def new_mutex(self) -> ShadowMutex:
        return self._ctx.register(ShadowMutex())

    def new_semaphore(self, count: int) -> ShadowSemaphore:
        return self._ctx.register(ShadowSemaphore(count))

    def new_condvar(self) -> ShadowCondVar:
        return self._ctx.register(ShadowCondVar())

    # -- threads ---------------------------------------------------------------

    def spawn_thread(self, body: Callable[["Api"], None]) -> int:
        """Create a thread; it receives the next dense thread id.

        The spawn is itself a non-blocking visible operation; the new
        thread starts and announces its own first operation before the
        spawner's partition continues.
        """
        ctx = self._ctx
        host = ctx.caller()
        return ctx.visible(host, None, AccessKind.DONT_CARE, lambda: ctx.spawn_child(host, body))

    def join(self, target: int) -> None:
        ctx = self._ctx
        host = ctx.caller()
        target = int(target)
        if target == host.tid:
            raise UsageError("a thread cannot join itself")
        if target not in ctx.hosts:
            raise UsageError(f"join target {target} was never spawned")
        ctx.visible(
            host, None, AccessKind.DONT_CARE, lambda: None, ready=lambda: ctx.thread_ended(target)
        )

    # -- shared variables --------------------------------------------------------

    def read(self, cell: SharedCell) -> int:
        ctx = self._ctx
        return ctx.visible(ctx.caller(cell), cell, AccessKind.READ, lambda: cell.value)

    def write(self, cell: SharedCell, value: int) -> None:
        ctx = self._ctx

        def effect() -> None:
            cell.value = value

        ctx.visible(ctx.caller(cell), cell, AccessKind.WRITE, effect)

    # -- mutexes -------------------------------------------------------------------

    def mutex_lock(self, m: ShadowMutex) -> None:
        ctx = self._ctx
        host = ctx.caller(m)
        me = host.tid
        if m.holder == me:
            raise UsageError("relocking a held mutex (non-recursive)")

        def effect() -> None:
            m.holder = me

        ctx.visible(host, m, AccessKind.WRITE, effect, ready=lambda: m.holder is None)

    def mutex_unlock(self, m: ShadowMutex) -> None:
        ctx = self._ctx
        host = ctx.caller(m)
        if m.holder != host.tid:
            raise UsageError("unlock by a thread that does not hold the mutex")

        def effect() -> None:
            m.holder = None

        ctx.visible(host, m, AccessKind.WRITE, effect)

    def mutex_trylock(self, m: ShadowMutex) -> bool:
        """Single acquisition attempt; never blocks, reports success."""
        ctx = self._ctx
        host = ctx.caller(m)

        def effect() -> bool:
            if m.holder is None:
                m.holder = host.tid
                return True
            return False

        return ctx.visible(host, m, AccessKind.WRITE, effect)

    # -- semaphores ---------------------------------------------------------------

    def sem_wait(self, s: ShadowSemaphore) -> None:
        ctx = self._ctx

        def effect() -> None:
            s.count -= 1

        ctx.visible(ctx.caller(s), s, AccessKind.WRITE, effect, ready=lambda: s.count > 0)

    def sem_post(self, s: ShadowSemaphore) -> None:
        ctx = self._ctx

        def effect() -> None:
            s.count += 1

        ctx.visible(ctx.caller(s), s, AccessKind.WRITE, effect)

    # -- condition variables ---------------------------------------------------------

    def cond_wait(self, c: ShadowCondVar, m: ShadowMutex) -> None:
        """Wait for a signal; the mutex is held again on return.

        Three visible steps. The first, on ``c``, consumes a pending signal
        and returns with the mutex still held, or else registers the
        waiter. Registering before the mutex is released keeps pthread's
        atomicity: no signal can fall between the release and the
        registration. The second is the ordinary unlock of ``m``. The
        third, the wake-up, can pass only once the signal is set and the
        mutex free; it consumes the signal and reacquires the mutex in one
        step, so one signal releases exactly one waiter.
        """
        ctx = self._ctx
        host = ctx.caller(c)
        ctx.caller(m)  # the mutex must belong to this execution too
        me = host.tid
        if m.holder != me:
            raise UsageError("cond_wait requires holding the mutex")

        def consume_or_register() -> bool:
            if c.signal_flag == 1:
                c.signal_flag = 0
                return True
            c.waiters += 1
            return False

        if ctx.visible(host, c, AccessKind.WRITE, consume_or_register):
            return
        self.mutex_unlock(m)

        def wake() -> None:
            m.holder = me
            c.waiters -= 1
            c.signal_flag = 0

        ctx.visible(
            host, c, AccessKind.WRITE, wake, ready=lambda: c.signal_flag == 1 and m.holder is None
        )

    def cond_signal(self, c: ShadowCondVar) -> None:
        """Set the signal flag; lost when nobody is waiting."""
        ctx = self._ctx

        def effect() -> None:
            if c.waiters > 0:
                c.signal_flag = 1

        ctx.visible(ctx.caller(c), c, AccessKind.WRITE, effect)
