"""Data-race detection by pending-access counting.

A master routes per-object events to one lightweight worker per monitored
object. Each worker keeps two counters: readers announced but not yet
finished, and writers announced but not yet finished. A race fires the
moment an increment leaves both counters positive, i.e. a read and a write
on the same object are simultaneously pending in the serialized execution.
Checks run on increments only; decrements never re-check.

Writer-writer overlap (W >= 2, R = 0) is reported only in strict mode.
"""

from __future__ import annotations

from .errors import ProtocolError, UsageError
from .model import AccessKind, ObjectId, RaceDetail


class _ObjectWorker:
    """Counters for a single monitored object."""

    __slots__ = ("oid", "readers", "writers")

    def __init__(self, oid: ObjectId) -> None:
        self.oid = oid
        self.readers = 0
        self.writers = 0


def check(readers: int, writers: int, *, strict: bool = False) -> bool:
    """Race condition on one object's counters.

    The base rule needs at least one pending reader and one pending writer;
    strict mode additionally flags two or more concurrent pending writers.
    """
    if readers < 0 or writers < 0:
        raise ProtocolError(f"negative pending counters R={readers} W={writers}")
    if writers > 0 and readers > 0:
        return True
    if strict and writers >= 2:
        return True
    return False


class RaceDetector:
    """Master agent owning one worker per monitored object.

    ``fired`` holds the first race of the execution: the counter snapshot
    taken at the moment it fired.
    """

    def __init__(self, strict: bool = False) -> None:
        self._workers: dict[int, _ObjectWorker] = {}
        self._strict = strict
        self._fired: RaceDetail | None = None

    @property
    def fired(self) -> RaceDetail | None:
        return self._fired

    def on_register(self, oid: ObjectId) -> None:
        self._workers[int(oid)] = _ObjectWorker(oid)

    def on_pending(self, oid: ObjectId, kind: AccessKind) -> None:
        worker = self._worker(oid)
        if kind is AccessKind.READ:
            worker.readers += 1
        elif kind is AccessKind.WRITE:
            worker.writers += 1
        else:
            raise ProtocolError(f"pending access must be read or write, got {kind}")
        if check(worker.readers, worker.writers, strict=self._strict):
            # At this instant both sides are genuinely pending; assert it so a
            # report can never be emitted from a stale snapshot.
            assert worker.writers > 0 and worker.readers + worker.writers >= 2
            detail = RaceDetail(
                object=worker.oid,
                readers_pending=worker.readers,
                writers_pending=worker.writers,
            )
            if self._fired is None:
                self._fired = detail

    def on_complete(self, oid: ObjectId, kind: AccessKind) -> None:
        worker = self._worker(oid)
        if kind is AccessKind.READ:
            worker.readers -= 1
            if worker.readers < 0:
                raise ProtocolError(f"read completed without pending read on {oid}")
        elif kind is AccessKind.WRITE:
            worker.writers -= 1
            if worker.writers < 0:
                raise ProtocolError(f"write completed without pending write on {oid}")
        else:
            raise ProtocolError(f"completed access must be read or write, got {kind}")

    def on_finish(self) -> None:
        """End of iteration: destroy all workers and forget any firing."""
        self._workers.clear()
        self._fired = None

    def counters(self, oid: ObjectId) -> tuple[int, int]:
        worker = self._worker(oid)
        return (worker.readers, worker.writers)

    def _worker(self, oid: ObjectId) -> _ObjectWorker:
        try:
            return self._workers[int(oid)]
        except KeyError:
            raise UsageError(f"object {int(oid)} is not registered") from None
