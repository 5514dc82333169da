"""Identity assignment for threads and shared objects.

Identities are dense integers handed out in creation order. Because the
scheduler serializes program execution, creation order is a pure function
of the schedule, so identical schedules assign identical identities across
re-executions. Handles are the shadow objects themselves (opaque tokens),
mapped injectively to their stable ids.
"""

from __future__ import annotations

from typing import Any, Callable

from .errors import UsageError
from .model import ObjectId, ThreadId


class IdentityTable:
    """The object/thread registrar; one fresh instance per execution."""

    def __init__(self, on_cell_registered: Callable[[ObjectId], None] | None = None):
        self._next_tid = 0
        self._next_oid = 0
        self._object_map: dict[int, ObjectId] = {}
        self._handles: list[Any] = []
        self._on_cell_registered = on_cell_registered

    def register_thread(self) -> ThreadId:
        tid = ThreadId(self._next_tid)
        self._next_tid += 1
        return tid

    def register_object(self, handle: Any, *, is_cell: bool = False) -> ObjectId:
        """Assign the next object id; cells additionally get a race-detector worker."""
        if id(handle) in self._object_map:
            raise UsageError(f"handle already registered: {handle!r}")
        oid = ObjectId(self._next_oid)
        self._next_oid += 1
        self._object_map[id(handle)] = oid
        self._handles.append(handle)
        if is_cell and self._on_cell_registered is not None:
            self._on_cell_registered(oid)
        return oid

    def resolve(self, handle: Any) -> ObjectId:
        try:
            return self._object_map[id(handle)]
        except KeyError:
            raise UsageError(f"unknown handle: {handle!r}") from None

    def handles(self) -> list[Any]:
        """Registered handles in registration (= ObjectId) order."""
        return list(self._handles)
