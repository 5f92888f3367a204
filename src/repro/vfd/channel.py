"""Shared-memory channel between the VOL and VFD profiling layers.

HDF5's abstraction makes direct communication between a VOL plugin and a
VFD plugin "inherently difficult"; DaYu bridges them with a small shared
memory region through which the VOL announces the data object currently
being accessed, so the VFD can tag the low-level I/O it observes (paper,
Section IV, "Characteristic (VOL-VFD) Mapper").

:class:`VolVfdChannel` reproduces that design: a tiny mutable slot holding
the current task name and a *stack* of current data objects.  A stack (not a
single slot) is needed because object operations nest — e.g. writing a
dataset may force a B-tree node flush that belongs to the same object, while
file-level metadata flushes happen with no object in scope.

Every dataset access and group lookup enters one :meth:`object_scope`, so
the scope is on the per-operation path: it is a small slotted context
manager that pushes on ``__enter__`` and pops on ``__exit__``, not a
generator-based ``@contextmanager`` (which builds a generator and a
wrapper object on every use).
"""

from __future__ import annotations

from typing import List, Optional

__all__ = ["VolVfdChannel"]


class VolVfdChannel:
    """Mutable rendez-vous point shared by the VOL and VFD profilers."""

    def __init__(self) -> None:
        self._task: Optional[str] = None
        self._objects: List[str] = []

    # ------------------------------------------------------------------
    # Task context (set by the workflow runner / application)
    # ------------------------------------------------------------------
    @property
    def current_task(self) -> Optional[str]:
        """Name of the task currently executing, or None outside any task."""
        return self._task

    def set_task(self, name: Optional[str]) -> None:
        """Announce the current task (the paper requires the launcher or
        application to inform DaYu of the current task)."""
        self._task = name

    # ------------------------------------------------------------------
    # Object context (set by the VOL around each object operation)
    # ------------------------------------------------------------------
    @property
    def current_object(self) -> Optional[str]:
        """Fully qualified name of the innermost data object in scope."""
        return self._objects[-1] if self._objects else None

    def push_object(self, name: str) -> None:
        self._objects.append(name)

    def pop_object(self) -> None:
        if not self._objects:
            raise RuntimeError("VolVfdChannel: object stack underflow")
        self._objects.pop()

    def object_scope(self, name: str) -> "_ObjectScope":
        """Scope all nested VFD I/O to data object ``name``."""
        return _ObjectScope(self, name)

    @property
    def depth(self) -> int:
        """Current object-scope nesting depth (0 outside any object)."""
        return len(self._objects)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"VolVfdChannel(task={self._task!r}, object={self.current_object!r})"
        )


class _ObjectScope:
    """``with channel.object_scope(name):`` — push on entry, pop on exit."""

    __slots__ = ("_channel", "_name")

    def __init__(self, channel: VolVfdChannel, name: str) -> None:
        self._channel = channel
        self._name = name

    def __enter__(self) -> None:
        self._channel._objects.append(self._name)

    def __exit__(self, *exc) -> None:
        self._channel.pop_object()
