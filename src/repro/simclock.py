"""Deterministic simulated time base for the DaYu reproduction.

Every component in this repository that "takes time" — storage devices,
network mounts, compute phases, and DaYu's own tracing machinery — charges
that time to a :class:`SimClock`.  Using a single explicit clock (rather than
wall-clock time) makes every experiment deterministic and lets the benchmark
harness reproduce the *shape* of the paper's timing results on any machine.

Time is tracked in seconds as a float.  The clock also supports named
accounts so that DaYu can attribute its own overhead to individual
components (Input Parser / Access Tracker / Characteristic Mapper — the
breakdown shown in the paper's Figure 10).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Tuple

__all__ = ["SimClock", "TimeSpan"]


@dataclass(frozen=True)
class TimeSpan:
    """A closed interval of simulated time.

    Attributes:
        start: Simulated time at which the span began, in seconds.
        end: Simulated time at which the span finished, in seconds.
    """

    start: float
    end: float

    @property
    def duration(self) -> float:
        """Length of the span in seconds."""
        return self.end - self.start

    def overlaps(self, other: "TimeSpan") -> bool:
        """Return True when the two spans share any instant."""
        return self.start < other.end and other.start < self.end


class SimClock:
    """A monotonically advancing simulated clock with cost accounts.

    The clock starts at zero and only moves forward.  Components advance it
    with :meth:`advance`, optionally attributing the advance to a named
    account so that post-hoc accounting (e.g. "how much of the runtime was
    DaYu's Access Tracker?") is possible without any global state.

    Example:
        >>> clock = SimClock()
        >>> clock.advance(1.5, account="io")
        >>> clock.now
        1.5
        >>> clock.account("io")
        1.5
    """

    def __init__(self, start: float = 0.0) -> None:
        if start < 0.0:
            raise ValueError(f"clock cannot start before zero, got {start!r}")
        self._now: float = float(start)
        self._accounts: Dict[str, float] = {}
        self._marks: List[Tuple[str, float]] = []

    # ------------------------------------------------------------------
    # Core time flow
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    def advance(self, seconds: float, account: str | None = None) -> float:
        """Move the clock forward by ``seconds``.

        Args:
            seconds: Non-negative duration to add.
            account: Optional account name to charge the duration to.

        Returns:
            The new current time.

        Raises:
            ValueError: If ``seconds`` is negative or not finite.
        """
        if not (seconds >= 0.0):  # also rejects NaN
            raise ValueError(f"cannot advance clock by {seconds!r}")
        self._now += seconds
        if account is not None:
            accounts = self._accounts
            accounts[account] = accounts.get(account, 0.0) + seconds
        return self._now

    def advance_to(self, timestamp: float) -> float:
        """Move the clock forward to an absolute ``timestamp``.

        A timestamp in the past is a no-op: simulated time never rewinds.
        """
        if timestamp > self._now:
            self._now = timestamp
        return self._now

    @contextmanager
    def span(self, account: str | None = None) -> Iterator[List[float]]:
        """Context manager capturing a start/end pair of simulated times.

        Yields a two-element list; on exit the list holds ``[start, end]``.
        Useful for building :class:`TimeSpan` records around a block of
        simulated activity.
        """
        record = [self._now, self._now]
        try:
            yield record
        finally:
            record[1] = self._now
            if account is not None:
                self._accounts[account] = (
                    self._accounts.get(account, 0.0) + record[1] - record[0]
                )

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def account(self, name: str) -> float:
        """Total simulated seconds charged to account ``name`` (0 if unused)."""
        return self._accounts.get(name, 0.0)

    def accounts(self) -> Dict[str, float]:
        """A copy of all account totals."""
        return dict(self._accounts)

    def charge(self, name: str, seconds: float) -> None:
        """Attribute ``seconds`` to an account *without* advancing the clock.

        This models work that happens concurrently with (is hidden under)
        other activity but must still be accounted, e.g. DaYu bookkeeping
        overlapped with an I/O wait.
        """
        if not (seconds >= 0.0):
            raise ValueError(f"cannot charge negative time {seconds!r}")
        self._accounts[name] = self._accounts.get(name, 0.0) + seconds

    # ------------------------------------------------------------------
    # Marks (named instants, useful for debugging timelines)
    # ------------------------------------------------------------------
    def mark(self, label: str) -> float:
        """Record a named instant at the current time and return it."""
        self._marks.append((label, self._now))
        return self._now

    @property
    def marks(self) -> List[Tuple[str, float]]:
        """All recorded (label, time) marks in insertion order."""
        return list(self._marks)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SimClock(now={self._now:.9f}, accounts={len(self._accounts)})"
