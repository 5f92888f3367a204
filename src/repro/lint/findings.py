"""Typed lint findings with stable codes and fingerprints.

A :class:`Finding` is the unit of ``repro.lint`` output: one rule
violation, carrying the rule's stable code (``DY1xx`` semantic
anti-pattern, ``DY2xx`` dataflow hazard, ``DY3xx`` trace-integrity
violation), a severity, the subject (file path, ``file:dataset`` pair, or
task pair), the tasks involved, and machine-readable evidence.

Findings are plain data and deterministic:
:meth:`Finding.fingerprint` hashes only the stable identity
(code, subject, tasks), never timestamps or volumes, so a baseline file
keeps suppressing the same finding across re-runs of the same workflow.
"""

from __future__ import annotations

import enum
import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

__all__ = ["Severity", "Finding"]


class Severity(str, enum.Enum):
    """Lint severity levels (mapped 1:1 onto SARIF result levels)."""

    ERROR = "error"
    WARNING = "warning"
    NOTE = "note"

    @property
    def rank(self) -> int:
        """Orderable weight: errors outrank warnings outrank notes."""
        return {"error": 2, "warning": 1, "note": 0}[self.value]


@dataclass(frozen=True)
class Finding:
    """One rule violation.

    Attributes:
        code: Stable rule code (``"DY203"``); never reused for a different
            meaning once shipped.
        rule: Short rule name (``"unordered-double-write"``).
        severity: :class:`Severity`.
        message: Human-readable explanation with the concrete names/numbers.
        subject: What the finding is about — a file, ``file:dataset``, or
            task pair.  Part of the stable fingerprint.
        tasks: Tasks involved, in a rule-defined (deterministic) order.
        evidence: Machine-readable supporting values (JSON-compatible).
        location: Optional artifact URI (the offending trace file) for
            SARIF consumers; not part of the fingerprint.
    """

    code: str
    rule: str
    severity: Severity
    message: str
    subject: str
    tasks: Tuple[str, ...] = ()
    evidence: Dict[str, object] = field(default_factory=dict)
    location: Optional[str] = None

    @property
    def fingerprint(self) -> str:
        """Stable identity hash for baseline suppression.

        Covers code, subject, and the sorted task set — not message text,
        evidence numbers, or locations, which may legitimately drift
        between otherwise-identical runs.
        """
        key = "|".join([self.code, self.subject, *sorted(self.tasks)])
        return hashlib.sha256(key.encode()).hexdigest()[:16]

    def sort_key(self) -> Tuple:
        """Deterministic report order: severity first, then code/subject."""
        return (-self.severity.rank, self.code, self.subject, self.tasks)

    def to_json_dict(self) -> dict:
        return {
            "code": self.code,
            "rule": self.rule,
            "severity": self.severity.value,
            "message": self.message,
            "subject": self.subject,
            "tasks": list(self.tasks),
            "evidence": self.evidence,
            "location": self.location,
            "fingerprint": self.fingerprint,
        }

    def __str__(self) -> str:
        tasks = ", ".join(self.tasks) if self.tasks else "-"
        return (f"{self.code} [{self.severity.value}] {self.subject} "
                f"(tasks: {tasks}) — {self.message}")
