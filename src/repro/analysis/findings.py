"""The finding model of the invariant linter.

A :class:`Finding` is one detected invariant violation.  Its JSON form is a
**stable external schema** — exactly the five keys ``file``, ``line``,
``rule``, ``severity``, ``message`` — so downstream tooling (the CI findings
artifact, future ``BENCH_*.json``-style trend tracking) can diff findings
across PRs without parsing free-form lint output.  Add new information as new
*rules*, not new keys.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

__all__ = ["Finding", "SEVERITIES", "SCHEMA_KEYS"]

#: the only admissible severities, mild to fatal
SEVERITIES = ("warning", "error")

#: the stable JSON schema — every serialised finding has exactly these keys
SCHEMA_KEYS = ("file", "line", "rule", "severity", "message")


@dataclass(frozen=True)
class Finding:
    """One invariant violation at a source location."""

    file: str      #: path as given to the analyzer (repo-relative in CI)
    line: int      #: 1-indexed source line
    rule: str      #: stable rule id, e.g. ``rng-direct-construction``
    severity: str  #: ``"warning"`` or ``"error"``
    message: str   #: human-readable, one line

    def __post_init__(self) -> None:
        if self.severity not in SEVERITIES:
            raise ValueError(f"severity must be one of {SEVERITIES}, got {self.severity!r}")

    def to_dict(self) -> Dict[str, object]:
        """The stable five-key JSON form (insertion order = schema order)."""
        return {
            "file": self.file,
            "line": int(self.line),
            "rule": self.rule,
            "severity": self.severity,
            "message": self.message,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "Finding":
        return cls(
            file=str(payload["file"]),
            line=int(payload["line"]),  # type: ignore[arg-type]
            rule=str(payload["rule"]),
            severity=str(payload["severity"]),
            message=str(payload["message"]),
        )

    def render(self) -> str:
        return f"{self.file}:{self.line}: [{self.severity}] {self.rule}: {self.message}"
