"""Report types, the one JSON document format and the run that makes every range report.

This module imports no other of the package.
"""

from __future__ import annotations

import json
import time
from typing import NamedTuple

#: Version of every JSON document the package writes: reports, checkpoints, trees.
SCHEMA_VERSION = 1


def document(task: str, **fields) -> str:
    """The JSON document of a task: the schema_version and task header, then `fields`."""
    return json.dumps({"schema_version": SCHEMA_VERSION, "task": task, **fields}, indent=2) + "\n"


def read_document(text: str, what: str) -> dict:
    """Parse a document; ValueError unless it is a JSON object at `SCHEMA_VERSION`."""
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ValueError(f"a {what} document is a JSON object, got {type(doc).__name__}")
    if (version := doc.get("schema_version")) != SCHEMA_VERSION:
        raise ValueError(f"unsupported {what} schema_version: {version!r}")
    return doc


def witnesses_to_json(entries: list[tuple[int, str]]) -> list[dict]:
    """Serialize (x, detail) witnesses; `witnesses_from_json` is the inverse."""
    return [{"x": x, "detail": d} for x, d in entries]


def witnesses_from_json(docs: list[dict]) -> list[tuple[int, str]]:
    """Parse (x, detail) witnesses; ValueError unless each x is an int and each detail a str."""
    entries = [(e["x"], e["detail"]) for e in docs]
    require_ints("witness x", [x for x, _ in entries])
    if not all(type(d) is str for _, d in entries):
        raise ValueError("non-string witness detail")
    return entries


def require_range(lo: int, hi: int) -> None:
    """A range of starts is 1 <= lo <= hi."""
    if not 1 <= lo <= hi:
        raise ValueError(f"need 1 <= lo <= hi, got [{lo}, {hi}]")


def require_ints(what: str, values: list) -> None:
    """Exact ints only in a parsed document: bool, float and str would not round-trip."""
    if kinds := {*map(type, values)} - {int}:
        raise ValueError(f"non-integer {what}: {', '.join(sorted(k.__name__ for k in kinds))}")


class RangeReport(NamedTuple):
    """Outcome of sweeping one fact over [lo, hi].

    `violations` and `inconclusive` hold (x, detail) witnesses; a fact held
    everywhere iff `violations` is empty.  Inconclusive entries record
    budget-limited checks, which are not counterexamples.  The package's
    verifiers fill both with lists; left out, each is the empty tuple, as
    a default is one object shared by every report.
    """

    fact_id: str
    lo: int
    hi: int
    checked: int
    violations: list[tuple[int, str]] | tuple[()] = ()
    inconclusive: list[tuple[int, str]] | tuple[()] = ()
    elapsed: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "fact_id": self.fact_id,
            "range": [self.lo, self.hi],
            "checked": self.checked,
            "violations": witnesses_to_json(self.violations),
            "inconclusive": witnesses_to_json(self.inconclusive),
            "elapsed": self.elapsed,
        }


class RangeRun:
    """One suite's run over [lo, hi]: checks the range, starts the clock, builds the report."""

    __slots__ = ("fact_id", "lo", "hi", "_t0")

    def __init__(self, fact_id: str, lo: int, hi: int) -> None:
        require_range(lo, hi)
        self.fact_id = fact_id
        self.lo = lo
        self.hi = hi
        self._t0 = time.perf_counter()

    def report(
        self,
        violations: list[tuple[int, str]],
        inconclusive: list[tuple[int, str]] | None = None,
    ) -> RangeReport:
        """The run's report; the lists given are its own, and a left-out `inconclusive` is []."""
        return RangeReport(
            self.fact_id, self.lo, self.hi, self.hi - self.lo + 1, violations,
            [] if inconclusive is None else inconclusive, time.perf_counter() - self._t0,
        )
