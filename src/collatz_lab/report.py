"""The report types that every verifier writes; this module imports no other of the package."""

from __future__ import annotations

from typing import NamedTuple

#: Version of every JSON document the package writes: reports, checkpoints, trees.
SCHEMA_VERSION = 1


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
