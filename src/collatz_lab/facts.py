"""Exhaustive range verifiers for the residue-class structure of the map.

Each verifier re-derives its claims through the core map operations rather
than through re-stated formulas, so a single arithmetic slip cannot
confirm itself: the forward map checks the inverse definitions and vice
versa.  Every reported violation carries a re-checkable witness.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .core_map import (
    ResidueClass,
    Rule,
    pred_even,
    pred_odd,
    predecessors,
    reduced_step,
    residue_class,
    step,
)
from .trajectory import DEFAULT_BUDGET, BudgetExhaustedError, correspondence

#: Version of every JSON document the package writes: reports, checkpoints, trees.
SCHEMA_VERSION = 1


def witnesses_to_json(entries: list[tuple[int, str]]) -> list[dict]:
    """Serialize (x, detail) witnesses; `witnesses_from_json` is the inverse."""
    return [{"x": x, "detail": d} for x, d in entries]


def witnesses_from_json(docs: list[dict]) -> list[tuple[int, str]]:
    return [(int(e["x"]), str(e["detail"])) for e in docs]


@dataclass
class RangeReport:
    """Outcome of sweeping one fact over [lo, hi].

    `violations` and `inconclusive` hold (x, detail) witnesses; a fact held
    everywhere iff `violations` is empty.  Inconclusive entries record
    budget-limited checks, which are not counterexamples.
    """

    fact_id: str
    lo: int
    hi: int
    checked: int
    violations: list[tuple[int, str]] = field(default_factory=list)
    inconclusive: list[tuple[int, str]] = field(default_factory=list)
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


def _require_range(lo: int, hi: int) -> None:
    if not 1 <= lo <= hi:
        raise ValueError(f"need 1 <= lo <= hi, got [{lo}, {hi}]")


def _class_of(n: int) -> ResidueClass:
    # residue_class is defined on x >= 1; 0 belongs to the class of
    # multiples of 3.  Only the (x-2)/3 probe at x = 2 needs this.
    return residue_class(n) if n >= 1 else ResidueClass.C0


# Expected class of the odd predecessor, keyed by the class of (x-2)/3.
_ODD_PRED_CLASS = {
    ResidueClass.C1: ResidueClass.C0,
    ResidueClass.C0: ResidueClass.C1,
    ResidueClass.C2: ResidueClass.C2,
}

# Expected class of the even predecessor 2x, keyed by the class of x.
_EVEN_PRED_CLASS = {
    ResidueClass.C0: ResidueClass.C0,
    ResidueClass.C1: ResidueClass.C2,
    ResidueClass.C2: ResidueClass.C1,
}


def verify_predecessor_structure(lo: int, hi: int) -> RangeReport:
    """Check the full predecessor case analysis on [lo, hi].

    For every x: the even predecessor exists, round-trips via R1, and has
    the class forced by x's class; the odd predecessor exists iff x is in
    C2, is odd, round-trips via R2, and its class matches the class of
    (x-2)/3 as scheduled above.
    """
    _require_range(lo, hi)
    t0 = time.perf_counter()
    violations: list[tuple[int, str]] = []
    for x in range(lo, hi + 1):
        cls = residue_class(x)
        preds = predecessors(x)
        pe = pred_even(x)
        po = pred_odd(x)

        if preds[0] != (pe, Rule.R1):
            violations.append((x, f"even predecessor not listed first: {preds}"))
            continue
        if step(pe) != (x, Rule.R1):
            violations.append((x, f"step({pe}) does not return to {x} via R1"))
            continue
        if residue_class(pe) is not _EVEN_PRED_CLASS[cls]:
            violations.append(
                (x, f"even predecessor {pe} in {residue_class(pe).name}, "
                    f"expected {_EVEN_PRED_CLASS[cls].name}")
            )
            continue

        if cls is ResidueClass.C2:
            if po is None or len(preds) != 2 or preds[1] != (po, Rule.R2):
                violations.append((x, f"odd predecessor missing or mislisted: {preds}"))
                continue
            if po % 2 == 0 or step(po) != (x, Rule.R2):
                violations.append((x, f"odd predecessor {po} does not round-trip via R2"))
                continue
            probe_cls = _class_of((x - 2) // 3)
            if residue_class(po) is not _ODD_PRED_CLASS[probe_cls]:
                violations.append(
                    (x, f"odd predecessor {po} in {residue_class(po).name}, "
                        f"expected {_ODD_PRED_CLASS[probe_cls].name} since "
                        f"(x-2)/3 is in {probe_cls.name}")
                )
        else:
            if po is not None or len(preds) != 1:
                violations.append((x, f"unexpected odd predecessor outside C2: {preds}"))

    return RangeReport(
        fact_id="predecessor-structure",
        lo=lo,
        hi=hi,
        checked=hi - lo + 1,
        violations=violations,
        elapsed=time.perf_counter() - t0,
    )


def verify_transitions(lo: int, hi: int) -> RangeReport:
    """Check the per-class forward transitions on [lo, hi].

    From C0: to C0 when x/3 is even, to C2 when x/3 is odd.  From C1:
    always to C2.  From C2: to C1 when x is even, to C2 when x is odd.
    """
    _require_range(lo, hi)
    t0 = time.perf_counter()
    violations: list[tuple[int, str]] = []
    for x in range(lo, hi + 1):
        cls = residue_class(x)
        t, _rule = step(x)
        tcls = residue_class(t)
        if cls is ResidueClass.C0:
            want = ResidueClass.C0 if (x // 3) % 2 == 0 else ResidueClass.C2
        elif cls is ResidueClass.C1:
            want = ResidueClass.C2
        else:
            want = ResidueClass.C1 if x % 2 == 0 else ResidueClass.C2
        if tcls is not want:
            violations.append(
                (x, f"{cls.name} -> {tcls.name} at step({x}) = {t}, expected {want.name}")
            )
    return RangeReport(
        fact_id="class-transitions",
        lo=lo,
        hi=hi,
        checked=hi - lo + 1,
        violations=violations,
        elapsed=time.perf_counter() - t0,
    )


def verify_reduction(
    lo: int,
    hi: int,
    budget: int = DEFAULT_BUDGET,
    include_correspondence: bool = True,
) -> RangeReport:
    """Check the C2 reduction machinery on [lo, hi].

    For x in C2: the reduced step stays in C2 and (optionally) the reduced
    orbit corresponds to the C2 subsequence of the full orbit.  For x in
    C1: both the even predecessor and the forward image lie in C2 — the
    two hooks that make contracting C1 vertices sound.  Budget-limited
    correspondence checks land in `inconclusive`, never in `violations`.
    """
    _require_range(lo, hi)
    if budget < 0:
        raise ValueError(f"budget must be >= 0, got {budget}")
    t0 = time.perf_counter()
    violations: list[tuple[int, str]] = []
    inconclusive: list[tuple[int, str]] = []
    for x in range(lo, hi + 1):
        cls = residue_class(x)
        if cls is ResidueClass.C2:
            t, _rule = reduced_step(x)
            if residue_class(t) is not ResidueClass.C2:
                violations.append((x, f"reduced_step({x}) = {t} left class C2"))
                continue
            if include_correspondence:
                try:
                    if not correspondence(x, budget):
                        violations.append((x, "reduced orbit diverges from C2 subsequence"))
                except BudgetExhaustedError as exc:
                    inconclusive.append((x, str(exc)))
        elif cls is ResidueClass.C1:
            pe = pred_even(x)
            if residue_class(pe) is not ResidueClass.C2:
                violations.append((x, f"even predecessor {pe} of C1 vertex not in C2"))
                continue
            t, _rule = step(x)
            if residue_class(t) is not ResidueClass.C2:
                violations.append((x, f"successor {t} of C1 vertex not in C2"))
    return RangeReport(
        fact_id="reduction",
        lo=lo,
        hi=hi,
        checked=hi - lo + 1,
        violations=violations,
        inconclusive=inconclusive,
        elapsed=time.perf_counter() - t0,
    )
