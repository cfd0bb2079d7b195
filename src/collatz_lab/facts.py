"""Exhaustive range verifiers for the residue-class structure of the map.

Each verifier is one loop over plain ints: inline shift/multiply steps and
`x % 3` class codes, with no `ResidueClass` or core-map call per value; an
enum name is built only to format a witness.  Every reported violation
carries a re-checkable witness.  The C2 reduction is checked by its
one-step lemma, as in the paper: for x in C2 the first C2 value after x in
the full orbit is reduced_step(x).  That a single arithmetic slip here
cannot confirm itself (the forward map checks the inverse definitions and
vice versa) is kept by the oracle tests in `tests/test_facts.py` and
`tests/test_cycles.py`: they run per-value reference bodies built on
`core_map` and `trajectory.correspondence` against these loops.
"""

from __future__ import annotations

from . import core_map
from .core_map import ResidueClass
from .report import RangeReport, RangeRun
from .sweep import unconverged
from .trajectory import DEFAULT_BUDGET, require_budget


# Class of the even predecessor 2x, indexed by the class of x.
_EVEN_PRED_CLASS = (0, 2, 1)
# Class of the odd predecessor (2x-1)/3 of x in C2, indexed by the class of
# (x-2)/3; at x = 2 the probe is 0, which counts as a multiple of 3.
_ODD_PRED_CLASS = (1, 0, 2)


def verify_predecessor_structure(lo: int, hi: int) -> RangeReport:
    """Check the full predecessor case analysis on [lo, hi].

    For every x: the even predecessor 2x halves back to x and has the class
    forced by x's class; the odd predecessor (2x-1)/3 exists iff x is in C2,
    is odd, returns to x via R2, and its class matches the class of (x-2)/3
    as scheduled above.
    """
    run = RangeRun("predecessor-structure", lo, hi)
    violations: list[tuple[int, str]] = []
    for x in range(lo, hi + 1):
        c = x % 3
        pe = 2 * x
        if pe >> 1 != x or pe % 3 != _EVEN_PRED_CLASS[c]:
            violations.append(
                (x, f"even predecessor {pe} in {ResidueClass(pe % 3).name}, "
                    f"expected {ResidueClass(_EVEN_PRED_CLASS[c]).name}")
            )
        elif c != 2:
            if (pe - 1) % 3 == 0:
                violations.append((x, f"unexpected odd predecessor {(pe - 1) // 3} outside C2"))
        else:
            po, r = divmod(pe - 1, 3)
            probe = (x - 2) // 3 % 3
            if r or not po & 1 or (3 * po + 1) >> 1 != x:
                violations.append((x, f"odd predecessor {po} missing or not returning via R2"))
            elif po % 3 != _ODD_PRED_CLASS[probe]:
                violations.append(
                    (x, f"odd predecessor {po} in {ResidueClass(po % 3).name}, "
                        f"expected {ResidueClass(_ODD_PRED_CLASS[probe]).name} since "
                        f"(x-2)/3 is in {ResidueClass(probe).name}")
                )
    return run.report(violations)


def verify_transitions(lo: int, hi: int) -> RangeReport:
    """Check the per-class forward transitions on [lo, hi].

    From C0: to C0 when x/3 is even, to C2 when x/3 is odd.  From C1:
    always to C2.  From C2: to C1 when x is even, to C2 when x is odd.
    """
    run = RangeRun("class-transitions", lo, hi)
    violations: list[tuple[int, str]] = []
    step_class = core_map.STEP_CLASS_AT
    for x in range(lo, hi + 1):
        t = (3 * x + 1) >> 1 if x & 1 else x >> 1
        want = step_class[x % 6]
        if t % 3 != want:
            violations.append(
                (x, f"{ResidueClass(x % 3).name} -> {ResidueClass(t % 3).name} at "
                    f"step({x}) = {t}, expected {ResidueClass(want).name}")
            )
    return run.report(violations)


def verify_reduction(
    lo: int,
    hi: int,
    budget: int = DEFAULT_BUDGET,
    include_correspondence: bool = True,
) -> RangeReport:
    """Check the C2 reduction machinery on [lo, hi].

    For x in C2: the reduced step stays in C2 and (optionally) the one-step
    lemma holds: the first C2 value after x in the full orbit is
    reduced_step(x), one step on for odd x and two, through x/2 in C1, for
    even x.  By induction the reduced orbit is then the C2 subsequence of
    the full orbit once that reaches 2; x is inconclusive, never a
    violation, exactly when it does not within `budget` steps, which the
    sweep's chase loop decides (`sweep.unconverged`).  For x in C1: both the
    even predecessor and the forward image lie in C2 — the two hooks that
    make contracting C1 vertices sound.
    """
    run = RangeRun("reduction", lo, hi)
    require_budget(budget)
    violations: list[tuple[int, str]] = []
    inconclusive: list[tuple[int, str]] = []
    for x in range(lo, hi + 1):
        c = x % 3
        if c == 2:
            t = (3 * x + 1) >> 1 if x & 1 else (3 * x + 2) >> 2 if x & 2 else x >> 2
            if t % 3 != 2:
                violations.append((x, f"reduced_step({x}) = {t} left class C2"))
                continue
            if include_correspondence:
                v = (3 * x + 1) >> 1 if x & 1 else x >> 1
                if v % 3 != 2:
                    v = (3 * v + 1) >> 1 if v & 1 else v >> 1
                if v != t:
                    violations.append((x, "reduced orbit diverges from C2 subsequence"))
        elif c == 1:
            if 2 * x % 3 != 2:
                violations.append((x, f"even predecessor {2 * x} of C1 vertex not in C2"))
                continue
            t = (3 * x + 1) >> 1 if x & 1 else x >> 1
            if t % 3 != 2:
                violations.append((x, f"successor {t} of C1 vertex not in C2"))
    if include_correspondence:
        failed = {x for x, _ in violations}
        c2 = range(lo + (2 - lo) % 3, hi + 1, 3)
        inconclusive = [
            (x, f"orbit of {x} did not reach 2 within {budget} steps")
            for x in unconverged(c2, budget + 1)  # steps to 1 = steps to 2 + 1
            if x not in failed
        ]
    return run.report(violations, inconclusive)
