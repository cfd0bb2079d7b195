"""Unit tests for the range verifiers, and the fused loops against per-value references."""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from collatz_lab import core_map, facts
from collatz_lab.core_map import (
    ResidueClass,
    Rule,
    pred_even,
    pred_odd,
    predecessors,
    reduced_step,
    residue_class,
    step,
)
from collatz_lab.facts import (
    RangeReport,
    verify_predecessor_structure,
    verify_reduction,
    verify_transitions,
)
from collatz_lab.trajectory import DEFAULT_BUDGET, BudgetExhaustedError, correspondence

# Per-value reference bodies: each fact re-derived through the core map
# operations rather than re-stated formulas, so the forward map checks the
# inverse definitions and vice versa.  The verifiers in `facts` fuse these
# into loops over plain ints and must return the same reports.


def _class_of(n: int) -> ResidueClass:
    # residue_class is defined on x >= 1; 0 belongs to the class of
    # multiples of 3.  Only the (x-2)/3 probe at x = 2 needs this.
    return residue_class(n) if n >= 1 else ResidueClass.C0


_ODD_PRED_CLASS = {
    ResidueClass.C1: ResidueClass.C0,
    ResidueClass.C0: ResidueClass.C1,
    ResidueClass.C2: ResidueClass.C2,
}
_EVEN_PRED_CLASS = {
    ResidueClass.C0: ResidueClass.C0,
    ResidueClass.C1: ResidueClass.C2,
    ResidueClass.C2: ResidueClass.C1,
}


def reference_predecessor_structure(lo: int, hi: int) -> RangeReport:
    violations = []
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
    return RangeReport("predecessor-structure", lo, hi, hi - lo + 1, violations, [])


def reference_transitions(lo: int, hi: int) -> RangeReport:
    violations = []
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
    return RangeReport("class-transitions", lo, hi, hi - lo + 1, violations, [])


def reference_reduction(lo, hi, budget=DEFAULT_BUDGET, include_correspondence=True):
    violations = []
    inconclusive = []
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
    return RangeReport("reduction", lo, hi, hi - lo + 1, violations, inconclusive)


def fields(report: RangeReport) -> tuple:
    """Everything in a report but the wall time."""
    return (report.fact_id, report.lo, report.hi, report.checked,
            report.violations, report.inconclusive)


los = st.one_of(
    st.integers(1, 3000),
    st.integers(10**6 - 3000, 10**6 + 3000),
    st.integers(10**12 - 3000, 10**12 + 3000),
)
widths = st.integers(0, 3000)
budgets = st.one_of(st.integers(0, 40), st.just(DEFAULT_BUDGET))


class TestFusedAgainstReference:
    """Each fused verifier returns its per-value reference body's report."""

    @settings(max_examples=40, deadline=None)
    @given(los, widths)
    @example(2, 0)  # the (x-2)/3 probe is 0
    def test_predecessor_structure(self, lo, width):
        want = reference_predecessor_structure(lo, lo + width)
        assert fields(verify_predecessor_structure(lo, lo + width)) == fields(want)

    @settings(max_examples=40, deadline=None)
    @given(los, widths)
    @example(1, 0)
    def test_transitions(self, lo, width):
        assert fields(verify_transitions(lo, lo + width)) == fields(
            reference_transitions(lo, lo + width)
        )

    @settings(max_examples=40, deadline=None)
    @given(los, widths, budgets, st.booleans())
    @example(2, 0, 0, True)
    def test_reduction(self, lo, width, budget, with_correspondence):
        got = verify_reduction(lo, lo + width, budget, with_correspondence)
        want = reference_reduction(lo, lo + width, budget, with_correspondence)
        assert fields(got) == fields(want)

    @pytest.mark.parametrize("budget", [*range(0, 41), DEFAULT_BUDGET])
    def test_reduction_witnesses_at_every_budget(self, budget):
        """The budget-limited witnesses are the non-empty lists the true map produces."""
        lo = 10**6 + 1
        got = verify_reduction(lo, lo + 300, budget)
        assert fields(got) == fields(reference_reduction(lo, lo + 300, budget))
        assert bool(got.inconclusive) == (budget != DEFAULT_BUDGET)

    @pytest.mark.parametrize("budget", [*range(0, 11), 150, 200, 450, DEFAULT_BUDGET])
    @pytest.mark.parametrize("lo", [10**12, 2**64])
    def test_reduction_near_1e12_and_2_64(self, lo, budget):
        """Budgets below, among and above the starts' steps to 2: chases the budget cuts."""
        got = verify_reduction(lo, lo + 300, budget)
        assert fields(got) == fields(reference_reduction(lo, lo + 300, budget))


@pytest.mark.parametrize("first", ["collatz_lab.facts", "collatz_lab.sweep"])
def test_reduction_runs_whichever_of_facts_and_sweep_is_imported_first(first):
    """`facts` imports `sweep.unconverged` at load time, and `sweep` does not import `facts`."""
    src = str(Path(facts.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = (f"import {first}; from collatz_lab.facts import verify_reduction; "
            "r = verify_reduction(1, 60, 5); print(r.ok, len(r.inconclusive))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=60)
    assert out.stdout == "True 15\n"


class TestPredecessorStructure:
    def test_clean_range(self):
        report = verify_predecessor_structure(1, 2 * 10**4)
        assert report.ok
        assert report.checked == 2 * 10**4
        assert report.violations == []

    def test_odd_predecessor_class_pairing_at_5(self):
        # 5 in C2: odd predecessor 3 lies in C0 because (5-2)/3 = 1 lies in C1
        assert residue_class(5) is ResidueClass.C2
        assert pred_odd(5) == 3
        assert residue_class(3) is ResidueClass.C0
        assert residue_class((5 - 2) // 3) is ResidueClass.C1
        assert verify_predecessor_structure(5, 5).ok

    def test_odd_predecessor_class_pairing_at_17(self):
        # both the odd predecessor and the probe (x-2)/3 are in C2
        assert pred_odd(17) == 11
        assert residue_class(11) is ResidueClass.C2
        assert residue_class((17 - 2) // 3) is ResidueClass.C2
        assert verify_predecessor_structure(17, 17).ok

    def test_probe_of_zero_at_x_equals_2(self):
        # (2-2)/3 = 0 counts as a multiple of 3, scheduling the odd
        # predecessor 1 into C1
        assert pred_odd(2) == 1
        assert residue_class(1) is ResidueClass.C1
        assert verify_predecessor_structure(2, 2).ok

    def test_range_guard(self):
        with pytest.raises(ValueError):
            verify_predecessor_structure(0, 10)
        with pytest.raises(ValueError):
            verify_predecessor_structure(10, 5)


class TestTransitions:
    def test_clean_range(self):
        report = verify_transitions(1, 2 * 10**4)
        assert report.ok
        assert report.checked == 2 * 10**4

    @pytest.mark.parametrize(
        "x, target_class",
        [
            (6, ResidueClass.C0),   # 6/3 = 2 even
            (3, ResidueClass.C2),   # 3/3 = 1 odd
            (8, ResidueClass.C1),   # 8 in C2, even
            (5, ResidueClass.C2),   # 5 in C2, odd
            (7, ResidueClass.C2),   # 7 in C1
        ],
    )
    def test_spot_transitions(self, x, target_class):
        assert residue_class(step(x)[0]) is target_class
        assert verify_transitions(x, x).ok


class TestReduction:
    def test_clean_range_with_correspondence(self):
        report = verify_reduction(2, 10**4)
        assert report.ok
        assert report.inconclusive == []
        assert report.checked == 10**4 - 1

    def test_elimination_hooks_at_4_and_13(self):
        # contracting a C1 vertex rewires its C2 predecessor to its C2 successor
        assert pred_even(4) == 8 and step(4)[0] == 2
        assert pred_even(13) == 26 and step(13)[0] == 20
        assert verify_reduction(4, 4).ok
        assert verify_reduction(13, 13).ok

    def test_budget_limited_check_is_inconclusive_not_violation(self):
        report = verify_reduction(26, 26, budget=2)
        assert report.violations == []
        assert [x for x, _ in report.inconclusive] == [26]

    def test_hooks_only_mode_skips_correspondence(self):
        report = verify_reduction(26, 26, budget=2, include_correspondence=False)
        assert report.ok
        assert report.inconclusive == []

    def test_range_guard(self):
        with pytest.raises(ValueError):
            verify_reduction(0, 10)
        with pytest.raises(ValueError, match="budget must be >= 0"):
            verify_reduction(1, 10, budget=-1)


class TestReportShape:
    def test_deterministic_modulo_timing(self):
        a = verify_transitions(1, 5000)
        b = verify_transitions(1, 5000)
        assert (a.fact_id, a.lo, a.hi, a.checked, a.violations, a.inconclusive) == (
            b.fact_id,
            b.lo,
            b.hi,
            b.checked,
            b.violations,
            b.inconclusive,
        )

    def test_json_document(self):
        doc = verify_transitions(1, 100).to_json_dict()
        assert doc["schema_version"] == 1
        assert doc["fact_id"] == "class-transitions"
        assert doc["range"] == [1, 100]
        assert doc["checked"] == 100
        assert doc["violations"] == []
        assert doc["inconclusive"] == []
        assert doc["elapsed"] >= 0

    def test_ok_property(self):
        report = RangeReport(fact_id="demo", lo=1, hi=1, checked=1)
        assert report.ok
        assert not report._replace(violations=[(1, "witness")]).ok

    def test_default_witnesses_share_no_list(self):
        """A default is one object for every report, so it is the immutable empty tuple."""
        a = RangeReport(fact_id="demo", lo=1, hi=1, checked=1)
        b = RangeReport(fact_id="demo", lo=2, hi=2, checked=1)
        for witnesses in (a.violations, a.inconclusive, b.violations, b.inconclusive):
            assert type(witnesses) is tuple and witnesses == ()


class TestWitnesses:
    """A wrong class schedule must surface as exact, re-checkable witnesses."""

    def test_even_predecessor_class(self, monkeypatch):
        monkeypatch.setattr(facts, "_EVEN_PRED_CLASS", (1, 2, 0))
        assert verify_predecessor_structure(1, 8).violations == [
            (2, "even predecessor 4 in C1, expected C0"),
            (3, "even predecessor 6 in C0, expected C1"),
            (5, "even predecessor 10 in C1, expected C0"),
            (6, "even predecessor 12 in C0, expected C1"),
            (8, "even predecessor 16 in C1, expected C0"),
        ]

    def test_odd_predecessor_class(self, monkeypatch):
        monkeypatch.setattr(facts, "_ODD_PRED_CLASS", (0, 1, 2))
        assert verify_predecessor_structure(1, 14).violations == [
            (2, "odd predecessor 1 in C1, expected C0 since (x-2)/3 is in C0"),
            (5, "odd predecessor 3 in C0, expected C1 since (x-2)/3 is in C1"),
            (11, "odd predecessor 7 in C1, expected C0 since (x-2)/3 is in C0"),
            (14, "odd predecessor 9 in C0, expected C1 since (x-2)/3 is in C1"),
        ]

    def test_step_class(self, monkeypatch):
        monkeypatch.setattr(core_map, "STEP_CLASS_AT", (0, 2, 1, 2, 2, 1))
        assert verify_transitions(1, 12).violations == [
            (5, "C2 -> C2 at step(5) = 8, expected C1"),
            (11, "C2 -> C2 at step(11) = 17, expected C1"),
        ]
