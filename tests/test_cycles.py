"""Unit tests for the rule-word algebra, fixed points, and cycle search."""

import gc
import itertools
import pickle
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from collatz_lab import core_map
from collatz_lab.core_map import ResidueClass, Rule, residue_class, step
from collatz_lab.cycles import (
    MAX_SEARCH_LEN,
    AffineForm,
    C0Chain,
    CycleCandidate,
    RuleSequence,
    affine_form,
    c0_chain,
    cycle_values,
    drives,
    fixed_point,
    search_cycles,
    verify_c0_structure,
    verify_no_small_cycles,
)
from collatz_lab.facts import RangeReport
from collatz_lab.trajectory import DEFAULT_BUDGET

R1, R2 = Rule.R1, Rule.R2

words = st.lists(st.sampled_from([R1, R2]), min_size=1, max_size=40)


def run_forward(x: int, k: int) -> tuple[int, list[Rule]]:
    """Apply the forward map k times, recording which rules fired."""
    rules = []
    v = x
    for _ in range(k):
        v, rule = step(v)
        rules.append(rule)
    return v, rules


class TestRuleSequence:
    def test_counts(self):
        seq = RuleSequence((R1, R2, R2))
        assert seq.length == 3
        assert seq.r1_count == 1
        assert seq.r2_count == 2
        assert str(seq) == "R1-R2-R2"
        assert len(seq) == 3
        assert list(seq) == [R1, R2, R2]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            RuleSequence(())

    def test_coerces_iterables(self):
        assert RuleSequence([R1, R2]).rules == (R1, R2)

    def test_non_rules_rejected(self):
        with pytest.raises(TypeError):
            RuleSequence((R1, 2))

    def test_value_semantics(self):
        a, b = RuleSequence((R1, R2)), RuleSequence(iter([R1, R2]))
        assert a == b and hash(a) == hash(b)
        assert a != RuleSequence((R2, R1)) and a != (R1, R2)
        assert repr(a) == f"RuleSequence(rules={(R1, R2)!r})"
        assert pickle.loads(pickle.dumps(a)) == a

    def test_rules_are_read_only(self):
        seq = RuleSequence((R1,))
        with pytest.raises(AttributeError):
            seq.rules = (R2,)
        with pytest.raises(AttributeError):
            seq.extra = 1


class TestAffineForm:
    @pytest.mark.parametrize(
        "word, expected",
        [
            ([R2], AffineForm(pow3=1, addend=1, pow2=1)),        # (3x+1)/2
            ([R2, R1], AffineForm(pow3=1, addend=1, pow2=2)),    # (3x+1)/4
            ([R1, R2], AffineForm(pow3=1, addend=2, pow2=2)),    # (3x+2)/4
        ],
    )
    def test_examples(self, word, expected):
        assert affine_form(word) == expected

    def test_pure_halving_has_zero_addend(self):
        assert affine_form([R1, R1, R1]) == AffineForm(pow3=0, addend=0, pow2=3)

    @given(words)
    def test_matches_linear_composition(self, word):
        """Independent oracle: compose x -> ax + b coefficients step by step."""
        a, b = Fraction(1), Fraction(0)
        for rule in word:
            if rule is R1:
                a, b = a / 2, b / 2
            else:
                a, b = 3 * a / 2, (3 * b + 1) / 2
        form = affine_form(word)
        assert a == Fraction(3**form.pow3, 2**form.pow2)
        assert b == Fraction(form.addend, 2**form.pow2)

    @given(st.integers(min_value=1, max_value=10**4), st.integers(min_value=1, max_value=40))
    def test_apply_reproduces_the_simulation(self, x, k):
        """The affine form of the word an orbit actually takes maps x to the exact endpoint."""
        end, rules = run_forward(x, k)
        assert affine_form(rules).apply(x) == Fraction(end)


class TestDrives:
    def test_orbit_word_is_driven(self):
        _end, rules = run_forward(7, 12)
        # a word taken from the orbit is parity-consistent at every step,
        # but only a genuine cycle returns to its start
        assert drives([R1, R2], 2)
        assert drives([R2, R1], 1)
        assert drives(rules, 7) == (run_forward(7, 12)[0] == 7)

    def test_wrong_parity_fails(self):
        assert not drives([R1], 3)       # 3 is odd, R1 needs even
        assert not drives([R1, R2], 1)   # 1 is odd


class TestFixedPoint:
    def test_two_cycle_entered_at_2(self):
        cand = fixed_point([R1, R2])
        assert cand is not None
        assert cand.x == 2
        assert cand.consistent
        assert cand.simple

    def test_two_cycle_entered_at_1(self):
        cand = fixed_point([R2, R1])
        assert cand is not None
        assert cand.x == 1
        assert cand.consistent

    def test_double_odd_step_has_no_fixed_point(self):
        assert fixed_point([R2, R2]) is None  # denominator 4 - 9 < 0

    @pytest.mark.parametrize("word", [[R1], [R1, R1], [R1, R1, R1]])
    def test_pure_halving_has_no_fixed_point(self, word):
        assert fixed_point(word) is None  # addend 0 forces x = 0

    @given(words)
    def test_candidates_satisfy_the_balance_bound(self, word):
        """Any candidate's word has 2**length > 3**r2_count, exactly."""
        cand = fixed_point(word)
        if cand is not None:
            assert (1 << cand.seq.length) > 3**cand.seq.r2_count

    @given(words)
    def test_every_solution_is_consistent(self, word):
        """No parity-inconsistent solution exists (the rotation argument)."""
        cand = fixed_point(word)
        assert cand is None or cand.consistent


def reference_search_cycles(max_len: int) -> list[CycleCandidate]:
    """Depth first over every word: the walk `search_cycles` replaces below
    length max_len - 12 with a level-at-a-time expansion."""
    if not 1 <= max_len <= MAX_SEARCH_LEN:
        raise ValueError(f"max_len must be in [1, {MAX_SEARCH_LEN}], got {max_len}")
    found = []
    # (length k, R2 count p, addend a, mask with bit j set iff R2 at position j)
    stack = [(1, 0, 0, 0), (1, 1, 1, 1)]
    while stack:
        k, p, a, mask = stack.pop()
        d = (1 << k) - 3**p
        if d > 0 and a > 0 and a % d == 0:
            found.append(fixed_point(R2 if (mask >> j) & 1 else R1 for j in range(k)))
        if k < max_len:
            stack.append((k + 1, p, a, mask))
            stack.append((k + 1, p + 1, 3 * a + (1 << k), mask | (1 << k)))
    found.sort(key=lambda c: (c.seq.length, tuple(r is R2 for r in c.seq.rules)))
    return found


class TestSearchCycles:
    def test_no_length_three_cycle(self):
        assert [c for c in search_cycles(3) if c.seq.length == 3] == []

    def test_length_four_is_the_doubled_two_cycle(self):
        quads = [c for c in search_cycles(4) if c.seq.length == 4]
        assert [(c.seq.rules, c.x) for c in quads] == [
            ((R1, R2, R1, R2), 2),
            ((R2, R1, R2, R1), 1),
        ]
        assert all(not c.simple for c in quads)

    def test_simple_flag_marks_repetitions(self):
        by_len = {}
        for c in search_cycles(8):
            by_len.setdefault(c.seq.length, []).append(c)
        assert all(c.simple for c in by_len[2])
        assert all(not c.simple for k in (4, 6, 8) for c in by_len[k])

    def test_agrees_with_brute_force_orbit_search(self):
        # Independent oracle: run the forward map from every x <= 10**4 and
        # record each return to the start within 12 steps.
        max_len, max_x = 12, 10**4
        expected = set()
        for x in range(1, max_x + 1):
            v, word = x, []
            for _ in range(max_len):
                v, rule = step(v)
                word.append(rule)
                if v == x:
                    expected.add((tuple(word), x))
        got = {(c.seq.rules, c.x) for c in search_cycles(max_len)}
        assert got == expected

    def test_rotation_closure(self):
        """Every rotation of a consistent word is again a consistent cycle word."""
        for cand in search_cycles(10):
            rules = cand.seq.rules
            for shift in range(len(rules)):
                rotated = rules[shift:] + rules[:shift]
                rotated_cand = fixed_point(rotated)
                assert rotated_cand is not None and rotated_cand.consistent

    def test_cycle_values_avoid_c0(self):
        for cand in search_cycles(12):
            values = cycle_values(cand)
            assert len(values) == cand.seq.length
            assert all(v % 3 != 0 for v in values)
            assert step(values[-1])[0] == cand.x

    def test_deterministic_order(self):
        assert search_cycles(12) == search_cycles(12)
        lengths = [c.seq.length for c in search_cycles(12)]
        assert lengths == sorted(lengths)

    def test_equals_fixed_point_over_every_word(self):
        """The prefix walk keeps exactly the words fixed_point() solves."""
        max_len = 12
        expected = [
            cand
            for k in range(1, max_len + 1)
            for word in itertools.product((R1, R2), repeat=k)
            if (cand := fixed_point(word)) is not None
        ]
        expected.sort(key=lambda c: (c.seq.length, tuple(r is R2 for r in c.seq.rules)))
        assert search_cycles(max_len) == expected

    def test_length_20_is_the_two_cycle_family(self):
        """Each even length holds the {1, 2} cycle entered at 2, then at 1."""
        expected = [
            (word * (length // 2), x, length == 2)
            for length in range(2, 21, 2)
            for word, x in (((R1, R2), 2), ((R2, R1), 1))
        ]
        found = search_cycles(20)
        assert [(c.seq.rules, c.x, c.simple) for c in found] == expected
        assert all(c.consistent for c in found)

    @pytest.mark.parametrize("bad", [0, -1, 31])
    def test_length_guard(self, bad):
        with pytest.raises(ValueError):
            search_cycles(bad)

    @pytest.mark.parametrize("max_len", range(1, 19))
    def test_equals_the_depth_first_walk(self, max_len):
        """Lengths 12, 13 and 14 cross from a level-wise search to a depth-first prefix."""
        assert search_cycles(max_len) == reference_search_cycles(max_len)

    def test_memory_is_bounded(self):
        """The level-wise part holds at most 2^13 words: no list of all 2^20 of them."""
        gc.collect()  # free-list objects made before tracing would go uncounted
        tracemalloc.start()
        try:
            search_cycles(20)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20


class TestCycleValues:
    def test_two_cycle(self):
        cand = fixed_point([R1, R2])
        assert cycle_values(cand) == (2, 1)

    def test_inconsistent_candidate_rejected(self):
        fake = CycleCandidate(
            seq=RuleSequence((R1,)), x=3, consistent=False, simple=True
        )
        with pytest.raises(ValueError):
            cycle_values(fake)


# Per-value reference bodies of the two range verifiers, through step() and
# c0_chain(); the verifiers fuse them into loops over plain ints.


def reference_no_small_cycles(range_max: int) -> RangeReport:
    violations = []
    for x in range(1, range_max + 1):
        t1, _ = step(x)
        if t1 == x:
            violations.append((x, f"step({x}) = {x}: cycle of length one"))
            continue
        t2, _ = step(t1)
        if x in (1, 2):
            if t2 != x:
                violations.append((x, f"known 2-cycle through 1 and 2 broken at {x}"))
        elif t2 == x:
            violations.append((x, f"step^2({x}) = {x}: 2-cycle outside {{1, 2}}"))
    return RangeReport("no-small-cycles", 1, range_max, range_max, violations, [])


def reference_c0_structure(range_max: int, budget: int) -> RangeReport:
    violations = []
    inconclusive = []
    for x in range(1, range_max + 1):
        in_c0 = residue_class(x) is ResidueClass.C0
        if in_c0 and x >= 3:
            chain = c0_chain(x)
            if chain.odd_part % 2 == 0 or chain.odd_part % 3 != 0:
                violations.append(
                    (x, f"odd part {chain.odd_part} is not an odd multiple of 3")
                )
        left_c0 = not in_c0
        v = x
        steps = 0
        while v >= x > 1:
            if steps == budget:
                inconclusive.append(
                    (x, f"orbit of {x} did not drop below {x} within {budget} steps")
                )
                break
            v, _rule = step(v)
            steps += 1
            if v % 3 == 0:
                if left_c0:
                    violations.append((x, f"orbit re-entered C0 at {v}"))
                    break
            else:
                left_c0 = True
    return RangeReport("c0-structure", 1, range_max, range_max, violations, inconclusive)


def fields(report: RangeReport) -> tuple:
    """Everything in a report but the wall time."""
    return (report.fact_id, report.lo, report.hi, report.checked,
            report.violations, report.inconclusive)


budgets = st.one_of(st.integers(0, 40), st.just(DEFAULT_BUDGET))


class TestFusedAgainstReference:
    """Each fused verifier returns its per-value reference body's report."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 3000))
    @example(2)
    def test_no_small_cycles(self, range_max):
        assert fields(verify_no_small_cycles(range_max)) == fields(
            reference_no_small_cycles(range_max)
        )

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 3000), budgets)
    @example(1, 0)
    def test_c0_structure(self, range_max, budget):
        # The one-step check concludes every start; the walk, those it ends within budget.
        got, walk = verify_c0_structure(range_max), reference_c0_structure(range_max, budget)
        assert (fields(got)[:-1], got.inconclusive) == (fields(walk)[:-1], [])

    @pytest.mark.parametrize("budget", [*range(0, 41), DEFAULT_BUDGET])
    def test_c0_witnesses_at_every_budget(self, budget):
        """The walk's witnesses at any budget are the one-step check's, which leaves none open."""
        got, walk = verify_c0_structure(2000), reference_c0_structure(2000, budget)
        assert (fields(got)[:-1], got.inconclusive) == (fields(walk)[:-1], [])
        assert bool(walk.inconclusive) == (budget != DEFAULT_BUDGET)

    def test_at_the_benchmark_size(self):
        assert fields(verify_no_small_cycles(20_000)) == fields(
            reference_no_small_cycles(20_000)
        )
        assert fields(verify_c0_structure(20_000)) == fields(
            reference_c0_structure(20_000, DEFAULT_BUDGET)
        )


class TestNoSmallCycles:
    def test_clean_range(self):
        report = verify_no_small_cycles(10**4)
        assert report.ok
        assert report.checked == 10**4
        assert report.fact_id == "no-small-cycles"
        assert report.elapsed >= 0

    def test_spot_checks(self):
        # 4 -> 2 -> 1 is not a 2-cycle; 1 and 2 do form the known one
        assert step(step(4)[0])[0] == 1
        assert step(step(1)[0])[0] == 1
        assert step(step(2)[0])[0] == 2

    def test_range_guard(self):
        with pytest.raises(ValueError):
            verify_no_small_cycles(1)


class TestC0Chain:
    @pytest.mark.parametrize(
        "x, halvings, odd_part",
        [(24, 3, 3), (42, 1, 21), (9, 0, 9), (6, 1, 3)],
    )
    def test_examples(self, x, halvings, odd_part):
        chain = c0_chain(x)
        assert chain == C0Chain(x=x, halvings=halvings, odd_part=odd_part)

    def test_chain_values(self):
        assert c0_chain(24).values() == (24, 12, 6, 3)

    @pytest.mark.parametrize("x", [0, 1, 2, 5, 8])
    def test_domain_errors(self, x):
        with pytest.raises(ValueError):
            c0_chain(x)

    @given(
        st.builds(
            lambda k, j: 3 * k << j, st.integers(1, 10**30), st.integers(0, 100)
        )
    )
    def test_forward_halvings_reach_the_odd_part(self, x):
        """Following the forward map for `halvings` steps lands on the odd part."""
        chain = c0_chain(x)
        v = x
        for _ in range(chain.halvings):
            v, rule = step(v)
            assert rule is Rule.R1
        assert v == chain.odd_part
        assert chain.odd_part % 2 == 1
        assert chain.odd_part % 3 == 0
        assert x == (1 << chain.halvings) * chain.odd_part


class TestC0Structure:
    def test_clean_range(self):
        report = verify_c0_structure(10**4)
        assert report.ok
        assert report.checked == 10**4
        assert report.fact_id == "c0-structure"

    def test_range_guard(self):
        with pytest.raises(ValueError):
            verify_c0_structure(0)

    @pytest.mark.parametrize("row", [1, 2, 4, 5])
    def test_a_transition_row_into_c0_from_outside_is_a_violation(self, monkeypatch, row):
        # The six residues mod 6 carry the one-step lemma past range_max.
        table = list(core_map.STEP_CLASS_AT)
        table[row] = 0
        monkeypatch.setattr(core_map, "STEP_CLASS_AT", tuple(table))
        report = verify_c0_structure(100)
        assert report.violations == [
            (row, f"{row} mod 6 is in C{row % 3}, but the transition table steps it into C0")
        ]
