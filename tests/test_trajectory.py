"""Unit tests for orbits, convergence probes, and the reduced-orbit correspondence."""

import pickle
from typing import NamedTuple

import pytest
from hypothesis import example, given, settings, strategies as st

from collatz_lab.core_map import ReducedRule, ResidueClass, Rule, reduced_step, residue_class, step
from collatz_lab.trajectory import (
    BudgetExhaustedError,
    OrbitOutcome,
    Trajectory,
    converges,
    correspondence,
    orbit,
    reduced_orbit,
)

positives = st.integers(min_value=1, max_value=10**5)
c2_values = st.integers(min_value=0, max_value=33_332).map(lambda k: 3 * k + 2)


class ReferenceWalk(NamedTuple):
    """The reference walk's record: every field of a `Trajectory`, with the rules it fired stored."""

    start: int
    values: tuple
    rules: tuple
    steps: int
    peak: int
    final: int
    truncated: bool


def record(traj: Trajectory) -> ReferenceWalk:
    """The fields of `traj` that the reference walk records, `rules` included."""
    return ReferenceWalk(*(getattr(traj, field) for field in ReferenceWalk._fields))


def reference_walk(step_fn, x, budget, target, value_cap) -> ReferenceWalk:
    """Apply `step_fn` from x until `target` is hit or `budget` steps elapse.

    The loop `trajectory._walk` inlines: one `step`/`reduced_step` call, and
    one (value, rule) pair kept, per step, with the peak tracked at each step.
    """
    if budget < 0:
        raise ValueError(f"budget must be >= 0, got {budget}")
    values = [x]
    rules = []
    v = x
    peak = x
    steps = 0
    truncated = False
    while v != target and steps < budget:
        v, rule = step_fn(v)
        steps += 1
        if v > peak:
            peak = v
        if len(values) < value_cap:
            values.append(v)
            rules.append(rule)
        else:
            truncated = True
    return ReferenceWalk(
        start=x,
        values=tuple(values),
        rules=tuple(rules),
        steps=steps,
        peak=peak,
        final=v,
        truncated=truncated,
    )


class TestOrbit:
    def test_trajectory_of_27(self):
        traj = orbit(27, 1000, 1)
        assert traj.values[:5] == (27, 41, 62, 31, 47)
        assert traj.peak == 4616
        assert traj.steps == 70
        assert traj.final == 1
        assert traj.rules[0] is Rule.R2

    def test_start_equals_target(self):
        assert orbit(1, 10, 1).steps == 0
        assert orbit(1, 10, 1).values == (1,)

    def test_budget_exhaustion_encoded_in_length(self):
        traj = orbit(27, 5, 1)
        assert traj.steps == 5
        assert traj.final != 1
        assert len(traj.values) == 6

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            orbit(0, 10, 1)

    @pytest.mark.parametrize(
        "walk, steps, peak, final",
        [
            (lambda cap: orbit(27, 1000, 1, value_cap=cap), 70, 4616, 1),
            (lambda cap: reduced_orbit(41, 1000, value_cap=cap), 48, 4616, 2),
        ],
        ids=["orbit", "reduced_orbit"],
    )
    def test_value_cap_keeps_statistics_exact(self, walk, steps, peak, final):
        full, capped = walk(10**4), walk(5)
        assert capped.truncated and not full.truncated
        assert capped.values == full.values[:5]
        assert capped.rules == full.rules[:4]
        assert capped.steps == steps
        assert capped.peak == peak
        assert capped.final == final

    @pytest.mark.parametrize(
        "walk",
        [
            lambda cap: orbit(27, 1000, 1, value_cap=cap),
            lambda cap: reduced_orbit(41, 1000, value_cap=cap),
        ],
        ids=["orbit", "reduced_orbit"],
    )
    def test_value_cap_below_one_rejected(self, walk):
        for cap in (0, -1):
            with pytest.raises(ValueError, match="value_cap must be >= 1"):
                walk(cap)
        one = walk(1)
        assert one.values == (one.start,) and one.rules == () and one.truncated

    @given(positives)
    def test_shape_and_rule_agreement(self, x):
        """values/rules line up, each rule matches the parity at its source, peak is the max."""
        traj = orbit(x, 10**4, 1)
        assert len(traj.rules) == len(traj.values) - 1
        assert traj.peak == max(traj.values)
        assert traj.final == traj.values[-1]
        for v, rule in zip(traj.values, traj.rules):
            assert (rule is Rule.R1) == (v % 2 == 0)
        for a, b in zip(traj.values, traj.values[1:]):
            assert step(a)[0] == b

    @given(positives)
    def test_class_transitions_along_orbit(self, x):
        """Every transition obeys the per-class schedule: C0 -> C0/C2, C1 -> C2, C2 -> C1/C2."""
        traj = orbit(x, 10**4, 1)
        for a, b in zip(traj.values, traj.values[1:]):
            acls, bcls = residue_class(a), residue_class(b)
            if acls is ResidueClass.C0:
                want = ResidueClass.C0 if (a // 3) % 2 == 0 else ResidueClass.C2
            elif acls is ResidueClass.C1:
                want = ResidueClass.C2
            else:
                want = ResidueClass.C1 if a % 2 == 0 else ResidueClass.C2
            assert bcls is want

    @given(positives)
    def test_no_c0_reentry(self, x):
        """The C0 positions of any orbit form a prefix: once out, never back in."""
        traj = orbit(x, 10**4, 1)
        seen_outside = False
        for v in traj.values:
            if v % 3 == 0:
                assert not seen_outside
            else:
                seen_outside = True


class TestConverges:
    def test_reaches_one(self):
        status = converges(27, 10**4, 1)
        assert status.outcome is OrbitOutcome.REACHED_TARGET
        assert status.steps_used == 70
        assert status.peak == 4616

    def test_drops_below_floor(self):
        status = converges(28, 10**4, 28)
        assert status.outcome is OrbitOutcome.DROPPED_BELOW_FLOOR
        assert status.steps_used == 1
        assert status.final == 14

    def test_budget_exhausted(self):
        status = converges(27, 5, 1)
        assert status.outcome is OrbitOutcome.BUDGET_EXHAUSTED
        assert status.steps_used == 5

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            converges(0, 10, 1)

    @given(positives)
    def test_agrees_with_orbit(self, x):
        """The inlined loop and the rule-recording orbit tell the same story."""
        status = converges(x, 10**4, 1)
        traj = orbit(x, 10**4, 1)
        assert status.outcome is OrbitOutcome.REACHED_TARGET
        assert status.steps_used == traj.steps
        assert status.peak == traj.peak
        assert status.final == 1


class TestReducedOrbit:
    def test_examples(self):
        assert reduced_orbit(8, 10).values == (8, 2)
        five = reduced_orbit(5, 10)
        assert five.values == (5, 8, 2)
        assert five.rules == (ReducedRule.Q3, ReducedRule.Q1)
        assert reduced_orbit(2, 10).values == (2,)
        assert reduced_orbit(2, 10).steps == 0

    @pytest.mark.parametrize("x", [0, 1, 27])
    def test_domain_errors(self, x):
        with pytest.raises(ValueError):
            reduced_orbit(x, 10)

    def test_budget_exhaustion_encoded_in_length(self):
        traj = reduced_orbit(26, 1)
        assert traj.steps == 1
        assert traj.final != 2


class TestCorrespondence:
    def test_examples(self):
        assert correspondence(26, 100)
        assert correspondence(5, 100)
        assert correspondence(2, 100)

    def test_trace_of_26(self):
        full = orbit(26, 100, 2)
        assert full.values == (26, 13, 20, 10, 5, 8, 4, 2)
        assert tuple(v for v in full.values if v % 3 == 2) == (26, 20, 5, 8, 2)
        assert reduced_orbit(26, 100).values == (26, 20, 5, 8, 2)

    @pytest.mark.parametrize("x", [0, 1, 27])
    def test_domain_errors(self, x):
        with pytest.raises(ValueError):
            correspondence(x, 100)

    def test_budget_exhaustion_is_an_error_not_false(self):
        with pytest.raises(BudgetExhaustedError):
            correspondence(26, 2)

    @given(c2_values)
    def test_holds_on_c2(self, x):
        """The reduced orbit is exactly the C2 subsequence of the full orbit."""
        assert correspondence(x, 10**6)


def reference_correspondence(x, budget):
    """Record both orbits whole by the step functions and compare the full one's C2 members."""
    if residue_class(x) is not ResidueClass.C2:
        raise ValueError(f"correspondence is defined on class C2, got {x}")
    full = reference_walk(step, x, budget, 2, budget + 1)
    if full.final != 2:
        raise BudgetExhaustedError(
            f"orbit of {x} did not reach 2 within {budget} steps"
        )
    reduced = reference_walk(reduced_step, x, budget, 2, budget + 1)
    if reduced.final != 2:
        raise BudgetExhaustedError(
            f"reduced orbit of {x} did not reach 2 within {budget} steps"
        )
    filtered = [v for v in full.values if v % 3 == 2]
    return filtered == list(reduced.values)


def outcome(fn, x, budget):
    try:
        return fn(x, budget)
    except BudgetExhaustedError as exc:
        return str(exc)


def kind(result) -> str:
    if isinstance(result, bool):
        return str(result)
    return "reduced orbit message" if result.startswith("reduced") else "full orbit message"


c2_starts = st.one_of(
    c2_values, st.integers(10**12, 10**12 + 10**6).map(lambda k: 3 * k + 2)
)


class TestCorrespondenceAgainstTwoOrbits:
    """`correspondence` returns or raises exactly what the step-function comparison does."""

    @settings(max_examples=200, deadline=None)
    @given(c2_starts, st.integers(0, 60))
    @example(2, 0)
    def test_true_map(self, x, budget):
        assert outcome(correspondence, x, budget) == outcome(reference_correspondence, x, budget)

    def test_true_map_outcomes(self):
        """The reduced orbit takes one step per C2 value after the start of the
        full orbit, so it never runs out of budget first and never diverges."""
        kinds = set()
        for x in range(2, 300, 3):
            for budget in range(61):
                got = outcome(correspondence, x, budget)
                assert got == outcome(reference_correspondence, x, budget)
                kinds.add(kind(got))
        assert kinds == {"True", "full orbit message"}

    def test_negative_budget(self):
        with pytest.raises(ValueError):
            correspondence(5, -1)
        with pytest.raises(ValueError):
            reference_correspondence(5, -1)


near_1e12 = st.integers(10**12, 10**12 + 10**6)


class TestWalkAgainstStepFunctions:
    """The inline loop returns exactly the Trajectory of the step-function walk."""

    @settings(max_examples=300, deadline=None)
    @given(
        st.one_of(positives, near_1e12),
        st.integers(0, 300),
        st.sampled_from([0, 1, 2]),
        st.one_of(st.sampled_from([1, 2]), st.integers(3, 12), st.integers(301, 400)),
    )
    @example(27, 300, 1, 1)
    @example(27, 70, 1, 71)  # the cap holds every value: not truncated
    @example(27, 70, 1, 70)  # one value short: truncated
    @example(1, 5, 0, 2)  # target 0 is never reached: the 1-2 cycle runs the budget out
    def test_orbit(self, x, budget, target, value_cap):
        got = orbit(x, budget, target, value_cap)
        assert record(got) == reference_walk(step, x, budget, target, value_cap)
        assert not got.reduced

    @settings(max_examples=300, deadline=None)
    @given(
        st.one_of(positives, near_1e12).map(lambda k: 3 * k + 2),
        st.integers(0, 300),
        st.one_of(st.sampled_from([1, 2]), st.integers(3, 12), st.integers(301, 400)),
    )
    @example(26, 300, 1)
    @example(41, 48, 49)
    @example(41, 48, 48)
    def test_reduced_orbit(self, x, budget, value_cap):
        got = reduced_orbit(x, budget, value_cap)
        assert record(got) == reference_walk(reduced_step, x, budget, 2, value_cap)
        assert got.reduced

    @pytest.mark.parametrize("cap", [5, 10**4])
    def test_every_rule_on_both_sides_of_the_cap(self, cap):
        full, reduced = orbit(27, 300, 1, cap), reduced_orbit(41, 300, cap)
        assert record(full) == reference_walk(step, 27, 300, 1, cap)
        assert record(reduced) == reference_walk(reduced_step, 41, 300, 2, cap)
        assert full.truncated == reduced.truncated == (cap == 5)
        if cap > 5:
            assert set(full.rules) == set(Rule)
            assert set(reduced.rules) == set(ReducedRule)

    @settings(max_examples=300, deadline=None)
    @given(
        st.one_of(positives, near_1e12),
        st.integers(0, 200),
        # value_cap = max(1, scale * budget + offset): 1, 2, budget - 1, budget, budget + 1
        st.sampled_from([(0, 1), (0, 2), (1, -1), (1, 0), (1, 1)]),
        st.booleans(),
        st.sampled_from([0, 1]),
    )
    @example(27, 70, (1, 0), False, 1)  # the last step is the first past the cap
    @example(27, 70, (1, 1), False, 1)  # the cap holds every value
    @example(27, 71, (1, -1), False, 1)  # the orbit ends before the budget, past the cap
    @example(1, 0, (0, 1), False, 0)
    @example(13, 48, (1, 0), True, 0)  # reduced_orbit(41): its last step is past the cap
    def test_cap_around_the_budget(self, x, budget, cap, reduced, target):
        """The value cap before, at and after the budget: the second loop runs only past the cap."""
        scale, offset = cap
        value_cap = max(1, scale * budget + offset)
        if reduced:
            x = 3 * x + 2
            got = reduced_orbit(x, budget, value_cap)
            want = reference_walk(reduced_step, x, budget, 2, value_cap)
        else:
            got = orbit(x, budget, target, value_cap)
            want = reference_walk(step, x, budget, target, value_cap)
        assert record(got) == want
        assert got.reduced == reduced


class TestDerivedRules:
    """`rules` is derived from the stored values on each read: it changes no comparison."""

    @pytest.mark.parametrize(
        "walk, step_fn, target",
        [(lambda: orbit(27, 1000, 1), step, 1), (lambda: reduced_orbit(41, 1000), reduced_step, 2)],
        ids=["orbit", "reduced_orbit"],
    )
    def test_computed_on_each_read(self, walk, step_fn, target):
        traj = walk()
        want = reference_walk(step_fn, traj.start, 1000, target, 1001).rules
        assert traj.rules == want
        assert traj.rules == want

    def test_equal_whether_or_not_rules_were_read(self):
        for a, b in ((orbit(27, 1000, 1), orbit(27, 1000, 1)),
                     (reduced_orbit(41, 1000, 5), reduced_orbit(41, 1000, 5))):
            assert a.rules
            assert a == b and b == a
            assert hash(a) == hash(b)
            assert repr(a) == repr(b)
            assert "rules" not in repr(a)

    def test_flavors_differ(self):
        """The same values under the two maps are different trajectories."""
        full, reduced = orbit(2, 10, 2), reduced_orbit(2, 10)
        assert full.values == reduced.values and full.rules == reduced.rules == ()
        assert full != reduced

    @pytest.mark.parametrize("read_first", [False, True])
    @pytest.mark.parametrize(
        "walk", [lambda: orbit(27, 1000, 1), lambda: reduced_orbit(41, 1000, 5)],
        ids=["orbit", "reduced_orbit"],
    )
    def test_pickle_round_trip(self, walk, read_first):
        traj = walk()
        if read_first:
            traj.rules
        copy = pickle.loads(pickle.dumps(traj))
        assert copy == traj
        assert hash(copy) == hash(traj)
        assert copy.rules == traj.rules


class TestStepsAccounting:
    @given(st.integers(min_value=2, max_value=10**5))
    def test_full_steps_decompose_through_the_reduction(self, x):
        """Steps to 1 = prefix to the first C2 value, then 2 per Q1/Q2 and 1
        per Q3 of the reduced orbit, plus the final 2 -> 1 step."""
        full = orbit(x, 10**6, 1)
        assert full.final == 1
        first_c2 = next(i for i, v in enumerate(full.values) if v % 3 == 2)
        reduced = reduced_orbit(full.values[first_c2], 10**6)
        q12 = sum(1 for r in reduced.rules if r is not ReducedRule.Q3)
        q3 = sum(1 for r in reduced.rules if r is ReducedRule.Q3)
        assert full.steps == first_c2 + 2 * q12 + q3 + 1
