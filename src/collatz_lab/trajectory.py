"""Forward orbits under the shortcut map and the reduced map on class C2.

`orbit` records values, step counts and peaks (the rule at each value is
read off the value); `converges` is the per-start convergence probe, the
reference that the range sweep kernel in `sweep` is tested against;
`correspondence` checks that the reduced orbit of a C2 value is exactly
the C2 subsequence of its full orbit, the oracle that the reduction suite
`facts.verify_reduction` is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property

from .core_map import ReducedRule, ResidueClass, Rule, residue_class

#: Default per-orbit step budget of every verifier and CLI command.
DEFAULT_BUDGET = 10**6

#: Orbits longer than this keep only their leading values (statistics stay exact).
DEFAULT_VALUE_CAP = 100_000


class BudgetExhaustedError(RuntimeError):
    """An orbit hit its step budget before reaching a conclusion."""


#: The rule each map fires at v, by v mod 4.
_RULES = (Rule.R1, Rule.R2, Rule.R1, Rule.R2)
_REDUCED_RULES = (ReducedRule.Q1, ReducedRule.Q3, ReducedRule.Q2, ReducedRule.Q3)


@dataclass(frozen=True)
class Trajectory:
    """An orbit of the full map (or of the reduced map, `reduced` set).

    `values` includes the start and the last value reached.  When the
    orbit outgrows the storage cap, `values` keeps only the leading entries
    (`truncated` is set) while `steps`, `peak` and `final` remain exact.
    `rules` is not stored: `rules[i]`, the rule applied at `values[i]`, is
    read off that value mod 4 on first read and cached, so equality,
    hashing and `repr` go by the stored fields alone.
    """

    start: int
    values: tuple[int, ...]
    steps: int
    peak: int
    final: int
    truncated: bool = False
    reduced: bool = False

    @cached_property
    def rules(self) -> tuple[Rule, ...] | tuple[ReducedRule, ...]:
        """The rule applied at each value but the last."""
        table = _REDUCED_RULES if self.reduced else _RULES
        return tuple([table[u & 3] for u in self.values[:-1]])


class OrbitOutcome(Enum):
    REACHED_TARGET = "reached-target"
    DROPPED_BELOW_FLOOR = "dropped-below-floor"
    BUDGET_EXHAUSTED = "budget-exhausted"


@dataclass(frozen=True)
class OrbitStatus:
    """Result of a convergence probe: how it stopped and where.

    `final` and `peak` let callers resume verification below a range floor
    and aggregate sweep statistics without re-running the orbit.
    """

    outcome: OrbitOutcome
    steps_used: int
    final: int
    peak: int


def _walk(reduced: bool, x: int, budget: int, target: int, value_cap: int) -> Trajectory:
    """Apply the full (or reduced) map from x until `target` is hit or `budget` steps elapse.

    The one loop behind `orbit` and `reduced_orbit`.  The map's arithmetic
    is inline, as in `converges`.  The first loop only steps and keeps each
    value, and the peak is the largest of them; past the value cap, a
    second loop steps on and tracks the peak without keeping values.
    Agreement with step() and reduced_step() is pinned by tests.
    """
    if budget < 0:
        raise ValueError(f"budget must be >= 0, got {budget}")
    if value_cap < 1:
        raise ValueError(f"value_cap must be >= 1, got {value_cap}")
    values = [x]
    v = x
    for _ in range(min(budget, value_cap - 1)):
        if v == target:
            break
        if v & 1:
            v = (3 * v + 1) >> 1
        elif reduced:
            v = (3 * v + 2) >> 2 if v & 2 else v >> 2
        else:
            v >>= 1
        values.append(v)
    steps = len(values) - 1
    peak = max(values)
    while v != target and steps < budget:
        if v & 1:
            v = (3 * v + 1) >> 1
            if v > peak:
                peak = v
        elif reduced:
            v = (3 * v + 2) >> 2 if v & 2 else v >> 2
        else:
            v >>= 1
        steps += 1
    return Trajectory(
        start=x,
        values=tuple(values),
        steps=steps,
        peak=peak,
        final=v,
        truncated=steps >= value_cap,
        reduced=reduced,
    )


def orbit(x: int, budget: int, target: int, value_cap: int = DEFAULT_VALUE_CAP) -> Trajectory:
    """Iterate the forward map from x until `target` is hit or `budget` steps elapse.

    Budget exhaustion is encoded in the returned length (steps == budget
    and final != target), not raised as an error.
    """
    if x < 1:
        raise ValueError(f"map domain is x >= 1, got {x}")
    return _walk(False, x, budget, target, value_cap)


def converges(x: int, budget: int, floor: int) -> OrbitStatus:
    """Track the orbit of x until it reaches 1, drops below `floor`, or runs out of budget.

    The below-floor exit is a sound convergence proof only when every value
    below `floor` is already verified; ascending sweeps guarantee that, and
    the caller owns that guarantee.
    """
    if x < 1:
        raise ValueError(f"map domain is x >= 1, got {x}")
    v = x
    steps = 0
    peak = x
    while True:
        if v == 1:
            return OrbitStatus(OrbitOutcome.REACHED_TARGET, steps, v, peak)
        if v < floor:
            return OrbitStatus(OrbitOutcome.DROPPED_BELOW_FLOOR, steps, v, peak)
        if steps >= budget:
            return OrbitStatus(OrbitOutcome.BUDGET_EXHAUSTED, steps, v, peak)
        # Inline arithmetic, as in the sweep kernel.  Agreement with step()
        # is pinned by tests.
        if v & 1:
            v = (3 * v + 1) >> 1
            if v > peak:
                peak = v
        else:
            v >>= 1
        steps += 1


def reduced_orbit(x: int, budget: int, value_cap: int = DEFAULT_VALUE_CAP) -> Trajectory:
    """Iterate the reduced map from x (in C2) until 2 is hit or `budget` steps elapse."""
    if residue_class(x) is not ResidueClass.C2:
        raise ValueError(f"reduced orbits start in class C2, got {x}")
    return _walk(True, x, budget, 2, value_cap)


def correspondence(x: int, budget: int) -> bool:
    """Whether the C2 members of the full orbit of x equal its reduced orbit.

    The full orbit is run to target 2 (every orbit reaching 1 passes
    through 2 first, since 2 is the only predecessor of 1).  Both value
    sequences include the start and the terminal 2.  If either orbit fails
    to terminate within `budget`, the comparison is inconclusive and
    BudgetExhaustedError is raised — inconclusive is not false; a full
    orbit that misses 2 takes precedence.

    One lockstep walk: the full orbit advances, and each C2 value it meets
    takes the reduced orbit one step further for comparison.  Only after a
    mismatch is the reduced orbit walked alone, to tell False from its own
    budget running out.
    """
    if residue_class(x) is not ResidueClass.C2:
        raise ValueError(f"correspondence is defined on class C2, got {x}")
    if budget < 0:
        raise ValueError(f"budget must be >= 0, got {budget}")
    v = r = x
    matched = True
    for _ in range(budget):
        if v == 2:
            break
        v = (3 * v + 1) >> 1 if v & 1 else v >> 1
        # While matched, r is the previous C2 value (not 2) and has taken
        # fewer steps than v, so its next step is within the budget too.
        if matched and v % 3 == 2:
            r = (3 * r + 1) >> 1 if r & 1 else (3 * r + 2) >> 2 if r & 2 else r >> 2
            matched = r == v
    if v != 2:
        raise BudgetExhaustedError(
            f"orbit of {x} did not reach 2 within {budget} steps"
        )
    if not matched and reduced_orbit(x, budget, value_cap=1).final != 2:
        raise BudgetExhaustedError(
            f"reduced orbit of {x} did not reach 2 within {budget} steps"
        )
    return matched
