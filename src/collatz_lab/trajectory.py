"""Forward orbits under the shortcut map and the reduced map on class C2.

`orbit` records per-step rules, step counts and peaks; `converges` is the
per-start convergence probe, the reference that the range sweep kernel in
`sweep` is tested against; `correspondence` checks that the reduced orbit
of a C2 value is exactly the C2 subsequence of its full orbit, the oracle
that the reduction suite `facts.verify_reduction` is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .core_map import ReducedRule, ResidueClass, Rule, residue_class

#: Default per-orbit step budget of every verifier and CLI command.
DEFAULT_BUDGET = 10**6

#: Orbits longer than this keep only their leading values (statistics stay exact).
DEFAULT_VALUE_CAP = 100_000


class BudgetExhaustedError(RuntimeError):
    """An orbit hit its step budget before reaching a conclusion."""


@dataclass(frozen=True)
class Trajectory:
    """An orbit together with the rule fired at each step.

    `values` includes the start and the last value reached; `rules[i]` is
    the rule applied at `values[i]`.  When the orbit outgrows the storage
    cap, `values`/`rules` keep only the leading entries (`truncated` is
    set) while `steps`, `peak` and `final` remain exact.
    """

    start: int
    values: tuple[int, ...]
    rules: tuple[Rule, ...] | tuple[ReducedRule, ...]
    steps: int
    peak: int
    final: int
    truncated: bool = False


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


#: The rule each map fires at v, by v mod 4.
_RULES = (Rule.R1, Rule.R2, Rule.R1, Rule.R2)
_REDUCED_RULES = (ReducedRule.Q1, ReducedRule.Q3, ReducedRule.Q2, ReducedRule.Q3)


def _walk(reduced: bool, x: int, budget: int, target: int, value_cap: int) -> Trajectory:
    """Apply the full (or reduced) map from x until `target` is hit or `budget` steps elapse.

    The one loop behind `orbit` and `reduced_orbit`.  The map's arithmetic
    is inline, as in `converges`; the loop keeps only the values, and the
    rule at each kept value is read off the value once the walk is over.
    Agreement with step() and reduced_step() is pinned by tests.
    """
    if budget < 0:
        raise ValueError(f"budget must be >= 0, got {budget}")
    if value_cap < 1:
        raise ValueError(f"value_cap must be >= 1, got {value_cap}")
    values = [x]
    v = peak = x
    steps = 0
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
        if steps < value_cap:
            values.append(v)
    table = _REDUCED_RULES if reduced else _RULES
    rules = tuple([table[u & 3] for u in values[:-1]])
    return Trajectory(
        start=x,
        values=tuple(values),
        rules=rules,
        steps=steps,
        peak=peak,
        final=v,
        truncated=steps >= value_cap,
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
