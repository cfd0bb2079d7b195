"""Pure functions for the shortcut Collatz map and its reduced form.

The forward map sends even x to x/2 and odd x to (3x+1)/2, so every
tripling step folds in the halving that must follow it.  Working mod 3
splits the positive integers into classes C0/C1/C2 whose transition
structure drives everything else in this package: how many predecessors a
value has, why multiples of 3 form pure doubling chains, and why the
dynamics can be restricted to class C2 alone (the reduced map).

All functions here are stateless and safe to call concurrently.
"""

from __future__ import annotations

from enum import Enum


class ResidueClass(Enum):
    """Residue of a positive integer mod 3."""

    C0 = 0
    C1 = 1
    C2 = 2


class Rule(Enum):
    """Branch of the forward map: R1 halves, R2 is the odd step (3x+1)/2."""

    R1 = "R1"
    R2 = "R2"


class ReducedRule(Enum):
    """Branch of the reduced map on class C2.

    Q1: x/4 when x ≡ 0 (mod 4); Q2: (3x+2)/4 when x ≡ 2 (mod 4);
    Q3: (3x+1)/2 when x is odd.  The three conditions partition C2.
    """

    Q1 = "Q1"
    Q2 = "Q2"
    Q3 = "Q3"


#: The rule each map fires at v, by v mod 4.
RULE_AT = (Rule.R1, Rule.R2, Rule.R1, Rule.R2)
REDUCED_RULE_AT = (ReducedRule.Q1, ReducedRule.Q3, ReducedRule.Q2, ReducedRule.Q3)
#: The class of step(x), by x mod 6: from C0 to C0 when x/3 is even and to C2
#: when it is odd; from C1 always to C2; from C2 to C1 when x is even and to C2
#: when it is odd.
STEP_CLASS_AT = (0, 2, 1, 2, 2, 2)

_CLASSES = (ResidueClass.C0, ResidueClass.C1, ResidueClass.C2)


def require_positive(x: int) -> None:
    """The map's domain is x >= 1."""
    if x < 1:
        raise ValueError(f"map domain is x >= 1, got {x}")


def _require_c2(x: int) -> None:
    require_positive(x)
    if x % 3 != 2:
        raise ValueError(f"reduced map domain is class C2 (x ≡ 2 mod 3), got {x}")


def residue_class(x: int) -> ResidueClass:
    """Class of x mod 3.  Requires x >= 1."""
    require_positive(x)
    return _CLASSES[x % 3]


def step(x: int) -> tuple[int, Rule]:
    """Apply the forward map once, reporting which rule fired.

    Returns (x/2, R1) for even x and ((3x+1)/2, R2) for odd x; the result
    is always a positive integer.
    """
    require_positive(x)
    if x & 1:
        return (3 * x + 1) >> 1, Rule.R2
    return x >> 1, Rule.R1


def pred_even(x: int) -> int:
    """The even predecessor 2x; step(2x) always returns to x via R1."""
    require_positive(x)
    return 2 * x


def pred_odd(x: int) -> int | None:
    """The odd predecessor (2x-1)/3, which exists exactly when x is in C2.

    For x = 3k+2 the candidate is (6k+3)/3 = 2k+1, an odd integer whose
    odd step lands back on x.  For the other two classes 2x-1 is not
    divisible by 3 and there is no odd predecessor; None encodes that.
    """
    require_positive(x)
    if x % 3 != 2:
        return None
    return (2 * x - 1) // 3


def predecessors(x: int) -> list[tuple[int, Rule]]:
    """All y with step(y) landing on x, each tagged with the rule fired at y.

    The even predecessor is always present and listed first; values in C2
    additionally have the odd predecessor, so the list has length 2 exactly
    on class C2 and length 1 otherwise.
    """
    require_positive(x)
    preds = [(2 * x, Rule.R1)]
    if x % 3 == 2:
        preds.append(((2 * x - 1) // 3, Rule.R2))
    return preds


def reduced_step(x: int) -> tuple[int, ReducedRule]:
    """Apply the reduced map on class C2 once.

    The reduced map contracts the C1 vertex that always sits between two
    C2 vertices, so Q1 and Q2 each cover two forward steps while Q3
    coincides with the odd step R2.  Closure: the result is again in C2.

    Raises ValueError for inputs outside C2, even when one of the branch
    formulas would happen to produce an integer.
    """
    _require_c2(x)
    if x & 1:
        return (3 * x + 1) >> 1, ReducedRule.Q3
    if x & 2:  # x ≡ 2 (mod 4)
        return (3 * x + 2) >> 2, ReducedRule.Q2
    return x >> 2, ReducedRule.Q1


def reduced_predecessors(x: int) -> list[tuple[int, ReducedRule]]:
    """All y in C2 with reduced_step(y) landing on x, ordered Q1, Q2, Q3.

    Inverse candidates for x = 3k+2:

    * Q1: 4x — always valid (4x ≡ 0 mod 4 and stays in C2);
    * Q2: (4x-2)/3 = 4k+2 — always an integer ≡ 2 (mod 4), valid iff in C2;
    * Q3: (2x-1)/3 = 2k+1 — always an odd integer, valid iff in C2.

    Self-loops are reported (2 is its own Q2 predecessor); filtering them
    is tree-construction policy, not arithmetic.
    """
    _require_c2(x)
    preds = [(4 * x, ReducedRule.Q1)]
    q2 = (4 * x - 2) // 3
    if q2 % 3 == 2:
        preds.append((q2, ReducedRule.Q2))
    q3 = (2 * x - 1) // 3
    if q3 % 3 == 2:
        preds.append((q3, ReducedRule.Q3))
    return preds
