"""Rule-sequence algebra, fixed points, and exhaustive small-cycle search.

A word over {R1, R2} composes to a single affine map x -> (3^p x + a) / 2^k
where p counts the R2 steps and k is the word length.  A cycle that applies
exactly that word must start at x = a / (2^k - 3^p), so cycles can be
enumerated algebraically: every positive integer solution drives its word
(see `search_cycles`).  Everything here is exact integer or rational
arithmetic; no floating point.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple

from . import core_map
from .core_map import ResidueClass, Rule, residue_class
from .report import RangeReport
from .trajectory import orbit

if TYPE_CHECKING:
    from fractions import Fraction

#: Enumeration is 2^k words per length; lengths beyond this are refused.
MAX_SEARCH_LEN = 30


class RuleSequence:
    """A non-empty word over {R1, R2}, applied left to right.

    Not a NamedTuple: it iterates and sizes as its rules, and a tuple
    pickles by iterating itself.
    """

    __slots__ = ("_rules",)

    def __init__(self, rules: Iterable[Rule]) -> None:
        rules = tuple(rules)
        if not rules:
            raise ValueError("rule sequence must be non-empty")
        if any(not isinstance(r, Rule) for r in rules):
            raise TypeError("rule sequence must contain Rule members only")
        self._rules = rules

    @property
    def rules(self) -> tuple[Rule, ...]:
        return self._rules

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._rules == other._rules

    def __hash__(self) -> int:
        return hash((self._rules,))

    def __repr__(self) -> str:
        return f"RuleSequence(rules={self._rules!r})"

    @property
    def length(self) -> int:
        return len(self.rules)

    @property
    def r1_count(self) -> int:
        return self.length - self.r2_count

    @property
    def r2_count(self) -> int:
        return sum(1 for r in self.rules if r is Rule.R2)

    def __iter__(self) -> Iterator[Rule]:
        return iter(self.rules)

    def __len__(self) -> int:
        return len(self.rules)

    def __str__(self) -> str:
        return "-".join(r.name for r in self.rules)


class AffineForm(NamedTuple):
    """Composed action of a rule word: x -> (3**pow3 * x + addend) / 2**pow2.

    addend is 0 exactly when the word contains no R2.
    """

    pow3: int
    addend: int
    pow2: int

    def apply(self, x: int) -> Fraction:
        """Exact image of x, as a rational (integral iff the word is driven by x)."""
        from fractions import Fraction  # only this method pays for the import

        return Fraction(3**self.pow3 * x + self.addend, 2**self.pow2)


def _coerce(seq: RuleSequence | Iterable[Rule]) -> RuleSequence:
    return seq if isinstance(seq, RuleSequence) else RuleSequence(tuple(seq))


def affine_form(seq: RuleSequence | Iterable[Rule]) -> AffineForm:
    """Compose a rule word into its affine normal form.

    Every rule contributes one halving; the j-th R2 (1-based, at 1-based
    position s_j among all rules) contributes 3^(r2-j) * 2^(s_j - 1) to the
    addend.  Equivalently: composing ((3^b x + c) / 2^j) with R2 maps
    c -> 3c + 2^j.
    """
    seq = _coerce(seq)
    r2_total = seq.r2_count
    addend = 0
    seen = 0
    for pos, rule in enumerate(seq.rules):
        if rule is Rule.R2:
            seen += 1
            addend += 3 ** (r2_total - seen) * (1 << pos)
    return AffineForm(pow3=r2_total, addend=addend, pow2=seq.length)


def drives(seq: RuleSequence | Iterable[Rule], x: int) -> bool:
    """Whether the orbit of x actually applies the word.

    The parity of the current value must select each rule in turn; if it
    does, the final value is checked to have returned to x.
    """
    seq = _coerce(seq)
    # Target 0 is never reached, so the orbit walks exactly len(word) steps.
    walk = orbit(x, seq.length, 0, seq.length + 1)
    return walk.rules == seq.rules and walk.final == x


def _minimal_period(rules: tuple[Rule, ...]) -> int:
    k = len(rules)
    return next(p for p in range(1, k + 1) if k % p == 0 and rules == rules[:p] * (k // p))


class CycleCandidate(NamedTuple):
    """A positive integer solution of form(x) = x for some rule word.

    `consistent` records whether x's parities drive the word, checked by
    simulation.  The rotation argument in `search_cycles` proves it for
    every solution, so False would mean an error in the algebra.
    `simple` is False when the word is a repetition of a shorter word,
    i.e. the same cycle traversed more than once.
    """

    seq: RuleSequence
    x: int
    consistent: bool
    simple: bool


def fixed_point(seq: RuleSequence | Iterable[Rule]) -> CycleCandidate | None:
    """Solve form(x) = x for the word's affine form.

    With d = 2**pow2 - 3**pow3, a candidate exists only when d > 0, d
    divides the addend exactly, and the quotient is at least 1.  None
    encodes d <= 0, non-divisibility, or a zero quotient.
    """
    seq = _coerce(seq)
    form = affine_form(seq)
    d = (1 << form.pow2) - 3**form.pow3
    # d > 0 is the exact-arithmetic form of the halving/tripling balance
    # bound r1_count > r2_count * (log2(3) - 1); never evaluated in floats.
    if d <= 0:
        return None
    if form.addend % d:
        return None
    x = form.addend // d
    if x < 1:
        return None
    return CycleCandidate(
        seq=seq,
        x=x,
        consistent=drives(seq, x),
        simple=_minimal_period(seq.rules) == seq.length,
    )


#: The last this many levels of the word tree are expanded a level at a time.
_LEVELS = 12


def search_cycles(max_len: int) -> list[CycleCandidate]:
    """Solve form(x) = x for every rule word of length <= max_len.

    Each word's affine form comes from its prefix's: appending R1 keeps the
    addend, appending R2 at position k maps it to 3a + 2^k, so each word
    costs O(1).  A depth-first walk over prefixes goes down to length
    max(1, max_len - 12); below each prefix there, the last levels are
    expanded one at a time (`_solvable`), which holds at most 2^13
    words whatever max_len is.  A word whose d = 2^k - 3^p divides its
    positive addend goes to fixed_point().  Candidates are ordered by
    length, then lexicographically with R1 < R2.

    Every candidate is consistent (Böhm & Sontacchi 1978).  Take x = a / d.
    If the word starts with R1, a is even and d is odd, so x is even; if it
    starts with R2, a is odd, so x is odd.  Either way the first rule fires,
    and its image is the solution of the word rotated by one, so induction
    covers every rule.
    """
    if not 1 <= max_len <= MAX_SEARCH_LEN:
        raise ValueError(
            f"max_len must be in [1, {MAX_SEARCH_LEN}] (2^k words per length), got {max_len}"
        )
    pow3 = [3**i for i in range(max_len + 1)]
    top = max(1, max_len - _LEVELS)
    found: list[CycleCandidate] = []
    # (length k, R2 count p, addend a, mask with bit j set iff R2 at position j)
    stack = [(1, 0, 0, 0), (1, 1, 1, 1)]
    while stack:
        k, p, a, mask = stack.pop()
        # Above `top`, test the prefix alone; at `top`, every word below it too.
        last = max_len if k == top else k
        for length, word in _solvable(k, p, a, mask, last, pow3):
            found.append(fixed_point(Rule.R2 if (word >> j) & 1 else Rule.R1
                                     for j in range(length)))
        if k < top:
            stack.append((k + 1, p, a, mask))
            stack.append((k + 1, p + 1, 3 * a + (1 << k), mask | (1 << k)))
    found.sort(
        key=lambda c: (c.seq.length, tuple(0 if r is Rule.R1 else 1 for r in c.seq.rules))
    )
    return found


def _solvable(
    k: int, p: int, a: int, mask: int, last: int, pow3: list[int]
) -> Iterator[tuple[int, int]]:
    """(length, mask) of each word of length <= `last` that extends the prefix
    (k, p, a, mask), the prefix included, and whose d = 2^length - 3^r2
    divides its positive addend.

    The words of one level are grouped by R2 count, p + i in `groups[i]`, as
    parallel lists of addends and masks.  The next level appends R1 to every
    word (group i keeps its lists) and R2 (group i's words, mapped, join
    group i + 1).  Only groups with d > 0 and at least one R2 are tested.
    """
    groups = [([a], [mask])]
    while True:
        for i, (adds, masks) in enumerate(groups):
            d = (1 << k) - pow3[p + i]
            if d > 0 and p + i:
                for word in [m for x, m in zip(adds, masks) if not x % d]:
                    yield k, word
        if k == last:
            return
        bit = 1 << k
        r2_adds: list[int] = []
        r2_masks: list[int] = []
        nxt = []
        for adds, masks in groups:
            nxt.append((adds + r2_adds, masks + r2_masks))
            r2_adds = [3 * x + bit for x in adds]
            r2_masks = [m | bit for m in masks]
        nxt.append((r2_adds, r2_masks))
        groups = nxt
        k += 1


def cycle_values(candidate: CycleCandidate) -> tuple[int, ...]:
    """The values a consistent candidate visits, starting at x (length = word length)."""
    if not candidate.consistent:
        raise ValueError("cycle values are defined for consistent candidates only")
    k = candidate.seq.length
    return orbit(candidate.x, k - 1, 0, k).values


def verify_no_small_cycles(range_max: int) -> RangeReport:
    """Check there are no 1-cycles and no 2-cycles besides {1, 2} on [1, range_max].

    For every x: step(x) != x, and step(step(x)) == x only for x in
    {1, 2}, whose mutual 2-cycle is additionally confirmed intact.
    """
    if range_max < 2:
        raise ValueError(f"range_max must be >= 2, got {range_max}")
    t0 = time.perf_counter()
    violations: list[tuple[int, str]] = []
    for x in range(1, range_max + 1):
        t1 = (3 * x + 1) >> 1 if x & 1 else x >> 1
        if t1 == x:
            violations.append((x, f"step({x}) = {x}: cycle of length one"))
            continue
        t2 = (3 * t1 + 1) >> 1 if t1 & 1 else t1 >> 1
        if x < 3:
            if t2 != x:
                violations.append((x, f"known 2-cycle through 1 and 2 broken at {x}"))
        elif t2 == x:
            violations.append((x, f"step^2({x}) = {x}: 2-cycle outside {{1, 2}}"))
    return RangeReport(
        fact_id="no-small-cycles",
        lo=1,
        hi=range_max,
        checked=range_max,
        violations=violations,
        inconclusive=[],
        elapsed=time.perf_counter() - t0,
    )


class C0Chain(NamedTuple):
    """Decomposition x = 2**halvings * odd_part of a multiple of 3.

    The odd part keeps the factor 3 (halving cannot remove it), so the
    whole forward chain x, x/2, ..., odd_part stays inside class C0 and
    each link has exactly one predecessor.
    """

    x: int
    halvings: int
    odd_part: int

    def values(self) -> tuple[int, ...]:
        """The chain x, x/2, ..., odd_part produced by the halvings."""
        return tuple(self.x >> i for i in range(self.halvings + 1))


def c0_chain(x: int) -> C0Chain:
    """Split x in C0 (x >= 3) into 2**i times its odd part."""
    if x < 3:
        raise ValueError(f"C0 chains start at 3, got {x}")
    if residue_class(x) is not ResidueClass.C0:
        raise ValueError(f"C0 chains are defined on multiples of 3, got {x}")
    i = (x & -x).bit_length() - 1
    return C0Chain(x=x, halvings=i, odd_part=x >> i)


def verify_c0_structure(range_max: int) -> RangeReport:
    """Check the doubling-chain structure of class C0 on [1, range_max].

    Two claims: every x in C0 (x >= 3) splits as 2^i times an odd multiple
    of 3, and along every forward orbit the C0 positions form a prefix,
    so an orbit outside C0 never re-enters it.  The second follows from
    one step, T(x) in C0 implies x in C0, which is checked for every x.
    The class of T(x) depends on x mod 6 alone (`core_map.STEP_CLASS_AT`,
    which the transitions suite checks against the map), so one more check
    of the six residues covers every integer, the values above range_max
    that orbits reach included.
    """
    if range_max < 1:
        raise ValueError(f"range_max must be >= 1, got {range_max}")
    t0 = time.perf_counter()
    violations: list[tuple[int, str]] = [
        (r, f"{r} mod 6 is in C{r % 3}, but the transition table steps it into C0")
        for r, to in enumerate(core_map.STEP_CLASS_AT)
        if to == 0 and r % 3
    ]
    for x in range(1, range_max + 1):
        if x % 3:
            t = (3 * x + 1) >> 1 if x & 1 else x >> 1
            if t % 3 == 0:
                violations.append((x, f"step({x}) = {t} is in C0, but {x} is not"))
        elif x >= 3:
            q = x >> ((x & -x).bit_length() - 1)
            if not q & 1 or q % 3:
                violations.append((x, f"odd part {q} is not an odd multiple of 3"))
    return RangeReport(
        fact_id="c0-structure",
        lo=1,
        hi=range_max,
        checked=range_max,
        violations=violations,
        inconclusive=[],
        elapsed=time.perf_counter() - t0,
    )
