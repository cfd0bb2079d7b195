"""The convergence sweep's kernel: the exact result of one chunk of starts at a time.

`_sweep_chunk` verifies that every start of a chunk [lo, hi] of a sweep from
range_lo iterates to 1 under x -> x/2, (3x + 1)/2, and `_second_pass`
completes its result where a witness may hide something.  The residue
tables, the orbit loop and the chase loop with its memo serve them and
`unconverged`.  The module opens no file, reads no clock and starts no
process: `verify` runs the kernel over a range.
"""

from __future__ import annotations

import functools
from bisect import bisect_left, bisect_right
from collections.abc import Iterable, Iterator
from itertools import chain
from typing import NamedTuple

from .trajectory import orbit


class SweepStats(NamedTuple):
    """Records of a convergence sweep: most steps spent on one start, highest peak.

    Step counts are per-start verification work: the orbit is followed
    until it reaches 1 or drops onto an already-verified smaller start, so
    for a single-value range they equal the full orbit statistics.

    Each record is the larger value, and on a tie the smaller start: the
    orbit loop's comparison (`_orbits`), which `merged` applies to two
    records.  SweepStats() = (-1, 0, 0, 0) observes nothing: `merged`'s identity.
    """

    max_steps: int = -1
    max_steps_at: int = 0
    max_peak: int = 0
    max_peak_at: int = 0

    def merged(self, other: SweepStats) -> SweepStats:
        """The records over the starts of both, by the rule above; neither is changed."""
        steps, steps_at, peak, peak_at = self
        if other.max_steps >= steps and (other.max_steps > steps or other.max_steps_at < steps_at):
            steps, steps_at = other.max_steps, other.max_steps_at
        if other.max_peak >= peak and (other.max_peak > peak or other.max_peak_at < peak_at):
            peak, peak_at = other.max_peak, other.max_peak_at
        return SweepStats(steps, steps_at, peak, peak_at)

    def to_json_dict(self) -> dict:
        return self._asdict()


#: Steps per table lookup: n mod 2^K fixes the first K parity steps of n.
K = 8
_WIDTH = 1 << K
_MASK = _WIDTH - 1
#: The deepest sieve: a chunk walks at least the residues mod 2^S that survive S steps.
S = 16
#: A sieve of depth k lists its survivors over a period of 2^max(k, P) starts.
P = 12
#: A chase (`_chase`) ends with one tail-table lookup at a value under 2^B.
B = 12
#: A chase memo holds 2^M slots, direct-mapped on x mod 2^M (`_ChaseMemo`).
M = 12


def _forms(r: int, k: int) -> list[tuple[int, int]]:
    """The first k steps of x -> x/2, (3x + 1)/2 on n = 2^k*t + r, as affine forms in t.

    The j-th value is T^j(n) = c_j*t + d_j with c_j = 3^a * 2^(k-j) (a odd
    steps so far) and d_j = T^j(r) (Terras 1976); returns the k + 1 pairs
    (c_j, d_j).  The c_j are distinct, so max(forms) is the form with the
    largest c_j.
    """
    c, d = 1 << k, r
    forms = [(c, d)]
    for _ in range(k):
        if d & 1:
            c, d = (3 * c) >> 1, (3 * d + 1) >> 1
        else:
            c, d = c >> 1, d >> 1
        forms.append((c, d))
    return forms


@functools.cache
def _residue_table() -> tuple[tuple, tuple]:
    """The first K steps of x -> x/2, (3x + 1)/2 on each class mod 2^K: (rows, landings).

    Row r, for n = 2^K*t + r, is (c_K, d_K, minc, cp, dp) in the forms of
    `_forms`: the value after K steps; minc, the smallest c_j over the K-1
    values in between; the peak form cp*t + dp (largest c_j over j =
    0..K), which is the exact maximum of the K+1 values for every t >= 0,
    since dp >= d_j for every j.

    Landing r is (lows, lands), for a start n whose orbit is at v = 2^K*t
    + r with t >= 1 and minc*t <= n, where the jump might reach n: the
    orbit loop lands instead on the first step j with c_j*t <= n, and
    every value before it exceeds n.  Only a step whose c_j is below every
    c_i before it (i >= 1) can be that step.  For these steps j_1 = 1 < ...
    < j_p < K, lands holds (j, c_j, d_j, cp_j, dp_j) from j_p down to j_1:
    the value at step j and the peak form over steps 0..j, exact for every
    t >= 0 like the row's, since dp_j >= d_i for every i <= j.  lows holds
    the c_j of all but j_p (whose c_j is minc), from j_(p-1) down to j_1,
    ascending.  Since c*t > n exactly when c > n // t,
    lands[bisect_right(lows, n // t)] is the landing.  Equal ints share
    one object.
    """
    rows, landings = [], []
    ints: dict[int, int] = {}
    for r in range(_WIDTH):
        forms = [(ints.setdefault(c, c), ints.setdefault(d, d)) for c, d in _forms(r, K)]
        lows, lands, peak = [], [], forms[0]
        for j, form in enumerate(forms[1:K], 1):
            peak = max(peak, form)
            if not lows or form[0] < lows[-1]:
                lows.append(form[0])
                lands.append((j, *form, *peak))
        rows.append((*forms[K], lows.pop(), *max(forms)))
        landings.append((tuple(reversed(lows)), tuple(reversed(lands))))
    return tuple(rows), tuple(landings)


@functools.cache
def _survivor_table(k: int) -> tuple[tuple, tuple[int, int], tuple]:
    """The sieve of depth k: the plan of a chunk at that depth (`_sweep_chunk`).

    For the 3x + 1 map, grown one bit at a time from the one class mod 1.
    For n = 2^j*t + r the state is (c, d, cp, dp): T^j(n) = c*t + d, and
    the form of the j + 1 values so far with the largest coefficient is
    cp*t + dp (`_forms`).  As r + b*2^j mod 2^(j+1), each form c_i*t + d_i
    becomes 2*c_i*t + b*c_i + d_i, and one more step is taken.  A residue
    survives step j while c > 2^j (3^a > 2^j); then d = T^j(r) > r too (r
    is odd), so its values stay above n for every t >= 0.  At the first
    step j with c < 2^j the class (r, 2^j) drops.  Each peak form cp*t + dp
    is the exact maximum of the values so far for every t >= 0, since the
    form with the largest c_i also has the largest d_i (checked for every
    survivor and every settled class at every depth 1..S).  Returns
    (by_mod_9, peak, settled):

    * by_mod_9[q]: the survivors R ≡ q (mod 9) over a period of 2^max(k, P),
      ascending, and their lead rows, as five aligned columns R, c_k, d_k,
      cp, dp for `_orbits`: n = 2^k*t + R has T^k(n) = c_k*t + d_k and a
      peak of cp*t + dp over steps 0..k.  A residue R >= 2^k has the row
      of R mod 2^k, for t = n >> k.  Mod 2^16 there are 2114 survivors
      (OEIS A076227).
    * peak = (c, d): the values of the other starts up to their drop are
      at most c*t + d, for n = 2^k*t + R.
    * settled: the classes (r, 2^j, cp, dp) that drop, first at step j <= k,
      with their peak form over steps 0..j in t = n >> j; with the
      survivors they partition the residues mod 2^k.  Mod 2^16 there are
      791 of them.
    """
    c_peak, d_peak = 0, 0
    settled = []
    # Per residue mod 9: the survivors over a period, each with its lead row, in the order found.
    found: list[list[tuple]] = [[] for _ in range(9)]
    grow = [(0, 0, 1, 0, 1, 0)]  # (j, r, c, d, cp, dp), depth first
    while grow:
        j, r, c, d, cp, dp = grow.pop()
        if j == k:
            for lifted in range(r, 1 << max(k, P), 1 << k):
                found[lifted % 9].append((lifted, c, d, cp, dp))
            continue
        top = 2 << j  # c_0 mod 2^(j+1)
        for b in (0, 1):
            rb, c_b, d_b = r | b << j, 2 * c, b * c + d
            c_b, d_b = ((3 * c_b) >> 1, (3 * d_b + 1) >> 1) if d_b & 1 else (c_b >> 1, d_b >> 1)
            cp_b, dp_b = (c_b, d_b) if c_b > 2 * cp else (2 * cp, b * cp + dp)
            if c_b > top:
                grow.append((j + 1, rb, c_b, d_b, cp_b, dp_b))
                continue
            settled.append((rb, top, cp_b, dp_b))
            # n = 2^(j+1)*t + rb has t = scale*(n >> k) + u with 0 <= u < scale.
            scale = (1 << k) // top
            c_peak, d_peak = max(c_peak, cp_b * scale), max(d_peak, dp_b + cp_b * (scale - 1))
    by_mod_9 = tuple(tuple(zip(*sorted(rows))) for rows in found)
    return by_mod_9, (c_peak, d_peak), tuple(sorted(settled))


@functools.cache
def _tail_table() -> tuple[tuple, tuple]:
    """Steps to 1 and peak on the way for every v < 2^B under x -> x/2, (3x + 1)/2.

    Filled in ascending order: each v is iterated until it drops below
    itself, onto an entry already finished, whose steps and peak it adds.
    """
    steps, peaks = [0, 0], [0, 1]
    for n in range(2, 1 << B):
        v, s, peak = n, 0, n
        while v >= n:
            if v & 1:
                v = (3 * v + 1) >> 1
                if v > peak:
                    peak = v
            else:
                v >>= 1
            s += 1
        steps.append(s + steps[v])
        peaks.append(peaks[v] if peaks[v] > peak else peak)
    return tuple(steps), tuple(peaks)


class _ChaseMemo:
    """Steps to 1 and peak from x on, for values x that earlier chases of one pass walked.

    Three parallel lists of 2^M slots; x takes slot x mod 2^M and overwrites
    whatever was there, so the memo never grows.  Both entries are exact
    and depend on x alone.  A pass (`verify.RangeVerifier.run`), a pool
    worker (`_start_worker`), a chunk given none or an `unconverged` call
    owns it, and drops it when it ends.
    """

    __slots__ = ("keys", "steps", "peaks")

    def __init__(self) -> None:
        self.keys = [0] * (1 << M)  # 0 is never chased: an empty slot
        self.steps = [0] * (1 << M)
        self.peaks = [0] * (1 << M)


#: Past the ancestor cut a chunk's first pass walks the starts in these classes mod 9,
#: and a second pass, when a witness may hide something, the others.
_KEPT_MOD_9 = frozenset({0, 1, 3, 6, 7})
_SKIPPED_MOD_9 = frozenset({2, 4, 5, 8})


def _ancestor_cut(range_lo: int) -> int:
    """First start from which every x ≡ 2, 4, 5 or 8 (mod 9) has its ancestor in the sweep.

    Every x ≡ 2 (mod 3) is the first step of its odd predecessor
    m = (2x - 1)/3 (the paper's class C2), and every x ≡ 4 (mod 9) the
    third step of a = (8x - 5)/9, along a -> (4x - 1)/3 -> 2x -> x with
    every value above a.  From the returned x on, both ancestors are at
    least max(range_lo, 2): starts of the same sweep whose runs pass
    through x (start 1 has no run).
    """
    return (3 * max(range_lo, 2) + 2) // 2


def _covered_by(w: int) -> tuple[int, int]:
    """The starts that w is the ancestor of (0 for none): T(w) and T^3(w) along R2 R2 R1."""
    return (3 * w + 1) >> 1 if w & 1 else 0, (9 * w + 5) >> 3 if w & 7 == 3 else 0


def _cycle_detail(n: int, length: int) -> str:
    values = orbit(n, length, 0, length + 1).values  # target 0 is never hit
    return f"cycle of length {length}: " + " -> ".join(map(str, values))


def _plan_depth(lo: int, hi: int, range_lo: int, budget: int) -> int:
    """The depth k of the sieve that the chunk [lo, hi] takes (`_sweep_chunk`), or 0 for none.

    k = min(S, budget, floor(log2(hi - lo + 1))): the chunk holds at least
    2^k starts, counted from lo, and every class that drops within k steps
    drops within the budget.  The chunk takes the sieve when k >= 1 and
    every start n >= 2 in it that is no survivor drops at its class's step
    onto 1 or onto a start of the sweep: when max(lo, 2) >= 2 * range_lo.
    Every such n >= 2 drops below itself for the first time at its class's
    step (`_survivor_table`), and that value comes after an even value
    v >= n, since an odd v >= n steps to (3v + 1)/2 > v: it is v/2 >= n/2
    >= range_lo.
    """
    k = min(S, budget, (hi - lo + 1).bit_length() - 1)
    return k if k >= 1 and max(lo, 2) >= 2 * range_lo else 0


def _survivor_runs(a: int, b: int, residues: Iterable[int], k: int) -> Iterator[Iterable]:
    """The survivors mod 2^k in [a, b] with a residue mod 9 in `residues`, in ascending runs.

    One run per period of the table and residue mod 9: base + R ≡ q (mod 9)
    picks the survivors R ≡ q - base.  A run yields (n, c_k, d_k, cp, dp)
    per survivor n: n with the lead row of its residue (`_survivor_table`).
    """
    by_mod_9 = _survivor_table(k)[0]
    period = 1 << max(k, P)
    for base in range(a - a % period, b + 1, period):
        for q in residues:
            rs, c, d, cp, dp = by_mod_9[(q - base) % 9]
            i, j = bisect_left(rs, a - base), bisect_right(rs, b - base)
            yield zip(map(base.__add__, rs[i:j]), c[i:j], d[i:j], cp[i:j], dp[i:j])


def _sweep_chunk(
    task: tuple[int, int, int, int],
    residues: frozenset = _KEPT_MOD_9,
    memo: _ChaseMemo | None = None,
) -> tuple[int, SweepStats, list, list]:
    """Verify one chunk [lo, hi] of a sweep whose full range starts at range_lo.

    The map is x -> x/2, (3x + 1)/2, the only one the sweep serves.  This
    is the chunk's plan: which starts are settled by a residue fact,
    which are walked by the orbit loop (`_orbits`) and which are skipped.
    It gives every walked start's exact steps, peak and witness.

    The sieve.  A start n whose residue mod 2^k does not survive k steps
    drops below itself at a step fixed by that residue (`_survivor_table`).
    A chunk takes the sieve at depth k = min(S, budget, log2 of its width)
    when every such start in it drops onto 1 or a start of the sweep: when
    it starts at 2 * range_lo or later, and from the first chunk on in a
    sweep from 1 (`_plan_depth`).  It walks only the survivors, each from
    step k on, from its residue's lead row.  The other starts have at most
    k steps and peaks at most c*(hi >> k) + d, the table's bound: if the
    walked starts' records beat both strictly, none of them can hold a
    record and they are left out.  Otherwise every class (r, 2^j, cp, dp)
    that drops is folded from its table row: each of its starts n drops at
    step j, with a peak of cp*(n >> j) + dp, onto 1 or a start of the
    sweep, so its first start in the chunk holds its step record and its
    last start its peak record.  So only survivors are walked.  A chunk
    that does not take the sieve walks all its starts.

    From `_ancestor_cut(range_lo)` on, a walked start is walked only if
    its residue mod 9 is in `residues`.  By default these are the kept
    five: a start x ≡ 2, 4, 5 or 8 (mod 9) has an ancestor a < x, a start
    of the same sweep whose run passes through x.  Unless a's run is a
    witness, x converges with fewer steps than a and a peak no higher, so
    it never holds a record (ties go to the smaller start) and may be left
    out.  `_second_pass` walks the skipped four when a witness may hide
    something: the same plan with the other residues.  Tests walk all nine
    to compare every start with a reference.  Settled starts enter the
    records whatever their residue mod 9, and the witness lists are sorted
    by start before they are returned.

    `memo` is the pass's chase memo (`_chase`); a chunk given none takes
    its pool worker's, or else starts its own.
    """
    lo, hi, range_lo, budget = task
    cut = _ancestor_cut(range_lo)
    first = max(lo, 2)  # 1 is already at 1
    violations: list[tuple[int, str]] = []
    inconclusive: list[tuple[int, str]] = []
    memo = memo or _worker_memo or _ChaseMemo()
    walk = functools.partial(_orbits, task, memo, violations, inconclusive)
    # Records over the whole chunk; n does not ascend across runs, so ties
    # go to the smaller n, as in SweepStats.merged.
    records = SweepStats(0, 1, 1, 1) if lo == 1 else SweepStats()
    k = _plan_depth(lo, hi, range_lo, budget)
    # Below the cut every walked start is walked, whatever its residue mod 9.
    below, past = min(hi, cut - 1), max(first, cut)
    if k:
        _, (c, d), settled = _survivor_table(k)
        runs = chain(_survivor_runs(first, below, range(9), k), _survivor_runs(past, hi, residues, k))
        records = walk(chain.from_iterable(runs), records, k)
        if not (records.max_steps > k and records.max_peak > c * (hi >> k) + d):
            for r, modulus, cp, dp in settled:
                a, b = first + ((r - first) & (modulus - 1)), hi - ((hi - r) & (modulus - 1))
                if a <= b:
                    j = modulus.bit_length() - 1
                    records = records.merged(SweepStats(j, a, cp * (b >> j) + dp, b))
    else:
        runs = (range(past + (q - past) % 9, hi + 1, 9) for q in residues)
        records = walk(chain(range(first, below + 1), *runs), records)
    violations.sort()
    inconclusive.sort()
    return hi, records, violations, inconclusive


def _second_pass(
    task: tuple[int, int, int, int],
    result: tuple[int, SweepStats, list, list],
    found: tuple[list, list],
    memo: _ChaseMemo,
) -> tuple[int, SweepStats, list, list]:
    """The exact result of the chunk `task` from `result`, its first pass (`_sweep_chunk`).

    That pass left out the starts past the ancestor cut whose ancestor is a
    smaller start of the sweep: exact unless an ancestor's run is a witness,
    and a left-out witness has a witness ancestor in turn.  So if a witness of
    the chunk or of `found` (the sweep's witness lists below the chunk) covers
    (`_covered_by`) a start past the cut, a second pass walks the left-out
    residues there, and both passes are merged.
    """
    lo, hi, range_lo, budget = task
    _, stats, violations, inconclusive = result
    lo = max(lo, _ancestor_cut(range_lo))
    # The ancestors (2x - 1)/3 and (8x - 5)/9 of the x in [lo, hi]; the witness
    # lists ascend, so bisection finds the witnesses among them.
    windows = ((2 * lo - 1) // 3, (2 * hi - 1) // 3), ((8 * lo - 5) // 9, (8 * hi - 5) // 9)
    if lo <= hi and any(
        lo <= x <= hi
        for witnesses in (*found, violations, inconclusive)
        for a, b in windows
        for w, _ in witnesses[bisect_left(witnesses, (a,)) : bisect_left(witnesses, (b + 1,))]
        for x in _covered_by(w)
    ):
        task = (lo, hi, range_lo, budget)
        _, more, *skipped = _sweep_chunk(task, residues=_SKIPPED_MOD_9, memo=memo)
        stats = stats.merged(more)
        violations = sorted(violations + skipped[0])
        inconclusive = sorted(inconclusive + skipped[1])
    return hi, stats, violations, inconclusive


def _orbits(
    task: tuple[int, int, int, int],
    memo: _ChaseMemo,
    violations: list,
    inconclusive: list,
    starts: Iterable,
    records: SweepStats,
    lead: int = 0,
) -> SweepStats:
    """The orbit loop: follow each start; return `records` merged with theirs (`SweepStats.merged`).

    Each start n is followed under x -> x/2, (3x + 1)/2 until it reaches 1
    or drops onto a smaller, already-verified start; a drop below the whole
    range is chased to 1 (`_chase`) since nothing below range_lo is covered
    by this run.  An orbit that returns to n is a cycle, appended to
    `violations`; one that runs out of budget is appended to `inconclusive`.

    Orbits move K steps per `_residue_table` row while no value in between
    can reach n and the budget allows.  When one might, and t = v >> K >=
    1, they land on the first step j < K with c_j*t <= n (the row's
    landing): every value before it exceeds n, and the one there is the
    drop, a cycle or the next value to follow.  Single steps remain below
    2^K and in the last K steps of the budget.  So step counts, peaks,
    drops and witnesses are exactly those of single steps.

    With `lead` = k > 0 each start comes as (n, c, d, cp, dp), the lead row
    of its survivor residue mod 2^k (`_survivor_table`), and its orbit
    starts at step k: at v = c*t + d with peak cp*t + dp, for t = n >> k.
    That is exact, since no value of a survivor reaches n within k steps,
    and it fits, since a chunk's depth k is at most its budget.
    """
    _, _, range_lo, budget = task
    jumps, landings = _residue_table()
    tail = _tail_table()
    no_conclusion = f"no conclusion within {budget} steps"
    mask = _MASK
    last_jump = budget - K
    max_steps, max_steps_at, max_peak, max_peak_at = records
    for n in starts:
        if lead:
            n, c, d, cp, dp = n
            t = n >> lead
            v = c * t + d
            peak = cp * t + dp
            steps = lead
        else:
            v = peak = n
            steps = 0
        while steps < budget:
            t = v >> K
            c, d, minc, cp, dp = jumps[v & mask]
            if minc * t > n and steps <= last_jump:
                v = c * t + d
                top = cp * t + dp
                if top > peak:
                    peak = top
                steps += K
            elif t and steps <= last_jump:
                lows, lands = landings[v & mask]
                j, c, d, cp, dp = lands[bisect_right(lows, n // t)]
                v = c * t + d
                top = cp * t + dp
                if top > peak:
                    peak = top
                steps += j
            elif v & 1:
                v = (3 * v + 1) >> 1
                if v > peak:
                    peak = v
                steps += 1
            else:
                v >>= 1
                steps += 1
            if v <= n:
                if v == n:
                    violations.append((n, _cycle_detail(n, steps)))
                elif v < range_lo and v != 1:
                    steps, top = _chase(v, steps, budget, jumps, tail, memo)
                    if top > peak:
                        peak = top
                    if steps < 0:
                        steps = budget
                        inconclusive.append((n, no_conclusion))
                break
        else:
            inconclusive.append((n, no_conclusion))
        if steps >= max_steps and (steps > max_steps or n < max_steps_at):
            max_steps, max_steps_at = steps, n
        if peak >= max_peak and (peak > max_peak or n < max_peak_at):
            max_peak, max_peak_at = peak, n
    return SweepStats(max_steps, max_steps_at, max_peak, max_peak_at)


def _chase(
    v: int, steps: int, budget: int, jumps: tuple, tail: tuple, memo: _ChaseMemo
) -> tuple[int, int]:
    """The chase loop: follow v, reached after `steps`, down to 1 under x -> x/2, (3x + 1)/2.

    Returns (steps to 1 in all, peak from v on), or (-1, peak over the
    steps the budget allows) when 1 is out of reach within `budget`.

    The chase moves K steps per `_residue_table` row while K steps fit in
    the budget, single steps otherwise.  It ends at the first value of two
    kinds that it stands on: one under 2^B, whose steps to 1 and peak the
    tail table holds (`_tail_table`), or one that an earlier chase of the
    pass walked, whose steps and peak the memo holds.  Both are exact and
    do not depend on the budget.  Every value that reaches a jump is at
    least 2^B, at least B > K steps above 1, so no jump passes 1.  A jump
    that passes over values under 2^B lands on a later value, whose steps
    to 1 add up to the same total, and its top covers the values it
    passed.  Once the chase ends, it stores each value it checked in the
    memo, with the steps from there to 1 and the running maximum of the
    moves' tops, filled from the end back.

    A lookup whose steps do not fit in the budget proves 1 out of reach.
    If its peak is no higher than the moves' tops so far, those hold the
    peak; otherwise `orbit` finishes it by single steps over the rest of
    the budget, so an inconclusive start spends exactly its budget.
    """
    tail_steps, tail_peak = tail
    keys, memo_steps, memo_peaks = memo.keys, memo.steps, memo.peaks
    slots, mask = len(keys) - 1, _MASK
    edge = (1 << B) - 1
    last_jump = budget - K
    trail = []  # (x, steps at x, top of the move from x) per value checked
    push = trail.append
    while steps < budget:
        if v <= edge:
            rest, end_peak = tail_steps[v], tail_peak[v]
            break
        if keys[v & slots] == v:
            rest, end_peak = memo_steps[v & slots], memo_peaks[v & slots]
            break
        if steps <= last_jump:
            t = v >> K
            c, d, _, cp, dp = jumps[v & mask]
            push((v, steps, cp * t + dp))
            v = c * t + d
            steps += K
        elif v & 1:
            w = (3 * v + 1) >> 1
            push((v, steps, w))
            v = w
            steps += 1
        else:
            push((v, steps, v))
            v >>= 1
            steps += 1
    else:
        return -1, max([top for _, _, top in trail], default=v)
    total = steps + rest
    peak = end_peak
    for x, at, top in reversed(trail):
        if top > peak:
            peak = top
        slot = x & slots
        keys[slot] = x
        memo_steps[slot] = total - at
        memo_peaks[slot] = peak
    if total <= budget:
        return total, peak
    peak = max([top for _, _, top in trail], default=v)
    if end_peak > peak:
        # Target 0 is never hit, and value cap 1 keeps no values.
        peak = max(peak, orbit(v, budget - steps, 0, 1).peak)
    return -1, peak


def unconverged(starts: range, budget: int) -> list[int]:
    """The starts (each >= 2) whose orbit does not reach 1 within `budget` steps, in their order.

    Each start is chased to 1 (`_chase`), whose step count is exact; a
    cycle never reaches 1.  The call's chases share one memo.
    """
    jumps, _ = _residue_table()
    tail = _tail_table()
    memo = _ChaseMemo()
    return [n for n in starts if _chase(n, 0, budget, jumps, tail, memo)[0] < 0]


#: The chase memo that a pool worker's chunks share, from `_start_worker`; None elsewhere.
_worker_memo: _ChaseMemo | None = None


def _start_worker() -> None:
    """Pool initializer: one chase memo per worker process, which ends with the pass's pool."""
    global _worker_memo
    _worker_memo = _ChaseMemo()


