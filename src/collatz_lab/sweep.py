"""Checkpointed convergence sweeps over a range of starts.

`RangeVerifier` confirms that every start in [lo, hi] iterates to 1.  It
works through the range in ascending chunks, in a worker pool when a pass
has two or more of them.  At a chunk boundary at most once every
`CHECKPOINT_INTERVAL` seconds, and after the last chunk a pass consumes,
it writes an atomic JSON checkpoint that a later run can resume from.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import sys
import time
from bisect import bisect_left, bisect_right
from collections.abc import Iterable, Iterator
from dataclasses import asdict, dataclass, field, fields, replace
from datetime import datetime, timezone
from itertools import chain, pairwise
from pathlib import Path

from .facts import (
    SCHEMA_VERSION,
    RangeReport,
    require_ints,
    witnesses_from_json,
    witnesses_to_json,
)
from .trajectory import DEFAULT_BUDGET, orbit

TASK_VERIFY_RANGE = "verify-range"
DEFAULT_CHUNK_SIZE = 1 << 16


class CheckpointError(Exception):
    """A checkpoint file is unreadable, unwritable, or does not match the requested run."""


def _pick(value_a: int, at_a: int, value_b: int, at_b: int) -> tuple[int, int]:
    # Associative, order-independent max with smallest-argument tie-break;
    # at == 0 means "nothing observed yet".
    if at_a == 0:
        return value_b, at_b
    if at_b == 0:
        return value_a, at_a
    if value_b > value_a or (value_b == value_a and at_b < at_a):
        return value_b, at_b
    return value_a, at_a


@dataclass
class SweepStats:
    """Records of a convergence sweep: most steps spent on one start, highest peak.

    Step counts are per-start verification work: the orbit is followed
    until it reaches 1 or drops onto an already-verified smaller start, so
    for a single-value range they equal the full orbit statistics.
    """

    max_steps: int = 0
    max_steps_at: int = 0
    max_peak: int = 0
    max_peak_at: int = 0

    def merge(self, other: "SweepStats") -> None:
        self.max_steps, self.max_steps_at = _pick(
            self.max_steps, self.max_steps_at, other.max_steps, other.max_steps_at
        )
        self.max_peak, self.max_peak_at = _pick(
            self.max_peak, self.max_peak_at, other.max_peak, other.max_peak_at
        )

    def to_json_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json_dict(cls, doc: dict) -> "SweepStats":
        values = [doc[f.name] for f in fields(cls)]
        require_ints("checkpoint stats", values)
        return cls(*values)


@dataclass
class Checkpoint:
    """Atomic progress snapshot of a `verify-range` sweep.

    Resuming from a checkpoint and running to completion yields the same
    final report as an uninterrupted run; witnesses found so far are part
    of the snapshot for exactly that reason.
    """

    lo: int
    hi: int
    budget: int
    verified_up_to: int
    stats: SweepStats
    violations: list[tuple[int, str]] = field(default_factory=list)
    inconclusive: list[tuple[int, str]] = field(default_factory=list)
    timestamp: str = ""

    def to_json(self) -> str:
        doc = {
            "schema_version": SCHEMA_VERSION,
            "task": TASK_VERIFY_RANGE,
            "range": [self.lo, self.hi],
            "budget": self.budget,
            "verified_up_to": self.verified_up_to,
            "stats": self.stats.to_json_dict(),
            "violations": witnesses_to_json(self.violations),
            "inconclusive": witnesses_to_json(self.inconclusive),
            "timestamp": self.timestamp,
        }
        return json.dumps(doc, indent=2) + "\n"


def load_checkpoint(path: Path) -> Checkpoint:
    """Read a checkpoint file and check every rule within it; CheckpointError on anything off."""
    try:
        doc = json.loads(Path(path).read_text())
        if not isinstance(doc, dict):
            raise CheckpointError(f"unreadable checkpoint {path}: not a JSON object")
        if doc.get("schema_version") != SCHEMA_VERSION:
            raise CheckpointError(
                f"unsupported checkpoint schema_version: {doc.get('schema_version')!r}"
            )
        if doc.get("task") != TASK_VERIFY_RANGE:
            raise CheckpointError(
                f"checkpoint {path} is for task {doc.get('task')!r}, not {TASK_VERIFY_RANGE}"
            )
        if "budget" not in doc:
            raise CheckpointError(
                f"checkpoint {path} has no budget field; its report cannot be resumed"
            )
        lo, hi = doc["range"]
        budget, verified_up_to = doc["budget"], doc["verified_up_to"]
        require_ints("checkpoint range", [lo, hi])
        require_ints("checkpoint budget", [budget])
        require_ints("checkpoint verified_up_to", [verified_up_to])
        stats = SweepStats.from_json_dict(doc["stats"])
        # The chunk at lo always sets both records, so they name starts swept so far.
        at = sorted((stats.max_steps_at, stats.max_peak_at))
        if not lo <= at[0] <= at[1] <= verified_up_to <= hi:
            raise CheckpointError(
                f"checkpoint {path} has stats at {at[0]} and {at[1]} and verified_up_to "
                f"{verified_up_to}, outside the order {lo} <= stats <= verified_up_to <= {hi}"
            )
        witnesses = {k: witnesses_from_json(doc[k]) for k in ("violations", "inconclusive")}
        for name, found in witnesses.items():
            # A sweep bisects these lists, and a resume appends to them.
            xs = [lo - 1, *(x for x, _ in found), verified_up_to + 1]
            if found and not all(a < b for a, b in pairwise(xs)):
                raise CheckpointError(
                    f"checkpoint {path} {name} witnesses are not strictly ascending "
                    f"within [{lo}, {verified_up_to}]"
                )
        return Checkpoint(
            lo=lo,
            hi=hi,
            budget=budget,
            verified_up_to=verified_up_to,
            stats=stats,
            timestamp=str(doc.get("timestamp", "")),
            **witnesses,
        )
    except (OSError, ValueError, KeyError, TypeError, OverflowError, RecursionError) as exc:
        raise CheckpointError(f"unreadable checkpoint {path}: {exc}") from exc


def write_checkpoint(path: Path, checkpoint: Checkpoint) -> None:
    """Write atomically: the file is always a complete snapshot, never torn."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w") as fh:
        fh.write(checkpoint.to_json())
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


#: Steps per table lookup: n mod 2^K fixes the first K parity steps of n.
K = 8
_WIDTH = 1 << K
_MASK = _WIDTH - 1
#: The deepest sieve: a chunk walks at least the residues mod 2^S that survive S steps.
S = 16
#: A sieve of depth k lists its survivors over a period of 2^max(k, P) starts.
P = 12
#: A chase below range_lo ends at its first value under 2^B with one tail-table lookup.
B = 12
#: A chase memo holds 2^M slots, direct-mapped on x mod 2^M (`_ChaseMemo`).
M = 12
#: Least seconds between two checkpoint writes within a pass (Young, CACM 17(9), 1974).
CHECKPOINT_INTERVAL = 1.0
#: The clock that paces checkpoint writes; tests replace it.
_clock = time.monotonic


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
def _residue_table() -> tuple:
    """The first K steps of x -> x/2, (3x + 1)/2 on each class mod 2^K (`_forms`).

    Row r, for n = 2^K*t + r, is (c_K, d_K, minc, cp, dp): the value after
    K steps; minc, the smallest c_j over the K-1 values in between; the
    peak form cp*t + dp (largest c_j over j = 0..K), which is the exact
    maximum of the K+1 values for every t >= 0, since dp >= d_j for every j.
    """
    rows = []
    for r in range(_WIDTH):
        forms = _forms(r, K)
        c, d = forms[K]
        cp, dp = max(forms)
        minc = min(cj for cj, _ in forms[1:K])
        rows.append((c, d, minc, cp, dp))
    return tuple(rows)


@functools.cache
def _survivor_table(
    k: int,
) -> tuple[tuple, tuple[int, int, int], tuple[int, int], tuple, tuple | None]:
    """The sieve of depth k: the residues mod 2^k that do not drop within k steps, and the rest.

    For the 3x + 1 map, grown one bit at a time from the one class mod 1.
    For n = 2^j*t + r the state is (c, d, cp, dp, dm): T^j(n) = c*t + d, the
    form of the j + 1 values so far with the largest coefficient is
    cp*t + dp (`_forms`), and every d_i is at most dm.  As r + b*2^j mod
    2^(j+1), each form c_i*t + d_i becomes 2*c_i*t + b*c_i + d_i, and one
    more step is taken.  A residue survives step j while c > 2^j
    (3^a > 2^j); then d = T^j(r) > r too (r is odd), so its values stay
    above n for every t >= 0.  At the first step j with c < 2^j the class
    (r, 2^j) drops, and only bounds are kept.  Returns (by_mod_9, settle,
    peak, settled, leads), for n = 2^k*t + R:

    * by_mod_9[q]: the survivors R ≡ q (mod 9) over a period of 2^max(k, P),
      ascending.  Mod 2^16 there are 2114 survivors (OEIS A076227).
    * settle = (t_min, c, d): for t >= t_min every other start n drops
      below itself for the first time at its class's step, onto at least
      c*t + d.
    * peak = (c, d): the values of those other starts up to their drop
      are at most c*t + d.
    * settled: the classes (r, 2^j) that drop, first at step j <= k; with
      the survivors they partition the residues mod 2^k.  Mod 2^16 there
      are 791 of them.
    * leads, at depth S only (None at every other depth): the lead row
      (c_k, d_k, cp, dp) of each survivor, for `_orbits`.  n = 2^k*t + R
      has T^k(n) = c_k*t + d_k, and its peak over steps 0..k is cp*t + dp
      for every t >= 0, since the form with the largest c_j also has the
      largest d_j (checked for every survivor mod 2^S).  leads[q] lays the
      rows of by_mod_9[q] out flat, in the same order, as a pair: c_k, cp
      per survivor in a tuple that shares one int object per distinct value
      (6 and 43 of them mod 2^16), and d_k, dp in 64-bit words.
    """
    t_min, c_drop, d_drop, c_peak, d_peak = 0, 1 << k, 1 << k, 0, 0
    settled, lead, shared = [], k == S, {}
    # Per residue mod 9: the survivors over a period in the order found, and their lead rows.
    found: list[list[int]] = [[] for _ in range(9)]
    coefs: list[list[int]] = [[] for _ in range(9)]
    consts = [bytearray() for _ in range(9)]
    grow = [(0, 0, 1, 0, 1, 0, 0)]  # (j, r, c, d, cp, dp, dm), depth first
    while grow:
        j, r, c, d, cp, dp, dm = grow.pop()
        if j == k:
            for lifted in range(r, 1 << max(k, P), 1 << k):
                found[lifted % 9].append(lifted)
                if lead:
                    coefs[lifted % 9] += shared.setdefault(c, c), shared.setdefault(cp, cp)
                    words = consts[lifted % 9]
                    words += d.to_bytes(8, sys.byteorder)
                    words += dp.to_bytes(8, sys.byteorder)
            continue
        top = 2 << j  # c_0 mod 2^(j+1)
        for b in (0, 1):
            rb, c_b, d_b = r | b << j, 2 * c, b * c + d
            c_b, d_b = ((3 * c_b) >> 1, (3 * d_b + 1) >> 1) if d_b & 1 else (c_b >> 1, d_b >> 1)
            cp_b, dp_b = (c_b, d_b) if c_b > 2 * cp else (2 * cp, b * cp + dp)
            dm_b = max(dm + b * cp, d_b)
            if c_b > top:
                grow.append((j + 1, rb, c_b, d_b, cp_b, dp_b, dm_b))
                continue
            settled.append((rb, top))
            # Below n from (top - c_b)*t > d_b - rb on; n = 2^(j+1)*t + rb has
            # t = scale*(n >> k) + u with 0 <= u < scale, so t >= n >> k.
            scale = (1 << k) // top
            t_min = max(t_min, (d_b - rb) // (top - c_b) + 1)
            c_drop, d_drop = min(c_drop, c_b * scale), min(d_drop, d_b)
            c_peak, d_peak = max(c_peak, cp_b * scale), max(d_peak, dm_b + cp_b * (scale - 1))
    by_mod_9, leads = [], []
    for rs, cs, ds in zip(found, coefs, consts):
        order = sorted(range(len(rs)), key=rs.__getitem__)
        by_mod_9.append(tuple(rs[i] for i in order))
        if lead:
            cs = tuple(cs[2 * i + x] for i in order for x in (0, 1))
            words = memoryview(b"".join(ds[16 * i : 16 * i + 16] for i in order)).cast("Q")
            leads.append((cs, words))
    return (
        tuple(by_mod_9),
        (t_min, c_drop, d_drop),
        (c_peak, d_peak),
        tuple(sorted(settled)),
        tuple(leads) if lead else None,
    )


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
    and depend on x alone.  A pass (`RangeVerifier.run`), a pool worker
    (`_start_worker`), a chunk given none or an `unconverged` call owns it,
    and drops it when it ends.
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
    onto 1 or onto a start of the sweep.  From t = lo >> k >= t_min on, the
    drop is at least c*t + d (`_survivor_table`).  The classes that drop
    within k steps are those that drop within S steps with a modulus of at
    most 2^k, so below t_min = 1 only n = 0 and 1 drop later, at every
    depth, and those are never walked: every other n < 2^k drops at its
    class's step onto a positive value, which in a sweep from 1 is 1 or a
    smaller start.
    """
    k = min(S, budget, (hi - lo + 1).bit_length() - 1)
    if k < 1:
        return 0
    t_min, c, d = _survivor_table(k)[1]
    t = lo >> k
    return k if (c * t + d >= range_lo if t >= t_min else t == 0 and range_lo == 1) else 0


def _survivor_runs(a: int, b: int, residues: Iterable[int], k: int) -> Iterator[Iterable]:
    """The survivors mod 2^k in [a, b] with a residue mod 9 in `residues`, in ascending runs.

    One run per period of the table and residue mod 9: base + R ≡ q (mod 9)
    picks the survivors R ≡ q - base.  Where the table has lead rows (depth
    S), a run yields (n, c_k, d_k, cp, dp) per survivor n, else n alone.
    """
    by_mod_9, *_, leads = _survivor_table(k)
    period = 1 << max(k, P)
    for base in range(a - a % period, b + 1, period):
        for q in residues:
            m = (q - base) % 9
            rs = by_mod_9[m]
            i, j = bisect_left(rs, a - base), bisect_right(rs, b - base)
            run = map(base.__add__, rs[i:j])
            if leads:
                coefs, consts = leads[m]
                cs, ds = iter(coefs[2 * i : 2 * j]), iter(consts[2 * i : 2 * j])
                run = zip(run, cs, ds, cs, ds)
            yield run


def _settled_ends(first: int, hi: int, settled: tuple) -> set[int]:
    """The first and the last start in [first, hi] of each class (r, 2^j) in `settled`.

    A class can have no start there: with lo = 1, first = 2 leaves out 1.
    """
    ends = set()
    for r, modulus in settled:
        mask = modulus - 1
        ends.update((first + ((r - first) & mask), hi - ((hi - r) & mask)))
    return {n for n in ends if first <= n <= hi}


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
    when every such start in it drops onto 1 or a start of the sweep:
    from about 2 * range_lo on, and from the first chunk on in a sweep from
    1 (`_plan_depth`).  It walks only the survivors; at depth S each of them
    starts at step S, from its residue's lead row.  The other starts have
    at most k steps and peaks at most c*(hi >> k) + d, the table's bound:
    if the walked starts' records beat both strictly, none of them can hold
    a record and they are left out.  Otherwise every class that drops is
    folded: its first and its last start in the chunk, which hold its step
    and peak records, are walked.  Apart from that fold, the sieve costs
    nothing per settled class.  A chunk that does not take it walks all its
    starts.

    From `_ancestor_cut(range_lo)` on, a walked start is walked only if
    its residue mod 9 is in `residues`.  By default these are the kept
    five: a start x ≡ 2, 4, 5 or 8 (mod 9) has an ancestor a < x, a start
    of the same sweep whose run passes through x.  Unless a's run is a
    witness, x converges with fewer steps than a and a peak no higher, so
    it never holds a record (ties go to the smaller start) and may be left
    out.  `RangeVerifier._consume` walks the skipped four in a second pass
    when a witness may hide something: the same plan with the other
    residues.  Tests walk all nine to compare every start with a
    reference.  Settled starts enter the records whatever their residue
    mod 9, and the witness lists are sorted by start before they are
    returned.

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
    # go to the smaller n, as _pick does.
    records = (0, 1, 1, 1) if lo == 1 else (-1, 0, 0, 0)
    k = _plan_depth(lo, hi, range_lo, budget)
    # Below the cut every walked start is walked, whatever its residue mod 9.
    below, past = min(hi, cut - 1), max(first, cut)
    if k:
        _, _, (c, d), settled, leads = _survivor_table(k)
        runs = chain(_survivor_runs(first, below, range(9), k), _survivor_runs(past, hi, residues, k))
        records = walk(chain.from_iterable(runs), records, k if leads else 0)
        if not (records[0] > k and records[2] > c * (hi >> k) + d):
            records = walk(_settled_ends(first, hi, settled), records)
    else:
        runs = (range(past + (q - past) % 9, hi + 1, 9) for q in residues)
        records = walk(chain(range(first, below + 1), *runs), records)
    max_steps, max_steps_at, max_peak, max_peak_at = records
    violations.sort()
    inconclusive.sort()
    # max_steps is still -1 when every start was skipped: nothing was observed.
    stats = SweepStats(max(max_steps, 0), max_steps_at, max_peak, max_peak_at)
    return hi, stats, violations, inconclusive


def _orbits(
    task: tuple[int, int, int, int],
    memo: _ChaseMemo,
    violations: list,
    inconclusive: list,
    starts: Iterable,
    records: tuple[int, int, int, int],
    lead: int = 0,
) -> tuple[int, int, int, int]:
    """The orbit loop: follow each start; return `records` (max_steps, at, max_peak, at) with them.

    Each start n is followed under x -> x/2, (3x + 1)/2 until it reaches 1
    or drops onto a smaller, already-verified start; a drop below the whole
    range is chased to 1 (`_chase`) since nothing below range_lo is covered
    by this run.  An orbit that returns to n is a cycle, appended to
    `violations`; one that runs out of budget is appended to `inconclusive`.

    Orbits move K steps per `_residue_table` lookup while no value in
    between can reach n and the budget allows, single steps otherwise, so
    step counts, peaks, drops and witnesses are exactly those of single
    steps.

    With `lead` = k > 0 each start comes as (n, c, d, cp, dp), the lead row
    of its survivor residue mod 2^k (`_survivor_table`), and its orbit
    starts at step k: at v = c*t + d with peak cp*t + dp, for t = n >> k.
    That is exact, since no value of a survivor reaches n within k steps,
    and it fits, since a chunk's depth k is at most its budget.
    """
    _, _, range_lo, budget = task
    jumps = _residue_table()
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
    return max_steps, max_steps_at, max_peak, max_peak_at


def _chase(
    v: int, steps: int, budget: int, jumps: tuple, tail: tuple, memo: _ChaseMemo
) -> tuple[int, int]:
    """The chase loop: follow v, reached after `steps`, down to 1 under x -> x/2, (3x + 1)/2.

    Returns (steps to 1 in all, peak from v on), or (-1, peak over the
    steps the budget allows) when 1 is out of reach within `budget`.

    The chase ends at the first value of two kinds: one under 2^B, whose
    steps to 1 and peak the tail table holds (`_tail_table`), or one that
    an earlier chase of the pass walked, whose steps and peak the memo
    holds.  Both are exact and do not depend on the budget.  Between
    lookups it moves K steps per `_residue_table` row while no value in
    between can fall under 2^B, single steps otherwise.  Once it ends, it
    stores each value it checked in the memo, with the steps from there to
    1 and the running maximum of the moves' tops, filled from the end back.

    A lookup whose steps do not fit in the budget proves 1 out of reach.
    If its peak is no higher than the moves' tops so far, those hold the
    peak; otherwise the chase spends the rest of its budget with neither a
    memo nor a table to check, so an inconclusive start spends exactly its
    budget.
    """
    tail_steps, tail_peak = tail
    keys, memo_steps, memo_peaks = memo.keys, memo.steps, memo.peaks
    slots, mask = len(keys) - 1, _MASK
    edge = (1 << B) - 1
    # From t = 2^(B-1) on, minc*t > edge holds for every row (minc >= 2).
    sure = 1 << (B - 1)
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
        t = v >> K
        c, d, minc, cp, dp = jumps[v & mask]
        if (t >= sure or minc * t > edge) and steps <= last_jump:
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
    if end_peak <= peak:
        return -1, peak
    # Jumps from any t are exact, with their tops, and pass no lookup.
    for _ in range((budget - steps) // K):
        t = v >> K
        c, d, _, cp, dp = jumps[v & mask]
        top = cp * t + dp
        if top > peak:
            peak = top
        v = c * t + d
    for _ in range((budget - steps) % K):
        v = (3 * v + 1) >> 1 if v & 1 else v >> 1
        if v > peak:
            peak = v
    return -1, peak


def unconverged(starts: range, budget: int) -> list[int]:
    """The starts (each >= 2, ascending) whose orbit does not reach 1 within `budget` steps.

    One orbit loop (`_orbits`) with range_lo above every start: every drop is
    chased to 1, each step count is exact and a cycle does not reach 1.
    """
    found: list[tuple[int, str]] = []  # cycles and budget-limited starts, in start order
    task = (0, 0, starts[-1] + 1 if starts else 0, budget)
    _orbits(task, _ChaseMemo(), found, found, starts, (-1, 0, 0, 0))
    return [n for n, _ in found]


#: The chase memo that a pool worker's chunks share, from `_start_worker`; None elsewhere.
_worker_memo: _ChaseMemo | None = None


def _start_worker() -> None:
    """Pool initializer: one chase memo per worker process, which ends with the pass's pool."""
    global _worker_memo
    _worker_memo = _ChaseMemo()


class RangeVerifier:
    """Ascending chunked convergence sweep with atomic checkpointing.

    Chunks are verified strictly in ascending order (a chunk is only
    marked verified once everything below it is), which is what makes the
    below-floor early exit of each orbit sound.  A pass over C chunks with
    W workers starts min(W, C) processes, and none when that is one.
    Per-start results do not depend on worker layout, so any worker count
    produces the identical report.
    """

    def __init__(
        self,
        lo: int,
        hi: int,
        *,
        budget: int = DEFAULT_BUDGET,
        workers: int = 1,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        checkpoint_path: Path | None = None,
        resume: bool = False,
    ):
        if not 1 <= lo <= hi:
            raise ValueError(f"need 1 <= lo <= hi, got [{lo}, {hi}]")
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        if budget < 0:
            raise ValueError(f"budget must be >= 0, got {budget}")
        self.lo = lo
        self.hi = hi
        self.budget = budget
        self.workers = workers
        self.chunk_size = chunk_size
        self.checkpoint_path = Path(checkpoint_path) if checkpoint_path else None
        # Fail before any chunk is verified, not at the first checkpoint write.
        if self.checkpoint_path and not self.checkpoint_path.parent.is_dir():
            raise CheckpointError(
                f"cannot write checkpoint {self.checkpoint_path}: "
                f"no directory {self.checkpoint_path.parent}"
            )

        if resume:
            if self.checkpoint_path is None:
                raise CheckpointError("resume requires a checkpoint path")
            cp = load_checkpoint(self.checkpoint_path)
            if (cp.lo, cp.hi, cp.budget) != (lo, hi, budget):
                raise CheckpointError(
                    f"checkpoint is for [{cp.lo}, {cp.hi}] at budget {cp.budget}, "
                    f"not [{lo}, {hi}] at budget {budget}"
                )
            self._record = cp
        else:
            self._record = Checkpoint(lo, hi, budget, verified_up_to=lo - 1, stats=SweepStats())
        # verified_up_to of the checkpoint file as this run resumed or last wrote it, else None.
        self.saved_up_to = self._record.verified_up_to if resume else None
        # Whether the record holds whole chunks that the checkpoint file does not, and when
        # the pass started or last wrote it.
        self._unsaved = False
        self._saved_at = 0.0

    @property
    def stats(self) -> SweepStats:
        return self._record.stats

    def checkpoint(self) -> Checkpoint:
        """Snapshot of the progress so far (requires at least one finished chunk)."""
        record = self._record
        if record.verified_up_to < self.lo:
            raise CheckpointError("no chunk verified yet, nothing to checkpoint")
        return replace(
            record,
            stats=replace(record.stats),
            violations=list(record.violations),
            inconclusive=list(record.inconclusive),
            timestamp=datetime.now(timezone.utc).isoformat(),
        )

    def _consume(self, result: tuple[int, SweepStats, list, list], memo: _ChaseMemo) -> None:
        """Merge the next chunk in ascending order; checkpoint if the interval has passed.

        The chunk's first pass left out the starts past the ancestor cut
        whose ancestor is a smaller start of the sweep (`_sweep_chunk`).
        That is exact unless an ancestor's run is a witness, and a left-out
        witness has a witness ancestor in turn.  So if a witness of the
        record or of the chunk covers (`_covered_by`) a start in the chunk's
        part past the cut, the kernel walks the left-out residues of that
        part in a second pass, which verifies each of them exactly.  Both
        passes are merged before the record is touched: the record takes
        whole chunks only.

        The checkpoint is written only when `CHECKPOINT_INTERVAL` seconds
        have passed since the pass started or last wrote it; `run` writes
        the rest.  A merge cut short (an exception or KeyboardInterrupt
        inside it) leaves a half-merged record, so until the merge is done
        there is nothing unsaved that may be written.
        """
        hi, stats, violations, inconclusive = result
        record = self._record
        lo = max(record.verified_up_to + 1, _ancestor_cut(self.lo))
        # The ancestors (2x - 1)/3 and (8x - 5)/9 of the x in [lo, hi]; the witness
        # lists ascend, so bisection finds the witnesses among them.
        windows = ((2 * lo - 1) // 3, (2 * hi - 1) // 3), ((8 * lo - 5) // 9, (8 * hi - 5) // 9)
        if lo <= hi and any(
            lo <= x <= hi
            for found in (record.violations, record.inconclusive, violations, inconclusive)
            for a, b in windows
            for w, _ in found[bisect_left(found, (a,)) : bisect_left(found, (b + 1,))]
            for x in _covered_by(w)
        ):
            task = (lo, hi, self.lo, self.budget)
            _, more, *skipped = _sweep_chunk(task, residues=_SKIPPED_MOD_9, memo=memo)
            stats.merge(more)
            violations = sorted(violations + skipped[0])
            inconclusive = sorted(inconclusive + skipped[1])
        self._unsaved = False
        record.verified_up_to = hi
        record.stats.merge(stats)
        record.violations.extend(violations)
        record.inconclusive.extend(inconclusive)
        self._unsaved = self.checkpoint_path is not None
        if self._unsaved and _clock() - self._saved_at >= CHECKPOINT_INTERVAL:
            self._save()

    def _save(self) -> None:
        write_checkpoint(self.checkpoint_path, self.checkpoint())
        self.saved_up_to = self._record.verified_up_to
        self._unsaved = False
        self._saved_at = _clock()

    def run(self, max_chunks: int | None = None) -> RangeReport | None:
        """Process pending chunks (all of them unless `max_chunks` limits the pass).

        Returns the final report once the whole range is verified, None if
        chunks remain (partial pass).  The pool, or this process when there
        is none, runs each chunk's first kernel pass, and `_consume` a
        second one where a witness needs it.  However the pass ends, when it
        has run out of chunks, reached `max_chunks` or is unwinding from an
        exception or KeyboardInterrupt, the checkpoint is written for the
        last chunk it consumed, unless that one is written already or its
        merge was cut short; a chunk stopped in either kernel pass is not
        consumed.  A failed write then does not mask the exception that
        ended the pass: that one propagates, with the write error as its
        cause.  Only a hard kill (SIGKILL, power loss) can lose the chunks
        consumed since the last write, at most about `CHECKPOINT_INTERVAL`
        seconds of them; a resume verifies them again and ends with the
        same report.
        """
        if max_chunks is not None and max_chunks < 0:
            raise ValueError(f"max_chunks must be >= 0, got {max_chunks}")
        t0 = time.perf_counter()
        # The plan is a lazy range of chunk starts; its full length is never taken.
        size = self.chunk_size
        starts = range(self._record.verified_up_to + 1, self.hi + 1, size)[:max_chunks]
        tasks = ((a, min(a + size - 1, self.hi), self.lo, self.budget) for a in starts)
        processes = len(starts[: self.workers])
        # A pool pays off only for two or more chunks.  imap preserves
        # submission order: chunks are consumed, and therefore checkpointed,
        # strictly ascending.
        pool = None
        if processes > 1:
            import multiprocessing  # only a pass with a pool pays for the import

            pool = multiprocessing.Pool(processes, _start_worker)
        # One chase memo for the chunks this process walks, which dies with the pass: a
        # verifier kept after its run holds none.  Pool workers keep their own.
        memo = _ChaseMemo()
        kernel = _sweep_chunk if pool else functools.partial(_sweep_chunk, memo=memo)
        self._saved_at = _clock()
        try:
            with pool or contextlib.nullcontext():
                for result in (pool.imap if pool else map)(kernel, tasks):
                    self._consume(result, memo)
        except BaseException as exc:
            if self._unsaved:
                try:
                    self._save()
                except Exception as write_error:
                    raise exc from write_error
            raise
        if self._unsaved:
            self._save()
        if self._record.verified_up_to < self.hi:
            return None
        return RangeReport(
            fact_id="convergence",
            lo=self.lo,
            hi=self.hi,
            checked=self.hi - self.lo + 1,
            violations=self._record.violations,
            inconclusive=self._record.inconclusive,
            elapsed=time.perf_counter() - t0,
        )
