"""The sweep kernel against a per-start reference, and checkpoint safety of RangeVerifier."""

import functools
import gc
import json
import multiprocessing
import os
import subprocess
import sys
import tempfile
import types
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import collatz_lab
from collatz_lab import cli, core_map, sweep
from collatz_lab.sweep import CheckpointError, RangeVerifier, SweepStats, load_checkpoint
from collatz_lab.trajectory import OrbitOutcome, converges

K, WIDTH = sweep.K, 1 << sweep.K
EDGE = 1 << sweep.B  # chases end at the first value below EDGE with a tail lookup
S, PERIOD = sweep.S, 1 << sweep.S
EVERY = frozenset(range(9))  # the kernel walks every residue mod 9: no start is skipped


def reference_chunk(task, starts=None):
    """One `converges` call per start (plus a tail chase below range_lo), merged one by one.

    `starts` limits the starts observed to a subset of [lo, hi].
    """
    lo, hi, range_lo, budget = task
    stats = SweepStats()
    inconclusive = []
    for n in range(lo, hi + 1) if starts is None else starts:
        status = converges(n, budget, n)
        steps = status.steps_used
        peak = status.peak
        if status.outcome is OrbitOutcome.BUDGET_EXHAUSTED:
            inconclusive.append((n, f"no conclusion within {budget} steps"))
        elif (
            status.outcome is OrbitOutcome.DROPPED_BELOW_FLOOR
            and status.final < range_lo
        ):
            tail = converges(status.final, budget - steps, 1)
            steps += tail.steps_used
            peak = max(peak, tail.peak)
            if tail.outcome is not OrbitOutcome.REACHED_TARGET:
                inconclusive.append((n, f"no conclusion within {budget} steps"))
        stats.merge(SweepStats(steps, n, peak, n))
    return hi, stats, [], inconclusive


range_los = st.one_of(
    st.just(1),
    st.integers(2, 500),
    st.integers(10**12, 10**12 + 10**6),
    st.integers(EDGE - 300, EDGE + 300),  # chases that end on both sides of the tail table
)
budgets = st.one_of(st.integers(0, 3), st.sampled_from([5, 10, 50, 10**6]))


@st.composite
def chunks(draw):
    # Chunks start near range_lo or near 2*range_lo, where chunks from about 2*range_lo
    # on take the sieve.
    range_lo = draw(range_los)
    near = draw(st.sampled_from([range_lo, 2 * range_lo]))
    lo = max(range_lo, near + draw(st.integers(-60, 60)))
    hi = lo + draw(st.integers(0, 150))
    return lo, hi, range_lo, draw(budgets)


@settings(max_examples=300, deadline=None)
@given(chunks())
def test_chunk_equals_reference(task):
    assert sweep._sweep_chunk(task, residues=EVERY) == reference_chunk(task)


budgets_near_k = st.one_of(st.sampled_from([K - 1, K, K + 1]), budgets)


def fold_bound(k, range_lo):
    """The first lo from which a chunk at depth k takes the sieve: its settled classes fold."""
    t_min, c, d = sweep._survivor_table(k)[1]
    return 1 if range_lo == 1 else max(t_min, -((d - range_lo) // c)) << k


@st.composite
def chunks_near_fold_bounds(draw):
    # Chunks at depth k = min(S, budget, log2 of the width), or one less or more, around
    # the first lo from which they take the sieve, or around 2*range_lo.
    range_lo = draw(st.one_of(st.just(1), st.integers(2, 3000), st.integers(10**5, 10**6)))
    k = draw(st.integers(1, 10))
    near = draw(st.sampled_from([fold_bound(k, range_lo), 2 * range_lo]))
    lo = max(range_lo, near + draw(st.integers(-(2 << k) - 60, 60)))
    hi = lo + draw(st.integers((1 << k) - 2, (2 << k) + 300))
    return lo, hi, range_lo, draw(st.one_of(st.integers(k, k + 2), st.just(10**6)))


@settings(max_examples=150, deadline=None)
@given(chunks_near_fold_bounds())
# At depth 2, first = 2 leaves the class of 1 mod 4 without a start in [2, 4].
@example((1, 4, 1, 2))
# At budget 10 no survivor has more than 10 steps: the settled classes fold.
@example((4096, 4096 + 1029, 1000, 10))
def test_chunk_equals_reference_near_fold_bounds(task):
    assert sweep._sweep_chunk(task, residues=EVERY) == reference_chunk(task)


@pytest.mark.parametrize("budget", ["k", 10**6])
@pytest.mark.parametrize("k", range(1, S + 1))
def test_chunk_equals_reference_at_each_depth(k, budget):
    # A chunk of 2^k + 1 starts just past the first lo at which it takes the sieve.  At
    # budget k no survivor beats the settled starts' k steps, so their classes fold.
    budget = k if budget == "k" else budget
    lo = fold_bound(k, 1000) + 3
    task = (lo, lo + (1 << k), 1000, budget)
    assert sweep._plan_depth(*task) == k
    assert sweep._sweep_chunk(task, residues=EVERY) == reference_chunk(task)


@pytest.mark.parametrize(
    "task",
    [
        (1, 1, 1, 0),  # n = 1 is at 1 with no budget at all
        (2, 2, 1, 0),
        (1, 64, 1, 1),  # budget 1: only even starts are settled
        (4, 5, 1, 10),  # depth 1: 4 is settled, 5 is walked
        (100, 140, 60, 10**6),  # straddles 2*range_lo; at depth 5 the sieve starts at 128
        (27, 27, 27, 10**6),
        # 684 and 701 inconclusive starts, listed across classes: witness order
        (1000, 1800, 1000, 3),
        (10**12, 10**12 + 700, 10**12, 9),
        # First drops onto 2^B (from 2^(B+1) and from (2^(B+2) - 1)/3) and onto 2^B - 1
        (2 * EDGE, 2 * EDGE, 2 * EDGE, 10**6),
        ((4 * EDGE - 1) // 3, (4 * EDGE - 1) // 3, EDGE + 1, 10**6),
        (2 * EDGE - 2, 2 * EDGE - 2, 2 * EDGE - 2, 10**6),
    ],
)
def test_chunk_equals_reference_at_the_edges(task):
    assert sweep._sweep_chunk(task, residues=EVERY) == reference_chunk(task)


def skipped_starts(task, residues):
    """The starts of a chunk that a pass over `residues` mod 9 leaves out.

    Those are the walked (not settled) starts n with a residue mod 9 not in
    `residues`, counted from the first n at which (2n - 1)/3 >= max(range_lo, 2):
    from there on the ancestor of each n ≡ 2, 4, 5 or 8 (mod 9), (2n - 1)/3
    for n ≡ 2 (mod 3) or (8n - 5)/9 for n ≡ 4 (mod 9), is a start of the
    sweep.  At the chunk's depth k, 0 when it takes no sieve, a walked start
    is a survivor mod 2^k; the others enter the records whatever their
    residue mod 9.
    """
    lo, hi, range_lo, budget = task
    first = -(-(3 * max(range_lo, 2) + 1) // 2)
    k = sweep._plan_depth(lo, hi, range_lo, budget)
    survivors = {r % (1 << k) for rs in sweep._survivor_table(k)[0] for r in rs} if k else {0}
    return {
        n
        for n in range(max(lo, first), hi + 1)
        if n % 9 not in residues and n % (1 << k) in survivors
    }


PASSES = (sweep._KEPT_MOD_9, sweep._SKIPPED_MOD_9)  # the residues mod 9 of a chunk's two passes


@settings(max_examples=300, deadline=None)
@given(st.one_of(chunks(), chunks_near_fold_bounds()), st.sampled_from(PASSES))
# 2 and 3 lie below the cut of a sweep from 1 and are walked whatever their residue
# mod 9; at depths 1 to 3, 3 is a survivor, here inconclusive.
@example((1, 8, 1, 3), sweep._SKIPPED_MOD_9)
def test_sieved_chunk_equals_reference_over_the_starts_it_keeps(task, residues):
    lo, hi, _, _ = task
    left_out = skipped_starts(task, residues)
    kept = [n for n in range(lo, hi + 1) if n not in left_out]
    assert sweep._sweep_chunk(task, residues=residues) == reference_chunk(task, kept)


@pytest.mark.parametrize("budget", [0, 3, 9, 300, 10**6])
def test_sieve_leaves_a_chunk_whose_ancestors_are_below_range_lo_alone(budget):
    # Below 3*range_lo/2 no ancestor is a start of the sweep, so a chunk there,
    # such as every chunk of a window near 10^12 narrower than 5*10^11, is unchanged.
    task = (10**12, 10**12 + 500, 10**12, budget)
    assert sweep._sweep_chunk(task) == sweep._sweep_chunk(task, residues=EVERY)


@settings(max_examples=25, deadline=None)
@given(
    range_los,
    st.integers(0, 1500),
    budgets,
    st.integers(1, 400),
    st.sampled_from([1, 2]),
)
def test_verifier_equals_reference(lo, width, budget, chunk_size, workers):
    hi = lo + width
    verifier = RangeVerifier(lo, hi, budget=budget, chunk_size=chunk_size, workers=workers)
    report = verifier.run()
    _, stats, violations, inconclusive = reference_chunk((lo, hi, lo, budget))
    assert report.checked == hi - lo + 1
    assert report.violations == violations
    assert report.inconclusive == inconclusive
    assert verifier.stats == stats


def _step(v):
    return (3 * v + 1) >> 1 if v & 1 else v >> 1


def test_tail_table_against_single_steps():
    tail_steps, tail_peak = sweep._tail_table()
    assert len(tail_steps) == len(tail_peak) == EDGE
    for v in range(1, EDGE):
        x, steps, peak = v, 0, v
        while x != 1:
            x = _step(x)
            steps += 1
            peak = max(peak, x)
        assert (tail_steps[v], tail_peak[v]) == (steps, peak), v


class _Reads(tuple):
    """A tuple that records the indices it is read at."""

    def __getitem__(self, i):
        self.reads.append(i)
        return tuple.__getitem__(self, i)


def _first_under_edge(n):
    """The first value below 2^B after n drops below itself."""
    v = _step(n)
    while v >= n:
        v = _step(v)
    while v >= EDGE:
        v = _step(v)
    return v


@pytest.mark.parametrize("n", [10**12 + 1, 1000000040914])  # the latter holds 449 steps
def test_chase_ends_with_one_tail_lookup_exactly_at_the_budget(monkeypatch, n):
    tail_steps, tail_peak = sweep._tail_table()
    peaks = _Reads(tail_peak)
    peaks.reads = []
    monkeypatch.setattr(sweep, "_tail_table", lambda: (tail_steps, peaks))
    total = reference_chunk((n, n, n, 10**6))[1].max_steps
    # At budget S the chase converges with one lookup, at its first value below
    # 2^B.  At S - 1 that lookup does not fit, which shows that 1 is out of reach;
    # the chase reads no other entry.
    for budget in (total, total - 1):
        peaks.reads.clear()
        task = (n, n, n, budget)
        assert sweep._sweep_chunk(task) == reference_chunk(task)
        assert peaks.reads == [_first_under_edge(n)]
    assert reference_chunk((n, n, n, total - 1))[3] != []


def test_a_memo_hit_ends_a_chase_exactly_at_the_budget(monkeypatch):
    # The chase of n2 meets, at the end of a jump, a value that the chase of n1 walked.
    n1, n2 = 10**12 + 1, 10**12 + 21
    tail_steps, tail_peak = sweep._tail_table()
    peaks = _Reads(tail_peak)
    peaks.reads = []
    monkeypatch.setattr(sweep, "_tail_table", lambda: (tail_steps, peaks))
    total = reference_chunk((n2, n2, n2, 10**6))[1].max_steps
    # At budget S the memo's steps fit and end the chase; at S - 1 they do not, and
    # single steps run out the budget.  Neither reads the tail table's peaks.
    for budget in (total, total - 1):
        memo = sweep._ChaseMemo()
        sweep._sweep_chunk((n1, n1, n1, 10**6), memo=memo)
        peaks.reads.clear()
        task = (n2, n2, n2, budget)
        assert sweep._sweep_chunk(task, memo=memo) == reference_chunk(task)
        assert peaks.reads == []
    assert reference_chunk((n2, n2, n2, total - 1))[3] != []


@pytest.mark.parametrize("budget", [10**6, 200, 150])
def test_memo_entries_equal_single_steps(budget):
    memo = sweep._ChaseMemo()
    lo = 10**12 + 10**6
    sweep._sweep_chunk((lo, lo + 2000, lo, budget), residues=EVERY, memo=memo)
    filled = [(x, s, p) for x, s, p in zip(memo.keys, memo.steps, memo.peaks) if x]
    assert len(filled) > 1000
    for x, steps, peak in filled:
        assert x & ((1 << sweep.M) - 1) == memo.keys.index(x)
        values = [x]
        while values[-1] != 1:
            values.append(_step(values[-1]))
        assert (steps, peak) == (len(values) - 1, max(values)), x


def test_every_3x_plus_1_row_jumps_from_t_2_to_the_b_minus_1():
    # `_chase` jumps without checking the row from t = 2^(B-1) on: minc*t > 2^B - 1.  A
    # jump's top is its peak from t = 0 on: cp >= c_j and dp >= d_j for every j.
    for r, (_, _, minc, cp, dp) in enumerate(sweep._residue_table()):
        forms = sweep._forms(r, K)
        assert minc == min(c for c, _ in forms[1:K]) >= 2
        assert (cp, dp) == max(forms)
        assert all(dp >= d for _, d in forms)


def test_kernel_equals_reference_with_a_one_slot_memo(monkeypatch):
    # Every value a chase stores lands in the one slot and overwrites the last; pool
    # workers forked from this process build one-slot memos too.
    monkeypatch.setattr(sweep, "M", 0)
    assert len(sweep._ChaseMemo().keys) == 1
    test_chunk_equals_reference()
    test_verifier_equals_reference()


def _steps_to_1(n):
    steps = 0
    while n != 1:
        n = _step(n)
        steps += 1
    return steps


@pytest.mark.parametrize("memo_bits", [sweep.M, 0])
@pytest.mark.parametrize("lo", [2, EDGE - 30, 10**12, 1000000040914, 2**64, 3**50])
def test_unconverged_equals_single_steps_at_every_exact_budget(monkeypatch, lo, memo_bits):
    # At a budget equal to a start's steps to 1 it converges, and one step less it does
    # not.  Drops end in the tail table, in the memo (with one slot, each value a chase
    # stores overwrites the last) or run out of budget.  The starts are those of C2, as
    # `facts.verify_reduction` passes them.
    monkeypatch.setattr(sweep, "M", memo_bits)
    starts = range(lo + (2 - lo) % 3, lo + 900, 3)
    steps = {n: _steps_to_1(n) for n in starts}
    for budget in sorted({b for s in steps.values() for b in (s, s - 1)}):
        want = [n for n in starts if steps[n] > budget]
        assert sweep.unconverged(starts, budget) == want, budget
    assert sweep.unconverged(range(lo, lo, 3), 0) == []


@pytest.mark.parametrize("budget", [10**6, 200, 150])
def test_report_near_1e12_does_not_depend_on_chunk_size_or_workers(budget):
    # Every start is chased, and each pass, chunk or pool worker has its own memo.
    lo, hi = 10**12, 10**12 + 5000
    want = reference_chunk((lo, hi, lo, budget))
    for chunk_size in (64, 4093, PERIOD):
        for workers in (1, 2):
            verifier = RangeVerifier(lo, hi, budget=budget, chunk_size=chunk_size, workers=workers)
            report = verifier.run()
            assert (hi, verifier.stats, report.violations, report.inconclusive) == want


@pytest.mark.parametrize("lo", [2**64, 2**100, 3**50], ids=["2^64", "2^100", "3^50"])
@pytest.mark.parametrize("budget", [10**6, 60, "median"])
def test_kernel_above_2_to_the_64_equals_reference(lo, budget):
    # Values past a machine word, at a budget that lets every orbit reach 1, one that
    # stops each chase, and one near the window's median steps to 1, where both occur.
    hi = lo + 299
    if budget == "median":
        steps = sorted(_steps_to_1(n) for n in range(lo, hi + 1))
        budget = steps[len(steps) // 2]
        inconclusive = reference_chunk((lo, hi, lo, budget))[3]
        assert 0 < len(inconclusive) < hi - lo + 1
    for range_lo in (lo, lo - 1000):
        task = (lo, hi, range_lo, budget)
        assert sweep._sweep_chunk(task, residues=EVERY) == reference_chunk(task)
    verifier = RangeVerifier(lo, hi, budget=budget, chunk_size=64)
    report = verifier.run()
    _, stats, violations, inconclusive = reference_chunk((lo, hi, lo, budget))
    assert (report.violations, report.inconclusive) == (violations, inconclusive)
    assert verifier.stats == stats


@pytest.mark.parametrize("lo", [2**64, 3**50], ids=["2^64", "3^50"])
@pytest.mark.parametrize("budget", [S, S + 1, 10**6])
def test_kernel_on_depth_s_chunks_far_from_1_equals_reference(lo, budget):
    # A chunk of 2^S starts whose drops stay above range_lo takes the sieve at depth S:
    # each survivor starts at step S from its lead row.  At budget S every such jump
    # lands exactly on the budget.
    task = (lo, lo + PERIOD - 1, lo // 4, budget)
    assert sweep._plan_depth(*task) == S
    assert sweep._sweep_chunk(task, residues=EVERY) == reference_chunk(task)


def _holds_a_memo(root):
    """Whether a chase memo is reachable from `root` through instances and containers."""
    seen, todo = set(), [root]
    while todo:
        obj = todo.pop()
        if isinstance(obj, sweep._ChaseMemo):
            return True
        if id(obj) in seen or isinstance(obj, (type, types.ModuleType, types.FunctionType)):
            continue
        seen.add(id(obj))
        todo.extend(gc.get_referents(obj))
    return False


def test_the_memo_ends_with_its_pass(monkeypatch, tmp_path):
    # A memo kept on the verifier would hold its 3 * 2^M slots and their ints for as
    # long as the verifier lives.  The benchmark keeps every repetition's verifiers:
    # with the memo on them, `sweep_resume` peak RSS read 35.3 MB against 25.4 MB.
    finished = RangeVerifier(10**12, 10**12 + 500, chunk_size=64)
    assert finished.run() is not None
    assert not _holds_a_memo(finished)
    monkeypatch.setattr(sweep, "_sweep_chunk", StopAt(41, 50, RuntimeError))
    stopped = _cadence_verifier(tmp_path / "cp.json")
    with pytest.raises(RuntimeError):
        stopped.run()
    assert not _holds_a_memo(stopped)
    assert sweep._worker_memo is None  # only pool workers set their own


def _values(n, count):
    """n and its next `count` values, by core_map.step."""
    values = [n]
    for _ in range(count):
        values.append(core_map.step(values[-1])[0])
    return values


def test_table_rows_against_single_steps():
    jumps = sweep._residue_table()
    assert sweep._residue_table() is jumps  # built once, on first use
    for r in range(WIDTH):
        c, d, minc, cp, dp = jumps[r]
        for t in (0, 1, 2, 10**12 + r):
            if (t, r) == (0, 0):
                continue
            n = t * WIDTH + r
            values = _values(n, K)
            ahead = _values(n + WIDTH, K)
            assert values[K] == c * t + d
            # minc is the smallest t-coefficient of the values strictly between.
            assert minc == min(b - a for a, b in zip(values[1:K], ahead[1:K]))
            assert max(values) == cp * t + dp


#: Survivors mod 2^k for k = 1..16 (OEIS A076227).
SURVIVOR_COUNTS = [1, 1, 2, 3, 4, 8, 13, 19, 38, 64, 128, 226, 367, 734, 1295, 2114]


@pytest.mark.parametrize("k", range(1, S + 1))
def test_survivors_and_settled_classes_partition_the_residues(k):
    by_mod_9, _, _, settled, _ = sweep._survivor_table(k)
    assert sweep._survivor_table(k)[0] is by_mod_9  # built once per depth, on first use
    period = 1 << max(k, sweep.P)
    for q, rs in enumerate(by_mod_9):
        assert list(rs) == sorted(rs) and all(r % 9 == q and 0 <= r < period for r in rs)
    listed = sorted(r for rs in by_mod_9 for r in rs)
    survivors = [r for r in listed if r < 1 << k]
    assert len(survivors) == SURVIVOR_COUNTS[k - 1]
    assert listed == sorted(r + i for r in survivors for i in range(0, period, 1 << k))
    members = survivors + [n for r, modulus in settled for n in range(r, 1 << k, modulus)]
    assert sorted(members) == list(range(1 << k))
    # A shallower sieve settles the classes of the deepest one with a modulus up to 2^k.
    assert settled == tuple((r, m) for r, m in sweep._survivor_table(S)[3] if m <= 1 << k)
    assert k < S or len(settled) == 791
    for r in survivors:
        # Every coefficient c_j, j = 1..k, exceeds 2^k: the residue survives k steps,
        # and no value up to step k reaches n.
        assert min(c for c, _ in sweep._forms(r, k)[1:]) > 1 << k
        for t in (0, 1, 10**12 + r):
            n = (t << k) + r
            assert min(_values(n, k)[1:]) > n


def test_lead_rows_against_single_steps():
    by_mod_9, *_, leads = sweep._survivor_table(S)
    assert all(sweep._survivor_table(k)[4] is None for k in range(1, S))  # depth S only
    rows = {}
    for rs, (coefs, consts) in zip(by_mod_9, leads):
        assert len(coefs) == len(consts) == 2 * len(rs)
        rows.update((r, (coefs[2 * i], consts[2 * i], coefs[2 * i + 1], consts[2 * i + 1]))
                    for i, r in enumerate(rs))
    assert len(rows) == SURVIVOR_COUNTS[S - 1]
    # The rows share one int object per distinct coefficient: 6 of c_S and 43 of cp.
    for at, distinct in ((0, 6), (2, 43)):
        values = [row[at] for row in rows.values()]
        assert len({id(v) for v in values}) == len(set(values)) == distinct
    for r, (c, d, cp, dp) in rows.items():
        # The form with the largest c_j has the largest d_j too: cp*t + dp is the
        # peak over steps 0..S from t = 0 on.
        forms = sweep._forms(r, S)
        assert max(forms) == (cp, max(d for _, d in forms))
        for t in (0, 1, 2**48, 3**40):
            values = _values((t << S) + r, S)
            assert values[S] == c * t + d
            assert max(values) == cp * t + dp


@pytest.mark.parametrize("k", range(1, S + 1))
def test_each_settled_class_drops_at_its_step_from_t_min_on(k):
    _, (t_min, c_drop, d_drop), (c_peak, d_peak), settled, _ = sweep._survivor_table(k)
    assert t_min == 1  # the classes 0 mod 2 and 1 mod 4 drop from their second member on
    for r, modulus in settled:
        j = modulus.bit_length() - 1
        assert 1 <= j <= k
        # The first and the last member of the class mod 2^k: the bounds hold for every
        # n = 2^k*t + R, coefficient by coefficient.
        for u in (0, (1 << k) // modulus - 1):
            forms = sweep._forms(r + u * modulus, k)
            assert all(c <= c_peak and d <= d_peak for c, d in forms[: j + 1])
            assert forms[j][0] >= c_drop and forms[j][1] >= d_drop
        for n in (t_min * modulus + r, (t_min + 1) * modulus + r, (10**12 << k) - modulus + r):
            values = _values(n, j)
            assert min(values[1:j], default=n + 1) > n > values[j] >= c_drop * (n >> k) + d_drop
            assert max(values) <= c_peak * (n >> k) + d_peak


@pytest.mark.parametrize("budget", [10, 2, 1, 0])
def test_a_start_whose_orbit_returns_to_it_is_a_cycle(budget):
    # 1 -> 2 -> 1 is the one known cycle of x -> x/2, (3x + 1)/2.  A sweep never walks
    # start 1, so the orbit loop is given it alone.  At budget 2 the return to 1 takes
    # the last step the budget allows.
    found = [], []
    records = sweep._orbits((1, 1, 1, budget), sweep._ChaseMemo(), *found, [1], (-1, 0, 0, 0))
    if budget >= 2:
        assert found == ([(1, "cycle of length 2: 1 -> 2 -> 1")], [])
        assert records == (2, 1, 2, 1)
    else:
        assert found == ([], [(1, f"no conclusion within {budget} steps")])
        assert records == (budget, 1, 1 + budget, 1)


@settings(max_examples=12, deadline=None)
@given(
    st.integers(2, 12),
    st.integers(2, 3),
    st.integers(0, WIDTH),
    budgets_near_k,
    st.integers(1, 3 * WIDTH),
    st.sampled_from([1, 2]),
)
def test_verifier_well_past_the_fold_bounds(lo, times, extra, budget, chunk_size, workers):
    hi = times * WIDTH * lo + extra
    verifier = RangeVerifier(lo, hi, budget=budget, chunk_size=chunk_size, workers=workers)
    report = verifier.run()
    _, stats, violations, inconclusive = reference_chunk((lo, hi, lo, budget))
    assert (report.violations, report.inconclusive) == (violations, inconclusive)
    assert verifier.stats == stats


def test_each_start_alone_equals_single_steps():
    # A one-start chunk exposes that start's own steps and peak, not just the records.
    for n in range(1, 400):
        for range_lo in (1, n):
            task = (n, n, range_lo, 300)
            assert sweep._sweep_chunk(task, residues=EVERY) == reference_chunk(task)


@settings(max_examples=40, deadline=None)
@given(
    range_los,
    st.integers(0, 1500),
    st.integers(0, 40),
    st.lists(st.tuples(st.integers(0, 6), st.integers(1, 400)), max_size=4),
    st.integers(1, 400),
)
# 1183 runs out of budget before 1775, which it covers, reaches its peak 5993.
@example(lo=1, width=1776, budget=3, passes=[(100, 7)], chunk_size=7)
# Start 1 is no ancestor: at budget 0, start 2 stays inconclusive.
@example(lo=1, width=9, budget=0, passes=[(1, 1)], chunk_size=1)
def test_sieved_verifier_with_resumes_equals_reference(lo, width, budget, passes, chunk_size):
    # Each pass resumes the last one's checkpoint, if there is one, with its own chunk size.
    hi = lo + width
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cp.json"
        for max_chunks, size in passes + [(None, chunk_size)]:
            verifier = RangeVerifier(
                lo, hi, budget=budget, chunk_size=size, checkpoint_path=path, resume=path.exists()
            )
            report = verifier.run(max_chunks=max_chunks)
    _, stats, violations, inconclusive = reference_chunk((lo, hi, lo, budget))
    assert (report.violations, report.inconclusive) == (violations, inconclusive)
    assert verifier.stats == stats


@pytest.mark.parametrize("budget", [0, 3, 10, 100, 10**6])
def test_a_chunk_takes_at_most_two_kernel_passes(monkeypatch, budget):
    # A chunk behind a witness walks its skipped residues in one more pass, not start by start.
    tasks, kernel = [], sweep._sweep_chunk

    def counting(task, **kwargs):
        tasks.append(task)
        return kernel(task, **kwargs)

    monkeypatch.setattr(sweep, "_sweep_chunk", counting)
    RangeVerifier(1, 10**5, budget=budget, chunk_size=4096).run()
    chunks = -(-10**5 // 4096)
    assert len({task[1] for task in tasks}) == chunks
    assert len(tasks) <= 2 * chunks


def _fold_every_settled_residue(monkeypatch):
    """Give each table a peak bound that no start beats: every chunk on the sieve then folds."""
    table = sweep._survivor_table
    monkeypatch.setattr(sweep, "_survivor_table",
                        lambda k: (*table(k)[:2], (0, 10**30), *table(k)[3:]))


@pytest.mark.parametrize("budget", [17, 24, 40, 10**4])
@pytest.mark.parametrize(
    "task",
    [
        (1, PERIOD, 1),  # the first chunk of a sweep from 1, below t_min
        (1, PERIOD + 5, 1),
        (PERIOD + 5, 2 * PERIOD + 4, 1),  # one period, not aligned
        (PERIOD, 2 * PERIOD - 1, 2),  # one period, aligned
        (2 * PERIOD, 4 * PERIOD + 999, 1000),
        (4 * PERIOD + 123, 5 * PERIOD + 300, 10**5),  # the first t at which 10^5 is settled
    ],
)
def test_survivor_plan_equals_the_per_class_plan(monkeypatch, task, budget):
    # The per-class plan settles the classes mod 2^K that drop within K steps and walks
    # the 19 others: the sieve at depth K.
    lo, hi, range_lo = task
    task = (lo, hi, range_lo, budget)
    assert sweep._plan_depth(*task) == S
    plans = {}
    for plan in ("survivors", "folds", "per class"):
        if plan == "folds":
            _fold_every_settled_residue(monkeypatch)
        if plan == "per class":
            monkeypatch.undo()
            monkeypatch.setattr(sweep, "S", K)
            # Tables built while S is patched stay out of the session's cache.
            monkeypatch.setattr(sweep, "_survivor_table",
                                functools.cache(sweep._survivor_table.__wrapped__))
            assert sweep._plan_depth(*task) == K
        plans[plan] = [sweep._sweep_chunk(task, residues=r) for r in (EVERY, *PASSES)]
    # Over all nine residues every plan gives each start's exact records.
    assert plans["survivors"][0] == plans["folds"][0] == plans["per class"][0]
    # Over the kept five or the skipped four, the survivors beat the bound: the
    # settled residues are left out.
    assert plans["survivors"][1:] == plans["per class"][1:]
    # A fold also counts the settled starts a pass skips mod 9; the witnesses stay the same.
    assert [p[2:] for p in plans["folds"][1:]] == [p[2:] for p in plans["per class"][1:]]


def test_every_start_below_2_16_but_the_survivors_drops_at_its_class_step():
    # A sweep from 1 takes the sieve in its first chunk, at t = 0 < t_min.  A shallower
    # sieve settles a subset of the same classes, so this covers every depth.
    by_mod_9, _, (_, d_peak), _, _ = sweep._survivor_table(S)
    survivors = {r for rs in by_mod_9 for r in rs}
    for n in range(2, PERIOD):
        if n in survivors:
            continue
        # The class's step is the first j with c_j = 3^a * 2^(S - j) below 2^S.
        v, c, peak = n, PERIOD, n
        for _ in range(S):
            c = 3 * c >> 1 if v & 1 else c >> 1
            v = _step(v)
            peak = max(peak, v)
            if c < PERIOD:
                break
            assert v > n, n
        assert c < PERIOD and 0 < v < n and peak <= d_peak, n


def test_a_sweep_from_1_takes_the_survivor_plan_from_its_first_chunk(monkeypatch):
    depths, plan_depth = [], sweep._plan_depth

    def recording(*task):
        depths.append(plan_depth(*task))
        return depths[-1]

    monkeypatch.setattr(sweep, "_plan_depth", recording)
    report = RangeVerifier(1, 2**18).run()
    assert (report.violations, report.inconclusive) == ([], [])
    assert depths == [S] * 4


@pytest.mark.parametrize("range_lo", [1000, 10**6, 10**12 + 7])
@pytest.mark.parametrize("budget", [5, 10**6])
def test_chunk_equals_reference_where_classes_can_start_to_fold(range_lo, budget):
    # A chunk of 600 starts has depth k = min(budget, 9).  Its classes fold from the
    # first lo at which c*(lo >> k) + d reaches range_lo; the chunk before walks them.
    k = min(budget, 9)
    lo = fold_bound(k, range_lo)
    _, c, d = sweep._survivor_table(k)[1]
    assert c * ((lo - 1) >> k) + d < range_lo <= c * (lo >> k) + d
    for lo, depth in ((lo - 1, 0), (lo, k)):
        task = (lo, lo + 599, range_lo, budget)
        assert sweep._plan_depth(*task) == depth
        assert sweep._sweep_chunk(task, residues=EVERY) == reference_chunk(task)


@pytest.mark.parametrize("walked, budget", [("none", 17), ("the lowest peak", 10**4)])
def test_a_fold_gives_the_records_of_every_settled_start(monkeypatch, walked, budget):
    # Survivors that do not beat the peak bound leave it to the fold to give the records
    # of every start that drops within S steps; its peak record is at a class's last start.
    lo, hi = 3 * PERIOD + 7, 4 * PERIOD + PERIOD // 2
    task = (lo, hi, 1000, budget)
    assert sweep._plan_depth(*task) == S
    survivors = {r for rs in sweep._survivor_table(S)[0] for r in rs}
    starts = [n for n in range(lo, hi + 1) if n % PERIOD not in survivors]
    runs = []
    if walked == "the lowest peak":
        n = min((n for n in range(lo, PERIOD + lo) if n % PERIOD in survivors),
                key=lambda n: converges(n, budget, n).peak / n)
        c, d = sweep._survivor_table(S)[2]
        assert converges(n, budget, n).peak < c * (hi >> S) + d
        starts.append(n)
        runs = [list(run) for run in sweep._survivor_runs(n, n, EVERY, S)]  # n with its lead row
    # The chunk lies past the ancestor cut: its runs below the cut are empty.
    monkeypatch.setattr(sweep, "_survivor_runs", lambda a, b, residues, k: runs if a <= b else [])
    assert sweep._sweep_chunk(task) == reference_chunk(task, starts)


@pytest.mark.parametrize(
    "lo, width, budget",
    [
        # The ancestor cut and the first chunks on the sieve lie in the window.
        *((lo, 2**18, budget) for lo in (1, 2, 1000) for budget in (16, 17, 24, 40, 10**4)),
        # Here the plan starts at 3 * 2^16, in a chunk of 2^17 starts as well.
        *((2**16 + 1, 2**18, budget) for budget in (17, 40)),
        # No chunk takes the sieve, which starts at about 2*lo, so only the chunk
        # boundaries move.  Most starts drop below lo and are chased: short windows.
        *((lo, 2**16 + 2**12, budget) for lo in (2**20 + 1, 10**9) for budget in (17, 10**4)),
    ],
)
def test_report_does_not_depend_on_the_chunk_size_across_2_16(lo, width, budget):
    results = []
    for chunk_size in (PERIOD, 2 * PERIOD, 4093):
        verifier = RangeVerifier(lo, lo + width, budget=budget, chunk_size=chunk_size)
        report = verifier.run()
        results.append((report.violations, report.inconclusive, verifier.stats))
    assert results[0] == results[1] == results[2]


def _interrupted(path, budget):
    """[1, 100] in chunks of 10, stopped after 5 chunks."""
    partial = RangeVerifier(1, 100, chunk_size=10, budget=budget, checkpoint_path=path)
    assert partial.run(max_chunks=5) is None


def test_checkpoint_is_a_snapshot():
    # At budget 5 the first chunk leaves 7 open (peak 26); later chunks add
    # six more open starts and the peak 242 at 31.
    verifier = RangeVerifier(1, 100, chunk_size=10, budget=5)
    assert verifier.run(max_chunks=1) is None
    first = verifier.checkpoint()
    assert verifier.run(max_chunks=5) is None
    assert first.verified_up_to == 10
    assert [x for x, _ in first.inconclusive] == [7]
    assert (first.stats.max_peak, first.stats.max_peak_at) == (26, 7)
    later = verifier.checkpoint()
    assert later.verified_up_to == 60
    assert len(later.inconclusive) == 7
    assert (later.stats.max_peak, later.stats.max_peak_at) == (242, 31)


class TestResumeBudget:
    def test_checkpoint_stores_the_budget(self, tmp_path):
        path = tmp_path / "cp.json"
        _interrupted(path, 1000)
        assert load_checkpoint(path).budget == 1000

    def test_other_budget_rejected(self, tmp_path):
        # Resumed at budget 5, this sweep reported 6 inconclusive starts:
        # neither the 12 of budget 5 nor the 0 of budget 1000.
        path = tmp_path / "cp.json"
        _interrupted(path, 1000)
        with pytest.raises(CheckpointError, match="budget"):
            RangeVerifier(1, 100, chunk_size=10, budget=5, checkpoint_path=path, resume=True)

    def test_same_budget_resumes(self, tmp_path):
        path = tmp_path / "cp.json"
        _interrupted(path, 5)
        resumed = RangeVerifier(
            1, 100, chunk_size=10, budget=5, checkpoint_path=path, resume=True
        )
        assert len(resumed.run().inconclusive) == 12

    def test_missing_budget_field_rejected(self, tmp_path):
        path = tmp_path / "cp.json"
        _interrupted(path, 5)
        doc = json.loads(path.read_text())
        del doc["budget"]
        path.write_text(json.dumps(doc))
        with pytest.raises(CheckpointError, match="budget"):
            RangeVerifier(1, 100, chunk_size=10, budget=5, checkpoint_path=path, resume=True)


def test_unwritable_checkpoint_fails_before_any_chunk(monkeypatch, tmp_path):
    calls = []
    monkeypatch.setattr(sweep, "_sweep_chunk", lambda task: calls.append(task))
    with pytest.raises(CheckpointError, match="checkpoint"):
        RangeVerifier(1, 400_000, checkpoint_path=tmp_path / "missing" / "cp.json").run()
    assert calls == []


class TestRunPasses:
    def test_negative_max_chunks_rejected(self):
        verifier = RangeVerifier(1, 100, chunk_size=10)
        with pytest.raises(ValueError, match="max_chunks"):
            verifier.run(max_chunks=-1)

    def test_checkpoint_before_any_chunk(self):
        with pytest.raises(CheckpointError, match="no chunk"):
            RangeVerifier(1, 100, chunk_size=10).checkpoint()

    @pytest.mark.parametrize("verified_up_to", [0, 101])
    def test_resume_outside_the_range_rejected(self, tmp_path, verified_up_to):
        path = tmp_path / "cp.json"
        _interrupted(path, 1000)
        doc = json.loads(path.read_text())
        path.write_text(json.dumps({**doc, "verified_up_to": verified_up_to}))
        with pytest.raises(CheckpointError, match="outside"):
            RangeVerifier(1, 100, chunk_size=10, budget=1000, checkpoint_path=path, resume=True)

    def test_other_task_rejected(self, tmp_path):
        path = tmp_path / "cp.json"
        _interrupted(path, 1000)
        doc = json.loads(path.read_text())
        path.write_text(json.dumps({**doc, "task": "facts"}))
        with pytest.raises(CheckpointError, match="task 'facts'"):
            load_checkpoint(path)

    def test_pass_over_a_huge_range(self):
        # len(range(1, 10**30, 65536)) overflows; the plan never takes it.
        verifier = RangeVerifier(1, 10**30, workers=2)
        assert verifier.run(max_chunks=2) is None
        assert verifier.checkpoint().verified_up_to == 131072

    def test_unlimited_pass_over_a_huge_range_starts(self, monkeypatch):
        # [1, 10^30] holds more chunk starts than len() can count.
        class FirstChunk(Exception):
            pass

        def first_chunk(task, memo=None):
            raise FirstChunk(task)

        monkeypatch.setattr(sweep, "_sweep_chunk", first_chunk)
        with pytest.raises(FirstChunk):
            RangeVerifier(1, 10**30).run()


@pytest.fixture
def pool_sizes(monkeypatch):
    """Replace multiprocessing.Pool by an in-process map that records its process count."""
    sizes = []

    class Pool:
        def __init__(self, processes, initializer=None):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def imap(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(multiprocessing, "Pool", Pool)
    return sizes


@pytest.mark.parametrize(
    "workers, hi, max_chunks, want",
    [
        (8, 20, None, [2]),
        (2, 100, None, [2]),
        (8, 100, 3, [3]),
        (8, 100, 1, []),
        (8, 10, None, []),
        (1, 100, None, []),
    ],
)
def test_pool_has_one_process_per_chunk_up_to_workers(pool_sizes, workers, hi, max_chunks, want):
    verifier = RangeVerifier(1, hi, chunk_size=10, workers=workers)
    verifier.run(max_chunks=max_chunks)
    assert pool_sizes == want


def test_each_pass_sizes_its_own_pool(pool_sizes):
    verifier = RangeVerifier(1, 100, chunk_size=10, workers=8)
    assert verifier.run(max_chunks=8) is None
    assert verifier.run() is not None
    assert pool_sizes == [8, 2]


def test_importing_the_package_leaves_multiprocessing_unimported():
    """Only a pass that starts a pool imports `multiprocessing`; one worker is the default."""
    src = str(Path(collatz_lab.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = "import sys, collatz_lab, collatz_lab.cli; print('multiprocessing' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=60)
    assert out.stdout == "False\n"


def test_importing_the_package_builds_no_sweep_table():
    """The kernel's tables are built on its first call, not by `import collatz_lab`."""
    src = str(Path(collatz_lab.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = ("import collatz_lab.cli; from collatz_lab import sweep; "
            "print([f.cache_info().currsize for f in "
            "(sweep._residue_table, sweep._tail_table, sweep._survivor_table)])")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=60)
    assert out.stdout == "[0, 0, 0]\n"


# ---------------------------------------------------------------------------
# checkpoint cadence: a write per CHECKPOINT_INTERVAL and one at the end of a pass


def _cadence_verifier(path=None, resume=False):
    """[1, 630] in 63 chunks of 10 at budget 5, which leaves 78 starts inconclusive."""
    return RangeVerifier(1, 630, chunk_size=10, budget=5, checkpoint_path=path, resume=resume)


def _doc(text):
    """A checkpoint document without its timestamp."""
    doc = json.loads(text)
    del doc["timestamp"]
    return doc


@pytest.fixture
def writes(monkeypatch):
    """Wrap `write_checkpoint`: the documents it wrote, in order, without timestamps."""
    written = []
    write = sweep.write_checkpoint

    def recording(path, checkpoint):
        write(path, checkpoint)
        written.append(_doc(Path(path).read_text()))

    monkeypatch.setattr(sweep, "write_checkpoint", recording)
    return written


@pytest.fixture
def still_clock(monkeypatch):
    monkeypatch.setattr(sweep, "_clock", lambda: 0.0)


_KERNEL = sweep._sweep_chunk


class StopAt:
    """The sweep kernel, raising `exc` instead of walking `residues` of the chunk [lo, hi].

    By default that is the chunk's first pass; the skipped residues stop
    its second pass in `_consume` instead.  A module-level class that holds
    no function, so that a pool can pickle it.
    """

    def __init__(self, lo, hi, exc, residues=sweep._KEPT_MOD_9):
        self.task, self.exc, self.residues = (lo, hi), exc, residues

    def __call__(self, task, residues=sweep._KEPT_MOD_9, memo=None):
        if (task[:2], residues) == (self.task, self.residues):
            raise self.exc(f"stopped at chunk [{task[0]}, {task[1]}]")
        return _KERNEL(task, residues=residues, memo=memo)


def _uninterrupted():
    verifier = _cadence_verifier()
    report = verifier.run()
    return report.violations, report.inconclusive, verifier.stats


def _resumes_to_the_uninterrupted_report(path):
    resumed = _cadence_verifier(path, resume=True)
    report = resumed.run()
    assert (report.violations, report.inconclusive, resumed.stats) == _uninterrupted()


def test_a_pass_on_a_still_clock_writes_once_after_its_last_chunk(still_clock, writes, tmp_path):
    path = tmp_path / "cp.json"
    lo = 10**12
    verifier = RangeVerifier(lo, lo + 10**5, chunk_size=64, checkpoint_path=path)
    assert verifier.run(max_chunks=63) is None
    want = _doc(verifier.checkpoint().to_json())
    assert [doc["verified_up_to"] for doc in writes] == [lo + 63 * 64 - 1]
    assert writes == [want] and _doc(path.read_text()) == want


def _pace(monkeypatch, k, kernel=_KERNEL):
    """Run `kernel` as the sweep kernel, on a clock that passes the interval every k chunks."""
    chunks = []

    def counting(task, residues=sweep._KEPT_MOD_9, memo=None):
        if residues == sweep._KEPT_MOD_9:  # a first pass, not the second one of `_consume`
            chunks.append(task)
        return kernel(task, residues=residues, memo=memo)

    monkeypatch.setattr(sweep, "_sweep_chunk", counting)
    monkeypatch.setattr(sweep, "_clock", lambda: len(chunks) // k * sweep.CHECKPOINT_INTERVAL)


@pytest.mark.parametrize("k", [1, 2, 10, 62, 63, 64])
def test_a_write_every_k_chunks_when_the_clock_passes_the_interval(monkeypatch, writes, tmp_path,
                                                                   k):
    _pace(monkeypatch, k)
    assert _cadence_verifier(tmp_path / "cp.json").run() is not None
    at = sorted({*range(k, 64, k), 63})
    assert [doc["verified_up_to"] for doc in writes] == [10 * j for j in at]
    monkeypatch.undo()
    reference = _cadence_verifier()
    for doc, j, previous in zip(writes, at, [0] + at):
        reference.run(max_chunks=j - previous)
        assert doc == _doc(reference.checkpoint().to_json())


def test_a_pass_without_chunks_writes_nothing(writes, tmp_path):
    path = tmp_path / "cp.json"
    verifier = _cadence_verifier(path)
    assert verifier.run(max_chunks=0) is None
    assert writes == [] and not path.exists()
    assert verifier.run() is not None
    assert len(writes) == 1
    assert verifier.run() is not None
    assert _cadence_verifier(path, resume=True).run() is not None
    assert len(writes) == 1


def _stop_at_chunk_5(monkeypatch, exc, path, workers):
    """Run the cadence sweep with a kernel that raises on chunk 5, [41, 50]."""
    monkeypatch.setattr(sweep, "_sweep_chunk", StopAt(41, 50, exc))
    verifier = _cadence_verifier(path)
    verifier.workers = workers
    with pytest.raises(exc, match=r"chunk \[41, 50\]"):
        verifier.run()


@pytest.mark.parametrize("exc", [RuntimeError, KeyboardInterrupt])
@pytest.mark.parametrize("workers", [1, 2])
def test_an_interrupted_pass_keeps_the_chunks_before(pool_sizes, monkeypatch, tmp_path, exc,
                                                     workers):
    path = tmp_path / "cp.json"
    _stop_at_chunk_5(monkeypatch, exc, path, workers)
    assert pool_sizes == ([2] if workers == 2 else [])
    assert load_checkpoint(path).verified_up_to == 40
    monkeypatch.undo()
    _resumes_to_the_uninterrupted_report(path)


def test_a_pass_stopped_in_a_worker_process_keeps_the_chunks_before(monkeypatch, tmp_path):
    path = tmp_path / "cp.json"
    _stop_at_chunk_5(monkeypatch, RuntimeError, path, workers=2)
    assert load_checkpoint(path).verified_up_to == 40


def test_a_chunk_stopped_in_its_second_pass_is_not_consumed(monkeypatch, tmp_path):
    # Chunk 3 is written, chunk 4 is not yet, and chunk 5, [41, 50], is stopped
    # in the pass over the residues it skipped: 47 = T(31) is behind the witness 31.
    path = tmp_path / "cp.json"
    _pace(monkeypatch, 3, StopAt(41, 50, KeyboardInterrupt, sweep._SKIPPED_MOD_9))
    with pytest.raises(KeyboardInterrupt):
        _cadence_verifier(path).run()
    assert load_checkpoint(path).verified_up_to == 40
    monkeypatch.undo()
    _resumes_to_the_uninterrupted_report(path)


def test_a_merge_cut_short_is_not_written(monkeypatch, tmp_path):
    # Chunk 3 is written, chunk 4 is not yet, and chunk 5, [41, 50], is stopped
    # while it is merged into the record, which then holds half of it.
    path = tmp_path / "cp.json"
    _pace(monkeypatch, 3)
    verifier = _cadence_verifier(path)
    merge = SweepStats.merge

    def cut_short(stats, other):
        if stats is verifier.stats and verifier._record.verified_up_to == 50:
            raise KeyboardInterrupt
        merge(stats, other)

    monkeypatch.setattr(SweepStats, "merge", cut_short)
    with pytest.raises(KeyboardInterrupt):
        verifier.run()
    assert load_checkpoint(path).verified_up_to == 30
    monkeypatch.undo()
    _resumes_to_the_uninterrupted_report(path)


def test_a_failed_final_write_does_not_mask_the_error(still_clock, monkeypatch, tmp_path):
    def failing(path, checkpoint):
        raise OSError(f"cannot write {path}")

    monkeypatch.setattr(sweep, "write_checkpoint", failing)
    monkeypatch.setattr(sweep, "_sweep_chunk", StopAt(41, 50, RuntimeError))
    with pytest.raises(RuntimeError, match="chunk") as info:
        _cadence_verifier(tmp_path / "cp.json").run()
    assert isinstance(info.value.__cause__, OSError)


class TestCtrlC:
    ARGV = ["verify-range", "1", "630", "--chunk-size", "10", "--budget", "5", "--json"]

    def test_names_the_checkpoint_and_exits_130(self, monkeypatch, capsys, tmp_path):
        path = tmp_path / "cp.json"
        argv = self.ARGV + ["--checkpoint", str(path)]
        monkeypatch.setattr(sweep, "_sweep_chunk", StopAt(41, 50, KeyboardInterrupt))
        assert cli.main(argv) == cli.EXIT_INTERRUPTED == 130
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (f"interrupted: checkpoint {path} holds verified_up_to 40; "
                       "rerun with --resume to continue\n")
        monkeypatch.undo()
        assert cli.main(argv + ["--resume"]) == 0
        resumed = json.loads(capsys.readouterr().out)
        assert cli.main(self.ARGV) == 0
        uninterrupted = json.loads(capsys.readouterr().out)
        del resumed["elapsed"], uninterrupted["elapsed"]
        assert resumed == uninterrupted

    def test_without_a_checkpoint(self, monkeypatch, capsys):
        monkeypatch.setattr(sweep, "_sweep_chunk", StopAt(41, 50, KeyboardInterrupt))
        assert cli.main(self.ARGV) == 130
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "interrupted: no --checkpoint was given, so no progress was saved\n"

    def test_before_the_first_write(self, monkeypatch, capsys, tmp_path):
        path = tmp_path / "cp.json"
        monkeypatch.setattr(sweep, "_sweep_chunk", StopAt(1, 10, KeyboardInterrupt))
        assert cli.main(self.ARGV + ["--checkpoint", str(path)]) == 130
        out, err = capsys.readouterr()
        assert out == "" and not path.exists()
        assert err == f"interrupted before checkpoint {path} was written\n"

    def test_a_resume_stopped_before_its_first_write_names_what_it_resumed(
        self, monkeypatch, capsys, tmp_path
    ):
        path = tmp_path / "cp.json"
        argv = self.ARGV + ["--checkpoint", str(path)]
        monkeypatch.setattr(sweep, "_sweep_chunk", StopAt(41, 50, KeyboardInterrupt))
        assert cli.main(argv) == 130
        capsys.readouterr()
        assert cli.main(argv + ["--resume"]) == 130
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (f"interrupted: checkpoint {path} holds verified_up_to 40; "
                       "rerun with --resume to continue\n")

    def test_a_failed_final_write_names_the_last_write(self, monkeypatch, capsys, tmp_path):
        # Chunk 3 is written; the write of chunk 4, as chunk 5 is stopped, fails.
        path = tmp_path / "cp.json"
        write = sweep.write_checkpoint

        def first_only(at, checkpoint):
            if at.exists():
                raise OSError(f"cannot write {at}")
            write(at, checkpoint)

        monkeypatch.setattr(sweep, "write_checkpoint", first_only)
        _pace(monkeypatch, 3, StopAt(41, 50, KeyboardInterrupt))
        assert cli.main(self.ARGV + ["--checkpoint", str(path)]) == 130
        out, err = capsys.readouterr()
        assert out == "" and load_checkpoint(path).verified_up_to == 30
        assert err == (f"interrupted: checkpoint {path} holds verified_up_to 30; "
                       "rerun with --resume to continue\n")

    def test_a_file_of_an_earlier_run_is_not_this_runs_progress(
        self, monkeypatch, capsys, tmp_path
    ):
        # The file matches this run's range and budget, but this run wrote none of it.
        path = tmp_path / "cp.json"
        argv = self.ARGV + ["--checkpoint", str(path)]
        assert cli.main(argv) == 0
        capsys.readouterr()
        earlier = path.read_text()
        monkeypatch.setattr(sweep, "_sweep_chunk", StopAt(1, 10, KeyboardInterrupt))
        assert cli.main(argv) == 130
        out, err = capsys.readouterr()
        assert out == "" and path.read_text() == earlier
        assert err == f"interrupted before checkpoint {path} was written\n"


# ---------------------------------------------------------------------------
# violations: exit 1, kept across a resume, and a second pass over what they cover


class Plant:
    """The sweep kernel `kernel`, whose first pass over the chunk of x also reports x as a violation.

    The 3x + 1 map has no known cycle but 1 -> 2 -> 1, which a sweep never
    walks, so tests plant the witness that a counterexample would give.  A
    module-level class, as `StopAt` is.
    """

    DETAIL = "a planted violation"

    def __init__(self, x, kernel=_KERNEL):
        self.x, self.kernel = x, kernel

    def __call__(self, task, residues=sweep._KEPT_MOD_9, memo=None):
        hi, stats, violations, inconclusive = self.kernel(task, residues=residues, memo=memo)
        if residues == sweep._KEPT_MOD_9 and task[0] <= self.x <= hi:
            violations = sorted(violations + [(self.x, self.DETAIL)])
        return hi, stats, violations, inconclusive


class TestAViolation:
    ARGV = ["verify-range", "1", "100", "--chunk-size", "10", "--json"]
    WITNESS = {"x": 27, "detail": Plant.DETAIL}

    def test_exits_1_and_lists_the_witness(self, monkeypatch, capsys):
        monkeypatch.setattr(sweep, "_sweep_chunk", Plant(27))
        assert cli.main(self.ARGV) == cli.EXIT_VIOLATION == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["violations"] == [self.WITNESS] and doc["inconclusive"] == []

    def test_a_checkpoint_stores_the_witness_and_a_resume_keeps_it(
        self, monkeypatch, capsys, tmp_path
    ):
        path = tmp_path / "cp.json"
        argv = self.ARGV + ["--checkpoint", str(path)]
        monkeypatch.setattr(sweep, "_sweep_chunk", Plant(27, StopAt(41, 50, KeyboardInterrupt)))
        assert cli.main(argv) == 130
        capsys.readouterr()
        stored = load_checkpoint(path)
        assert (stored.verified_up_to, stored.violations) == (40, [(27, Plant.DETAIL)])
        # The resume walks [41, 100] with the real kernel, which finds no violation.
        monkeypatch.undo()
        assert cli.main(argv + ["--resume"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["violations"] == [self.WITNESS] and doc["inconclusive"] == []
        assert load_checkpoint(path).violations == [(27, Plant.DETAIL)]


@pytest.mark.parametrize("chunk_size, second", [(10, [(31, 40), (41, 50)]), (100, [(4, 100)])])
def test_a_violation_drives_the_second_pass_over_the_starts_it_covers(
    monkeypatch, chunk_size, second
):
    # 27 is the ancestor of 41 = T(27) and of 31 = T^3(27), both past the cut at 4.  In
    # chunks of 10 the record's witness covers a start of [31, 40] and of [41, 50]; in
    # one chunk of 100 the chunk's own witness covers both.  No start of [1, 100] is
    # inconclusive, so the planted violation drives each second pass.
    assert sweep._covered_by(27) == (41, 31) and sweep._ancestor_cut(1) == 4
    planted, passes = Plant(27), []

    def recording(task, residues=sweep._KEPT_MOD_9, memo=None):
        passes.append((task[:2], residues))
        return planted(task, residues=residues, memo=memo)

    monkeypatch.setattr(sweep, "_sweep_chunk", recording)
    verifier = RangeVerifier(1, 100, chunk_size=chunk_size)
    report = verifier.run()
    assert [chunk for chunk, residues in passes if residues == sweep._SKIPPED_MOD_9] == second
    assert (report.violations, report.inconclusive) == ([(27, Plant.DETAIL)], [])
    assert verifier.stats == reference_chunk((1, 100, 1, sweep.DEFAULT_BUDGET))[1]
