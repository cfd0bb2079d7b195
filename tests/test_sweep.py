"""The sweep kernel against a per-start reference, and checkpoint safety of RangeVerifier."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from collatz_lab import sweep
from collatz_lab.sweep import CheckpointError, RangeVerifier, SweepStats, load_checkpoint
from collatz_lab.trajectory import OrbitOutcome, converges


def reference_chunk(task):
    """One `converges` call per start (plus a tail chase below range_lo), observed one by one."""
    lo, hi, range_lo, budget = task
    stats = SweepStats()
    inconclusive = []
    for n in range(lo, hi + 1):
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
        stats.observe(n, steps, peak)
    return hi, stats, [], inconclusive


range_los = st.one_of(
    st.just(1), st.integers(2, 500), st.integers(10**12, 10**12 + 10**6)
)
budgets = st.one_of(st.integers(0, 3), st.sampled_from([5, 10, 50, 10**6]))


@st.composite
def chunks(draw):
    # Chunks start near range_lo (all direct) or near 2*range_lo, where the sieve begins.
    range_lo = draw(range_los)
    near = draw(st.sampled_from([range_lo, 2 * range_lo]))
    lo = max(range_lo, near + draw(st.integers(-60, 60)))
    hi = lo + draw(st.integers(0, 150))
    return lo, hi, range_lo, draw(budgets)


@settings(max_examples=300, deadline=None)
@given(chunks())
def test_chunk_equals_reference(task):
    assert sweep._sweep_chunk(task) == reference_chunk(task)


@pytest.mark.parametrize(
    "task",
    [
        (1, 1, 1, 0),  # n = 1 is at 1 with no budget at all
        (2, 2, 1, 0),
        (1, 64, 1, 1),  # budget 1: nothing sieved
        (4, 5, 1, 10),  # one sieved even and one sieved 4k+1, nothing iterated
        (100, 140, 60, 10**6),  # straddles 2*range_lo
        (27, 27, 27, 10**6),
    ],
)
def test_chunk_equals_reference_at_the_edges(task):
    assert sweep._sweep_chunk(task) == reference_chunk(task)


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


def _interrupted(path, budget):
    """[1, 100] in chunks of 10, stopped after 5 chunks."""
    partial = RangeVerifier(1, 100, chunk_size=10, budget=budget, checkpoint_path=path)
    assert partial.run(max_chunks=5) is None


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
