"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  The large sweeps here are the desk-scale stand-ins for
the full-scale experiments; every tolerance and bound is pinned in the
assertions.
"""

import random
import time
from fractions import Fraction

from collatz_lab.core_map import ReducedRule, Rule, step
from collatz_lab.cycles import (
    AffineForm,
    affine_form,
    cycle_values,
    fixed_point,
    search_cycles,
    verify_c0_structure,
    verify_no_small_cycles,
)
from collatz_lab.facts import (
    verify_predecessor_structure,
    verify_reduction,
    verify_transitions,
)
from collatz_lab.trajectory import orbit
from collatz_lab.tree import Edge, TreeFlavor, build_tree, export_dot, export_json, tree_from_json
from collatz_lab.verify import RangeVerifier

R1, R2 = Rule.R1, Rule.R2


def _report(n: int, detail: str) -> None:
    print(f"ACCEPTANCE {n} PASS: {detail}")


def test_criterion_1_trajectory_of_27():
    """Peak 4616, 70 steps, opening 27, 41, 62, 31, 47 — exact, under 1 ms."""
    best = float("inf")
    for _ in range(5):
        t0 = time.perf_counter()
        traj = orbit(27, 10**4, 1)
        best = min(best, time.perf_counter() - t0)
    assert traj.peak == 4616
    assert traj.steps == 70
    assert traj.values[:5] == (27, 41, 62, 31, 47)
    assert best < 1e-3
    _report(1, f"orbit(27): peak 4616, steps 70, first five exact ({best * 1e6:.0f} us)")


def test_criterion_2_range_sweep_to_ten_million():
    """Every n in [1, 10^7] converges; < 60 s single-threaded; exact records; workers agree."""
    solo = RangeVerifier(1, 10**7)
    t0 = time.perf_counter()
    solo_report = solo.run()
    elapsed = time.perf_counter() - t0
    assert solo_report is not None
    assert solo_report.violations == []
    assert solo_report.inconclusive == []
    assert solo_report.checked == 10**7
    assert elapsed < 60.0
    # 8088063 spends 246 steps before it drops below itself; 6631675 climbs to 30171305459816.
    assert (solo.stats.max_steps, solo.stats.max_steps_at) == (246, 8088063)
    assert (solo.stats.max_peak, solo.stats.max_peak_at) == (30171305459816, 6631675)

    multi = RangeVerifier(1, 10**7, workers=4)
    multi_report = multi.run()
    assert multi_report.violations == solo_report.violations
    assert multi_report.inconclusive == solo_report.inconclusive
    assert multi_report.checked == solo_report.checked
    assert multi.stats == solo.stats
    _report(
        2,
        f"[1, 1e7] all converge in {elapsed:.1f} s single-threaded; "
        f"4-worker report identical (max steps {solo.stats.max_steps} at "
        f"{solo.stats.max_steps_at}, max peak {solo.stats.max_peak} at "
        f"{solo.stats.max_peak_at})",
    )


def test_criterion_3_predecessor_and_transition_verifiers():
    """Zero violations for the predecessor and transition structure on [1, 10^6], < 30 s."""
    t0 = time.perf_counter()
    preds = verify_predecessor_structure(1, 10**6)
    trans = verify_transitions(1, 10**6)
    elapsed = time.perf_counter() - t0
    assert preds.ok and preds.checked == 10**6
    assert trans.ok and trans.checked == 10**6
    assert elapsed < 30.0
    _report(3, f"predecessor + transition sweeps clean on [1, 1e6] in {elapsed:.1f} s")


def test_criterion_4_reduction_suite():
    """Closure and orbit correspondence on C2 up to 1e5; elimination hooks to 1e6."""
    full = verify_reduction(2, 10**5)
    assert full.ok
    assert full.inconclusive == []
    hooks = verify_reduction(1, 10**6, include_correspondence=False)
    assert hooks.ok
    assert hooks.inconclusive == []
    _report(
        4,
        "reduced-map closure + orbit correspondence clean on C2 ∩ [2, 1e5]; "
        "elimination hooks clean on [1, 1e6]",
    )


def test_criterion_5_cycle_algebra_and_exhaustive_search():
    """Two-step forms exact, fixed points 2 and 1, no length-3 word, known length-4
    words only, and nothing but the {1, 2} family up to length 20, all exact."""
    assert affine_form([R1, R2]) == AffineForm(pow3=1, addend=2, pow2=2)  # (3x+2)/4
    assert affine_form([R2, R1]) == AffineForm(pow3=1, addend=1, pow2=2)  # (3x+1)/4

    even_entry = fixed_point([R1, R2])
    odd_entry = fixed_point([R2, R1])
    assert even_entry is not None and even_entry.x == 2 and even_entry.consistent
    assert odd_entry is not None and odd_entry.x == 1 and odd_entry.consistent

    assert [c for c in search_cycles(3) if c.seq.length == 3] == []

    quads = [c for c in search_cycles(4) if c.seq.length == 4]
    assert [(c.seq.rules, c.x) for c in quads] == [
        ((R1, R2, R1, R2), 2),
        ((R2, R1, R2, R1), 1),
    ]

    t0 = time.perf_counter()
    found = search_cycles(20)
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    assert found, "the known cycle family must be found"
    for cand in found:
        assert cand.consistent
        assert set(cycle_values(cand)) <= {1, 2}
    _report(
        5,
        f"cycle algebra exact; exhaustive search to length 20 found only the "
        f"{{1, 2}} family ({len(found)} candidates) in {elapsed:.1f} s",
    )


def test_criterion_6_affine_simulation_oracle():
    """10^4 random (x, k) pairs: the composed affine form reproduces the simulation exactly."""
    rng = random.Random(20260809)
    mismatches = 0
    for _ in range(10**4):
        x = rng.randint(1, 10**4)
        k = rng.randint(1, 40)
        v = x
        rules = []
        for _ in range(k):
            v, rule = step(v)
            rules.append(rule)
        if affine_form(rules).apply(x) != Fraction(v):
            mismatches += 1
    assert mismatches == 0
    _report(6, "closed-form affine action matched 10^4 random simulations exactly")


def test_criterion_7_tree_reproduction():
    """Named chains and rule assignments appear; exports are lossless and deterministic."""
    full = build_tree(TreeFlavor.FULL, 1, max_value=24)
    assert {3, 6, 12, 24} <= set(full.nodes)

    reduced = build_tree(TreeFlavor.REDUCED, 2, max_value=128)
    rule_at = {e.child: e.rule for e in reduced.edges}
    for n in (8, 20, 32, 128):
        assert rule_at[n] is ReducedRule.Q1
    assert rule_at[26] is ReducedRule.Q2
    for n in (5, 11, 17):
        assert rule_at[n] is ReducedRule.Q3
    # the root's own rule shows up as the suppressed self-loop
    assert Edge(2, 2, ReducedRule.Q2) in reduced.suppressed_edges

    for tree in (full, reduced):
        assert tree_from_json(export_json(tree)) == tree
        assert export_json(tree) == export_json(tree)
        assert export_dot(tree) == export_dot(tree)
    rebuilt = build_tree(TreeFlavor.REDUCED, 2, max_value=128)
    assert export_json(rebuilt) == export_json(reduced)
    assert export_dot(rebuilt) == export_dot(reduced)
    _report(
        7,
        "full tree holds the 3-6-12-24 chain; reduced tree carries the named "
        "Q1/Q2/Q3 assignments; DOT/JSON exports byte-deterministic and lossless",
    )


def test_criterion_8_small_cycle_and_c0_checks():
    """No fixed points, only the {1, 2} 2-cycle, and clean C0 chain structure on [1, 10^6]."""
    small = verify_no_small_cycles(10**6)
    assert small.ok and small.checked == 10**6
    chains = verify_c0_structure(10**6)
    assert chains.ok and chains.checked == 10**6
    _report(
        8,
        f"no small cycles ({small.elapsed:.1f} s) and C0 decomposition + "
        f"no-reentry ({chains.elapsed:.1f} s) clean on [1, 1e6]",
    )
