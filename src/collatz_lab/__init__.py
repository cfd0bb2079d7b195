"""Shortcut Collatz map toolkit.

Orbits and convergence sweeps, predecessor trees (full and reduced to
class C2), residue-class fact verifiers, and exhaustive small-cycle
search, all in exact integer arithmetic.
"""

from .core_map import (
    ReducedRule,
    ResidueClass,
    Rule,
    pred_even,
    pred_odd,
    predecessors,
    reduced_predecessors,
    reduced_step,
    residue_class,
    step,
)
from .cycles import (
    AffineForm,
    C0Chain,
    CycleCandidate,
    RuleSequence,
    affine_form,
    c0_chain,
    cycle_values,
    drives,
    fixed_point,
    search_cycles,
    verify_c0_structure,
    verify_no_small_cycles,
)
from .facts import verify_predecessor_structure, verify_reduction, verify_transitions
from .report import RangeReport
from .trajectory import (
    BudgetExhaustedError,
    OrbitOutcome,
    OrbitStatus,
    Trajectory,
    converges,
    correspondence,
    orbit,
    reduced_orbit,
)
from .tree import Edge, Tree, TreeFlavor, build_tree, export_dot, export_json, tree_from_json

__version__ = "0.1.0"

__all__ = [
    "AffineForm",
    "BudgetExhaustedError",
    "C0Chain",
    "CycleCandidate",
    "Edge",
    "OrbitOutcome",
    "OrbitStatus",
    "RangeReport",
    "ReducedRule",
    "ResidueClass",
    "Rule",
    "RuleSequence",
    "Trajectory",
    "Tree",
    "TreeFlavor",
    "affine_form",
    "build_tree",
    "c0_chain",
    "converges",
    "correspondence",
    "cycle_values",
    "drives",
    "export_dot",
    "export_json",
    "fixed_point",
    "orbit",
    "pred_even",
    "pred_odd",
    "predecessors",
    "reduced_orbit",
    "reduced_predecessors",
    "reduced_step",
    "residue_class",
    "search_cycles",
    "step",
    "tree_from_json",
    "verify_c0_structure",
    "verify_no_small_cycles",
    "verify_predecessor_structure",
    "verify_reduction",
    "verify_transitions",
]
