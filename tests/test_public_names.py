"""Names that callers outside the package rely on stay importable.

`perfbench/run.py` drives the library through these names, some of which
(such as `trajectory.converges`, the per-start reference) nothing in
`src/` calls.  The record fields and properties it reads are pinned too, so
that a rename fails here rather than in the benchmark.
"""

import importlib

import pytest

NAMES = {
    "cli": [
        "main",
        "RangeVerifier",
        "RangeVerifier.run",
        "RangeVerifier.checkpoint",
        "RangeVerifier.stats",
        "load_checkpoint",
        "write_checkpoint",
        "DEFAULT_BUDGET",
    ],
    "sweep": ["SweepStats.to_json_dict"],
    "trajectory": [
        "converges",
        "OrbitOutcome.DROPPED_BELOW_FLOOR",
        "orbit",
        "correspondence",
        "Trajectory.steps",
        "Trajectory.peak",
        "Trajectory.final",
        "OrbitStatus.outcome",
        "OrbitStatus.steps_used",
        "OrbitStatus.final",
    ],
    "report": ["RangeReport.ok", "RangeReport.to_json_dict"],
    "verify": [
        "Checkpoint.verified_up_to",
        "Checkpoint.stats",
        "Checkpoint.violations",
        "Checkpoint.inconclusive",
    ],
    "facts": [
        "DEFAULT_BUDGET",
        "verify_predecessor_structure",
        "verify_transitions",
        "verify_reduction",
    ],
    "cycles": [
        "cycle_values",
        "search_cycles",
        "verify_no_small_cycles",
        "CycleCandidate.consistent",
    ],
    "tree": [
        "TreeFlavor",
        "build_tree",
        "export_json",
        "export_dot",
        "tree_from_json",
        "Tree.nodes",
        "Tree.edges",
    ],
    "core_map": ["step", "reduced_step", "residue_class", "predecessors"],
}


@pytest.mark.parametrize(
    "module, name", [(m, n) for m, names in NAMES.items() for n in names]
)
def test_name_is_importable(module, name):
    obj = importlib.import_module(f"collatz_lab.{module}")
    for part in name.split("."):
        obj = getattr(obj, part)
