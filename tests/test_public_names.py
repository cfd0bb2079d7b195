"""Names that callers outside the package rely on stay importable.

`perfbench/run.py` drives the library through these names, some of which
(such as `trajectory.converges`, the per-start reference) nothing in
`src/` calls.
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
    "trajectory": ["converges", "OrbitOutcome.DROPPED_BELOW_FLOOR", "orbit", "correspondence"],
    "facts": [
        "DEFAULT_BUDGET",
        "verify_predecessor_structure",
        "verify_transitions",
        "verify_reduction",
    ],
    "cycles": ["cycle_values", "search_cycles", "verify_no_small_cycles"],
    "tree": ["TreeFlavor", "build_tree", "export_json", "export_dot", "tree_from_json"],
    "core_map": ["step", "reduced_step", "residue_class", "predecessors"],
}


@pytest.mark.parametrize(
    "module, name", [(m, n) for m, names in NAMES.items() for n in names]
)
def test_name_is_importable(module, name):
    obj = importlib.import_module(f"collatz_lab.{module}")
    for part in name.split("."):
        obj = getattr(obj, part)
