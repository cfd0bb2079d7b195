"""Command-line surface: trajectories, checkpointed range sweeps, fact suites, trees, cycles.

This module parses arguments and renders output; the work happens in the
library modules.  Exit codes: 0 success, 1 mathematical violation (or,
with --strict, inconclusive results), 2 usage or IO errors, including
unreadable or mismatched checkpoints and unwritable output paths, 130 a
`verify-range` stopped by Ctrl-C.  All
machine-readable output is JSON with a schema_version field; human output
is stable line-oriented text.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from . import cycles as cycles_mod
from . import facts as facts_mod
from .report import RangeReport, document, witnesses_to_json
from .trajectory import DEFAULT_BUDGET, orbit, reduced_orbit, require_budget
from .tree import TreeFlavor, build_tree, export_dot, export_json
from .verify import (
    DEFAULT_CHUNK_SIZE,
    TASK_VERIFY_RANGE,
    CheckpointError,
    RangeVerifier,
)

# Not used here; perfbench/run.py reads load_checkpoint and write_checkpoint from this module.
from .verify import load_checkpoint, write_checkpoint  # noqa: F401

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_INTERRUPTED = 130  # 128 + SIGINT, as a shell reports it


# ---------------------------------------------------------------------------
# subcommand handlers


def _report_exit(violations: int, inconclusive: int, strict: bool) -> int:
    return EXIT_VIOLATION if violations or (strict and inconclusive) else EXIT_OK


def _write_output(args: argparse.Namespace, text: str, code: int, refusal: str) -> None:
    """Write the document `text` to the -o path; after an unclean run only with --force."""
    if args.output is None:
        return
    if code == EXIT_OK or args.force:
        Path(args.output).write_text(text)
    else:
        print(f"not writing {args.output}: {refusal}", file=sys.stderr)


def _print_report(report: RangeReport) -> None:
    print(
        f"{report.fact_id} [{report.lo}, {report.hi}]: checked {report.checked}, "
        f"{len(report.violations)} violations, {len(report.inconclusive)} inconclusive "
        f"({report.elapsed:.2f} s)"
    )
    for x, detail in report.violations:
        print(f"  violation at {x}: {detail}")
    for x, detail in report.inconclusive:
        print(f"  inconclusive at {x}: {detail}")


def _cmd_trajectory(args: argparse.Namespace) -> int:
    if args.reduced:
        traj = reduced_orbit(args.n, args.budget)
    else:
        traj = orbit(args.n, args.budget, 1)
    if args.json:
        print(document(
            "trajectory",
            start=traj.start,
            reduced=bool(args.reduced),
            values=list(traj.values),
            rules=[r.name for r in traj.rules],
            steps=traj.steps,
            peak=traj.peak,
            final=traj.final,
            truncated=traj.truncated,
        ), end="")
    else:
        print(", ".join(str(v) for v in traj.values))
        print("rules: " + ", ".join(r.name for r in traj.rules))
        print(f"steps: {traj.steps}")
        print(f"peak: {traj.peak}")
    return EXIT_OK


def _cmd_verify_range(args: argparse.Namespace) -> int:
    verifier = RangeVerifier(
        args.lo,
        args.hi,
        budget=args.budget,
        workers=args.workers,
        chunk_size=args.chunk_size,
        checkpoint_path=args.checkpoint,
        resume=args.resume,
    )
    try:
        report = verifier.run()
    except KeyboardInterrupt:
        print(_interruption(args.checkpoint, verifier.saved_up_to), file=sys.stderr)
        return EXIT_INTERRUPTED
    assert report is not None
    stats = verifier.stats
    if args.json:
        print(document(
            TASK_VERIFY_RANGE,
            range=[report.lo, report.hi],
            checked=report.checked,
            violations=witnesses_to_json(report.violations),
            inconclusive=witnesses_to_json(report.inconclusive),
            stats=stats.to_json_dict(),
            workers=args.workers,
            chunk_size=args.chunk_size,
            budget=args.budget,
            elapsed=report.elapsed,
        ), end="")
    else:
        _print_report(report)
        print(f"max steps: {stats.max_steps} at n={stats.max_steps_at}")
        print(f"max peak: {stats.max_peak} at n={stats.max_peak_at}")
    return _report_exit(len(report.violations), len(report.inconclusive), args.strict)


def _interruption(checkpoint: Path | None, saved_up_to: int | None) -> str:
    """One line on where an interrupted sweep can resume from."""
    if checkpoint is None:
        return "interrupted: no --checkpoint was given, so no progress was saved"
    if saved_up_to is None:
        return f"interrupted before checkpoint {checkpoint} was written"
    return (
        f"interrupted: checkpoint {checkpoint} holds verified_up_to "
        f"{saved_up_to}; rerun with --resume to continue"
    )


#: The fact suites by name, each called with (lo, hi, budget).
_FACT_SUITES = {
    "predecessors": lambda lo, hi, budget: facts_mod.verify_predecessor_structure(lo, hi),
    "transitions": lambda lo, hi, budget: facts_mod.verify_transitions(lo, hi),
    "reduction": lambda lo, hi, budget: facts_mod.verify_reduction(lo, hi, budget=budget),
    "small-cycles": lambda lo, hi, budget: cycles_mod.verify_no_small_cycles(hi),
    "c0-structure": lambda lo, hi, budget: cycles_mod.verify_c0_structure(hi),
}


def _cmd_facts(args: argparse.Namespace) -> int:
    names = list(_FACT_SUITES) if args.suite == "all" else [args.suite]
    if args.lo != 1 and any(n in ("small-cycles", "c0-structure") for n in names):
        raise ValueError("small-cycles and c0-structure sweep [1, hi]; lo must be 1")
    require_budget(args.budget)  # bad input, even when no suite that runs takes a budget
    reports = [_FACT_SUITES[n](args.lo, args.hi, args.budget) for n in names]
    violations = sum(len(r.violations) for r in reports)
    inconclusive = sum(len(r.inconclusive) for r in reports)
    text = ""  # rendered only where it is shown: the witness lists can run to millions
    if args.json or args.output:
        text = document("facts", reports=[r.to_json_dict() for r in reports])
    if args.json:
        print(text, end="")
    else:
        for r in reports:
            _print_report(r)
    code = _report_exit(violations, inconclusive, args.strict)
    _write_output(args, text, code, "run was not clean")
    return code


def _cmd_tree(args: argparse.Namespace) -> int:
    flavor = TreeFlavor.REDUCED if args.reduced else TreeFlavor.FULL
    root = args.root if args.root is not None else (2 if args.reduced else 1)
    tree = build_tree(flavor, root, args.max_depth, args.max_value)
    text = export_json(tree) if args.json else export_dot(tree)
    if args.output is not None:
        Path(args.output).write_text(text)
        print(f"wrote {len(tree.nodes)} nodes, {len(tree.nodes) - 1} edges to {args.output}")
    else:
        print(text, end="")
    return EXIT_OK


def _cmd_cycles(args: argparse.Namespace) -> int:
    found = cycles_mod.search_cycles(args.max_len)
    family_ok = all(set(cycles_mod.cycle_values(c)) <= {1, 2} for c in found)
    text = document(
        "cycles",
        max_len=args.max_len,
        candidates=[
            {
                "rules": [r.name for r in c.seq.rules],
                "x": c.x,
                "consistent": c.consistent,
                "simple": c.simple,
            }
            for c in found
        ],
        only_known_family=family_ok,
    )
    if args.json:
        print(text, end="")
    else:
        for c in found:
            suffix = "" if c.simple else " (repetition)"
            print(f"length {c.seq.length}: {c.seq} -> x = {c.x}{suffix}")
        verdict = "only the known {1, 2} family" if family_ok else "UNEXPECTED CYCLE"
        print(f"{len(found)} candidates up to length {args.max_len}: {verdict}")
    code = EXIT_OK if family_ok else EXIT_VIOLATION
    _write_output(args, text, code, "unexpected candidates")
    return code


# ---------------------------------------------------------------------------
# parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first `main` call, not at import, and kept for the process."""
    parser = argparse.ArgumentParser(
        prog="collatz-lab",
        description="Shortcut Collatz map toolkit: orbits, trees, verifiers, cycle search.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("trajectory", help="print the orbit of one value")
    p.add_argument("n", type=int)
    p.add_argument("--reduced", action="store_true", help="orbit of the reduced map (n in C2)")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_trajectory)

    p = sub.add_parser("verify-range", help="confirm convergence to 1 for a whole range")
    p.add_argument("lo", type=int)
    p.add_argument("hi", type=int)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--chunk-size", type=int, default=DEFAULT_CHUNK_SIZE)
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.add_argument("--checkpoint", type=Path, default=None)
    p.add_argument("--resume", action="store_true")
    p.add_argument("--strict", action="store_true", help="exit 1 on inconclusive results too")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_verify_range)

    p = sub.add_parser("facts", help="run residue-class fact verifiers over a range")
    p.add_argument("suite", choices=[*_FACT_SUITES, "all"])
    p.add_argument("lo", type=int)
    p.add_argument("hi", type=int)
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.add_argument("--strict", action="store_true")
    p.add_argument("--json", action="store_true")
    p.add_argument("-o", "--output", type=Path, default=None)
    p.add_argument("--force", action="store_true", help="write the output file even on failure")
    p.set_defaults(func=_cmd_facts)

    p = sub.add_parser("tree", help="build a backward tree and export it")
    p.add_argument("--reduced", action="store_true")
    p.add_argument("--root", type=int, default=None, help="default 1 (full) or 2 (reduced)")
    p.add_argument("--max-depth", type=int, default=None)
    p.add_argument("--max-value", type=int, default=None)
    fmt = p.add_mutually_exclusive_group()
    fmt.add_argument("--dot", action="store_true", help="DOT output (default)")
    fmt.add_argument("--json", action="store_true")
    p.add_argument("-o", "--output", type=Path, default=None)
    p.set_defaults(func=_cmd_tree)

    p = sub.add_parser("cycles", help="exhaustive cycle search over rule words")
    p.add_argument("--max-len", type=int, default=20)
    p.add_argument("--json", action="store_true")
    p.add_argument("-o", "--output", type=Path, default=None)
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=_cmd_cycles)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, CheckpointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
