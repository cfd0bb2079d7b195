"""Tests for the command-line interface and the checkpointed range verifier."""

import gc
import json
import os
import re
import subprocess
import sys
import tracemalloc
from functools import reduce
from itertools import permutations
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from collatz_lab import cli, core_map
from collatz_lab.cli import main
from collatz_lab.sweep import SweepStats
from collatz_lab.verify import (
    Checkpoint,
    CheckpointError,
    RangeVerifier,
    load_checkpoint,
    write_checkpoint,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTrajectoryCommand:
    def test_full_orbit(self, capsys):
        code, out, _ = run_cli(capsys, "trajectory", "27")
        assert code == 0
        assert out.startswith("27, 41, 62, 31, 47")
        assert "steps: 70" in out
        assert "peak: 4616" in out

    def test_short_orbit(self, capsys):
        code, out, _ = run_cli(capsys, "trajectory", "2")
        assert code == 0
        assert out.splitlines()[0] == "2, 1"
        assert "steps: 1" in out

    def test_reduced_orbit(self, capsys):
        code, out, _ = run_cli(capsys, "trajectory", "5", "--reduced")
        assert code == 0
        assert out.splitlines()[0] == "5, 8, 2"
        assert "rules: Q3, Q1" in out

    def test_json_output(self, capsys):
        code, out, _ = run_cli(capsys, "trajectory", "27", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["schema_version"] == 1
        assert doc["peak"] == 4616
        assert doc["steps"] == 70
        assert doc["values"][:3] == [27, 41, 62]
        assert doc["rules"][0] == "R2"

    def test_domain_error_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "trajectory", "0")
        assert code == 2
        assert "error" in err

    def test_reduced_outside_c2_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "trajectory", "27", "--reduced")
        assert code == 2
        assert "C2" in err


class TestRangeVerifier:
    def test_single_orbit_stats(self):
        verifier = RangeVerifier(27, 27)
        report = verifier.run()
        assert report is not None
        assert report.ok and not report.inconclusive
        assert verifier.stats.max_steps == 70
        assert verifier.stats.max_steps_at == 27
        assert verifier.stats.max_peak == 4616
        assert verifier.stats.max_peak_at == 27

    def test_worker_count_does_not_change_the_report(self):
        solo = RangeVerifier(1, 50_000, chunk_size=8192)
        multi = RangeVerifier(1, 50_000, chunk_size=8192, workers=3)
        r1, r2 = solo.run(), multi.run()
        assert (r1.violations, r1.inconclusive, r1.checked) == (
            r2.violations,
            r2.inconclusive,
            r2.checked,
        )
        assert solo.stats == multi.stats

    def test_resume_equals_uninterrupted(self, tmp_path):
        path = tmp_path / "sweep.json"
        straight = RangeVerifier(1, 40_000, chunk_size=4096)
        full_report = straight.run()

        partial = RangeVerifier(1, 40_000, chunk_size=4096, checkpoint_path=path)
        assert partial.run(max_chunks=5) is None  # stop halfway, checkpoint on disk
        halfway = load_checkpoint(path)
        assert halfway.verified_up_to == 5 * 4096

        resumed = RangeVerifier(
            1, 40_000, chunk_size=4096, checkpoint_path=path, resume=True
        )
        resumed_report = resumed.run()
        assert resumed_report is not None
        assert resumed.stats == straight.stats
        assert (resumed_report.violations, resumed_report.inconclusive) == (
            full_report.violations,
            full_report.inconclusive,
        )
        assert load_checkpoint(path).verified_up_to == 40_000

    def test_checkpoint_mismatch_rejected(self, tmp_path):
        path = tmp_path / "sweep.json"
        v = RangeVerifier(1, 2000, chunk_size=512, checkpoint_path=path)
        v.run()
        with pytest.raises(CheckpointError):
            RangeVerifier(1, 4000, chunk_size=512, checkpoint_path=path, resume=True)

    def test_corrupt_checkpoint_rejected(self, tmp_path):
        path = tmp_path / "sweep.json"
        path.write_text("{not json")
        with pytest.raises(CheckpointError):
            RangeVerifier(1, 2000, checkpoint_path=path, resume=True)

    def test_resume_without_path_rejected(self):
        with pytest.raises(CheckpointError):
            RangeVerifier(1, 2000, resume=True)

    def test_no_temp_file_left_behind(self, tmp_path):
        path = tmp_path / "sweep.json"
        RangeVerifier(1, 2000, chunk_size=512, checkpoint_path=path).run()
        assert path.exists()
        assert not (tmp_path / "sweep.json.tmp").exists()
        load_checkpoint(path)  # parses cleanly

    def test_one_chunk_pass_is_lazy(self):
        # 2^18 pending chunks; a one-chunk pass must not build them all.
        lo = 10**12
        verifier = RangeVerifier(lo, lo + 64 * 2**18 - 1, chunk_size=64)
        gc.collect()  # free-list objects made before tracing would go uncounted
        tracemalloc.start()
        try:
            assert verifier.run(max_chunks=1) is None
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert verifier.checkpoint().verified_up_to == lo + 63

    def test_validation(self):
        with pytest.raises(ValueError):
            RangeVerifier(0, 10)
        with pytest.raises(ValueError):
            RangeVerifier(10, 1)
        with pytest.raises(ValueError):
            RangeVerifier(1, 10, workers=0)
        with pytest.raises(ValueError):
            RangeVerifier(1, 10, chunk_size=0)
        with pytest.raises(ValueError):
            RangeVerifier(1, 10, budget=-1)


# Records of a few starts with small values, so that values tie, and the empty record.
observed = st.builds(SweepStats, st.integers(0, 3), *[st.integers(1, 4)] * 3)
some_records = st.lists(st.one_of(st.just(SweepStats()), observed), max_size=5)


class TestSweepStats:
    @settings(deadline=None)
    @given(some_records)
    # A tie on steps: the smaller start wins.
    @example([SweepStats(max_steps=7, max_steps_at=3, max_peak=100, max_peak_at=3),
              SweepStats(max_steps=7, max_steps_at=9, max_peak=250, max_peak_at=9)])
    def test_merge_is_order_independent(self, records):
        folds = {reduce(SweepStats.merged, order, SweepStats()) for order in permutations(records)}
        for stats in records:
            assert SweepStats().merged(stats) == stats == stats.merged(SweepStats())
        seen = [stats for stats in records if stats != SweepStats()]
        if seen:
            steps = max(seen, key=lambda stats: (stats.max_steps, -stats.max_steps_at))
            peak = max(seen, key=lambda stats: (stats.max_peak, -stats.max_peak_at))
            best = SweepStats(steps.max_steps, steps.max_steps_at, peak.max_peak, peak.max_peak_at)
        else:
            best = SweepStats()
        assert folds == {best}  # every order of folding gives the one best record


class TestVerifyRangeCommand:
    def test_small_range(self, capsys):
        code, out, _ = run_cli(capsys, "verify-range", "1", "10000", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["checked"] == 10000
        assert doc["violations"] == []
        assert doc["inconclusive"] == []
        assert doc["schema_version"] == 1

    def test_single_value_full_orbit(self, capsys):
        code, out, _ = run_cli(capsys, "verify-range", "27", "27", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["stats"] == {
            "max_steps": 70,
            "max_steps_at": 27,
            "max_peak": 4616,
            "max_peak_at": 27,
        }

    def test_workers_produce_identical_json(self, capsys):
        code1, out1, _ = run_cli(
            capsys, "verify-range", "1", "30000", "--chunk-size", "4096", "--json"
        )
        code2, out2, _ = run_cli(
            capsys,
            "verify-range", "1", "30000",
            "--chunk-size", "4096", "--workers", "3", "--json",
        )
        assert code1 == code2 == 0
        d1, d2 = json.loads(out1), json.loads(out2)
        for d in (d1, d2):
            d.pop("elapsed")
            d.pop("workers")
        assert d1 == d2

    def test_budget_exhaustion_is_inconclusive(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify-range", "1", "5", "--budget", "1", "--json"
        )
        assert code == 0  # inconclusive is not a violation
        doc = json.loads(out)
        assert doc["violations"] == []
        assert [e["x"] for e in doc["inconclusive"]] == [3, 5]

    def test_strict_flag_fails_on_inconclusive(self, capsys):
        code, _, _ = run_cli(
            capsys, "verify-range", "1", "5", "--budget", "1", "--strict"
        )
        assert code == 1

    def test_cli_resume(self, capsys, tmp_path):
        path = tmp_path / "cp.json"
        partial = RangeVerifier(1, 20_000, chunk_size=4096, checkpoint_path=path)
        partial.run(max_chunks=2)
        code, out, _ = run_cli(
            capsys,
            "verify-range", "1", "20000",
            "--chunk-size", "4096", "--checkpoint", str(path), "--resume", "--json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["checked"] == 20_000
        fresh = RangeVerifier(1, 20_000, chunk_size=4096)
        fresh.run()
        assert doc["stats"] == fresh.stats.to_json_dict()

    def test_mismatched_checkpoint_exits_2(self, capsys, tmp_path):
        path = tmp_path / "cp.json"
        RangeVerifier(1, 2000, chunk_size=512, checkpoint_path=path).run()
        code, _, err = run_cli(
            capsys, "verify-range", "1", "9999",
            "--checkpoint", str(path), "--resume",
        )
        assert code == 2
        assert "checkpoint" in err

    def test_resume_at_another_budget_exits_2(self, capsys, tmp_path):
        path = tmp_path / "cp.json"
        RangeVerifier(1, 100, chunk_size=10, budget=1000, checkpoint_path=path).run(max_chunks=5)
        code, _, err = run_cli(
            capsys, "verify-range", "1", "100", "--chunk-size", "10", "--budget", "5",
            "--checkpoint", str(path), "--resume",
        )
        assert code == 2
        assert err.startswith("error:") and "budget" in err

    def test_bad_range_exits_2(self, capsys):
        code, _, _ = run_cli(capsys, "verify-range", "9", "3")
        assert code == 2


class TestFactsCommand:
    def test_transitions_clean(self, capsys):
        code, out, _ = run_cli(capsys, "facts", "transitions", "1", "1000")
        assert code == 0
        assert "0 violations" in out

    def test_all_suites_clean(self, capsys):
        code, out, _ = run_cli(capsys, "facts", "all", "1", "2000", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["schema_version"] == 1
        assert len(doc["reports"]) == 5
        assert all(r["violations"] == [] for r in doc["reports"])

    def test_full_range_suites_require_lo_1(self, capsys):
        code, _, err = run_cli(capsys, "facts", "small-cycles", "2", "1000")
        assert code == 2
        assert "lo must be 1" in err

    def test_output_file(self, capsys, tmp_path):
        path = tmp_path / "facts.json"
        code, _, _ = run_cli(
            capsys, "facts", "transitions", "1", "500", "-o", str(path)
        )
        assert code == 0
        doc = json.loads(path.read_text())
        assert doc["reports"][0]["fact_id"] == "class-transitions"

    def test_strict_on_inconclusive(self, capsys):
        code, _, _ = run_cli(
            capsys, "facts", "reduction", "26", "26", "--budget", "2", "--strict"
        )
        assert code == 1

    def test_output_file_after_an_unclean_run_only_with_force(self, capsys, tmp_path):
        path = tmp_path / "out.json"
        argv = ("facts", "reduction", "1", "60", "--budget", "5", "--strict", "-o", str(path))
        code, _, err = run_cli(capsys, *argv)
        assert code == 1
        assert err == f"not writing {path}: run was not clean\n"
        assert not path.exists()
        code, out, _ = run_cli(capsys, *argv, "--force", "--json")
        assert code == 1
        assert path.read_text() == out

    def test_text_report_lists_each_violation(self, capsys, monkeypatch):
        # The schedule of TestWitnesses.test_step_class in test_facts.py.
        monkeypatch.setattr(core_map, "STEP_CLASS_AT", (0, 2, 1, 2, 2, 1))
        code, out, _ = run_cli(capsys, "facts", "transitions", "1", "12")
        assert code == 1
        assert [line for line in out.splitlines() if line.startswith("  ")] == [
            "  violation at 5: C2 -> C2 at step(5) = 8, expected C1",
            "  violation at 11: C2 -> C2 at step(11) = 17, expected C1",
        ]

    def test_c0_structure_leaves_no_start_open_at_any_budget(self, capsys):
        # Its one-step check takes no budget; at budget 1 an orbit walk left 49 starts open.
        argv = ("facts", "c0-structure", "1", "100", "--budget", "1", "--strict")
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert "0 violations, 0 inconclusive" in out

    @pytest.mark.parametrize(
        "argv", [("c0-structure", "1", "50"), ("reduction", "1", "1")]
    )
    def test_negative_budget_exits_2(self, capsys, argv):
        code, _, err = run_cli(capsys, "facts", *argv, "--budget", "-3")
        assert code == 2
        assert "budget must be >= 0" in err


class TestTreeCommand:
    def test_reduced_dot(self, capsys):
        code, out, _ = run_cli(
            capsys, "tree", "--reduced", "--max-value", "128", "--dot"
        )
        assert code == 0
        for node in (2, 5, 8, 11, 17, 20, 26, 32, 128):
            assert f'{node} [label="{node}"];' in out

    def test_json_round_trips(self, capsys):
        from collatz_lab.tree import TreeFlavor, build_tree, tree_from_json

        code, out, _ = run_cli(
            capsys, "tree", "--max-value", "24", "--json"
        )
        assert code == 0
        assert tree_from_json(out) == build_tree(TreeFlavor.FULL, 1, None, 24)

    def test_requires_some_cap(self, capsys):
        for argv in [], ["--reduced"], ["--json"]:
            code, out, err = run_cli(capsys, "tree", *argv)
            assert code == 2
            assert out == ""
            assert err == "error: need max_depth and/or max_value: an uncapped tree is infinite\n"

    def test_output_file(self, capsys, tmp_path):
        path = tmp_path / "tree.dot"
        code, out, _ = run_cli(
            capsys, "tree", "--max-value", "64", "-o", str(path)
        )
        assert code == 0
        assert out == f"wrote 41 nodes, 40 edges to {path}\n"
        text = path.read_text()
        assert text.startswith("digraph")
        assert text.count(" -> ") == 40

    def test_domain_error_exits_2(self, capsys):
        code, _, _ = run_cli(capsys, "tree", "--reduced", "--root", "3",
                             "--max-value", "100")
        assert code == 2


class TestCyclesCommand:
    def test_search_to_6(self, capsys):
        code, out, _ = run_cli(capsys, "cycles", "--max-len", "6")
        assert code == 0
        assert "only the known {1, 2} family" in out
        assert "length 2: R1-R2 -> x = 2" in out

    def test_json(self, capsys):
        code, out, _ = run_cli(capsys, "cycles", "--max-len", "4", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["only_known_family"] is True
        assert [c["x"] for c in doc["candidates"]] == [2, 1, 2, 1]

    def test_length_guard_exits_2(self, capsys):
        code, _, _ = run_cli(capsys, "cycles", "--max-len", "31")
        assert code == 2

    def test_output_file(self, capsys, tmp_path):
        path = tmp_path / "cycles.json"
        code, _, _ = run_cli(capsys, "cycles", "--max-len", "4", "-o", str(path))
        assert code == 0
        assert json.loads(path.read_text())["only_known_family"] is True


# Runs each argv of the JSON list in argv[1] through `cli.main`, in this one process and in
# the working directory, and prints, per call, the exit code, stdout, stderr and the files
# the call wrote (removed before the next call).
_CALLS_SCRIPT = """
import contextlib, io, json, pathlib, sys
from collatz_lab import cli
built_at_import = cli._parser.cache_info().currsize
calls = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    files = {}
    for path in sorted(pathlib.Path().iterdir()):
        files[path.name] = path.read_text()
        path.unlink()
    calls.append([code, out.getvalue(), err.getvalue(), files])
print(json.dumps({"built_at_import": built_at_import,
                  "builds": cli._parser.cache_info().misses, "calls": calls}))
"""

# Wall-clock values: the `elapsed` lines of JSON and the "(0.01 s)" of report lines.
_CLOCK = re.compile(r'"elapsed": [^,\n]*|\(\d+\.\d+ s\)')


def _calls(argvs: list[list[str]], cwd: Path) -> dict:
    cwd.mkdir()
    src = str(Path(cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", _CALLS_SCRIPT, json.dumps(argvs)], cwd=cwd,
                         env=env, capture_output=True, text=True, check=True, timeout=120)
    result = json.loads(out.stdout)
    result["calls"] = [
        [code, _CLOCK.sub("<clock>", stdout), _CLOCK.sub("<clock>", stderr),
         {name: _CLOCK.sub("<clock>", text) for name, text in files.items()}]
        for code, stdout, stderr, files in result["calls"]
    ]
    return result


def test_successive_main_calls_are_fresh_process_runs(tmp_path):
    """The parser is built once, on the first `main` call; no value carries over to the next."""
    argvs = [
        ["verify-range", "1", "3000", "--json"],
        ["verify-range", "1", "3000"],
        ["verify-range", "1", "3000", "--budget", "3", "--strict"],
        ["verify-range", "1", "3000", "--budget", "3"],
        ["tree", "--max-value", "40", "--json"],
        ["tree", "--max-value", "40", "--dot"],
        ["tree", "--max-value", "40", "--json", "--dot"],
        ["tree", "--max-value", "40"],
        ["facts", "all", "1", "300", "-o", "facts.json"],
        ["facts", "all", "1", "300"],
    ]
    together = _calls(argvs, tmp_path / "together")
    assert (together["built_at_import"], together["builds"]) == (0, 1)
    fresh = [_calls([argv], tmp_path / f"fresh{i}")["calls"][0] for i, argv in enumerate(argvs)]
    assert together["calls"] == fresh
    codes = [code for code, *_ in fresh]
    assert codes == [0, 0, 1, 0, 0, 0, 2, 0, 0, 0]
    assert [sorted(files) for *_, files in fresh] == [[]] * 8 + [["facts.json"], []]


@pytest.mark.parametrize(
    "argv",
    [
        ["verify-range", "1", "10", "--checkpoint", "{tmp}/missing/cp.json"],
        ["facts", "transitions", "1", "10", "-o", "{tmp}/missing/f.json"],
        ["tree", "--max-depth", "3", "-o", "{tmp}/missing/t.dot"],
        ["verify-range", "1", "10", "--checkpoint", "{tmp}/list.json", "--resume"],
    ],
    ids=["checkpoint-dir", "facts-output-dir", "tree-output-dir", "checkpoint-not-object"],
)
def test_bad_path_or_checkpoint_exits_2(capsys, tmp_path, argv):
    (tmp_path / "list.json").write_text("[]")
    code, _, err = run_cli(capsys, *(a.format(tmp=tmp_path) for a in argv))
    assert code == 2
    assert err.startswith("error:")


def _with_stats(doc, **stats):
    return json.dumps({**doc, "stats": {**doc["stats"], **stats}})


@pytest.mark.parametrize(
    "mangle",
    [
        lambda doc: json.dumps({**doc, "verified_up_to": float("inf")}),  # int() overflows
        lambda doc: "[" * 10**5,  # the parser runs out of recursion
        # int() would turn each of these into the value the run expects
        lambda doc: json.dumps({**doc, "budget": 1000000.5}),
        lambda doc: json.dumps({**doc, "range": [1.9, 100]}),
        lambda doc: json.dumps({**doc, "range": [True, 100]}),
        lambda doc: json.dumps({**doc, "verified_up_to": "50"}),
        lambda doc: json.dumps({**doc, "stats": {**doc["stats"], "max_steps": 2.7}}),
        # a resume reported these records at starts it had not swept, with exit 0
        lambda doc: _with_stats(doc, max_peak=10**30, max_peak_at=999999),
        lambda doc: _with_stats(doc, max_peak_at=doc["verified_up_to"] + 1),
        lambda doc: _with_stats(doc, max_steps_at=doc["verified_up_to"] + 1),
        lambda doc: _with_stats(doc, max_peak=10**30, max_peak_at=0),
    ],
    ids=[
        "verified-up-to-infinity",
        "deep-nesting",
        "budget-float",
        "range-float",
        "range-bool",
        "verified-up-to-str",
        "stats-float",
        "max-peak-outside-the-range",
        "max-peak-at-above-verified-up-to",
        "max-steps-at-above-verified-up-to",
        "max-peak-at-zero",
    ],
)
def test_malformed_checkpoint_exits_2(capsys, tmp_path, mangle):
    path = tmp_path / "cp.json"
    RangeVerifier(1, 100, chunk_size=10, checkpoint_path=path).run(max_chunks=5)
    path.write_text(mangle(json.loads(path.read_text())))
    code, out, err = run_cli(
        capsys, "verify-range", "1", "100", "--chunk-size", "10",
        "--checkpoint", str(path), "--resume",
    )
    assert (code, out) == (2, "")
    assert err.startswith("error:")


@pytest.mark.parametrize("field, value", [("x", 7.5), ("x", True), ("detail", 3)])
def test_checkpoint_witness_of_another_type_exits_2(capsys, tmp_path, field, value):
    # int() and str() would resume this as witness 7, 1 or detail "3" and exit 0.
    path = tmp_path / "cp.json"
    RangeVerifier(1, 100, chunk_size=10, budget=5, checkpoint_path=path).run(max_chunks=5)
    doc = json.loads(path.read_text())
    doc["inconclusive"][0][field] = value
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(
        capsys, "verify-range", "1", "100", "--chunk-size", "10", "--budget", "5",
        "--checkpoint", str(path), "--resume", "--json",
    )
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "witness" in err


@pytest.mark.parametrize(
    "mangle",
    [
        lambda found, doc: found.reverse(),
        lambda found, doc: found.insert(1, found[1]),
        lambda found, doc: found.append({"x": doc["verified_up_to"] + 1, "detail": "x"}),
    ],
    ids=["reversed", "duplicate", "above-verified-up-to"],
)
def test_checkpoint_witnesses_out_of_order_exit_2(capsys, tmp_path, mangle):
    # Resumed, a reversed list hid witnesses from the sweep's bisection and changed
    # the report with exit 0; an x above verified_up_to was reported twice.
    path = tmp_path / "cp.json"
    argv = ["verify-range", "1", "3000", "--chunk-size", "500", "--budget", "5", "--json"]
    RangeVerifier(1, 3000, chunk_size=500, budget=5, checkpoint_path=path).run(max_chunks=2)
    doc = json.loads(path.read_text())
    mangle(doc["inconclusive"], doc)
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, *argv, "--checkpoint", str(path), "--resume")
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "inconclusive witnesses are not strictly ascending" in err


class TestCheckpointFile:
    def test_atomic_write_and_load(self, tmp_path):
        path = tmp_path / "cp.json"
        cp = Checkpoint(
            lo=1,
            hi=100,
            budget=1000,
            verified_up_to=50,
            stats=SweepStats(max_steps=7, max_steps_at=27, max_peak=100, max_peak_at=27),
            timestamp="2025-01-01T00:00:00+00:00",
        )
        write_checkpoint(path, cp)
        # A loaded checkpoint holds its witnesses in lists, which a resume appends to.
        assert load_checkpoint(path) == cp._replace(violations=[], inconclusive=[])

    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError):
            load_checkpoint(tmp_path / "nope.json")

    @pytest.mark.parametrize("verified_up_to", [0, 101])
    def test_verified_up_to_outside_its_range(self, tmp_path, verified_up_to):
        path = tmp_path / "cp.json"
        stats = SweepStats(max_steps=7, max_steps_at=1, max_peak=100, max_peak_at=1)
        write_checkpoint(path, Checkpoint(1, 100, 1000, verified_up_to, stats))
        with pytest.raises(CheckpointError, match=f"verified_up_to {verified_up_to}, outside"):
            load_checkpoint(path)

    def test_wrong_schema_version(self, tmp_path):
        path = tmp_path / "cp.json"
        path.write_text(json.dumps({"schema_version": 99}))
        with pytest.raises(CheckpointError, match="unsupported checkpoint schema_version: 99"):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("[]", "a checkpoint document is a JSON object, got list"),
            ('{"schema_version": 99}', "unsupported checkpoint schema_version: 99"),
        ],
        ids=["list", "schema-99"],
    )
    def test_another_shape_or_version_is_refused_and_exits_2(self, capsys, tmp_path, text,
                                                             message):
        path = tmp_path / "cp.json"
        path.write_text(text)
        with pytest.raises(CheckpointError, match=re.escape(message)):
            load_checkpoint(path)
        code, out, err = run_cli(capsys, "verify-range", "1", "10", "--checkpoint", str(path),
                                 "--resume")
        assert (code, out) == (2, "")
        assert err == f"error: unreadable checkpoint {path}: {message}\n"
