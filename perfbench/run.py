#!/usr/bin/env python3
"""Benchmark for collatz-lab: the convergence sweep and the secondary layers.

Run from the root of the repository (stdlib only, nothing to build):

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

Workloads (closed loop, one client, one process; inputs come from --seed):

* ``sweep``: ``cli.main(["verify-range", "1", N, "--workers", "1",
  "--checkpoint", <tmp>, "--json"])`` over [1, N], N about 2^18, at the
  default chunk size.  About 3.5 steps per start, so per-start Python
  overhead in the sweep decides the time; checkpoint writes are rare.
* ``sweep_resume``: an interrupted ``RangeVerifier`` sweep of a window
  2^26 wide near 10^12 in 64-start chunks.  Each repetition advances 63
  chunks, then resumes a fresh ``RangeVerifier(resume=True)`` from the
  checkpoint file and finishes one more chunk (``resume_s``).
  Drops below the window are chased to 1 (170-210 steps per start),
  checkpoints are written every chunk, and every ``run()`` pays for the
  eager list of pending chunks.
* ``explore``: no sweep at all.  The fact suites, ``search_cycles``, FULL
  and REDUCED trees with both exports and the JSON parse, and a thousand
  ``orbit`` calls on seeded random starts.

Each run repeats one fixed unit of work (a repetition) until --seconds
have passed, with at least three timed repetitions after untimed warm-up
ones, and reports medians.  Every output is checked against an
independent reference computed outside the timed region, and every exact
work counter must repeat between repetitions and between runs of the
same seed.

End-to-end metrics gated by BENCHMARK.json, on every workload: ``setup_s``
(fresh interpreter until ``collatz_lab`` and ``collatz_lab.cli`` are
imported, median of samples spread over the run), ``wall_rel`` (a
repetition's wall time in units of the yardstick, see ``yardstick``) and
``peak_rss_mb``.  Printed by name and unit but not gated: ``wall_s``,
``cpu_s``, ``yardstick_s``, ``error_rate`` and the workload's own rates:
``starts_per_s`` (both sweeps), ``resume_s`` (sweep_resume),
``checked_per_s``, ``words_per_s``, ``tree_nodes_per_s`` and
``orbit_p50_us``/``orbit_p99_us`` with ``orbit_samples`` (explore).

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced repetitions, records spans around the benchmark's own
calls into each module (nothing in ``src/`` is instrumented), runs the
per-layer probes and prints the per-layer metrics.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  Details (environment, parameters, counters,
every metric, spans) go to ``.perfbench-out/``.  The exit code is 1 on any
mismatch and 2 when the program cannot be found.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = ("sweep", "sweep_resume", "explore")
LAYERS = ("cli", "trajectory", "facts", "cycles", "tree")
MIN_REPS = 3
SETUP_SAMPLES = 7
WORKERS_ENV = "COLLATZ_LAB_WORKERS"
YARDSTICK_SERVER = "--yardstick-server"
# Per-layer metrics that are exact work counts, compared between runs of a seed.
COUNTER_METRICS = {
    "cli.chunk_samples", "trajectory.converges_calls", "trajectory.orbit_steps",
    "trajectory.tail_chases", "trajectory.correspondence_calls", "cycles.words",
    "cycles.candidates", "tree.nodes", "tree.edges", "tree.json_bytes", "tree.dot_bytes",
    "facts.predecessors_checked", "facts.transitions_checked", "facts.reduction_checked",
    "facts.reduction_hooks_checked",
}


class Lab:
    """The collatz_lab modules, imported from this checkout's src/ only."""

    def __init__(self) -> None:
        if not (SRC / "collatz_lab" / "__init__.py").is_file():
            raise FileNotFoundError(f"no collatz_lab package under {SRC}")
        sys.path.insert(0, str(SRC))
        import collatz_lab
        from collatz_lab import cli, core_map, cycles, facts, trajectory, tree

        if Path(collatz_lab.__file__).resolve().parent != (SRC / "collatz_lab").resolve():
            raise FileNotFoundError(f"collatz_lab imported from {collatz_lab.__file__}")
        self.cli, self.core_map, self.cycles = cli, core_map, cycles
        self.facts, self.trajectory, self.tree = facts, trajectory, tree


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile (q in (0, 1))."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)] if ordered else 0.0


# ---------------------------------------------------------------------------
# tracing


class Tracer:
    """Spans kept in memory: id, name, start, end (s since run start), parent id."""

    def __init__(self, t0: float) -> None:
        self.t0 = t0
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter() - self.t0,
            "end": None,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield
        finally:
            rec["end"] = time.perf_counter() - self.t0
            self._stack.pop()

    def self_times(self, root_name: str) -> dict[str, float]:
        """Per-layer self time summed over the trees rooted at spans named root_name.

        A span's self time is its duration minus the durations of its children;
        its layer is the module prefix of its name.
        """
        child_time = [0.0] * len(self.spans)
        root_of: list[int] = []
        for s in self.spans:
            parent = s["parent"]
            root_of.append(s["id"] if parent is None else root_of[parent])
            if parent is not None:
                child_time[parent] += s["end"] - s["start"]
        totals = dict.fromkeys(LAYERS, 0.0)
        for s in self.spans:
            layer = s["name"].split(".")[0]
            if layer in totals and self.spans[root_of[s["id"]]]["name"] == root_name:
                totals[layer] += s["end"] - s["start"] - child_time[s["id"]]
        return totals


class NoTrace:
    _null = contextlib.nullcontext()

    def span(self, name: str):
        return self._null


NO_TRACE = NoTrace()


# ---------------------------------------------------------------------------
# yardstick: fixed code whose time tracks the speed of the host right now


@dataclass(frozen=True)
class _Probe:
    steps: int
    final: int
    peak: int


def _probe(x: int, floor: int) -> _Probe:
    v, steps, peak = x, 0, x
    while v != 1 and v >= floor:
        if v & 1:
            v = (3 * v + 1) >> 1
            if v > peak:
                peak = v
        else:
            v >>= 1
        steps += 1
    return _Probe(steps, v, peak)


def yardstick() -> float:
    """Seconds for a fixed mix of the work the program does, in code that never changes.

    Per-start probes returning frozen dataclasses and keeping a record,
    big-integer orbits, a list of many small tuples, and a JSON round trip.
    The host's speed drifts by tens of percent within seconds on shared
    machines; dividing a repetition's time by the yardstick time measured
    around it cancels most of that drift.
    """
    t0 = time.perf_counter()
    best = _Probe(0, 0, 0)
    for n in range(2, 12_000):
        p = _probe(n, n)
        if p.steps > best.steps:
            best = p
    for n in range(10**12, 10**12 + 40):
        _probe(n, 1)
    tasks = [(a, a + 63, 10**12, 10**6) for a in range(10**12, 10**12 + 64 * 300_000, 64)]
    del tasks
    doc = [{"x": i, "detail": f"value {i}", "rule": "R2"} for i in range(2000)]
    json.loads(json.dumps(doc, indent=2))
    return time.perf_counter() - t0


def _yardstick_server() -> None:
    """Serve yardstick times over stdin/stdout: one line in, one time out, until EOF."""
    for _ in sys.stdin:
        print(repr(yardstick()), flush=True)


class Yardstick:
    """The yardstick, run in a helper process so its memory stays out of the peak RSS.

    The helper is a plain child interpreter (not a multiprocessing process,
    which would also leave a resource tracker behind); leaving the context
    closes its input and waits until it has exited.
    """

    def __enter__(self) -> "Yardstick":
        self._proc = subprocess.Popen([sys.executable, __file__, YARDSTICK_SERVER],
                                      stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                      cwd=ROOT, text=True)
        return self

    def __call__(self) -> float:
        self._proc.stdin.write("1\n")
        self._proc.stdin.flush()
        return float(self._proc.stdout.readline())

    def __exit__(self, *exc) -> None:
        with contextlib.suppress(OSError):  # the helper may already be gone
            self._proc.stdin.close()
        try:
            self._proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()


class Stopwatch:
    """Times a repetition's operations; `lap` runs the yardstick, untimed, between them.

    `rel` sums each stretch of timed work divided by the mean of the
    yardstick times taken just before and just after it.
    """

    def __init__(self, measure: Yardstick, yard: float) -> None:
        self.measure = measure
        self.yard = yard
        self.wall = self.cpu = self.rel = 0.0
        self.start()

    def start(self) -> None:
        self._t, self._c = time.perf_counter(), time.process_time()

    def lap(self) -> None:
        wall = time.perf_counter() - self._t
        self.cpu += time.process_time() - self._c
        yard = self.measure()
        self.wall += wall
        self.rel += wall / ((self.yard + yard) / 2)
        self.yard = yard
        self.start()


# ---------------------------------------------------------------------------
# references and replays (outside every timed region)


def step_inline(v: int) -> int:
    return (3 * v + 1) >> 1 if v & 1 else v >> 1


def sweep_reference(lab: Lab, lo: int, hi: int, range_lo: int) -> dict:
    """Expected records of a sweep over [lo, hi] whose range starts at range_lo.

    An inline loop finds where each start stops: at 1, or at its first drop
    below the start, chased on to 1 when that drop lands below range_lo.
    trajectory.orbit then replays exactly that many steps; its end value must
    agree and its peak is the reference peak.  Ties go to the smallest start.
    """
    orbit = lab.trajectory.orbit
    max_steps = max_steps_at = max_peak = max_peak_at = total = 0
    mismatches = []
    for n in range(lo, hi + 1):
        v, steps = n, 0
        while v != 1 and v >= n:
            v = step_inline(v)
            steps += 1
        if v < range_lo:
            while v != 1:
                v = step_inline(v)
                steps += 1
        traj = orbit(n, steps, 1)
        if traj.steps != steps or traj.final != v:
            mismatches.append(n)
        total += steps
        if steps > max_steps:
            max_steps, max_steps_at = steps, n
        if traj.peak > max_peak:
            max_peak, max_peak_at = traj.peak, n
    return {
        "stats": {
            "max_steps": max_steps,
            "max_steps_at": max_steps_at,
            "max_peak": max_peak,
            "max_peak_at": max_peak_at,
        },
        "orbit_steps": total,
        "orbit_mismatches": mismatches,
    }


def replay_converges(lab: Lab, lo: int, hi: int, range_lo: int, budget: int) -> dict:
    """Time the sweep's own trajectory.converges calls for starts [lo, hi].

    Same calls as one sweep chunk makes: converges(n, budget, n), then a tail
    chase converges(final, budget - steps, 1) for drops below range_lo.  The
    time includes this loop's own bookkeeping.
    """
    converges = lab.trajectory.converges
    dropped = lab.trajectory.OrbitOutcome.DROPPED_BELOW_FLOOR
    chases = steps_total = 0
    t0 = time.perf_counter()
    for n in range(lo, hi + 1):
        status = converges(n, budget, n)
        steps = status.steps_used
        if status.outcome is dropped and status.final < range_lo:
            steps += converges(status.final, budget - steps, 1).steps_used
            chases += 1
        steps_total += steps
    elapsed = time.perf_counter() - t0
    return {
        "converges_calls": hi - lo + 1 + chases,
        "tail_chases": chases,
        "orbit_steps": steps_total,
        "converges_s": elapsed,
    }


def time_calls(fn, args: list, repeats: int = 5) -> float:
    """Median over repeats of the mean ns per call of fn over args."""
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter_ns()
        for a in args:
            fn(a)
        samples.append((time.perf_counter_ns() - t0) / len(args))
    return median(samples)


def checkpoint_io(lab: Lab, path: Path, checkpoint, repeats: int = 21) -> dict:
    """Median write (atomic, fsync'd) and load times of one checkpoint, and its size."""
    writes, loads = [], []
    for _ in range(repeats):
        t0 = time.perf_counter()
        lab.cli.write_checkpoint(path, checkpoint)
        t1 = time.perf_counter()
        lab.cli.load_checkpoint(path)
        t2 = time.perf_counter()
        writes.append(t1 - t0)
        loads.append(t2 - t1)
    return {
        "cli.checkpoint_write_ms": median(writes) * 1e3,
        "cli.checkpoint_load_ms": median(loads) * 1e3,
        "cli.checkpoint_bytes": path.stat().st_size,
    }


def chunk_samples(make_verifier, passes: int, limit: int) -> list[float]:
    """Seconds per run(max_chunks=1) call, over fresh verifiers, at most `limit` samples."""
    samples: list[float] = []
    for _ in range(passes):
        verifier = make_verifier()
        done = False
        while not done and len(samples) < limit:
            t0 = time.perf_counter()
            done = verifier.run(max_chunks=1) is not None
            samples.append(time.perf_counter() - t0)
    return samples


# ---------------------------------------------------------------------------
# workloads


class Workload:
    """One repeated unit of work.  `rep` holds only the timed calls."""

    name = ""
    ops_per_rep = 1
    warmup_reps = 1  # checked but not timed: caches and allocators settle first

    def __init__(self, lab: Lab, seed: int, size: str, tmp: Path) -> None:
        self.failures: list[str] = []  # found by the per-layer probes
        self.lab = lab
        self.seed = seed
        self.tiny = size == "tiny"
        self.tmp = tmp

    def params(self) -> dict:
        raise NotImplementedError

    def reference(self) -> None:
        """Compute the independent reference outputs (untimed, once per run)."""

    def prepare(self) -> None:
        """Per-repetition preparation outside the timed region."""

    def rep(self, tr, lap) -> dict:
        """The timed calls; `lap()` between groups of them keeps the yardstick close."""
        raise NotImplementedError

    def check(self, obs: dict) -> list[str]:
        raise NotImplementedError

    def counters(self, obs: dict) -> dict:
        raise NotImplementedError

    def e2e(self, reps: list[dict]) -> dict:
        """Workload-specific end-to-end metrics from untraced repetitions."""
        return {}

    def layers(self, tr: Tracer, traced: list[dict]) -> dict:
        """Per-layer metrics from traced repetitions plus probes run here."""
        return {}


class Sweep(Workload):
    name = "sweep"

    def __init__(self, *a) -> None:
        super().__init__(*a)
        rng = random.Random(self.seed)
        base = 2**12 if self.tiny else 2**18
        self.hi = base + rng.randrange(base // 64)
        self.cp = self.tmp / "sweep.json"
        self.argv = ["verify-range", "1", str(self.hi), "--workers", "1",
                     "--checkpoint", str(self.cp), "--json"]
        self._doc: dict | None = None

    def params(self) -> dict:
        return {"lo": 1, "hi": self.hi, "workers": 1, "argv": self.argv}

    def reference(self) -> None:
        self.ref = sweep_reference(self.lab, 1, self.hi, 1)

    def prepare(self) -> None:
        self.cp.unlink(missing_ok=True)

    def rep(self, tr, lap) -> dict:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), tr.span("cli.main"):
            code = self.lab.cli.main(self.argv)
        return {"code": code, "stdout": out.getvalue()}

    def check(self, obs: dict) -> list[str]:
        if obs["code"] != 0:
            return [f"verify-range exited {obs['code']}"]
        doc = json.loads(obs["stdout"])
        obs["doc"] = doc
        want = {"range": [1, self.hi], "checked": self.hi, "violations": [],
                "inconclusive": [], "workers": 1, "stats": self.ref["stats"]}
        bad = [f"{k}: {doc.get(k)!r} != {v!r}" for k, v in want.items() if doc.get(k) != v]
        cp = self.lab.cli.load_checkpoint(self.cp)
        if cp.verified_up_to != self.hi or cp.stats.to_json_dict() != self.ref["stats"]:
            bad.append(f"checkpoint at {cp.verified_up_to} with {cp.stats}")
        bad += [f"orbit disagrees with the inline reference at {n}"
                for n in self.ref["orbit_mismatches"]]
        self._doc = self._doc or doc
        return bad

    def counters(self, obs: dict) -> dict:
        doc = obs["doc"]
        chunks = -(-self.hi // doc["chunk_size"])
        return {"starts": doc["checked"], "chunks": chunks, "checkpoint_writes": chunks,
                "chunk_size": doc["chunk_size"], "budget": doc["budget"],
                "inconclusive": len(doc["inconclusive"]),
                "violations": len(doc["violations"]), **doc["stats"]}

    def e2e(self, reps: list[dict]) -> dict:
        return {"starts_per_s": (median([self.hi / r["wall"] for r in reps]), "1/s")}

    def _verifier(self, workers: int = 1, checkpoint: bool = True):
        return self.lab.cli.RangeVerifier(
            1, self.hi, workers=workers,
            chunk_size=self._doc["chunk_size"], budget=self._doc["budget"],
            checkpoint_path=self.cp if checkpoint else None)

    def layers(self, tr: Tracer, traced: list[dict]) -> dict:
        lab, doc = self.lab, self._doc
        workers = nproc()
        # Adjacent pairs share the host's speed of the moment; medians of the
        # per-pair differences and ratios are far steadier than of the parts.
        runs, render, speedup = [], [], []
        for _ in range(3):
            self.prepare()
            main_s = self._timed(tr, "cli.main", lambda: self.rep(NO_TRACE, lambda: None))
            self.prepare()
            runs.append(self._timed(tr, "cli.RangeVerifier.run", lambda: self._verifier().run()))
            render.append(main_s - runs[-1])
            solo = self._timed(tr, "cli.RangeVerifier.run", lambda: self._verifier(1, False).run())
            pool = self._timed(tr, "cli.RangeVerifier.run",
                               lambda: self._verifier(workers, False).run())
            speedup.append(solo / pool)
        self.prepare()
        samples = chunk_samples(self._verifier, passes=3, limit=30)
        checkpoint = lab.cli.load_checkpoint(self.cp)
        with tr.span("trajectory.converges"):
            replay = replay_converges(lab, 1, self.hi, 1, doc["budget"])
        run_s = median(runs)
        return {
            **cli_counts(traced[0]["counters"]),
            "cli.run_s": run_s,
            "cli.render_s": median(render),
            "cli.chunk_p50_ms": median(samples) * 1e3,
            "cli.chunk_p90_ms": quantile(samples, 0.9) * 1e3,
            "cli.chunk_samples": len(samples),
            "cli.pool_speedup": median(speedup),
            "cli.pool_workers": workers,
            **checkpoint_io(lab, self.tmp / "probe.json", checkpoint),
            **trajectory_metrics(self, replay, self.hi, run_s),
        }

    @staticmethod
    def _timed(tr: Tracer, name: str, fn) -> float:
        with tr.span("bench.probe"), tr.span(name):
            t0 = time.perf_counter()
            fn()
            return time.perf_counter() - t0


def cli_counts(counters: dict) -> dict:
    return {f"cli.{k}": counters[k]
            for k in ("chunks", "checkpoint_writes", "inconclusive", "violations")}


def trajectory_metrics(w: Workload, replay: dict, starts: int, run_s: float) -> dict:
    if replay["orbit_steps"] != w.ref["orbit_steps"]:
        w.failures.append(f"replayed converges took {replay['orbit_steps']} steps, "
                          f"the reference {w.ref['orbit_steps']}")
    return {
        "trajectory.converges_calls": replay["converges_calls"],
        "trajectory.orbit_steps": replay["orbit_steps"],
        "trajectory.steps_per_start": replay["orbit_steps"] / starts,
        "trajectory.tail_chases": replay["tail_chases"],
        "trajectory.converges_s": replay["converges_s"],
        "trajectory.steps_per_s": replay["orbit_steps"] / replay["converges_s"],
        "cli.sweep_overhead_share": 1 - replay["converges_s"] / run_s,
    }


class SweepResume(Workload):
    name = "sweep_resume"
    ops_per_rep = 2
    # The first few passes of a process over the pending-chunk list run up to
    # 40% slower while the allocator and the garbage collector settle.
    warmup_reps = 3
    CHUNK = 64

    def __init__(self, *a) -> None:
        super().__init__(*a)
        rng = random.Random(self.seed)
        self.lo = 10**12 + rng.randrange(2**30)
        self.hi = self.lo + (2**14 if self.tiny else 2**26) - 1
        self.chunks = 8 if self.tiny else 64
        self.starts = self.chunks * self.CHUNK
        self.cp = self.tmp / "resume.json"

    def params(self) -> dict:
        return {"lo": self.lo, "hi": self.hi, "chunk_size": self.CHUNK,
                "chunks": self.chunks, "workers": 1}

    def reference(self) -> None:
        self.ref = sweep_reference(self.lab, self.lo, self.lo + self.starts - 1, self.lo)

    def prepare(self) -> None:
        self.cp.unlink(missing_ok=True)

    def _verifier(self, resume: bool = False, workers: int = 1, checkpoint: bool = True):
        return self.lab.cli.RangeVerifier(
            self.lo, self.hi, workers=workers, chunk_size=self.CHUNK,
            checkpoint_path=self.cp if checkpoint else None, resume=resume)

    def rep(self, tr, lap) -> dict:
        with tr.span("cli.RangeVerifier"):
            first = self._verifier()
        with tr.span("cli.RangeVerifier.run"):
            r1 = first.run(max_chunks=self.chunks - 1)
        lap()
        t0 = time.perf_counter()
        with tr.span("cli.resume"):
            with tr.span("cli.RangeVerifier"):
                resumed = self._verifier(resume=True)
            with tr.span("cli.RangeVerifier.run"):
                r2 = resumed.run(max_chunks=1)
        resume_s = time.perf_counter() - t0
        return {"first": first, "resumed": resumed, "results": (r1, r2),
                "resume_s": resume_s}

    def check(self, obs: dict) -> list[str]:
        bad = [f"pass {i} returned a final report" for i, r in enumerate(obs["results"])
               if r is not None]
        first = obs["first"].checkpoint()
        if first.verified_up_to != self.lo + (self.chunks - 1) * self.CHUNK - 1:
            bad.append(f"first pass stopped at {first.verified_up_to}")
        final = self.lab.cli.load_checkpoint(self.cp)
        obs["checkpoint"] = final
        if final.verified_up_to != self.lo + self.starts - 1:
            bad.append(f"resumed pass stopped at {final.verified_up_to}")
        if final.violations or final.inconclusive:
            bad.append(f"witnesses {final.violations} {final.inconclusive}")
        if final.stats.to_json_dict() != self.ref["stats"]:
            bad.append(f"stats {final.stats} != {self.ref['stats']}")
        if obs["resumed"].stats != final.stats:
            bad.append("in-memory stats differ from the checkpoint")
        bad += [f"orbit disagrees with the inline reference at {n}"
                for n in self.ref["orbit_mismatches"]]
        return bad

    def counters(self, obs: dict) -> dict:
        cp = obs["checkpoint"]
        return {"starts": self.starts, "chunks": self.chunks, "checkpoint_writes": self.chunks,
                "verified_up_to": cp.verified_up_to, "inconclusive": len(cp.inconclusive),
                "violations": len(cp.violations), **cp.stats.to_json_dict()}

    def e2e(self, reps: list[dict]) -> dict:
        return {
            "starts_per_s": (median([self.starts / r["wall"] for r in reps]), "1/s"),
            "resume_s": (median([r["resume_s"] for r in reps]), "s"),
        }

    def _pass(self, tr: Tracer, workers: int) -> float:
        verifier = self._verifier(workers=workers, checkpoint=False)
        with tr.span("bench.probe"), tr.span("cli.RangeVerifier.run"):
            t0 = time.perf_counter()
            verifier.run(max_chunks=self.chunks)
            return time.perf_counter() - t0

    def layers(self, tr: Tracer, traced: list[dict]) -> dict:
        lab, workers = self.lab, nproc()
        run_s = median([
            sum(s["end"] - s["start"] for s in tr.spans
                if s["name"] == "cli.RangeVerifier.run" and rep_lo <= s["start"] <= rep_hi)
            for rep_lo, rep_hi in (r["span_range"] for r in traced)])
        speedup = []
        for _ in range(2):
            solo, pool = (self._pass(tr, w) for w in (1, workers))
            speedup.append(solo / pool)
        self.prepare()
        samples = chunk_samples(self._verifier, passes=1, limit=6)
        checkpoint = lab.cli.load_checkpoint(self.cp)
        with tr.span("trajectory.converges"):
            replay = replay_converges(
                lab, self.lo, self.lo + self.starts - 1, self.lo, lab.cli.DEFAULT_BUDGET)
        return {
            **cli_counts(traced[0]["counters"]),
            "cli.run_s": run_s,
            "cli.chunk_p50_ms": median(samples) * 1e3,
            "cli.chunk_p90_ms": quantile(samples, 0.9) * 1e3,
            "cli.chunk_samples": len(samples),
            "cli.pool_speedup": median(speedup),
            "cli.pool_workers": workers,
            **checkpoint_io(lab, self.tmp / "probe.json", checkpoint),
            **trajectory_metrics(self, replay, self.starts, run_s),
        }


FACTS = ("predecessors", "transitions", "reduction", "reduction_hooks",
         "no_small_cycles", "c0_structure")


class Explore(Workload):
    name = "explore"

    def __init__(self, *a) -> None:
        super().__init__(*a)
        rng = random.Random(self.seed)
        tiny = self.tiny
        self.fact_lo = 10**6 + rng.randrange(10**6)
        self.fact_hi = self.fact_lo + (500 if tiny else 20_000) - 1
        self.red_hi = self.fact_lo + (200 if tiny else 3_000) - 1
        self.small_max = (500 if tiny else 20_000) + rng.randrange(1000)
        self.cycle_len = 8 if tiny else 14
        self.full_max = (500 if tiny else 20_000) + rng.randrange(1000)
        self.reduced_max = (1000 if tiny else 40_000) + rng.randrange(1000)
        self.orbit_budget = 10**4
        self.orbit_starts = [rng.randrange(1, 10**9) for _ in range(50 if tiny else 1000)]
        self.ops_per_rep = len(FACTS) + 1 + 2 * 4 + len(self.orbit_starts) + 1
        self._first: dict | None = None

    def params(self) -> dict:
        return {"facts": [self.fact_lo, self.fact_hi], "reduction": [self.fact_lo, self.red_hi],
                "small_cycles_max": self.small_max, "cycle_len": self.cycle_len,
                "full_tree_max_value": self.full_max, "reduced_tree_max_value": self.reduced_max,
                "orbit_starts": len(self.orbit_starts), "orbit_budget": self.orbit_budget}

    def reference(self) -> None:
        ref = []
        for x in self.orbit_starts:
            v, steps, peak = x, 0, x
            while v != 1 and steps < self.orbit_budget:
                v = step_inline(v)
                steps += 1
                peak = max(peak, v)
            ref.append((steps, peak, v))
        self.orbit_ref = ref

    def rep(self, tr, lap) -> dict:
        lab = self.lab
        facts, cycles, tree = lab.facts, lab.cycles, lab.tree
        times: dict[str, float] = {}
        out: dict = {}

        def call(key: str, span: str, fn, *args, **kwargs):
            with tr.span(span):
                t0 = time.perf_counter()
                out[key] = fn(*args, **kwargs)
                times[key] = time.perf_counter() - t0
            return out[key]

        lo, hi = self.fact_lo, self.fact_hi
        call("predecessors", "facts.verify_predecessor_structure",
             facts.verify_predecessor_structure, lo, hi)
        call("transitions", "facts.verify_transitions", facts.verify_transitions, lo, hi)
        call("reduction", "facts.verify_reduction", facts.verify_reduction, lo, self.red_hi)
        call("reduction_hooks", "facts.verify_reduction", facts.verify_reduction, lo, hi,
             include_correspondence=False)
        call("no_small_cycles", "cycles.verify_no_small_cycles",
             cycles.verify_no_small_cycles, self.small_max)
        call("c0_structure", "cycles.verify_c0_structure",
             cycles.verify_c0_structure, self.small_max)
        call("search", "cycles.search_cycles", cycles.search_cycles, self.cycle_len)
        lap()
        for flavor, root, max_value in ((tree.TreeFlavor.FULL, 1, self.full_max),
                                        (tree.TreeFlavor.REDUCED, 2, self.reduced_max)):
            f = flavor.value
            built = call(f"{f}.build", "tree.build_tree", tree.build_tree,
                         flavor, root, None, max_value)
            text = call(f"{f}.export_json", "tree.export_json", tree.export_json, built)
            call(f"{f}.export_dot", "tree.export_dot", tree.export_dot, built)
            call(f"{f}.parse", "tree.tree_from_json", tree.tree_from_json, text)
        lap()
        orbit, budget = lab.trajectory.orbit, self.orbit_budget
        latencies, results = [], []
        clock = time.perf_counter_ns
        for x in self.orbit_starts:
            with tr.span("trajectory.orbit"):
                t0 = clock()
                traj = orbit(x, budget, 1)
                latencies.append(clock() - t0)
            results.append((traj.steps, traj.peak, traj.final))
        out["orbits"] = results
        return {"out": out, "times": times, "orbit_ns": latencies}

    def check(self, obs: dict) -> list[str]:
        lab, out = self.lab, obs["out"]
        bad = []
        ranges = {"predecessors": (self.fact_lo, self.fact_hi),
                  "transitions": (self.fact_lo, self.fact_hi),
                  "reduction": (self.fact_lo, self.red_hi),
                  "reduction_hooks": (self.fact_lo, self.fact_hi),
                  "no_small_cycles": (1, self.small_max), "c0_structure": (1, self.small_max)}
        for key, (lo, hi) in ranges.items():
            r = out[key]
            if not r.ok or r.inconclusive or (r.lo, r.hi, r.checked) != (lo, hi, hi - lo + 1):
                bad.append(f"{key}: {r.to_json_dict()}")
        found = out["search"]
        if not found or not all(c.consistent and set(lab.cycles.cycle_values(c)) <= {1, 2}
                                for c in found):
            bad.append(f"search_cycles({self.cycle_len}) left the {{1, 2}} family: {found}")
        texts = {k: v for k, v in out.items() if k.endswith(("export_json", "export_dot"))}
        for f in ("full", "reduced"):
            if out[f"{f}.parse"] != out[f"{f}.build"]:
                bad.append(f"{f} tree does not round-trip through JSON")
        if self._first is None:
            bad += self._check_trees(out)
            self._first = texts
        elif texts != self._first:
            bad.append("tree exports differ between repetitions")
        bad += [f"orbit({x}) = {got}, expected {want}"
                for x, got, want in zip(self.orbit_starts, out["orbits"], self.orbit_ref)
                if got != want]
        t27 = lab.trajectory.orbit(27, 10**4, 1)
        if (t27.peak, t27.steps) != (4616, 70):
            bad.append(f"orbit(27): peak {t27.peak} in {t27.steps} steps")
        return bad

    def _check_trees(self, out: dict) -> list[str]:
        """Every edge against an inline map, caps respected, DOT line count."""
        bad = []
        for f, limit in (("full", self.full_max), ("reduced", self.reduced_max)):
            t = out[f"{f}.build"]
            for e in t.edges:
                c = e.child
                if f == "full":
                    want = (step_inline(c), "R2" if c & 1 else "R1")
                elif c & 1:
                    want = ((3 * c + 1) >> 1, "Q3")
                else:
                    want = ((3 * c + 2) >> 2, "Q2") if c & 2 else (c >> 2, "Q1")
                if (e.parent, e.rule.name) != want or c > limit:
                    bad.append(f"{f} tree edge {e}")
            lines = out[f"{f}.export_dot"].count("\n")
            if lines != len(t.nodes) + len(t.edges) + 2:
                bad.append(f"{f} DOT has {lines} lines")
        return bad

    def counters(self, obs: dict) -> dict:
        out = obs["out"]
        c = {f"{k}_checked": out[k].checked for k in FACTS}
        c["words"] = 2 ** (self.cycle_len + 1) - 2
        c["candidates"] = len(out["search"])
        for f in ("full", "reduced"):
            t = out[f"{f}.build"]
            c[f"{f}_nodes"], c[f"{f}_edges"] = len(t.nodes), len(t.edges)
            c[f"{f}_json_bytes"] = len(out[f"{f}.export_json"])
            c[f"{f}_dot_bytes"] = len(out[f"{f}.export_dot"])
        c["orbits"] = len(out["orbits"])
        c["orbit_steps"] = sum(r[0] for r in out["orbits"])
        return c

    def e2e(self, reps: list[dict]) -> dict:
        counts = reps[0]["counters"]
        facts_checked = sum(counts[f"{k}_checked"] for k in FACTS)
        nodes = counts["full_nodes"] + counts["reduced_nodes"]
        latencies = [ns / 1e3 for r in reps for ns in r["orbit_ns"]]
        return {
            "checked_per_s": (median([facts_checked / sum(r["times"][k] for k in FACTS)
                                      for r in reps]), "1/s"),
            "words_per_s": (median([counts["words"] / r["times"]["search"] for r in reps]),
                            "1/s"),
            "tree_nodes_per_s": (median([nodes / sum(v for k, v in r["times"].items()
                                                     if k.startswith(("full.", "reduced.")))
                                         for r in reps]), "1/s"),
            "orbit_p50_us": (quantile(latencies, 0.5), "us"),
            "orbit_p99_us": (quantile(latencies, 0.99), "us"),
            "orbit_samples": (len(latencies), "count"),
        }

    def layers(self, tr: Tracer, traced: list[dict]) -> dict:
        lab = self.lab
        counts = traced[0]["counters"]

        def t(key: str) -> float:
            return median([r["times"][key] for r in traced])

        def both(op: str) -> float:
            return t(f"full.{op}") + t(f"reduced.{op}")

        rng = random.Random(self.seed + 1)
        xs = [rng.randrange(1, 10**12) for _ in range(2000 if self.tiny else 20000)]
        c2 = [3 * x + 2 for x in xs]
        cm = lab.core_map
        with tr.span("bench.probe"):
            with tr.span("core_map.step"):
                step_ns = time_calls(cm.step, xs)
            with tr.span("core_map.residue_class"):
                residue_ns = time_calls(cm.residue_class, xs)
            with tr.span("core_map.predecessors"):
                preds_ns = time_calls(cm.predecessors, xs)
            with tr.span("core_map.reduced_step"):
                reduced_ns = time_calls(cm.reduced_step, c2)
            members = [x for x in range(self.fact_lo, self.red_hi + 1) if x % 3 == 2]
            correspondence = lab.trajectory.correspondence
            with tr.span("trajectory.correspondence"):
                t0 = time.perf_counter()
                for x in members:
                    correspondence(x, lab.facts.DEFAULT_BUDGET)
                correspondence_s = time.perf_counter() - t0
        orbit_s = median([sum(r["orbit_ns"]) / 1e9 for r in traced])
        return {
            "core_map.step_ns": step_ns,
            "core_map.residue_class_ns": residue_ns,
            "core_map.predecessors_ns": preds_ns,
            "core_map.reduced_step_ns": reduced_ns,
            "trajectory.orbit_steps": counts["orbit_steps"],
            "trajectory.steps_per_start": counts["orbit_steps"] / counts["orbits"],
            "trajectory.steps_per_s": counts["orbit_steps"] / orbit_s,
            "trajectory.correspondence_s": correspondence_s,
            "trajectory.correspondence_calls": len(members),
            **{f"facts.{k}_s": t(k) for k in FACTS[:4]},
            **{f"facts.{k}_checked": counts[f"{k}_checked"] for k in FACTS[:4]},
            "cycles.search_s": t("search"),
            "cycles.words": counts["words"],
            "cycles.candidates": counts["candidates"],
            "cycles.candidate_ratio": counts["candidates"] / counts["words"],
            "cycles.no_small_cycles_s": t("no_small_cycles"),
            "cycles.c0_structure_s": t("c0_structure"),
            "tree.build_s": both("build"),
            "tree.nodes": counts["full_nodes"] + counts["reduced_nodes"],
            "tree.edges": counts["full_edges"] + counts["reduced_edges"],
            "tree.export_json_s": both("export_json"),
            "tree.export_dot_s": both("export_dot"),
            "tree.parse_s": both("parse"),
            "tree.json_bytes": counts["full_json_bytes"] + counts["reduced_json_bytes"],
            "tree.dot_bytes": counts["full_dot_bytes"] + counts["reduced_dot_bytes"],
        }


WORKLOAD_TYPES = {w.name: w for w in (Sweep, SweepResume, Explore)}


# ---------------------------------------------------------------------------
# environment, set-up time, counters


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def measure_setup() -> float:
    """Wall seconds from a fresh interpreter to collatz_lab and collatz_lab.cli imported."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import collatz_lab, collatz_lab.cli"],
                   env=env, cwd=ROOT, check=True)
    return time.perf_counter() - t0


def compare_counters(out_dir: Path, key: str, counters: dict) -> list[str]:
    """Fail on any counter that differs from an earlier run of the same seed and program."""
    path = out_dir / "counters" / f"{key}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    earlier = json.loads(path.read_text()) if path.exists() else {}
    bad = [f"counter {k}: {earlier[k]} in an earlier run, {v} now"
           for k, v in counters.items() if k in earlier and earlier[k] != v]
    path.write_text(json.dumps({**earlier, **counters}, indent=1, sort_keys=True))
    return bad


# ---------------------------------------------------------------------------
# entry point


def run_workload(args: argparse.Namespace) -> int:
    try:
        lab = Lab()
    except (FileNotFoundError, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    out_dir = Path(args.out).resolve() if args.out else ROOT / ".perfbench-out"
    out_dir.mkdir(parents=True, exist_ok=True)
    trace = args.trace == 1
    measure_setup()  # the first start may compile bytecode; users pay that once
    setup: list[float] = []
    env = {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "nproc": nproc(),
        "git_sha": git_sha(),
        "src_sha256": src_digest(),
        WORKERS_ENV: os.environ.get(WORKERS_ENV),
        "seed": args.seed,
        "seconds": args.seconds,
        "size": args.size,
        "trace": args.trace,
    }
    failures: list[str] = []
    attempted = 0
    reps: list[dict] = []
    traced: list[dict] = []
    t_start = time.perf_counter()
    tracer = Tracer(t_start)
    with tempfile.TemporaryDirectory(prefix=".perfbench-tmp-", dir=ROOT) as tmp, \
            Yardstick() as measure:
        w = WORKLOAD_TYPES[args.workload](lab, args.seed, args.size, Path(tmp))
        w.reference()
        deadline = time.perf_counter() + args.seconds
        first_counters: dict | None = None
        yard = measure()
        i = 0
        while len(reps) < MIN_REPS or len(traced) < trace or time.perf_counter() < deadline:
            traced_rep = trace and i >= w.warmup_reps and (i - w.warmup_reps) % 2 == 1
            tr = tracer if traced_rep else NO_TRACE
            w.prepare()
            attempted += w.ops_per_rep
            span_lo = time.perf_counter() - t_start
            watch = Stopwatch(measure, yard)
            try:
                with tr.span("bench.rep"):
                    obs = w.rep(tr, watch.lap)
                    watch.lap()
            except Exception as exc:  # an operation that raised counts as failed
                failures.append(f"repetition {i} raised {exc!r}")
                break
            obs.update(wall=watch.wall, cpu=watch.cpu, rel=watch.rel, yardstick=watch.yard,
                       span_range=(span_lo, time.perf_counter() - t_start))
            yard = watch.yard
            setup.append(measure_setup())  # spread over the run, like the repetitions
            try:
                bad = w.check(obs)
            except Exception as exc:  # a malformed output fails its check
                bad = [f"checking repetition {i} raised {exc!r}"]
            failures += bad
            if bad:
                break
            counters = obs["counters"] = w.counters(obs)
            obs.pop("out", None)  # keep memory flat however many repetitions run
            if first_counters is None:
                first_counters = counters
            elif counters != first_counters:
                failures.append(f"repetition {i} counters {counters} != {first_counters}")
                break
            if i >= w.warmup_reps:
                (traced if traced_rep else reps).append(obs)
            i += 1
        while len(setup) < SETUP_SAMPLES:
            setup.append(measure_setup())
        measured_s = time.perf_counter() - t_start
        layers: dict = {}
        if trace and traced and not failures:
            layers = w.layers(tracer, traced)
            failures += w.failures
            self_times = tracer.self_times("bench.rep")
            layers.update({f"{k}.self_s": v / len(traced) for k, v in self_times.items()})
            layers["trace.overhead_s"] = (median([r["wall"] for r in traced])
                                          - median([r["wall"] for r in reps]))
            layers["trace.overhead_rel"] = (median([r["rel"] for r in traced])
                                            / median([r["rel"] for r in reps]) - 1)
            layers["trace.spans"] = len(tracer.spans)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if first_counters is not None and not failures:
        attempted += 1
        failures += compare_counters(
            out_dir, f"{args.workload}-{args.size}-seed{args.seed}-{env['src_sha256']}",
            {**first_counters, **{k: v for k, v in layers.items()
                                  if k in COUNTER_METRICS}})
    failed = min(len(failures), attempted)
    e2e = {
        "setup_s": (median(setup), "s"),
        "wall_s": (median([r["wall"] for r in reps]) if reps else 0.0, "s"),
        "cpu_s": (median([r["cpu"] for r in reps]) if reps else 0.0, "s"),
        "wall_rel": (median([r["rel"] for r in reps]) if reps else 0.0, "ratio"),
        "yardstick_s": (median([r["yardstick"] for r in reps]) if reps else 0.0, "s"),
        **(w.e2e(reps) if reps and not failures else {}),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "error_rate": (failed / attempted if attempted else 1.0, "ratio"),
    }
    per_layer = {m["name"]: (layers.get(m["name"], 0), m["unit"]) for m in SPEC["per_layer"]}

    print(f"perfbench {args.workload}: seed {args.seed}, trace {args.trace}, "
          f"{len(reps)} untraced + {len(traced)} traced repetitions in {measured_s:.1f} s")
    print("env " + json.dumps(env, sort_keys=True))
    print("params " + json.dumps(w.params(), sort_keys=True))
    print("counters " + json.dumps(first_counters, sort_keys=True))
    for f in failures[:20]:
        print(f"FAIL {f}")
    shown = per_layer if trace else e2e
    for name, (value, unit) in shown.items():
        print(f"{name:32s} {value:14.6g} {unit}")
    result_doc = {
        "workload": args.workload, "env": env, "params": w.params(),
        "counters": first_counters, "rep_wall_s": [r["wall"] for r in reps],
        "rep_yardstick_s": [r["yardstick"] for r in reps],
        "rep_rel": [r["rel"] for r in reps],
        "traced_rep_wall_s": [r["wall"] for r in traced],
        "end_to_end": e2e, "per_layer": per_layer, "failures": failures,
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out_dir / f"{stem}.json").write_text(json.dumps(result_doc, indent=1, default=str))
    if trace:
        (out_dir / f"{stem}-spans.json").write_text(json.dumps(tracer.spans))
    names = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    metrics = {m["name"]: {"value": (per_layer if trace else e2e)[m["name"]][0],
                           "unit": m["unit"]} for m in names}
    correct = not failures
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def stop_multiprocessing_helpers() -> None:
    """Stop and wait for the forkserver and resource tracker, if a pool started them.

    The pool probes use the program's own `multiprocessing.Pool`, whose
    default start method differs between platforms and Python versions;
    with `fork` (Linux up to 3.13) neither helper is ever started.
    """
    from multiprocessing import forkserver, resource_tracker

    for helper in (forkserver._forkserver, resource_tracker._resource_tracker):
        stop = getattr(helper, "_stop", None)
        if stop is not None:
            with contextlib.suppress(OSError, ChildProcessError):
                stop()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every input, for the smoke test")
    parser.add_argument("--out", default=None, help="directory for result files "
                        "(default .perfbench-out in the repository root)")
    args = parser.parse_args(argv)
    if args.workload != "all":
        try:
            return run_workload(args)
        finally:
            stop_multiprocessing_helpers()
    code = 0
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace), "--size", args.size]
        if args.out:
            cmd += ["--out", args.out]
        code = max(code, subprocess.run(cmd).returncode)
    return code


if __name__ == "__main__":
    if sys.argv[1:] == [YARDSTICK_SERVER]:
        sys.exit(_yardstick_server())
    sys.exit(main())
