"""Checkpointed convergence sweeps over a range of starts.

`RangeVerifier` confirms that every start in [lo, hi] iterates to 1.  It
works through the range in ascending chunks, optionally in a worker pool,
and after every chunk it writes an atomic JSON checkpoint that a later
run can resume from.
"""

from __future__ import annotations

import itertools
import json
import multiprocessing
import os
import time
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Iterator

from .facts import SCHEMA_VERSION, RangeReport, witnesses_from_json, witnesses_to_json
from .trajectory import DEFAULT_BUDGET

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

    def observe(self, n: int, steps: int, peak: int) -> None:
        self.max_steps, self.max_steps_at = _pick(
            self.max_steps, self.max_steps_at, steps, n
        )
        self.max_peak, self.max_peak_at = _pick(self.max_peak, self.max_peak_at, peak, n)

    def merge(self, other: "SweepStats") -> None:
        self.max_steps, self.max_steps_at = _pick(
            self.max_steps, self.max_steps_at, other.max_steps, other.max_steps_at
        )
        self.max_peak, self.max_peak_at = _pick(
            self.max_peak, self.max_peak_at, other.max_peak, other.max_peak_at
        )

    def to_json_dict(self) -> dict:
        return {
            "max_steps": self.max_steps,
            "max_steps_at": self.max_steps_at,
            "max_peak": self.max_peak,
            "max_peak_at": self.max_peak_at,
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "SweepStats":
        return cls(
            max_steps=int(doc["max_steps"]),
            max_steps_at=int(doc["max_steps_at"]),
            max_peak=int(doc["max_peak"]),
            max_peak_at=int(doc["max_peak_at"]),
        )


@dataclass
class Checkpoint:
    """Atomic progress snapshot of a range sweep.

    Resuming from a checkpoint and running to completion yields the same
    final report as an uninterrupted run; witnesses found so far are part
    of the snapshot for exactly that reason.
    """

    task: str
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
            "task": self.task,
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
    """Read and validate a checkpoint file; CheckpointError on anything off."""
    try:
        doc = json.loads(Path(path).read_text())
        if not isinstance(doc, dict):
            raise CheckpointError(f"unreadable checkpoint {path}: not a JSON object")
        if doc.get("schema_version") != SCHEMA_VERSION:
            raise CheckpointError(
                f"unsupported checkpoint schema_version: {doc.get('schema_version')!r}"
            )
        if "budget" not in doc:
            raise CheckpointError(
                f"checkpoint {path} has no budget field; its report cannot be resumed"
            )
        lo, hi = (int(v) for v in doc["range"])
        return Checkpoint(
            task=str(doc["task"]),
            lo=lo,
            hi=hi,
            budget=int(doc["budget"]),
            verified_up_to=int(doc["verified_up_to"]),
            stats=SweepStats.from_json_dict(doc["stats"]),
            violations=witnesses_from_json(doc["violations"]),
            inconclusive=witnesses_from_json(doc["inconclusive"]),
            timestamp=str(doc.get("timestamp", "")),
        )
    except CheckpointError:
        raise
    except (OSError, ValueError, KeyError, TypeError) as exc:
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


def _sweep_chunk(task: tuple[int, int, int, int]) -> tuple[int, SweepStats, list, list]:
    """Verify one chunk [lo, hi] of a sweep whose full range starts at range_lo.

    Each start is followed until it reaches 1 or drops onto a smaller,
    already-verified start; a drop below the whole range is chased to 1
    since nothing below range_lo is covered by this run.

    Two residue classes drop in closed form under the shortcut map: an
    even n reaches n/2 in 1 step with peak n, and n = 4k+1 reaches 3k+1 in
    2 steps with peak (3n+1)/2.  From n >= 2*range_lo on (with n >= 2 and
    budget >= 2) both drops land inside the range, so only n = 4k+3 is
    iterated there; each of the two classes enters the records once per
    chunk, steps at its smallest member and peak at its largest.
    """
    lo, hi, range_lo, budget = task
    violations: list[tuple[int, str]] = []
    inconclusive: list[tuple[int, str]] = []
    no_conclusion = f"no conclusion within {budget} steps"
    sieve_lo = max(lo, 2 * range_lo, 2) if budget >= 2 else hi + 1
    first_iterated = sieve_lo + (3 - sieve_lo) % 4
    # Records over the iterated starts; n ascends, so a strict > keeps the
    # smallest n on ties, as _pick does.
    max_steps, max_steps_at, max_peak, max_peak_at = -1, 0, 0, 0
    direct = range(lo, min(hi, sieve_lo - 1) + 1)
    for n in itertools.chain(direct, range(first_iterated, hi + 1, 4)):
        v = n
        steps = 0
        peak = n
        floor = n if n > 1 else 2  # 1 is already at 1
        while True:
            while v >= floor and steps < budget:
                if v & 1:
                    v = (3 * v + 1) >> 1
                    if v > peak:
                        peak = v
                else:
                    v >>= 1
                steps += 1
            if v >= floor or v >= range_lo or floor == 2:
                break
            floor = 2  # dropped below the range: chase on to 1
        if v >= floor:
            inconclusive.append((n, no_conclusion))
        if steps > max_steps:
            max_steps, max_steps_at = steps, n
        if peak > max_peak:
            max_peak, max_peak_at = peak, n
    stats = SweepStats()
    if max_steps_at:
        stats = SweepStats(max_steps, max_steps_at, max_peak, max_peak_at)
    if sieve_lo <= hi:
        even_lo, even_hi = sieve_lo + (sieve_lo & 1), hi - (hi & 1)
        if even_lo <= even_hi:
            stats.merge(SweepStats(1, even_lo, even_hi, even_hi))
        one_lo, one_hi = sieve_lo + (1 - sieve_lo) % 4, hi - (hi - 1) % 4
        if one_lo <= one_hi:
            stats.merge(SweepStats(2, one_lo, (3 * one_hi + 1) >> 1, one_hi))
    return hi, stats, violations, inconclusive


class RangeVerifier:
    """Ascending chunked convergence sweep with atomic checkpointing.

    Chunks are verified strictly in ascending order (a chunk is only
    marked verified once everything below it is), which is what makes the
    below-floor early exit of each orbit sound.  Per-start results do not
    depend on worker layout, so any worker count produces the identical
    report.
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
            if cp.task != TASK_VERIFY_RANGE or (cp.lo, cp.hi) != (lo, hi):
                raise CheckpointError(
                    f"checkpoint is for {cp.task} [{cp.lo}, {cp.hi}], "
                    f"not {TASK_VERIFY_RANGE} [{lo}, {hi}]"
                )
            if cp.budget != budget:
                raise CheckpointError(
                    f"checkpoint was written with budget {cp.budget}, not {budget}"
                )
            if not lo <= cp.verified_up_to <= hi:
                raise CheckpointError(
                    f"checkpoint verified_up_to {cp.verified_up_to} outside [{lo}, {hi}]"
                )
            self._next = cp.verified_up_to + 1
            self._stats = cp.stats
            self._violations = list(cp.violations)
            self._inconclusive = list(cp.inconclusive)
        else:
            self._next = lo
            self._stats = SweepStats()
            self._violations = []
            self._inconclusive = []

    @property
    def stats(self) -> SweepStats:
        return self._stats

    def checkpoint(self) -> Checkpoint:
        """Snapshot of the progress so far (requires at least one finished chunk)."""
        if self._next == self.lo:
            raise CheckpointError("no chunk verified yet, nothing to checkpoint")
        return Checkpoint(
            task=TASK_VERIFY_RANGE,
            lo=self.lo,
            hi=self.hi,
            budget=self.budget,
            verified_up_to=self._next - 1,
            stats=self._stats,
            violations=self._violations,
            inconclusive=self._inconclusive,
            timestamp=datetime.now(timezone.utc).isoformat(),
        )

    def _pending_chunks(self) -> Iterator[tuple[int, int, int, int]]:
        # Lazy, so that a short pass over a huge range does not build every tuple first.
        a = self._next
        while a <= self.hi:
            b = min(a + self.chunk_size - 1, self.hi)
            yield (a, b, self.lo, self.budget)
            a = b + 1

    def _consume(self, result: tuple[int, SweepStats, list, list]) -> None:
        chunk_hi, stats, violations, inconclusive = result
        self._stats.merge(stats)
        self._violations.extend(violations)
        self._inconclusive.extend(inconclusive)
        self._next = chunk_hi + 1
        if self.checkpoint_path is not None:
            write_checkpoint(self.checkpoint_path, self.checkpoint())

    def run(self, max_chunks: int | None = None) -> RangeReport | None:
        """Process pending chunks (all of them unless `max_chunks` limits the pass).

        Returns the final report once the whole range is verified, None if
        chunks remain (partial pass).
        """
        t0 = time.perf_counter()
        # Chunks this pass runs (ceiling division); a pool pays off only for two or more.
        pending = -(-(self.hi - self._next + 1) // self.chunk_size)
        if max_chunks is not None:
            pending = min(pending, max_chunks)
        tasks = itertools.islice(self._pending_chunks(), max_chunks)
        if self.workers == 1 or pending <= 1:
            for task in tasks:
                self._consume(_sweep_chunk(task))
        else:
            with multiprocessing.Pool(self.workers) as pool:
                # imap preserves submission order: chunks are consumed, and
                # therefore checkpointed, strictly ascending.
                for result in pool.imap(_sweep_chunk, tasks):
                    self._consume(result)
        if self._next <= self.hi:
            return None
        return RangeReport(
            fact_id="convergence",
            lo=self.lo,
            hi=self.hi,
            checked=self.hi - self.lo + 1,
            violations=self._violations,
            inconclusive=self._inconclusive,
            elapsed=time.perf_counter() - t0,
        )
