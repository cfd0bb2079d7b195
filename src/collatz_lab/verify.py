"""The sweep's run layer: checkpointed convergence sweeps over a range of starts.

`RangeVerifier` confirms that every start in [lo, hi] iterates to 1.  The
kernel in `sweep`, called through that module object so that a test that
replaces a kernel function there reaches both passes, verifies the range in
ascending chunks, in a worker pool when a pass has two or more.  At most
once every `CHECKPOINT_INTERVAL` seconds, and after a pass's last chunk, an
atomic JSON checkpoint is written that a later run can resume from.
"""

from __future__ import annotations

import contextlib
import functools
import os
import time
from itertools import pairwise
from pathlib import Path
from typing import NamedTuple

from . import sweep
from .report import (RangeReport, RangeRun, document, read_document, require_ints,
                     require_range, witnesses_from_json, witnesses_to_json)
from .sweep import SweepStats
from .trajectory import DEFAULT_BUDGET, require_budget

TASK_VERIFY_RANGE = "verify-range"
#: One period of the deepest sieve: the fewest starts that `sweep._plan_depth` gives depth S.
DEFAULT_CHUNK_SIZE = 1 << sweep.S
#: Least seconds between two checkpoint writes within a pass (Young, CACM 17(9), 1974).
CHECKPOINT_INTERVAL = 1.0
#: The clock that paces checkpoint writes; tests replace it.
_clock = time.monotonic


class CheckpointError(Exception):
    """A checkpoint file is unreadable, unwritable, or does not match the requested run."""


class Checkpoint(NamedTuple):
    """Atomic progress snapshot of a `verify-range` sweep.

    Resuming from a checkpoint and running to completion yields the same
    final report as an uninterrupted run; witnesses found so far are part
    of the snapshot for exactly that reason.  Left out, each witness field
    is the empty tuple, as a default is one object shared by every record.
    """

    lo: int
    hi: int
    budget: int
    verified_up_to: int
    stats: SweepStats
    violations: list[tuple[int, str]] | tuple[()] = ()
    inconclusive: list[tuple[int, str]] | tuple[()] = ()
    timestamp: str = ""

    def to_json(self) -> str:
        return document(
            TASK_VERIFY_RANGE,
            range=[self.lo, self.hi],
            budget=self.budget,
            verified_up_to=self.verified_up_to,
            stats=self.stats.to_json_dict(),
            violations=witnesses_to_json(self.violations),
            inconclusive=witnesses_to_json(self.inconclusive),
            timestamp=self.timestamp,
        )


def load_checkpoint(path: Path) -> Checkpoint:
    """Read a checkpoint file and check every rule within it; CheckpointError on anything off."""
    try:
        doc = read_document(Path(path).read_text(), "checkpoint")
        if doc.get("task") != TASK_VERIFY_RANGE:
            raise CheckpointError(
                f"checkpoint {path} is for task {doc.get('task')!r}, not {TASK_VERIFY_RANGE}"
            )
        if "budget" not in doc:
            raise CheckpointError(
                f"checkpoint {path} has no budget field; its report cannot be resumed"
            )
        lo, hi = doc["range"]
        budget, verified_up_to = doc["budget"], doc["verified_up_to"]
        require_ints("checkpoint range", [lo, hi])
        require_ints("checkpoint budget", [budget])
        require_ints("checkpoint verified_up_to", [verified_up_to])
        values = [doc["stats"][name] for name in SweepStats._fields]
        require_ints("checkpoint stats", values)
        stats = SweepStats(*values)
        # The chunk at lo always sets both records, so they name starts swept so far.
        at = sorted((stats.max_steps_at, stats.max_peak_at))
        if not lo <= at[0] <= at[1] <= verified_up_to <= hi:
            raise CheckpointError(
                f"checkpoint {path} has stats at {at[0]} and {at[1]} and verified_up_to "
                f"{verified_up_to}, outside the order {lo} <= stats <= verified_up_to <= {hi}"
            )
        witnesses = {k: witnesses_from_json(doc[k]) for k in ("violations", "inconclusive")}
        for name, found in witnesses.items():
            # A sweep bisects these lists, and a resume appends to them.
            xs = [lo - 1, *(x for x, _ in found), verified_up_to + 1]
            if found and not all(a < b for a, b in pairwise(xs)):
                raise CheckpointError(
                    f"checkpoint {path} {name} witnesses are not strictly ascending "
                    f"within [{lo}, {verified_up_to}]"
                )
        return Checkpoint(
            lo=lo,
            hi=hi,
            budget=budget,
            verified_up_to=verified_up_to,
            stats=stats,
            timestamp=str(doc.get("timestamp", "")),
            **witnesses,
        )
    except (OSError, ValueError, KeyError, TypeError, OverflowError, RecursionError) as exc:
        raise CheckpointError(f"unreadable checkpoint {path}: {exc}") from exc


def write_checkpoint(path: Path, checkpoint: Checkpoint) -> None:
    """Write atomically: the file is always a complete snapshot, never torn.

    A write or rename that fails removes its temporary file.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w") as fh:
            fh.write(checkpoint.to_json())
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            tmp.unlink()
        raise


class RangeVerifier:
    """Ascending chunked convergence sweep with atomic checkpointing.

    Chunks are verified strictly in ascending order (a chunk is only
    marked verified once everything below it is), which is what makes the
    below-floor early exit of each orbit sound.  A pass over C chunks with
    W workers starts min(W, C) processes, and none when that is one.
    Per-start results do not depend on worker layout, so any worker count
    produces the identical report.
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
        require_range(lo, hi)
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        require_budget(budget)
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
        if self.checkpoint_path and self.checkpoint_path.is_dir():
            raise CheckpointError(
                f"cannot write checkpoint {self.checkpoint_path}: it is a directory"
            )

        if resume:
            if self.checkpoint_path is None:
                raise CheckpointError("resume requires a checkpoint path")
            cp = load_checkpoint(self.checkpoint_path)
            if (cp.lo, cp.hi, cp.budget) != (lo, hi, budget):
                raise CheckpointError(
                    f"checkpoint is for [{cp.lo}, {cp.hi}] at budget {cp.budget}, "
                    f"not [{lo}, {hi}] at budget {budget}"
                )
            self._record = cp
        else:
            # Lists: `_consume` appends each chunk's witnesses to them.
            self._record = Checkpoint(lo, hi, budget, verified_up_to=lo - 1, stats=SweepStats(),
                                      violations=[], inconclusive=[])
        # verified_up_to of the checkpoint file as this run resumed or last wrote it, else None.
        self.saved_up_to = self._record.verified_up_to if resume else None
        # Whether the record holds whole chunks that the checkpoint file does not, and when
        # the pass started or last wrote it.
        self._unsaved = False
        self._saved_at = 0.0

    @property
    def stats(self) -> SweepStats:
        return self._record.stats

    def checkpoint(self) -> Checkpoint:
        """Snapshot of the progress so far (requires at least one finished chunk)."""
        record = self._record
        if record.verified_up_to < self.lo:
            raise CheckpointError("no chunk verified yet, nothing to checkpoint")
        from datetime import datetime, timezone  # only a checkpoint pays for the import

        return record._replace(
            violations=list(record.violations),
            inconclusive=list(record.inconclusive),
            timestamp=datetime.now(timezone.utc).isoformat(),
        )

    def _consume(self, result: tuple[int, SweepStats, list, list], memo: sweep._ChaseMemo) -> None:
        """Merge the next chunk in ascending order; checkpoint if the interval has passed.

        The chunk is complete, second pass included (`sweep._second_pass`),
        before the record is touched: the record takes whole chunks only.

        The checkpoint is written only when `CHECKPOINT_INTERVAL` seconds
        have passed since the pass started or last wrote it; `run` writes
        the rest.  A merge cut short (an exception or KeyboardInterrupt
        inside it) may leave witnesses appended to a record that has not
        taken the chunk, so until the new record is swapped in there is
        nothing unsaved that may be written.
        """
        record = self._record
        task = (record.verified_up_to + 1, result[0], self.lo, self.budget)
        found = (record.violations, record.inconclusive)
        hi, stats, violations, inconclusive = sweep._second_pass(task, result, found, memo)
        self._unsaved = False
        merged = record.stats.merged(stats)
        record.violations.extend(violations)
        record.inconclusive.extend(inconclusive)
        self._record = record._replace(verified_up_to=hi, stats=merged)
        self._unsaved = self.checkpoint_path is not None
        if self._unsaved and _clock() - self._saved_at >= CHECKPOINT_INTERVAL:
            self._save()

    def _save(self) -> None:
        write_checkpoint(self.checkpoint_path, self.checkpoint())
        self.saved_up_to = self._record.verified_up_to
        self._unsaved = False
        self._saved_at = _clock()

    def run(self, max_chunks: int | None = None) -> RangeReport | None:
        """Process pending chunks (all of them unless `max_chunks` limits the pass).

        Returns the final report once the whole range is verified, None if
        chunks remain (partial pass).  The pool, or this process when there
        is none, runs each chunk's first kernel pass, and `_consume` a
        second one where a witness needs it.  However the pass ends, when it
        has run out of chunks, reached `max_chunks` or is unwinding from an
        exception or KeyboardInterrupt, the checkpoint is written for the
        last chunk it consumed, unless that one is written already or its
        merge was cut short; a chunk stopped in either kernel pass is not
        consumed.  A failed write then does not mask the exception that
        ended the pass: that one propagates, with the write error as its
        cause.  Only a hard kill (SIGKILL, power loss) can lose the chunks
        consumed since the last write, at most about `CHECKPOINT_INTERVAL`
        seconds of them; a resume verifies them again and ends with the
        same report.
        """
        if max_chunks is not None and max_chunks < 0:
            raise ValueError(f"max_chunks must be >= 0, got {max_chunks}")
        run = RangeRun("convergence", self.lo, self.hi)
        # The plan is a lazy range of chunk starts; its full length is never taken.
        size = self.chunk_size
        starts = range(self._record.verified_up_to + 1, self.hi + 1, size)[:max_chunks]
        tasks = ((a, min(a + size - 1, self.hi), self.lo, self.budget) for a in starts)
        processes = len(starts[: self.workers])
        # A pool pays off only for two or more chunks.  imap preserves
        # submission order: chunks are consumed, and therefore checkpointed,
        # strictly ascending.
        pool = None
        if processes > 1:
            import multiprocessing  # only a pass with a pool pays for the import

            pool = multiprocessing.Pool(processes, sweep._start_worker)
        # One chase memo for the chunks this process walks, which dies with the pass: a
        # verifier kept after its run holds none.  Pool workers keep their own.
        memo = sweep._ChaseMemo()
        kernel = sweep._sweep_chunk if pool else functools.partial(sweep._sweep_chunk, memo=memo)
        self._saved_at = _clock()
        try:
            with pool or contextlib.nullcontext():
                for result in (pool.imap if pool else map)(kernel, tasks):
                    self._consume(result, memo)
        except BaseException as exc:
            if self._unsaved:
                try:
                    self._save()
                except Exception as write_error:
                    raise exc from write_error
            raise
        if self._unsaved:
            self._save()
        if self._record.verified_up_to < self.hi:
            return None
        return run.report(self._record.violations, self._record.inconclusive)
