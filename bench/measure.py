"""Running one child process as a benchmark op, and the rules that turn op
outcomes into metrics.

Every child gets an address-space cap and a wall-time limit.  Its outcome is
classified as one of ``OUTCOMES``; every class except ``ok`` is a failed op.
A failed op is charged the time limit as its latency and the memory cap as
its peak RSS, so that turning a failure into an answer can only improve the
timing and memory metrics.
"""

from __future__ import annotations

import math
import os
import resource
import signal
import subprocess
import threading
import time
from dataclasses import dataclass
from pathlib import Path

OUTCOMES = ("ok", "refused", "memory_error", "killed", "timeout", "other_exit")
EXIT_CAP = 4  # defq's exit code for a size cap it refuses up front
OP_LIMIT_S = 30.0  # wall-time limit of one op
CAP_MB = 2048  # address-space cap of every child

MIB = 1 << 20


@dataclass(frozen=True)
class Outcome:
    """What one child op did: its class, client-side latency, peak RSS and
    captured output."""

    cls: str
    seconds: float
    rss_mb: float
    returncode: int
    stdout: str
    stderr: str

    @property
    def ok(self) -> bool:
        return self.cls == "ok"


def classify(returncode: int, stderr: str, timed_out: bool) -> str:
    """Outcome class from how the child ended.  ``returncode`` is negative
    for a child ended by a signal, as in ``subprocess``."""
    if timed_out:
        return "timeout"
    if returncode == 0:
        return "ok"
    if returncode == EXIT_CAP:
        return "refused"
    if returncode < 0:
        return "killed"
    if "MemoryError" in stderr:
        return "memory_error"
    return "other_exit"


def run_child(
    argv: list[str],
    *,
    env: dict[str, str],
    cap_mb: int,
    limit_s: float,
    out_dir: Path,
) -> Outcome:
    """Run ``argv`` to completion under the caps and report its outcome.

    The latency runs from just before the spawn to the return of ``wait4``,
    which also supplies the child's own peak RSS.  Output goes to files so
    that a chatty child cannot block on a full pipe.
    """
    cap = cap_mb * MIB

    def limit_memory() -> None:
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    out_path, err_path = out_dir / "op.out", out_dir / "op.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        started = time.perf_counter()
        child = subprocess.Popen(
            argv, env=env, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
            preexec_fn=limit_memory,
        )
        timed_out = threading.Event()

        def kill() -> None:
            timed_out.set()
            try:
                os.kill(child.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass

        timer = threading.Timer(limit_s, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(child.pid, 0)
        finally:
            timer.cancel()
        seconds = time.perf_counter() - started
        timer.join()
    child.returncode = os.waitstatus_to_exitcode(status)
    stdout = out_path.read_text(encoding="utf-8", errors="replace")
    stderr = err_path.read_text(encoding="utf-8", errors="replace")
    cls = classify(child.returncode, stderr, timed_out.is_set())
    return Outcome(cls, seconds, usage.ru_maxrss / 1024.0, child.returncode, stdout, stderr)


def charged(outcome: Outcome, limit_s: float, cap_mb: int) -> tuple[float, float]:
    """(latency, peak RSS) an op counts for: as measured when it answered,
    the time limit and the memory cap when it did not."""
    if outcome.ok:
        return outcome.seconds, outcome.rss_mb
    return limit_s, float(cap_mb)


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile: the smallest value with at least ``p`` percent
    of the samples at or below it."""
    if not values:
        raise ValueError("no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]
