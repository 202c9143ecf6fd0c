"""Measurement plumbing: spans, the engine call counter, statistics,
correctness checks, CLI subprocess runs and the environment record.

Spans are recorded from the benchmark's own code around each call into a
layer of ``median_consensus``; the program itself is not instrumented.
"""

from __future__ import annotations

import hashlib
import math
import os
import platform
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from statistics import fmean

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
THREADS_ENV_VAR = "MEDIAN_CONSENSUS_THREADS"
CLI_TIMEOUT_S = 120

# -- statistics ---------------------------------------------------------------


def tail_percentile(samples, beyond: int = 10) -> tuple[float, float, int]:
    """The highest percentile that still has ``beyond`` samples above it.

    Returns ``(value, percentile, sample_count)``: the value is the
    ``beyond + 1``-th largest sample, and ``percentile`` the share of samples
    at or below its rank, in percent.
    """
    n = len(samples)
    if n <= beyond:
        raise ValueError(f"need more than {beyond} samples for a tail, got {n}")
    ordered = sorted(samples)
    return ordered[n - beyond - 1], 100.0 * (n - beyond) / n, n


def value_at_percentile(samples, percentile: float):
    """The smallest sample with at least ``percentile`` percent of the
    samples at or below it; on the same samples it inverts tail_percentile."""
    ordered = sorted(samples)
    k = math.ceil(round(len(ordered) * percentile / 100, 9)) - 1
    return ordered[max(0, k)]


def item_means(values, n_items: int) -> list[float]:
    """The mean of each item's values, where the k-th value measured item
    ``k % n_items``.

    A mean, not a median: the host's speed switches between two levels for
    seconds at a time, and a median of a few samples jumps from one level to
    the other, while a mean moves with the share of time spent at each.
    """
    if len(values) < n_items:
        raise ValueError(f"need a value for each of {n_items} items, got {len(values)}")
    return [fmean(values[i::n_items]) for i in range(n_items)]


def reference_work() -> int:
    """A fixed computation that uses no code of the program: fraction sums,
    a sort and dict updates, the kinds of work the program's layers do.  Its
    time measures the host's speed."""
    total = 0
    for i in range(600):
        total += (Fraction(i % 7 + 1, i % 13 + 2) + Fraction(1, i % 5 + 3)).numerator
    xs = [(i * 7919) % 10007 for i in range(6000)]
    xs.sort()
    buckets: dict[int, int] = {}
    for x in xs:
        buckets[x % 101] = buckets.get(x % 101, 0) + x
    return total + len(buckets)


def failed_frac(failed: int, attempted: int) -> float:
    """Failed checks as a share of checks attempted."""
    if attempted < 1:
        raise ValueError("no checks were attempted")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed={failed} outside 0..attempted={attempted}")
    return failed / attempted


# -- spans ----------------------------------------------------------------------


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    op: int
    index: int = 0
    end: float = 0.0
    inner: float = 0.0  # time in aggregated calls (the engine) made while this span was innermost

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans) -> list[float]:
    """Per span: its duration minus the time its child spans cover and the
    aggregated call time charged to it.  Overlapping children count once."""
    children: dict[int, list[Span]] = {}
    for sp in spans:
        if sp.parent is not None:
            children.setdefault(sp.parent, []).append(sp)
    out = []
    for sid, sp in enumerate(spans):
        covered = 0.0
        reach = sp.start
        for child in sorted(children.get(sid, ()), key=lambda c: c.start):
            lo = max(child.start, reach)
            hi = min(child.end, sp.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(sp.duration - covered - sp.inner)
    return out


class Tracer:
    """In-memory span recorder.  A span opened with no enclosing span starts a
    new operation; nested spans share its operation id."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._ops = 0

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        if parent is None:
            self._ops += 1
        sp = Span(name, time.perf_counter(), parent, self._ops, index=len(self.spans))
        self._stack.append(sp.index)
        self.spans.append(sp)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()

    def charge(self, seconds: float) -> None:
        if self._stack:
            self.spans[self._stack[-1]].inner += seconds

    def total(self, name: str) -> float:
        return sum(sp.duration for sp in self.spans if sp.name == name)

    def self_total(self, name: str) -> float:
        selfs = self_times(self.spans)
        return sum(t for sp, t in zip(self.spans, selfs) if sp.name == name)

    def children_total(self, parent: Span, exclude_prefix: str) -> float:
        return sum(
            sp.duration
            for sp in self.spans[parent.index + 1 :]
            if sp.parent == parent.index and not sp.name.startswith(exclude_prefix)
        )

    def top_level_total(self, exclude_prefix: str) -> float:
        return sum(
            sp.duration
            for sp in self.spans
            if sp.parent is None and not sp.name.startswith(exclude_prefix)
        )

    def to_json(self) -> list[dict]:
        selfs = self_times(self.spans)
        return [
            {
                "name": sp.name,
                "start": sp.start,
                "end": sp.end,
                "parent": sp.parent,
                "op": sp.op,
                "self": st,
            }
            for sp, st in zip(self.spans, selfs)
        ]


class EngineCounter:
    """Substitutes a counting wrapper for ``_engine.update_value`` while active.

    Every caller looks the function up through the module at call time, so
    all calls made in this process are counted.  Worker processes of a
    multi-worker ensemble are not counted.  The time of each call is charged
    to the innermost open span instead of getting a span of its own.
    """

    def __init__(self, engine_module, tracer: Tracer):
        self._module = engine_module
        self._tracer = tracer
        self._orig = None
        self.calls = 0
        self.useful = 0
        self.seconds = 0.0

    def __enter__(self):
        orig = self._orig = self._module.update_value
        clock = time.perf_counter
        charge = self._tracer.charge

        def counted(int_rows, state, i):
            t0 = clock()
            new = orig(int_rows, state, i)
            dt = clock() - t0
            self.calls += 1
            self.seconds += dt
            if new != state[i]:
                self.useful += 1
            charge(dt)
            return new

        self._module.update_value = counted
        return self

    def __exit__(self, *exc):
        self._module.update_value = self._orig
        return False

    @property
    def useful_ratio(self) -> float:
        return self.useful / self.calls if self.calls else 0.0


# -- checks -----------------------------------------------------------------------


class Checks:
    """Counts correctness checks; a failed check never stops the run."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            msg = f"{name}: {detail}" if detail else name
            self.failures.append(msg)
            print(f"CHECK FAILED {msg}", file=sys.stderr)
        return ok

    @property
    def failed(self) -> int:
        return len(self.failures)


# -- subprocesses and environment -------------------------------------------------


def run_cli(args, cwd) -> tuple[int, bytes]:
    """Run the CLI in a fresh interpreter; returns (exit code, stdout)."""
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    proc = subprocess.run(
        [sys.executable, "-m", "median_consensus.cli", *map(str, args)],
        cwd=cwd,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        timeout=CLI_TIMEOUT_S,
        check=False,
    )
    if proc.stderr:
        sys.stderr.write(proc.stderr.decode(errors="replace"))
    return proc.returncode, proc.stdout


def file_sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _git_commit() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=10,
            check=False,
        )
    except OSError:
        return None
    if proc.returncode != 0:
        return None
    return proc.stdout.strip() or None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "median_consensus").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment() -> dict:
    import numpy

    return {
        "commit": _git_commit(),
        "src_sha256": _source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "platform": platform.platform(),
        THREADS_ENV_VAR: os.environ.get(THREADS_ENV_VAR),
    }
