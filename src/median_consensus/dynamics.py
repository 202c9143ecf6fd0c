"""Asynchronous weighted-median opinion dynamics.

At every tick one node updates its opinion to the weighted median of the
current profile under its own weight row, breaking ties toward its current
opinion (the closest median).  Under the uniform-random schedule each tick
picks one node uniformly with replacement.  A state where every node already
sits at its own median is an equilibrium and the process freezes there.

Opinion values are a self-map: every value along a trajectory already
occurred in the initial profile, so arbitrary totally ordered labels work.
Runs are reproducible: a run is a pure function of (network, initial state,
schedule), and ensembles derive one child seed per replica from the base
seed, so results do not depend on scheduling or worker count.
"""

from __future__ import annotations

import math
import os
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain
from typing import TYPE_CHECKING, Sequence

from . import _engine
from ._io import check_int, is_json_int
from .network import InfluenceNetwork

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "RandomSchedule",
    "LabelUniform",
    "GridUniform",
    "Trajectory",
    "EnsembleReport",
    "default_budget",
    "step",
    "is_equilibrium",
    "run",
    "ensemble",
]


def _rng(seed) -> np.random.Generator:
    """``numpy.random.default_rng(seed)``, importing numpy on first use.

    Only seeded draws need numpy, so commands that draw nothing never load it.
    """
    import numpy

    return numpy.random.default_rng(seed)


def default_budget(n: int) -> int:
    """Default tick budget for random schedules: 200 * n * ln(n + 1)."""
    return max(1, math.ceil(200 * n * math.log(n + 1)))


@dataclass(frozen=True)
class RandomSchedule:
    """Uniform-random node picks with replacement, seeded and budgeted."""

    seed: int
    budget: int | None = None  # None -> default_budget(n)


# numpy draws picks below 2^63 at most (int64), so no distribution offers more.
_MAX_PICKS = 2**63


@dataclass(frozen=True)
class LabelUniform:
    """Initial distribution: each opinion iid uniform over labels 0..k-1.

    A label is its own rank, so ensemble replicas run on ``picks``
    directly, and ``draw`` is the same labels as a tuple."""

    k: int

    def check(self) -> None:
        """Refuse a label count that is not a JSON integer in 1..2^63."""
        if not (is_json_int(self.k) and self.k >= 1):
            raise ValueError("need at least one label")
        if self.k > _MAX_PICKS:
            raise ValueError("need at most 2^63 labels")

    def picks(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """The n drawn labels: the int64 array of one ``rng.integers`` call."""
        self.check()
        return rng.integers(0, self.k, size=n)

    def draw(self, rng: np.random.Generator, n: int) -> tuple:
        return tuple(self.picks(rng, n).tolist())


@dataclass(frozen=True)
class GridUniform:
    """Initial distribution: iid uniform over an evenly spaced rational grid
    of `points` values covering [-1, 1].

    ``picks`` draws grid indices; index k stands for (2k - span) / span,
    with span = points - 1, which rises strictly with k, so the indices
    order the nodes as their values do.  Ensemble replicas run on the
    indices, and only ``draw`` builds Fractions."""

    points: int = 201

    def check(self) -> None:
        """Refuse a point count that is not a JSON integer in 2..2^63."""
        if not (is_json_int(self.points) and self.points >= 2):
            raise ValueError("grid needs at least two points")
        if self.points > _MAX_PICKS:
            raise ValueError("grid needs at most 2^63 points")

    def picks(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """The n drawn grid indices: the int64 array of one ``rng.integers`` call."""
        self.check()
        return rng.integers(0, self.points, size=n)

    def draw(self, rng: np.random.Generator, n: int) -> tuple:
        picks = self.picks(rng, n).tolist()
        span = self.points - 1
        # One shared Fraction per distinct drawn index, never the whole grid.
        grid = {k: Fraction(2 * k - span, span) for k in set(picks)}
        return tuple(map(grid.__getitem__, picks))


@dataclass(frozen=True)
class Trajectory:
    """One run: initial state, the opinion changes, and how it ended.

    ``steps`` records only ticks that changed an opinion, as
    (time, node, old, new); ticks that picked an already-stable node consume
    time but appear in no record.  Applying the steps to ``initial`` in
    order reproduces ``terminal`` exactly.
    """

    initial: tuple
    steps: tuple
    terminal: tuple
    converged: bool
    steps_used: int

    def replay(self) -> tuple:
        state = list(self.initial)
        last_t = 0
        for t, node, old, new in self.steps:
            if t <= last_t:
                raise ValueError("trajectory steps must have increasing times")
            if state[node] != old:
                raise ValueError(f"step at t={t} disagrees with the replayed state")
            state[node] = new
            last_t = t
        return tuple(state)


def _validate_state(net: InfluenceNetwork, x: Sequence) -> list:
    vals = list(x)
    if len(vals) != net.n:
        raise ValueError(f"state length {len(vals)} != n={net.n}")
    return vals


def step(net: InfluenceNetwork, x: Sequence, i: int) -> tuple:
    """Apply one update at node i; returns the new state."""
    vals = _validate_state(net, x)
    if not (is_json_int(i) and 0 <= i < net.n):
        raise ValueError(f"node {i} out of range")
    state, table = _engine.encode_profile(vals)
    new = _engine.update_value(net.integer_rows, state, i)
    vals[i] = table[new]
    return tuple(vals)


def is_equilibrium(net: InfluenceNetwork, x: Sequence) -> bool:
    """Is every node already at its own closest weighted median?"""
    state, _ = _engine.encode_profile(_validate_state(net, x))
    return not _masses(net, state)[2]


def _random_ticks(rng: np.random.Generator, n: int, budget: int):
    """``budget`` uniform picks of ``range(n)``, drawn lazily in chunks of
    4096; the ticks come straight from the chunk lists, with no Python
    frame resumed per tick."""
    return chain.from_iterable(
        rng.integers(0, n, size=min(4096, budget - k)).tolist() for k in range(0, budget, 4096)
    )


def _masses(net, state):
    """``(lt, le, unstable)`` of an encoded state, in Python: each node's
    row mass on ranks below its own and at or below it, and the set of
    nodes off their weighted median (``2 * le < d`` or ``2 * lt > d``, d the
    row's denominator).  An equal-weight row (``d == len(nbrs)``, as rows
    are in lowest terms) is read as its sorted ranks and two bisections.
    This is the reference set-up, and the only one for ``run``,
    ``is_equilibrium``, fixed or custom ensemble states and networks
    without ``flat_rows``."""
    lt = []
    le = []
    unstable = set()
    for i, (v, (nbrs, ws, d)) in enumerate(zip(state, net.integer_rows)):
        if d == len(nbrs):
            rk = sorted(map(state.__getitem__, nbrs))
            a = bisect_left(rk, v)
            b = bisect_right(rk, v, a)
        else:
            a = b = 0
            for j, w in zip(nbrs, ws):
                u = state[j]
                if u <= v:
                    b += w
                    if u < v:
                        a += w
        lt.append(a)
        le.append(b)
        if 2 * b < d or 2 * a > d:
            unstable.add(i)
    return lt, le, unstable


def _flat_masses(flat, picks):
    """``_masses`` in one NumPy pass over ``net.flat_rows``, for an int64
    array of ranks: gather each entry's neighbor rank and its row's own
    rank, sum the weights below and at or below per row (``reduceat``; no
    row is empty), and convert to the same lists and set."""
    import numpy as np

    nbrs, wints, starts, lengths, denoms = flat
    u = picks[nbrs]
    v = np.repeat(picks, lengths)
    lt = np.add.reduceat(wints * (u < v), starts)
    le = np.add.reduceat(wints * (u <= v), starts)
    unstable = np.flatnonzero((2 * le < denoms) | (2 * lt > denoms))
    return lt.tolist(), le.tolist(), set(unstable.tolist())


def _run_encoded(net, state, ticks, budget, masses):
    """Core loop over an encoded state; returns (steps, converged, used).

    ``masses`` is the state's set-up, ``(lt, le, unstable)`` from
    ``_masses`` or, for seeded replicas, ``_flat_masses``: each node j
    keeps two masses of its row, ``lt[j]`` on ranks below its own value v
    and ``le[j]`` on ranks at or below it.  With d its row's ``denom``, j
    sits at a weighted median exactly when ``2 * le[j] >= d`` and
    ``2 * lt[j] <= d``.  When node i moves between ``lo`` and ``hi``
    (its old and new rank in order), only a listener j with v in
    ``[lo, hi]`` changes: w_ji leaves or joins ``lt[j]`` unless v is
    ``lo`` and ``le[j]`` unless v is ``hi``, as i moves up or down
    (``net.listener_weights``).  A row is
    read only when its node moves: an equal-weight row (``d ==
    len(nbrs)``, as rows are in lowest terms) as the order statistics at
    ``(d - 1) // 2`` and ``d // 2`` of its sorted ranks, any other row
    through ``_engine.median_masses``.  The read sets the moved node's
    masses at its new value, with its own weight still on ``old``; a
    self-loop then moves that weight as any listener's.
    """
    lt, le, unstable = masses
    records = []
    if not unstable:
        return records, True, 0
    rows = net.integer_rows
    listeners = net.listener_weights
    median_masses = _engine.median_masses
    denoms = [d for _, _, d in rows]
    t = 0
    for i in ticks:
        t += 1
        if i in unstable:
            old = state[i]
            row = nbrs, _, d = rows[i]
            if d == len(nbrs):
                rk = sorted(map(state.__getitem__, nbrs))
                # An unstable node lies outside its median interval.
                m = rk[(d - 1) // 2]
                new = m if old < m else rk[d // 2]
                a = lt[i] = bisect_left(rk, new)
                le[i] = bisect_right(rk, new, a)
            else:
                new, lt[i], le[i] = median_masses(row, state, old)
            state[i] = new
            records.append((t, i, old, new))
            unstable.discard(i)
            nodes, ws = listeners[i]
            # Masses fall by w_ji when i moves up and rise when it moves down.
            lo, hi, sign = (old, new, -1) if old < new else (new, old, 1)
            for j, w in zip(nodes, ws):
                v = state[j]
                if lo <= v <= hi:
                    if v != lo:
                        lt[j] += sign * w
                    if v != hi:
                        le[j] += sign * w
                    d = denoms[j]
                    if 2 * le[j] < d or 2 * lt[j] > d:
                        unstable.add(j)
                    else:
                        unstable.discard(j)
            if not unstable:
                return records, True, t
    return records, False, budget


def run(net: InfluenceNetwork, x0: Sequence, schedule) -> Trajectory:
    """Run the dynamics from ``x0`` under a schedule.

    ``schedule`` is either an explicit node sequence (replayed in order,
    budget = its length) or a :class:`RandomSchedule`.  The run halts as
    soon as the state is an equilibrium -- checked incrementally by
    rechecking only nodes whose median can have moved -- or when the tick
    budget is exhausted.  A random schedule's ``seed`` and ``budget`` must
    be integers, the seed at least 0 and the budget at least 1, before
    anything is drawn.
    """
    vals = _validate_state(net, x0)
    state, table = _engine.encode_profile(vals)
    if isinstance(schedule, RandomSchedule):
        budget = schedule.budget if schedule.budget is not None else default_budget(net.n)
        check_int("budget", budget, 1)
        check_int("seed", schedule.seed, 0)
        rng = _rng(schedule.seed)
        ticks = _random_ticks(rng, net.n, budget)
    else:
        explicit = list(schedule)
        for i in explicit:
            if not (is_json_int(i) and 0 <= i < net.n):
                raise ValueError(f"schedule node {i} out of range")
        budget = len(explicit)
        ticks = iter(explicit)
    records, converged, used = _run_encoded(net, state, ticks, budget, _masses(net, state))
    steps = tuple((t, i, table[old], table[new]) for t, i, old, new in records)
    terminal = tuple(table[v] for v in state)
    return Trajectory(
        initial=tuple(vals),
        steps=steps,
        terminal=terminal,
        converged=converged,
        steps_used=used,
    )


# -- ensembles ---------------------------------------------------------------


def _census_key(terminal: tuple) -> str:
    """Canonical form of a terminal state up to order-preserving relabeling.

    Replicas pass their terminal ranks, which give the same key as the
    decoded values since the encoding preserves order."""
    distinct = sorted(set(terminal))
    text = dict(zip(distinct, map(str, range(len(distinct)))))
    return ",".join(map(text.__getitem__, terminal))


@dataclass(frozen=True)
class EnsembleReport:
    """Aggregate of independent replicas of one run configuration."""

    replicas: int
    seed: int
    budget: int
    converged_count: int
    consensus_count: int
    exhausted_count: int
    steps_mean: float
    steps_min: int
    steps_max: int
    census: dict = field(compare=False)

    @property
    def consensus_fraction(self) -> float:
        return self.consensus_count / self.replicas

    def to_json_dict(self) -> dict:
        return {
            "replicas": self.replicas,
            "seed": self.seed,
            "budget": self.budget,
            "converged": self.converged_count,
            "consensus": self.consensus_count,
            "budget_exhausted": self.exhausted_count,
            "consensus_fraction": self.consensus_fraction,
            "steps": {
                "mean": self.steps_mean,
                "min": self.steps_min,
                "max": self.steps_max,
            },
            "terminal_census": dict(sorted(self.census.items())),
        }


def _draw_initial(x0_source, rng: np.random.Generator, n: int) -> tuple:
    if hasattr(x0_source, "draw"):
        state = tuple(x0_source.draw(rng, n))
    else:
        state = tuple(x0_source)
    if len(state) != n:
        raise ValueError(f"initial state length {len(state)} != n={n}")
    return state


def _replica_summary(net, x0_source, base_seed, r, budget):
    """Replica ``r``: its generator ``[base_seed, r]`` draws the initial
    state, then the ticks.  The run starts from ranks: the picks of an exact
    ``LabelUniform`` or ``GridUniform`` (a subclass may override ``draw``),
    a copy of a fixed state's ranks, or, for any other ``draw`` object, its
    draw encoded.  Picks on a network with ``flat_rows`` (every denominator
    below 2^62) get their masses from ``_flat_masses``; every other replica
    from ``_masses``."""
    rng = _rng([base_seed, r])
    flat = None
    if type(x0_source) in (LabelUniform, GridUniform):
        picks = x0_source.picks(rng, net.n)
        state = picks.tolist()
        flat = net.flat_rows
    elif hasattr(x0_source, "draw"):
        state, _ = _engine.encode_profile(_draw_initial(x0_source, rng, net.n))
    else:
        state = x0_source.copy()
    masses = _masses(net, state) if flat is None else _flat_masses(flat, picks)
    ticks = _random_ticks(rng, net.n, budget)
    _, converged, used = _run_encoded(net, state, ticks, budget, masses)
    # The ranks order the nodes as their values do, so consensus and the
    # census read the terminal ranks as they would the decoded values.
    consensus = converged and len(set(state)) == 1
    return converged, consensus, used, _census_key(state)


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the
    platform has one, else ``os.cpu_count()``."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_block(send, net, x0_source, base_seed, block, budget):
    """Worker process: run the replicas of ``block`` and send one message,
    their summaries in order or the exception that stopped them."""
    try:
        message = [_replica_summary(net, x0_source, base_seed, r, budget) for r in block]
    except Exception as exc:
        message = exc
    send.send(message)
    send.close()


def ensemble(
    net: InfluenceNetwork,
    x0_source,
    replicas: int,
    seed: int,
    *,
    budget: int | None = None,
    workers: int | None = None,
) -> EnsembleReport:
    """Run independent replicas and aggregate.

    ``x0_source`` is either a fixed state or a distribution object with a
    ``draw(rng, n)`` method (:class:`LabelUniform`, :class:`GridUniform`).
    Replicas of a :class:`LabelUniform` or :class:`GridUniform` run on its
    integer picks, so no replica builds or encodes opinion values; a fixed
    state is encoded once, and another ``draw`` object's draw once per
    replica.  Picks start from masses summed in one NumPy pass over the
    network's ``flat_rows``, built here once, unless a row's denominator
    reaches 2^62; every other replica starts from the Python ``_masses``.
    Replica ``r`` derives its own generator from ``[seed, r]``, so reports
    are identical for any worker count.  ``workers`` (default 1, never more
    than ``replicas`` or the CPUs this process may run on) splits the replicas
    into that many contiguous blocks.  The calling process runs the first
    block itself; each other block runs in a process of its own (forked
    wherever the platform can fork), which receives the network and the
    fixed state's ranks or the draw object once and sends back one
    message: its summaries, or the exception that stopped it.  A worker
    that dies without a message is an error, and no worker outlives the
    call.  ``seed`` must be an integer of at least 0, and ``replicas``,
    ``budget`` and ``workers`` integers of at least 1; these, a fixed
    state and a label or point count are all checked before any replica
    or worker starts.
    """
    check_int("replicas", replicas, 1)
    check_int("seed", seed, 0)
    eff_budget = budget if budget is not None else default_budget(net.n)
    check_int("budget", eff_budget, 1)
    eff_workers = workers if workers is not None else 1
    check_int("workers", eff_workers, 1)
    # Every worker runs at once: no more than CPUs.
    eff_workers = min(eff_workers, replicas, _usable_cpus())
    if type(x0_source) in (LabelUniform, GridUniform):
        x0_source.check()
        # Build the flat rows once here, so that forked workers inherit them.
        net.flat_rows
    elif not hasattr(x0_source, "draw"):
        # A fixed state's length and values are checked, and the state
        # encoded, once here, before any replica or worker starts; each
        # replica runs on a copy of the ranks.
        x0_source, _ = _engine.encode_profile(_draw_initial(x0_source, None, net.n))
    # Build the listener table once here, so that forked workers inherit it.
    net.listener_weights

    cuts = [replicas * k // eff_workers for k in range(eff_workers + 1)]
    blocks = [range(a, b) for a, b in zip(cuts, cuts[1:])]
    procs = []
    if eff_workers > 1:
        import multiprocessing

        # Load numpy once here, so forked workers inherit it instead of
        # each importing it again.
        import numpy  # noqa: F401

        # Ask for fork by name: since Python 3.14 Linux defaults to
        # forkserver, whose workers import everything afresh.
        fork = "fork" in multiprocessing.get_all_start_methods()
        ctx = multiprocessing.get_context("fork" if fork else None)
    try:
        for block in blocks[1:]:
            recv, send = ctx.Pipe(duplex=False)
            proc = ctx.Process(
                target=_run_block, args=(send, net, x0_source, seed, block, eff_budget)
            )
            proc.start()
            procs.append((proc, recv))
            # Only the worker holds the sending end now, so its exit ends
            # the pipe.
            send.close()
        summaries = [_replica_summary(net, x0_source, seed, r, eff_budget) for r in blocks[0]]
        for k, (proc, recv) in enumerate(procs, 1):
            try:
                message = recv.recv()
            except EOFError:
                proc.join()
                raise RuntimeError(
                    f"ensemble worker {k} died without a result (exit code {proc.exitcode})"
                ) from None
            if isinstance(message, Exception):
                raise message
            summaries += message
    except BaseException:
        for proc, _ in procs:
            proc.terminate()
        raise
    finally:
        for proc, recv in procs:
            proc.join()
            recv.close()

    census: Counter = Counter()
    converged_count = consensus_count = 0
    used_all = []
    for converged, consensus, used, key in summaries:
        converged_count += converged
        consensus_count += consensus
        used_all.append(used)
        census[key] += 1
    return EnsembleReport(
        replicas=replicas,
        seed=seed,
        budget=eff_budget,
        converged_count=converged_count,
        consensus_count=consensus_count,
        exhausted_count=replicas - converged_count,
        steps_mean=sum(used_all) / replicas,
        steps_min=min(used_all),
        steps_max=max(used_all),
        census=dict(census),
    )
