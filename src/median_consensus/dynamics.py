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
from bisect import bisect_left, bisect_right, insort
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
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


@dataclass(frozen=True)
class LabelUniform:
    """Initial distribution: each opinion iid uniform over labels 0..k-1."""

    k: int

    def draw(self, rng: np.random.Generator, n: int) -> tuple:
        if not (is_json_int(self.k) and self.k >= 1):
            raise ValueError("need at least one label")
        return tuple(int(v) for v in rng.integers(0, self.k, size=n))


@dataclass(frozen=True)
class GridUniform:
    """Initial distribution: iid uniform over an evenly spaced rational grid
    of `points` values covering [-1, 1]."""

    points: int = 201

    def draw(self, rng: np.random.Generator, n: int) -> tuple:
        if not (is_json_int(self.points) and self.points >= 2):
            raise ValueError("grid needs at least two points")
        span = self.points - 1
        picks = rng.integers(0, self.points, size=n).tolist()
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
    vals = _validate_state(net, x)
    state, _ = _engine.encode_profile(vals)
    rows = net.integer_rows
    return all(_engine.update_value(rows, state, i) == v for i, v in enumerate(state))


def _random_ticks(rng: np.random.Generator, n: int, budget: int):
    remaining = budget
    while remaining > 0:
        chunk = min(4096, remaining)
        remaining -= chunk
        yield from rng.integers(0, n, size=chunk).tolist()


def _run_encoded(net, state, ticks, budget):
    """Core loop over an encoded state; returns (steps, converged, used).

    ``hist[i]`` is node i's mass table, ``ranks[i]`` its occupied ranks in
    order, ``lo[i]`` its lower median and ``below[i]`` the mass at or below
    ``lo[i]``; ``_engine.median_bounds`` sets them up.  When node i moves,
    only its weight in each listener's table moves: the listener's
    ``below`` changes by that weight, and its lower median walks up or down
    the adjacent occupied ranks until the mass at or below it reaches half
    and the mass strictly below it does not.  The interval's upper end is
    the next occupied rank exactly when that mass is half.  Node i itself
    is stable after its move: its new value is a median of its table, and
    moving its own weight onto that value (when it listens to itself) keeps
    it one.
    """
    rows = net.integer_rows
    listeners = net.listener_weights
    denoms = [row[2] for row in rows]
    hist = [_engine.row_masses(row, state) for row in rows]
    ranks = [sorted(h) for h in hist]
    lo = []
    below = []
    med = []
    for h, rk, d, v in zip(hist, ranks, denoms, state):
        m, b, hi = _engine.median_bounds(rk, h, d)
        lo.append(m)
        below.append(b)
        med.append(m if v < m else hi if v > hi else v)
    unstable = {i for i in range(net.n) if med[i] != state[i]}
    records = []
    if not unstable:
        return records, True, 0
    t = 0
    for i in ticks:
        t += 1
        if i in unstable:
            old = state[i]
            new = med[i]
            state[i] = new
            records.append((t, i, old, new))
            unstable.discard(i)
            nodes, wints = listeners[i]
            for j, w in zip(nodes, wints):
                h = hist[j]
                rk = ranks[j]
                m = lo[j]
                b = below[j]
                rest = h[old] - w
                if rest:
                    h[old] = rest
                else:
                    del h[old]
                    del rk[bisect_left(rk, old)]
                if new in h:
                    h[new] += w
                else:
                    h[new] = w
                    insort(rk, new)
                if old <= m:
                    b -= w
                if new <= m:
                    b += w
                d = denoms[j]
                if 2 * b < d:
                    k = bisect_right(rk, m)
                    m = rk[k]
                    b += h[m]
                    while 2 * b < d:
                        k += 1
                        m = rk[k]
                        b += h[m]
                elif m not in h or 2 * (b - h[m]) >= d:
                    k = bisect_left(rk, m)
                    if m not in h:
                        # The lower median emptied: b is the mass up to
                        # the occupied rank before it.
                        k -= 1
                        m = rk[k]
                    while 2 * (b - h[m]) >= d:
                        b -= h[m]
                        k -= 1
                        m = rk[k]
                lo[j] = m
                below[j] = b
                hi = rk[bisect_right(rk, m)] if 2 * b == d else m
                v = state[j]
                x = m if v < m else hi if v > hi else v
                med[j] = x
                if x != v:
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
    records, converged, used = _run_encoded(net, state, ticks, budget)
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
    table = {v: k for k, v in enumerate(sorted(set(terminal)))}
    return ",".join(str(table[v]) for v in terminal)


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
    rng = _rng([base_seed, r])
    x0 = _draw_initial(x0_source, rng, net.n)
    state, _ = _engine.encode_profile(x0)
    ticks = _random_ticks(rng, net.n, budget)
    _, converged, used = _run_encoded(net, state, ticks, budget)
    # The encoding preserves order, so consensus and the census read the
    # terminal ranks as they would the decoded values.
    consensus = converged and len(set(state)) == 1
    return converged, consensus, used, _census_key(state)


_worker_config: tuple = ()


def _init_worker(*config):
    """Pool initializer: each worker receives the network and settings once."""
    global _worker_config
    _worker_config = config


def _replica_job(r):
    net, x0_source, base_seed, budget = _worker_config
    return _replica_summary(net, x0_source, base_seed, r, budget)


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
    Replica ``r`` derives its own generator from ``[seed, r]``, so reports
    are identical for any worker count.  ``workers`` processes (default 1,
    never more than ``replicas`` or the CPU count) run the replicas and
    receive the network once.  ``seed`` must be an integer of at least 0,
    and ``replicas``, ``budget`` and ``workers`` integers of at least 1.
    """
    check_int("replicas", replicas, 1)
    check_int("seed", seed, 0)
    eff_budget = budget if budget is not None else default_budget(net.n)
    check_int("budget", eff_budget, 1)
    eff_workers = workers if workers is not None else 1
    check_int("workers", eff_workers, 1)
    # Under fork the pool starts every worker at once: no more than CPUs.
    eff_workers = min(eff_workers, replicas, os.cpu_count() or 1)
    if not hasattr(x0_source, "draw"):
        # A fixed state's length and values are checked here, before any
        # replica or worker starts; each replica still encodes its own copy.
        x0_source = _draw_initial(x0_source, None, net.n)
        _engine.encode_profile(x0_source)

    if eff_workers == 1:
        summaries = [
            _replica_summary(net, x0_source, seed, r, eff_budget) for r in range(replicas)
        ]
    else:
        from concurrent.futures import ProcessPoolExecutor

        # Load numpy once here, so forked workers inherit it instead of
        # each importing it again.
        import numpy  # noqa: F401

        with ProcessPoolExecutor(
            max_workers=eff_workers,
            initializer=_init_worker,
            initargs=(net, x0_source, seed, eff_budget),
        ) as pool:
            chunksize = max(1, replicas // (4 * eff_workers))
            summaries = list(pool.map(_replica_job, range(replicas), chunksize=chunksize))

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
