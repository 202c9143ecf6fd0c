"""Shared generators for randomized tests.

Everything here is deterministic given a ``random.Random`` instance, so each
test pins its own seed and failures replay exactly.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

from hypothesis import strategies as st

import median_consensus
from median_consensus import InfluenceNetwork, Nae3SatInstance, fixtures


# A header that declares 10**6 nodes or variables costs tens of MB when
# something is allocated per declared item, and a few kB when it is not.
HUGE_COUNT = 10**6


def peak_allocation(fn):
    """Run ``fn()`` and return the peak bytes Python allocated meanwhile."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def python_child(code: str, *argv: str, options=()) -> subprocess.CompletedProcess:
    """Run ``code`` with arguments ``argv`` in a fresh interpreter, started
    with ``options``, that imports this package's source."""
    src = str(Path(median_consensus.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src if not path else src + os.pathsep + path)
    return subprocess.run(
        [sys.executable, *options, "-c", code, *argv], capture_output=True, text=True, env=env
    )


def random_row(rnd: random.Random, support_size: int, max_den: int = 24):
    """Random positive weights on ``support_size`` entries summing exactly to 1.

    Draws a denominator d and splits it into positive integer parts, so every
    weight is a Fraction with denominator dividing d.
    """
    d = rnd.randint(max(support_size, 2), max(max_den, support_size + 1))
    if support_size == 1:
        return [Fraction(1)]
    cuts = sorted(rnd.sample(range(1, d), support_size - 1))
    bounds = [0] + cuts + [d]
    return [Fraction(b - a, d) for a, b in zip(bounds, bounds[1:])]


def random_network(rnd: random.Random, n: int, max_den: int = 24,
                   allow_self: bool = True) -> InfluenceNetwork:
    """Random influence network with exact rational rows."""
    dense = []
    for i in range(n):
        candidates = list(range(n)) if (allow_self or n == 1) else [j for j in range(n) if j != i]
        k = rnd.randint(1, len(candidates))
        support = rnd.sample(candidates, k)
        weights = random_row(rnd, k, max_den)
        row = [Fraction(0)] * n
        for j, w in zip(support, weights):
            row[j] = w
        dense.append(row)
    return InfluenceNetwork.from_rows(dense)


_PRIMES = (97, 101, 103, 107, 109, 113, 127, 131, 137, 139, 149, 151)


def random_coprime_rows(rnd: random.Random, n: int) -> list[list[Fraction]]:
    """Random dense rows that mix co-prime denominators.

    Each row takes weights ``a/p`` over distinct primes ``p`` and gives the
    remainder to one more entry, so a row's common denominator is the
    product of several primes (up to about 10^20) rather than a small number.
    """
    dense = []
    for _ in range(n):
        support = rnd.sample(range(n), rnd.randint(1, n))
        primes = rnd.sample(_PRIMES, len(support) - 1)
        weights = [Fraction(rnd.randint(1, p // len(support)), p) for p in primes]
        weights.append(1 - sum(weights, Fraction(0)))
        row = [Fraction(0)] * n
        for j, w in zip(support, weights):
            row[j] = w
        dense.append(row)
    return dense


def random_coprime_network(rnd: random.Random, n: int) -> InfluenceNetwork:
    """Random network built from :func:`random_coprime_rows`."""
    return InfluenceNetwork.from_rows(random_coprime_rows(rnd, n))


def random_weights(rnd: random.Random, n: int, max_den: int = 24,
                   zeros_ok: bool = True):
    """Random weight vector (sum exactly 1), possibly with zero entries."""
    if zeros_ok and n > 1 and rnd.random() < 0.5:
        support = rnd.randint(1, n)
    else:
        support = n
    picked = rnd.sample(range(n), support)
    weights = [Fraction(0)] * n
    for j, w in zip(picked, random_row(rnd, support, max_den)):
        weights[j] = w
    return weights


def random_profile(rnd: random.Random, n: int, spread: int = 3):
    """Random integer opinion profile with repeats likely."""
    return tuple(rnd.randint(0, spread) for _ in range(n))


def network_corpus():
    """A spread of structurally different networks for dynamics sweeps."""
    return [
        fixtures.complete_uniform(4),
        fixtures.complete_uniform(8),
        fixtures.lattice(3, 3),
        fixtures.lattice(5, 6),
        fixtures.bridged_cliques(clique_size=3, cross="1/3"),
        fixtures.disjoint_cliques(clique_size=3, blocks=2),
        fixtures.directed_ring(5),
        fixtures.self_loop_nodes(3),
        fixtures.lattice(5, 5),
        fixtures.bridged_cliques(clique_size=4, cross="1/4"),
    ]


def reduction_corpus():
    """52 distinct monotone NAE3SAT instances: eight hand-built, sat and unsat,
    then seeded random ones over 2-4 variables and 1-4 clauses."""
    hand_built = [
        Nae3SatInstance(2, ((1, 1, 2),)),                                   # sat
        Nae3SatInstance(3, ((1, 2, 3),)),                                   # sat
        Nae3SatInstance(3, ((1, 2, 3), (1, 1, 2))),                         # sat
        Nae3SatInstance(3, ((1, 1, 2), (2, 2, 3), (1, 1, 3))),              # unsat triangle
        Nae3SatInstance(4, ((1, 1, 2), (2, 2, 3), (1, 1, 3), (4, 4, 1))),   # unsat
        Nae3SatInstance(3, ((1, 2, 3), (1, 1, 2), (2, 2, 3), (1, 1, 3))),   # unsat
        Nae3SatInstance(4, ((1, 2, 3), (2, 3, 4), (1, 1, 4), (3, 3, 2))),   # sat
        Nae3SatInstance(4, ((1, 1, 2), (2, 2, 3), (3, 3, 4), (4, 4, 1))),   # sat 4-cycle
    ]
    rnd = random.Random(0x10)
    seen = {inst.clauses for inst in hand_built}
    out = list(hand_built)
    while len(out) < 52:
        n = rnd.randint(2, 4)
        m = rnd.randint(1, 4)
        clauses = set()
        while len(clauses) < m:
            trio = tuple(rnd.randint(1, n) for _ in range(3))
            if len(set(trio)) > 1:
                clauses.add(trio)
        clauses = tuple(sorted(clauses))
        if {k for c in clauses for k in c} != set(range(1, n + 1)) or clauses in seen:
            continue
        seen.add(clauses)
        out.append(Nae3SatInstance(n, clauses))
    return out


_ORACLE_PRIMES = (5, 7, 11, 13, 17, 19, 23)


@st.composite
def oracle_networks(draw, max_n=8):
    """Networks with up to ``max_n`` nodes whose rows are drawn from three
    kinds: small denominators, two halves of exactly 1/2 each, or weights
    over distinct primes.  Supports may include the node itself."""
    n = draw(st.integers(1, max_n))
    dense = []
    for _ in range(n):
        support = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
        k = len(support)
        kind = draw(st.sampled_from(("small", "half", "coprime"))) if k > 1 else "small"
        if kind == "small":
            parts = draw(st.lists(st.integers(1, 6), min_size=k, max_size=k))
            weights = [Fraction(p, sum(parts)) for p in parts]
        elif kind == "half":
            split = draw(st.integers(1, k - 1))
            parts = draw(st.lists(st.integers(1, 4), min_size=k, max_size=k))
            low, high = sum(parts[:split]), sum(parts[split:])
            weights = [Fraction(p, 2 * low) for p in parts[:split]]
            weights += [Fraction(p, 2 * high) for p in parts[split:]]
        else:
            primes = draw(st.permutations(_ORACLE_PRIMES))[: k - 1]
            weights = [Fraction(draw(st.integers(1, max(1, p // k))), p) for p in primes]
            weights.append(1 - sum(weights, Fraction(0)))
        row = [Fraction(0)] * n
        for j, w in zip(support, weights):
            row[j] = w
        dense.append(row)
    return InfluenceNetwork.from_rows(dense)
