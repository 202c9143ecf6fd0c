"""Acceptance gate: eleven end-to-end criteria, one verdict line each.

Each test prints `[criterion NN] <name>: PASS|FAIL — <metrics>` (visible with
`pytest -s`, and in the failure report otherwise) and then asserts.  Runtime
caps are part of the criteria and are asserted alongside the substance.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction as F
from itertools import product

import numpy as np

from conftest import network_corpus, random_network, random_weights, reduction_corpus
from search_oracles import distinct_profile_search
from median_consensus import (
    GridUniform,
    LabelUniform,
    RandomSchedule,
    brute_force_nae3sat,
    build_svc_graph,
    certificate_from_assignment,
    cohesive_expansion,
    decide_consensus_reachable,
    enumerate_equilibria,
    enumerate_maximal_cohesive_sets,
    ensemble,
    fixtures,
    is_cohesive,
    is_equilibrium,
    is_equilibrium_structural,
    is_maximal_cohesive,
    l1_best_responses,
    reduction_roundtrip,
    run,
    verify_certificate,
    weighted_median_set,
)


def _verdict(num: int, name: str, ok: bool, detail: str) -> bool:
    print(f"[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'} — {detail}")
    return ok


def _expansion_corpus():
    """The shared corpus for criteria 2 and 3: 100 random networks, n <= 12."""
    rnd = random.Random(0xACCE55)
    nets = []
    for _ in range(100):
        nets.append((rnd, random_network(rnd, rnd.randint(2, 12), max_den=30)))
    return nets


def test_01_median_oracle_equivalence():
    started = time.perf_counter()
    rnd = random.Random(0x01)
    cases = 10_000
    agreements = 0
    for _ in range(cases):
        n = rnd.randint(1, 10)
        values = tuple(
            rnd.randint(-5, 5) if rnd.random() < 0.7 else F(rnd.randint(-10, 10), rnd.randint(1, 6))
            for _ in range(n)
        )
        weights = tuple(random_weights(rnd, n, max_den=60))
        if weighted_median_set(values, weights) == l1_best_responses(values, weights):
            agreements += 1
    elapsed = time.perf_counter() - started
    ok = agreements == cases and elapsed < 10
    assert _verdict(1, "median set equals cost-minimizer oracle", ok,
                    f"{agreements}/{cases} agree in {elapsed:.1f}s (cap 10s)")


def test_02_expansion_order_invariance():
    started = time.perf_counter()
    checked = 0
    for rnd, net in _expansion_corpus():
        seed = set(rnd.sample(range(net.n), rnd.randint(1, net.n)))
        base = cohesive_expansion(net, seed).result
        for _ in range(20):
            order = list(range(net.n))
            rnd.shuffle(order)
            if cohesive_expansion(net, seed, order_hint=order).result != base:
                assert _verdict(2, "expansion order invariance", False,
                                f"order changed the result on n={net.n}")
            checked += 1
    elapsed = time.perf_counter() - started
    ok = elapsed < 30
    assert _verdict(2, "expansion order invariance", ok,
                    f"100 networks x 20 orders ({checked} runs) identical in {elapsed:.1f}s (cap 30s)")


def test_03_cohesion_property_suite():
    started = time.perf_counter()
    violations = {"union": 0, "seed-monotone": 0, "union-bound": 0,
                  "smallest-superset": 0, "complement": 0}
    for rnd, net in _expansion_corpus():
        n = net.n
        full = frozenset(range(n))
        # gather cohesive sets: exhaustively for small n, sampled beyond
        if n <= 9:
            pool = [frozenset(s) for mask in range(1, 1 << n)
                    if is_cohesive(net, s := {i for i in range(n) if mask >> i & 1})]
        else:
            pool = []
            for _ in range(250):
                s = frozenset(rnd.sample(range(n), rnd.randint(1, n)))
                if is_cohesive(net, s):
                    pool.append(s)
        maximal = enumerate_maximal_cohesive_sets(net)
        pool.extend(maximal)
        sample = pool if len(pool) <= 30 else rnd.sample(pool, 30)
        for a in sample:
            for b in sample:
                if not is_cohesive(net, a | b):
                    violations["union"] += 1
        for _ in range(10):
            big = set(rnd.sample(range(n), rnd.randint(1, n)))
            small = set(rnd.sample(sorted(big), rnd.randint(1, len(big))))
            other = set(rnd.sample(range(n), rnd.randint(1, n)))
            if not cohesive_expansion(net, small).result <= cohesive_expansion(net, big).result:
                violations["seed-monotone"] += 1
            lhs = cohesive_expansion(net, big).result | cohesive_expansion(net, other).result
            if not lhs <= cohesive_expansion(net, big | other).result:
                violations["union-bound"] += 1
        for m in sample:
            grown = cohesive_expansion(net, m).result
            if not is_maximal_cohesive(net, grown):
                violations["smallest-superset"] += 1
            for cover in maximal:
                if m <= cover and not grown <= cover:
                    violations["smallest-superset"] += 1
        for m in maximal:
            if m != full and not is_maximal_cohesive(net, full - m):
                violations["complement"] += 1
    elapsed = time.perf_counter() - started
    total = sum(violations.values())
    ok = total == 0
    assert _verdict(3, "five cohesion invariants", ok,
                    f"zero counterexamples across 100 networks in {elapsed:.1f}s"
                    if ok else f"violations: {violations}")


def test_04_equilibrium_characterization_equivalence():
    started = time.perf_counter()
    rnd = random.Random(0x04)
    nets = [
        fixtures.complete_uniform(3), fixtures.complete_uniform(4),
        fixtures.complete_uniform(5), fixtures.complete_uniform(6),
        fixtures.lattice(2, 2), fixtures.lattice(2, 3),
        fixtures.bridged_cliques(clique_size=3, cross="1/3"),
        fixtures.disjoint_cliques(clique_size=3, blocks=2),
        fixtures.disjoint_cliques(clique_size=2, blocks=2),
        fixtures.directed_ring(3), fixtures.directed_ring(5),
        fixtures.self_loop_nodes(2), fixtures.self_loop_nodes(3),
    ]
    while len(nets) < 50:
        nets.append(random_network(rnd, rnd.randint(2, 6)))
    checked = 0
    for net in nets:
        for labels in ((0, 1), (0, 1, 2)):
            enumerated = set(enumerate_equilibria(net, labels))
            structural = {
                state for state in product(labels, repeat=net.n)
                if is_equilibrium_structural(net, state)
            }
            if enumerated != structural:
                assert _verdict(4, "fixed-point enumeration equals structural acceptor",
                                False, f"mismatch on n={net.n}, R={len(labels)}")
            checked += 1
    elapsed = time.perf_counter() - started
    ok = elapsed < 60
    assert _verdict(4, "fixed-point enumeration equals structural acceptor", ok,
                    f"{len(nets)} networks x R in {{2,3}} ({checked} comparisons), "
                    f"exact set equality in {elapsed:.1f}s (cap 60s)")


def test_05_termination_within_default_budget():
    started = time.perf_counter()
    corpus = network_corpus()
    runs_per_net = 10_000 // len(corpus)
    total = exhausted = verified = 0
    for k, net in enumerate(corpus):
        for r in range(runs_per_net):
            rng = np.random.default_rng([k, r])
            x0 = LabelUniform(k=4).draw(rng, net.n)
            traj = run(net, x0, RandomSchedule(seed=k * runs_per_net + r))
            total += 1
            if not traj.converged:
                exhausted += 1
            elif is_equilibrium(net, traj.terminal):
                verified += 1
    elapsed = time.perf_counter() - started
    ok = exhausted <= total // 1000 and verified == total - exhausted
    assert _verdict(5, "random runs reach verified equilibria in budget", ok,
                    f"{total} runs, {exhausted} exhausted (limit {total // 1000}), "
                    f"{verified} verified, {elapsed:.1f}s")


def test_06_complete_graph_consensus():
    started = time.perf_counter()
    net = fixtures.complete_uniform(8)
    sets = enumerate_maximal_cohesive_sets(net)
    report = ensemble(net, LabelUniform(k=4), replicas=1000, seed=0x06)
    elapsed = time.perf_counter() - started
    only_full = sets == [frozenset(range(8))]
    ok = only_full and report.consensus_fraction == 1.0 and elapsed < 20
    assert _verdict(6, "complete uniform graph reaches consensus always", ok,
                    f"consensus fraction {report.consensus_fraction}, "
                    f"only maximal cohesive set is the full set: {only_full}, "
                    f"{elapsed:.1f}s (cap 20s)")


class _SeparatedBlocks:
    """Initial distribution: block {0,1,2} draws from low labels, the rest
    from high labels, so the blocks start strictly separated."""

    def draw(self, rng, n):
        low = rng.integers(0, 2, size=3)
        high = rng.integers(5, 7, size=n - 3)
        return tuple(int(v) for v in low) + tuple(int(v) for v in high)


def test_07_separated_cohesive_blocks_never_merge():
    started = time.perf_counter()
    net = fixtures.bridged_cliques(clique_size=3, cross="1/3")
    witness = [s for s in enumerate_maximal_cohesive_sets(net) if s == frozenset({0, 1, 2})]
    report = ensemble(net, _SeparatedBlocks(), replicas=1000, seed=0x07)
    elapsed = time.perf_counter() - started
    ok = bool(witness) and report.consensus_fraction == 0.0
    assert _verdict(7, "separated cohesive blocks never reach consensus", ok,
                    f"nontrivial maximal cohesive block present: {bool(witness)}, "
                    f"consensus fraction {report.consensus_fraction} over 1000 runs, "
                    f"{elapsed:.1f}s")


def test_08_no_reachable_node_forces_dissensus():
    started = time.perf_counter()
    net = fixtures.disjoint_cliques(clique_size=3, blocks=2)
    from median_consensus.network import decisive_subgraph, has_globally_reachable_node

    exists, _ = has_globally_reachable_node(decisive_subgraph(net))
    consensus = 0
    all_verified = True
    x0 = (0, 1, 2, 3, 4, 5)
    for seed in range(1000):
        traj = run(net, x0, RandomSchedule(seed=seed))
        if len(set(traj.terminal)) == 1:
            consensus += 1
        if not (traj.converged and is_equilibrium(net, traj.terminal)
                and len(set(traj.terminal)) > 1):
            all_verified = False
    elapsed = time.perf_counter() - started
    ok = not exists and consensus == 0 and all_verified
    assert _verdict(8, "no globally reachable decisive node forces dissensus", ok,
                    f"globally reachable node: {exists}, consensus {consensus}/1000, "
                    f"all terminals verified dissensus equilibria: {all_verified}, "
                    f"{elapsed:.1f}s")


def test_09_reachability_searches_agree():
    started = time.perf_counter()
    rnd = random.Random(0x09)
    agreements = 0
    for _ in range(20):
        net = random_network(rnd, rnd.randint(2, 6))
        if distinct_profile_search(net) == decide_consensus_reachable(net, bound=net.n)[0]:
            agreements += 1
    elapsed = time.perf_counter() - started
    ok = agreements == 20
    assert _verdict(9, "order-type and ternary searches agree", ok,
                    f"{agreements}/20 networks agree in {elapsed:.1f}s")


def test_10_reduction_roundtrip():
    started = time.perf_counter()
    corpus = reduction_corpus()
    sat = unsat = roundtrips = certified = 0
    for inst in corpus:
        if reduction_roundtrip(inst):
            roundtrips += 1
        assignment = brute_force_nae3sat(inst)
        if assignment is None:
            unsat += 1
            continue
        sat += 1
        svc = build_svc_graph(inst)
        cert = certificate_from_assignment(svc, assignment)
        expected_time = 2 * inst.num_vars + len(inst.clauses)
        if verify_certificate(svc.network, cert) and cert.target_time == expected_time:
            certified += 1
    elapsed = time.perf_counter() - started
    ok = (roundtrips == len(corpus) and certified == sat
          and sat > 0 and unsat > 0 and elapsed < 300)
    assert _verdict(10, "satisfiability matches consensus reachability", ok,
                    f"{roundtrips}/{len(corpus)} roundtrips ({sat} sat, {unsat} unsat), "
                    f"{certified}/{sat} certificates replay to zero at 2n+m, "
                    f"{elapsed:.1f}s (cap 300s)")


def test_11_lattice_clustering():
    started = time.perf_counter()
    net = fixtures.lattice(30, 30)
    seeds = 100
    converged = dissensus = verified = 0
    for seed in range(seeds):
        rng = np.random.default_rng([0x11, seed])
        x0 = GridUniform(points=201).draw(rng, net.n)
        traj = run(net, x0, RandomSchedule(seed=seed, budget=50_000))
        if not traj.converged:
            continue
        converged += 1
        if is_equilibrium(net, traj.terminal):
            verified += 1
        if len(set(traj.terminal)) > 1:
            dissensus += 1
    elapsed = time.perf_counter() - started
    # the convergence and clustering rates are reported expectations; the
    # hard requirement is that every converged terminal verifies
    ok = verified == converged and elapsed < 600
    report = (f"{converged}/{seeds} converged (expect >= 95), "
              f"{dissensus}/{converged} dissensus (expect >= 80%), "
              f"verification {verified}/{converged} (must be all), {elapsed:.1f}s")
    assert _verdict(11, "lattice opinions cluster into dissensus equilibria", ok, report)
