"""Structural equilibrium analysis, classification, decision procedures."""

from __future__ import annotations

import json
import operator
import random
from fractions import Fraction as F
from itertools import chain, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    oracle_networks,
    python_child,
    random_coprime_network,
    random_network,
    random_profile,
    random_row,
    reduction_corpus,
)
from expansion_oracles import rescan_cohesive_expansion, two_loop_update_sequence
from search_oracles import distinct_profile_search, successors
from median_consensus import (
    ConsensusCertificate,
    GridUniform,
    InfluenceNetwork,
    RandomSchedule,
    _engine,
    build_svc_graph,
    build_update_sequence,
    classify,
    cohesion,
    cohesive_expansion,
    decide_consensus_reachable,
    enumerate_equilibria,
    enumerate_maximal_cohesive_sets,
    fixtures,
    has_nontrivial_maximal_cohesive_set,
    is_equilibrium,
    is_equilibrium_structural,
    run,
    verify_certificate,
)
from median_consensus.equilibria import (
    _blocking_partners,
    _node_table,
    _shortest_path,
    _starts,
)
from median_consensus.median import closest_weighted_median

HALF = F(1, 2)


def pack(ranks) -> int:
    """A packed search state: node i's rank in the two bits from bit 2 * i."""
    return sum(r << 2 * i for i, r in enumerate(ranks))


def unpack(s: int, n: int) -> tuple:
    return tuple(s >> 2 * i & 3 for i in range(n))


def differential_networks(seed, count):
    """Small-denominator and co-prime-denominator random networks, alternating."""
    rnd = random.Random(seed)
    for k in range(count):
        n = rnd.randint(1, 6)
        yield rnd, random_network(rnd, n) if k % 2 else random_coprime_network(rnd, n)


def covering_networks(seed, count):
    """Networks with a self-loop on every row, whose rows all, none or some
    listen to every node; the other rows listen to a random set of others."""
    rnd = random.Random(seed)
    for k in range(count):
        n = rnd.randint(2, 6)
        full_rows = (
            set(range(n)) if k % 3 == 0 else set() if k % 3 == 1
            else set(rnd.sample(range(n), rnd.randint(1, n - 1)))
        )
        dense = []
        for i in range(n):
            others = [j for j in range(n) if j != i]
            if i not in full_rows:
                others = rnd.sample(others, rnd.randint(0, n - 1))
            row = [F(0)] * n
            for j, w in zip([i, *others], random_row(rnd, len(others) + 1)):
                row[j] = w
            dense.append(row)
        yield rnd, InfluenceNetwork.from_rows(dense)


def covering_corpus(seed, count):
    """``covering_networks`` plus the uniform complete fixtures, with and
    without self-loops."""
    nets = [net for _, net in covering_networks(seed, count)]
    nets += [fixtures.complete_uniform(n) for n in (2, 3, 4, 5)]
    nets += [fixtures.complete_uniform(n, self_loops=True) for n in (1, 2, 3, 4)]
    nets += [fixtures.lattice(2, 3), fixtures.bridged_cliques(3, "1/3")]
    return nets


def pointwise_equilibrium(net, x):
    """Every node already sits at its closest weighted median (Fraction oracle)."""
    return all(
        closest_weighted_median(x, [net.weight(i, j) for j in range(net.n)], x[i]) == x[i]
        for i in range(net.n)
    )


class TestStructuralCharacterization:
    def test_consensus_accepted(self):
        net = fixtures.lattice(2, 3)
        assert is_equilibrium_structural(net, (4,) * 6)

    def test_split_blocks_accepted(self):
        net = fixtures.bridged_cliques(clique_size=3, cross="1/3")
        assert is_equilibrium_structural(net, (0, 0, 0, 1, 1, 1))

    def test_bad_middle_cut_rejected(self):
        net = fixtures.disjoint_cliques(clique_size=3, blocks=2)
        # the cut between 1 and 2 leaves {0,1,2,3} with node 3 starved
        assert not is_equilibrium_structural(net, (0, 0, 0, 1, 2, 2))

    def test_agrees_with_pointwise_definition(self):
        rnd = random.Random(0x7E57)
        for _ in range(150):
            net = random_network(rnd, rnd.randint(1, 6))
            x = random_profile(rnd, net.n)
            assert is_equilibrium_structural(net, x) == is_equilibrium(net, x)


class TestIntegerThresholdsMatchFractionOracle:
    # A node's own entry in _blocking_partners marks it frozen; its other
    # entries are its cohesive partners.  Each half is checked against its
    # Fraction oracle over both corpora.
    def test_frozen_nodes(self):
        frozen = 0
        for _, net in oracle_corpus():
            expected = oracle_frozen_nodes(net)
            partners = _blocking_partners(net)
            assert [i for i in range(net.n) if i in partners[i]] == expected
            frozen += len(expected)
        assert frozen > 10

    def test_cohesive_pairs(self):
        pairs = 0
        for _, net in oracle_corpus():
            expected = oracle_cohesive_pairs(net)
            partners = _blocking_partners(net)
            assert [[j for j in row if j != i] for i, row in enumerate(partners)] == expected
            pairs += sum(map(len, expected))
        assert pairs > 10

    def test_structural_on_random_states(self):
        for rnd, net in differential_networks(0x57A7, 80):
            x = random_profile(rnd, net.n)
            terminal = run(net, x, RandomSchedule(seed=rnd.randrange(1000))).terminal
            for state in (x, terminal):
                expected = pointwise_equilibrium(net, state)
                assert is_equilibrium_structural(net, state) == expected
                assert is_equilibrium(net, state) == expected

    def test_successors_match_median_oracle(self):
        # Fill every node's memo by the decide search from a random ternary
        # state, then check each entry: its key holds the node's and its
        # row's ranks, and those decide the median.
        checked = 0
        for rnd, net in chain(
            differential_networks(0x5CC, 40), covering_networks(0x5CD, 12)
        ):
            ternary = [rnd.randint(0, 2) for _ in range(net.n)]
            rows = net.integer_rows
            table = _node_table(rows, _blocking_partners(net))
            _shortest_path(rows, table, pack(ternary), pack((1,) * net.n), set())
            for i, _, _, memo, _, _ in table:
                covers_all = {i, *net.out_neighbors(i)} == set(range(net.n))
                assert (memo is None) == covers_all
                weights = [net.weight(i, j) for j in range(net.n)]
                for key, new in (memo or {}).items():
                    ranks = unpack(key, net.n)
                    assert new == closest_weighted_median(ranks, weights, ranks[i])
                    checked += 1
        assert checked > 400


class TestEnumerateEquilibria:
    def test_complete_uniform_two_labels(self):
        net = fixtures.complete_uniform(4)
        assert enumerate_equilibria(net, (0, 1)) == [(0,) * 4, (1,) * 4]

    def test_disjoint_cliques_four(self):
        net = fixtures.disjoint_cliques(clique_size=3, blocks=2)
        assert enumerate_equilibria(net, (0, 1)) == [
            (0, 0, 0, 0, 0, 0),
            (0, 0, 0, 1, 1, 1),
            (1, 1, 1, 0, 0, 0),
            (1, 1, 1, 1, 1, 1),
        ]

    def test_single_node(self):
        net = fixtures.self_loop_nodes(1)
        assert enumerate_equilibria(net, ("a", "b", "c")) == [("a",), ("b",), ("c",)]

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError):
            enumerate_equilibria(fixtures.complete_uniform(3), (0, 0))

    def test_state_budget_refusal(self):
        net = fixtures.self_loop_nodes(21)
        with pytest.raises(ValueError, match="state"):
            enumerate_equilibria(net, (0, 1))

    def test_generator_of_values_is_read_once(self):
        net = fixtures.complete_uniform(3)
        assert enumerate_equilibria(net, (v for v in (0, 1))) == [(0,) * 3, (1,) * 3]

    def test_incomparable_labels_rejected(self):
        with pytest.raises(ValueError, match="mutually comparable"):
            enumerate_equilibria(fixtures.complete_uniform(3), ["a", 1])

    def test_matches_frozen_product_oracle(self):
        rnd = random.Random(0xE9)
        nets = [random_network(rnd, rnd.randint(1, 6)) for _ in range(60)]
        nets += [random_coprime_network(rnd, rnd.randint(2, 5)) for _ in range(10)]
        nets += covering_corpus(0xE9A, 24)
        for k, net in enumerate(nets):
            labels = ("lo", "mid", "hi") if k % 2 else (0, 1, 2, 3)[: 2 + k % 3]
            if len(labels) ** net.n <= 5000:
                assert enumerate_equilibria(net, labels) == product_equilibria(net, labels)

    @settings(max_examples=150, deadline=None)
    @given(oracle_networks(), st.integers(1, 4), st.booleans())
    def test_matches_product_oracle(self, net, k, named):
        while k**net.n > 4096:
            k -= 1
        labels = ("lo", "mid", "hi", "top")[:k] if named else range(k - 1, -1, -1)
        assert enumerate_equilibria(net, labels) == product_equilibria(net, labels)

    def test_clique_constant_states_past_the_cohesion_bound(self):
        # n = 18 exceeds enumerate_maximal_cohesive_sets' bound; the walk
        # reads the cuts directly.  Each clique holds one label.
        net = fixtures.disjoint_cliques(3, 6)
        blocks = product((0, 1), repeat=6)
        expected = [tuple(v for v in labels for _ in range(3)) for labels in blocks]
        assert enumerate_equilibria(net, (0, 1)) == expected

    def test_ranks_past_one_byte(self):
        # Past 256 labels a rank takes two bytes, and past 65,536 four.
        follower = InfluenceNetwork.from_rows([[F(1), F(0)], [F(1), F(0)]])
        assert enumerate_equilibria(follower, range(299, -1, -1)) == [(v, v) for v in range(300)]
        single = fixtures.self_loop_nodes(1)
        assert enumerate_equilibria(single, range(70_000)) == [(v,) for v in range(70_000)]

    def test_one_label_needs_no_cut_search(self):
        net = fixtures.lattice(100, 100)
        assert enumerate_equilibria(net, ["only"]) == [("only",) * 10_000]

    def test_members_all_satisfy_structural_acceptor(self):
        rnd = random.Random(0x97)
        for _ in range(25):
            net = random_network(rnd, rnd.randint(1, 5))
            found = enumerate_equilibria(net, (0, 1, 2))
            for state in found:
                assert is_equilibrium_structural(net, state)


class TestClassify:
    def test_complete_uniform_consensus_certain(self):
        rep = classify(fixtures.complete_uniform(6))
        assert rep.consensus_certain is True
        assert rep.dissensus_witness is None
        assert rep.dissensus_certain is False

    def test_bridged_cliques_witness(self):
        rep = classify(fixtures.bridged_cliques(clique_size=3, cross="1/3"))
        assert rep.consensus_certain is False
        assert rep.dissensus_witness in (frozenset({0, 1, 2}), frozenset({3, 4, 5}))
        # the cross links are decisive here, so full dissensus is not forced
        assert rep.dissensus_certain is False

    def test_isolated_nodes_dissensus_certain(self):
        rep = classify(fixtures.self_loop_nodes(3))
        assert rep.dissensus_certain is True
        assert rep.consensus_certain is False

    def test_half_ties_defer_to_cohesion(self):
        # Only node 1 has decisive out-links, so the decisive subgraph has no
        # globally reachable node -- yet the exact-half rows let opinions
        # cross the formally indecisive links, every equilibrium is a
        # consensus, and runs do reach one.  The decisive criterion must
        # stand down rather than declare dissensus.
        net = InfluenceNetwork.from_rows(
            [
                [F(0), F(1, 2), F(1, 2)],
                [F(1, 3), F(1, 3), F(1, 3)],
                [F(1, 2), F(1, 2), F(0)],
            ]
        )
        rep = classify(net)
        assert rep.consensus_certain is True
        assert rep.dissensus_certain is False
        assert "half_tie_note" in rep.decision_scope
        traj = run(net, (0, 1, 2), RandomSchedule(seed=3))
        assert traj.converged and len(set(traj.terminal)) == 1

    def test_negative_mc_replicas_rejected(self):
        with pytest.raises(ValueError, match="mc_replicas"):
            classify(fixtures.complete_uniform(20), mc_replicas=-1)

    @pytest.mark.parametrize(
        "refusal, call",
        [
            ("mc_replicas must be an integer, not ", lambda net: classify(
                fixtures.complete_uniform(20), cohesion_bound=4, mc_replicas=True
            )),
            ("mc_replicas must be an integer, not ", lambda net: classify(net, mc_replicas=1.5)),
            ("cohesion_bound must be an integer, not ",
             lambda net: classify(net, cohesion_bound=2.5)),
            ("seed must be an integer, not ",
             lambda net: classify(net, cohesion_bound=2, mc_replicas=1, seed=1.5)),
            ("seed must be at least 0$",
             lambda net: classify(net, cohesion_bound=2, mc_replicas=1, seed=-1)),
            # Checked even where no Monte Carlo run would read it.
            ("budget must be an integer, not ", lambda net: classify(net, budget=1.5)),
            ("budget must be at least 1$",
             lambda net: classify(net, budget=0, cohesion_bound=2)),
            ("max_states must be an integer, not ",
             lambda net: enumerate_equilibria(net, range(3), max_states=30.5)),
            ("bound must be an integer, not ",
             lambda net: enumerate_maximal_cohesive_sets(net, bound=None)),
            ("bound must be an integer, not ",
             lambda net: has_nontrivial_maximal_cohesive_set(net, bound="4")),
        ],
        ids=[
            "classify-replicas-bool", "classify-replicas-float", "classify-bound-float",
            "classify-seed-float", "classify-seed-negative", "classify-budget-float",
            "classify-budget-zero", "enumerate-max-states-float", "cohesion-bound-none",
            "nontrivial-bound-str",
        ],
    )
    def test_integer_parameters_refuse_bools_and_floats(self, refusal, call):
        # The rule of ensemble's counts and decide's bound: a JSON integer,
        # and a seed of at least 0, the least that numpy takes.
        with pytest.raises(ValueError, match=f"^{refusal}"):
            call(fixtures.complete_uniform(3))

    def test_undecided_beyond_bound_with_falsification(self):
        rep = classify(fixtures.complete_uniform(6), cohesion_bound=3, mc_replicas=40, seed=4)
        assert rep.consensus_certain is None
        mc = rep.decision_scope["monte_carlo"]
        assert mc["consensus_observed"] is True
        assert "falsification" in mc["note"]

    def test_flags_agree_with_reachability_decision(self):
        nets = [
            fixtures.complete_uniform(4),
            fixtures.bridged_cliques(clique_size=3, cross="1/3"),
            fixtures.disjoint_cliques(clique_size=3, blocks=2),
            fixtures.self_loop_nodes(3),
            fixtures.directed_ring(4),
            InfluenceNetwork.from_rows(
                [
                    [F(0), F(1, 2), F(1, 2)],
                    [F(1, 3), F(1, 3), F(1, 3)],
                    [F(1, 2), F(1, 2), F(0)],
                ]
            ),
        ]
        for net in nets:
            rep = classify(net)
            reachable, _ = decide_consensus_reachable(net)
            if rep.consensus_certain:
                assert reachable
            if rep.dissensus_certain:
                assert not reachable

    def test_json_round(self):
        rep = classify(fixtures.disjoint_cliques(clique_size=3, blocks=2))
        payload = rep.to_json_dict()
        assert payload["dissensus_witness"] == [1, 2, 3]
        assert payload["dissensus_certain"] is True


class TestBuildUpdateSequence:
    def test_consensus_input_gives_empty_sequence(self):
        net = fixtures.complete_uniform(5)
        schedule, terminal = build_update_sequence(net, (2,) * 5)
        assert schedule == () and terminal == (2,) * 5

    def test_misaligned_node_gets_pulled_over(self):
        net = fixtures.bridged_cliques(clique_size=3, cross="1/3")
        schedule, terminal = build_update_sequence(net, (0, 0, 1, 1, 1, 1))
        assert len(schedule) >= 1
        assert is_equilibrium(net, terminal)

    def test_terminal_always_structural_equilibrium(self):
        rnd = random.Random(0x5E)
        for _ in range(60):
            net = random_network(rnd, rnd.randint(1, 7))
            x0 = random_profile(rnd, net.n)
            schedule, terminal = build_update_sequence(net, x0)
            assert is_equilibrium_structural(net, terminal)

    def test_schedule_replays_to_terminal(self):
        rnd = random.Random(0xAB)
        for _ in range(40):
            net = random_network(rnd, rnd.randint(2, 7))
            x0 = random_profile(rnd, net.n)
            schedule, terminal = build_update_sequence(net, x0)
            traj = run(net, x0, list(schedule)) if schedule else None
            assert (traj.terminal if traj else x0) == terminal

    def test_a_node_can_escape_and_rejoin_in_one_level(self):
        # Node 0 escapes the low class, node 2 joins it, and then node 0's
        # whole row is on the low side, so it joins again.
        net = InfluenceNetwork.from_rows([
            [F(0), F(2, 5), F(3, 5)],
            [F(0), F(1), F(0)],
            [F(0), F(3, 5), F(2, 5)],
        ])
        assert build_update_sequence(net, (0, 0, 1)) == ((0, 2, 0), (0, 0, 0))

    def test_only_full_set_maximal_forces_consensus(self):
        for n in (3, 5, 8):
            net = fixtures.complete_uniform(n)
            _, terminal = build_update_sequence(net, tuple(range(n)))
            assert len(set(terminal)) == 1


def kernel_networks():
    """Random networks, co-prime-denominator ones and the covering corpus."""
    rnd = random.Random(0xE4D)
    nets = [random_network(rnd, rnd.randint(1, 10)) for _ in range(200)]
    nets += [random_coprime_network(rnd, rnd.randint(1, 8)) for _ in range(60)]
    return rnd, nets + covering_corpus(0xE4E, 24)


class TestOneExpansionKernel:
    """Both majority expansions run on ``cohesion._expand`` and give exactly
    what the full-rescan expansion and the two-loop sequence gave."""

    def test_expansion_matches_full_rescan(self):
        rnd, nets = kernel_networks()
        for net in nets + [fixtures.self_loop_nodes(1), fixtures.self_loop_nodes(4)]:
            for _ in range(3):
                seed = set(rnd.sample(range(net.n), rnd.randint(1, net.n)))
                hints = [None, list(reversed(range(net.n)))]
                for _ in range(3):
                    hints.append(rnd.sample(range(net.n), net.n))
                for hint in hints:
                    trace = cohesive_expansion(net, seed, order_hint=hint)
                    expected = rescan_cohesive_expansion(net, seed, hint)
                    assert (trace.result, trace.additions) == expected

    def test_sequence_matches_two_loop_version(self):
        rnd, nets = kernel_networks()
        grid = GridUniform(201)
        extra = [fixtures.lattice(6, 6), fixtures.complete_uniform(9)]
        extra += [fixtures.self_loop_nodes(1), fixtures.self_loop_nodes(4)]
        for net in nets + extra:
            n = net.n
            for x0 in (
                random_profile(rnd, n, spread=n),
                tuple(F(rnd.randint(-6, 6), rnd.randint(1, 4)) for _ in range(n)),
                grid.draw(np.random.default_rng(rnd.getrandbits(32)), n),
                (F(0),) * n,  # a consensus: no levels
            ):
                assert build_update_sequence(net, x0) == two_loop_update_sequence(net, x0)
        # Node 0 escapes at level 0 and leaves the low block empty; node 2
        # joins at level 1.
        net, x0 = fixtures.complete_uniform(3), (0, 1, 2)
        expected = ((0, 2), (1, 1, 1))
        assert build_update_sequence(net, x0) == two_loop_update_sequence(net, x0) == expected


class TestDecideConsensusReachable:
    def test_complete_uniform_reachable_with_certificate(self):
        net = fixtures.complete_uniform(4)
        ok, cert = decide_consensus_reachable(net)
        assert ok and cert is not None
        assert verify_certificate(net, cert)
        assert cert.initial.count(0) == 1
        assert all(v in (-1, 0, 1) for v in cert.initial)

    def test_disjoint_cliques_unreachable(self):
        assert decide_consensus_reachable(fixtures.disjoint_cliques(3, 2)) == (False, None)

    def test_single_node_trivial(self):
        ok, cert = decide_consensus_reachable(fixtures.self_loop_nodes(1))
        assert ok and cert.sequence == () and cert.target_time == 0

    def test_two_frozen_nodes_unreachable(self):
        assert decide_consensus_reachable(fixtures.self_loop_nodes(2)) == (False, None)

    def test_bound_refusal(self):
        with pytest.raises(ValueError, match="bound"):
            decide_consensus_reachable(fixtures.complete_uniform(13), bound=12)

    def test_failed_replay_raises_without_asserts(self):
        # ``python -O`` strips asserts, so a child run under it with the
        # replay patched to fail shows the check does not rest on one.
        code = (
            "from median_consensus import equilibria, fixtures\n"
            "equilibria.verify_certificate = lambda net, cert: False\n"
            "try:\n"
            "    equilibria.decide_consensus_reachable(fixtures.complete_uniform(3))\n"
            "except RuntimeError as exc:\n"
            "    print(__debug__, exc)\n"
        )
        proc = python_child(code, options=("-O",))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False consensus certificate failed replay verification\n"

    def test_certificates_are_shortest_nontrivial(self):
        # every certificate replays, and no strict prefix already reaches
        # the all-zero state
        rnd = random.Random(0xCE27)
        for _ in range(20):
            net = random_network(rnd, rnd.randint(2, 5))
            ok, cert = decide_consensus_reachable(net)
            if not ok:
                continue
            assert verify_certificate(net, cert)
            state = list(cert.initial)
            for k, node in enumerate(cert.sequence[:-1]):
                from median_consensus import step

                state = list(step(net, state, node))
                assert set(state) != {0}


class TestPaperLaws:
    """The paper's graph conditions bound the exhaustive decision."""

    @settings(max_examples=150, deadline=None)
    @given(oracle_networks())
    def test_classification_flags_bound_decide(self, net):
        report = classify(net)
        reachable, _ = decide_consensus_reachable(net)
        if report.consensus_certain:
            assert reachable
        if report.dissensus_certain:
            assert not reachable

    @settings(max_examples=150, deadline=None)
    @given(oracle_networks())
    def test_certificate_zero_lies_in_the_sink_component(self, net):
        # A node only takes values held in its own row, so the zero spreads
        # backwards along row links and must start where every node leads.
        reachable, cert = decide_consensus_reachable(net)
        if reachable:
            assert cert.initial.index(0) in oracle_sink_component(net)
        else:
            assert cert is None


# -- oracles: frozen copies of the searches before packed states and memos --


def oracle_sink_component(net):
    """Nodes that every node reaches along positive-weight row links, by one
    closure per node over the Fraction weights."""
    def reached(i):
        seen, stack = {i}, [i]
        while stack:
            a = stack.pop()
            for b in range(net.n):
                if b not in seen and net.weight(a, b) > 0:
                    seen.add(b)
                    stack.append(b)
        return seen

    return set.intersection(*(reached(i) for i in range(net.n)))


def product_equilibria(net, opinion_values):
    """Every state over the labels with no successor, in product order."""
    labels = sorted(set(opinion_values))
    rows = net.integer_rows
    return [
        tuple(labels[v] for v in state)
        for state in product(range(len(labels)), repeat=net.n)
        if next(successors(rows, state), None) is None
    ]


def oracle_corpus():
    """The networks on which _blocking_partners is held to its oracles."""
    return chain(differential_networks(0xF202, 40), differential_networks(0xCA1, 40))


def oracle_frozen_nodes(net):
    """Nodes with self-weight at least 1/2, from the Fraction weights."""
    return [i for i in range(net.n) if net.weight(i, i) >= HALF]


def oracle_cohesive_pairs(net):
    """Per node, the other nodes b with {a, b} cohesive, from the Fraction
    weights."""
    def holds(a, b):
        return net.weight(a, a) + net.weight(a, b) >= HALF

    return [
        [b for b in range(net.n) if b != a and holds(a, b) and holds(b, a)]
        for a in range(net.n)
    ]


def _pair_blocked(state, node, partners):
    v = state[node]
    if v == 0:
        return False
    for p in partners[node]:
        if state[p] == v:
            return True
    return False


def _search_to_zero(rows, y0, target, dead, partners):
    """BFS from y0 toward the all-zero state with cross-start memoization."""
    neg = operator.neg
    if min(y0, tuple(map(neg, y0))) in dead:
        return None
    parents = {y0: None}
    frontier = [y0]
    found = None
    while frontier and found is None:
        nxt = []
        for s in frontier:
            for i, s2 in successors(rows, s):
                if s2 in parents:
                    continue
                canon = min(s2, tuple(map(neg, s2)))
                if canon in dead:
                    continue
                parents[s2] = (s, i)
                if s2 == target:
                    found = s2
                    break
                if _pair_blocked(s2, i, partners):
                    dead.add(canon)
                    del parents[s2]
                    continue
                nxt.append(s2)
            if found is not None:
                break
        frontier = nxt
    if found is None:
        for s in parents:
            dead.add(min(s, tuple(map(neg, s))))
        return None
    sequence = []
    cur = found
    while parents[cur] is not None:
        prev, agent = parents[cur]
        sequence.append(agent)
        cur = prev
    sequence.reverse()
    return ConsensusCertificate(initial=y0, sequence=tuple(sequence), target_time=len(sequence))


def product_sign_tuples(n, z):
    """Every start with zero at ``z`` and the first non-zero node at -1, in
    ``itertools.product`` order over the other signs."""
    others = [i for i in range(n) if i != z]
    if not others:
        yield (0,)
        return
    for signs in product((-1, 1), repeat=len(others) - 1):
        y0 = [0] * n
        y0[others[0]] = -1
        for node, s in zip(others[1:], signs):
            y0[node] = s
        yield tuple(y0)


def product_starts(n, z, frozen, partners):
    """``product_sign_tuples`` without the starts where a frozen node is
    non-zero or a cohesive pair agrees."""
    for y0 in product_sign_tuples(n, z):
        if not any(y0[f] for f in frozen) and not any(
            _pair_blocked(y0, i, partners) for i in range(n)
        ):
            yield y0


def product_decide(net):
    """Consensus reachability that builds every sign tuple and caches each
    blocked start as dead before searching."""
    n = net.n
    if n == 1:
        return True, ConsensusCertificate(initial=(0,), sequence=(), target_time=0)
    frozen = oracle_frozen_nodes(net)
    if len(frozen) >= 2:
        return False, None
    partners = oracle_cohesive_pairs(net)
    target = (0,) * n
    dead = set()
    for z in frozen or range(n):
        for y0 in product_sign_tuples(n, z):
            canon = min(y0, tuple(-v for v in y0))
            if canon in dead:
                continue
            if any(_pair_blocked(y0, i, partners) for i in range(n)):
                dead.add(canon)
                continue
            cert = _search_to_zero(net.integer_rows, y0, target, dead, partners)
            if cert is not None:
                return True, cert
    return False, None


def gadget_networks():
    return [build_svc_graph(inst).network for inst in reduction_corpus()]


def frozen_and_cycle_networks():
    """One frozen node in a cohesive pair, two frozen nodes, and an odd
    cycle of cohesive pairs beside a free pair."""
    h, q, t = F(1, 2), F(1, 4), F(1, 3)
    return [
        InfluenceNetwork.from_rows([[h, h, 0, 0], [q, q, q, q], [t, t, 0, t], [t, t, t, 0]]),
        InfluenceNetwork.from_rows([[1, 0, 0, 0], [t, t, 0, t], [0, 0, h, h], [q, q, q, q]]),
        InfluenceNetwork.from_rows(
            [[t, t, t, 0, 0], [t, t, t, 0, 0], [t, t, t, 0, 0], [0, q, 0, q, h],
             [q, 0, 0, h, q]]
        ),
    ]


class TestPairConsistentStarts:
    def test_same_starts_in_the_same_order_as_product(self):
        rnd = random.Random(0x57A7)
        nets = []
        while len(nets) < 60:
            net = random_network(rnd, rnd.randint(2, 9))
            if any(oracle_cohesive_pairs(net)):
                nets.append(net)
        nets += gadget_networks()
        nets += frozen_and_cycle_networks()
        nets += [fixtures.self_loop_nodes(1), fixtures.self_loop_nodes(3)]
        for net in nets:
            frozen, pairs = oracle_frozen_nodes(net), oracle_cohesive_pairs(net)
            partners = _blocking_partners(net)
            for z in range(net.n):
                expected = list(product_starts(net.n, z, frozen, pairs))
                starts = [tuple(v - 1 for v in unpack(s, net.n)) for s in _starts(z, partners)]
                assert starts == expected

    def test_frozen_and_cycle_networks(self):
        # One frozen node allows starts only with the zero on it; two allow
        # none; an odd cycle of pairs needs the zero on the cycle.
        counts = []
        for net in frozen_and_cycle_networks():
            partners = _blocking_partners(net)
            counts.append([len(list(_starts(z, partners))) for z in range(net.n)])
        assert counts[0] == [4, 0, 0, 0]
        assert counts[1] == [0] * 4
        assert counts[2] == [2, 2, 2, 0, 0]

    def test_decide_matches_product_search(self):
        rnd = random.Random(0xDEC1DE)
        nets = [random_network(rnd, rnd.randint(1, 7)) for _ in range(300)]
        nets += [random_coprime_network(rnd, rnd.randint(2, 6)) for _ in range(40)]
        nets += gadget_networks()
        nets += covering_corpus(0xDEC1DF, 60)
        reachable = 0
        for net in nets:
            verdict = decide_consensus_reachable(net, bound=net.n)
            assert verdict == product_decide(net)
            reachable += verdict[0]
        assert 0 < reachable < len(nets)

    def test_partner_masks_match_partner_fields(self):
        # A node's ``low`` and ``high`` in the search table flag its new
        # sign exactly when one of its partners holds it, on every ternary
        # state of small networks.
        checked = 0
        for rnd, net in oracle_corpus():
            partners = _blocking_partners(net)
            table = _node_table(net.integer_rows, partners)
            for ranks in product(range(3), repeat=min(net.n, 4)):
                ranks = (*ranks, *(rnd.randint(0, 2) for _ in range(net.n - len(ranks))))
                s = pack(ranks)
                for i, _, _, _, low, high in table:
                    held = {ranks[p] for p in partners[i]}
                    assert bool(s & high) == (2 in held)
                    assert bool(~(s | s >> 1) & low) == (0 in held)
                    checked += 1
        assert checked > 10_000

    def test_odd_cycle_of_pairs_admits_no_start(self):
        # Nodes 0-2 split their weight evenly, so every two of them form a
        # cohesive pair; node 3 listens only to itself and must be the zero.
        t = F(1, 3)
        net = InfluenceNetwork.from_rows(
            [[t, t, t, 0], [t, t, t, 0], [t, t, t, 0], [0, 0, 0, 1]]
        )
        partners = _blocking_partners(net)
        assert partners == [[1, 2], [0, 2], [0, 1], [3]]
        assert list(_starts(3, partners)) == []
        # With the zero on the cycle, the frozen node 3 blocks every start.
        assert list(_starts(0, partners)) == []
        assert decide_consensus_reachable(net) == (False, None)
        assert decide_consensus_reachable(net) == (False, None)


@pytest.fixture
def update_value_calls(monkeypatch):
    """Counts ``_engine.update_value`` calls made through the module, as the
    benchmark's ``EngineCounter`` does; in a search each is a memo miss."""
    calls = [0]
    orig = _engine.update_value

    def counted(int_rows, state, i):
        calls[0] += 1
        return orig(int_rows, state, i)

    monkeypatch.setattr(_engine, "update_value", counted)
    return calls


class TestSearchWork:
    """Exact work counts of ``decide``: a change that drops the memo, the
    cohesive-pair prune or the sign-flip symmetry of the dead-state cache
    keeps every verdict and only costs time, so the counts are what shows
    it."""

    def test_decide_without_consensus(self, update_value_calls):
        # No node is globally reachable, so no zero position can spread.
        assert decide_consensus_reachable(fixtures.disjoint_cliques(4, 3)) == (False, None)
        assert update_value_calls[0] == 0

    def test_decide_outside_the_sink_component(self, update_value_calls):
        # Nodes 4 and 5 follow the 4-clique {0..3} with a third of their
        # weight and each other with the rest, a cohesive pair: the zero
        # starts in the clique only, and never reaches the pair.
        third, twelfth = F(1, 3), F(1, 12)
        rows = [[third] * 4 + [0, 0] for _ in range(4)]
        for i in range(4):
            rows[i][i] = 0
        rows += [[twelfth] * 4 + [0, 2 * third], [twelfth] * 4 + [2 * third, 0]]
        net = InfluenceNetwork.from_rows(rows)
        assert decide_consensus_reachable(net) == (False, None)
        assert update_value_calls[0] == 254

    def test_decide_on_unsatisfiable_gadget(self, update_value_calls):
        inst = reduction_corpus()[4]
        net = build_svc_graph(inst).network
        assert decide_consensus_reachable(net, bound=net.n) == (False, None)
        assert update_value_calls[0] == 66


@pytest.fixture
def margin_calls(monkeypatch):
    """Counts ``cohesion._margin`` calls."""
    calls = [0]
    orig = cohesion._margin

    def counted(row, inside):
        calls[0] += 1
        return orig(row, inside)

    monkeypatch.setattr(cohesion, "_margin", counted)
    return calls


class _CountedReads(tuple):
    """A tuple that counts its subscriptions."""

    reads = 0

    def __getitem__(self, k):
        self.reads += 1
        return tuple.__getitem__(self, k)


def counted_listener_rows(net):
    """Swap ``net.listener_weights`` for a counting copy and return it."""
    rows = _CountedReads(net.listener_weights)
    net.__dict__["listener_weights"] = rows
    return rows


class TestExpansionWork:
    """Exact work counts of the carried cut: each move reads one
    ``listener_weights`` row, and no expansion recomputes a margin from the
    rows.  An expansion that rescans every node after each move keeps every
    output and only costs time."""

    def test_build_update_sequence(self, margin_calls):
        net = fixtures.lattice(6, 6)
        rows = counted_listener_rows(net)
        x0 = GridUniform(201).draw(np.random.default_rng(6), 36)
        schedule, _ = build_update_sequence(net, x0)
        assert len(schedule) == 27
        # 72 nodes moved below the cut with their level's class, and the 27
        # scheduled ones.
        assert rows.reads == 99
        assert margin_calls[0] == 0

    def test_cohesive_expansion(self, margin_calls):
        net = fixtures.lattice(10, 10)
        rows = counted_listener_rows(net)
        seed = set(random.Random(10).sample(range(100), 45))
        trace = cohesive_expansion(net, seed)
        assert len(trace.additions) == 27
        # One margin per node to start, then one row per admission.
        assert margin_calls[0] == 100
        assert rows.reads == 27


class TestCohesionWork:
    """Exact work counts of the listener-mass kernels: one ``listener_weights``
    row read per placement or undo of the cut search, and none of the margin
    rescans they replace.  A search that checks cuts only once every node is
    placed finds the same sets and reads far more rows.  The enumeration of
    equilibria runs on that search alone, with no median computed."""

    def test_enumerate_equilibria(self, margin_calls, update_value_calls):
        net = fixtures.lattice(3, 3)
        rows = counted_listener_rows(net)
        assert len(enumerate_equilibria(net, range(3))) == 947
        # One row per placement and undo of the cut search, read once.
        assert rows.reads == 359
        assert update_value_calls[0] == 0
        assert margin_calls[0] == 0

    def test_enumerate_lattice(self, margin_calls):
        net = fixtures.lattice(4, 4)
        rows = counted_listener_rows(net)
        assert len(enumerate_maximal_cohesive_sets(net)) == 3157
        assert rows.reads == 12409
        assert margin_calls[0] == 0

    def test_enumerate_complete(self, margin_calls):
        net = fixtures.complete_uniform(12)
        rows = counted_listener_rows(net)
        assert enumerate_maximal_cohesive_sets(net) == [frozenset(range(12))]
        assert rows.reads == 1402
        assert margin_calls[0] == 0

    def test_structural_sweep(self, margin_calls):
        net = fixtures.lattice(6, 6)
        x0 = GridUniform(201).draw(np.random.default_rng(6), 36)
        _, terminal = build_update_sequence(net, x0)
        margin_calls[0] = 0
        rows = counted_listener_rows(net)
        # Ten value classes: the sweep moves the 32 nodes below the top one.
        assert len(set(terminal)) == 10 and is_equilibrium_structural(net, terminal)
        assert rows.reads == 32
        # The initial state fails at its first cut, after one row read.
        assert not is_equilibrium_structural(net, x0)
        assert rows.reads == 33
        assert margin_calls[0] == 0


class TestCertificates:
    def test_json_roundtrip(self):
        cert = ConsensusCertificate(initial=(-1, 0, 1), sequence=(2, 0), target_time=2)
        back = ConsensusCertificate.from_json_dict(cert.to_json_dict())
        assert back == cert

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 7))
    def test_decide_certificates_roundtrip_json_and_replay(self, seed, n):
        net = random_network(random.Random(seed), n)
        reachable, cert = decide_consensus_reachable(net)
        if not reachable:
            assert cert is None
            return
        back = ConsensusCertificate.from_json_dict(json.loads(json.dumps(cert.to_json_dict())))
        assert back == cert
        assert verify_certificate(net, back)

    def test_target_time_must_match_length(self):
        with pytest.raises(ValueError):
            ConsensusCertificate(initial=(0, 1), sequence=(1,), target_time=5)

    def test_wrong_length_rejected_by_verify(self):
        net = fixtures.complete_uniform(4)
        cert = ConsensusCertificate(initial=(-1, 0, 1), sequence=(), target_time=0)
        assert verify_certificate(net, cert) is False

    def test_non_reaching_sequence_fails(self):
        net = fixtures.complete_uniform(4)
        cert = ConsensusCertificate(initial=(-1, 0, 1, 1), sequence=(0,), target_time=1)
        assert verify_certificate(net, cert) is False

    def test_out_of_range_node_fails(self):
        # Node 1 then node 2 reach all-zero, but ``True`` and ``1.0`` are not
        # node numbers, as ``step`` has it.
        net = fixtures.complete_uniform(3)
        assert verify_certificate(
            net, ConsensusCertificate(initial=(0, -1, 1), sequence=(1, 2), target_time=2)
        )
        for sequence in [(9,), (True, 2), (1.0, 2)]:
            cert = ConsensusCertificate(
                initial=(0, -1, 1), sequence=sequence, target_time=len(sequence)
            )
            assert verify_certificate(net, cert) is False, sequence


class TestCrossCheck:
    def test_fixture_agreement(self):
        for net in (
            fixtures.complete_uniform(4),
            fixtures.disjoint_cliques(clique_size=3, blocks=2),
            fixtures.directed_ring(4),
            fixtures.self_loop_nodes(3),
        ):
            assert decide_consensus_reachable(net, bound=net.n)[0] == distinct_profile_search(net)

    def test_random_agreement(self):
        rnd = random.Random(0xAC)
        for _ in range(12):
            net = random_network(rnd, rnd.randint(2, 5))
            assert decide_consensus_reachable(net, bound=net.n)[0] == distinct_profile_search(net)

    def test_distinct_search_matches_rank_search(self):
        # Consensus on some value from an all-distinct profile is reachable
        # iff the ternary search reaches all-zero from a one-zero profile.
        rnd = random.Random(0xD15C)
        nets = [random_network(rnd, rnd.randint(1, 6)) for _ in range(200)]
        nets += [random_coprime_network(rnd, rnd.randint(2, 5)) for _ in range(20)]
        nets += [fixtures.disjoint_cliques(clique_size=3, blocks=2), fixtures.directed_ring(5)]
        nets += covering_corpus(0xD15D, 40)
        verdicts = [decide_consensus_reachable(net, bound=net.n)[0] for net in nets]
        assert verdicts == [distinct_profile_search(net) for net in nets]
        assert 0 < sum(verdicts) < len(nets)


class TestOrderNeighborhood:
    """Nudging every opinion by less than half the minimum gap preserves the
    whole trajectory's order structure under the same schedule."""

    def test_perturbed_replay_has_same_rank_pattern(self):
        rnd = random.Random(0x0DD)
        for _ in range(25):
            net = random_network(rnd, rnd.randint(2, 6))
            n = net.n
            base = list(range(n))
            rnd.shuffle(base)
            x0 = tuple(base)  # distinct ints, gap 1
            schedule, terminal = build_update_sequence(net, x0)
            eps = [F(rnd.randint(-4, 4), 10) for _ in range(n)]  # |e| <= 2/5 < 1/2
            perturbed = tuple(v + e for v, e in zip(x0, eps))
            if schedule:
                shaken = run(net, perturbed, list(schedule)).terminal
            else:
                shaken = perturbed
            rank = {v: r for r, v in enumerate(sorted(set(terminal)))}
            shaken_rank = {v: r for r, v in enumerate(sorted(set(shaken)))}
            assert [rank[v] for v in terminal] == [shaken_rank[v] for v in shaken]
