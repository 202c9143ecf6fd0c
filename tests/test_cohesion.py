"""Cohesive sets: definitions, expansion, enumeration, structural laws."""

from __future__ import annotations

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import oracle_networks, random_coprime_network, random_network
from median_consensus import (
    InfluenceNetwork,
    RandomSchedule,
    cohesive_expansion,
    enumerate_maximal_cohesive_sets,
    fixtures,
    has_nontrivial_maximal_cohesive_set,
    is_cohesive,
    is_equilibrium_structural,
    is_maximal_cohesive,
    run,
)
from median_consensus.cohesion import _margin


HALF = F(1, 2)


def oracle_mass(net, i, members):
    """Fraction weight node i puts on ``members``, straight from the rows."""
    return sum((w for j, w in net.rows[i] if j in members), F(0))


def oracle_cohesive(net, s):
    return all(oracle_mass(net, i, s) >= HALF for i in s)


def oracle_maximal(net, s):
    return oracle_cohesive(net, s) and all(
        not oracle_mass(net, o, s) > HALF for o in range(net.n) if o not in s
    )


def oracle_maximal_sets(net):
    """Exhaustive subset check straight from the definition, no shared code
    with the library's integer enumeration."""
    found = []
    for mask in range(1, 1 << net.n):
        s = {i for i in range(net.n) if mask >> i & 1}
        if oracle_maximal(net, s):
            found.append(frozenset(s))
    return sorted(found, key=lambda s: (len(s), sorted(s)))


def oracle_expansion(net, seed):
    """Admit the lowest-index strict-majority outsider until none is left."""
    current, additions = set(seed), []
    while True:
        qualifiers = [
            i for i in range(net.n) if i not in current and oracle_mass(net, i, current) > HALF
        ]
        if not qualifiers:
            return frozenset(current), tuple(additions)
        current.add(min(qualifiers))
        additions.append((min(qualifiers), len(additions) + 1))


def oracle_structural(net, x):
    """Every cut of the value axis leaves a maximal cohesive set below it,
    checked cut by cut with the Fraction oracle."""
    vals = list(x)
    return all(
        oracle_maximal(net, {i for i, v in enumerate(vals) if v <= cut})
        for cut in sorted(set(vals))[:-1]
    )


def chain_network(n):
    """Node 0 listens only to itself and node i only to node i - 1."""
    return InfluenceNetwork.from_edges(n, [(0, 0, 1)] + [(i, i - 1, 1) for i in range(1, n)])


# Repeated values, and floats equal to Fractions, put several nodes in a class.
_OPINIONS = st.sampled_from((0, 1, 2, -1, F(1, 2), 0.5, F(3, 2), 1.5, 2.25))


def differential_networks(seed, count):
    """Small-denominator and co-prime-denominator random networks, alternating."""
    rnd = random.Random(seed)
    for k in range(count):
        n = rnd.randint(1, 6)
        yield rnd, random_network(rnd, n) if k % 2 else random_coprime_network(rnd, n)


class TestDefinitions:
    def test_full_set_always_cohesive(self):
        rnd = random.Random(1)
        for _ in range(10):
            net = random_network(rnd, rnd.randint(1, 6))
            assert is_cohesive(net, set(range(net.n)))
            assert is_maximal_cohesive(net, set(range(net.n)))

    def test_singleton_threshold(self):
        net = InfluenceNetwork.from_rows(
            [[F(1, 2), F(1, 2)], [F(3, 5), F(2, 5)]]
        )
        assert is_cohesive(net, {0}) is True
        assert is_cohesive(net, {1}) is False

    def test_empty_set_rejected(self):
        net = fixtures.complete_uniform(3)
        with pytest.raises(ValueError, match="non-empty"):
            is_cohesive(net, set())

    def test_out_of_range_member(self):
        net = fixtures.complete_uniform(3)
        for members in ({0, 5}, [True, 2], [1.0]):
            with pytest.raises(ValueError, match="out of range"):
                is_cohesive(net, members)
            with pytest.raises(ValueError, match="out of range"):
                cohesive_expansion(net, members)

    def test_clique_pair_is_cohesive_but_not_maximal(self):
        # inside one 3-clique (no self-loops) a pair holds exactly 1/2 per
        # member, but the third member pours full mass in
        net = fixtures.disjoint_cliques(clique_size=3, blocks=2)
        assert is_cohesive(net, {0, 1})
        assert not is_maximal_cohesive(net, {0, 1})
        assert is_maximal_cohesive(net, {0, 1, 2})


class TestExpansion:
    def test_fixed_point_on_maximal(self):
        net = fixtures.disjoint_cliques(clique_size=3, blocks=2)
        trace = cohesive_expansion(net, {0, 1, 2})
        assert trace.result == frozenset({0, 1, 2})
        assert trace.additions == ()

    def test_pair_pulls_in_third(self):
        net = fixtures.disjoint_cliques(clique_size=3, blocks=2)
        trace = cohesive_expansion(net, {0, 1})
        assert trace.result == frozenset({0, 1, 2})
        assert trace.additions == ((2, 1),)

    def test_additions_reconstruct_result(self):
        rnd = random.Random(404)
        for _ in range(30):
            net = random_network(rnd, rnd.randint(2, 7))
            seed = set(rnd.sample(range(net.n), rnd.randint(1, net.n)))
            trace = cohesive_expansion(net, seed)
            assert trace.result == frozenset(seed) | {i for i, _ in trace.additions}

    def test_order_hint_never_changes_result(self):
        rnd = random.Random(0x0BDE)
        for _ in range(15):
            net = random_network(rnd, rnd.randint(2, 8))
            seed = set(rnd.sample(range(net.n), rnd.randint(1, net.n)))
            base = cohesive_expansion(net, seed).result
            for _ in range(5):
                order = list(range(net.n))
                rnd.shuffle(order)
                assert cohesive_expansion(net, seed, order_hint=order).result == base

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 8), st.data())
    def test_result_independent_of_admission_order(self, seed, n, data):
        net = random_network(random.Random(seed), n)
        members = data.draw(st.sets(st.integers(0, n - 1), min_size=1))
        order = data.draw(st.permutations(range(n)))
        result = cohesive_expansion(net, members, order_hint=order).result
        assert result == cohesive_expansion(net, members).result
        if is_cohesive(net, members):
            assert is_maximal_cohesive(net, result)

    def test_listener_lists_built_only_after_an_admission(self):
        net = fixtures.lattice(40, 40)
        assert cohesive_expansion(net, {820}).additions == ()
        assert "listener_weights" not in net.__dict__
        # The corner listens to itself and its two neighbours, a 2/3 majority.
        assert cohesive_expansion(net, {1, 40}).additions[0] == (0, 1)
        assert "listener_weights" in net.__dict__

    def test_bad_order_hint(self):
        net = fixtures.complete_uniform(3)
        for hint in ([0, 1], [True, 0, 2], [0, 1.0, 2]):
            with pytest.raises(ValueError, match="permutation"):
                cohesive_expansion(net, {0}, order_hint=hint)


class TestEnumeration:
    def test_complete_uniform_has_only_full_set(self):
        for n in (3, 4, 8):
            net = fixtures.complete_uniform(n)
            assert enumerate_maximal_cohesive_sets(net) == [frozenset(range(n))]

    def test_disjoint_cliques(self):
        net = fixtures.disjoint_cliques(clique_size=3, blocks=2)
        assert enumerate_maximal_cohesive_sets(net) == [
            frozenset({0, 1, 2}),
            frozenset({3, 4, 5}),
            frozenset(range(6)),
        ]

    def test_bridged_cliques_keep_both_blocks(self):
        net = fixtures.bridged_cliques(clique_size=3, cross="1/3")
        sets = enumerate_maximal_cohesive_sets(net)
        assert frozenset({0, 1, 2}) in sets and frozenset({3, 4, 5}) in sets

    def test_half_self_loops_make_every_subset_maximal(self):
        # w_ii = w_partner = 1/2: every member self-supports at exactly 1/2
        # and no outsider ever gets strictly above it, so all 15 non-empty
        # subsets qualify
        rows = [
            [F(1, 2), F(1, 2), F(0), F(0)],
            [F(1, 2), F(1, 2), F(0), F(0)],
            [F(0), F(0), F(1, 2), F(1, 2)],
            [F(0), F(0), F(1, 2), F(1, 2)],
        ]
        net = InfluenceNetwork.from_rows(rows)
        assert len(enumerate_maximal_cohesive_sets(net)) == 15

    def test_single_node(self):
        net = fixtures.self_loop_nodes(1)
        assert enumerate_maximal_cohesive_sets(net) == [frozenset({0})]

    def test_bound_refusal(self):
        net = fixtures.self_loop_nodes(17)
        with pytest.raises(ValueError, match="bound"):
            enumerate_maximal_cohesive_sets(net)
        assert len(enumerate_maximal_cohesive_sets(net, bound=17)) == 2 ** 17 - 1

    def test_matches_subset_oracle(self):
        rnd = random.Random(0xC0DE)
        for _ in range(40):
            net = random_network(rnd, rnd.randint(1, 6))
            assert enumerate_maximal_cohesive_sets(net) == oracle_maximal_sets(net)

    def test_deep_chain_needs_no_recursion(self):
        # Every node but 0 follows its predecessor, so only the full set
        # settles; the search places 1,500 nodes without a call per level.
        net = chain_network(1500)
        assert enumerate_maximal_cohesive_sets(net, bound=1500) == [frozenset(range(1500))]

    def test_nontrivial_wrapper(self):
        assert has_nontrivial_maximal_cohesive_set(fixtures.complete_uniform(4)) == (False, None)
        found, witness = has_nontrivial_maximal_cohesive_set(
            fixtures.disjoint_cliques(clique_size=3, blocks=2)
        )
        assert found and len(witness) == 3


class TestListenerMassKernelsMatchFractionOracle:
    """The cut search and the value sweep against the Fraction definitions."""

    @settings(max_examples=120, deadline=None)
    @given(oracle_networks())
    def test_enumeration(self, net):
        assert enumerate_maximal_cohesive_sets(net) == oracle_maximal_sets(net)

    @settings(max_examples=120, deadline=None)
    @given(oracle_networks())
    def test_nontrivial_witness_is_the_first_proper_set(self, net):
        proper = [s for s in oracle_maximal_sets(net) if len(s) < net.n]
        expected = (True, proper[0]) if proper else (False, None)
        assert has_nontrivial_maximal_cohesive_set(net) == expected

    @settings(max_examples=150, deadline=None)
    @given(oracle_networks(), st.data())
    def test_structural_equilibrium(self, net, data):
        x = data.draw(st.lists(_OPINIONS, min_size=net.n, max_size=net.n))
        seed = data.draw(st.integers(0, 99))
        terminal = run(net, x, RandomSchedule(seed=seed)).terminal
        for state in (x, terminal):
            assert is_equilibrium_structural(net, state) == oracle_structural(net, state)

    def test_structural_verdicts_of_both_kinds(self):
        equilibria = non_equilibria = 0
        for rnd, net in differential_networks(0x5EE9, 60):
            x = [rnd.choice((0, 1, F(1, 2), 0.5, 1.5)) for _ in range(net.n)]
            terminal = run(net, x, RandomSchedule(seed=rnd.randrange(99))).terminal
            for state in (x, terminal):
                verdict = is_equilibrium_structural(net, state)
                assert verdict == oracle_structural(net, state)
                if len(set(state)) > 1:
                    equilibria += verdict
                    non_equilibria += not verdict
        assert equilibria > 10 and non_equilibria > 10


class TestIntegerThresholdsMatchFractionOracle:
    """The integer margins behind every threshold agree with Fraction sums."""

    def test_margin_sign_matches_fraction_mass(self):
        for rnd, net in differential_networks(0x3A7, 40):
            members = set(rnd.sample(range(net.n), rnd.randint(0, net.n)))
            inside = [int(i in members) for i in range(net.n)]
            for i, row in enumerate(net.integer_rows):
                m = _margin(row, inside)
                mass = oracle_mass(net, i, members)
                assert (m > 0) == (mass > HALF) and (m >= 0) == (mass >= HALF)

    def test_cohesive_and_maximal_on_every_subset(self):
        for _, net in differential_networks(0xD1FF, 40):
            for mask in range(1, 1 << net.n):
                s = {i for i in range(net.n) if mask >> i & 1}
                assert is_cohesive(net, s) == oracle_cohesive(net, s)
                assert is_maximal_cohesive(net, s) == oracle_maximal(net, s)
                # The cut sweep and the heap expansion, both on ``_move``.
                expansion = cohesive_expansion(net, s)
                assert is_maximal_cohesive(net, s) == (
                    is_cohesive(net, s) and expansion.additions == ()
                )

    def test_expansion(self):
        for rnd, net in differential_networks(0xE4A, 60):
            seed = set(rnd.sample(range(net.n), rnd.randint(1, net.n)))
            trace = cohesive_expansion(net, seed)
            assert (trace.result, trace.additions) == oracle_expansion(net, seed)

    def test_enumeration_with_large_denominators(self):
        for _, net in differential_networks(0xB16, 30):
            assert enumerate_maximal_cohesive_sets(net) == oracle_maximal_sets(net)


class TestStructuralLaws:
    """The five structural properties of cohesive sets: closure of unions,
    the two expansion monotonicity laws, the smallest-maximal-superset law,
    and the complement partition law."""

    NETWORKS = 30

    def _networks(self):
        rnd = random.Random(0x1A3)
        for _ in range(self.NETWORKS):
            yield rnd, random_network(rnd, rnd.randint(2, 6))

    def _cohesive_sets(self, net):
        for mask in range(1, 1 << net.n):
            s = frozenset(i for i in range(net.n) if mask >> i & 1)
            if is_cohesive(net, s):
                yield s

    def test_union_of_cohesive_is_cohesive(self):
        for _, net in self._networks():
            sets = list(self._cohesive_sets(net))
            for a in sets:
                for b in sets:
                    assert is_cohesive(net, a | b)

    def test_expansion_monotone_in_seed(self):
        for rnd, net in self._networks():
            big = set(rnd.sample(range(net.n), rnd.randint(1, net.n)))
            small = set(rnd.sample(sorted(big), rnd.randint(1, len(big))))
            assert cohesive_expansion(net, small).result <= cohesive_expansion(net, big).result

    def test_expansion_union_bound(self):
        for rnd, net in self._networks():
            a = set(rnd.sample(range(net.n), rnd.randint(1, net.n)))
            b = set(rnd.sample(range(net.n), rnd.randint(1, net.n)))
            lhs = cohesive_expansion(net, a).result | cohesive_expansion(net, b).result
            assert lhs <= cohesive_expansion(net, a | b).result

    def test_expansion_of_cohesive_is_smallest_maximal_superset(self):
        for _, net in self._networks():
            maximal = enumerate_maximal_cohesive_sets(net)
            for m in self._cohesive_sets(net):
                grown = cohesive_expansion(net, m).result
                assert is_maximal_cohesive(net, grown)
                for cover in maximal:
                    if m <= cover:
                        assert grown <= cover

    def test_complement_partition(self):
        for _, net in self._networks():
            full = frozenset(range(net.n))
            for m in enumerate_maximal_cohesive_sets(net):
                if m != full:
                    assert is_maximal_cohesive(net, full - m)
