"""Network construction, serialization, decisive links, reachability."""

from __future__ import annotations

import dataclasses
import json
import random
from fractions import Fraction as F
from itertools import chain, combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import HUGE_COUNT, peak_allocation, random_coprime_rows, random_network
from median_consensus import InfluenceNetwork, fixtures, network
from median_consensus.dynamics import RandomSchedule, run
from median_consensus.network import (
    NetworkFormatError,
    decisive_subgraph,
    has_globally_reachable_node,
    has_half_ties,
    is_decisive,
    load_network,
    network_from_csv_text,
    network_from_json_dict,
    network_to_csv_text,
    network_to_dot,
    network_to_json_dict,
    save_network,
)


class TestConstruction:
    def test_from_rows_drops_zeros(self):
        net = InfluenceNetwork.from_rows([[F(1, 2), F(1, 2)], [F(0), F(1)]])
        assert net.weight(1, 0) == 0
        assert net.out_neighbors(1) == (1,)

    def test_row_sum_enforced(self):
        with pytest.raises(ValueError, match="sum"):
            InfluenceNetwork.from_rows([[F(1, 2), F(1, 3)], [F(1), F(0)]])

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            InfluenceNetwork.from_rows([[F(3, 2), F(-1, 2)], [F(0), F(1)]])

    def test_float_rejected(self):
        with pytest.raises(TypeError, match="exact"):
            InfluenceNetwork.from_rows([[0.5, 0.5], [0.0, 1.0]])

    def test_from_edges(self):
        net = InfluenceNetwork.from_edges(2, [(0, 1, F(1)), (1, 0, "1/2"), (1, 1, "1/2")])
        assert net.weight(1, 0) == F(1, 2)
        assert net.edge_count == 3

    def test_from_edges_normalize(self):
        net = InfluenceNetwork.from_edges(2, [(0, 0, 3), (0, 1, 1), (1, 1, 5)], normalize=True)
        assert net.weight(0, 0) == F(3, 4)
        assert net.weight(1, 1) == F(1)

    def test_duplicate_edge_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            InfluenceNetwork.from_edges(1, [(0, 0, "1/2"), (0, 0, "1/2")])

    def test_integer_rows_reconstruct_weights(self):
        rnd = random.Random(5150)
        for _ in range(40):
            net = random_network(rnd, rnd.randint(1, 7))
            for i, (nbrs, wints, denom) in enumerate(net.integer_rows):
                assert sum(wints) == denom
                for j, wi in zip(nbrs, wints):
                    assert F(wi, denom) == net.weight(i, j)

    @pytest.mark.parametrize(
        "build",
        [lambda: InfluenceNetwork.from_edges(HUGE_COUNT, iter([(0, 0, 1)])),
         lambda: network_from_json_dict({"n": HUGE_COUNT, "edges": [[1, 1, "1"]]})],
        ids=["from_edges", "json"],
    )
    def test_node_count_beyond_edge_entries_refused_before_allocating(self, build):
        def refused():
            with pytest.raises(NetworkFormatError, match="edge list has 1 entries"):
                build()

        assert peak_allocation(refused) < 1_000_000

    @pytest.mark.parametrize("edge", [(True, 0, 1), (0, False, 1)])
    def test_from_edges_rejects_bool_endpoints(self, edge):
        with pytest.raises(NetworkFormatError, match="must be ints"):
            InfluenceNetwork.from_edges(2, [edge, (1, 1, 1)])

    def test_listener_weights_invert_integer_rows(self):
        rnd = random.Random(6006)
        for _ in range(40):
            net = random_network(rnd, rnd.randint(1, 7))
            pairs = {
                (i, j): w
                for i, (nbrs, wints, _) in enumerate(net.integer_rows)
                for j, w in zip(nbrs, wints)
            }
            inverted = {
                (i, j): w
                for j, (nodes, wints) in enumerate(net.listener_weights)
                for i, w in zip(nodes, wints)
            }
            assert inverted == pairs


def _direct(*rows, n=None):
    return InfluenceNetwork(len(rows) if n is None else n, tuple(rows))


# One bad network per rule and construction path; every one of them is
# refused by InfluenceNetwork.__post_init__ (or, for an edge's source node,
# by the edge-list builder, which buckets edges by it).
_RULE_CASES = {
    "count-direct": (lambda: _direct(n=0), "node count"),
    "count-bool": (lambda: _direct(((0,), (1,), 1), n=True), "node count"),
    "count-edges": (lambda: InfluenceNetwork.from_edges(0, []), "node count"),
    "count-csv": (lambda: network_from_csv_text("0\n"), "node count"),
    "count-json": (lambda: network_from_json_dict({"n": 0, "edges": []}), "node count"),
    "rows-direct": (lambda: _direct(((0,), (1,), 1), n=2), "expected 2 rows"),
    "rows-csv": (lambda: network_from_csv_text("2\n1/2,1/2\n"), "expected 2 rows"),
    "index-direct": (lambda: _direct(((1,), (1,), 1)), "must be ints"),
    "index-negative": (lambda: _direct(((-1,), (1,), 1)), "must be ints"),
    "index-bool": (lambda: _direct(((False,), (1,), 1)), "must be ints"),
    "index-edges": (lambda: InfluenceNetwork.from_edges(1, [(0, 1, 1)]), "must be ints"),
    "index-json": (
        lambda: network_from_json_dict({"n": 1, "edges": [[1, 2, "1"]]}), "must be ints"
    ),
    "index-json-float": (
        lambda: network_from_json_dict({"n": 1, "edges": [[1, 1.0, "1"]]}), "must be ints"
    ),
    "index-json-mixed": (
        lambda: network_from_json_dict({"n": 2, "edges": [[1, 2, "1/2"], [1, "a", "1/2"]]}),
        "must be ints",
    ),
    "entry-json": (
        lambda: network_from_json_dict({"n": 1, "edges": [[1, 1]]}), r"must be \[i, j, weight\]"
    ),
    "source-edges": (lambda: InfluenceNetwork.from_edges(1, [(1, 0, 1)]), "must be ints"),
    "source-json": (
        lambda: network_from_json_dict({"n": 1, "edges": [[0, 1, "1"]]}), "must be ints"
    ),
    "duplicate-direct": (lambda: _direct(((0, 0), (1, 1), 2)), "duplicate"),
    "duplicate-json": (
        lambda: network_from_json_dict({"n": 1, "edges": [[1, 1, "1/2"], [1, 1, "1/2"]]}),
        "duplicate",
    ),
    "order-direct": (
        lambda: _direct(((1, 0), (1, 1), 2), ((1,), (1,), 1)), "must increase"
    ),
    "sign-direct": (lambda: _direct(((0,), (0,), 0)), "positive"),
    "sign-rows": (lambda: InfluenceNetwork.from_rows([[F(3, 2), F(-1, 2)], [0, 1]]), "positive"),
    "sign-edges": (
        lambda: InfluenceNetwork.from_edges(2, [(0, 0, 2), (0, 1, -1), (1, 1, 1)]), "positive"
    ),
    "sign-csv": (lambda: network_from_csv_text("1\n-1\n"), "positive"),
    "sign-json": (
        lambda: network_from_json_dict({"n": 1, "normalize": True, "edges": [[1, 1, "-2"]]}),
        "positive",
    ),
    "weight-type-direct": (lambda: _direct(((0,), (True,), 1)), "positive"),
    "sum-direct": (lambda: _direct(((0,), (1,), 2)), "sum"),
    "sum-empty": (lambda: InfluenceNetwork.from_edges(1, []), "sum"),
    "sum-rows": (lambda: InfluenceNetwork.from_rows([[F(1, 2)]]), "sum"),
    "sum-edges": (lambda: InfluenceNetwork.from_edges(1, [(0, 0, "1/2")]), "sum"),
    "sum-csv": (lambda: network_from_csv_text("1\n1/2\n"), "sum"),
    "sum-json": (lambda: network_from_json_dict({"n": 1, "edges": [[1, 1, "1/2"]]}), "sum"),
    "denominator-direct": (lambda: _direct(((), (), 0)), "denominator"),
    "lowest-terms-direct": (lambda: _direct(((0,), (2,), 2)), "lowest terms"),
    "shape-direct": (lambda: _direct(((0,), (1, 1), 2)), "neighbors but"),
}


class TestStoredForm:
    def test_fields_are_n_and_integer_rows(self):
        assert [f.name for f in dataclasses.fields(InfluenceNetwork)] == ["n", "integer_rows"]
        assert not hasattr(InfluenceNetwork, "_row_maps")

    def test_load_run_and_verdicts_build_no_fractions(self, tmp_path):
        path = tmp_path / "lattice.json"
        save_network(fixtures.lattice(4, 5), path)
        net = load_network(path)
        run(net, tuple(i % 3 for i in range(net.n)), RandomSchedule(seed=4))
        sub = decisive_subgraph(net)
        assert sub.edges and sub.indecisive_edges
        has_globally_reachable_node(sub)
        assert has_globally_reachable_node(net)[0]
        assert net.edge_count == 20 + 2 * (3 * 5 + 4 * 4)
        assert "rows" not in net.__dict__
        assert all(type(x) is int for _, wints, d in net.integer_rows for x in wints + (d,))

    def test_fraction_views(self):
        net = _direct(((0, 1), (3, 2), 5), ((1,), (1,), 1))
        assert net.rows == (((0, F(3, 5)), (1, F(2, 5))), ((1, F(1)),))
        assert net.weight(0, 1) == F(2, 5) and net.weight(1, 0) == 0
        assert list(net.edges()) == [(0, 0, F(3, 5)), (0, 1, F(2, 5)), (1, 1, F(1))]
        assert net.out_neighbors(0) == (0, 1)

    def test_normalize_stores_lowest_terms(self):
        net = InfluenceNetwork.from_edges(2, [(0, 1, 4), (0, 0, 2), (1, 1, "3/7")], normalize=True)
        assert net.integer_rows == (((0, 1), (1, 2), 3), ((1,), (1,), 1))

    def test_every_path_stores_equal_weights_equally(self):
        direct = _direct(((0, 1), (1, 2), 3), ((1,), (1,), 1))
        built = [
            InfluenceNetwork.from_rows([[F(1, 3), F(2, 3)], [F(0), F(1)]]),
            InfluenceNetwork.from_edges(2, [(1, 1, 1), (0, 1, "2/3"), (0, 0, F(2, 6))]),
            InfluenceNetwork.from_edges(2, [(0, 0, 2), (0, 1, 4), (1, 1, 5)], normalize=True),
            network_from_csv_text("2\n1/3,2/3\n0,1\n"),
            network_from_json_dict(
                {"n": 2, "normalize": True, "edges": [[1, 2, "0.5"], [1, 1, "1/4"], [2, 2, "9"]]}
            ),
        ]
        assert all(net == direct for net in built)
        assert {hash(net) for net in built} == {hash(direct)}

    @pytest.mark.parametrize("case", sorted(_RULE_CASES))
    def test_each_rule_is_enforced_on_every_path(self, case):
        build, match = _RULE_CASES[case]
        with pytest.raises(NetworkFormatError, match=match):
            build()


@st.composite
def built_networks(draw):
    """A network and the dense Fraction rows it was built from.

    Either a JSON edge-list payload of random rational rows, shuffled, with
    explicit zero entries and possibly ``normalize: true``, or the dense
    rows of ``conftest.random_coprime_rows``.
    """
    if draw(st.booleans()):
        seed, n = draw(st.integers(0, 2**32)), draw(st.integers(1, 6))
        dense = random_coprime_rows(random.Random(seed), n)
        return InfluenceNetwork.from_rows(dense), dense
    n = draw(st.integers(1, 6))
    normalize = draw(st.booleans())
    dense, edges = [], []
    for i in range(n):
        support = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
        raw = [draw(st.builds(F, st.integers(1, 50), st.integers(1, 50))) for _ in support]
        total = sum(raw)
        given_weights = raw if normalize else [w / total for w in raw]
        row = [F(0)] * n
        for j, w, g in zip(support, raw, given_weights):
            row[j] = w / total
            edges.append([i + 1, j + 1, str(g)])
        for j in range(n):
            if row[j] == 0 and draw(st.booleans()):
                edges.append([i + 1, j + 1, "0"])
        dense.append(row)
    edges = draw(st.permutations(edges))
    payload = {"n": n, "normalize": normalize, "edges": list(edges)}
    return network_from_json_dict(json.loads(json.dumps(payload))), dense


class TestRoundTripProperty:
    @settings(max_examples=150, deadline=None)
    @given(built_networks())
    def test_formats_round_trip_to_the_built_weights(self, case):
        net, dense = case
        via_json = network_from_json_dict(json.loads(json.dumps(network_to_json_dict(net))))
        via_csv = network_from_csv_text(network_to_csv_text(net))
        for back in (via_json, via_csv):
            assert back == net and hash(back) == hash(net)
        for i, row in enumerate(dense):
            assert net.rows[i] == tuple((j, w) for j, w in enumerate(row) if w)
            assert [net.weight(i, j) for j in range(net.n)] == row


class TestFormats:
    def test_csv_roundtrip(self):
        net = fixtures.bridged_cliques(clique_size=3, cross="1/3")
        assert network_from_csv_text(network_to_csv_text(net)) == net

    def test_csv_comments_and_header(self):
        text = "# demo\n2\n1/2, 1/2\n# interior comment\n0, 1\n"
        net = network_from_csv_text(text)
        assert net.n == 2 and net.weight(0, 1) == F(1, 2)

    def test_csv_bad_row_count(self):
        with pytest.raises(NetworkFormatError):
            network_from_csv_text("2\n1/2 1/2\n")

    def test_json_roundtrip(self):
        net = fixtures.lattice(2, 3)
        assert network_from_json_dict(network_to_json_dict(net)) == net

    def test_json_is_one_indexed(self):
        payload = {"n": 2, "edges": [[1, 2, "1"], [2, 2, "1"]]}
        net = network_from_json_dict(payload)
        assert net.weight(0, 1) == F(1)

    def test_json_ignores_unknown_keys(self):
        payload = {"n": 1, "edges": [[1, 1, "1"]], "roles": {"sink": 1}, "comment": "x"}
        assert network_from_json_dict(payload).n == 1

    @pytest.mark.parametrize("edges", [5, None, "1,1,1", {"1": [1, 1]}])
    def test_json_edges_must_be_a_list(self, edges):
        with pytest.raises(NetworkFormatError, match="'edges' must be a list"):
            network_from_json_dict({"n": 2, "edges": edges})

    @pytest.mark.parametrize(
        "bad, message",
        [(True, "booleans are not valid weights"), (1.0, "refusing float 1.0")],
    )
    def test_json_weights_equal_to_parsed_ones_are_still_refused(self, bad, message):
        # True and 1.0 hash equal to the int 1 met earlier in the same load.
        payload = {"n": 3, "edges": [[1, 1, "1"], [2, 2, 1], [3, 3, bad]]}
        with pytest.raises(NetworkFormatError, match=message):
            network_from_json_dict(payload)

    def test_json_normalize_flag(self):
        payload = {"n": 1, "normalize": True, "edges": [[1, 1, "7"]]}
        assert network_from_json_dict(payload).weight(0, 0) == F(1)

    def test_save_load_inference(self, tmp_path):
        net = fixtures.complete_uniform(3)
        for name in ("net.csv", "net.json"):
            path = tmp_path / name
            save_network(net, path)
            assert load_network(path) == net

    def test_load_unknown_suffix_needs_fmt(self, tmp_path):
        path = tmp_path / "net.dat"
        path.write_text(network_to_csv_text(fixtures.complete_uniform(3)))
        with pytest.raises(NetworkFormatError):
            load_network(path)
        assert load_network(path, fmt="csv").n == 3

    def test_dot_marks_decisiveness(self):
        net = InfluenceNetwork.from_rows([[F(3, 5), F(2, 5)], [F(0), F(1)]])
        dot = network_to_dot(net, decisive_subgraph(net))
        assert 'decisive=true' in dot and 'decisive=false' in dot


def oracle_decisive(net, i, j):
    """Brute-force subset enumeration straight from the definition."""
    others = [w for t, w in net.rows[i] if t != j]
    wij = net.weight(i, j)
    half = F(1, 2)
    for combo in chain.from_iterable(combinations(others, k) for k in range(len(others) + 1)):
        s = sum(combo, F(0))
        if s < half < s + wij:
            return True
    return False


def oracle_half_ties(net):
    """Whether some subset of some row sums to exactly 1/2, by enumeration."""
    for row in net.rows:
        weights = [w for _t, w in row]
        subsets = chain.from_iterable(combinations(weights, k) for k in range(len(weights) + 1))
        if any(sum(c, F(0)) == F(1, 2) for c in subsets):
            return True
    return False


def _spread_row_network(d, units):
    """Node 0 puts 1/d on nodes 0..units-1 and the rest on node ``units``;
    every other node listens only to itself."""
    size = units + 1
    rows = [[F(1, d)] * units + [F(d - units, d)]]
    for i in range(1, size):
        r = [F(0)] * size
        r[i] = F(1)
        rows.append(r)
    return InfluenceNetwork.from_rows(rows)


class TestDecisiveLinks:
    def test_three_fifths_is_decisive(self):
        net = InfluenceNetwork.from_rows([[F(3, 5), F(2, 5)], [F(0), F(1)]])
        assert is_decisive(net, 0, 0) is True

    def test_two_fifths_is_not(self):
        net = InfluenceNetwork.from_rows([[F(3, 5), F(2, 5)], [F(0), F(1)]])
        assert is_decisive(net, 0, 1) is False

    def test_majority_self_loop_silences_all_other_links(self):
        net = InfluenceNetwork.from_rows(
            [[F(1, 2), F(1, 4), F(1, 4)], [F(0), F(1), F(0)], [F(0), F(0), F(1)]]
        )
        assert is_decisive(net, 0, 0) is True
        assert is_decisive(net, 0, 1) is False
        assert is_decisive(net, 0, 2) is False

    def test_non_edge_raises(self):
        net = fixtures.directed_ring(3)
        with pytest.raises(ValueError):
            is_decisive(net, 0, 0)

    def test_matches_subset_oracle(self):
        rnd = random.Random(0xDEC)
        for _ in range(60):
            net = random_network(rnd, rnd.randint(2, 7), max_den=20)
            for i, j, _w in net.edges():
                assert is_decisive(net, i, j) == oracle_decisive(net, i, j)

    def test_large_denominator_small_support(self):
        # denominator beyond the bitset limit falls back to subset sums
        d = (1 << 22) + 25  # 4194329, no factor shared with the parts below
        net = InfluenceNetwork.from_rows([[F(1, d), F(d - 1, d)], [F(0), F(1)]])
        assert is_decisive(net, 0, 1) is True
        assert is_decisive(net, 0, 0) is False

    def test_twenty_one_co_neighbors_get_an_exact_answer(self):
        # Past the bitset limit with 21 co-neighbors: meet-in-the-middle.
        d = (1 << 22) + 25
        net = _spread_row_network(d, 21)
        # The heavy link tips row 0 with any unit subset; a unit link would
        # need other weights summing to exactly (d - 1)/2, which none do.
        assert is_decisive(net, 0, 21) is True
        assert not any(is_decisive(net, 0, j) for j in range(21))
        assert decisive_subgraph(net).edges == {(0, 21)} | {(i, i) for i in range(1, 22)}

    def test_refuses_beyond_forty_co_neighbors(self):
        d = (1 << 22) + 25
        net = _spread_row_network(d, 41)
        with pytest.raises(ValueError, match="41 co-neighbors exceed the meet-in-the-middle limit 40"):
            is_decisive(net, 0, 41)

    def test_meet_in_the_middle_matches_bitset_and_oracle(self, monkeypatch):
        rnd = random.Random(0x3177)
        nets = [random_network(rnd, rnd.randint(1, 8), max_den=rnd.choice((8, 20, 40)))
                for _ in range(80)]
        expected = [
            ({(i, j): is_decisive(net, i, j) for i, j, _w in net.edges()}, has_half_ties(net))
            for net in nets
        ]
        monkeypatch.setattr(network, "_BITSET_DENOM_LIMIT", 0)
        for net, (decisive, ties) in zip(nets, expected):
            for (i, j), flag in decisive.items():
                assert is_decisive(net, i, j) == flag == oracle_decisive(net, i, j)
            assert has_half_ties(net) == ties == oracle_half_ties(net)

    def test_subgraph_partition(self):
        rnd = random.Random(12)
        for _ in range(20):
            net = random_network(rnd, rnd.randint(2, 6))
            sub = decisive_subgraph(net)
            all_pairs = {(i, j) for i, j, _w in net.edges()}
            assert sub.edges | sub.indecisive_edges == all_pairs
            assert not (sub.edges & sub.indecisive_edges)


class TestHalfTies:
    def test_half_half_row(self):
        net = InfluenceNetwork.from_rows([[F(1, 2), F(1, 2)], [F(0), F(1)]])
        assert has_half_ties(net) is True

    def test_thirds_are_tie_free(self):
        assert has_half_ties(fixtures.complete_uniform(4)) is False

    def test_self_loops_are_tie_free(self):
        assert has_half_ties(fixtures.self_loop_nodes(2)) is False

    def test_three_node_cliques_tie(self):
        # uniform rows over two co-members are exactly (1/2, 1/2)
        assert has_half_ties(fixtures.disjoint_cliques(clique_size=3, blocks=2)) is True

    def test_matches_subset_oracle(self):
        rnd = random.Random(0x7E5)
        for _ in range(60):
            net = random_network(rnd, rnd.randint(1, 6), max_den=16)
            assert has_half_ties(net) == oracle_half_ties(net)


class TestGlobalReachability:
    def test_ring_every_node_reaches(self):
        exists, witness = has_globally_reachable_node(decisive_subgraph(fixtures.directed_ring(5)))
        assert exists and witness is not None

    def test_disjoint_cliques_have_none(self):
        net = fixtures.disjoint_cliques(clique_size=3, blocks=2)
        exists, witness = has_globally_reachable_node(decisive_subgraph(net))
        assert not exists and witness is None

    def test_single_node(self):
        exists, witness = has_globally_reachable_node(decisive_subgraph(fixtures.self_loop_nodes(1)))
        assert exists and witness == 0

    def test_stubborn_islands_break_reachability(self):
        net = fixtures.self_loop_nodes(2)
        exists, _ = has_globally_reachable_node(decisive_subgraph(net))
        assert not exists

    def test_accepts_whole_network(self):
        # full-graph reachability can hold where the decisive subgraph's fails:
        # node 1's links are the only decisive ones, but everyone listens around
        tied = InfluenceNetwork.from_rows(
            [
                [F(0), F(1, 2), F(1, 2)],
                [F(1, 3), F(1, 3), F(1, 3)],
                [F(1, 2), F(1, 2), F(0)],
            ]
        )
        assert has_globally_reachable_node(decisive_subgraph(tied))[0] is False
        assert has_globally_reachable_node(tied)[0] is True
        net = fixtures.disjoint_cliques(clique_size=3, blocks=2)
        assert has_globally_reachable_node(net)[0] is False

    def test_witness_actually_reaches_everyone(self):
        rnd = random.Random(0xFEED)
        for _ in range(30):
            net = random_network(rnd, rnd.randint(2, 6))
            sub = decisive_subgraph(net)
            exists, witness = has_globally_reachable_node(sub)
            if not exists:
                continue
            # walk the decisive links backwards from the witness
            adj = {i: set() for i in range(net.n)}
            for i, j in sub.edges:
                if i != j:
                    adj[j].add(i)
            seen, frontier = {witness}, [witness]
            while frontier:
                nxt = []
                for u in frontier:
                    for v in adj[u]:
                        if v not in seen:
                            seen.add(v)
                            nxt.append(v)
                frontier = nxt
            assert seen == set(range(net.n))

    def test_witness_is_the_smallest_globally_reachable_node(self):
        def reached_from(start, pairs):
            seen, frontier = {start}, [start]
            while frontier:
                u = frontier.pop()
                for i, j in pairs:
                    if i == u and j not in seen:
                        seen.add(j)
                        frontier.append(j)
            return seen

        rnd = random.Random(0x51CC)
        for _ in range(60):
            net = random_network(rnd, rnd.randint(1, 7))
            for graph in (net, decisive_subgraph(net)):
                pairs = graph.edges if graph is not net else {(i, j) for i, j, _ in net.edges()}
                common = set.intersection(*(reached_from(v, pairs) for v in range(net.n)))
                expected = (True, min(common)) if common else (False, None)
                assert has_globally_reachable_node(graph) == expected
