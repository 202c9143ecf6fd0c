"""Network construction, serialization, decisive links, reachability."""

from __future__ import annotations

import json
import random
from fractions import Fraction as F
from itertools import chain, combinations

import pytest

from conftest import random_network
from median_consensus import InfluenceNetwork, fixtures
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

    def test_refuses_when_both_paths_blocked(self):
        d = (1 << 22) + 25
        parts = [1] * 21 + [d - 21]
        row = [F(p, d) for p in parts]
        # 22 nodes: row 0 spreads over everyone, the rest are self-loops
        rows = [row]
        for i in range(1, 22):
            r = [F(0)] * 22
            r[i] = F(1)
            rows.append(r)
        net = InfluenceNetwork.from_rows(rows)
        with pytest.raises(ValueError, match="denominator"):
            is_decisive(net, 0, 21)

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
        half = F(1, 2)
        rnd = random.Random(0x7E5)
        for _ in range(60):
            net = random_network(rnd, rnd.randint(1, 6), max_den=16)
            expect = False
            for row in net.rows:
                weights = [w for _t, w in row]
                subsets = chain.from_iterable(
                    combinations(weights, k) for k in range(len(weights) + 1)
                )
                if any(sum(c, F(0)) == half for c in subsets):
                    expect = True
                    break
            assert has_half_ties(net) == expect


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
