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

from conftest import HUGE_COUNT, oracle_networks, peak_allocation, random_coprime_rows, random_network
from decisive_oracles import per_edge_decisive
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

    def test_save_unknown_suffix_needs_fmt(self, tmp_path):
        # One suffix rule for both directions: nothing is saved that
        # ``load_network`` would refuse to read back.
        net = fixtures.complete_uniform(3)
        for name in ("net.txt", "net"):
            path = tmp_path / name
            with pytest.raises(NetworkFormatError, match="cannot infer format"):
                save_network(net, path)
            assert not path.exists()
            save_network(net, path, fmt="csv")
            assert load_network(path, fmt="csv") == net
        for io in (lambda p: save_network(net, p, fmt="xml"), lambda p: load_network(p, "xml")):
            with pytest.raises(NetworkFormatError, match="unknown network format 'xml'"):
                io(tmp_path / "net.csv")

    def test_dot_marks_decisiveness(self):
        net = InfluenceNetwork.from_rows([[F(3, 5), F(2, 5)], [F(0), F(1)]])
        dot = network_to_dot(net)
        assert 'decisive=true' in dot and 'decisive=false' in dot


def oracle_decisive(net, i, j):
    """Every distinct subset sum of i's other weights, as Fractions, straight
    from the definition."""
    wij = net.weight(i, j)
    half = F(1, 2)
    sums = {F(0)}
    for t, w in net.rows[i]:
        if t != j:
            sums |= {s + w for s in sums}
    return any(s < half < s + wij for s in sums)


def _is_prime(p):
    return p > 1 and all(p % d for d in range(2, int(p**0.5) + 1))


def _prime_row(rnd, size):
    """``size`` weights over a prime above 2^22: ``size - 1`` of them are
    multiples g*m of one unit with m in {1, 2, 700}, so their subset sums
    are few and sparse, and the remainder goes to the last.  Where half
    falls among those sums is random, so some links are decisive and some
    are not.  Returns the weights, shuffled, and the prime."""
    m = [rnd.choice((1, 2, 700)) for _ in range(size - 1)]
    total = sum(m)
    gap = rnd.randrange(total // 2)
    g = (1 << 22) // (2 * (total - gap)) + 1
    p = 2 * g * (total - gap) + 1
    while not _is_prime(p):
        p += 2
    weights = [F(g * x, p) for x in m] + [F(p - g * total, p)]
    rnd.shuffle(weights)
    return weights, p


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
        # A bool or float endpoint is refused even where it equals an edge's.
        for i, j in ((0, 0), (0, True), (True, 2), (1.0, 2), (0, 1.0)):
            with pytest.raises(ValueError):
                is_decisive(net, i, j)

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

    def test_one_refusal_rule_checked_before_any_sums(self, monkeypatch):
        # A row of 41 weights over an even denominator past the bitset
        # limit: each entry has 40 co-neighbors, so all three functions
        # answer.  One more weight and all three refuse, before any sum.
        d = (1 << 22) + 26
        net = _spread_row_network(d, 40)
        assert has_half_ties(net) is False
        assert decisive_subgraph(net).edges == {(0, 40)} | {(i, i) for i in range(1, 41)}
        assert is_decisive(net, 0, 40) and not is_decisive(net, 0, 0)

        def no_sums(weights):
            raise AssertionError("subset sums were built")

        monkeypatch.setattr(network, "_subset_sums", no_sums)
        wider = _spread_row_network(d, 41)
        for call in (lambda: is_decisive(wider, 0, 0), lambda: decisive_subgraph(wider),
                     lambda: has_half_ties(wider)):
            with pytest.raises(ValueError, match="41 co-neighbors exceed the meet-in-the-middle"):
                call()

    def test_shared_halves_on_wide_prime_rows_match_oracle(self):
        # Rows 0..3 hold 20 to 23 weights over primes above 2^22, so
        # decisive_subgraph shares each half's sums across the row's edges.
        rnd = random.Random(0x5A7E)
        n = 24
        edges = []
        for i, size in enumerate((20, 21, 22, 23)):
            weights, p = _prime_row(rnd, size)
            assert p > network._BITSET_DENOM_LIMIT
            edges += [(i, j, w) for j, w in zip(rnd.sample(range(n), size), weights)]
        edges += [(i, i, 1) for i in range(4, n)]
        net = InfluenceNetwork.from_edges(n, edges)
        got = decisive_subgraph(net).edges
        expected = {(i, j) for i, j, _w in net.edges() if oracle_decisive(net, i, j)}
        assert got == expected
        assert all(is_decisive(net, i, j) == ((i, j) in got) for i, j, _w in net.edges())
        wide = [(i, j) for i, j, _w in net.edges() if i < 4]
        decisive = sum(e in got for e in wide)
        assert 10 < decisive < len(wide) - 10

    def test_shared_halves_match_per_edge_meet_in_the_middle(self):
        # Unstructured weights over a prime: each row's shared-halves answer
        # against the oracle that builds both halves for every edge.
        rnd = random.Random(0xD1CE)
        p = 8388617
        for size in (2, 3, 20, 25, 26):
            cuts = sorted(rnd.sample(range(1, p), size - 1))
            weights = [F(b - a, p) for a, b in zip([0, *cuts], [*cuts, p])]
            edges = [(0, j, w) for j, w in enumerate(weights)]
            net = InfluenceNetwork.from_edges(size, edges + [(i, i, 1) for i in range(1, size)])
            got = decisive_subgraph(net).edges
            assert got == per_edge_decisive(net)
            assert got == {(i, j) for i, j, _w in net.edges() if is_decisive(net, i, j)}

    @given(oracle_networks())
    def test_shared_halves_match_the_oracles_on_oracle_networks(self, net):
        # With the bitset limit at 0 every row meets in the middle.
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(network, "_BITSET_DENOM_LIMIT", 0)
            got = decisive_subgraph(net).edges
            assert got == {(i, j) for i, j, _w in net.edges() if oracle_decisive(net, i, j)}
            assert all(is_decisive(net, i, j) == ((i, j) in got) for i, j, _w in net.edges())
            assert has_half_ties(net) == oracle_half_ties(net)

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
            assert decisive_subgraph(net).edges == {e for e, flag in decisive.items() if flag}
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


def _tie_free_ring(n=12):
    """Node i gives 5/8 to itself and 1/8 to each of i+1, i+2, i+3 (mod n).
    No subset of a row sums to 4/8.  The rows that wrap around store the 5
    at another position, so n >= 4 nodes give 4 stored row shapes."""
    return InfluenceNetwork.from_edges(
        n, [(i, (i + d) % n, F(5 if d == 0 else 1, 8)) for i in range(n) for d in range(4)]
    )


def _shared_shape_network(weights, copies):
    """Nodes 0..copies-1 each spread ``weights`` over the contiguous nodes
    i, i+1, ..., so all of them store one row shape; node ``copies`` spreads
    the reversed weights, another shape unless they read the same both ways.
    Every other node listens only to itself."""
    size = len(weights)
    n = copies + size
    edges = [(i, i + t, w) for i in range(copies) for t, w in enumerate(weights)]
    edges += [(copies, copies + t, w) for t, w in enumerate(reversed(weights))]
    edges += [(i, i, 1) for i in range(copies + 1, n)]
    return InfluenceNetwork.from_edges(n, edges)


@pytest.fixture
def row_queries(monkeypatch):
    """Count the queries asked of ``network._row_hits``."""
    count = [0]
    inner = network._row_hits

    def counted(wints, denom, queries):
        queries = list(queries)
        count[0] += len(queries)
        return inner(wints, denom, queries)

    monkeypatch.setattr(network, "_row_hits", counted)
    return count


class TestRepeatedWeights:
    """Rows of one stored shape share their subset-sum answers, and equal
    weights fall on both sides of the meet-in-the-middle split; every edge
    must still get the answer of its own link."""

    def _check(self, net):
        got = decisive_subgraph(net).edges
        assert got == per_edge_decisive(net)
        assert got == {(i, j) for i, j, _w in net.edges() if oracle_decisive(net, i, j)}
        assert all(is_decisive(net, i, j) == ((i, j) in got) for i, j, _w in net.edges())
        assert has_half_ties(net) == oracle_half_ties(net)
        return got

    def test_prime_rows_repeat_weights_across_the_split(self):
        rnd = random.Random(0x2E9E)
        decisive = wide = 0
        for size in (10, 13, 16):
            weights, p = _prime_row(rnd, size)
            assert p > network._BITSET_DENOM_LIMIT
            half = size // 2
            left, right = weights[:half], weights[half:]
            # Repeats within each half and across the two.
            assert len(set(left)) < len(left) and len(set(right)) < len(right)
            assert set(left) & set(right)
            net = _shared_shape_network(weights, copies=4)
            assert len({w for _n, w, _d in net.integer_rows[:4]}) == 1
            got = self._check(net)
            row_edges = [(i, j) for i, j, _w in net.edges() if i <= 4]
            decisive += sum(e in got for e in row_edges)
            wide += len(row_edges)
        assert 0 < decisive < wide

    @pytest.mark.parametrize("limit", [network._BITSET_DENOM_LIMIT, 0])
    def test_small_rows_on_both_paths(self, monkeypatch, limit):
        monkeypatch.setattr(network, "_BITSET_DENOM_LIMIT", limit)
        tied = _shared_shape_network([F(1, 12), F(1, 12), F(1, 6), F(1, 6), F(1, 4), F(1, 4)], 4)
        for net in (
            tied,
            _shared_shape_network([F(3, 7), F(1, 7), F(1, 7), F(2, 7)], 5),
            _shared_shape_network([F(2, 9), F(2, 9), F(1, 9), F(4, 9)], 3),
            _tie_free_ring(),
            fixtures.lattice(3, 4),
            fixtures.complete_uniform(7),
            fixtures.complete_uniform(6, self_loops=True),
        ):
            self._check(net)
        assert has_half_ties(tied) is True
        assert has_half_ties(_tie_free_ring()) is False

    def test_wide_row_after_answered_rows_is_refused(self, row_queries):
        # Rows 0 and 1 store one shape of 41 weights over an even denominator
        # past the bitset limit and answer; row 2 holds 42 weights.  Both
        # functions reach row 2 and raise the message of a wide row.
        d = (1 << 22) + 26
        edges = [(i, i + t, F(1, d)) for i in range(2) for t in range(40)]
        edges += [(i, i + 40, F(d - 40, d)) for i in range(2)]
        edges += [(2, t, F(1, d)) for t in range(41)] + [(2, 41, F(d - 41, d))]
        edges += [(i, i, 1) for i in range(3, 42)]
        net = InfluenceNetwork.from_edges(42, edges)
        wide = "41 co-neighbors exceed the meet-in-the-middle limit 40"
        with pytest.raises(ValueError, match=wide):
            has_half_ties(net)
        row_queries[0] = 0
        with pytest.raises(ValueError, match=wide):
            decisive_subgraph(net)
        # Row 0's 41 queries, row 1 read from its shape, then the wide row's.
        assert row_queries[0] == 41 + 42


class TestDecisiveWork:
    """Exact ``_row_hits`` query counts of ``decisive_subgraph``: one query
    per entry of each stored row shape."""

    def test_lattice_has_three_shapes(self, row_queries):
        net = fixtures.lattice(10, 10)
        # Corner and interior rows: every link decisive; border rows of
        # four quarters: none.
        assert len(decisive_subgraph(net).edges) == 4 * 3 + 64 * 5
        assert row_queries[0] == 3 + 4 + 5

    def test_complete_uniform_has_one_shape(self, row_queries):
        net = fixtures.complete_uniform(60)
        assert len(decisive_subgraph(net).edges) == 3540
        assert row_queries[0] == 59

    def test_tie_free_ring_has_four_shapes(self, row_queries):
        net = _tie_free_ring()
        assert decisive_subgraph(net).edges == {(i, i) for i in range(12)}
        assert row_queries[0] == 4 * 4


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
