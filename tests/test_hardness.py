"""NAE3SAT model, gadget construction, certificates, reduction roundtrip."""

from __future__ import annotations

import random
from fractions import Fraction as F
from itertools import product

import pytest

from median_consensus import (
    Nae3SatInstance,
    RandomSchedule,
    brute_force_nae3sat,
    build_svc_graph,
    certificate_from_assignment,
    decide_consensus_reachable,
    parse_instance_text,
    reduction_roundtrip,
    run,
    step,
    svc_to_json_dict,
    verify_certificate,
)
from conftest import HUGE_COUNT, peak_allocation
from median_consensus.network import network_from_json_dict

TRIANGLE = Nae3SatInstance(num_vars=3, clauses=((1, 1, 2), (2, 2, 3), (1, 1, 3)))


class TestInstances:
    def test_parse_valid(self):
        inst = parse_instance_text("p nae3sat 3 2\n1 2 3\n1 1 2\n")
        assert inst.num_vars == 3
        assert inst.clauses == ((1, 2, 3), (1, 1, 2))

    def test_parse_comments(self):
        inst = parse_instance_text("c note\np nae3sat 2 1\nc more\n1 1 2\n")
        assert inst.clauses == ((1, 1, 2),)

    def test_zero_index_rejected(self):
        with pytest.raises(ValueError):
            parse_instance_text("p nae3sat 2 1\n0 1 2\n")

    def test_unused_variable_rejected(self):
        with pytest.raises(ValueError, match="variable"):
            parse_instance_text("p nae3sat 3 1\n1 1 2\n")

    def test_unused_variables_named_without_ranging_over_them(self):
        def refused():
            with pytest.raises(ValueError, match=f"variable 4 appears in no clause \\({HUGE_COUNT - 3} "):
                Nae3SatInstance(num_vars=HUGE_COUNT, clauses=((1, 2, 3),))

        assert peak_allocation(refused) < 1_000_000

    @pytest.mark.parametrize(
        "num_vars, clauses, message",
        [
            (2, ((True, 2, 2),), "variable index True out of range"),
            (3, ((1, 2.0, 3),), "variable index 2.0 out of range"),
            (2.0, ((1, 1, 2),), "num_vars must be an integer"),
            (True, ((1, 1, 1),), "num_vars must be an integer"),
        ],
        ids=["bool-literal", "float-literal", "float-count", "bool-count"],
    )
    def test_bools_and_floats_refused(self, num_vars, clauses, message):
        # One integer rule, as for node numbers: True is not variable 1.
        with pytest.raises(ValueError, match=message):
            Nae3SatInstance(num_vars=num_vars, clauses=clauses)

    def test_clause_count_mismatch(self):
        with pytest.raises(ValueError):
            parse_instance_text("p nae3sat 2 2\n1 1 2\n")

    def test_triple_repetition_rejected_at_parse(self):
        with pytest.raises(ValueError, match="three times"):
            parse_instance_text("p nae3sat 1 1\n1 1 1\n")

    def test_type_permits_triples_in_memory(self):
        inst = Nae3SatInstance(num_vars=1, clauses=((1, 1, 1),))
        assert tuple(inst.triple_repeated_clauses()) == ((1, 1, 1),)


class TestBruteForce:
    def test_distinct_clause_first_solution(self):
        inst = Nae3SatInstance(num_vars=3, clauses=((1, 2, 3),))
        assert brute_force_nae3sat(inst) == (-1, -1, 1)

    def test_doubled_clause(self):
        inst = Nae3SatInstance(num_vars=2, clauses=((1, 1, 2),))
        assert brute_force_nae3sat(inst) == (-1, 1)

    def test_triple_clause_unsat(self):
        inst = Nae3SatInstance(num_vars=1, clauses=((1, 1, 1),))
        assert brute_force_nae3sat(inst) is None

    def test_triangle_unsat(self):
        # pairwise inequality over three variables cannot be met with two
        # values
        assert brute_force_nae3sat(TRIANGLE) is None

    def test_every_returned_assignment_satisfies(self):
        rnd = random.Random(0x5A7)
        for _ in range(40):
            n = rnd.randint(2, 4)
            m = rnd.randint(1, 4)
            clauses = []
            for _ in range(m):
                trio = [rnd.randint(1, n) for _ in range(3)]
                while len(set(trio)) == 1:
                    trio[2] = rnd.randint(1, n)
                clauses.append(tuple(trio))
            used = {k for c in clauses for k in c}
            clauses.extend((v, v, min(used or [1])) for v in range(1, n + 1) if v not in used)
            if len(set(clauses)) < len(clauses):
                continue
            inst = Nae3SatInstance(num_vars=n, clauses=tuple(clauses))
            a = brute_force_nae3sat(inst)
            if a is None:
                continue
            for k1, k2, k3 in inst.clauses:
                assert len({a[k1 - 1], a[k2 - 1], a[k3 - 1]}) > 1

    def test_bound_refusal(self):
        clauses = tuple((i, i, i % 21 + 1) for i in range(1, 22))
        inst = Nae3SatInstance(num_vars=21, clauses=clauses)
        with pytest.raises(ValueError, match="bound"):
            brute_force_nae3sat(inst)


class TestGadgetConstruction:
    def test_node_count_and_roles(self):
        inst = parse_instance_text("p nae3sat 3 2\n1 2 3\n1 1 2\n")
        svc = build_svc_graph(inst)
        assert svc.network.n == 2 * 3 + 2 + 1 == 9
        assert svc.sink == 0
        assert svc.var_nodes == ((1, 2), (3, 4), (5, 6))
        assert svc.clause_nodes == (7, 8)

    def test_sink_row(self):
        svc = build_svc_graph(TRIANGLE)
        assert svc.network.rows[svc.sink] == ((svc.sink, F(1)),)

    def test_variable_rows(self):
        svc = build_svc_graph(TRIANGLE)
        last_clause = svc.clause_nodes[-1]
        for v, vbar in svc.var_nodes:
            assert dict(svc.network.rows[vbar]) == {v: F(1)}
            assert dict(svc.network.rows[v]) == {
                v: F(1, 3),
                vbar: F(1, 3),
                last_clause: F(1, 3),
            }

    def test_clause_rows_and_chain(self):
        inst = parse_instance_text("p nae3sat 3 2\n1 2 3\n1 1 2\n")
        svc = build_svc_graph(inst)
        c1, c2 = svc.clause_nodes
        v = {i + 1: pair[0] for i, pair in enumerate(svc.var_nodes)}
        assert dict(svc.network.rows[c1]) == {
            v[1]: F(1, 5), v[2]: F(1, 5), v[3]: F(1, 5), svc.sink: F(2, 5),
        }
        assert dict(svc.network.rows[c2]) == {
            v[1]: F(2, 5), v[2]: F(1, 5), c1: F(2, 5),
        }

    def test_edge_count(self):
        # 1 sink self-loop + n pair links + 3n variable-row links + 4 per
        # clause, one less for each doubled clause
        inst = parse_instance_text("p nae3sat 3 2\n1 2 3\n1 1 2\n")
        svc = build_svc_graph(inst)
        n, m, doubled = 3, 2, 1
        assert svc.network.edge_count == 1 + n + 3 * n + 4 * m - doubled

    def test_triple_clause_rejected(self):
        inst = Nae3SatInstance(num_vars=1, clauses=((1, 1, 1),))
        with pytest.raises(ValueError, match="three times"):
            build_svc_graph(inst)

    def test_variable_pair_is_cohesive(self):
        from median_consensus import is_cohesive

        svc = build_svc_graph(TRIANGLE)
        for v, vbar in svc.var_nodes:
            assert is_cohesive(svc.network, {v, vbar})

    def test_json_export_roundtrips_network(self):
        svc = build_svc_graph(TRIANGLE)
        payload = svc_to_json_dict(svc)
        assert network_from_json_dict(payload) == svc.network
        assert payload["roles"]["sink"] == 1


class TestClauseUpdateLaw:
    """A clause node can update to 0 exactly when its chain predecessor is 0
    and its three variable values are not all equal; enumerated over every
    variable pattern and predecessor state."""

    def _clause_update(self, pred_value, pattern):
        inst = parse_instance_text("p nae3sat 3 2\n1 2 3\n1 1 2\n")
        svc = build_svc_graph(inst)
        c1, c2 = svc.clause_nodes
        state = [0] * svc.network.n
        state[svc.sink] = pred_value  # c1's predecessor is the sink
        for (v, vbar), val in zip(svc.var_nodes, pattern):
            state[v] = val
            state[vbar] = -val
        state[c1] = 1
        state[c2] = 1
        return step(svc.network, tuple(state), c1)[c1]

    def test_distinct_clause_enumeration(self):
        for pattern in product((-1, 1), repeat=3):
            for pred in (-1, 0, 1):
                updated = self._clause_update(pred, pattern)
                can_zero = pred == 0 and len(set(pattern)) > 1
                assert (updated == 0) == can_zero

    def test_doubled_clause_enumeration(self):
        inst = parse_instance_text("p nae3sat 2 1\n1 1 2\n")
        svc = build_svc_graph(inst)
        (c1,) = svc.clause_nodes
        for pattern in product((-1, 1), repeat=2):
            for pred in (-1, 0, 1):
                state = [0] * svc.network.n
                state[svc.sink] = pred
                for (v, vbar), val in zip(svc.var_nodes, pattern):
                    state[v] = val
                    state[vbar] = -val
                state[c1] = 1
                updated = step(svc.network, tuple(state), c1)[c1]
                can_zero = pred == 0 and pattern[0] != pattern[1]
                assert (updated == 0) == can_zero

    def test_variable_pair_zeroes_after_last_clause(self):
        inst = parse_instance_text("p nae3sat 2 1\n1 1 2\n")
        svc = build_svc_graph(inst)
        state = [0] * svc.network.n
        v1, v1bar = svc.var_nodes[0]
        v2, v2bar = svc.var_nodes[1]
        state[v1], state[v1bar] = -1, 1
        state[v2], state[v2bar] = 1, -1
        state[svc.clause_nodes[0]] = 0  # last clause already zeroed
        after_v = step(svc.network, tuple(state), v1)
        assert after_v[v1] == 0
        after_pair = step(svc.network, after_v, v1bar)
        assert after_pair[v1bar] == 0


class TestCertificates:
    def test_single_clause_certificate(self):
        inst = Nae3SatInstance(num_vars=3, clauses=((1, 2, 3),))
        svc = build_svc_graph(inst)
        cert = certificate_from_assignment(svc, (-1, -1, 1))
        assert cert.target_time == 2 * 3 + 1 == 7
        assert verify_certificate(svc.network, cert)

    def test_sequence_is_clause_chain_then_pairs(self):
        inst = parse_instance_text("p nae3sat 2 2\n1 1 2\n1 2 2\n")
        svc = build_svc_graph(inst)
        cert = certificate_from_assignment(svc, brute_force_nae3sat(inst))
        c1, c2 = svc.clause_nodes
        (v1, v1b), (v2, v2b) = svc.var_nodes
        assert cert.sequence == (c1, c2, v1, v1b, v2, v2b)

    def test_initial_state_layout(self):
        inst = Nae3SatInstance(num_vars=2, clauses=((1, 1, 2),))
        svc = build_svc_graph(inst)
        cert = certificate_from_assignment(svc, (-1, 1))
        assert cert.initial[svc.sink] == 0
        (v1, v1b), (v2, v2b) = svc.var_nodes
        assert (cert.initial[v1], cert.initial[v1b]) == (-1, 1)
        assert (cert.initial[v2], cert.initial[v2b]) == (1, -1)
        assert all(cert.initial[c] == 1 for c in svc.clause_nodes)

    def test_unsatisfying_assignment_rejected(self):
        inst = Nae3SatInstance(num_vars=2, clauses=((1, 1, 2),))
        svc = build_svc_graph(inst)
        with pytest.raises(ValueError, match="satisf"):
            certificate_from_assignment(svc, (1, 1))

    def test_reversed_clause_order_fails(self):
        # updating the chain out of order leaves a clause node nonzero: each
        # c_j needs its predecessor at 0 first
        inst = parse_instance_text("p nae3sat 2 2\n1 1 2\n1 2 2\n")
        svc = build_svc_graph(inst)
        cert = certificate_from_assignment(svc, brute_force_nae3sat(inst))
        c1, c2 = svc.clause_nodes
        swapped = (c2, c1) + cert.sequence[2:]
        from median_consensus import ConsensusCertificate

        bad = ConsensusCertificate(
            initial=cert.initial, sequence=swapped, target_time=cert.target_time
        )
        assert verify_certificate(svc.network, bad) is False

    def test_sink_never_moves(self):
        svc = build_svc_graph(TRIANGLE)
        rnd = random.Random(3)
        for seed in range(8):
            x0 = tuple(rnd.choice((-1, 0, 1)) for _ in range(svc.network.n))
            traj = run(svc.network, x0, RandomSchedule(seed=seed, budget=300))
            assert traj.terminal[svc.sink] == x0[svc.sink]


class TestReductionRoundtrip:
    def test_satisfiable_side(self):
        inst = Nae3SatInstance(num_vars=2, clauses=((1, 1, 2),))
        assert reduction_roundtrip(inst)
        ok, cert = decide_consensus_reachable(build_svc_graph(inst).network, bound=13)
        assert ok and verify_certificate(build_svc_graph(inst).network, cert)

    def test_unsatisfiable_side(self):
        assert reduction_roundtrip(TRIANGLE)
        ok, cert = decide_consensus_reachable(build_svc_graph(TRIANGLE).network, bound=13)
        assert not ok and cert is None

    def test_triple_clause_refused(self):
        inst = Nae3SatInstance(num_vars=1, clauses=((1, 1, 1),))
        with pytest.raises(ValueError):
            reduction_roundtrip(inst)

    def test_gadget_too_large_refused(self):
        clauses = ((1, 1, 2), (2, 2, 3), (3, 3, 4), (4, 4, 5))
        inst = Nae3SatInstance(num_vars=5, clauses=clauses)
        with pytest.raises(ValueError):
            reduction_roundtrip(inst)  # 2*5+4+1 = 15 nodes > default 13
