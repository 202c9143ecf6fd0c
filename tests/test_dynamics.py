"""The update process: single steps, runs, trajectories, ensembles."""

from __future__ import annotations

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    network_corpus,
    random_coprime_network,
    random_network,
    random_profile,
    random_row,
)
from median_consensus import (
    EnsembleReport,
    GridUniform,
    InfluenceNetwork,
    LabelUniform,
    RandomSchedule,
    closest_weighted_median,
    default_budget,
    ensemble,
    fixtures,
    is_equilibrium,
    run,
    step,
)
from median_consensus import _engine, dynamics


def _reference_run_encoded(net, state, ticks, budget):
    """Oracle for ``dynamics._run_encoded`` without mass tables: every tick
    re-reads the picked node's whole row, and every change is followed by a
    check of every node."""
    rows = net.integer_rows

    def settled():
        return all(_engine.update_value(rows, state, j) == state[j] for j in range(net.n))

    records = []
    if settled():
        return records, True, 0
    for t, i in enumerate(ticks, start=1):
        new = _engine.update_value(rows, state, i)
        if new != state[i]:
            records.append((t, i, state[i], new))
            state[i] = new
            if settled():
                return records, True, t
    return records, False, budget


class TestStep:
    def test_consensus_is_fixed(self):
        net = fixtures.complete_uniform(4)
        for i in range(4):
            assert step(net, (7, 7, 7, 7), i) == (7, 7, 7, 7)

    def test_majority_mass_flips_node(self):
        # node 0 gives 3/4 to node 1, so it adopts node 1's opinion
        net = InfluenceNetwork.from_rows([[F(1, 4), F(3, 4)], [F(0), F(1)]])
        assert step(net, (0, 1), 0) == (1, 1)

    def test_split_mass_keeps_own_value(self):
        # exactly 1/2 on either side: the node's own value is a median, so
        # the tie breaks in place
        net = InfluenceNetwork.from_rows(
            [[F(0), F(1, 2), F(1, 2)], [F(0), F(1), F(0)], [F(0), F(0), F(1)]]
        )
        assert step(net, (1, 0, 2), 0) == (1, 0, 2)

    def test_only_one_coordinate_moves(self):
        rnd = random.Random(31337)
        for _ in range(50):
            net = random_network(rnd, rnd.randint(2, 7))
            x = random_profile(rnd, net.n)
            i = rnd.randrange(net.n)
            y = step(net, x, i)
            assert all(a == b for k, (a, b) in enumerate(zip(x, y)) if k != i)

    def test_update_is_closest_median_of_row(self):
        rnd = random.Random(777)
        for _ in range(120):
            net = random_network(rnd, rnd.randint(1, 7))
            x = random_profile(rnd, net.n)
            i = rnd.randrange(net.n)
            nbrs = net.out_neighbors(i)
            vals = tuple(x[j] for j in nbrs)
            wts = tuple(net.weight(i, j) for j in nbrs)
            expected = closest_weighted_median(
                vals + (x[i],), wts + (F(0),), x[i]
            )
            assert step(net, x, i)[i] == expected

    def test_invalid_node(self):
        with pytest.raises(ValueError):
            step(fixtures.complete_uniform(3), (0, 1, 2), 3)


class TestEquilibrium:
    def test_consensus_always(self):
        rnd = random.Random(2)
        for _ in range(20):
            net = random_network(rnd, rnd.randint(1, 6))
            assert is_equilibrium(net, ("same",) * net.n)

    def test_separated_blocks_are_stable(self):
        net = fixtures.bridged_cliques(clique_size=3, cross="1/3")
        assert is_equilibrium(net, (0, 0, 0, 1, 1, 1))

    def test_cross_majority_is_unstable(self):
        # node 0 sends 3/4 of its mass to the other block
        net = InfluenceNetwork.from_rows(
            [
                [F(1, 4), F(1, 4), F(1, 4), F(1, 4)],
                [F(0), F(1), F(0), F(0)],
                [F(0), F(0), F(1), F(0)],
                [F(0), F(0), F(0), F(1)],
            ]
        )
        assert not is_equilibrium(net, (0, 1, 1, 1))

    def test_matches_pointwise_steps(self):
        rnd = random.Random(808)
        for _ in range(60):
            net = random_network(rnd, rnd.randint(1, 6))
            x = random_profile(rnd, net.n)
            fixed = all(step(net, x, i) == tuple(x) for i in range(net.n))
            assert is_equilibrium(net, x) == fixed


class TestRun:
    def test_already_converged(self):
        net = fixtures.complete_uniform(5)
        traj = run(net, (3,) * 5, RandomSchedule(seed=1))
        assert traj.converged and traj.steps == () and traj.steps_used == 0

    def test_deterministic_schedule(self):
        net = InfluenceNetwork.from_rows([[F(1, 4), F(3, 4)], [F(3, 4), F(1, 4)]])
        traj = run(net, (0, 1), [0])
        assert traj.terminal == (1, 1)
        assert traj.steps == ((1, 0, 0, 1),)
        assert traj.converged

    def test_budget_exhaustion_reported(self):
        net = fixtures.disjoint_cliques(clique_size=3, blocks=2)
        traj = run(net, (0, 1, 2, 3, 4, 5), RandomSchedule(seed=5, budget=2))
        assert not traj.converged
        assert traj.steps_used == 2

    def test_seed_reproducibility(self):
        net = fixtures.lattice(3, 3)
        x0 = tuple(range(9))
        a = run(net, x0, RandomSchedule(seed=42))
        b = run(net, x0, RandomSchedule(seed=42))
        assert a == b

    def test_replay_matches_terminal(self):
        rnd = random.Random(0xF00)
        for _ in range(30):
            net = random_network(rnd, rnd.randint(2, 8))
            traj = run(net, random_profile(rnd, net.n), RandomSchedule(seed=rnd.randrange(9999)))
            assert traj.replay() == traj.terminal

    def test_no_new_opinions_ever(self):
        rnd = random.Random(0xBA5E)
        for _ in range(30):
            net = random_network(rnd, rnd.randint(2, 8))
            x0 = random_profile(rnd, net.n)
            traj = run(net, x0, RandomSchedule(seed=rnd.randrange(9999)))
            pool = set(x0)
            assert set(traj.terminal) <= pool
            assert all(new in pool for _, _, _, new in traj.steps)

    def test_converged_means_equilibrium(self):
        rnd = random.Random(0xE0)
        for _ in range(30):
            net = random_network(rnd, rnd.randint(2, 8))
            traj = run(net, random_profile(rnd, net.n), RandomSchedule(seed=rnd.randrange(9999)))
            if traj.converged:
                assert is_equilibrium(net, traj.terminal)

    def test_order_isomorphism(self):
        # a strictly increasing relabeling commutes with the whole run
        rnd = random.Random(0x150)
        relabel = {v: 10 * v + 3 for v in range(10)}
        for _ in range(20):
            net = random_network(rnd, rnd.randint(2, 6))
            x0 = random_profile(rnd, net.n)
            seq = [rnd.randrange(net.n) for _ in range(25)]
            base = run(net, x0, seq)
            mapped = run(net, tuple(relabel[v] for v in x0), seq)
            assert mapped.terminal == tuple(relabel[v] for v in base.terminal)
            assert len(mapped.steps) == len(base.steps)

    def test_separated_cohesive_block_never_crossed(self):
        # once a maximal cohesive set sits strictly below the rest, the gap
        # persists along the entire trajectory
        net = fixtures.bridged_cliques(clique_size=3, cross="1/3")
        block = {0, 1, 2}
        for seed in range(25):
            x0 = (0, 0, 0, 1, 1, 1)
            traj = run(net, x0, RandomSchedule(seed=seed))
            state = list(x0)
            for _, node, _, new in traj.steps:
                state[node] = new
                assert max(state[i] for i in block) < min(
                    state[i] for i in range(6) if i not in block
                )

    def test_bad_schedule_node(self):
        with pytest.raises(ValueError):
            run(fixtures.complete_uniform(3), (0, 1, 2), [0, 7])

    def test_nonpositive_budget(self):
        with pytest.raises(ValueError):
            run(fixtures.complete_uniform(3), (0, 1, 2), RandomSchedule(seed=0, budget=0))


class TestDistributions:
    def test_label_uniform_range(self):
        import numpy as np

        rng = np.random.default_rng(9)
        draw = LabelUniform(k=4).draw(rng, 1000)
        assert set(draw) == {0, 1, 2, 3}

    def test_grid_uniform_values(self):
        import numpy as np

        rng = np.random.default_rng(10)
        draw = GridUniform(points=5).draw(rng, 400)
        allowed = {F(-1), F(-1, 2), F(0), F(1, 2), F(1)}
        assert set(draw) <= allowed
        assert all(-1 <= v <= 1 for v in draw)

    def test_default_budget_frozen(self):
        assert default_budget(8) == 3516
        assert default_budget(1) == 139


class TestEnsemble:
    def test_report_shape(self):
        net = fixtures.complete_uniform(4)
        rep = ensemble(net, LabelUniform(k=2), replicas=32, seed=77)
        assert isinstance(rep, EnsembleReport)
        assert rep.replicas == 32
        assert rep.converged_count == rep.replicas - rep.exhausted_count
        assert 0 <= rep.consensus_count <= rep.converged_count
        assert rep.steps_min <= rep.steps_mean <= rep.steps_max

    def test_reproducible(self):
        net = fixtures.lattice(3, 3)
        a = ensemble(net, LabelUniform(k=3), replicas=25, seed=5)
        b = ensemble(net, LabelUniform(k=3), replicas=25, seed=5)
        assert a == b and a.census == b.census

    def test_parallel_equals_serial(self):
        net = fixtures.lattice(3, 3)
        serial = ensemble(net, LabelUniform(k=3), replicas=24, seed=6, workers=1)
        parallel = ensemble(net, LabelUniform(k=3), replicas=24, seed=6, workers=3)
        assert serial == parallel and serial.census == parallel.census

    def test_fixed_initial_census_single_pattern(self):
        net = fixtures.disjoint_cliques(clique_size=3, blocks=2)
        rep = ensemble(net, (0, 0, 0, 1, 1, 1), replicas=10, seed=3)
        assert rep.consensus_count == 0
        assert rep.converged_count == 10
        assert set(rep.census) == {"0,0,0,1,1,1"}

    def test_census_is_relabeling_invariant(self):
        net = fixtures.disjoint_cliques(clique_size=3, blocks=2)
        a = ensemble(net, (0, 0, 0, 1, 1, 1), replicas=5, seed=1)
        b = ensemble(net, (10, 10, 10, 99, 99, 99), replicas=5, seed=1)
        assert a.census == b.census

    def test_replica_count_validated(self):
        with pytest.raises(ValueError):
            ensemble(fixtures.complete_uniform(3), LabelUniform(k=2), replicas=0, seed=1)

    @pytest.mark.parametrize(
        "option", [{"budget": 0}, {"budget": -1}, {"workers": 0}, {"workers": -3}]
    )
    def test_counts_below_one_rejected(self, option):
        with pytest.raises(ValueError, match="at least 1"):
            ensemble(fixtures.complete_uniform(3), LabelUniform(k=2), replicas=2, seed=1, **option)


class TestIncrementalTables:
    """``run`` and ``ensemble`` keep per-node mass tables; they must give
    exactly what the whole-row reference loop gives."""

    @staticmethod
    def dense_networks():
        """Rows that hold many ranks.  On complete graphs an even denominator
        gives half ties; unequal full rows move medians further."""
        rnd = random.Random(0xFA7)
        nets = [
            fixtures.complete_uniform(n, self_loops=loops)
            for n in (12, 13, 16, 17, 20)
            for loops in (False, True)
        ]
        nets += [
            InfluenceNetwork.from_rows([random_row(rnd, n, 3 * n) for _ in range(n)])
            for n in (12, 15, 18, 20)
        ]
        return nets

    @classmethod
    def networks(cls):
        rnd = random.Random(0x7AB1E)
        nets = network_corpus()
        nets += [random_network(rnd, rnd.randint(2, 9)) for _ in range(12)]
        nets += [random_coprime_network(rnd, rnd.randint(2, 7)) for _ in range(6)]
        nets.append(fixtures.complete_uniform(4, self_loops=True))  # half ties
        return nets + cls.dense_networks()

    @staticmethod
    def reference(monkeypatch, call):
        with monkeypatch.context() as patched:
            patched.setattr(dynamics, "_run_encoded", _reference_run_encoded)
            return call()

    def test_random_schedules(self, monkeypatch):
        rnd = random.Random(0x5EED)
        outcomes = set()
        for net in self.networks():
            for budget in (None, 1, 4, 3 * net.n):
                x0 = random_profile(rnd, net.n, spread=rnd.choice((1, 3, 2 * net.n)))
                schedule = RandomSchedule(seed=rnd.randrange(10**6), budget=budget)
                fast = run(net, x0, schedule)
                assert fast == self.reference(monkeypatch, lambda: run(net, x0, schedule))
                outcomes.add(fast.converged)
        assert outcomes == {True, False}

    def test_explicit_schedules(self, monkeypatch):
        rnd = random.Random(0xD1FF)
        outcomes = set()
        for net in self.networks():
            for _ in range(4):
                x0 = random_profile(rnd, net.n, spread=rnd.choice((1, 3, 2 * net.n)))
                seq = [rnd.randrange(net.n) for _ in range(rnd.randint(1, 6 * net.n))]
                fast = run(net, x0, seq)
                assert fast == self.reference(monkeypatch, lambda: run(net, x0, seq))
                outcomes.add(fast.converged)
        assert outcomes == {True, False}

    def test_dense_rows_whose_ranks_empty_and_return(self, monkeypatch):
        # A spread of 2n gives each rank to about one node, so moves keep
        # emptying ranks of a listener's table and filling them again.
        rnd = random.Random(0xDE45E)
        for net in self.dense_networks():
            for budget in (None, 2 * net.n):
                x0 = random_profile(rnd, net.n, spread=2 * net.n)
                schedule = RandomSchedule(seed=rnd.randrange(10**6), budget=budget)
                fast = run(net, x0, schedule)
                assert fast == self.reference(monkeypatch, lambda: run(net, x0, schedule))
                seq = [rnd.randrange(net.n) for _ in range(3 * net.n)]
                fast = run(net, x0, seq)
                assert fast == self.reference(monkeypatch, lambda: run(net, x0, seq))

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 8),
        st.integers(0, 16),
        st.integers(0, 2**32 - 1),
        st.one_of(st.none(), st.integers(1, 40)),
    )
    def test_matches_reference_property(self, net_seed, n, spread, seed, budget):
        rnd = random.Random(net_seed)
        net = random_network(rnd, n)
        x0 = random_profile(rnd, n, spread=spread)
        schedule = RandomSchedule(seed=seed, budget=budget)
        fast = run(net, x0, schedule)
        with pytest.MonkeyPatch.context() as patched:
            patched.setattr(dynamics, "_run_encoded", _reference_run_encoded)
            assert fast == run(net, x0, schedule)
        assert fast.replay() == fast.terminal

    def test_dense_ensemble_matches_reference_at_one_and_two_workers(self, monkeypatch):
        net = fixtures.complete_uniform(16)
        for seed in (0, 41):
            def call(workers):
                return ensemble(net, GridUniform(points=201), 6, seed, workers=workers)

            expected = self.reference(monkeypatch, lambda: call(1))
            serial = call(1)
            parallel = call(2)
            assert serial == expected and serial.census == expected.census
            assert parallel == serial and parallel.census == serial.census
            assert parallel.to_json_dict() == expected.to_json_dict()

    def test_ensembles_at_one_and_two_workers(self, monkeypatch):
        nets = self.networks()
        picks = [nets[1], nets[3], nets[10], nets[26], nets[28]]
        for k, net in enumerate(picks):
            for source in (LabelUniform(k=3), GridUniform(points=9)):
                for budget in (None, 5):
                    def call(workers):
                        rep = ensemble(net, source, replicas=6, seed=k, budget=budget,
                                       workers=workers)
                        return rep.to_json_dict()

                    expected = self.reference(monkeypatch, lambda: call(1))
                    assert call(1) == expected
                    if budget is None:
                        assert call(2) == expected
