"""The update process: single steps, runs, trajectories, ensembles."""

from __future__ import annotations

import os
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    network_corpus,
    python_child,
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
    decide_consensus_reachable,
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
        for i in (3, True, 1.0):
            with pytest.raises(ValueError, match="out of range"):
                step(fixtures.complete_uniform(3), (0, 1, 2), i)


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
        # as in ``step``, a bool or a float is not a node number
        for schedule in ([0, 7], [0.9, True], [True], [1.0]):
            with pytest.raises(ValueError, match="schedule node .* out of range"):
                run(fixtures.complete_uniform(3), (0, 1, 2), schedule)

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

    @pytest.mark.parametrize(
        "source, message",
        [
            (LabelUniform(0), "at least one label"),
            (LabelUniform(2.5), "at least one label"),
            (LabelUniform(True), "at least one label"),
            (LabelUniform("3"), "at least one label"),
            (GridUniform(1), "at least two points"),
            (GridUniform(5.0), "at least two points"),
            (GridUniform("3"), "at least two points"),
        ],
        ids=repr,
    )
    def test_parameters_must_be_json_ints(self, source, message):
        with pytest.raises(ValueError, match=message):
            source.draw(dynamics._rng(1), 4)

    @settings(max_examples=60, deadline=None)
    @given(
        st.one_of(st.integers(2, 300), st.integers(2, 10**9), st.just(10**9)),
        st.integers(0, 2**32 - 1),
        st.integers(0, 400),
    )
    def test_grid_draw_matches_per_node_fractions(self, points, seed, n):
        # The draw shares one Fraction per distinct index; the values and the
        # generator's consumption are those of one Fraction per node.
        import numpy as np

        rng = np.random.default_rng(seed)
        draw = GridUniform(points).draw(rng, n)
        ref = np.random.default_rng(seed)
        span = points - 1
        expected = tuple(F(2 * int(k) - span, span) for k in ref.integers(0, points, size=n))
        assert draw == expected
        assert rng.integers(0, 2**62) == ref.integers(0, 2**62)

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

    def test_workers_capped_at_cpu_count(self, monkeypatch):
        # Under fork the pool starts every worker at once, so it never asks
        # for more than there are CPUs.  The fake pool records its size and
        # runs the replicas in this process.
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers, initializer, initargs):
                sizes.append(max_workers)
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize):
                return map(fn, items)

        monkeypatch.setattr(dynamics, "_worker_config", ())
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", RecordingPool)
        net = fixtures.complete_uniform(4)
        capped = ensemble(net, LabelUniform(3), replicas=64, seed=2, workers=64)
        assert sizes == [2]
        serial = ensemble(net, LabelUniform(3), replicas=64, seed=2, workers=1)
        assert capped == serial and capped.census == serial.census

    def test_workers_inherit_numpy_from_the_parent(self):
        # The parent loads numpy before the pool forks, so no worker imports
        # it on its own; a child interpreter starts without it.
        code = (
            "import sys\n"
            "from median_consensus import LabelUniform, ensemble, fixtures\n"
            "assert 'numpy' not in sys.modules\n"
            "net = fixtures.complete_uniform(4)\n"
            "two = ensemble(net, LabelUniform(3), replicas=4, seed=1, workers=2)\n"
            "loaded = 'numpy' in sys.modules\n"
            "one = ensemble(net, LabelUniform(3), replicas=4, seed=1, workers=1)\n"
            "print(loaded, two == one and two.census == one.census)\n"
        )
        proc = python_child(code)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "True True\n"

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

    @pytest.mark.parametrize(
        "name, call",
        [
            ("bound", lambda net: decide_consensus_reachable(net, bound=2.5)),
            ("bound", lambda net: decide_consensus_reachable(net, bound=None)),
            ("replicas", lambda net: ensemble(net, LabelUniform(3), True, 1)),
            ("replicas", lambda net: ensemble(net, LabelUniform(3), 2.0, 1)),
            ("budget", lambda net: ensemble(net, LabelUniform(3), 2, 1, budget=50.0)),
            ("workers", lambda net: ensemble(net, LabelUniform(3), 2, 1, workers=1.0)),
            ("budget", lambda net: run(net, (0, 1, 2), RandomSchedule(seed=0, budget=True))),
            ("budget", lambda net: run(net, (0, 1, 2), RandomSchedule(seed=0, budget=5.0))),
        ],
        ids=[
            "decide-bound-float", "decide-bound-none", "replicas-bool", "replicas-float",
            "ensemble-budget-float", "workers-float", "run-budget-bool", "run-budget-float",
        ],
    )
    def test_integer_parameters_refuse_bools_and_floats(self, name, call):
        # One rule, as for node numbers: a JSON integer, so no bool or float.
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            call(fixtures.complete_uniform(3))

    @pytest.fixture
    def no_replica_runs(self, monkeypatch):
        """Fail the test if a replica runs or a worker pool starts."""
        def no_replica(*args):
            raise AssertionError("a replica ran")

        def no_pool(*args, **kwargs):
            raise AssertionError("a pool was started")

        monkeypatch.setattr(dynamics, "_replica_summary", no_replica)
        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", no_pool)

    def test_fixed_state_length_checked_before_any_replica(self, no_replica_runs):
        for workers in (1, 2):
            with pytest.raises(ValueError, match="initial state length 3 != n=4"):
                ensemble(fixtures.complete_uniform(4), (0, 1, 2), replicas=4, seed=1,
                         workers=workers)

    @pytest.mark.parametrize("state", [(0, "a", 1, 2), ([0], 1, 2, 3)],
                             ids=["incomparable", "unhashable"])
    def test_fixed_state_encoded_before_any_replica(self, no_replica_runs, state):
        for workers in (1, 2):
            with pytest.raises(ValueError, match="mutually comparable"):
                ensemble(fixtures.complete_uniform(4), state, replicas=4, seed=1,
                         workers=workers)

    @pytest.mark.parametrize(
        "seed, refusal",
        [(None, "an integer"), (1.5, "an integer"), (True, "an integer"), (-1, "at least 0")],
        ids=["none", "float", "bool", "negative"],
    )
    def test_seeds_follow_the_integer_rule(self, no_replica_runs, monkeypatch, seed, refusal):
        # Checked before any draw: a None seed would draw from OS entropy,
        # True would run as seed 1, and numpy's refusal of -1 names no
        # parameter.
        def no_draw(seed):
            raise AssertionError("a generator was seeded")

        monkeypatch.setattr(dynamics, "_rng", no_draw)
        net = fixtures.complete_uniform(3)
        with pytest.raises(ValueError, match=f"^seed must be {refusal}"):
            run(net, (0, 1, 2), RandomSchedule(seed=seed))
        for workers in (1, 2):
            with pytest.raises(ValueError, match=f"^seed must be {refusal}"):
                ensemble(net, LabelUniform(3), 2, seed, workers=workers)

    def test_census_matches_decoded_terminals(self):
        # Every replica is rerun here through ``run`` on the ticks its own
        # generator yields after the draw, and the census is taken from the
        # decoded terminal values, not from ranks.
        def value_census_key(terminal):
            table = {v: k for k, v in enumerate(sorted(set(terminal)))}
            return ",".join(str(table[v]) for v in terminal)

        class TwoBands:
            """Even nodes draw ints in 0..2, odd nodes Fractions in 1..2."""

            def draw(self, rng, n):
                low = rng.integers(0, 3, size=n).tolist()
                high = rng.integers(2, 5, size=n).tolist()
                return tuple(lo if i % 2 == 0 else F(hi, 2)
                             for i, (lo, hi) in enumerate(zip(low, high)))

        rnd = random.Random(0xCE45)
        nets = [random_network(rnd, rnd.randint(2, 8)) for _ in range(8)]
        nets += [fixtures.disjoint_cliques(clique_size=3, blocks=2), fixtures.lattice(3, 3)]
        consensus_seen = set()
        for k, net in enumerate(nets):
            fixed = tuple(rnd.choice((0, 1, 2, F(1), F(1, 2), F(4, 2))) for _ in range(net.n))
            for source in (LabelUniform(3), GridUniform(7), TwoBands(), fixed):
                budget = rnd.choice((None, 3))
                rep = ensemble(net, source, replicas=6, seed=k, budget=budget)
                census = {}
                consensus = 0
                used = []
                for r in range(6):
                    rng = dynamics._rng([k, r])
                    x0 = source.draw(rng, net.n) if hasattr(source, "draw") else source
                    ticks = list(dynamics._random_ticks(rng, net.n, rep.budget))
                    traj = run(net, x0, ticks)
                    key = value_census_key(traj.terminal)
                    census[key] = census.get(key, 0) + 1
                    consensus += traj.converged and len(set(traj.terminal)) == 1
                    used.append(traj.steps_used)
                assert rep.census == census
                assert rep.consensus_count == consensus
                assert (rep.steps_min, rep.steps_max) == (min(used), max(used))
                consensus_seen.add(consensus)
        assert 0 in consensus_seen and 6 in consensus_seen


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
