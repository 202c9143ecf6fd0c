"""The update process: single steps, runs, trajectories, ensembles."""

from __future__ import annotations

import os
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    cap_row_network,
    mixed_row_network,
    network_corpus,
    oracle_networks,
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


class EvenLabels:
    """A custom initial distribution: labels 0, 2 and 4, iid.  It lives at
    module level, so workers that do not fork can unpickle it."""

    def draw(self, rng, n):
        return tuple(2 * v for v in rng.integers(0, 3, size=n).tolist())


class TopZeroLabels(LabelUniform):
    """A subclass whose draw ranks label 0 above the others, so its values
    are not ordered as its picks are."""

    def draw(self, rng, n):
        return tuple(v or self.k for v in self.picks(rng, n))


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

    @pytest.mark.parametrize(
        "source, message",
        [
            (LabelUniform(2**63 + 1), "at most 2\\^63 labels"),
            (LabelUniform(10**20), "at most 2\\^63 labels"),
            (GridUniform(2**63 + 1), "at most 2\\^63 points"),
            (GridUniform(10**5000), "at most 2\\^63 points"),
        ],
        ids=["labels-2^63+1", "labels-10^20", "grid-2^63+1", "grid-10^5000"],
    )
    def test_counts_past_int64_refused(self, source, message):
        # numpy draws no pick of 2^63 or more; the refusal names the count.
        with pytest.raises(ValueError, match=message):
            source.draw(dynamics._rng(1), 4)

    def test_counts_up_to_2_63_drawn(self):
        assert all(0 <= v < 2**63 for v in LabelUniform(2**63).draw(dynamics._rng(1), 8))
        assert all(-1 <= v <= 1 for v in GridUniform(2**63).draw(dynamics._rng(1), 8))

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

    @pytest.mark.parametrize(
        "source",
        [*map(LabelUniform, range(1, 5)), *map(GridUniform, range(2, 10)), GridUniform(201)],
        ids=repr,
    )
    def test_picks_are_the_draw_in_order(self, source):
        # Replicas run on the picks where ``run`` gets the draw: the same
        # values in the same order, with each generator left in the same
        # state, so the ticks that follow are the same.
        for seed in (0, 7, 2**40):
            picked, drawn = dynamics._rng(seed), dynamics._rng(seed)
            picks = source.picks(picked, 60)
            draw = source.draw(drawn, 60)
            if isinstance(source, GridUniform):
                span = source.points - 1
                picks = [F(2 * k - span, span) for k in picks]
            assert tuple(picks) == draw
            assert picked.bit_generator.state == drawn.bit_generator.state

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

    @staticmethod
    def count_starts(monkeypatch, most):
        """Record every worker process start; past ``most`` starts, refuse
        the next one instead of starting it."""
        import multiprocessing

        started = []
        start = multiprocessing.process.BaseProcess.start

        def counted(proc):
            started.append(proc)
            assert len(started) <= most, "more worker processes than CPUs"
            start(proc)

        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", counted)
        return started

    def test_workers_capped_at_cpu_count(self, monkeypatch):
        # Every worker runs at once, so there are never more than CPUs: at
        # two CPUs the parent runs one block and starts one process.
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        started = self.count_starts(monkeypatch, most=1)
        net = fixtures.complete_uniform(4)
        capped = ensemble(net, LabelUniform(3), replicas=64, seed=2, workers=64)
        assert len(started) == 1
        serial = ensemble(net, LabelUniform(3), replicas=64, seed=2, workers=1)
        assert capped == serial and capped.census == serial.census
        assert len(started) == 1

    @pytest.mark.parametrize("replicas, workers", [(7, 3), (3, 3), (5, 4)])
    def test_uneven_blocks_equal_one_worker(self, monkeypatch, replicas, workers):
        # The blocks are cut at replicas * k // workers, so they differ in
        # size by at most one replica, and none is empty.
        monkeypatch.setattr(os, "cpu_count", lambda: workers)
        started = self.count_starts(monkeypatch, most=2 * (workers - 1))
        net = mixed_row_network()
        fixed = tuple(F(i % 4, 2) for i in range(net.n))
        for source in (LabelUniform(3), fixed):
            many = ensemble(net, source, replicas, seed=8, workers=workers)
            one = ensemble(net, source, replicas, seed=8, workers=1)
            assert many == one and many.census == one.census
        assert len(started) == 2 * (workers - 1)

    @pytest.mark.parametrize(
        "case, workers, outcome",
        [
            ("worker-raises", 3, "ValueError draw failed in a worker"),
            ("worker-dies", 2,
             "RuntimeError ensemble worker 1 died without a result (exit code 7)"),
            ("parent-raises", 3, "ValueError draw failed in the parent"),
        ],
    )
    def test_failures_surface_and_leave_no_process(self, case, workers, outcome):
        # A worker's exception is raised again in the parent, a worker that
        # exits without a message is named, and when the parent's own block
        # fails it stops the workers, which here wait for it to exit, before
        # the error leaves ``ensemble``.  No case may hang or leave a
        # process behind.
        code = (
            "import multiprocessing, os, sys, time\n"
            "from median_consensus import ensemble, fixtures\n"
            "os.cpu_count = lambda: 3\n"
            "parent = os.getpid()\n"
            "case = sys.argv[1]\n"
            "class Failing:\n"
            "    def draw(self, rng, n):\n"
            "        inside = os.getpid() == parent\n"
            "        if case == 'worker-raises' and not inside:\n"
            "            raise ValueError('draw failed in a worker')\n"
            "        if case == 'worker-dies' and not inside:\n"
            "            os._exit(7)\n"
            "        if case == 'parent-raises':\n"
            "            if inside:\n"
            "                raise ValueError('draw failed in the parent')\n"
            "            while os.getppid() == parent:\n"
            "                time.sleep(0.05)\n"
            "        return tuple(rng.integers(0, 3, size=n).tolist())\n"
            "net = fixtures.complete_uniform(4)\n"
            "try:\n"
            "    ensemble(net, Failing(), 6, 1, workers=int(sys.argv[2]))\n"
            "except Exception as exc:\n"
            "    print(type(exc).__name__, exc)\n"
            "print(multiprocessing.active_children())\n"
        )
        proc = python_child(code, case, str(workers), timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == f"{outcome}\n[]\n"

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

    def test_spawned_workers_equal_one_worker(self, monkeypatch):
        # The pool asks for fork by name where the platform has it.  Under
        # spawn, as where it has not, workers import everything afresh and
        # receive the network and the draw object, a custom class included,
        # or a fixed state's ranks by pickling; the report must not change.
        import multiprocessing

        asked = []
        get_context = multiprocessing.get_context

        def spawn_context(method=None):
            asked.append(method)
            return get_context("spawn")

        monkeypatch.setattr(multiprocessing, "get_context", spawn_context)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        net = mixed_row_network()
        fixed = tuple(F(i % 4, 2) for i in range(net.n))
        for source in (LabelUniform(3), EvenLabels(), fixed):
            two = ensemble(net, source, replicas=8, seed=4, workers=2)
            one = ensemble(net, source, replicas=8, seed=4, workers=1)
            assert two == one and two.census == one.census
        fork = "fork" in multiprocessing.get_all_start_methods()
        assert asked == ["fork" if fork else None] * 3

    def test_parent_builds_run_tables_before_the_pool(self, monkeypatch):
        # Forked workers inherit the tables instead of each building them,
        # and the parent keeps them for its next run.
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        net = fixtures.lattice(5, 6)
        assert "listener_weights" not in vars(net)
        two = ensemble(net, GridUniform(201), replicas=4, seed=3, workers=2)
        assert "listener_weights" in vars(net)
        one = ensemble(fixtures.lattice(5, 6), GridUniform(201), replicas=4, seed=3, workers=1)
        assert two == one and two.census == one.census

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
        """Fail the test if a replica runs or a worker process starts; two
        CPUs, so that two workers are not capped to one."""
        import multiprocessing

        def no_replica(*args):
            raise AssertionError("a replica ran")

        def no_start(proc):
            raise AssertionError("a worker process was started")

        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(dynamics, "_replica_summary", no_replica)
        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", no_start)

    @pytest.mark.parametrize(
        "source, refusal",
        [
            (LabelUniform(0), "need at least one label"),
            (LabelUniform(2**63 + 1), "need at most 2\\^63 labels"),
            (GridUniform(1), "grid needs at least two points"),
            (GridUniform(2**63 + 1), "grid needs at most 2\\^63 points"),
        ],
        ids=["labels-0", "labels-2^63+1", "grid-1", "grid-2^63+1"],
    )
    def test_distribution_checked_before_any_replica(self, no_replica_runs, source, refusal):
        for workers in (1, 2):
            with pytest.raises(ValueError, match=refusal):
                ensemble(fixtures.complete_uniform(4), source, replicas=4, seed=1,
                         workers=workers)

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


class TestReplicaWork:
    """One-worker ensembles call ``_engine.encode_profile`` never for
    ``LabelUniform`` and ``GridUniform``, whose replicas start from their
    integer picks, once for a fixed state, and once per replica for a
    custom ``draw``."""

    @staticmethod
    def encodings(monkeypatch, call):
        calls = []
        encode_profile = _engine.encode_profile

        def counted(values):
            calls.append(values)
            return encode_profile(values)

        with monkeypatch.context() as patched:
            patched.setattr(_engine, "encode_profile", counted)
            call()
        return len(calls)

    @pytest.mark.parametrize("replicas", [1, 7])
    def test_encodings_per_ensemble(self, monkeypatch, replicas):
        net = mixed_row_network()
        fixed = tuple(F(i % 3, 2) for i in range(net.n))
        for source, expected in (
            (LabelUniform(3), 0), (GridUniform(201), 0), (fixed, 1), (EvenLabels(), replicas)
        ):
            calls = self.encodings(monkeypatch, lambda: ensemble(net, source, replicas, 5))
            assert calls == expected, source

    def test_subclass_keeps_its_own_draw(self, monkeypatch):
        # Only an exact LabelUniform or GridUniform runs on its picks.
        class Plain:
            def draw(self, rng, n):
                return TopZeroLabels(3).draw(rng, n)

        net = mixed_row_network()
        calls = self.encodings(monkeypatch, lambda: ensemble(net, TopZeroLabels(3), 6, 5))
        assert calls == 6
        sub = ensemble(net, TopZeroLabels(3), 12, 5)
        plain = ensemble(net, Plain(), 12, 5)
        assert sub == plain and sub.census == plain.census
        picks = ensemble(net, LabelUniform(3), 12, 5)
        assert sub.census != picks.census

    def test_grid_replicas_build_no_fraction(self, monkeypatch):
        net = fixtures.lattice(5, 6)
        net.listener_weights
        built = []
        new = F.__new__

        def counted(cls, *args, **kwargs):
            built.append(args)
            return new(cls, *args, **kwargs)

        with monkeypatch.context() as patched:
            patched.setattr(F, "__new__", counted)
            GridUniform(201).draw(dynamics._rng(1), 4)
            drawn = len(built)
            ensemble(net, GridUniform(201), 6, 5)
        assert drawn > 0 and len(built) == drawn


class TestIncrementalTables:
    """``run`` and ``ensemble`` keep two masses per node and read a row only
    when its node moves; they must give exactly what the whole-row
    reference loop gives."""

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
        """``network_corpus()`` brings equal-weight rows of 3, 4 and 5
        entries with half ties (``lattice(5, 6)``); the mixed network puts
        equal-weight and weighted rows side by side, self-loops on both;
        ``complete_uniform(40)`` has wide equal-weight rows; the
        coprime networks' denominators reach about 10^20, and
        ``cap_row_network()`` has weighted self-loops and denominators of 64
        times a row's width and one more."""
        rnd = random.Random(0x7AB1E)
        nets = network_corpus()
        nets += [random_network(rnd, rnd.randint(2, 9)) for _ in range(12)]
        nets += [random_coprime_network(rnd, rnd.randint(2, 7)) for _ in range(6)]
        nets.append(fixtures.complete_uniform(4, self_loops=True))  # half ties
        nets += [mixed_row_network(), fixtures.complete_uniform(40)]
        return nets + cls.dense_networks() + [cap_row_network()]

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

    def test_wide_equal_rows_with_few_labels(self, monkeypatch):
        # Two or three labels over 39 equal weights: long runs of equal
        # ranks, so a change often leaves both middle entries in place.
        for net in (fixtures.complete_uniform(40), fixtures.complete_uniform(41, self_loops=True)):
            for k in (2, 3):
                def call():
                    return ensemble(net, LabelUniform(k=k), 4, 17 * k).to_json_dict()

                assert call() == self.reference(monkeypatch, call)
                x0 = LabelUniform(k=k).draw(dynamics._rng(k), net.n)
                seq = [(7 * t) % net.n for t in range(3 * net.n)]
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

    @settings(max_examples=300, deadline=None)
    @given(oracle_networks(), st.data())
    def test_oracle_networks_match_reference_property(self, net, data):
        # "half" and "coprime" rows put twice a mass exactly on the row's
        # denominator, so nodes sit on the edge of their median intervals.
        labels = data.draw(st.integers(1, 3))
        x0 = data.draw(st.lists(st.integers(0, labels), min_size=net.n, max_size=net.n))
        schedule = data.draw(
            st.one_of(
                st.builds(
                    RandomSchedule,
                    seed=st.integers(0, 2**32 - 1),
                    budget=st.one_of(st.none(), st.integers(1, 40)),
                ),
                st.lists(st.integers(0, net.n - 1), min_size=1, max_size=6 * net.n),
            )
        )
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
        picks = [nets[1], nets[3], nets[10], nets[26], nets[28], nets[-1]]
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


class TestRunWork:
    """Runs build a mass table (``_engine.row_masses``) once per move of a
    node whose row is not equal-weight, and never on a listener update:
    listeners shift two masses by their ``listener_weights`` rows."""

    @staticmethod
    def table_builds(monkeypatch, call):
        calls = []
        row_masses = _engine.row_masses

        def counted(row, state):
            calls.append(row)
            return row_masses(row, state)

        with monkeypatch.context() as patched:
            patched.setattr(_engine, "row_masses", counted)
            call()
        return len(calls)

    @staticmethod
    def weighted_moves(net, traj):
        rows = net.integer_rows
        return sum(rows[i][2] != len(rows[i][0]) for _, i, _, _ in traj.steps)

    def test_equal_weight_networks_build_no_table(self, monkeypatch):
        for net in (fixtures.lattice(5, 6), fixtures.complete_uniform(12)):
            x0 = tuple(range(net.n))
            builds = self.table_builds(monkeypatch, lambda: run(net, x0, RandomSchedule(seed=3)))
            assert builds == 0
            builds = self.table_builds(
                monkeypatch, lambda: ensemble(net, GridUniform(points=9), 3, 5)
            )
            assert builds == 0

    def test_mixed_network_reads_weighted_rows_once_per_move(self, monkeypatch):
        net = mixed_row_network()
        weighted = sum(d != len(nbrs) for nbrs, _, d in net.integer_rows)
        assert weighted == 4
        x0 = tuple(range(net.n))
        traj = run(net, x0, RandomSchedule(seed=3))
        builds = self.table_builds(monkeypatch, lambda: run(net, x0, RandomSchedule(seed=3)))
        assert len(traj.steps) == 6
        assert builds == self.weighted_moves(net, traj) == 3
        builds = self.table_builds(monkeypatch, lambda: ensemble(net, LabelUniform(k=3), 3, 5))
        assert builds == 6

    def test_large_denominator_rows_read_once_per_move(self, monkeypatch):
        # No row is equal-weight, so every move reads its row once, and
        # listener updates read none.
        net = cap_row_network()
        x0 = tuple(range(net.n))
        traj = run(net, x0, RandomSchedule(seed=3))
        builds = self.table_builds(monkeypatch, lambda: run(net, x0, RandomSchedule(seed=3)))
        assert builds == len(traj.steps) == self.weighted_moves(net, traj) == 8
        builds = self.table_builds(monkeypatch, lambda: ensemble(net, LabelUniform(k=3), 3, 5))
        assert builds == 23
