"""The workloads: each one's queries, the checks on their answers, and the
CLI commands it runs.

Every workload answers the same five kinds of request, so every end-to-end
metric exists on every workload: loading its networks (setup), seeded runs,
ensembles at 1 and 2 workers, its verdict queries, and a round of CLI
commands.  What differs is the input, and therefore which layer dominates.
"""

from __future__ import annotations

import hashlib
import json
import math
from bisect import bisect_left
from collections import Counter

import numpy as np

from median_consensus import (
    GridUniform,
    LabelUniform,
    RandomSchedule,
    brute_force_nae3sat,
    build_svc_graph,
    build_update_sequence,
    certificate_from_assignment,
    classify,
    decide_consensus_reachable,
    decisive_subgraph,
    ensemble,
    enumerate_equilibria,
    enumerate_maximal_cohesive_sets,
    has_globally_reachable_node,
    has_half_ties,
    is_equilibrium,
    is_equilibrium_structural,
    is_maximal_cohesive,
    load_network,
    run,
    svc_to_json_dict,
    verify_certificate,
)
from median_consensus._io import opinion_to_json

from harness import Checks, Tracer, run_cli
from inputs import TAG_SEQUENCE, Inputs, rng_for

ENSEMBLE_INDEX = 99_999  # derived-seed index of the ensembles, apart from run indices


def derived_seed(seed: int, k: int) -> int:
    """Seed of the k-th seeded run (and of the CLI run mirroring run 0)."""
    return seed * 100_000 + k


def _json_roundtrip(value):
    return json.loads(json.dumps(value))


def uniform_row_expectations(net) -> tuple[int, bool]:
    """Closed forms for networks whose rows spread weight evenly over d nodes.

    The other d-1 neighbors of a link reach every sum k/d, so the link is
    decisive iff some k/d lies strictly inside (1/2 - 1/d, 1/2), i.e. iff d
    is odd; and a row has a subset of weight exactly 1/2 iff d is even.
    Returns (decisive link count, half ties present).
    """
    decisive = 0
    ties = False
    for row in net.rows:
        if len({w for _, w in row}) != 1:
            raise ValueError("rows are not uniform")
        if len(row) % 2:
            decisive += len(row)
        else:
            ties = True
    return decisive, ties


def _subset_sums(weights) -> list[int]:
    sums = [0]
    for w in weights:
        sums += [s + w for s in sums]
    return sums


def decisive_edges_mitm(net) -> frozenset:
    """Decisive links by meet-in-the-middle over each row's cleared weights,
    independent of the program's bitset and enumeration paths."""
    out = set()
    for i, row in enumerate(net.rows):
        denom = math.lcm(*(w.denominator for _, w in row))
        ints = [(j, int(w * denom)) for j, w in row]
        for j, wj in ints:
            others = [w for k, w in ints if k != j]
            half = len(others) // 2
            right = sorted(_subset_sums(others[half:]))
            for a in _subset_sums(others[:half]):
                # need b with  denom - 2*wj < 2*(a + b) < denom
                lo = (denom - 2 * wj - 2 * a) // 2 + 1
                hi = (denom - 2 * a - 1) // 2
                k = bisect_left(right, lo)
                if k < len(right) and right[k] <= hi:
                    out.add((i, j))
                    break
    return frozenset(out)


class Workload:
    """Shared request kinds; subclasses pick the inputs and the verdict."""

    name = ""
    why = ""
    run_net = ""  # network of the seeded runs and ensembles
    run_initial = None  # initial-state distribution of the runs
    ensembles: tuple = ()  # (distribution, replicas) per ensemble call
    # Per request kind: its share of a timed run's seconds, and the fewest
    # and most rounds it makes.  The shares and run.HOST_SHARE, the time of
    # the host-speed reference, add up to 1.  A round is one unit per item of
    # the kind: each verdict query group, CLI command, or ensemble
    # distribution at 1 and at 2 workers.
    # 21 runs leave 10 beyond a tail.
    shares: dict = {}
    min_rounds = {"setup": 3, "runs": 21, "ensembles": 2, "verdict": 3, "cli": 2}
    max_rounds: dict = {}
    traced_runs = 5  # seeded runs in a traced pass

    def __init__(self, seed: int, inputs: Inputs, checks: Checks):
        self.seed = seed
        self.inputs = inputs
        self.checks = checks
        self.nets: dict = {}
        self.reference: dict = {}  # first answers, for repetition checks
        self.begin_pass(Tracer())

    def begin_pass(self, tracer: Tracer) -> None:
        self.tr = tracer
        self.counts: Counter = Counter()

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        return self.checks.check(f"{self.name}.{name}", ok, detail)

    def repeatable(self, name: str, key: str, value) -> bool:
        ref = self.reference.setdefault(key, value)
        return self.check(name, value == ref, key)

    def items(self) -> dict[str, int]:
        """Units per round of each request kind."""
        return {
            "setup": 1,
            "runs": 1,
            "ensembles": 2 * len(self.ensembles),
            "verdict": len(self.verdict_items()),
            "cli": len(self.cli_commands()),
        }

    # -- request kinds ------------------------------------------------------
    # Each returns its measured seconds.  Unit k of a kind with several items
    # measures item k modulo their number, so that short units of every kind
    # spread over the whole run.

    def setup(self, _k=0) -> float:
        """Load every input network; returns the load + integer_rows time."""
        nets = {}
        seconds = 0.0
        with self.tr.span("op.setup"):
            for key, path in self.inputs.networks.items():
                with self.tr.span("network.load") as load:
                    net = load_network(path)
                with self.tr.span("network.integer_rows") as rows:
                    net.integer_rows
                seconds += load.duration + rows.duration
                nets[key] = net
        self.nets = nets
        self.counts["network.edges"] = sum(net.edge_count for net in nets.values())
        self.counts["network.file_bytes"] = self.inputs.network_bytes
        return seconds

    def seeded_run(self, k: int) -> float:
        net = self.nets[self.run_net]
        s = derived_seed(self.seed, k)
        x0 = self.run_initial.draw(np.random.default_rng([s, 0]), net.n)
        with self.tr.span("op.run"):
            with self.tr.span("dynamics.run") as sp:
                traj = run(net, x0, RandomSchedule(seed=s))
            self.counts["dynamics.ticks"] += traj.steps_used
            self.counts["dynamics.changes"] += len(traj.steps)
            with self.tr.span("check.run"):
                self.check("run.replay", traj.replay() == traj.terminal, f"run {k}")
                self.check("run.converged", traj.converged, f"run {k}")
                self.check("run.equilibrium", is_equilibrium(net, traj.terminal), f"run {k}")
        if k == 0:
            self.reference["run0"] = traj
        return sp.duration

    def ensemble_unit(self, k: int) -> float:
        """One ensemble distribution at one worker count, 1 and 2 alternating."""
        net = self.nets[self.run_net]
        eseed = derived_seed(self.seed, ENSEMBLE_INDEX)
        dist, replicas = self.ensembles[(k // 2) % len(self.ensembles)]
        w = 1 + k % 2
        with self.tr.span("op.ensemble"):
            with self.tr.span(f"dynamics.ensemble.w{w}") as sp:
                report = ensemble(net, dist, replicas, eseed, workers=w).to_json_dict()
        self.check("ensemble.converged", report["converged"] == replicas, repr(dist))
        # The first report, made with 1 worker, is the reference for all later ones.
        name = "ensemble.workers_agree" if w == 2 else "ensemble.repeatable"
        self.repeatable(name, f"ensemble:{dist!r}", report)
        return sp.duration

    def verdict(self, k=0) -> float:
        """Answer one query group; returns the time spent in queries, not in
        checking them."""
        groups = self.verdict_items()
        _, queries = groups[k % len(groups)]
        with self.tr.span("op.verdict") as op:
            queries()
        return self.tr.children_total(op, "check.")

    def cli_command(self, k=0) -> float:
        """Run one CLI command in a fresh interpreter and check its output."""
        commands = self.cli_commands()
        idx = k % len(commands)
        label, args, expected, agrees = commands[idx]
        with self.tr.span("op.cli"):
            with self.tr.span(f"cli.{label}") as sp:
                code, out = run_cli(args, cwd=self.inputs.dir)
        self.counts["cli.output_bytes"] += len(out)
        self.check(f"cli.{label}.exit", code == expected, f"exit {code}, expected {expected}")
        digest = hashlib.sha256(out).hexdigest()
        self.repeatable(f"cli.{label}.repeatable", f"cli:{idx}", digest)
        try:
            result = json.loads(out)["result"]
        except (ValueError, KeyError):
            result = None
        ok = result is not None and agrees(result)
        self.check(f"cli.{label}.result", ok, " ".join(map(str, args)))
        return sp.duration

    def cli_startup(self) -> None:
        with self.tr.span("op.cli_startup"):
            with self.tr.span("cli.startup"):
                code, out = run_cli(["--version"], cwd=self.inputs.dir)
        self.check("cli.startup", code == 0 and out.startswith(b"median-consensus "), repr(out))

    def traced_pass(self) -> None:
        """One round of each request kind (five seeded runs), so that counts
        repeat exactly."""
        items = self.items()
        self.cli_startup()
        self.setup()
        for k in range(self.traced_runs):
            self.seeded_run(k)
        for kind, unit in (("ensembles", self.ensemble_unit), ("verdict", self.verdict),
                           ("cli", self.cli_command)):
            for k in range(items[kind]):
                unit(k)

    # -- shared queries ----------------------------------------------------------

    def analysis(self, key: str) -> tuple:
        """Decisive links, a globally reachable node, half ties."""
        net = self.nets[key]
        with self.tr.span("network.decisive_subgraph"):
            sub = decisive_subgraph(net)
        with self.tr.span("network.reachability"):
            reach = has_globally_reachable_node(sub)
        with self.tr.span("network.half_ties"):
            ties = has_half_ties(net)
        self.counts["network.decisive_edges"] += len(sub.edges)
        with self.tr.span("check.analysis"):
            expected = uniform_row_expectations(net)
        self.check("analysis.decisive", (len(sub.edges), ties) == expected, f"{key}: {expected}")
        answer = (len(sub.edges), reach, ties)
        self.repeatable("analysis.repeatable", f"analysis:{key}", answer)
        return answer

    def verdict_items(self) -> list:
        """(label, queries) per query group, in the order they first run."""
        raise NotImplementedError

    def cli_commands(self) -> list:
        raise NotImplementedError


class Lattice10k(Workload):
    name = "lattice-10k"
    why = (
        "10,000-node 100x100 lattice from a 2.4 MB edge-list JSON: fraction parsing and "
        "validation dominate; engine rows hold only 3-5 entries"
    )
    run_net = "lattice"
    run_initial = GridUniform(201)
    ensembles = ((GridUniform(201), 2),)
    shares = {"setup": 0.06, "runs": 0.16, "ensembles": 0.26, "verdict": 0.08, "cli": 0.4}

    def verdict_items(self) -> list:
        return [("analysis", lambda: self.analysis("lattice"))]

    def cli_commands(self) -> list:
        return [
            ("simulate", ["simulate", "--network", "lattice.json", "--initial", "grid:201",
                          "--seed", derived_seed(self.seed, 0)], 0, self._same_trajectory),
            ("analyze", ["analyze", "--network", "lattice.json"], 0, self._same_analysis),
        ]

    def _same_trajectory(self, result) -> bool:
        traj = self.reference["run0"]
        return (
            result["terminal"] == [opinion_to_json(v) for v in traj.terminal]
            and result["initial"] == [opinion_to_json(v) for v in traj.initial]
            and result["steps_used"] == traj.steps_used
            and len(result["steps"]) == len(traj.steps)
            and result["converged"] == traj.converged
        )

    def _same_analysis(self, result) -> bool:
        decisive, (exists, witness), ties = self.reference["analysis:lattice"]
        return (
            len(result["decisive_edges"]) == decisive
            and result["half_ties"] == ties
            and result["globally_reachable"]["exists"] == exists
            and result["globally_reachable"]["witness"] == (None if witness is None else witness + 1)
        )


class DenseEnsemble(Workload):
    name = "dense-ensemble"
    why = (
        "complete 60-node graph from a dense CSV: engine updates on 59-entry rows are nearly "
        "all the time; label count 3 versus a 201-point grid"
    )
    run_net = "k60"
    run_initial = LabelUniform(3)
    ensembles = ((LabelUniform(3), 24), (GridUniform(201), 8))
    shares = {"setup": 0.03, "runs": 0.1, "ensembles": 0.44, "verdict": 0.05, "cli": 0.34}

    def verdict_items(self) -> list:
        return [("analysis", lambda: self.analysis("k60"))]

    def cli_commands(self) -> list:
        dist, replicas = self.ensembles[0]
        args = ["ensemble", "--network", "k60.csv", "--initial", "labels:3", "--replicas", replicas,
                "--seed", derived_seed(self.seed, ENSEMBLE_INDEX), "--workers", 2]
        key = f"ensemble:{dist!r}"
        return [("ensemble", args, 0, lambda result: result == _json_roundtrip(self.reference[key]))]


class Search(Workload):
    name = "search"
    why = (
        "exhaustive procedures on small networks: BFS state sets of decide, subset "
        "enumeration and memory growth; the engine runs on fresh tuple states"
    )
    run_net = "lattice30"
    run_initial = GridUniform(201)
    ensembles = ((GridUniform(201), 16),)
    # Exactly one verdict round, about 14 s on an idle host: the peak memory
    # of the process grows with each unsatisfiable decide, so their count
    # must not vary.
    shares = {"setup": 0.03, "runs": 0.1, "ensembles": 0.2, "verdict": 0.39, "cli": 0.24}
    min_rounds = dict(Workload.min_rounds, verdict=1)
    max_rounds = {"verdict": 1}

    def verdict_items(self) -> list:
        # The first group answers what the CLI commands are checked against.
        return [
            ("decide.sat", self._decide_sat),
            ("decide.unsat", lambda: self._decide_gadget("unsat")),
            ("decide.nocons", self._decide_nocons),
            ("cohesion", self._cohesion_and_equilibria),
            ("sequence", lambda: self._sequence("lattice30")),
            ("prime", lambda: self._prime_analysis("prime")),
        ]

    def _decide_sat(self) -> None:
        for key in ("sat0", "sat1", "sat2"):
            self._decide_gadget(key)
        self._reduce_instance("sat-large")

    def _decide_nocons(self) -> None:
        with self.tr.span("equilibria.decide.nocons"):
            reachable, cert = decide_consensus_reachable(self.nets["cliques"])
        self.check("decide.nocons", not reachable and cert is None)

    def _cohesion_and_equilibria(self) -> None:
        self._cohesion("lattice4")
        self._equilibria("lattice3")

    def _reduce_instance(self, key: str):
        """The in-process reduction: gadget, brute force, certificate."""
        _, inst = self.inputs.instances[key]
        with self.tr.span("hardness.build"):
            svc = build_svc_graph(inst)
        self.check("gadget.matches_file", svc.network == self.nets[key], key)
        with self.tr.span("hardness.brute_force"):
            assignment = brute_force_nae3sat(inst)
        if assignment is not None:
            with self.tr.span("hardness.certificate"):
                cert = certificate_from_assignment(svc, assignment)
            n, m = inst.num_vars, len(inst.clauses)
            self.check("certificate.length", cert.target_time == 2 * n + m, key)
            self.reference[f"reduce:{key}"] = (svc, assignment, cert)
        return assignment

    def _decide_gadget(self, key: str) -> None:
        assignment = self._reduce_instance(key)
        net = self.nets[key]
        label = "unsat" if assignment is None else "sat"
        with self.tr.span(f"equilibria.decide.{label}"):
            reachable, cert = decide_consensus_reachable(net, bound=net.n)
        self.check("decide.matches_brute_force", reachable == (assignment is not None), key)
        if cert is not None:
            self.counts["equilibria.certificate_steps"] += cert.target_time
            with self.tr.span("check.certificate"):
                self.check("decide.certificate_valid", verify_certificate(net, cert), key)
            self.repeatable("decide.repeatable", f"decide:{key}", cert.to_json_dict())

    def _cohesion(self, key: str) -> None:
        net = self.nets[key]
        with self.tr.span("equilibria.classify"):
            report = classify(net)
        with self.tr.span("cohesion.enumerate"):
            sets = enumerate_maximal_cohesive_sets(net)
        self.counts["cohesion.subsets_tested"] += (1 << net.n) - 1
        self.counts["cohesion.maximal_sets"] += len(sets)
        full = frozenset(range(net.n))
        witness = report.dissensus_witness
        self.check(
            "classify.agrees_with_enumeration",
            report.consensus_certain == (sets == [full]) and (witness is None or witness in sets),
        )
        with self.tr.span("check.cohesion"):
            self.check("cohesion.maximal", all(is_maximal_cohesive(net, s) for s in sets), key)

    def _equilibria(self, key: str) -> None:
        net = self.nets[key]
        with self.tr.span("equilibria.enumerate"):
            states = enumerate_equilibria(net, range(3))
        self.counts["equilibria.equilibria_found"] += len(states)
        consensus = {(v,) * net.n for v in range(3)}
        with self.tr.span("check.equilibria"):
            ok = consensus <= set(states) and all(is_equilibrium_structural(net, s) for s in states)
        self.check("equilibria.structural", ok, key)

    def _sequence(self, key: str) -> None:
        net = self.nets[key]
        x0 = GridUniform(201).draw(rng_for(self.seed, TAG_SEQUENCE), net.n)
        with self.tr.span("equilibria.sequence"):
            schedule, terminal = build_update_sequence(net, x0)
        self.counts["equilibria.sequence_len"] += len(schedule)
        with self.tr.span("check.sequence"):
            self.check("sequence.replay", run(net, x0, schedule).terminal == terminal, key)
        with self.tr.span("equilibria.structural"):
            structural = is_equilibrium_structural(net, terminal)
        with self.tr.span("check.structural"):
            self.check("sequence.equilibrium", structural and is_equilibrium(net, terminal), key)

    def _prime_analysis(self, key: str) -> None:
        net = self.nets[key]
        with self.tr.span("network.decisive_subgraph"):
            sub = decisive_subgraph(net)
        with self.tr.span("network.reachability"):
            reach = has_globally_reachable_node(sub)
        self.counts["network.decisive_edges"] += len(sub.edges)
        with self.tr.span("check.decisive"):
            self.check("decisive.matches_mitm", sub.edges == decisive_edges_mitm(net), key)
        self.repeatable("reachability.repeatable", f"reach:{key}", reach)

    def cli_commands(self) -> list:
        return [
            ("reduce", ["reduce", "--instance", "sat-large.nae", "--solve", "--cert-out",
                        "cert-reduce.json"], 0, self._same_reduction),
            ("reduce", ["reduce", "--instance", "unsat.nae", "--solve"], 4,
             lambda r: r["satisfiable"] is False and r["certificate"] is None),
            ("decide", ["decide", "--network", "sat0.json", "--bound", 99, "--cert-out",
                        "cert-decide.json"], 0, self._same_decision),
            ("verify-cert", ["verify-cert", "--network", "sat-large.json", "--cert",
                             "cert-reduce.json"], 0, lambda r: r["valid"] is True),
            # A one-zero start on an unsatisfiable gadget never reaches all-zero.
            ("verify-cert", ["verify-cert", "--network", "unsat.json", "--cert",
                             "cert-reduce.json"], 5, lambda r: r["valid"] is False),
            ("verify-cert", ["verify-cert", "--network", "sat0.json", "--cert",
                             "cert-decide.json"], 0, lambda r: r["valid"] is True),
        ]

    def _same_reduction(self, result) -> bool:
        svc, assignment, cert = self.reference["reduce:sat-large"]
        return (
            result["satisfiable"] is True
            and result["assignment"] == list(assignment)
            and result["certificate"] == _json_roundtrip(cert.to_json_dict())
            and result["network"] == _json_roundtrip(svc_to_json_dict(svc))
        )

    def _same_decision(self, result) -> bool:
        return result["reachable"] is True and result["certificate"] == _json_roundtrip(
            self.reference["decide:sat0"]
        )


WORKLOADS = {cls.name: cls for cls in (Lattice10k, DenseEnsemble, Search)}
