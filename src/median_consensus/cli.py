"""Command-line front end.

Subcommands: simulate, ensemble, analyze, classify, equilibria, sequence,
decide, reduce, verify-cert.  Every JSON report embeds the tool version and
a full echo of the invocation, and identical invocations produce
byte-identical reports.  Files are written atomically (temp file + rename).

Exit codes: 0 success, 1 input error, 3 budget exhausted before convergence,
4 unsatisfiable instance when a certificate was requested, 5 certificate
verification failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import __version__
from ._io import (
    atomic_write_text, check_int, is_json_int, opinion_from_json, opinion_to_json, read_json
)
from .cohesion import DEFAULT_ENUMERATION_BOUND, enumerate_maximal_cohesive_sets
from .dynamics import (
    GridUniform,
    LabelUniform,
    RandomSchedule,
    Trajectory,
    _draw_initial,
    _rng,
    default_budget,
    ensemble,
    run,
)
from .equilibria import (
    ConsensusCertificate,
    DEFAULT_DECISION_BOUND,
    DEFAULT_STATE_BUDGET,
    build_update_sequence,
    classify,
    decide_consensus_reachable,
    enumerate_equilibria,
    verify_certificate,
)
from .hardness import (
    brute_force_nae3sat,
    build_svc_graph,
    certificate_from_assignment,
    parse_instance,
    svc_to_json_dict,
)
from .network import (
    decisive_subgraph,
    has_globally_reachable_node,
    has_half_ties,
    load_network,
    network_to_dot,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_BUDGET = 3
EXIT_UNSAT = 4
EXIT_VERIFY = 5


class _CliParser(argparse.ArgumentParser):
    # argparse exits with 2 on bad usage; fold that into the input-error code
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(_fail(f"{self.prog}: {message}"))


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_INPUT


def _trajectory_json(traj: Trajectory) -> dict:
    return {
        "initial": [opinion_to_json(v) for v in traj.initial],
        "steps": [[t, i + 1, opinion_to_json(a), opinion_to_json(b)] for t, i, a, b in traj.steps],
        "terminal": [opinion_to_json(v) for v in traj.terminal],
        "converged": traj.converged,
        "steps_used": traj.steps_used,
    }


def _trajectory_csv(traj: Trajectory) -> str:
    lines = ["time,node,old,new"]
    for t, i, a, b in traj.steps:
        lines.append(f"{t},{i + 1},{opinion_to_json(a)},{opinion_to_json(b)}")
    return "\n".join(lines) + "\n"


def _emit(args, text: str) -> None:
    if getattr(args, "out", None):
        atomic_write_text(Path(args.out), text)
    else:
        sys.stdout.write(text)


def _report(args, result: dict) -> None:
    envelope = {
        "tool": "median-consensus",
        "version": __version__,
        "command": args.command,
        "config": {
            k: (str(v) if isinstance(v, Path) else v)
            for k, v in sorted(vars(args).items())
            if k != "func"
        },
        "result": result,
    }
    _emit(args, json.dumps(envelope, indent=2, sort_keys=True) + "\n")


def _load_net(args):
    return load_network(args.network, fmt=args.format)


def parse_initial_spec(spec: str):
    """Parse an --initial spec.

    Forms: ``labels:K`` (iid uniform over K labels), ``grid:P`` (iid uniform
    over a P-point rational grid on [-1,1]), ``file:PATH`` (JSON list of
    opinions), or an inline comma list such as ``0,1,1/2``.
    """
    if spec.startswith("labels:"):
        return LabelUniform(k=int(spec.split(":", 1)[1]))
    if spec.startswith("grid:"):
        return GridUniform(points=int(spec.split(":", 1)[1]))
    if spec.startswith("file:"):
        payload = read_json(spec.split(":", 1)[1])
        if not isinstance(payload, list):
            raise ValueError("initial-state file must hold a JSON list of opinions")
        return tuple(opinion_from_json(v) for v in payload)
    if "," in spec:
        return tuple(opinion_from_json(tok.strip()) for tok in spec.split(","))
    raise ValueError(
        f"cannot parse initial spec {spec!r}; use labels:K, grid:P, file:PATH, "
        "or an inline comma list"
    )


def _resolve_initial(source, n: int, seed):
    rng = None
    if hasattr(source, "draw"):
        if seed is None:
            raise ValueError("a random initial distribution needs --seed")
        check_int("seed", seed, 0)
        rng = _rng([seed, 0])
    return _draw_initial(source, rng, n)


def _read_schedule(path) -> tuple[int, ...]:
    payload = read_json(path)
    if isinstance(payload, dict):
        payload = payload.get("sequence")
    if not isinstance(payload, list):
        raise ValueError("schedule file must hold a JSON list or {'sequence': [...]}")
    if not all(is_json_int(i) for i in payload):
        raise ValueError("schedule entries must be integer node numbers")
    return tuple(i - 1 for i in payload)


# -- subcommands --------------------------------------------------------------


def cmd_simulate(args) -> int:
    net = _load_net(args)
    source = parse_initial_spec(args.initial)
    x0 = _resolve_initial(source, net.n, args.seed)
    if args.schedule:
        traj = run(net, x0, _read_schedule(args.schedule))
    else:
        if args.seed is None:
            raise ValueError("simulate needs --seed or --schedule")
        traj = run(net, x0, RandomSchedule(seed=args.seed, budget=args.budget))
    if args.emit == "csv":
        _emit(args, _trajectory_csv(traj))
    else:
        _report(args, _trajectory_json(traj))
    return EXIT_OK if traj.converged else EXIT_BUDGET


def cmd_ensemble(args) -> int:
    net = _load_net(args)
    report = ensemble(
        net,
        parse_initial_spec(args.initial),
        replicas=args.replicas,
        seed=args.seed,
        budget=args.budget,
        workers=args.workers,
    )
    _report(args, report.to_json_dict())
    return EXIT_OK


def cmd_analyze(args) -> int:
    net = _load_net(args)
    if args.emit == "dot":
        _emit(args, network_to_dot(net))
        return EXIT_OK
    sub = decisive_subgraph(net)
    exists, witness = has_globally_reachable_node(sub)
    result = {
        "n": net.n,
        "edge_count": net.edge_count,
        "decisive_edges": sorted([i + 1, j + 1] for i, j in sub.edges),
        "indecisive_edges": sorted([i + 1, j + 1] for i, j in sub.indecisive_edges),
        "half_ties": has_half_ties(net),
        "globally_reachable": {
            "exists": exists,
            "witness": None if witness is None else witness + 1,
        },
    }
    if net.n <= args.bound:
        sets = enumerate_maximal_cohesive_sets(net, bound=args.bound)
        result["maximal_cohesive_sets"] = [sorted(i + 1 for i in s) for s in sets]
        result["nontrivial_maximal_cohesive"] = any(len(s) != net.n for s in sets)
    else:
        result["maximal_cohesive_sets"] = None
        result["nontrivial_maximal_cohesive"] = None
        result["note"] = f"n={net.n} exceeds --bound {args.bound}; cohesion fields undecided"
    _report(args, result)
    return EXIT_OK


def cmd_classify(args) -> int:
    net = _load_net(args)
    report = classify(
        net,
        cohesion_bound=args.bound,
        mc_replicas=args.mc_replicas,
        seed=args.seed if args.seed is not None else 0,
        budget=args.budget,
    )
    _report(args, report.to_json_dict())
    return EXIT_OK


def cmd_equilibria(args) -> int:
    net = _load_net(args)
    states = enumerate_equilibria(net, range(args.labels), max_states=args.max_states)
    result = {
        "labels": args.labels,
        "count": len(states),
        "equilibria": [[opinion_to_json(v) for v in s] for s in states],
    }
    _report(args, result)
    return EXIT_OK


def cmd_sequence(args) -> int:
    net = _load_net(args)
    source = parse_initial_spec(args.initial)
    x0 = _resolve_initial(source, net.n, args.seed)
    schedule, terminal = build_update_sequence(net, x0)
    if args.schedule_out:
        atomic_write_text(
            Path(args.schedule_out),
            json.dumps({"sequence": [i + 1 for i in schedule]}, sort_keys=True) + "\n",
        )
    result = {
        "initial": [opinion_to_json(v) for v in x0],
        "schedule": [i + 1 for i in schedule],
        "length": len(schedule),
        "terminal": [opinion_to_json(v) for v in terminal],
    }
    _report(args, result)
    return EXIT_OK


def cmd_decide(args) -> int:
    net = _load_net(args)
    reachable, cert = decide_consensus_reachable(net, bound=args.bound)
    if cert is not None and args.cert_out:
        atomic_write_text(
            Path(args.cert_out), json.dumps(cert.to_json_dict(), sort_keys=True) + "\n"
        )
    result = {
        "reachable": reachable,
        "certificate": None if cert is None else cert.to_json_dict(),
    }
    _report(args, result)
    return EXIT_OK


def cmd_reduce(args) -> int:
    inst = parse_instance(args.instance)
    svc = build_svc_graph(inst)
    if args.emit == "dot":
        _emit(args, network_to_dot(svc.network))
        return EXIT_OK
    result = {
        "instance": {"vars": inst.num_vars, "clauses": [list(c) for c in inst.clauses]},
        "network": svc_to_json_dict(svc),
        "satisfiable": None,
        "certificate": None,
    }
    exit_code = EXIT_OK
    if args.solve:
        assignment = brute_force_nae3sat(inst)
        result["satisfiable"] = assignment is not None
        if assignment is None:
            exit_code = EXIT_UNSAT
        else:
            cert = certificate_from_assignment(svc, assignment)
            result["assignment"] = list(assignment)
            result["certificate"] = cert.to_json_dict()
            if args.cert_out:
                atomic_write_text(
                    Path(args.cert_out), json.dumps(cert.to_json_dict(), sort_keys=True) + "\n"
                )
    _report(args, result)
    return exit_code


def cmd_verify_cert(args) -> int:
    net = _load_net(args)
    payload = read_json(args.cert)
    try:
        cert = ConsensusCertificate.from_json_dict(payload)
    except ValueError as exc:
        # a self-inconsistent certificate is still an answerable question:
        # it is not valid for any network
        _report(args, {"valid": False, "target_time": None, "reason": str(exc)})
        return EXIT_VERIFY
    valid = verify_certificate(net, cert)
    _report(args, {"valid": valid, "target_time": cert.target_time})
    return EXIT_OK if valid else EXIT_VERIFY


# -- wiring --------------------------------------------------------------------


def _add_network_args(p):
    p.add_argument("--network", required=True, help="network file (dense CSV or edge-list JSON)")
    p.add_argument("--format", choices=["csv", "json"], default=None, help="override format inference")


def build_parser() -> argparse.ArgumentParser:
    parser = _CliParser(prog="median-consensus", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"median-consensus {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run the dynamics once and export the trajectory")
    _add_network_args(p)
    p.add_argument("--initial", required=True, help="labels:K | grid:P | file:PATH | inline list")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--budget", type=int, default=None, help="tick budget (default 200 n ln(n+1))")
    p.add_argument("--schedule", default=None, help="replay a deterministic schedule file")
    p.add_argument("--out", default=None)
    p.add_argument("--emit", choices=["json", "csv"], default="json")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("ensemble", help="run independent seeded replicas and aggregate")
    _add_network_args(p)
    p.add_argument("--initial", required=True)
    p.add_argument("--replicas", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--workers", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_ensemble)

    p = sub.add_parser("analyze", help="decisive links, reachability, cohesive structure")
    _add_network_args(p)
    p.add_argument("--bound", type=int, default=DEFAULT_ENUMERATION_BOUND)
    p.add_argument("--out", default=None)
    p.add_argument("--emit", choices=["json", "dot"], default="json")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("classify", help="consensus-certain / dissensus-certain verdicts")
    _add_network_args(p)
    p.add_argument("--bound", type=int, default=DEFAULT_ENUMERATION_BOUND)
    p.add_argument("--mc-replicas", type=int, default=0, dest="mc_replicas")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("equilibria", help="enumerate equilibria over a label domain")
    _add_network_args(p)
    p.add_argument("--labels", type=int, default=2, help="number of opinion labels")
    p.add_argument("--max-states", type=int, default=DEFAULT_STATE_BUDGET, dest="max_states")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_equilibria)

    p = sub.add_parser("sequence", help="build a deterministic equilibrium-reaching schedule")
    _add_network_args(p)
    p.add_argument("--initial", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--schedule-out", default=None, dest="schedule_out")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_sequence)

    p = sub.add_parser("decide", help="exhaustive consensus-reachability decision")
    _add_network_args(p)
    p.add_argument("--bound", type=int, default=DEFAULT_DECISION_BOUND)
    p.add_argument("--cert-out", default=None, dest="cert_out")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_decide)

    p = sub.add_parser("reduce", help="build the gadget network for an NAE3SAT instance")
    p.add_argument("--instance", required=True, help="instance file (p nae3sat header)")
    p.add_argument("--solve", action="store_true", help="also decide satisfiability and emit a certificate")
    p.add_argument("--cert-out", default=None, dest="cert_out")
    p.add_argument("--out", default=None)
    p.add_argument("--emit", choices=["json", "dot"], default="json")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("verify-cert", help="replay a consensus certificate against a network")
    _add_network_args(p)
    p.add_argument("--cert", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_verify_cert)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse raises SystemExit(0) for --help/--version
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        return _fail(str(exc))


if __name__ == "__main__":
    sys.exit(main())
