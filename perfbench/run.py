"""Layered benchmark of median-consensus.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Inputs are generated from --seed
and written under .perfbench_out/, where a JSON report of the run (the
environment, the inputs with their sha256, every metric with its sample
counts, every failed check and, when traced, the spans) is kept.  The last
line of standard output is the result: the end-to-end metrics of
BENCHMARK.json with --trace 0, scaled to a reference host speed measured
during the run (see HOST_SHARE), and its per-layer metrics with --trace 1.

--trace 1 makes a fixed pass of the workload three times: to warm up,
untraced, and with `_engine.update_value` counted.  Per-layer numbers come
from the traced pass; the traced minus the untraced pass is the tracing
overhead.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import sys
import tempfile
import time
from pathlib import Path
from statistics import fmean, median

from harness import ROOT, SRC, THREADS_ENV_VAR

OUT_DIR = ROOT / ".perfbench_out"

# Host speed.  The host's speed drifts by tens of percent from minute to
# minute, and by a factor of two over an hour, for any Python code alike.  So a timed
# run interleaves harness.reference_work, which uses no code of the program,
# with the program's units, and reports every end-to-end time as the
# reference host would read it: divided by the run's slowdown, the mean time
# of the reference over REFERENCE_S (about its mean on a busy 2-vCPU Xeon
# VM).  Rates are multiplied by it.  The report keeps the raw values.
HOST_SHARE = 0.04
HOST_MIN_UNITS = 50
REFERENCE_S = 0.005
# Power of the slowdown each end-to-end metric is multiplied by.  The run
# tail is divided instead by the reference's time at the tail's percentile
# over REFERENCE_S: the tail sits within the host's slow spells, whose
# length need not follow the mean.
HOST_SCALING = {
    "setup_s": -1,
    "runs_per_s": 1,
    "replicas_per_s.w1": 1,
    "replicas_per_s.w2": 1,
    "verdict_s": -1,
    "cli_s": -1,
}

# Per-layer metric -> span whose total time it is.
SPAN_TOTALS = {
    "network.load_s": "network.load",
    "network.integer_rows_s": "network.integer_rows",
    "network.decisive_subgraph_s": "network.decisive_subgraph",
    "network.reachability_s": "network.reachability",
    "cohesion.enumerate_s": "cohesion.enumerate",
    "equilibria.decide_s.unsat": "equilibria.decide.unsat",
    "equilibria.decide_s.sat": "equilibria.decide.sat",
    "equilibria.decide_s.nocons": "equilibria.decide.nocons",
    "equilibria.classify_s": "equilibria.classify",
    "equilibria.enumerate_s": "equilibria.enumerate",
    "equilibria.sequence_s": "equilibria.sequence",
    "equilibria.structural_s": "equilibria.structural",
    "hardness.build_s": "hardness.build",
    "hardness.brute_force_s": "hardness.brute_force",
    "hardness.certificate_s": "hardness.certificate",
    "cli.startup_s": "cli.startup",
    "cli.simulate_s": "cli.simulate",
    "cli.analyze_s": "cli.analyze",
    "cli.ensemble_s": "cli.ensemble",
    "cli.reduce_s": "cli.reduce",
    "cli.decide_s": "cli.decide",
    "cli.verify-cert_s": "cli.verify-cert",
}
COUNTS = (
    "network.edges",
    "network.file_bytes",
    "network.decisive_edges",
    "dynamics.ticks",
    "dynamics.changes",
    "cohesion.subsets_tested",
    "cohesion.maximal_sets",
    "equilibria.certificate_steps",
    "equilibria.equilibria_found",
    "equilibria.sequence_len",
    "cli.output_bytes",
)


def interleave(phases: dict, seconds: float) -> dict[str, list]:
    """Run the phases' units interleaved.

    ``phases`` maps a name to ``(unit, share, at_least, at_most)``.  A phase
    is given ``share * seconds`` of time.  One unit of each phase runs first,
    in order, because later phases check their answers against earlier ones.
    After that the next unit is always the phase that has used the least of
    its share, so that every metric samples the whole run and not one stretch
    of it: the machine's speed drifts by tens of percent within seconds.  A
    phase that already has ``at_least`` results starts no unit that would, at
    its mean duration, take it past its time or the run past ``seconds``; the
    run ends when no phase may start one.  A phase whose count is fixed runs
    exactly that many units, whatever its share, and on a slow host leaves
    the others less time.
    """
    results = {name: [] for name in phases}
    spent = dict.fromkeys(phases, 0.0)
    start = time.perf_counter()

    def step(name):
        unit = phases[name][0]
        t0 = time.perf_counter()
        results[name].append(unit(len(results[name])))
        spent[name] += time.perf_counter() - t0

    def mean(name):
        return spent[name] / len(results[name])

    for name in phases:
        step(name)
    while True:
        # the time still owed to phases short of their fewest units
        owed = sum(max(0, least - len(results[n])) * mean(n) for n, (*_, least, _) in phases.items())
        elapsed = time.perf_counter() - start
        candidates = [
            n
            for n, (_, share, least, most) in phases.items()
            if len(results[n]) < least
            or (
                len(results[n]) < most
                and spent[n] + mean(n) <= share * seconds
                and elapsed + owed + mean(n) <= seconds
            )
        ]
        if not candidates:
            return results
        step(min(candidates, key=lambda n: spent[n] / phases[n][1]))


def reference_unit(_k=0) -> float:
    from harness import reference_work

    t0 = time.perf_counter()
    reference_work()
    return time.perf_counter() - t0


def timed_run(wl, seconds: int) -> tuple[dict, dict]:
    from harness import tail_percentile, value_at_percentile

    units = {
        "setup": wl.setup,
        "runs": wl.seeded_run,
        "ensembles": wl.ensemble_unit,
        "verdict": wl.verdict,
        "cli": wl.cli_command,
        "host": reference_unit,
    }
    items = dict(wl.items(), host=1)
    shares = dict(wl.shares, host=HOST_SHARE)
    min_rounds = dict(wl.min_rounds, host=HOST_MIN_UNITS)
    results = interleave(
        {
            name: (
                unit,
                shares[name],
                min_rounds[name] * items[name],
                wl.max_rounds.get(name, math.inf) * items[name],
            )
            for name, unit in units.items()
        },
        seconds,
    )
    raw = end_to_end(wl, items, results)
    raw["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    slowdown = fmean(results["host"]) / REFERENCE_S
    metrics = {name: value * slowdown ** HOST_SCALING.get(name, 0) for name, value in raw.items()}
    _, percentile, samples = tail_percentile(results["runs"])
    tail_slowdown = value_at_percentile(results["host"], percentile) / REFERENCE_S
    metrics["run_tail_s"] = raw["run_tail_s"] / tail_slowdown
    detail = {
        "raw_metrics": raw,
        "host_slowdown": slowdown,
        "host_tail_slowdown": tail_slowdown,
        "run_p50_s": median(results["runs"]),
        "run_tail_percentile": percentile,
        "samples": {
            "setup": len(results["setup"]),
            "runs": samples,
            "ensemble_units": len(results["ensembles"]),
            "verdict_units": len(results["verdict"]),
            "cli_commands": len(results["cli"]),
            "host_units": len(results["host"]),
        },
        "items": items,
    }
    return metrics, detail


def end_to_end(wl, items: dict, results: dict) -> dict:
    """The end-to-end times and rates, from the times of the units."""
    from harness import item_means, tail_percentile

    # A round of ensembles, verdict queries or CLI commands is timed as the
    # sum of its items' mean times.
    replicas = sum(r for _, r in wl.ensembles)
    ensemble_s = item_means(results["ensembles"], items["ensembles"])  # 1 worker, 2 workers, next distribution
    runs = results["runs"]
    return {
        "setup_s": median(results["setup"]),
        "runs_per_s": len(runs) / sum(runs),
        "run_tail_s": tail_percentile(runs)[0],
        "replicas_per_s.w1": replicas / sum(ensemble_s[0::2]),
        "replicas_per_s.w2": replicas / sum(ensemble_s[1::2]),
        "verdict_s": sum(item_means(results["verdict"], items["verdict"])),
        "cli_s": sum(item_means(results["cli"], items["cli"])),
    }


def traced_run(wl) -> tuple[dict, dict, object]:
    import median_consensus._engine as engine
    from harness import EngineCounter, Tracer

    # The first pass in a process runs cold (memory first touched, lazy
    # imports) and would make the overhead read low, so it only warms up.
    wl.begin_pass(Tracer())
    wl.traced_pass()

    untraced = Tracer()
    wl.begin_pass(untraced)
    wl.traced_pass()

    traced = Tracer()
    wl.begin_pass(traced)
    with EngineCounter(engine, traced) as counter:
        wl.traced_pass()

    metrics = {name: traced.total(span) for name, span in SPAN_TOTALS.items()}
    metrics.update({name: wl.counts[name] for name in COUNTS})
    run_s = traced.total("dynamics.run")
    metrics.update(
        {
            "engine.update_value.calls": counter.calls,
            "engine.update_value_s": counter.seconds,
            "engine.useful_ratio": counter.useful_ratio,
            "dynamics.ticks_per_s": wl.counts["dynamics.ticks"] / run_s,
            "dynamics.run_self_s": traced.self_total("dynamics.run"),
            # replicas/s at 2 workers over twice that at 1, from the untraced pass
            "dynamics.scaling_eff": untraced.total("dynamics.ensemble.w1")
            / (2 * untraced.total("dynamics.ensemble.w2")),
            "trace.overhead_s": traced.top_level_total("op.cli") - untraced.top_level_total("op.cli"),
        }
    )
    detail = {
        "untraced_in_process_s": untraced.top_level_total("op.cli"),
        "traced_in_process_s": traced.top_level_total("op.cli"),
        "engine_useful_calls": counter.useful,
    }
    return metrics, detail, traced


def _declared(kind: str) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "median_consensus" / "__init__.py").is_file():
        print(f"error: no median_consensus sources under {SRC}", file=sys.stderr)
        return 2
    if os.environ.get(THREADS_ENV_VAR) is not None:
        print(f"error: unset {THREADS_ENV_VAR}; it caps ensemble workers", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds < 1:
        print("error: need --seed >= 0 and --seconds >= 1", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import inputs
    from harness import Checks, environment, failed_frac
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    declared = _declared("per_layer" if args.trace else "end_to_end")

    OUT_DIR.mkdir(exist_ok=True)
    checks = Checks()
    with tempfile.TemporaryDirectory(dir=OUT_DIR, prefix=f"inputs-{args.workload}-") as tmp:
        inp = inputs.build(args.workload, args.seed, Path(tmp))
        wl = WORKLOADS[args.workload](args.seed, inp, checks)
        if args.trace:
            metrics, detail, tracer = traced_run(wl)
        else:
            metrics, detail = timed_run(wl, args.seconds)
            tracer = None

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    report = {
        "workload": args.workload,
        "why": wl.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "environment": environment(),
        "inputs": inp.records,
        "metrics": metrics,
        "detail": detail,
        "checks": {
            "attempted": checks.attempted,
            "failed": checks.failed,
            "failed_frac": failed_frac(checks.failed, checks.attempted),
            "failures": checks.failures,
        },
    }
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(report, indent=2) + "\n")
    if tracer is not None:
        (OUT_DIR / f"{stem}-spans.json").write_text(json.dumps(tracer.to_json()) + "\n")
    print(json.dumps({k: report[k] for k in ("environment", "inputs", "detail")}), file=sys.stderr)

    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in declared.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
