"""Run the benchmark once per seed and summarise the spread of each metric.

    python3 perfbench/spread.py --workload NAME --seeds 1-10 [--seconds S] [--trace 0|1] [--out FILE]

For each metric it prints the median, the quartiles as
``statistics.quantiles(values, n=4)`` gives them, and the distance between
the quartiles as a share of the median.  With --out the summary is merged
into FILE under the workload's name (perfbench/baseline.json is made so).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def summarise(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {
        "median": q2,
        "q1": q1,
        "q3": q3,
        "iqr_share": (q3 - q1) / q2 if q2 else None,
        "values": values,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=None, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    series: dict[str, list] = {}
    units: dict[str, str] = {}
    walls = []
    failed = 0
    environment = None
    for seed in parse_seeds(args.seeds):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(args.trace)]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, check=True)
        walls.append(time.perf_counter() - t0)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        failed += result["failed"]
        report = HERE.parent / ".perfbench_out" / f"{args.workload}-seed{seed}-trace{args.trace}.json"
        environment = json.loads(report.read_text())["environment"]
        for name, metric in result["metrics"].items():
            series.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
        print(f"seed {seed}: {walls[-1]:.1f} s wall, correct={result['correct']}", file=sys.stderr)

    summary = {
        "seconds": seconds,
        "trace": args.trace,
        "environment": environment,
        "failed_checks": failed,
        "wall_s": summarise(walls),
        "metrics": {name: dict(summarise(v), unit=units[name]) for name, v in series.items()},
    }
    for name, s in summary["metrics"].items():
        share = "n/a" if s["iqr_share"] is None else f"{s['iqr_share']:.3f}"
        print(f"{name:32s} median {s['median']:.6g} {s['unit']:6s} iqr/median {share}")
    print(f"{'wall':32s} median {summary['wall_s']['median']:.1f} s")
    if args.out:
        out = Path(args.out)
        merged = json.loads(out.read_text()) if out.exists() else {}
        merged[args.workload] = summary
        out.write_text(json.dumps(merged, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
