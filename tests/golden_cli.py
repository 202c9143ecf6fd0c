"""Golden CLI captures: run a fixed set of invocations and print digests.

Every capture runs ``median_consensus.cli.main`` in-process, inside a fresh
working directory that holds the input networks under relative names, so
the ``config`` echo in each envelope does not depend on where the script
runs.  A capture records the exit code and the sha256 of stdout.  For each
command group the digest is the sha256 of the sorted lines
``key:exit:sha256(stdout)``, and the total digest is the same over every
capture.  Two source trees print equal digests exactly when every capture
is byte-identical.  ``export`` captures hold the text that ``save_network``
writes for each input network.

Usage, from the repository root::

    PYTHONPATH=src python tests/golden_cli.py              # digests
    PYTHONPATH=src python tests/golden_cli.py --keys       # the capture keys
    PYTHONPATH=src python tests/golden_cli.py --save DIR   # also keep stdouts

Run it once per source tree (``PYTHONPATH`` pointing at that tree's
``src``) and compare the output.  pytest does not collect this file;
``test_golden_cli.py`` pins every group's digest and the total through
``digests()``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import random
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from conftest import random_coprime_network, random_network  # noqa: E402
from median_consensus import cli, fixtures  # noqa: E402
from median_consensus.hardness import build_svc_graph, parse_instance_text  # noqa: E402
from median_consensus.network import save_network  # noqa: E402

SEEDS = (1, 2, 3)
INSTANCES = {
    "sat": "p nae3sat 2 1\n1 1 2\n",
    "unsat": "p nae3sat 3 3\n1 1 2\n2 2 3\n1 1 3\n",
}


def networks() -> dict:
    """Input networks by file name; ``.csv`` names are saved as dense CSV."""
    nets = {
        "lattice-3x4.json": fixtures.lattice(3, 4),
        "lattice-20x20.json": fixtures.lattice(20, 20),
        "complete-6.csv": fixtures.complete_uniform(6),
        "complete-60.csv": fixtures.complete_uniform(60),
        "complete-4-loops.json": fixtures.complete_uniform(4, self_loops=True),
        "bridged-3.json": fixtures.bridged_cliques(clique_size=3, cross="1/3"),
        "disjoint-3x2.csv": fixtures.disjoint_cliques(clique_size=3, blocks=2),
    }
    for k in range(3):
        nets[f"random-{k}.json"] = random_network(random.Random(100 + k), 5 + k)
        nets[f"coprime-{k}.csv"] = random_coprime_network(random.Random(200 + k), 4 + k)
    for name, text in INSTANCES.items():
        nets[f"gadget-{name}.json"] = build_svc_graph(parse_instance_text(text)).network
    return nets


def captures(nets: dict) -> list[tuple[str, str, list[str]]]:
    """``(key, group, argv)`` in run order; later captures read earlier files."""
    out = []

    def add(group, *argv):
        out.append((" ".join(argv), group, list(argv)))

    for name in INSTANCES:
        inst = f"{name}.nae"
        add("reduce", "reduce", "--instance", inst)
        add("reduce", "reduce", "--instance", inst, "--solve")
        add("reduce", "reduce", "--instance", inst, "--solve", "--cert-out", f"reduce-{name}.cert")
        add("reduce --emit dot", "reduce", "--instance", inst, "--emit", "dot")
    for name, net in nets.items():
        small = net.n <= 12
        add("analyze", "analyze", "--network", name)
        add("analyze --emit dot", "analyze", "--network", name, "--emit", "dot")
        add("classify", "classify", "--network", name)
        for s in SEEDS:
            add("classify", "classify", "--network", name, "--bound", "4",
                "--mc-replicas", "3", "--seed", str(s))
        for s in SEEDS:
            for spec in ("labels:3", "grid:201"):
                add("simulate", "simulate", "--network", name, "--initial", spec, "--seed", str(s))
            add("simulate --emit csv", "simulate", "--network", name, "--initial", "labels:3",
                "--seed", str(s), "--emit", "csv")
            add("simulate", "simulate", "--network", name, "--initial", "grid:201",
                "--seed", str(s), "--budget", "7")
            for workers in ("1", "2"):
                add(f"ensemble --workers {workers}", "ensemble", "--network", name,
                    "--initial", "labels:3", "--replicas", "6", "--seed", str(s),
                    "--workers", workers)
                add(f"ensemble --workers {workers}", "ensemble", "--network", name,
                    "--initial", "grid:201", "--replicas", "6", "--seed", str(s),
                    "--budget", "50", "--workers", workers)
            add("sequence", "sequence", "--network", name, "--initial", "grid:201",
                "--seed", str(s))
        add("sequence", "sequence", "--network", name, "--initial", "labels:3", "--seed", "1",
            "--schedule-out", f"{name}.schedule")
        add("simulate", "simulate", "--network", name, "--initial", "labels:3", "--seed", "1",
            "--schedule", f"{name}.schedule")
        if small:
            add("equilibria", "equilibria", "--network", name, "--labels", "2")
            add("decide", "decide", "--network", name, "--cert-out", f"{name}.cert")
            add("verify-cert", "verify-cert", "--network", name, "--cert", f"{name}.cert")
    for name in INSTANCES:
        add("verify-cert", "verify-cert", "--network", f"gadget-{name}.json",
            "--cert", "reduce-sat.cert")
    return out


def _run(argv) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, buf.getvalue()


def _digest(lines) -> str:
    return hashlib.sha256("\n".join(sorted(lines)).encode()).hexdigest()


def plan(nets: dict) -> list[tuple[str, str, list[str] | None]]:
    """Every capture in run order: the exports, then the CLI invocations."""
    return [(f"save {name}", "export", None) for name in nets] + captures(nets)


def digests(save: Path | None = None) -> dict[str, tuple[int, str]]:
    """Run every capture; ``{group: (count, digest)}`` plus a ``total`` entry.

    With ``save``, each capture's exit code and stdout also go to a file
    there.
    """
    nets = networks()
    lines = defaultdict(list)
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            for name, text in INSTANCES.items():
                Path(f"{name}.nae").write_text(text)
            for key, group, cmd in plan(nets):
                if cmd is None:
                    name = key.split(" ", 1)[1]
                    save_network(nets[name], name)
                    code, text = 0, Path(name).read_text()
                else:
                    code, text = _run(cmd)
                lines[group].append(f"{key}:{code}:{hashlib.sha256(text.encode()).hexdigest()}")
                if save:
                    (save / key.replace("/", "_").replace(" ", "_")).write_text(f"{code}\n{text}")
        finally:
            os.chdir(home)

    out = {group: (len(lines[group]), _digest(lines[group])) for group in sorted(lines)}
    everything = [line for group in lines.values() for line in group]
    out["total"] = (len(everything), _digest(everything))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--keys", action="store_true", help="print the capture keys and exit")
    parser.add_argument("--save", default=None, help="directory for every capture's stdout")
    args = parser.parse_args(argv)

    if args.keys:
        for key, group, _ in plan(networks()):
            print(f"{group}\t{key}")
        return 0
    save = Path(args.save).resolve() if args.save else None
    if save:
        save.mkdir(parents=True, exist_ok=True)
    for group, (count, digest) in digests(save).items():
        print(f"{group}\t{count}\t{digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
