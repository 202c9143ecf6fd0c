"""Seeded input generation.  Every input is a file written here; the program
under test only ever receives these files and plain values.

The same seed always yields byte-identical files.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

import numpy as np

from median_consensus import (
    InfluenceNetwork,
    brute_force_nae3sat,
    build_svc_graph,
    fixtures,
    save_network,
    svc_to_json_dict,
)
from median_consensus.hardness import Nae3SatInstance

from harness import file_sha256

# Stream tags, so that each generated artifact draws from its own generator.
TAG_UNSAT, TAG_SAT_SMALL, TAG_SAT_LARGE, TAG_PRIME, TAG_SEQUENCE = 1, 2, 3, 4, 5


def rng_for(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng([seed, tag])


def nae3sat_instance(rng, num_vars: int, num_clauses: int, satisfiable: bool) -> Nae3SatInstance:
    """Rejection sampling at a fixed size: clauses of three variable indices
    drawn with replacement (never one index three times), every variable
    used, kept when its satisfiability is the one asked for."""
    while True:
        clauses = []
        while len(clauses) < num_clauses:
            clause = tuple(sorted(int(v) + 1 for v in rng.integers(0, num_vars, size=3)))
            if clause[0] != clause[2]:
                clauses.append(clause)
        if len({k for c in clauses for k in c}) < num_vars:
            continue
        inst = Nae3SatInstance(num_vars=num_vars, clauses=tuple(clauses))
        if (brute_force_nae3sat(inst) is not None) == satisfiable:
            return inst


def instance_text(inst: Nae3SatInstance) -> str:
    lines = [f"p nae3sat {inst.num_vars} {len(inst.clauses)}"]
    lines += [" ".join(map(str, c)) for c in inst.clauses]
    return "\n".join(lines) + "\n"


def _is_prime(k: int) -> bool:
    if k < 2:
        return False
    d = 2
    while d * d <= k:
        if k % d == 0:
            return False
        d += 1
    return True


def prime_denominator_network(rng, n: int = 24, degree: int = 16) -> InfluenceNetwork:
    """Rows of ``degree`` random neighbors whose weights share one prime
    denominator above 2^22, so decisiveness takes the subset-enumeration path."""
    p = int(rng.integers(1 << 22, 1 << 23))
    while not _is_prime(p):
        p += 1
    edges = []
    for i in range(n):
        nbrs = sorted(int(j) for j in rng.choice(n, size=degree, replace=False))
        cut_set: set[int] = set()
        while len(cut_set) < degree - 1:
            cut_set.add(int(rng.integers(1, p)))
        cuts = sorted(cut_set)
        parts = [b - a for a, b in zip([0] + cuts, cuts + [p])]
        edges.extend((i, j, Fraction(w, p)) for j, w in zip(nbrs, parts))
    return InfluenceNetwork.from_edges(n, edges)


class Inputs:
    """The files of one workload, with their description for the report."""

    def __init__(self, directory: Path):
        self.dir = directory
        self.networks: dict[str, Path] = {}
        self.instances: dict[str, tuple[Path, Nae3SatInstance]] = {}
        self.records: list[dict] = []

    def add_network(self, key: str, net: InfluenceNetwork, suffix: str) -> None:
        path = self.dir / f"{key}{suffix}"
        save_network(net, path)
        self.networks[key] = path
        self._record(key, path, net.n, net.edge_count)

    def add_gadget(self, key: str, inst: Nae3SatInstance) -> None:
        ipath = self.dir / f"{key}.nae"
        ipath.write_text(instance_text(inst))
        self.instances[key] = (ipath, inst)
        self._record(f"{key}.instance", ipath, inst.num_vars, len(inst.clauses))
        svc = build_svc_graph(inst)
        npath = self.dir / f"{key}.json"
        npath.write_text(json.dumps(svc_to_json_dict(svc), indent=2, sort_keys=True) + "\n")
        self.networks[key] = npath
        self._record(key, npath, svc.network.n, svc.network.edge_count)

    def _record(self, key: str, path: Path, nodes: int, edges: int) -> None:
        self.records.append(
            {
                "name": key,
                "file": path.name,
                "nodes": nodes,
                "edges": edges,
                "bytes": path.stat().st_size,
                "sha256": file_sha256(path),
            }
        )

    @property
    def network_bytes(self) -> int:
        return sum(p.stat().st_size for p in self.networks.values())


def build(workload: str, seed: int, directory: Path) -> Inputs:
    inputs = Inputs(directory)
    if workload == "lattice-10k":
        inputs.add_network("lattice", fixtures.lattice(100, 100), ".json")
    elif workload == "dense-ensemble":
        inputs.add_network("k60", fixtures.complete_uniform(60), ".csv")
    elif workload == "search":
        inputs.add_gadget("unsat", nae3sat_instance(rng_for(seed, TAG_UNSAT), 6, 8, False))
        rng = rng_for(seed, TAG_SAT_SMALL)
        for k in range(3):
            inputs.add_gadget(f"sat{k}", nae3sat_instance(rng, 5, 6, True))
        inputs.add_gadget("sat-large", nae3sat_instance(rng_for(seed, TAG_SAT_LARGE), 6, 8, True))
        inputs.add_network("cliques", fixtures.disjoint_cliques(6, 2), ".json")
        inputs.add_network("lattice4", fixtures.lattice(4, 4), ".json")
        inputs.add_network("lattice3", fixtures.lattice(3, 3), ".json")
        inputs.add_network("lattice30", fixtures.lattice(30, 30), ".json")
        inputs.add_network("prime", prime_denominator_network(rng_for(seed, TAG_PRIME)), ".json")
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return inputs
