"""Monotone NAE3SAT and its reduction to consensus reachability.

A monotone not-all-equal instance lists clauses of three positive variable
indices; an assignment in {-1, 1}^n satisfies a clause when its three values
are not all equal.  Each instance maps to a *sink-variable-clause* gadget
network: a sink node that listens only to itself, a pair of nodes per
variable, and a chain of clause nodes.  The gadget can steer some one-zero
ternary initial state to the all-zero consensus if and only if the instance
is satisfiable, which makes consensus reachability NP-hard to decide.

Satisfying assignments convert into explicit update-sequence certificates:
zero the clause chain in order, then zero each variable pair; the all-zero
state is reached at exactly ``2n + m`` ticks.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from ._io import check_int, is_json_int
from .equilibria import ConsensusCertificate, decide_consensus_reachable, verify_certificate
from .network import InfluenceNetwork, network_to_json_dict

__all__ = [
    "Nae3SatInstance",
    "SvcGraph",
    "parse_instance",
    "parse_instance_text",
    "brute_force_nae3sat",
    "build_svc_graph",
    "certificate_from_assignment",
    "reduction_roundtrip",
    "svc_to_json_dict",
]

DEFAULT_BRUTE_FORCE_BOUND = 20
DEFAULT_REDUCTION_DECISION_BOUND = 13  # gadget size for n <= 4 variables, m <= 4 clauses


@dataclass(frozen=True)
class Nae3SatInstance:
    """A monotone NAE3SAT instance over variables 1..num_vars.

    Clauses may repeat a variable; a clause repeating one variable three
    times is representable (and trivially unsatisfiable) but is rejected by
    the file parser and by the gadget construction, which require at most
    two equal indices per clause.  ``num_vars`` and every index must be
    integers; bools and floats are refused.
    """

    num_vars: int
    clauses: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        check_int("num_vars", self.num_vars)
        if self.num_vars < 1:
            raise ValueError("instance needs at least one variable")
        if not self.clauses:
            raise ValueError("instance needs at least one clause")
        used = set()
        for clause in self.clauses:
            if len(clause) != 3:
                raise ValueError(f"clause {clause!r} must have exactly three indices")
            for k in clause:
                if not is_json_int(k) or not 1 <= k <= self.num_vars:
                    raise ValueError(f"variable index {k!r} out of range 1..{self.num_vars}")
                used.add(k)
        if len(used) < self.num_vars:
            # The first gap is at most len(used) + 1, so num_vars is never ranged over.
            first = next(k for k in itertools.count(1) if k not in used)
            raise ValueError(
                f"variable {first} appears in no clause "
                f"({self.num_vars - len(used)} of {self.num_vars} unused)"
            )

    def triple_repeated_clauses(self) -> list[tuple[int, int, int]]:
        return [c for c in self.clauses if c[0] == c[1] == c[2]]


def parse_instance_text(text: str) -> Nae3SatInstance:
    """Parse the DIMACS-like format: ``p nae3sat n m`` then m clause lines.

    Lines starting with 'c' are comments.  Clauses repeating one variable
    three times are rejected here: the downstream gadget requires at most
    two equal indices per clause.
    """
    header = None
    clauses = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            if header is not None:
                raise ValueError(f"line {lineno}: duplicate header")
            parts = line.split()
            if len(parts) != 4 or parts[1] != "nae3sat":
                raise ValueError(f"line {lineno}: header must be 'p nae3sat <vars> <clauses>'")
            try:
                header = (int(parts[2]), int(parts[3]))
            except ValueError as exc:
                raise ValueError(f"line {lineno}: non-integer header counts") from exc
            continue
        if header is None:
            raise ValueError(f"line {lineno}: clause before 'p nae3sat' header")
        parts = line.split()
        if len(parts) != 3:
            raise ValueError(f"line {lineno}: clause must list exactly three indices")
        try:
            triple = tuple(int(p) for p in parts)
        except ValueError as exc:
            raise ValueError(f"line {lineno}: non-integer clause index") from exc
        if any(k < 1 for k in triple):
            raise ValueError(f"line {lineno}: clause indices must be positive")
        if triple[0] == triple[1] == triple[2]:
            raise ValueError(
                f"line {lineno}: clause repeats variable {triple[0]} three times; "
                "at most two equal indices are allowed"
            )
        clauses.append(triple)
    if header is None:
        raise ValueError("missing 'p nae3sat' header")
    n, m = header
    if len(clauses) != m:
        raise ValueError(f"header declares {m} clauses, found {len(clauses)}")
    return Nae3SatInstance(num_vars=n, clauses=tuple(clauses))


def parse_instance(path) -> Nae3SatInstance:
    return parse_instance_text(Path(path).read_text())


def brute_force_nae3sat(
    inst: Nae3SatInstance, *, bound: int = DEFAULT_BRUTE_FORCE_BOUND
) -> tuple[int, ...] | None:
    """First satisfying assignment in lexicographic order (-1 before 1),
    or None when unsatisfiable.  Refuses more than ``bound`` variables."""
    if inst.num_vars > bound:
        raise ValueError(f"{inst.num_vars} variables exceed the brute-force bound {bound}")
    for assignment in itertools.product((-1, 1), repeat=inst.num_vars):
        ok = True
        for a, b, c in inst.clauses:
            if assignment[a - 1] == assignment[b - 1] == assignment[c - 1]:
                ok = False
                break
        if ok:
            return assignment
    return None


@dataclass(frozen=True)
class SvcGraph:
    """The gadget network for an instance, with its node roles.

    Nodes (0-indexed): ``sink``; per variable i a pair
    ``(var_nodes[i-1][0], var_nodes[i-1][1])`` = (v_i, v̄_i); per clause j the
    chain node ``clause_nodes[j-1]``.  Total ``2n + m + 1`` nodes.
    """

    instance: Nae3SatInstance
    network: InfluenceNetwork
    sink: int
    var_nodes: tuple[tuple[int, int], ...]
    clause_nodes: tuple[int, ...]


def build_svc_graph(inst: Nae3SatInstance) -> SvcGraph:
    """Build the sink-variable-clause gadget network.

    Row weights: the sink keeps weight 1 on itself; v̄_i puts weight 1 on
    v_i; v_i splits 1/3 between itself, v̄_i, and the last clause node; a
    clause node puts 1/5 per variable occurrence (2/5 on a doubled variable)
    and 2/5 on the previous clause node, or on the sink for the first
    clause.  Rejects clauses repeating one variable three times.
    """
    triples = inst.triple_repeated_clauses()
    if triples:
        raise ValueError(
            f"clause {triples[0]} repeats one variable three times; "
            "the gadget requires at most two equal indices per clause"
        )
    n, m = inst.num_vars, len(inst.clauses)
    sink = 0
    var_nodes = tuple((2 * i - 1, 2 * i) for i in range(1, n + 1))
    clause_nodes = tuple(2 * n + j for j in range(1, m + 1))
    edges: list[tuple[int, int, Fraction]] = [(sink, sink, Fraction(1))]
    last_clause = clause_nodes[-1]
    for v, vbar in var_nodes:
        edges.append((vbar, v, Fraction(1)))
        edges.append((v, v, Fraction(1, 3)))
        edges.append((v, vbar, Fraction(1, 3)))
        edges.append((v, last_clause, Fraction(1, 3)))
    for j, clause in enumerate(inst.clauses, start=1):
        cnode = clause_nodes[j - 1]
        counts: dict[int, int] = {}
        for k in clause:
            counts[k] = counts.get(k, 0) + 1
        for k, cnt in counts.items():
            edges.append((cnode, var_nodes[k - 1][0], Fraction(cnt, 5)))
        back = sink if j == 1 else clause_nodes[j - 2]
        edges.append((cnode, back, Fraction(2, 5)))
    net = InfluenceNetwork.from_edges(2 * n + m + 1, edges)
    return SvcGraph(
        instance=inst, network=net, sink=sink, var_nodes=var_nodes, clause_nodes=clause_nodes
    )


def certificate_from_assignment(svc: SvcGraph, assignment) -> ConsensusCertificate:
    """Convert a satisfying assignment into a replayable consensus certificate.

    Initial state: sink 0, v_i at the assigned value, v̄_i at its negation,
    every clause node at +1.  Sequence: clause nodes in chain order, then
    each variable pair (v_i, v̄_i).  Replay reaches all-zero at exactly
    ``2n + m``; the certificate is verified before being returned.
    """
    inst = svc.instance
    a = tuple(assignment)
    if len(a) != inst.num_vars or any(v not in (-1, 1) for v in a):
        raise ValueError(f"assignment must be in {{-1,1}}^{inst.num_vars}")
    for i, j, k in inst.clauses:
        if a[i - 1] == a[j - 1] == a[k - 1]:
            raise ValueError(f"assignment does not satisfy clause ({i}, {j}, {k})")
    n, m = inst.num_vars, len(inst.clauses)
    initial = [0] * svc.network.n
    for i, (v, vbar) in enumerate(svc.var_nodes):
        initial[v] = a[i]
        initial[vbar] = -a[i]
    for c in svc.clause_nodes:
        initial[c] = 1
    sequence = list(svc.clause_nodes)
    for v, vbar in svc.var_nodes:
        sequence.extend((v, vbar))
    cert = ConsensusCertificate(
        initial=tuple(initial), sequence=tuple(sequence), target_time=2 * n + m
    )
    if not verify_certificate(svc.network, cert):
        raise RuntimeError("constructed certificate failed replay verification")
    return cert


def reduction_roundtrip(
    inst: Nae3SatInstance,
    *,
    brute_bound: int = DEFAULT_BRUTE_FORCE_BOUND,
    decision_bound: int = DEFAULT_REDUCTION_DECISION_BOUND,
) -> bool:
    """Do the two sides of the reduction agree on this instance?

    True iff brute-force satisfiability matches exhaustive consensus
    reachability on the gadget network.  Both sides are computed
    independently; nothing is shared but the instance.
    """
    assignment = brute_force_nae3sat(inst, bound=brute_bound)
    svc = build_svc_graph(inst)
    reachable, _ = decide_consensus_reachable(svc.network, bound=decision_bound)
    return (assignment is not None) == reachable


def svc_to_json_dict(svc: SvcGraph) -> dict:
    """Network JSON payload with 1-indexed role annotations attached."""
    payload = network_to_json_dict(svc.network)
    payload["roles"] = {
        "sink": svc.sink + 1,
        "variables": [[v + 1, vbar + 1] for v, vbar in svc.var_nodes],
        "clauses": [c + 1 for c in svc.clause_nodes],
    }
    return payload
