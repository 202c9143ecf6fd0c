"""Equilibria of the dynamics: recognition, enumeration, and reachability.

A state is an equilibrium exactly when it is a consensus or when every
threshold cut through its values splits the nodes into two maximal cohesive
sets.  Whether a network can reach consensus at all reduces to a finite
search: only the ordering of the initial opinions matters, so it is enough
to search profiles with values in {-1, 0, 1} having exactly one zero entry,
for consensus on the zero.  That search is an exhaustive, hence
exponential, breadth-first search over states packed into ints, which
caches dead states up to flipping every sign; it refuses inputs beyond an
explicit node bound.  A node only ever takes a value held in its own row,
so the zero spreads backwards along row links: all-zero is reachable only
from a zero in the network's unique sink component, and without one the
answer is no before any search.  Agreeing members of a cohesive set never
move, so ternary starts are the two-colourings by -1 and +1 of one graph
joining the cohesive pairs, where a frozen node is its own partner.  The
search packs a state into one int, two bits per node, and keeps each
node's search data in one row of ``_node_table``: its field mask, a memo
that computes each local pattern once, and its partners' field bits.  The
enumeration of equilibria computes no median: it reads them off the
settled cuts.
"""

from __future__ import annotations

import functools
import itertools
import struct
from dataclasses import dataclass

from . import _engine
from ._io import check_int, is_json_int, opinion_from_json, opinion_to_json
from .cohesion import (
    DEFAULT_ENUMERATION_BOUND,
    _class_cuts_settled,
    _expand,
    _move,
    _settled_cuts,
    _whole_cut,
    has_nontrivial_maximal_cohesive_set,
    is_cohesive,
)
from .dynamics import RandomSchedule, _validate_state, default_budget, is_equilibrium, run
from .network import (
    InfluenceNetwork,
    _reach,
    decisive_subgraph,
    has_globally_reachable_node,
    has_half_ties,
)

__all__ = [
    "ClassificationReport",
    "ConsensusCertificate",
    "DEFAULT_DECISION_BOUND",
    "is_equilibrium_structural",
    "enumerate_equilibria",
    "classify",
    "build_update_sequence",
    "decide_consensus_reachable",
    "verify_certificate",
]

DEFAULT_DECISION_BOUND = 12
DEFAULT_STATE_BUDGET = 10**6


# -- recognition -------------------------------------------------------------


def is_equilibrium_structural(net: InfluenceNetwork, x) -> bool:
    """Equilibrium test via cohesion alone, no median computations.

    True iff the state is a consensus or, for every way of cutting the
    value axis between two adjacent occurring values, the below-cut and
    above-cut node sets are each maximal cohesive.  Rows sum to exactly 1,
    so that holds iff every node keeps at least half its weight on its own
    side of each cut, which one sweep up the value classes checks
    (``cohesion._class_cuts_settled``).
    """
    state, table = _engine.encode_profile(_validate_state(net, x))
    classes: list[list[int]] = [[] for _ in table]
    for i, v in enumerate(state):
        classes[v].append(i)
    return _class_cuts_settled(net, classes)


def enumerate_equilibria(
    net: InfluenceNetwork, opinion_values, *, max_states: int = DEFAULT_STATE_BUDGET
) -> list[tuple]:
    """All equilibria over a finite label domain, in ``itertools.product``
    order over the sorted labels.

    Over labels l_0 < ... < l_{k-1}, x is an equilibrium iff each B_a =
    {i : x_i <= l_{a-1}} is empty, every node, or a side of a settled cut
    (``cohesion._settled_cuts``).  A depth-first walk up chains of those
    sets, sets and states as ints with a field of bytes per node, gives
    each state once and computes no median.  Values are read once and must be
    distinct and mutually comparable; past the integer ``max_states``
    states (k^n) it refuses before any search.
    """
    values = list(opinion_values)
    _, labels = _engine.encode_profile(values)
    if len(labels) != len(values):
        raise ValueError("opinion_values must be distinct")
    if not labels:
        raise ValueError("need at least one opinion value")
    check_int("max_states", max_states)
    n, k = net.n, len(labels)
    count = k**n
    if count > max_states:
        raise ValueError(f"{k}^{n} = {count} states exceeds the budget {max_states}")
    if k == 1:
        return [(labels[0],) * n]
    # Field width in bytes and its struct code: ranks up to k - 1 must fit.
    width, code = next((d, c) for d, c in zip((1, 2, 4, 8), "BHIQ") if k <= 256**d)
    place = [1 << 8 * width * (n - 1 - i) for i in range(n)]
    whole = sum(place)
    cuts = [sum(itertools.compress(place, side)) for side in _settled_cuts(net)]
    family = set(cuts).union([whole - c for c in cuts])
    above = functools.cache(lambda top: [b for b in family if b & top == top != b])
    # An entry is one state: nodes outside ``top`` hold rank k - 1, and each
    # child moves those in a larger set ``b`` down to a rank above ``rank``.
    keys = []
    stack = [(0, -1, (k - 1) * whole)]
    while stack:
        top, rank, key = stack.pop()
        keys.append(key)
        if rank < k - 2:
            ranks = range(rank + 1, k - 1)
            stack += [(b, r, key - (k - 1 - r) * (b - top)) for b in above(top) for r in ranks]
    unpack = struct.Struct(f">{n}{code}").unpack
    size, label = n * width, labels.__getitem__
    return [tuple(map(label, unpack(key.to_bytes(size, "big")))) for key in sorted(keys)]


# -- classification ------------------------------------------------------------


@dataclass(frozen=True)
class ClassificationReport:
    """What the network structure says about long-run outcomes.

    ``consensus_certain``  -- every run from every initial state reaches
    consensus almost surely (the full node set is the only maximal cohesive
    set).  None when the exhaustive check was out of bounds.
    ``dissensus_witness``  -- a proper maximal cohesive set, when one exists:
    initial states separating it from the rest can never reach consensus
    (``decision_scope["witness_recipe"]`` spells out the separation).
    ``dissensus_certain``  -- dissensus is forced from any all-distinct
    initial state: no globally reachable node over the decisive links when
    rows are half-tie-free, or over all links otherwise.
    """

    consensus_certain: bool | None
    dissensus_witness: frozenset | None
    dissensus_certain: bool
    decision_scope: dict

    def to_json_dict(self) -> dict:
        witness = (
            sorted(i + 1 for i in self.dissensus_witness)
            if self.dissensus_witness is not None
            else None
        )
        return {
            "consensus_certain": self.consensus_certain,
            "dissensus_witness": witness,
            "dissensus_certain": self.dissensus_certain,
            "decision_scope": self.decision_scope,
        }


def classify(
    net: InfluenceNetwork,
    *,
    cohesion_bound: int = DEFAULT_ENUMERATION_BOUND,
    mc_replicas: int = 0,
    seed: int = 0,
    budget: int | None = None,
) -> ClassificationReport:
    """Classify a network's long-run behavior.

    Within ``cohesion_bound`` nodes the maximal-cohesive enumeration decides
    ``consensus_certain`` exactly.  Beyond it those fields are left undecided
    (None); if ``mc_replicas`` > 0, seeded runs from an all-distinct initial
    state are used as falsification only -- an observed consensus proves
    consensus is reachable, absence of one proves nothing -- and the scope
    notes say so.  Bools, floats, a negative ``mc_replicas`` or ``seed``
    and a ``budget`` below 1 are refused, whether or not a run uses them.
    """
    check_int("cohesion_bound", cohesion_bound)
    check_int("mc_replicas", mc_replicas, 0)
    check_int("seed", seed, 0)
    if budget is not None:
        check_int("budget", budget, 1)
    n = net.n
    exhaustive = n <= cohesion_bound
    scope: dict = {"cohesion_bound": cohesion_bound, "cohesion_exhaustive": exhaustive}
    consensus_certain: bool | None = None
    witness: frozenset | None = None
    if exhaustive:
        found, witness = has_nontrivial_maximal_cohesive_set(net, bound=cohesion_bound)
        consensus_certain = not found
        if witness is not None:
            members = ",".join(str(i + 1) for i in sorted(witness))
            scope["witness_recipe"] = (
                f"any initial state where every opinion inside {{{members}}} is "
                "strictly below (or strictly above) every opinion outside it "
                "never reaches consensus"
            )
    else:
        scope["note"] = "n exceeds cohesion_bound; consensus_certain undecided"
        if mc_replicas > 0:
            eff_budget = budget if budget is not None else default_budget(n)
            observed = False
            x0 = tuple(range(n))
            for r in range(mc_replicas):
                traj = run(net, x0, RandomSchedule(seed=seed + r, budget=eff_budget))
                if traj.converged and len(set(traj.terminal)) == 1:
                    observed = True
                    break
            scope["monte_carlo"] = {
                "replicas": mc_replicas,
                "budget": eff_budget,
                "consensus_observed": observed,
                "note": "falsification only: absence of consensus proves nothing",
            }

    reachable, node = has_globally_reachable_node(decisive_subgraph(net))
    scope["globally_reachable_witness"] = None if node is None else node + 1
    if reachable:
        dissensus_certain = False
    elif not has_half_ties(net):
        # Tie-free rows: opinions can only spread along decisive links, so a
        # missing globally reachable node rules consensus out entirely.
        dissensus_certain = True
    else:
        # Some subset of a row sums to exactly 1/2.  Median sets can then be
        # wide enough for the tie-break to adopt a formally indecisive
        # neighbor's value, so the decisive subgraph does not bound opinion
        # travel.  Fall back to the whole network: adopted values always come
        # from a positive-weight neighbor, so consensus still needs a
        # globally reachable node there.
        full_reachable, _ = has_globally_reachable_node(net)
        dissensus_certain = not full_reachable
        scope["half_tie_note"] = (
            "a row has a subset of weights summing to exactly 1/2; the "
            "decisive-link criterion is inconclusive, used full-network "
            "reachability instead"
        )
    assert not (dissensus_certain and consensus_certain)
    return ClassificationReport(
        consensus_certain=consensus_certain,
        dissensus_witness=witness,
        dissensus_certain=dissensus_certain,
        decision_scope=scope,
    )


# -- constructive convergence ---------------------------------------------------


def build_update_sequence(net: InfluenceNetwork, x0) -> tuple[tuple[int, ...], tuple]:
    """A deterministic update sequence from ``x0`` to an equilibrium.

    Processes the occurring values from lowest to highest, carrying one cut
    (``cohesion._move``): side 0 holds the nodes at or below the current
    value.  Each level moves its class to side 0, then runs two cohesive
    expansions: to side 1, whose moved nodes leave the low block when
    updated, then back to side 0, whose moved nodes join it.  Both take the
    lowest-index qualifier first, so the schedule is deterministic.

    Returns ``(schedule, terminal)``.  The terminal state is verified to be
    an equilibrium by replaying the schedule; failure raises RuntimeError.
    """
    vals = _validate_state(net, x0)
    state, table = _engine.encode_profile(vals)
    rows = net.integer_rows
    order = range(net.n)
    side, margin = _whole_cut(net)
    schedule: list[int] = []

    for level in range(len(table) - 1):
        for j in order:
            if state[j] == level:
                _move(net, side, margin, j, 0)
        escaped = _expand(net, side, margin, 1, order, order)
        joined = _expand(net, side, margin, 0, order, order)
        for picks, below in ((escaped, False), (joined, True)):
            for pick in picks:
                state[pick] = _engine.update_value(rows, state, pick)
                if (state[pick] <= level) != below:
                    raise RuntimeError("update failed to cross the value class boundary")
            schedule += picks

    terminal = tuple(table[v] for v in state)
    traj = run(net, tuple(vals), tuple(schedule))
    if traj.terminal != terminal or not is_equilibrium(net, terminal):
        raise RuntimeError("constructed update sequence failed replay verification")
    return tuple(schedule), terminal


# -- consensus reachability -------------------------------------------------------


@dataclass(frozen=True)
class ConsensusCertificate:
    """A replayable witness that consensus is reachable.

    Replaying ``sequence`` from ``initial`` reaches the all-zero state at
    time ``target_time`` (= the sequence length).
    """

    initial: tuple
    sequence: tuple[int, ...]
    target_time: int

    def __post_init__(self):
        if self.target_time != len(self.sequence):
            raise ValueError("target_time must equal the sequence length")

    def to_json_dict(self) -> dict:
        return {
            "initial": [opinion_to_json(v) for v in self.initial],
            "sequence": [i + 1 for i in self.sequence],
            "target_time": self.target_time,
        }

    @staticmethod
    def from_json_dict(payload: dict) -> "ConsensusCertificate":
        try:
            initial = tuple(opinion_from_json(v) for v in payload["initial"])
            sequence = tuple(payload["sequence"])
            target_time = payload["target_time"]
            if not all(is_json_int(i) for i in (*sequence, target_time)):
                raise ValueError("sequence entries and target_time must be integers")
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed certificate payload: {exc}") from exc
        sequence = tuple(i - 1 for i in sequence)
        return ConsensusCertificate(initial=initial, sequence=sequence, target_time=target_time)


def verify_certificate(net: InfluenceNetwork, cert: ConsensusCertificate) -> bool:
    """Replay the certificate; true iff it ends at the all-zero state."""
    if len(cert.initial) != net.n:
        return False
    if not all(is_json_int(i) and 0 <= i < net.n for i in cert.sequence):
        return False
    traj = run(net, cert.initial, cert.sequence)
    return all(v == 0 for v in traj.terminal)


def _blocking_partners(net: InfluenceNetwork) -> list[list[int]]:
    """Per node i, every j with {i, j} cohesive: i itself when frozen.

    Agreeing members of a cohesive set never move, so no state in which a
    node and a partner share a nonzero sign can reach all-zero.
    """
    nodes = range(net.n)
    return [[j for j in nodes if is_cohesive(net, (i, j))] for i in nodes]


def decide_consensus_reachable(
    net: InfluenceNetwork, *, bound: int = DEFAULT_DECISION_BOUND
) -> tuple[bool, ConsensusCertificate | None]:
    """Can some ternary initial state with one zero entry reach all-zero?

    A node's new value is always one held in its own row, so zeros appear
    only at nodes listening to a zero, and all-zero needs every node to
    lead along row links to the zero node.  So the zero node must lie in
    the network's unique sink component, the globally reachable nodes:
    without one the answer is no at once, and otherwise only its members
    are tried.  The skipped positions never succeed, so the first
    successful start, and its certificate, are those of trying them all.

    Exhaustive seeded search: for each such zero node in index order,
    breadth-first exploration from each start of ``_starts``, the sign
    patterns in which no blocking partners agree; the search also prunes
    states where a moved node comes to agree with a partner.  Every start
    goes through ``_shortest_path`` on one ``_node_table``, so node updates
    are memoised and states proven unable to reach all-zero are cached
    across starts, up to flipping every sign.  ``bound`` must be an
    integer, and a network past it is refused before anything else.  On
    success the certificate (initial state + shortest update sequence for
    it) is replayed before it is returned; a failed replay raises
    RuntimeError.
    """
    check_int("bound", bound)
    n = net.n
    if n > bound:
        raise ValueError(
            f"n={n} exceeds the decision bound {bound}; the search is exponential -- "
            "raise `bound` explicitly to force it"
        )
    reachable, witness = has_globally_reachable_node(net)
    if not reachable:
        return False, None
    rows = net.integer_rows
    sink = [False] * n
    _reach([row[0] for row in rows], witness, sink)
    partners = _blocking_partners(net)
    table = _node_table(rows, partners)
    # Ranks 0, 1, 2 stand for -1, 0, +1 in the two bits from bit 2 * i.
    goal = sum(1 << 2 * i for i in range(n))
    dead: set = set()

    for z in itertools.compress(range(n), sink):
        for start in _starts(z, partners):
            path = _shortest_path(rows, table, start, goal, dead)
            if path is not None:
                initial = tuple((start >> 2 * i & 3) - 1 for i in range(n))
                cert = ConsensusCertificate(initial=initial, sequence=path, target_time=len(path))
                if not verify_certificate(net, cert):
                    raise RuntimeError("consensus certificate failed replay verification")
                return True, cert
    return False, None


def _node_table(rows, partners: list[list[int]]) -> tuple:
    """Per node, ``(i, 2 * i, mask, memo, low, high)`` for ``_shortest_path``.

    Node i's rank sits in the two bits from bit ``2 * i``.  Its update reads
    only the fields of ``{i, *row}``, the bits of ``mask``, so ``memo`` maps
    ``s & mask`` to its new rank; it is None when ``mask`` covers every
    field, as that key is the whole state, which a search never meets twice.
    ``low`` and ``high`` hold the low and high bits of its partners' fields.
    """
    whole = (1 << 2 * len(rows)) - 1
    table = []
    for i, row in enumerate(rows):
        # A set, so that a self-loop does not count node i's field twice.
        mask = sum(3 << 2 * j for j in {i, *row[0]})
        low = sum(1 << 2 * p for p in partners[i])
        table.append((i, 2 * i, mask, None if mask == whole else {}, low, low << 1))
    return tuple(table)


def _starts(z: int, partners: list[list[int]]):
    """Packed ternary starts with zero at ``z`` where no partners agree.

    These are the two-colourings by -1 and +1 of the partner graph without
    ``z``: two per connected component, or none if one holds an odd cycle
    (a self-partner is one).  Components go in order of their smallest
    node, whose sign picks the colouring, -1 first; sign flips commute with
    the dynamics, so the first keeps only -1.  Starts thus come in
    ``itertools.product`` order over the signs, without the blocked ones.
    """
    sign = {z: 0}
    choices = []
    for root in range(len(partners)):
        if root in sign:
            continue
        sign[root] = -1
        stack = [root]
        low = high = 0
        while stack:
            i = stack.pop()
            low += sign[i] + 1 << 2 * i
            high += 1 - sign[i] << 2 * i
            for j in partners[i]:
                if j not in sign:
                    sign[j] = -sign[i]
                    stack.append(j)
                elif sign[j] == sign[i]:
                    return
        choices.append((low, high) if choices else (low,))
    base = 1 << 2 * z
    for picks in itertools.product(*choices):
        yield base + sum(picks)


def _shortest_path(rows, table, start, goal, dead):
    """Shortest update sequence from packed ternary ``start`` to ``goal``.

    Breadth-first over single-node updates on ranks 0, 1, 2 for -1, 0, +1,
    expanding each state's nodes in index order, each with its row of
    ``table`` (``_node_table``); a start equal to ``goal`` gives the empty
    sequence.  Memo misses call ``_engine.update_value`` on the unpacked
    state.  ``dead`` holds states that cannot reach the goal, each under
    the smaller of it and its sign flip ``full - s``, where every field of
    ``full = 2 * goal`` is 2 (the dynamics and the all-zero goal commute
    with flipping every sign); a failed search adds every state it saw.  A
    successor whose updated node now agrees on a nonzero sign with one of
    its blocking partners is dead too, since neither ever moves again.
    That check is two ANDs with the node's ``low`` and ``high``: +1 (10)
    shows in ``high``, and -1 (00) is a field with neither bit set.
    Returns the node tuple or None.
    """
    if start == goal:
        return ()
    full = 2 * goal
    if min(start, full - start) in dead:
        return None
    shifts = range(0, 2 * len(rows), 2)
    parents = {start: None}
    frontier = [start]
    while frontier:
        nxt = []
        for s in frontier:
            state = None
            for i, sh, mask, memo, low, high in table:
                if memo is None:
                    if state is None:
                        state = [s >> k & 3 for k in shifts]
                    new = _engine.update_value(rows, state, i)
                else:
                    key = s & mask
                    try:
                        new = memo[key]
                    except KeyError:
                        if state is None:
                            state = [s >> k & 3 for k in shifts]
                        new = memo[key] = _engine.update_value(rows, state, i)
                old = s >> sh & 3
                if new == old:
                    continue
                s2 = s + (new - old << sh)
                if s2 in parents:
                    continue
                canon = full - s2
                if s2 < canon:
                    canon = s2
                if canon in dead:
                    continue
                if new == 2 and s2 & high or new == 0 and ~(s2 | s2 >> 1) & low:
                    dead.add(canon)
                    continue
                parents[s2] = (s, i)
                if s2 == goal:
                    path = []
                    while parents[s2] is not None:
                        s2, i = parents[s2]
                        path.append(i)
                    return tuple(reversed(path))
                nxt.append(s2)
        frontier = nxt
    dead.update(min(s, full - s) for s in parents)
    return None
