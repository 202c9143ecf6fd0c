"""Cohesive node sets: strict-majority structure of an influence network.

A non-empty set M is *cohesive* when every member places at least half of
its weight inside M, and *maximal cohesive* when additionally no outside
node places strictly more than half of its weight into M.  The *expansion*
of a set repeatedly admits any outside node with strict-majority weight on
the current set; the result is independent of admission order, and for a
cohesive seed it is the smallest maximal cohesive superset.

Rows sum to exactly 1, so M is maximal cohesive iff M and its complement
are both cohesive: every node keeps at least half its weight on its own
side of the cut.  A cut is a 0/1 ``side`` list plus per-node margins
``2 * (weight on side 1) - denom``: ``_margin`` computes one from a row,
``_whole_cut`` starts every node on side 1, and ``_move`` puts a node on a
side and shifts its listeners' margins (``net.listener_weights``).  No other
module writes a margin.  On that pair ``_expand`` runs every expansion, both
per value class in ``build_update_sequence`` too, and ``_class_cuts_settled``
sweeps the cuts between value classes.  The cut search ``_settled_cuts``
keeps a mass per side, as its unplaced nodes are on neither, and prunes at
the first placed node with more than half its weight across the cut.

Maximal cohesive sets are exactly the blocks that can hold an opinion
forever: once all members agree, no member ever leaves and no strict
majority ever forms outside pressure into the set.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Iterable, Sequence

from ._io import check_int, is_json_int
from .network import InfluenceNetwork

__all__ = [
    "ExpansionTrace",
    "is_cohesive",
    "is_maximal_cohesive",
    "cohesive_expansion",
    "enumerate_maximal_cohesive_sets",
    "has_nontrivial_maximal_cohesive_set",
]

DEFAULT_ENUMERATION_BOUND = 16


def _indicator(net: InfluenceNetwork, members: Iterable[int]) -> list[int]:
    """Validated per-node 0/1 membership list of a non-empty node set."""
    inside = [0] * net.n
    for i in members:
        if not (is_json_int(i) and 0 <= i < net.n):
            raise ValueError(f"node {i!r} out of range for n={net.n}")
        inside[i] = 1
    if not any(inside):
        raise ValueError("the empty set is rejected: cohesion is defined for non-empty sets")
    return inside


def is_cohesive(net: InfluenceNetwork, members: Iterable[int]) -> bool:
    """Every member keeps weight >= 1/2 inside the set."""
    inside = _indicator(net, members)
    rows = net.integer_rows
    return all(_margin(rows[i], inside) >= 0 for i in range(net.n) if inside[i])


def is_maximal_cohesive(net: InfluenceNetwork, members: Iterable[int]) -> bool:
    """Cohesive, and no outside node has weight > 1/2 into the set."""
    inside = _indicator(net, members)
    return _class_cuts_settled(net, [[i for i in range(net.n) if inside[i]], ()])


@dataclass(frozen=True)
class ExpansionTrace:
    """Result of a cohesive expansion: the final set plus admission order."""

    result: frozenset
    additions: tuple[tuple[int, int], ...]  # (node, admission step), steps from 1


def _margin(row, inside) -> int:
    """``2 * (weight the row puts on nodes j with inside[j]) - denom``.

    Positive means a strict majority inside the set, non-negative means at
    least half.  ``row`` is one entry of ``integer_rows``; ``inside`` is a
    per-node 0/1 list.
    """
    nbrs, wints, denom = row
    mass = 0
    for j, w in zip(nbrs, wints):
        if inside[j]:
            mass += w
    return 2 * mass - denom


def _whole_cut(net: InfluenceNetwork):
    """The cut with every node on side 1: ``(side, margin)``."""
    return [1] * net.n, [row[2] for row in net.integer_rows]


def _move(net: InfluenceNetwork, side, margin, j: int, s: int):
    """Move node j from side 1 - s to s; return its ``listener_weights`` row."""
    side[j] = s
    nodes, ws = row = net.listener_weights[j]
    d = 2 if s else -2
    for i, w in zip(nodes, ws):
        margin[i] += d * w
    return row


def _expand(net: InfluenceNetwork, side, margin, s: int, order, pos) -> list[int]:
    """Move nodes with a strict majority on side s there; return them in order.

    A node qualifies by margin > 0 for s = 1 and < 0 for s = 0, and stays a
    qualifier, as moves only raise majorities on side s.  Each move takes
    the qualifier first in ``order`` (``pos[j]`` is j's place) off a heap of
    places and pushes the listeners it carries past zero.  With no move,
    ``net.listener_weights`` is never built.
    """
    sign = 1 if s else -1
    # Places taken in order are ascending, so the list is already a heap.
    heap = [pos[i] for i in order if side[i] != s and sign * margin[i] > 0]
    moved: list[int] = []
    while heap:
        j = order[heappop(heap)]
        moved.append(j)
        for i, w in zip(*_move(net, side, margin, j, s)):
            if side[i] != s and 0 < sign * margin[i] <= 2 * w:
                heappush(heap, pos[i])
    return moved


def cohesive_expansion(
    net: InfluenceNetwork,
    members: Iterable[int],
    order_hint: Sequence[int] | None = None,
) -> ExpansionTrace:
    """Iteratively admit outside nodes holding a strict majority on the set.

    ``order_hint`` is a node priority order used to pick among simultaneous
    qualifiers; by default the lowest index is admitted first.  The final
    set never depends on this choice.
    """
    inside = _indicator(net, members)
    n = net.n
    order = pos = range(n)
    if order_hint is not None:
        hint = list(order_hint)
        if not all(map(is_json_int, hint)) or sorted(hint) != list(pos):
            raise ValueError("order_hint must be a permutation of all node indices")
        # Sorting indices by a permutation's entries inverts it.
        order, pos = hint, sorted(range(n), key=hint.__getitem__)
    margin = [_margin(row, inside) for row in net.integer_rows]
    admitted = _expand(net, inside, margin, 1, order, pos)
    additions = tuple((node, step) for step, node in enumerate(admitted, 1))
    return ExpansionTrace(result=frozenset(i for i in range(n) if inside[i]), additions=additions)


def _settled_cuts(net: InfluenceNetwork):
    """Yield every 0/1 side list, node 0 on side 1, that settles each node.

    A node is settled when it puts at most half its weight across the cut.
    A depth-first search places nodes 0..n-1 in turn and adds each placed
    node's weight to its listeners' mass on its side (``listener_weights``).
    Masses only grow, so a placement that leaves some placed node with more
    than half its weight across the cut is refused with all its completions.
    The search is a loop whose stack is ``side[:j]``, the sides of the
    placed nodes, so ``n`` is not tied to the recursion limit.  The yielded
    list is reused; copy it to keep it.
    """
    n = net.n
    listeners = net.listener_weights
    denom = [row[2] for row in net.integer_rows]
    mass = ([0] * n, [0] * n)  # mass[s][i]: i's weight on placed nodes of side s
    side = [1] * n
    j, s = 0, 1  # next placement: node j on side s
    while True:
        nodes, ws = listeners[j]
        own = mass[s]
        if 2 * mass[1 - s][j] <= denom[j] and all(
            i >= j or side[i] == s or 2 * (own[i] + w) <= denom[i] for i, w in zip(nodes, ws)
        ):
            side[j] = s
            for i, w in zip(nodes, ws):
                own[i] += w
            j, s = j + 1, 1
            if j < n:
                continue
            yield side
        elif s and j:
            s = 0
            continue
        # Undo placements back to the last node on side 1; it moves to side 0.
        while True:
            j -= 1
            if j <= 0:
                return
            nodes, ws = listeners[j]
            own = mass[side[j]]
            for i, w in zip(nodes, ws):
                own[i] -= w
            if side[j]:
                s = 0
                break


def enumerate_maximal_cohesive_sets(
    net: InfluenceNetwork, *, bound: int = DEFAULT_ENUMERATION_BOUND
) -> list[frozenset]:
    """All maximal cohesive sets, by a depth-first search over cuts.

    Rows sum to exactly 1, so S is maximal cohesive iff every node keeps at
    least half its weight on its own side of the cut (S, V minus S); the
    condition is symmetric, so each settled cut with node 0 in S also gives
    its complement when that is non-empty.  ``_settled_cuts`` finds them.
    Refuses networks larger than ``bound`` nodes (the search is exponential
    in the worst case).  The full node set always qualifies, so the result
    is never empty.  Sets are returned in a deterministic order (by size,
    then members).  ``bound`` must be an integer.
    """
    check_int("bound", bound)
    n = net.n
    if n > bound:
        raise ValueError(
            f"n={n} exceeds the enumeration bound {bound}; "
            "raise `bound` explicitly to force the exhaustive check"
        )
    found = []
    for side in _settled_cuts(net):
        found.append(frozenset(i for i in range(n) if side[i]))
        if not all(side):
            found.append(frozenset(i for i in range(n) if not side[i]))
    found.sort(key=lambda s: (len(s), sorted(s)))
    return found


def _class_cuts_settled(net: InfluenceNetwork, classes) -> bool:
    """Does every cut between consecutive ``classes`` settle each node?

    ``classes`` partitions the nodes in value order.  A sweep moves one
    class at a time from side 1 to side 0 (``_move``) and re-flags the nodes
    it touched, unsettled when a margin puts more than half the weight
    across the cut.  One count of flagged nodes decides each cut, so every
    row is read once however many cuts there are.
    """
    side, margin = _whole_cut(net)
    unsettled = [False] * net.n
    count = 0
    for members in classes[:-1]:
        touched = list(members)
        for j in members:
            touched += _move(net, side, margin, j, 0)[0]
        for i in touched:
            flag = margin[i] < 0 if side[i] else margin[i] > 0
            count += flag - unsettled[i]
            unsettled[i] = flag
        if count:
            return False
    return True


def has_nontrivial_maximal_cohesive_set(
    net: InfluenceNetwork, *, bound: int = DEFAULT_ENUMERATION_BOUND
) -> tuple[bool, frozenset | None]:
    """Is some proper subset maximal cohesive?  Returns (answer, witness)."""
    full = frozenset(range(net.n))
    for s in enumerate_maximal_cohesive_sets(net, bound=bound):
        if s != full:
            return True, s
    return False, None
