"""Cohesive node sets: strict-majority structure of an influence network.

A non-empty set M is *cohesive* when every member places at least half of
its weight inside M, and *maximal cohesive* when additionally no outside
node places strictly more than half of its weight into M.  The *expansion*
of a set repeatedly admits any outside node with strict-majority weight on
the current set; the result is independent of admission order, and for a
cohesive seed it is the smallest maximal cohesive superset.  ``_expand``
does every expansion, the two per value class in ``build_update_sequence``
too, and after an admission rescans from the first node it affected.

Maximal cohesive sets are exactly the blocks that can hold an opinion
forever: once all members agree, no member ever leaves and no strict
majority ever forms outside pressure into the set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from . import _engine
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
        if not isinstance(i, int) or not 0 <= i < net.n:
            raise ValueError(f"node {i!r} out of range for n={net.n}")
        inside[i] = 1
    if not any(inside):
        raise ValueError("the empty set is rejected: cohesion is defined for non-empty sets")
    return inside


def _settled(rows, inside) -> bool:
    """Members keep at least half inside and outsiders put at most half in."""
    for row, member in zip(rows, inside):
        m = _engine.margin(row, inside)
        if (m < 0) if member else (m > 0):
            return False
    return True


def is_cohesive(net: InfluenceNetwork, members: Iterable[int]) -> bool:
    """Every member keeps weight >= 1/2 inside the set."""
    inside = _indicator(net, members)
    rows = net.integer_rows
    return all(_engine.margin(rows[i], inside) >= 0 for i in range(net.n) if inside[i])


def is_maximal_cohesive(net: InfluenceNetwork, members: Iterable[int]) -> bool:
    """Cohesive, and no outside node has weight > 1/2 into the set."""
    return _settled(net.integer_rows, _indicator(net, members))


@dataclass(frozen=True)
class ExpansionTrace:
    """Result of a cohesive expansion: the final set plus admission order."""

    result: frozenset
    additions: tuple[tuple[int, int], ...]  # (node, admission step), steps from 1


def _expand(net: InfluenceNetwork, inside, order, pos) -> list[int]:
    """Grow the 0/1 list ``inside`` in place; return the admitted nodes.

    Each admission takes the first outside node of ``order`` with a positive
    margin on the set; ``pos[j]`` is j's place in ``order``.  It raises only
    its listeners' margins (``net.listener_weights``, read only once a node
    is admitted) and no earlier node qualified, so the next scan starts at
    the earliest of their places and the place after it.
    """
    margin = _engine.margin
    rows = net.integer_rows
    admitted: list[int] = []
    p = 0
    while True:
        pick = next((j for j in order[p:] if not inside[j] and margin(rows[j], inside) > 0), None)
        if pick is None:
            return admitted
        inside[pick] = 1
        admitted.append(pick)
        p = min([pos[pick] + 1, *[pos[i] for i in net.listener_weights[pick][0]]])


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
        if sorted(hint) != list(pos):
            raise ValueError("order_hint must be a permutation of all node indices")
        # Sorting indices by a permutation's entries inverts it.
        pos = sorted(range(n), key=hint.__getitem__)
        order = sorted(range(n), key=pos.__getitem__)
    admitted = _expand(net, inside, order, pos)
    additions = tuple((node, step) for step, node in enumerate(admitted, 1))
    return ExpansionTrace(result=frozenset(i for i in range(n) if inside[i]), additions=additions)


def enumerate_maximal_cohesive_sets(
    net: InfluenceNetwork, *, bound: int = DEFAULT_ENUMERATION_BOUND
) -> list[frozenset]:
    """All maximal cohesive sets, by exhaustive subset check.

    Refuses networks larger than ``bound`` nodes (the check is exponential).
    The full node set always qualifies, so the result is never empty.
    Sets are returned in a deterministic order (by size, then members).
    """
    n = net.n
    if n > bound:
        raise ValueError(
            f"n={n} exceeds the enumeration bound {bound}; "
            "raise `bound` explicitly to force the exhaustive check"
        )
    # Gray-code order: each step flips one node's membership.
    rows = net.integer_rows
    inside = [0] * n
    found = []
    for k in range(1, 1 << n):
        inside[(k & -k).bit_length() - 1] ^= 1
        if _settled(rows, inside):
            found.append(frozenset(i for i in range(n) if inside[i]))
    found.sort(key=lambda s: (len(s), sorted(s)))
    return found


def has_nontrivial_maximal_cohesive_set(
    net: InfluenceNetwork, *, bound: int = DEFAULT_ENUMERATION_BOUND
) -> tuple[bool, frozenset | None]:
    """Is some proper subset maximal cohesive?  Returns (answer, witness)."""
    full = frozenset(range(net.n))
    for s in enumerate_maximal_cohesive_sets(net, bound=bound):
        if s != full:
            return True, s
    return False, None
