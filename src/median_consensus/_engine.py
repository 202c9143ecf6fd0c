"""Integer core: opinion updates and every half-threshold test.

Opinion order is all that matters to the update rule, so states are encoded
as small ints (ranks) and each row's weights are pre-cleared to integers
over a common denominator.  Every half-threshold test compares an integer
mass with its row's denominator, never a Fraction with 1/2.  This module
holds the median update and the majority margin of a row on a node set
(``margin``), which only sets up a set's margins: ``is_cohesive`` reads
them, and ``cohesion`` shifts them as nodes move.  ``median.py`` is the
readable reference.

A median is read off a mass table ``{rank: integer mass}``: the lower
median is the first rank, in order, whose cumulative mass reaches half
(``lower_median``), and the interval also takes the next rank when that
mass is exactly half (``median_of``).  ``update_value`` builds the table
from a whole row and is the oracle for single steps, equilibrium checks and
the searches.  Runs keep one table per node instead, with its occupied
ranks in order, its lower median and the mass at or below it, all set up
by ``lower_median``.  On each opinion change they move the changed node's
weight from its old rank to its new one in every listener's table and walk
the listener's lower median to an adjacent occupied rank as needed, so a
change costs one entry per listener rather than a sort of every listener's
table.

The one exhaustive search, ``decide``'s, visits many ternary states that
differ in a few nodes, so it uses ``LocalRule``: a state packed into one
int, and per node a memo from the node's own and its row's fields to its
new rank.  Every memo entry is filled by ``update_value``, so the search
still follows the one rule.
"""

from __future__ import annotations


def encode_profile(values):
    """Map a profile to rank ints; returns (state list, decode table).

    One dict pass hashes each value once and gives it a first-seen code;
    only the distinct values are sorted, and the codes are then remapped to
    ranks.  ``table[rank]`` is the first-seen object among equal values
    (``[1, Fraction(1)]`` keeps ``1``).  Unhashable or mutually incomparable
    values raise ``ValueError``.
    """
    codes: dict = {}
    try:
        state = [codes.setdefault(v, len(codes)) for v in values]
        distinct = list(codes)
        order = sorted(range(len(distinct)), key=distinct.__getitem__)
    except TypeError as exc:
        raise ValueError("opinion values must be mutually comparable") from exc
    rank = [0] * len(order)
    for k, code in enumerate(order):
        rank[code] = k
    return [rank[c] for c in state], [distinct[c] for c in order]


def margin(row, inside) -> int:
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


def row_masses(row, state) -> dict:
    """The mass table of one ``integer_rows`` entry: rank -> integer mass."""
    nbrs, wints, _ = row
    masses: dict = {}
    for j, w in zip(nbrs, wints):
        v = state[j]
        if v in masses:
            masses[v] += w
        else:
            masses[v] = w
    return masses


def lower_median(ranks, masses, denom):
    """``(k, below)``: ``ranks[k]`` is the first of the sorted ``ranks`` whose
    cumulative mass reaches half of ``denom``, and ``below`` is that mass."""
    below = 0
    for k, v in enumerate(ranks):
        below += masses[v]
        if 2 * below >= denom:
            return k, below


def median_of(masses, denom, ref):
    """Closest weighted median of a mass table, clamping ``ref`` into it.

    ``masses`` maps ranks to positive integer masses summing to ``denom``.
    The median interval starts at the lower median (``lower_median``); it
    also takes the next rank when the mass up to the lower median is
    exactly half.  Ranks outside the table never become interval endpoints,
    so the table is enough.
    """
    ranks = sorted(masses)
    k, below = lower_median(ranks, masses, denom)
    lo = ranks[k]
    hi = ranks[k + 1] if 2 * below == denom else lo
    if ref < lo:
        return lo
    if ref > hi:
        return hi
    return ref


def update_value(int_rows, state, i):
    """New value for node i: its closest weighted median of the profile."""
    row = int_rows[i]
    return median_of(row_masses(row, state), row[2], state[i])


class LocalRule:
    """Packed ternary states, with a memoised update per node.

    A state is one int: node i's rank, 0, 1 or 2, sits in the two bits from
    bit ``2 * i``.  Node i's update reads only the fields of ``{i, *row}``,
    the bits of its mask, so node i's memo maps ``s & mask`` to its new rank
    and is filled on first use by ``update_value`` on the unpacked state.  A
    node whose row covers every node gets no memo (None): its key is the
    whole state, which a search never meets twice.  Reversing the rank
    order maps ``s`` to ``full - s``, where every field of ``full`` is 2.

    ``nodes`` holds ``(i, shift, mask, memo)`` per node in index order.
    """

    __slots__ = ("rows", "shifts", "full", "nodes")

    def __init__(self, int_rows):
        n = len(int_rows)
        self.rows = int_rows
        self.shifts = shifts = [2 * i for i in range(n)]
        self.full = sum(2 << sh for sh in shifts)
        whole = (1 << 2 * n) - 1
        # A set, so that a self-loop does not count node i's field twice.
        masks = [sum(3 << shifts[j] for j in {i, *row[0]}) for i, row in enumerate(int_rows)]
        self.nodes = tuple(
            (i, shifts[i], m, None if m == whole else {}) for i, m in enumerate(masks)
        )

    def pack(self, ranks) -> int:
        return sum(r << 2 * i for i, r in enumerate(ranks))

    def unpack(self, s: int) -> tuple:
        return tuple([s >> sh & 3 for sh in self.shifts])
