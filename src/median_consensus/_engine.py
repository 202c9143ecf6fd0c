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
every memo entry of ``decide``'s search.  Runs keep one table per node
instead, with its occupied ranks in order, its lower median and the mass at
or below it, all set up by ``lower_median``.  On each opinion change they
move the changed node's weight from its old rank to its new one in every
listener's table and walk the listener's lower median to an adjacent
occupied rank as needed, so a change costs one entry per listener rather
than a sort of every listener's table.
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

