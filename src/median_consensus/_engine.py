"""Integer core: opinion updates and every half-threshold test.

Opinion order is all that matters to the update rule, so states are encoded
as small ints (ranks) and each row's weights are pre-cleared to integers
over a common denominator.  This module owns all half-threshold arithmetic:
the median update, the majority margin of a row on a node set, and the
successors of a state all compare integer masses against the denominator.
Dynamics, cohesion and equilibria call these functions instead of computing
with Fractions; ``median.py`` is the readable reference.

A median is read off a mass table ``{rank: integer mass}`` by
``median_of``.  ``update_value`` builds that table from a whole row; runs
keep one table per node instead and, on each opinion change, move the
changed node's weight from its old rank to its new one in every listener's
table, so a change costs one entry per listener rather than every
listener's whole row.
"""

from __future__ import annotations


def encode_profile(values):
    """Map a profile to rank ints; returns (state list, decode table)."""
    try:
        table = sorted(set(values))
    except TypeError as exc:
        raise ValueError("opinion values must be mutually comparable") from exc
    rank = {v: k for k, v in enumerate(table)}
    return [rank[v] for v in values], table


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


def median_of(masses, denom, ref):
    """Closest weighted median of a mass table, clamping ``ref`` into it.

    ``masses`` maps ranks to positive integer masses summing to ``denom``.
    The median interval starts at the first rank whose cumulative mass
    reaches half; it also takes the next rank when that cumulative mass is
    exactly half.  Ranks outside the table never become interval endpoints,
    so the table is enough.
    """
    ranks = sorted(masses)
    below = 0
    for k, v in enumerate(ranks):
        below += masses[v]
        if 2 * below >= denom:
            lo = v
            hi = ranks[k + 1] if 2 * below == denom else v
            break
    if ref < lo:
        return lo
    if ref > hi:
        return hi
    return ref


def update_value(int_rows, state, i):
    """New value for node i: its closest weighted median of the profile."""
    row = int_rows[i]
    return median_of(row_masses(row, state), row[2], state[i])


def successors(int_rows, state: tuple):
    """Yield ``(i, next_state)`` for every node whose update moves it.

    Nodes come in index order.  A state is an equilibrium exactly when it
    has no successor.
    """
    for i in range(len(state)):
        new = update_value(int_rows, state, i)
        if new != state[i]:
            yield i, state[:i] + (new,) + state[i + 1 :]
