"""Integer core: opinion updates and every half-threshold test.

Opinion order is all that matters to the update rule, so states are encoded
as small ints (ranks) and each row's weights are pre-cleared to integers
over a common denominator.  This module owns all half-threshold arithmetic:
the median update, the majority margin of a row on a node set, and the
successors of a state all compare integer masses against the denominator.
Dynamics, cohesion and equilibria call these functions instead of computing
with Fractions; ``median.py`` is the readable reference.
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


def update_value(int_rows, state, i):
    """New value for node i: its closest weighted median of the profile.

    Computes the median interval of the weights' support and clamps node
    i's current value into it; values outside the support never become
    interval endpoints, so the support is enough.
    """
    nbrs, wints, denom = int_rows[i]
    masses: dict = {}
    for j, w in zip(nbrs, wints):
        v = state[j]
        if v in masses:
            masses[v] += w
        else:
            masses[v] = w
    below = 0
    lo = hi = None
    for v in sorted(masses):
        m = masses[v]
        above = denom - below - m
        if 2 * below <= denom and 2 * above <= denom:
            if lo is None:
                lo = v
            hi = v
        elif lo is not None:
            break
        below += m
    ref = state[i]
    if ref < lo:
        return lo
    if ref > hi:
        return hi
    return ref


def successors(int_rows, state: tuple):
    """Yield ``(i, next_state)`` for every node whose update moves it.

    Nodes come in index order.  A state is an equilibrium exactly when it
    has no successor.
    """
    for i in range(len(state)):
        new = update_value(int_rows, state, i)
        if new != state[i]:
            yield i, state[:i] + (new,) + state[i + 1 :]
