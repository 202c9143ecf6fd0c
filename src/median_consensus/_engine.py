"""Integer core of the median update.

Opinion order is all that matters to the update rule, so states are encoded
as small ints (ranks) and each row's weights are pre-cleared to integers
over a common denominator.  A median is read off a mass table
``{rank: integer mass}`` by comparing integer masses with the row's
denominator, never a Fraction with 1/2, and ``median_bounds`` decides the
median interval.  ``update_value`` builds the table from a whole row and is
the oracle for single steps, equilibrium checks and every memo entry of
``decide``'s search.  Runs set up one table per node with ``median_bounds``,
then walk each interval incrementally as opinions change
(``dynamics._run_encoded``).  Cut margins live in ``cohesion``, and
``median.py`` is the readable reference.
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


def median_bounds(ranks, masses, denom):
    """``(lo, below, hi)``: the median interval of a mass table.

    ``ranks`` are the table's occupied ranks in order and ``masses`` maps
    them to positive integer masses summing to ``denom``.  ``lo`` is the
    first rank whose cumulative mass reaches half (the lower median) and
    ``below`` that mass; ``hi`` is the next occupied rank when ``below`` is
    exactly half, else ``lo``.  Ranks outside the table never become
    interval endpoints, so the table is enough.
    """
    below = 0
    for k, v in enumerate(ranks):
        below += masses[v]
        if 2 * below >= denom:
            return v, below, ranks[k + 1] if 2 * below == denom else v


def update_value(int_rows, state, i):
    """New value for node i: its closest weighted median of the profile,
    ``state[i]`` clamped into the median interval."""
    row = int_rows[i]
    masses = row_masses(row, state)
    lo, _, hi = median_bounds(sorted(masses), masses, row[2])
    v = state[i]
    return lo if v < lo else hi if v > hi else v
