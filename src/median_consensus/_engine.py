"""Integer core of the median update.

Opinion order is all that matters to the update rule, so states are encoded
as small ints (ranks) and each row's weights are pre-cleared to integers
over a common denominator.  A median is read off a mass table
``{rank: integer mass}`` by comparing integer masses with the row's
denominator, never a Fraction with 1/2, and ``median_bounds`` decides the
median interval.  ``encode_profile`` hashes each distinct opinion object
once, so its hashing follows the number of objects the nodes share, not
the number of nodes.  It encodes the states of ``run``, ``step``,
``is_equilibrium`` and the searches, a fixed ensemble state once per
ensemble, and a custom ``draw`` once per replica; replicas of
``LabelUniform`` and ``GridUniform`` start from their integer picks and
encode nothing.  ``update_value`` builds the table from a whole row
and is the oracle for single steps and every memo entry of ``decide``'s
search.  Runs keep two masses per node instead, the row's mass below the
node's own rank and at or below it, and read a row only when its node
moves (``dynamics._run_encoded``); for a row that is not equal-weight,
``median_masses`` returns the new rank with both masses there.  Equilibrium
checks (``dynamics.is_equilibrium``) test the same two masses.  Cut
margins live in ``cohesion``, and ``median.py`` is the readable reference.
"""

from __future__ import annotations

from bisect import bisect_left


def encode_profile(values):
    """Map a profile to rank ints; returns (state list, decode table).

    The profile is first held in a list, which keeps every object alive
    while its ``id`` stands for it.  Nodes often share objects (a
    ``GridUniform`` draw handed to ``run`` holds at most ``points`` of
    them, and small ints are shared by Python), so one pass keys the
    objects by ``id`` and only the distinct objects are hashed: a dict merges equal ones by value
    in first-seen order, only the distinct values are sorted, and each
    node's rank is read back through its object's ``id``.  Equal but
    distinct objects share a rank, and ``table[rank]`` is the first-seen
    object among equal values (``[1, Fraction(1)]`` keeps ``1``).
    Unhashable or mutually incomparable values raise ``ValueError``.
    """
    vals = list(values)
    ids = list(map(id, vals))
    objects = dict(zip(ids, vals))
    codes: dict = {}
    try:
        object_codes = [codes.setdefault(v, len(codes)) for v in objects.values()]
        distinct = list(codes)
        order = sorted(range(len(distinct)), key=distinct.__getitem__)
    except TypeError as exc:
        raise ValueError("opinion values must be mutually comparable") from exc
    rank = [0] * len(order)
    for k, code in enumerate(order):
        rank[code] = k
    rank_of = dict(zip(objects, map(rank.__getitem__, object_codes)))
    return list(map(rank_of.__getitem__, ids)), [distinct[c] for c in order]


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
    """``(lo, hi)``: the median interval of a mass table.

    ``ranks`` are the table's occupied ranks in order and ``masses`` maps
    them to positive integer masses summing to ``denom``.  ``lo`` is the
    first rank whose cumulative mass reaches half (the lower median); ``hi``
    is the next occupied rank when that mass is exactly half, else ``lo``.
    Ranks outside the table never become interval endpoints, so the table
    is enough.
    """
    below = 0
    for k, v in enumerate(ranks):
        below += masses[v]
        if 2 * below >= denom:
            return v, ranks[k + 1] if 2 * below == denom else v


def median_masses(row, state, v):
    """``(x, lt, le)`` for one ``integer_rows`` entry: ``x`` is ``v`` clamped
    into the row's median interval, and ``lt`` and ``le`` are the row's
    masses strictly below ``x`` and at or below it."""
    masses = row_masses(row, state)
    ranks = sorted(masses)
    lo, hi = median_bounds(ranks, masses, row[2])
    x = lo if v < lo else hi if v > hi else v
    lt = sum(map(masses.__getitem__, ranks[: bisect_left(ranks, x)]))
    return x, lt, lt + masses.get(x, 0)


def update_value(int_rows, state, i):
    """New value for node i: its closest weighted median of the profile,
    ``state[i]`` clamped into the median interval."""
    row = int_rows[i]
    masses = row_masses(row, state)
    lo, hi = median_bounds(sorted(masses), masses, row[2])
    v = state[i]
    return lo if v < lo else hi if v > hi else v
