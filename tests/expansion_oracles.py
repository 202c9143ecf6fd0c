"""Reference versions of the two majority expansions that do not use
``cohesion._expand``.

``rescan_cohesive_expansion`` recomputes every outside node's margin on each
admission, and ``two_loop_update_sequence`` writes out the escape and join
loops of ``build_update_sequence`` by hand.  Both compute their margins
here, straight from ``integer_rows``.  Tests require the library to give
exactly the same additions and schedules.
"""

from __future__ import annotations

from median_consensus import _engine, is_equilibrium, run


def margin(row, inside):
    """``2 * (row weight on nodes with inside[j]) - denom``, from ``integer_rows``."""
    nbrs, wints, denom = row
    return 2 * sum(w for j, w in zip(nbrs, wints) if inside[j]) - denom


def rescan_cohesive_expansion(net, members, order_hint=None):
    """``(result, additions)``: admit the strict-majority outsider that comes
    first in priority order, found by a full rescan, until none is left."""
    inside = [0] * net.n
    for i in members:
        inside[i] = 1
    priority = None
    if order_hint is not None:
        priority = {node: pos for pos, node in enumerate(order_hint)}
    rows = net.integer_rows
    additions = []
    while True:
        qualifiers = [
            i for i in range(net.n)
            if not inside[i] and margin(rows[i], inside) > 0
        ]
        if not qualifiers:
            break
        if priority is not None:
            chosen = min(qualifiers, key=priority.__getitem__)
        else:
            chosen = min(qualifiers)
        inside[chosen] = 1
        additions.append((chosen, len(additions) + 1))
    return frozenset(i for i in range(net.n) if inside[i]), tuple(additions)


def two_loop_update_sequence(net, x0):
    """``(schedule, terminal)`` from hand-written escape and join loops."""
    vals = list(x0)
    state, table = _engine.encode_profile(vals)
    rows = net.integer_rows
    n = net.n
    schedule = []
    for level in range(len(table) - 1):
        low = [int(v <= level) for v in state]
        # member=1: class members with a strict high-side majority escape;
        # member=0: outside nodes with a strict majority on the block join.
        for member, sign in ((1, -1), (0, 1)):
            start = 0
            while True:
                pick = next(
                    (i for i in range(start, n)
                     if low[i] == member and sign * margin(rows[i], low) > 0),
                    None,
                )
                if pick is None:
                    break
                state[pick] = _engine.update_value(rows, state, pick)
                if (state[pick] <= level) == member:
                    raise RuntimeError("update failed to cross the value class boundary")
                low[pick] ^= 1
                schedule.append(pick)
                start = min((pick + 1, *net.listener_weights[pick][0]))
    terminal = tuple(table[v] for v in state)
    traj = run(net, tuple(vals), tuple(schedule))
    if traj.terminal != terminal or not is_equilibrium(net, terminal):
        raise RuntimeError("constructed update sequence failed replay verification")
    return tuple(schedule), terminal
