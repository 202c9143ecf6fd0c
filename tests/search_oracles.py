"""Reference consensus searches that share no code with ``equilibria``.

``successors`` steps every node by a full ``_engine.update_value`` call, with
no packed states or memos.  ``distinct_profile_search`` asks the
all-distinct form of the reachability question: can some permutation of the
ranks ``range(n)`` reach consensus on any value?  Tests require
``decide_consensus_reachable``, which searches one-zero ternary profiles for
the all-zero state, to give the same verdict.
"""

from __future__ import annotations

from itertools import permutations

from median_consensus import _engine


def successors(int_rows, state: tuple):
    """Yield ``(i, next_state)`` for every node whose update moves it, in
    index order, by a full ``update_value`` per node."""
    for i in range(len(state)):
        new = _engine.update_value(int_rows, state, i)
        if new != state[i]:
            yield i, state[:i] + (new,) + state[i + 1 :]


def distinct_profile_search(net):
    """Rank-permutation consensus search over ``range(n)``, with its own BFS
    and the order-reversal symmetry ``v -> n - 1 - v``."""
    n = net.n
    if n == 1:
        return True
    rows = net.integer_rows
    dead = set()
    top = n - 1

    def mirror(s):
        return tuple(top - v for v in s)

    for perm in permutations(range(n)):
        y0 = tuple(perm)
        if min(y0, mirror(y0)) in dead:
            continue
        seen = {y0}
        frontier = [y0]
        while frontier:
            nxt = []
            for s in frontier:
                for _, s2 in successors(rows, s):
                    if s2 in seen or min(s2, mirror(s2)) in dead:
                        continue
                    if len(set(s2)) == 1:
                        return True
                    seen.add(s2)
                    nxt.append(s2)
            frontier = nxt
        for s in seen:
            dead.add(min(s, mirror(s)))
    return False
