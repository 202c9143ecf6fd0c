"""A reference for decisive links on rows too wide to enumerate.

``per_edge_decisive`` shares no code with ``network``: for each link on its
own it clears the row's ``Fraction`` weights to integers, builds the subset
sums of both halves of the other weights afresh, and bisects for a pair
whose total lies strictly between 1/2 - w_ij and 1/2.  Tests require
``decisive_subgraph``, whose meet-in-the-middle shares each row's halves
across its links, to give the same links.
"""

from __future__ import annotations

import math
from bisect import bisect_right


def _sums(weights) -> list[int]:
    out = [0]
    for w in weights:
        out += [s + w for s in out]
    return out


def per_edge_decisive(net) -> frozenset:
    """Every decisive link ``(i, j)``, one meet-in-the-middle per link."""
    found = set()
    for i, row in enumerate(net.rows):
        denom = math.lcm(*(w.denominator for _j, w in row))
        cleared = [(j, w.numerator * (denom // w.denominator)) for j, w in row]
        for j, wj in cleared:
            others = [w for t, w in cleared if t != j]
            right = sorted(_sums(others[len(others) // 2 :]))
            for a in _sums(others[: len(others) // 2]):
                # The largest b with 2 * (a + b) < denom, then test the
                # lower end: denom - 2 * wj < 2 * (a + b).
                k = bisect_right(right, (denom - 1) // 2 - a) - 1
                if k >= 0 and denom - 2 * wj < 2 * (a + right[k]):
                    found.add((i, j))
                    break
    return frozenset(found)
