"""Row-by-row oracle for the validation in ``InfluenceNetwork.__post_init__``.

``oracle_row_fault`` checks one stored row ``(nbrs, wints, denom)`` in full,
rule by rule, with the messages of ``network._row_fault``; rows and their
neighbor and weight fields must be tuples.  It shares
nothing across rows, so it cannot be fooled by rows that hold the same
weight tuple.
"""

from __future__ import annotations

import math
from fractions import Fraction


def _json_int(raw) -> bool:
    return isinstance(raw, int) and not isinstance(raw, bool)


def oracle_row_fault(nbrs, wints, denom, n: int) -> str | None:
    """What is wrong with one stored row, or None when it is valid."""
    if not (isinstance(nbrs, tuple) and isinstance(wints, tuple)):
        return (
            "neighbors and weights must be tuples, got "
            f"{type(nbrs).__name__} and {type(wints).__name__}"
        )
    if len(nbrs) != len(wints):
        return f"{len(nbrs)} neighbors but {len(wints)} weights"
    for j in nbrs:
        if not (_json_int(j) and 0 <= j < n):
            return f"edge endpoints must be ints in 0..{n - 1}, got {j!r}"
    for a, b in zip(nbrs, nbrs[1:]):
        if a >= b:
            return f"duplicate edge to {a}" if a == b else "neighbor indices must increase"
    for j, w in zip(nbrs, wints):
        if not (_json_int(w) and w > 0):
            return f"weight on {j} must be positive (integer numerator, got {w!r})"
    if not (_json_int(denom) and denom > 0):
        return f"denominator must be a positive int, got {denom!r}"
    total = sum(wints)
    if total != denom:
        return f"weights sum to {Fraction(total, denom)}, expected exactly 1"
    common = math.gcd(*wints)
    if common != 1:
        return f"weights and denominator share the factor {common}; store the row in lowest terms"
    return None


def oracle_network_fault(n: int, rows) -> str | None:
    """The message for the first faulty row of ``rows``, or None."""
    for i, row in enumerate(rows):
        if not (isinstance(row, tuple) and len(row) == 3):
            return f"row {i}: a row must be a tuple (neighbors, weights, denominator)"
        fault = oracle_row_fault(*row, n)
        if fault is not None:
            return f"row {i}: {fault}"
    return None
