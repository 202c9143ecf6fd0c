"""Exact weighted medians of ordered opinion profiles.

A profile pairs opinion values (anything totally ordered: ints, Fractions,
ordinal labels) with nonnegative rational weights summing to one.  A value
``v`` drawn from the profile is a weighted median when the weight strictly
below ``v`` and the weight strictly above ``v`` are each at most one half.
The qualifying values always form a non-empty, contiguous run of the sorted
profile values, so picking the median closest to a reference value needs
only order comparisons, never a metric.

All mass comparisons use :class:`fractions.Fraction`; floats are rejected at
ingestion so that the half-threshold tests are exact.
"""

from __future__ import annotations

from decimal import Decimal
from fractions import Fraction
from numbers import Rational
from typing import Sequence

HALF = Fraction(1, 2)

__all__ = [
    "HALF",
    "to_fraction",
    "validate_weights",
    "weighted_median_set",
    "closest_weighted_median",
    "l1_best_responses",
]


def to_fraction(value) -> Fraction:
    """Convert ``value`` to an exact Fraction.

    Accepts integers, Fractions/Rationals, and strings such as ``"2/5"`` or
    ``"0.125"`` (decimal strings convert exactly).  Floats are refused: their
    binary rounding would silently corrupt comparisons against 1/2.  So is
    exponent notation (``"1e3"``): ``Fraction`` expands the power exactly, at
    a cost that grows faster than the exponent.
    """
    if isinstance(value, bool):
        raise TypeError("booleans are not valid weights or opinions")
    if isinstance(value, float):
        # The suggested string is positional: "1e-05" would be refused.
        raise TypeError(
            f"refusing float {value!r}: pass a string like '{Decimal(repr(value)):f}' "
            "or a Fraction to keep arithmetic exact"
        )
    if isinstance(value, (int, Rational)):
        return Fraction(value)
    if isinstance(value, str):
        try:
            if "e" in value or "E" in value:
                raise ValueError("exponent notation")
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"cannot parse rational from {value!r}") from exc
    raise TypeError(f"cannot convert {type(value).__name__} to Fraction")


def validate_weights(weights: Sequence, *, expected_len: int | None = None) -> tuple[Fraction, ...]:
    """Check a weight vector: nonnegative rationals summing exactly to 1."""
    w = tuple(to_fraction(v) for v in weights)
    if expected_len is not None and len(w) != expected_len:
        raise ValueError(f"expected {expected_len} weights, got {len(w)}")
    if not w:
        raise ValueError("weight vector is empty")
    if any(v < 0 for v in w):
        raise ValueError("weights must be nonnegative")
    total = sum(w)
    if total != 1:
        raise ValueError(f"weights must sum to 1 exactly, got {total}")
    return w


def _aggregate(values: Sequence, weights: tuple[Fraction, ...]) -> tuple[list, dict]:
    """Sort the distinct profile values and sum the weight carried by each."""
    mass: dict = {}
    for v, wt in zip(values, weights):
        if v in mass:
            mass[v] += wt
        else:
            mass[v] = wt
    try:
        ordered = sorted(mass)
    except TypeError as exc:
        raise TypeError("opinion values must be mutually comparable") from exc
    return ordered, mass


def weighted_median_set(values: Sequence, weights: Sequence) -> tuple:
    """All weighted medians of the profile, sorted ascending.

    A profile value qualifies when the total weight strictly below it and
    strictly above it are both <= 1/2.  Duplicate values are aggregated by
    summing their weights first; zero-weight values still count as
    candidates.  The result is never empty and is always a contiguous run of
    the sorted distinct values: when it has more than one element, the weight
    below its top and above its bottom both equal exactly 1/2 and every
    strictly interior value carries zero weight.
    """
    vals = list(values)
    if not vals:
        raise ValueError("opinion profile is empty")
    w = validate_weights(weights, expected_len=len(vals))
    ordered, mass = _aggregate(vals, w)
    below = Fraction(0)
    medians = []
    for v in ordered:
        above = 1 - below - mass[v]
        if below <= HALF and above <= HALF:
            medians.append(v)
        elif medians:
            break
        below += mass[v]
    if not medians:
        raise AssertionError("a weighted median always exists for normalized weights")
    return tuple(medians)


def closest_weighted_median(values: Sequence, weights: Sequence, reference):
    """The unique weighted median closest in order to ``reference``.

    ``reference`` must itself occur in the profile.  Because the median set
    is an order-contiguous run of profile values, a reference lying weakly
    inside the run is itself a median, and one lying outside has a strictly
    nearest endpoint -- so the choice is always unique and needs no distance.
    """
    vals = list(values)
    if not any(v == reference for v in vals):
        raise ValueError(f"reference {reference!r} does not occur in the profile")
    medians = weighted_median_set(vals, weights)
    lo, hi = medians[0], medians[-1]
    if reference < lo:
        return lo
    if reference > hi:
        return hi
    # A profile value weakly inside the run must itself qualify.
    assert reference in medians
    return reference


def l1_best_responses(values: Sequence, weights: Sequence) -> tuple:
    """Profile values minimizing the weighted absolute deviation.

    Returns, sorted ascending, the values ``z`` drawn from the profile that
    minimize ``sum_j w_j * |z - x_j|``.  Requires a numeric opinion encoding
    (ints or Fractions); purely ordinal profiles are rejected since the
    objective needs differences.  Intended as an independent check: the
    minimizer set coincides with :func:`weighted_median_set`.
    """
    vals = list(values)
    if not vals:
        raise ValueError("opinion profile is empty")
    for v in vals:
        if isinstance(v, bool) or not isinstance(v, (int, Rational)):
            raise TypeError(
                f"best-response objective needs numeric opinions, got {type(v).__name__}"
            )
    w = validate_weights(weights, expected_len=len(vals))
    candidates = sorted(set(vals))
    best_vals = []
    best_obj = None
    for z in candidates:
        obj = Fraction(0)
        for v, wt in zip(vals, w):
            if wt:
                obj += wt * abs(z - v)
        if best_obj is None or obj < best_obj:
            best_obj = obj
            best_vals = [z]
        elif obj == best_obj:
            best_vals.append(z)
    return tuple(best_vals)
