"""Median-set core: exact values, definition oracle, L1 cross-check."""

from __future__ import annotations

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_weights
from median_consensus import (
    InfluenceNetwork,
    _engine,
    closest_weighted_median,
    l1_best_responses,
    to_fraction,
    validate_weights,
    weighted_median_set,
)


def oracle_median_set(values, weights):
    """Direct transcription of the definition: x* qualifies iff the total
    weight strictly below and strictly above are each at most 1/2."""
    half = F(1, 2)
    out = []
    for x in sorted(set(values)):
        below = sum((w for v, w in zip(values, weights) if v < x), F(0))
        above = sum((w for v, w in zip(values, weights) if v > x), F(0))
        if below <= half and above <= half:
            out.append(x)
    return tuple(out)


def oracle_encode_profile(values):
    """``_engine.encode_profile`` as first written: sort the set of values,
    then look every value up in a rank dict."""
    try:
        table = sorted(set(values))
    except TypeError as exc:
        raise ValueError("opinion values must be mutually comparable") from exc
    rank = {v: k for k, v in enumerate(table)}
    return [rank[v] for v in values], table


class TestKnownValues:
    VALUES = (1, 2, 3)
    WEIGHTS = (F(1, 5), F(3, 10), F(1, 2))

    def test_median_set(self):
        assert weighted_median_set(self.VALUES, self.WEIGHTS) == (2, 3)

    def test_l1_objectives(self):
        # sum of w_j * |z - x_j| evaluated at each candidate z
        def cost(z):
            return sum((w * abs(z - v) for v, w in zip(self.VALUES, self.WEIGHTS)), F(0))

        assert cost(1) == F(13, 10)
        assert cost(2) == F(7, 10)
        assert cost(3) == F(7, 10)

    def test_best_responses_match_median_set(self):
        assert l1_best_responses(self.VALUES, self.WEIGHTS) == (2, 3)

    def test_closest_clamps_from_below(self):
        assert closest_weighted_median(self.VALUES, self.WEIGHTS, 1) == 2

    def test_closest_identity_inside(self):
        assert closest_weighted_median(self.VALUES, self.WEIGHTS, 2) == 2
        assert closest_weighted_median(self.VALUES, self.WEIGHTS, 3) == 3

    def test_majority_weight_pins_median(self):
        # one agent holding weight > 1/2 is the unique median
        assert weighted_median_set((5, 9), (F(2, 3), F(1, 3))) == (5,)

    def test_half_half_spans_both(self):
        assert weighted_median_set((0, 1), (F(1, 2), F(1, 2))) == (0, 1)


class TestZeroWeightValues:
    def test_zero_weight_value_inside_interval_is_median(self):
        values = (0, 1, 2)
        weights = (F(1, 2), F(0), F(1, 2))
        assert weighted_median_set(values, weights) == (0, 1, 2)

    def test_zero_weight_reference_kept_when_median(self):
        values = (0, 1, 2)
        weights = (F(1, 2), F(0), F(1, 2))
        assert closest_weighted_median(values, weights, 1) == 1

    def test_zero_weight_value_outside_interval_excluded(self):
        values = (0, 1, 5)
        weights = (F(0), F(1), F(0))
        assert weighted_median_set(values, weights) == (1,)
        assert closest_weighted_median(values, weights, 5) == 1


class TestValidation:
    def test_float_weight_rejected(self):
        with pytest.raises(TypeError, match="exact"):
            weighted_median_set((1, 2), (0.5, F(1, 2)))

    def test_bool_rejected(self):
        with pytest.raises(TypeError):
            to_fraction(True)

    def test_string_weight_parsed(self):
        assert to_fraction("3/10") == F(3, 10)
        assert to_fraction("0.25") == F(1, 4)

    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum"):
            validate_weights((F(1, 2), F(1, 3)))

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            validate_weights((F(3, 2), F(-1, 2)))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            weighted_median_set((1, 2, 3), (F(1, 2), F(1, 2)))

    def test_empty_profile(self):
        with pytest.raises(ValueError):
            weighted_median_set((), ())

    def test_incomparable_values(self):
        with pytest.raises(TypeError, match="comparable"):
            weighted_median_set((1, "a"), (F(1, 2), F(1, 2)))

    def test_reference_must_occur(self):
        with pytest.raises(ValueError):
            closest_weighted_median((1, 2), (F(1, 2), F(1, 2)), 7)

    def test_best_responses_need_numeric_values(self):
        with pytest.raises(TypeError):
            l1_best_responses(("a", "b"), (F(1, 2), F(1, 2)))


class TestRandomizedAgreement:
    """The scan implementation, the definition oracle, and the L1 argmin must
    agree on every profile; the spread of cases includes ties and zeros."""

    CASES = 400

    def test_scan_matches_definition_oracle(self):
        rnd = random.Random(0xA11CE)
        for _ in range(self.CASES):
            n = rnd.randint(1, 9)
            values = tuple(rnd.randint(-3, 3) for _ in range(n))
            weights = tuple(random_weights(rnd, n, max_den=40))
            assert weighted_median_set(values, weights) == oracle_median_set(values, weights)

    def test_scan_matches_l1_argmin(self):
        rnd = random.Random(0xB0B)
        for _ in range(self.CASES):
            n = rnd.randint(1, 8)
            values = tuple(F(rnd.randint(-6, 6), rnd.randint(1, 4)) for _ in range(n))
            weights = tuple(random_weights(rnd, n, max_den=30))
            assert weighted_median_set(values, weights) == l1_best_responses(values, weights)

    def test_median_set_is_contiguous_run_of_sorted_values(self):
        rnd = random.Random(7)
        for _ in range(self.CASES):
            n = rnd.randint(2, 9)
            values = tuple(rnd.randint(0, 4) for _ in range(n))
            weights = tuple(random_weights(rnd, n, max_den=24))
            med = weighted_median_set(values, weights)
            distinct = sorted(set(values))
            lo = distinct.index(med[0])
            assert list(med) == distinct[lo:lo + len(med)]

    def test_closest_is_nearest_in_order(self):
        rnd = random.Random(99)
        for _ in range(self.CASES):
            n = rnd.randint(1, 8)
            values = tuple(rnd.randint(0, 5) for _ in range(n))
            weights = tuple(random_weights(rnd, n, max_den=24))
            med = weighted_median_set(values, weights)
            ref = values[rnd.randrange(n)]
            got = closest_weighted_median(values, weights, ref)
            if ref < med[0]:
                assert got == med[0]
            elif ref > med[-1]:
                assert got == med[-1]
            else:
                assert got == ref


@st.composite
def cleared_rows(draw):
    """Node 0's row of a network, cleared to integers, with a rank profile.

    Weights are either arbitrary rationals or small equal-ish integers,
    which make exact half ties common; ranks come from a few labels so
    values repeat.
    """
    size = draw(st.integers(1, 8))
    parts = st.one_of(
        st.builds(F, st.integers(1, 40), st.integers(1, 40)),
        st.integers(1, 3).map(F),
    )
    raw = draw(st.lists(parts, min_size=size, max_size=size))
    n = size + 1
    edges = [(0, j, w) for j, w in enumerate(raw, start=1)]
    edges += [(j, j, 1) for j in range(1, n)]
    net = InfluenceNetwork.from_edges(n, edges, normalize=True)
    labels = draw(st.integers(0, 5))
    state = draw(st.lists(st.integers(0, labels), min_size=n, max_size=n))
    return net, state


class TestEngineMedian:
    @settings(max_examples=200, deadline=None)
    @given(cleared_rows())
    def test_median_of_matches_closest_weighted_median(self, case):
        net, state = case
        rows = net.integer_rows
        masses = _engine.row_masses(rows[0], state)
        values = tuple(state[j] for j, _ in net.rows[0])
        weights = tuple(w for _, w in net.rows[0])
        lo, _, hi = _engine.median_bounds(sorted(masses), masses, rows[0][2])
        medians = weighted_median_set(values, weights)
        assert (lo, hi) == (medians[0], medians[-1])
        # Node 0 has no self-loop, so its own rank is only the reference.
        for ref in range(-1, max(state) + 2):
            expected = closest_weighted_median(values + (ref,), weights + (F(0),), ref)
            assert _engine.update_value(rows, [ref, *state[1:]], 0) == expected


# Small ints and Fractions equal to some of them (2 and F(4, 2)), strings,
# and mixes: numbers with strings are incomparable, and lists unhashable.
numbers = st.one_of(st.integers(-3, 3), st.builds(F, st.integers(-6, 6), st.integers(1, 3)))
labels = st.sampled_from(["a", "b", "ab"])
profiles = st.one_of(
    st.lists(numbers, max_size=12),
    st.lists(labels, max_size=12),
    st.lists(st.one_of(numbers, labels, st.lists(st.integers(0, 1), max_size=1)), max_size=6),
)


class TestEncodeProfile:
    @settings(max_examples=300, deadline=None)
    @given(profiles)
    def test_matches_sorted_set_oracle(self, values):
        try:
            expected = oracle_encode_profile(values)
        except ValueError:
            with pytest.raises(ValueError, match="mutually comparable"):
                _engine.encode_profile(values)
            return
        state, table = _engine.encode_profile(values)
        assert (state, table) == expected
        assert all(got is want for got, want in zip(table, expected[1], strict=True))

    def test_keeps_first_seen_object(self):
        one = F(1)
        state, table = _engine.encode_profile([one, 1])
        assert state == [0, 0] and table == [one] and table[0] is one
        state, table = _engine.encode_profile([1, F(1, 2), one])
        assert state == [1, 0, 1] and type(table[1]) is int

    @pytest.mark.parametrize("values", [[[1], 2], [0, "a"]], ids=["list-valued", "int-and-str"])
    def test_unhashable_or_incomparable_refused(self, values):
        with pytest.raises(ValueError, match="mutually comparable"):
            _engine.encode_profile(values)
