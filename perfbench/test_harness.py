"""Tests of the benchmark's own arithmetic.

    python3 -m pytest perfbench
"""

import math
import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from harness import (  # noqa: E402
    Span,
    Tracer,
    failed_frac,
    item_means,
    self_times,
    tail_percentile,
    value_at_percentile,
)
import run  # noqa: E402
from run import interleave  # noqa: E402
from workloads import decisive_edges_mitm, uniform_row_expectations  # noqa: E402

from median_consensus import decisive_subgraph, fixtures  # noqa: E402
from median_consensus.network import InfluenceNetwork  # noqa: E402


def test_tail_leaves_exactly_ten_samples_beyond():
    samples = list(range(100, 0, -1))  # unsorted on purpose
    value, percentile, n = tail_percentile(samples)
    assert (value, percentile, n) == (90, 90.0, 100)
    assert sum(s > value for s in samples) == 10


def test_tail_on_the_smallest_sample_count():
    value, percentile, n = tail_percentile([5.0] * 10 + [1.0])
    assert (value, n) == (1.0, 11)
    assert percentile == pytest.approx(100 / 11)


def test_value_at_percentile_inverts_the_tail():
    for samples in (list(range(100, 0, -1)), [5.0] * 10 + [1.0], [0.3 * k % 7 for k in range(37)]):
        value, percentile, _ = tail_percentile(samples)
        assert value_at_percentile(samples, percentile) == value
    assert value_at_percentile([3, 1, 2, 4], 50) == 2
    assert value_at_percentile([3, 1, 2, 4], 51) == 3
    assert value_at_percentile([3, 1, 2, 4], 0) == 1


def test_tail_needs_more_samples_than_the_tail():
    with pytest.raises(ValueError):
        tail_percentile(list(range(10)))


def _span(name, start, end, parent=None, inner=0.0):
    return Span(name, start, parent, op=1, end=end, inner=inner)


def test_self_time_subtracts_children_and_charged_calls():
    spans = [
        _span("root", 0.0, 10.0, inner=1.0),
        _span("a", 1.0, 3.0, parent=0),
        _span("b", 4.0, 8.0, parent=0, inner=0.5),
        _span("b.child", 5.0, 6.0, parent=2),
    ]
    assert self_times(spans) == pytest.approx([10 - 2 - 4 - 1.0, 2.0, 4 - 1 - 0.5, 1.0])


def test_self_time_counts_overlapping_children_once():
    spans = [
        _span("root", 0.0, 10.0),
        _span("a", 2.0, 6.0, parent=0),
        _span("b", 5.0, 12.0, parent=0),  # overlaps a and outlives the parent
    ]
    assert self_times(spans)[0] == pytest.approx(2.0)


def test_tracer_nesting_sets_parent_op_and_charge():
    tr = Tracer()
    with tr.span("outer"):
        with tr.span("inner"):
            tr.charge(0.25)
    with tr.span("next"):
        pass
    outer, inner, nxt = tr.spans
    assert inner.parent == outer.index == 0
    assert outer.parent is None and nxt.parent is None
    assert (outer.op, inner.op, nxt.op) == (1, 1, 2)
    assert inner.inner == 0.25 and outer.inner == 0.0


def test_failed_frac():
    assert failed_frac(0, 1000) == 0.0
    assert failed_frac(3, 12) == 0.25
    with pytest.raises(ValueError):
        failed_frac(0, 0)
    with pytest.raises(ValueError):
        failed_frac(5, 4)


def test_interleave_runs_every_phase_and_honours_counts():
    calls = []

    def unit(name):
        return lambda k: calls.append(name) or k

    results = interleave(
        {
            "a": (unit("a"), 1.0, 3, math.inf),
            "b": (unit("b"), 1.0, 1, 2),
        },
        seconds=0.0,
    )
    assert calls[:2] == ["a", "b"]  # one unit of each phase first, in order
    assert results["a"] == [0, 1, 2]
    assert results["b"] == [0]


def test_interleave_gives_each_phase_its_share_of_time(monkeypatch):
    clock = [0.0]
    monkeypatch.setattr(run.time, "perf_counter", lambda: clock[0])

    def unit(seconds):
        def advance(k):
            clock[0] += seconds
            return k

        return advance

    results = interleave(
        {
            "short": (unit(1.0), 0.5, 1, math.inf),
            "long": (unit(4.0), 0.5, 1, math.inf),
        },
        seconds=100.0,
    )
    # each phase stops before a unit would take it past share * seconds
    assert len(results["short"]) == 50
    assert len(results["long"]) == 12
    assert clock[0] == 98.0

    clock[0] = 0.0
    results = interleave(
        {
            "short": (unit(1.0), 0.5, 1, math.inf),
            "long": (unit(4.0), 0.4, 1, math.inf),
            "fixed": (unit(6.0), 0.1, 3, 3),
        },
        seconds=100.0,
    )
    # a fixed count runs past its share; the others stop at the deadline
    assert len(results["fixed"]) == 3
    assert (len(results["short"]), len(results["long"])) == (46, 9)
    assert clock[0] <= 100.0


def test_item_means_takes_every_nth_value():
    values = [1.0, 10.0, 100.0, 3.0, 30.0, 300.0, 2.0, 20.0]
    assert item_means(values, 3) == [2.0, 20.0, 200.0]
    assert item_means([5.0], 1) == [5.0]
    with pytest.raises(ValueError):
        item_means([1.0], 2)


def test_uniform_rows_closed_form_matches_the_program():
    for net in (fixtures.lattice(5, 4), fixtures.complete_uniform(7), fixtures.complete_uniform(6)):
        sub = decisive_subgraph(net)
        decisive, _ = uniform_row_expectations(net)
        assert decisive == len(sub.edges)


def test_meet_in_the_middle_matches_the_program():
    p = 4194319  # a prime above 2^22
    weights = [1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 377, 610]
    weights.append(p - sum(weights))
    net = InfluenceNetwork.from_edges(
        15, [(i, j, Fraction(weights[(j - i) % 15], p)) for i in range(15) for j in range(15)]
    )
    assert decisive_edges_mitm(net) == decisive_subgraph(net).edges
