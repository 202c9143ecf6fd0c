"""The indented JSON writer: byte-identical to json's own, and work that
does not grow with the length of an edge list."""

from __future__ import annotations

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from median_consensus import _io, cli, fixtures
from median_consensus._io import dumps_indented
from median_consensus.network import save_network


def oracle(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True)


# Each is a way a writer that joins encoded pieces could go wrong: a string
# holding the text of a separator, escapes, and text beyond ASCII.
_PITFALL_STRINGS = st.sampled_from(
    ["", "],\n    [", "],\n  [", "]", "[", '"', '\\"', "\\", "\x00\x1f\x7f", "\n", "é", "日本", " "]
)
_strings = st.one_of(_PITFALL_STRINGS, st.text(max_size=6))
_floats = st.one_of(
    st.floats(), st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 1e300])
)
_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.integers(),
    st.integers(2**64, 2**80),
    st.integers(-(2**80), -(2**64)),
    _floats,
    _strings,
)


def _dicts(values):
    # One family of keys per dict, so that the keys sort: json sorts before
    # it coerces, and keys of mixed families are tested on their own.
    return st.one_of(
        st.dictionaries(_strings, values, max_size=4),
        st.dictionaries(st.one_of(st.integers(), st.booleans(), _floats), values, max_size=4),
        st.dictionaries(st.none(), values, max_size=1),
    )


_values = st.recursive(
    _scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        _dicts(children),
        st.lists(st.lists(_scalars, min_size=1, max_size=3), min_size=1, max_size=4),
        st.lists(st.lists(_scalars, max_size=3).map(tuple), max_size=4),
    ),
    max_leaves=24,
)


class TestMatchesJson:
    @settings(max_examples=400, deadline=None)
    @given(_values)
    def test_byte_identical(self, value):
        assert dumps_indented(value) == oracle(value)

    @pytest.mark.parametrize(
        "value",
        [
            [], {}, [[]], [[], [1]], [[1], []], ([1], (2, 3)), [[1, 2], [3]], [1, [2], 3],
            [[1], {"a": [[2]]}, 4], {"e": [["],\n    [", 1], ["x"]]}, [[math.nan, -0.0]],
            {1: "a", 1.5: "b", True: "c"}, {None: [True, False, None]}, {math.inf: 0},
            [[2**70, -(2**70)]], 7, "s", None, 2.5,
        ],
    )
    def test_pitfalls(self, value):
        assert dumps_indented(value) == oracle(value)

    @pytest.mark.parametrize(
        "value",
        [
            {1: 0, "a": 0}, {None: 0, 1: 0}, {"a": 0, 2.5: 0}, {(1,): 0}, [1, {2, 3}],
            {"a": object()}, [[1, object()]], [{"a": [1, b"x"]}],
        ],
        ids=["int-str-keys", "none-int-keys", "str-float-keys", "tuple-key", "set-in-list",
             "object-value", "object-in-flat-list", "bytes-deep"],
    )
    def test_type_errors_where_json_raises_them(self, value):
        with pytest.raises(TypeError):
            oracle(value)
        with pytest.raises(TypeError):
            dumps_indented(value)

    def test_container_within_itself_recurses(self):
        looped: list = [1]
        looped.append(looped)
        with pytest.raises(RecursionError):
            dumps_indented({"a": looped})

    def test_saved_network_files_are_json_s_own(self, tmp_path):
        net = fixtures.lattice(3, 4)
        save_network(net, tmp_path / "lattice.json")
        expected = oracle(json.loads((tmp_path / "lattice.json").read_text())) + "\n"
        assert (tmp_path / "lattice.json").read_text() == expected


class TestWriterWork:
    """Exact generic layout steps of an ``analyze`` envelope: one per dict
    value and the envelope itself, none per edge."""

    def _analyze_steps(self, monkeypatch, capsys, tmp_path, net) -> int:
        path = tmp_path / "net.json"
        save_network(net, path)
        steps = 0
        inner = _io._layout

        def counted(*args):
            nonlocal steps
            steps += 1
            return inner(*args)

        with monkeypatch.context() as patch:
            patch.setattr(_io, "_layout", counted)
            assert cli.main(["analyze", "--network", str(path)]) == 0
        out = capsys.readouterr().out
        assert out == oracle(json.loads(out)) + "\n"
        return steps

    def test_edge_lists_are_not_laid_out_item_by_item(self, monkeypatch, capsys, tmp_path):
        small = self._analyze_steps(monkeypatch, capsys, tmp_path, fixtures.lattice(10, 10))
        large = self._analyze_steps(monkeypatch, capsys, tmp_path, fixtures.lattice(20, 20))
        # The envelope, its 5 values, 6 config values, 9 result values and
        # the 2 values of "globally_reachable".
        assert small == large == 23
