"""Row-stochastic influence networks with exact rational weights.

A network over nodes ``0..n-1`` stores each row as integers: node i's
out-neighbors ``j``, positive integer weights, and the common denominator
they sum to, so that w_ij is a weight over that denominator and each row
sums to exactly 1.  Every half-threshold test reads this integer form; the
``Fraction`` weights are a view derived from it for export and inspection
(``rows``, ``weight``, ``edges``).  Node ``i`` listening to ``j`` means
``w_ij > 0``.  File formats (dense CSV and an edge list in JSON) use
1-indexed nodes; the in-memory API is 0-indexed.

A load works per weight token and per row shape, not per entry.  Each
distinct token is parsed once by ``to_fraction``, which refuses exponent
notation such as ``"1e3"``.  A row's shape is the tuple of its nonzero
weights in neighbor order, and each distinct shape is cleared to integers
once; rows of one shape share one stored weight tuple.  ``__post_init__``
checks the neighbors of every row and the weights once per weight tuple.

A link ``(i, j)`` is *decisive* when some subset of i's out-neighbors
containing j has weight strictly above 1/2 but drops strictly below 1/2 once
j is removed -- equivalently, some subset of the other neighbors has weight
in the open interval (1/2 - w_ij, 1/2).  As long as no subset of a row sums
to exactly 1/2, indecisive links never influence i's update (half-ties widen
median sets, and the tie-break can then track a formally indecisive
neighbor; ``has_half_ties`` detects that regime).  The decisive links form a
subgraph whose reachability structure separates networks that can reach
consensus from those that cannot.  Decisive links and half ties are both
answered by one exact subset-sum routine (``_row_hits``): a bitset of
reachable sums for denominators up to 2^22, and for larger ones a
meet-in-the-middle over the two halves of the row, shared by all of its
entries.  ``decisive_subgraph`` asks it once per distinct stored weight
tuple, so rows of one shape share their answers.  Past the bitset limit a
row is refused when an entry has more than 40 co-neighbors, that is when it
holds more than 41 weights.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain, compress
from operator import itemgetter, lt
from pathlib import Path
from typing import Iterable, Sequence

from ._io import atomic_write_text, dumps_indented, is_json_int, read_json
from .median import to_fraction

__all__ = [
    "InfluenceNetwork",
    "DecisiveSubgraph",
    "NetworkFormatError",
    "load_network",
    "network_from_csv_text",
    "network_from_json_dict",
    "network_to_csv_text",
    "network_to_json_dict",
    "network_to_dot",
    "save_network",
    "is_decisive",
    "decisive_subgraph",
    "has_half_ties",
    "has_globally_reachable_node",
]


# ``flat_rows`` sums row masses in int64 only below this denominator.
_FLAT_LIMIT = 2**62


class NetworkFormatError(ValueError):
    """Raised when a network file or payload fails validation."""


@dataclass(frozen=True)
class InfluenceNetwork:
    """Immutable weighted directed network with row-stochastic weights.

    ``integer_rows[i]`` is ``(neighbor indices, integer weights,
    denominator)``, tuples all: the indices increase, the weights are
    positive and sum to the denominator, and the row is in lowest terms.
    Equal weights therefore give equal rows, whichever constructor built
    them, and networks compare and hash by their weights.  Every constructor ends in
    ``__post_init__``, the one place where rows are validated.  ``rows``,
    ``weight`` and ``edges`` are ``Fraction`` views derived from the
    integer rows.
    """

    n: int
    integer_rows: tuple[tuple[tuple[int, ...], tuple[int, ...], int], ...]

    def __post_init__(self):
        n = self.n
        rows = self.integer_rows
        _check_node_count(n)
        if not isinstance(rows, tuple):
            raise NetworkFormatError(f"integer_rows must be a tuple, got {type(rows).__name__}")
        if len(rows) != n:
            raise NetworkFormatError(f"expected {n} rows, got {len(rows)}")
        # Neighbors are checked on every row, weights once per weight tuple:
        # rows the loader builds from one shape share one.  ``checked`` maps
        # id(wints) to a valid row's (wints, denom).  Holding wints keeps its
        # id from being reused, and an identity key cannot take a 1.0 or
        # True weight for a checked 1, as an equality key would.
        checked: dict[int, tuple] = {}
        for i, row in enumerate(rows):
            if type(row) is tuple and len(row) == 3:
                nbrs, wints, denom = row
                if (
                    type(nbrs) is tuple
                    and type(denom) is int
                    and checked.get(id(wints)) == (wints, denom)
                    and len(nbrs) == len(wints)
                    and _indices_increase(nbrs, n)
                ):
                    continue
            fault = _row_fault(row, n)
            if fault is not None:
                raise NetworkFormatError(f"row {i}: {fault}")
            checked[id(row[1])] = row[1], row[2]

    # -- construction -----------------------------------------------------

    @staticmethod
    def from_rows(rows: Sequence[Sequence]) -> "InfluenceNetwork":
        """Build from a dense matrix (any Fraction-convertible entries)."""
        return _dense_network(len(rows), rows)

    @staticmethod
    def from_edges(
        n: int, edges: Iterable[tuple], *, normalize: bool = False
    ) -> "InfluenceNetwork":
        """Build from ``(i, j, weight)`` triples over 0-indexed nodes.

        With ``normalize`` each row is divided by its sum; otherwise rows
        must already sum to exactly 1.
        """
        return _edge_network(n, list(edges), normalize, base=0)

    # -- Fraction views -----------------------------------------------------

    @cached_property
    def rows(self) -> tuple[tuple[tuple[int, Fraction], ...], ...]:
        """Row i as ``(j, w_ij)`` pairs with ``Fraction`` weights."""
        return tuple(
            tuple((j, Fraction(w, denom)) for j, w in zip(nbrs, wints))
            for nbrs, wints, denom in self.integer_rows
        )

    def weight(self, i: int, j: int) -> Fraction:
        """w_ij, zero when i does not listen to j."""
        nbrs, wints, denom = self.integer_rows[i]
        return Fraction(wints[nbrs.index(j)], denom) if j in nbrs else Fraction(0)

    def edges(self) -> Iterable[tuple[int, int, Fraction]]:
        """``(i, j, w_ij)`` for every link, row by row."""
        for i, (nbrs, wints, denom) in enumerate(self.integer_rows):
            for j, w in zip(nbrs, wints):
                yield i, j, Fraction(w, denom)

    # -- integer queries ----------------------------------------------------

    def out_neighbors(self, i: int) -> tuple[int, ...]:
        return self.integer_rows[i][0]

    @cached_property
    def listener_weights(self) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
        """For each node j: the nodes i that listen to j and the integer w_ij.

        Each weight is on the listener's own denominator in ``integer_rows``,
        so a change of x_j moves exactly that much of i's row mass from the
        old opinion to the new one.  Runs (``dynamics._run_encoded``) and
        cuts (``cohesion``) shift their listeners' masses by these rows.
        """
        nodes: list[list[int]] = [[] for _ in range(self.n)]
        wints: list[list[int]] = [[] for _ in range(self.n)]
        for i, (nbrs, ws, _) in enumerate(self.integer_rows):
            for j, w in zip(nbrs, ws):
                nodes[j].append(i)
                wints[j].append(w)
        return tuple((tuple(a), tuple(b)) for a, b in zip(nodes, wints))

    @cached_property
    def flat_rows(self):
        """``integer_rows`` as flat int64 arrays, or ``None`` past 2^62.

        ``(nbrs, wints, starts, lengths, denoms)``: every row's neighbor
        indices and weights one row after another, the index where each
        row begins, each row's length and its denominator.  Seeded replicas
        (``dynamics._flat_masses``) sum their starting masses over these in
        int64, which is exact while every denominator is below 2^62: a mass
        is at most its row's denominator, so twice a mass stays below 2^63.
        A network with a denominator of 2^62 or more gets ``None`` and
        keeps the Python set-up.  Built on first use, which loads numpy.
        """
        rows = self.integer_rows
        if any(d >= _FLAT_LIMIT for _, _, d in rows):
            return None
        import numpy as np

        lengths = [len(nbrs) for nbrs, _, _ in rows]
        total = sum(lengths)
        starts = np.zeros(self.n, np.int64)
        np.cumsum(lengths[:-1], out=starts[1:])
        return (
            np.fromiter(chain.from_iterable(nbrs for nbrs, _, _ in rows), np.int64, total),
            np.fromiter(chain.from_iterable(ws for _, ws, _ in rows), np.int64, total),
            starts,
            np.array(lengths, np.int64),
            np.fromiter((d for _, _, d in rows), np.int64, self.n),
        )

    @property
    def edge_count(self) -> int:
        return sum(len(nbrs) for nbrs, _, _ in self.integer_rows)


def _check_node_count(n) -> None:
    if not is_json_int(n) or n < 1:
        raise NetworkFormatError(f"invalid node count {n!r}: a network needs at least one node")


_INT = {int}


def _indices_increase(nbrs, n: int) -> bool:
    """Are ``nbrs`` plain ints, strictly increasing within 0..n-1?  A C-level
    test of the common case; when it fails, ``_row_fault`` checks the row
    rule by rule."""
    return (
        bool(nbrs)
        and _INT.issuperset(map(type, nbrs))
        and nbrs[0] >= 0
        and nbrs[-1] < n
        and all(map(lt, nbrs, nbrs[1:]))
    )


def _row_fault(row, n: int) -> str | None:
    """What is wrong with one stored row, or None when it is valid.  Rows
    and their fields are tuples, so that networks hash."""
    if not (isinstance(row, tuple) and len(row) == 3):
        return "a row must be a tuple (neighbors, weights, denominator)"
    nbrs, wints, denom = row
    if not (isinstance(nbrs, tuple) and isinstance(wints, tuple)):
        return (
            "neighbors and weights must be tuples, got "
            f"{type(nbrs).__name__} and {type(wints).__name__}"
        )
    if len(nbrs) != len(wints):
        return f"{len(nbrs)} neighbors but {len(wints)} weights"
    for j in nbrs:
        if not (is_json_int(j) and 0 <= j < n):
            return f"edge endpoints must be ints in 0..{n - 1}, got {j!r}"
    for a, b in zip(nbrs, nbrs[1:]):
        if a >= b:
            return f"duplicate edge to {a}" if a == b else "neighbor indices must increase"
    for j, w in zip(nbrs, wints):
        if not (is_json_int(w) and w > 0):
            return f"weight on {j} must be positive (integer numerator, got {w!r})"
    if not (is_json_int(denom) and denom > 0):
        return f"denominator must be a positive int, got {denom!r}"
    total = sum(wints)
    if total != denom:
        return f"weights sum to {Fraction(total, denom)}, expected exactly 1"
    common = math.gcd(*wints)
    if common != 1:
        return f"weights and denominator share the factor {common}; store the row in lowest terms"
    return None


def _cleared(weights: Sequence[Fraction], normalize: bool) -> tuple[tuple[int, ...], int]:
    """The stored ``(wints, denom)`` of a row of nonzero Fractions, unvalidated.

    The weights become integers over their least common denominator; with
    ``normalize`` the denominator is their sum, reduced by their gcd.
    """
    denom = math.lcm(*(w.denominator for w in weights))
    wints = tuple(w.numerator * (denom // w.denominator) for w in weights)
    if normalize and wints:
        common = math.gcd(*wints)
        wints = tuple(w // common for w in wints)
        denom = sum(wints)
    return wints, denom


class _RowShapes:
    """The weights of one load, parsed once per token and cleared once per
    row shape.

    ``code`` gives each weight token a small int: equal values share one, and
    zero is 0, so a row drops its zero entries by their code.  A row's shape
    is the tuple of its nonzero codes in neighbor order, and ``stored``
    clears each distinct shape once; rows of one shape share the stored
    ``(wints, denom)``.
    """

    def __init__(self, normalize: bool = False):
        self.normalize = normalize
        # Only str tokens are remembered as given: True, 1 and 1.0 hash
        # equal, so a shared key would let a bool or float weight through.
        self._tokens: dict[str, int] = {}
        self._values: dict[Fraction, int] = {Fraction(0): 0}
        self._weights: list[Fraction] = [Fraction(0)]
        self._shapes: dict[tuple[int, ...], tuple[tuple[int, ...], int]] = {}

    def code(self, raw) -> int:
        if type(raw) is str:
            code = self._tokens.get(raw)
            if code is None:
                code = self._tokens[raw] = self._value_code(to_fraction(raw))
            return code
        return self._value_code(to_fraction(raw))

    def _value_code(self, w: Fraction) -> int:
        code = self._values.get(w)
        if code is None:
            code = self._values[w] = len(self._weights)
            self._weights.append(w)
        return code

    def stored(self, shape: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
        known = self._shapes.get(shape)
        if known is None:
            weights = [self._weights[c] for c in shape]
            known = self._shapes[shape] = _cleared(weights, self.normalize)
        return known


def _dense_network(n: int, rows: Sequence[Sequence]) -> InfluenceNetwork:
    """Network from ``rows`` of ``n`` weights each; zero entries are dropped."""
    shapes = _RowShapes()
    stored = []
    for i, row in enumerate(rows):
        if len(row) != n:
            raise NetworkFormatError(f"row {i} has {len(row)} entries, expected {n}")
        codes = list(map(shapes.code, row))
        nbrs = tuple(compress(range(n), codes))
        stored.append((nbrs, *shapes.stored(tuple(filter(None, codes)))))
    return InfluenceNetwork(n, tuple(stored))


def _edge_network(n: int, edges: Sequence, normalize: bool, base: int) -> InfluenceNetwork:
    """Network from ``(i, j, weight)`` triples whose nodes count from ``base``."""
    # Both checked before the buckets exist, so a huge n costs nothing.
    _check_node_count(n)
    if n > len(edges):
        raise NetworkFormatError(
            f"n={n} but the edge list has {len(edges)} entries: every node needs a "
            "row of positive weights summing to 1"
        )
    shapes = _RowShapes(normalize)
    code = shapes.code
    top = n + base
    nbr_lists: list[list] = [[] for _ in range(n)]
    code_lists: list[list[int]] = [[] for _ in range(n)]
    for entry in edges:
        try:
            i, j, raw = entry
        except (TypeError, ValueError):
            raise NetworkFormatError(f"edge entry {entry!r} must be [i, j, weight]") from None
        if not (type(i) is int or is_json_int(i)) or not base <= i < top:
            raise NetworkFormatError(
                f"edge ({i!r}, {j!r}): endpoints must be ints in {base}..{top - 1}"
            )
        c = code(raw)
        if c:
            # Only a plain int is shifted; anything else reaches
            # __post_init__ as given, and it names it.
            nbr_lists[i - base].append(j - base if type(j) is int else j)
            code_lists[i - base].append(c)
    stored = []
    for nbrs, codes in zip(nbr_lists, code_lists):
        try:
            if not all(map(lt, nbrs, nbrs[1:])):
                nbrs, codes = zip(*sorted(zip(nbrs, codes), key=itemgetter(0)))
        except TypeError:
            pass  # a non-int index; __post_init__ names it
        stored.append((tuple(nbrs), *shapes.stored(tuple(codes))))
    return InfluenceNetwork(n, tuple(stored))


# -- file formats ----------------------------------------------------------


def network_from_csv_text(text: str) -> InfluenceNetwork:
    """Parse the dense CSV format: a header line with n, then n weight rows.

    Entries are rational strings ("1/3", "0.25", "0"); lines starting with
    '#' are ignored.
    """
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise NetworkFormatError("empty CSV network file")
    try:
        n = int(lines[0])
    except ValueError as exc:
        raise NetworkFormatError(f"CSV header must be the node count, got {lines[0]!r}") from exc
    rows = [[c.strip() for c in ln.split(",")] for ln in lines[1:]]
    try:
        return _dense_network(n, rows)
    except (TypeError, ValueError) as exc:
        raise NetworkFormatError(str(exc)) from exc


def network_to_csv_text(net: InfluenceNetwork) -> str:
    lines = [str(net.n)]
    for nbrs, wints, denom in net.integer_rows:
        cells = ["0"] * net.n
        for j, w in zip(nbrs, wints):
            cells[j] = str(Fraction(w, denom))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def network_from_json_dict(payload: dict) -> InfluenceNetwork:
    """Parse the JSON edge-list format.

    Schema: ``{"n": int, "normalize": bool, "edges": [[i, j, "p/q"], ...]}``
    with 1-indexed node numbers.  When ``normalize`` is true each row is
    divided by its sum; otherwise rows must already sum to exactly 1.
    Unknown keys (e.g. role annotations) are ignored.  Row faults found
    after parsing name nodes 0-indexed, as the in-memory API does.
    """
    if not isinstance(payload, dict):
        raise NetworkFormatError("JSON network payload must be an object")
    try:
        n = payload["n"]
        edges = payload["edges"]
    except KeyError as exc:
        raise NetworkFormatError(f"JSON network payload missing key {exc}") from exc
    if not isinstance(edges, list):
        raise NetworkFormatError(f"'edges' must be a list of [i, j, weight], got {edges!r}")
    normalize = payload.get("normalize", False)
    if not isinstance(normalize, bool):
        raise NetworkFormatError("'normalize' must be a boolean")
    try:
        return _edge_network(n, edges, normalize, base=1)
    except (TypeError, ValueError) as exc:
        raise NetworkFormatError(str(exc)) from exc


def network_to_json_dict(net: InfluenceNetwork) -> dict:
    return {
        "n": net.n,
        "normalize": False,
        "edges": [[i + 1, j + 1, str(w)] for i, j, w in net.edges()],
    }


def _file_format(path: Path, fmt: str | None) -> str:
    """``fmt``, or else the format named by the suffix: ``.csv`` or ``.json``."""
    if fmt is None:
        fmt = {".json": "json", ".csv": "csv"}.get(path.suffix.lower())
        if fmt is None:
            raise NetworkFormatError(
                f"cannot infer format from {path.name!r}; pass fmt='csv' or 'json'"
            )
    if fmt not in ("csv", "json"):
        raise NetworkFormatError(f"unknown network format {fmt!r}")
    return fmt


def load_network(path, fmt: str | None = None) -> InfluenceNetwork:
    """Load a network file; format inferred from the suffix unless given.

    Each distinct weight token is parsed once, and each distinct row shape
    cleared and its weights validated once (see the module docstring).
    Weights in exponent notation are refused.
    """
    path = Path(path)
    if _file_format(path, fmt) == "csv":
        return network_from_csv_text(path.read_text())
    return network_from_json_dict(read_json(path, NetworkFormatError))


def save_network(net: InfluenceNetwork, path, fmt: str | None = None) -> None:
    """Write a network file atomically; format inferred as by ``load_network``."""
    path = Path(path)
    if _file_format(path, fmt) == "csv":
        text = network_to_csv_text(net)
    else:
        text = dumps_indented(network_to_json_dict(net)) + "\n"
    atomic_write_text(path, text)


def network_to_dot(net: InfluenceNetwork) -> str:
    """Graphviz DOT text; each edge carries its weight and decisive=true|false."""
    decisive = decisive_subgraph(net).edges
    lines = ["digraph influence {", "  rankdir=LR;"]
    for i in range(net.n):
        lines.append(f'  "{i + 1}";')
    for i, j, w in net.edges():
        flag = "true" if (i, j) in decisive else "false"
        lines.append(f'  "{i + 1}" -> "{j + 1}" [label="{w}", decisive={flag}];')
    lines.append("}")
    return "\n".join(lines) + "\n"


# -- decisive links ---------------------------------------------------------

_ENUM_DEGREE_LIMIT = 40
_BITSET_DENOM_LIMIT = 1 << 22


def _subset_sums(weights: Sequence[int]) -> set[int]:
    """Every distinct sum of a subset of ``weights``, the empty one included."""
    sums = {0}
    for w in weights:
        sums |= {s + w for s in sums}
    return sums


def _pair_hit(left, right: Sequence[int], lo: int, hi: int) -> bool:
    """Is ``a + b`` in [lo, hi] for some ``a`` in ``left`` and ``b`` in the
    sorted ``right``?  One bisection per ``a``."""
    for a in left:
        k = bisect_left(right, lo - a)
        if k < len(right) and right[k] <= hi - a:
            return True
    return False


def _row_hits(wints: Sequence[int], denom: int, queries) -> list[bool]:
    """For each ``(k, lo, hi)`` of ``queries``: does some subset of the row
    ``wints`` without entry k (the whole row when k is None) sum into the
    integer range [lo, hi]?

    Denominators up to 2^22 use a bitset of every reachable sum.  Larger
    ones meet in the middle: the row is split into two halves once, and each
    half's subset sums are built and sorted once.  A query bisects, for each
    sum of its own half without k, the shared sorted sums of the other half.
    That needs at most 2^21 sums per half, so past the bitset limit a row
    whose entries have more than 40 co-neighbors is refused before any sum
    is built.
    """
    if denom <= _BITSET_DENOM_LIMIT:
        hits = []
        for k, lo, hi in queries:
            reach = 1
            for w in wints if k is None else wints[:k] + wints[k + 1 :]:
                reach |= reach << w
            hits.append(lo <= hi and (reach >> lo) & ((2 << (hi - lo)) - 1) != 0)
        return hits
    if len(wints) - 1 > _ENUM_DEGREE_LIMIT:
        raise ValueError(
            "decisiveness check too large: row denominator exceeds the bitset limit "
            f"and {len(wints) - 1} co-neighbors exceed the meet-in-the-middle limit "
            f"{_ENUM_DEGREE_LIMIT}"
        )
    half = len(wints) // 2
    halves = (wints[:half], wints[half:])
    shared = [sorted(_subset_sums(h)) for h in halves]
    hits = []
    for k, lo, hi in queries:
        own = k is not None and k >= half
        rest = [w for t, w in enumerate(halves[own], half if own else 0) if t != k]
        hits.append(_pair_hit(_subset_sums(rest), shared[not own], lo, hi))
    return hits


def _decisive_hits(wints: Sequence[int], denom: int, ks: Iterable[int]) -> list[bool]:
    """``is_decisive`` for the entries ``ks`` of one row: the integer form of
    1/2 - w_k < s < 1/2 over sums s/denom of the other entries."""
    above, hi = denom // 2 + 1, (denom - 1) // 2
    return _row_hits(
        wints, denom, [(k, above - wints[k] if above > wints[k] else 0, hi) for k in ks]
    )


def is_decisive(net: InfluenceNetwork, i: int, j: int) -> bool:
    """Whether the link (i, j) is decisive.

    Exact subset-sum reachability over the row's common denominator: the
    link is decisive iff the weights of i's other neighbors admit a subset
    sum strictly between 1/2 - w_ij and 1/2.  Rows over a denominator above
    2^22 meet in the middle, which raises ``ValueError`` when i has more
    than 41 neighbors, that is more than 40 co-neighbors of j.
    """
    if not (is_json_int(i) and is_json_int(j) and 0 <= i < net.n and 0 <= j < net.n):
        raise ValueError(f"nodes ({i}, {j}) out of range")
    nbrs, wints, denom = net.integer_rows[i]
    if j not in nbrs:
        raise ValueError(f"({i}, {j}) is not an edge of the network")
    return _decisive_hits(wints, denom, [nbrs.index(j)])[0]


def has_half_ties(net: InfluenceNetwork) -> bool:
    """Whether some subset of some row's weights sums to exactly 1/2.

    At such ties the weighted median can be non-unique, the tie-break can
    adopt a formally indecisive neighbor's value, and reachability over the
    decisive subgraph alone no longer bounds where opinions can travel.
    The subset sums are those of ``is_decisive``, with the whole row in
    place of the co-neighbors, and the same refusal of rows with more than
    41 weights over a denominator above 2^22.
    """
    return any(
        denom % 2 == 0 and _row_hits(wints, denom, [(None, denom // 2, denom // 2)])[0]
        for _nbrs, wints, denom in net.integer_rows
    )


@dataclass(frozen=True)
class DecisiveSubgraph:
    """The subgraph of decisive links of a network."""

    network: InfluenceNetwork
    edges: frozenset

    @property
    def indecisive_edges(self) -> frozenset:
        return frozenset(
            (i, j)
            for i, (nbrs, _, _) in enumerate(self.network.integer_rows)
            for j in nbrs
            if (i, j) not in self.edges
        )


def decisive_subgraph(net: InfluenceNetwork) -> DecisiveSubgraph:
    """Classify every edge of the network as decisive or not; refused as
    ``is_decisive`` refuses, at the first row too wide.

    An entry's answer depends only on its weight, the row's other weights
    and the denominator, and a row's stored weights fix its denominator.
    So the first row of each stored weight tuple makes one ``_row_hits``
    call, and every later row with the same weights reads its answers.
    """
    shapes: dict = {}

    def flags(wints, denom):
        known = shapes.get(wints)
        if known is None:
            known = shapes[wints] = _decisive_hits(wints, denom, range(len(wints)))
        return known

    return DecisiveSubgraph(
        network=net,
        edges=frozenset(
            (i, j)
            for i, (nbrs, wints, denom) in enumerate(net.integer_rows)
            for j, hit in zip(nbrs, flags(wints, denom))
            if hit
        ),
    )


def _reach(adj: Sequence[Sequence[int]], start: int, seen: list[bool]) -> int:
    """Mark the unseen nodes reachable from ``start`` along ``adj``; count them."""
    seen[start] = True
    stack = [start]
    count = 1
    while stack:
        for w in adj[stack.pop()]:
            if not seen[w]:
                seen[w] = True
                stack.append(w)
                count += 1
    return count


def has_globally_reachable_node(
    sub: DecisiveSubgraph | InfluenceNetwork,
) -> tuple[bool, int | None]:
    """Whether some node is reachable from every node along the given links.

    Accepts a decisive subgraph or a whole network.  Such nodes exist iff
    the graph has a unique sink strongly connected component, and they are
    its members.  The witness is its smallest node, found by sweeping the
    reversed links from each unseen node in index order: nodes outside the
    sink component only reach back to nodes outside it, so the sweep first
    meets the component at its smallest node, which reaches back to every
    node and is therefore the sweep's last root.
    """
    if isinstance(sub, InfluenceNetwork):
        n = sub.n
        pairs: Iterable[tuple[int, int]] = (
            (i, j) for i, (nbrs, _, _) in enumerate(sub.integer_rows) for j in nbrs
        )
    else:
        n = sub.network.n
        pairs = sub.edges
    listeners: list[list[int]] = [[] for _ in range(n)]
    for i, j in pairs:
        listeners[j].append(i)
    seen = [False] * n
    root = 0
    for v in range(n):
        if not seen[v]:
            _reach(listeners, v, seen)
            root = v
    if _reach(listeners, root, [False] * n) < n:
        return False, None
    return True, root
