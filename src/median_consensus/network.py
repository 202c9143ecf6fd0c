"""Row-stochastic influence networks with exact rational weights.

A network over nodes ``0..n-1`` stores each row as integers: node i's
out-neighbors ``j``, positive integer weights, and the common denominator
they sum to, so that w_ij is a weight over that denominator and each row
sums to exactly 1.  Every half-threshold test reads this integer form; the
``Fraction`` weights are a view derived from it for export and inspection
(``rows``, ``weight``, ``edges``).  Node ``i`` listening to ``j`` means
``w_ij > 0``.  File formats (dense CSV and an edge list in JSON) use
1-indexed nodes; the in-memory API is 0-indexed.

A link ``(i, j)`` is *decisive* when some subset of i's out-neighbors
containing j has weight strictly above 1/2 but drops strictly below 1/2 once
j is removed -- equivalently, some subset of the other neighbors has weight
in the open interval (1/2 - w_ij, 1/2).  As long as no subset of a row sums
to exactly 1/2, indecisive links never influence i's update (half-ties widen
median sets, and the tie-break can then track a formally indecisive
neighbor; ``has_half_ties`` detects that regime).  The decisive links form a
subgraph whose reachability structure separates networks that can reach
consensus from those that cannot.  The subset sums are exact: a bitset of
reachable sums for denominators up to 2^22, and meet-in-the-middle over the
two halves of a row for larger ones, up to 40 weights.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from pathlib import Path
from typing import Iterable, Sequence

from ._io import atomic_write_text, is_json_int, read_json
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


class NetworkFormatError(ValueError):
    """Raised when a network file or payload fails validation."""


@dataclass(frozen=True)
class InfluenceNetwork:
    """Immutable weighted directed network with row-stochastic weights.

    ``integer_rows[i]`` is ``(neighbor indices, integer weights,
    denominator)``: the indices increase, the weights are positive and sum
    to the denominator, and the row is in lowest terms.  Equal weights
    therefore give equal rows, whichever constructor built them, and
    networks compare and hash by their weights.  Every constructor ends in
    ``__post_init__``, the one place where rows are validated.  ``rows``,
    ``weight`` and ``edges`` are ``Fraction`` views derived from the
    integer rows.
    """

    n: int
    integer_rows: tuple[tuple[tuple[int, ...], tuple[int, ...], int], ...]

    def __post_init__(self):
        n = self.n
        if not is_json_int(n) or n < 1:
            raise NetworkFormatError(f"invalid node count {n!r}: a network needs at least one node")
        if len(self.integer_rows) != n:
            raise NetworkFormatError(f"expected {n} rows, got {len(self.integer_rows)}")
        for i, (nbrs, wints, denom) in enumerate(self.integer_rows):
            fault = _row_fault(nbrs, wints, denom, n)
            if fault is not None:
                raise NetworkFormatError(f"row {i}: {fault}")

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
        so a change of x_j moves exactly that mass in i's mass table.
        """
        nodes: list[list[int]] = [[] for _ in range(self.n)]
        wints: list[list[int]] = [[] for _ in range(self.n)]
        for i, (nbrs, ws, _) in enumerate(self.integer_rows):
            for j, w in zip(nbrs, ws):
                nodes[j].append(i)
                wints[j].append(w)
        return tuple((tuple(a), tuple(b)) for a, b in zip(nodes, wints))

    @property
    def edge_count(self) -> int:
        return sum(len(nbrs) for nbrs, _, _ in self.integer_rows)


def _row_fault(nbrs, wints, denom, n: int) -> str | None:
    """What is wrong with one stored row, or None when it is valid."""
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


def _cleared(entries: list[tuple[int, Fraction]], normalize: bool = False) -> tuple:
    """A row to store from ``(j, w)`` pairs of nonzero Fractions, unvalidated.

    The weights become integers over their least common denominator; with
    ``normalize`` the denominator is their sum, reduced by their gcd.
    """
    try:
        entries.sort(key=lambda entry: entry[0])
    except TypeError:
        pass  # a non-int index; __post_init__ names it
    denom = math.lcm(*(w.denominator for _, w in entries))
    wints = tuple(w.numerator * (denom // w.denominator) for _, w in entries)
    if normalize and wints:
        common = math.gcd(*wints)
        wints = tuple(w // common for w in wints)
        denom = sum(wints)
    return tuple(j for j, _ in entries), wints, denom


def _weight_parser():
    """``to_fraction`` for one load, parsing each distinct string once.

    Only ``str`` tokens are cached: ``True``, ``1`` and ``1.0`` hash equal,
    so a shared key would let a bool or float weight through.
    """
    parsed: dict[str, Fraction] = {}

    def parse(raw) -> Fraction:
        if type(raw) is not str:
            return to_fraction(raw)
        w = parsed.get(raw)
        if w is None:
            w = parsed[raw] = to_fraction(raw)
        return w

    return parse


def _dense_network(n: int, rows: Sequence[Sequence]) -> InfluenceNetwork:
    """Network from ``rows`` of ``n`` weights each; zero entries are dropped."""
    parse = _weight_parser()
    cleared = []
    for i, row in enumerate(rows):
        if len(row) != n:
            raise NetworkFormatError(f"row {i} has {len(row)} entries, expected {n}")
        weights = map(parse, row)
        cleared.append(_cleared([(j, w) for j, w in enumerate(weights) if w]))
    return InfluenceNetwork(n, tuple(cleared))


def _edge_network(n: int, edges: Sequence, normalize: bool, base: int) -> InfluenceNetwork:
    """Network from ``(i, j, weight)`` triples whose nodes count from ``base``."""
    if is_json_int(n) and n > len(edges):
        # Checked before the buckets exist, so a huge n costs nothing.
        raise NetworkFormatError(
            f"n={n} but the edge list has {len(edges)} entries: every node needs a "
            "row of positive weights summing to 1"
        )
    parse = _weight_parser()
    buckets: list[list[tuple[int, Fraction]]] = [[] for _ in range(n)]
    for entry in edges:
        try:
            i, j, raw = entry
        except (TypeError, ValueError):
            raise NetworkFormatError(f"edge entry {entry!r} must be [i, j, weight]") from None
        if not (is_json_int(i) and base <= i < n + base):
            raise NetworkFormatError(
                f"edge ({i!r}, {j!r}): endpoints must be ints in {base}..{n - 1 + base}"
            )
        w = parse(raw)
        if w:
            # Only a plain int is shifted; anything else reaches
            # __post_init__ as given, and it names it.
            buckets[i - base].append((j - base if type(j) is int else j, w))
    return InfluenceNetwork(n, tuple(_cleared(row, normalize) for row in buckets))


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
    """Load a network file; format inferred from the suffix unless given."""
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
        text = json.dumps(network_to_json_dict(net), indent=2, sort_keys=True) + "\n"
    atomic_write_text(path, text)


def network_to_dot(net: InfluenceNetwork, subgraph: "DecisiveSubgraph | None" = None) -> str:
    """Graphviz DOT text; with a subgraph, edges carry decisive=true|false."""
    lines = ["digraph influence {", "  rankdir=LR;"]
    for i in range(net.n):
        lines.append(f'  "{i + 1}";')
    for i, j, w in net.edges():
        attrs = [f'label="{w}"']
        if subgraph is not None:
            flag = "true" if (i, j) in subgraph.edges else "false"
            attrs.append(f"decisive={flag}")
        lines.append(f'  "{i + 1}" -> "{j + 1}" [{", ".join(attrs)}];')
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


def _achievable_range_hit(weights: Sequence[int], denom: int, lo: int, hi: int) -> bool:
    """Is some subset sum of ``weights`` inside the integer range [lo, hi]?

    Denominators up to 2^22 use a bitset of every reachable sum.  Larger
    ones meet in the middle: the subset sums of each half of the weights,
    one half sorted, and for each sum ``a`` of the other half a bisection
    for a partner in [lo - a, hi - a].  That needs at most 2^20 sums per
    half, so rows with more than 40 weights are refused.
    """
    if lo > hi:
        return False
    if denom <= _BITSET_DENOM_LIMIT:
        reach = 1
        for w in weights:
            reach |= reach << w
        span = reach >> lo
        mask = (1 << (hi - lo + 1)) - 1
        return bool(span & mask)
    _check_co_neighbors(len(weights))
    half = len(weights) // 2
    return _pair_hit(_subset_sums(weights[:half]), sorted(_subset_sums(weights[half:])), lo, hi)


def _check_co_neighbors(count: int) -> None:
    if count > _ENUM_DEGREE_LIMIT:
        raise ValueError(
            "decisiveness check too large: row denominator exceeds the bitset limit "
            f"and {count} co-neighbors exceed the meet-in-the-middle limit "
            f"{_ENUM_DEGREE_LIMIT}"
        )


def is_decisive(net: InfluenceNetwork, i: int, j: int) -> bool:
    """Whether the link (i, j) is decisive.

    Exact subset-sum reachability over the row's common denominator: the
    link is decisive iff the weights of i's other neighbors admit a subset
    sum strictly between 1/2 - w_ij and 1/2.  Rows over a denominator above
    2^22 are searched meet-in-the-middle, which raises ``ValueError`` when i
    has more than 40 other neighbors.
    """
    if not (is_json_int(i) and is_json_int(j) and 0 <= i < net.n and 0 <= j < net.n):
        raise ValueError(f"nodes ({i}, {j}) out of range")
    nbrs, wints, denom = net.integer_rows[i]
    if j not in nbrs:
        raise ValueError(f"({i}, {j}) is not an edge of the network")
    return _entry_decisive(wints, denom, nbrs.index(j))


def _entry_decisive(wints: Sequence[int], denom: int, k: int) -> bool:
    """``is_decisive`` for entry k of a row of integer weights over ``denom``."""
    others = [*wints[:k], *wints[k + 1 :]]
    # Integer form of  1/2 - w_k < s < 1/2  over sums s/denom.
    lo = (denom - 2 * wints[k]) // 2 + 1
    hi = (denom - 1) // 2
    if lo < 0:
        lo = 0
    return _achievable_range_hit(others, denom, lo, hi)


def _decisive_row_split(wints: Sequence[int], denom: int) -> list[bool]:
    """``is_decisive`` for every entry of one row past the bitset limit.

    The row is split into two halves once, and each half's subset sums are
    built and sorted once.  Entry k meets in the middle between the sums of
    its own half without k and the shared sorted sums of the other half, so
    a row costs two shared sortings rather than one per entry.
    """
    _check_co_neighbors(len(wints) - 1)
    half = len(wints) // 2
    halves = (wints[:half], wints[half:])
    shared = [sorted(_subset_sums(h)) for h in halves]
    out = []
    for k, wk in enumerate(wints):
        own = k >= half
        rest = list(halves[own])
        del rest[k - half if own else k]
        # The range of is_decisive: 1/2 - w_ik < s < 1/2 over sums s/denom.
        lo, hi = max((denom - 2 * wk) // 2 + 1, 0), (denom - 1) // 2
        out.append(lo <= hi and _pair_hit(_subset_sums(rest), shared[not own], lo, hi))
    return out


def has_half_ties(net: InfluenceNetwork) -> bool:
    """Whether some subset of some row's weights sums to exactly 1/2.

    At such ties the weighted median can be non-unique, the tie-break can
    adopt a formally indecisive neighbor's value, and reachability over the
    decisive subgraph alone no longer bounds where opinions can travel.
    The subset sums take the paths of ``is_decisive``, with its limit.
    """
    for _nbrs, wints, denom in net.integer_rows:
        if denom % 2:
            continue
        half = denom // 2
        if _achievable_range_hit(wints, denom, half, half):
            return True
    return False


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


def _decisive_edges(net: InfluenceNetwork):
    """Yield every decisive link (i, j), row by row.

    Rows up to the bitset limit ask ``_entry_decisive`` per edge.  Larger rows
    share each half's sorted subset sums across their edges
    (``_decisive_row_split``).
    """
    for i, (nbrs, wints, denom) in enumerate(net.integer_rows):
        if denom <= _BITSET_DENOM_LIMIT:
            for k, j in enumerate(nbrs):
                if _entry_decisive(wints, denom, k):
                    yield i, j
        else:
            for j, flag in zip(nbrs, _decisive_row_split(wints, denom)):
                if flag:
                    yield i, j


def decisive_subgraph(net: InfluenceNetwork) -> DecisiveSubgraph:
    """Classify every edge of the network as decisive or not."""
    return DecisiveSubgraph(network=net, edges=frozenset(_decisive_edges(net)))


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
