"""Row-stochastic influence networks with exact rational weights.

A network over nodes ``0..n-1`` stores, per node, its out-edges ``(j, w_ij)``
with ``w_ij`` a positive Fraction; each row sums to exactly 1.  Node ``i``
listening to ``j`` means ``w_ij > 0``.  File formats (dense CSV and an edge
list in JSON) use 1-indexed nodes; the in-memory API is 0-indexed.

A link ``(i, j)`` is *decisive* when some subset of i's out-neighbors
containing j has weight strictly above 1/2 but drops strictly below 1/2 once
j is removed -- equivalently, some subset of the other neighbors has weight
in the open interval (1/2 - w_ij, 1/2).  As long as no subset of a row sums
to exactly 1/2, indecisive links never influence i's update (half-ties widen
median sets, and the tie-break can then track a formally indecisive
neighbor; ``has_half_ties`` detects that regime).  The decisive links form a
subgraph whose reachability structure separates networks that can reach
consensus from those that cannot.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from pathlib import Path
from typing import Iterable, Sequence

from ._io import is_json_int
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

    Construction validates every row and clears it to integers in one pass:
    ``integer_rows[i]`` is ``(neighbor indices, integer weights, common
    denominator)``, the form every half-threshold test in ``_engine`` uses.
    """

    n: int
    rows: tuple[tuple[tuple[int, Fraction], ...], ...]

    def __post_init__(self):
        if self.n < 1:
            raise NetworkFormatError("network needs at least one node")
        if len(self.rows) != self.n:
            raise NetworkFormatError(f"expected {self.n} rows, got {len(self.rows)}")
        cleared = []
        for i, row in enumerate(self.rows):
            seen = set()
            for j, w in row:
                if not 0 <= j < self.n:
                    raise NetworkFormatError(f"row {i}: neighbor index {j} out of range")
                if j in seen:
                    raise NetworkFormatError(f"row {i}: duplicate edge to {j}")
                seen.add(j)
                if not isinstance(w, Fraction):
                    raise NetworkFormatError(f"row {i}: weight on {j} is not a Fraction")
                if w.numerator <= 0:
                    raise NetworkFormatError(
                        f"row {i}: weight on {j} must be positive (drop zero entries)"
                    )
            denom = math.lcm(*(w.denominator for _, w in row))
            wints = tuple(w.numerator * (denom // w.denominator) for _, w in row)
            if sum(wints) != denom:
                total = sum((w for _, w in row), Fraction(0))
                raise NetworkFormatError(f"row {i} sums to {total}, expected exactly 1")
            cleared.append((tuple(j for j, _ in row), wints, denom))
        object.__setattr__(self, "integer_rows", tuple(cleared))

    # -- construction -----------------------------------------------------

    @staticmethod
    def from_rows(rows: Sequence[Sequence]) -> "InfluenceNetwork":
        """Build from a dense matrix (any Fraction-convertible entries)."""
        n = len(rows)
        packed = []
        for i, row in enumerate(rows):
            if len(row) != n:
                raise NetworkFormatError(f"row {i} has {len(row)} entries, expected {n}")
            entries = []
            for j, raw in enumerate(row):
                w = to_fraction(raw)
                if w < 0:
                    raise NetworkFormatError(f"row {i}: negative weight on {j}")
                if w:
                    entries.append((j, w))
            packed.append(tuple(entries))
        return InfluenceNetwork(n, tuple(packed))

    @staticmethod
    def from_edges(
        n: int, edges: Iterable[tuple], *, normalize: bool = False
    ) -> "InfluenceNetwork":
        """Build from ``(i, j, weight)`` triples over 0-indexed nodes."""
        acc: list[dict[int, Fraction]] = [dict() for _ in range(n)]
        for i, j, raw in edges:
            if not (is_json_int(i) and is_json_int(j)):
                raise NetworkFormatError(f"edge endpoints must be ints, got ({i!r}, {j!r})")
            if not (0 <= i < n and 0 <= j < n):
                raise NetworkFormatError(f"edge ({i}, {j}) out of range for n={n}")
            w = to_fraction(raw)
            if w < 0:
                raise NetworkFormatError(f"edge ({i}, {j}): negative weight")
            if j in acc[i]:
                raise NetworkFormatError(f"duplicate edge ({i}, {j})")
            if w:
                acc[i][j] = w
        rows = []
        for i, row in enumerate(acc):
            if normalize:
                total = sum(row.values(), Fraction(0))
                if total == 0:
                    raise NetworkFormatError(f"row {i} has zero total weight, cannot normalize")
                row = {j: w / total for j, w in row.items()}
            rows.append(tuple(sorted(row.items())))
        return InfluenceNetwork(n, tuple(rows))

    # -- queries ----------------------------------------------------------

    @cached_property
    def _row_maps(self) -> tuple[dict, ...]:
        return tuple(dict(row) for row in self.rows)

    def weight(self, i: int, j: int) -> Fraction:
        """w_ij, zero when i does not listen to j."""
        return self._row_maps[i].get(j, Fraction(0))

    def out_neighbors(self, i: int) -> tuple[int, ...]:
        return tuple(j for j, _ in self.rows[i])

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

    def edges(self) -> Iterable[tuple[int, int, Fraction]]:
        for i, row in enumerate(self.rows):
            for j, w in row:
                yield i, j, w

    @property
    def edge_count(self) -> int:
        return sum(len(row) for row in self.rows)


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
    if len(lines) != n + 1:
        raise NetworkFormatError(f"expected {n} weight rows after header, got {len(lines) - 1}")
    rows = []
    for ln in lines[1:]:
        cells = [c.strip() for c in ln.split(",")]
        if len(cells) != n:
            raise NetworkFormatError(f"row has {len(cells)} entries, expected {n}")
        rows.append(cells)
    try:
        return InfluenceNetwork.from_rows(rows)
    except (TypeError, ValueError) as exc:
        raise NetworkFormatError(str(exc)) from exc


def network_to_csv_text(net: InfluenceNetwork) -> str:
    lines = [str(net.n)]
    for i in range(net.n):
        row = net._row_maps[i]
        lines.append(",".join(str(row.get(j, Fraction(0))) for j in range(net.n)))
    return "\n".join(lines) + "\n"


def network_from_json_dict(payload: dict) -> InfluenceNetwork:
    """Parse the JSON edge-list format.

    Schema: ``{"n": int, "normalize": bool, "edges": [[i, j, "p/q"], ...]}``
    with 1-indexed node numbers.  When ``normalize`` is true each row is
    divided by its sum; otherwise rows must already sum to exactly 1.
    Unknown keys (e.g. role annotations) are ignored.
    """
    if not isinstance(payload, dict):
        raise NetworkFormatError("JSON network payload must be an object")
    try:
        n = payload["n"]
        edges = payload["edges"]
    except KeyError as exc:
        raise NetworkFormatError(f"JSON network payload missing key {exc}") from exc
    if not is_json_int(n) or n < 1:
        raise NetworkFormatError(f"invalid node count {n!r}")
    normalize = payload.get("normalize", False)
    if not isinstance(normalize, bool):
        raise NetworkFormatError("'normalize' must be a boolean")
    converted = []
    for entry in edges:
        if not (isinstance(entry, (list, tuple)) and len(entry) == 3):
            raise NetworkFormatError(f"edge entry {entry!r} must be [i, j, weight]")
        i, j, raw = entry
        if not (is_json_int(i) and is_json_int(j) and 1 <= i <= n and 1 <= j <= n):
            raise NetworkFormatError(f"edge ({i!r}, {j!r}) must use 1-indexed nodes in 1..{n}")
        converted.append((i - 1, j - 1, raw))
    try:
        return InfluenceNetwork.from_edges(n, converted, normalize=normalize)
    except (TypeError, ValueError) as exc:
        raise NetworkFormatError(str(exc)) from exc


def network_to_json_dict(net: InfluenceNetwork) -> dict:
    return {
        "n": net.n,
        "normalize": False,
        "edges": [[i + 1, j + 1, str(w)] for i, j, w in net.edges()],
    }


def load_network(path, fmt: str | None = None) -> InfluenceNetwork:
    """Load a network file; format inferred from the suffix unless given."""
    path = Path(path)
    if fmt is None:
        suffix = path.suffix.lower()
        fmt = {"": None, ".json": "json", ".csv": "csv"}.get(suffix)
        if fmt is None:
            raise NetworkFormatError(
                f"cannot infer format from {path.name!r}; pass fmt='csv' or 'json'"
            )
    text = path.read_text()
    if fmt == "csv":
        return network_from_csv_text(text)
    if fmt == "json":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise NetworkFormatError(f"invalid JSON in {path.name}: {exc}") from exc
        return network_from_json_dict(payload)
    raise NetworkFormatError(f"unknown network format {fmt!r}")


def save_network(net: InfluenceNetwork, path, fmt: str | None = None) -> None:
    from ._io import atomic_write_text

    path = Path(path)
    if fmt is None:
        fmt = "json" if path.suffix.lower() == ".json" else "csv"
    if fmt == "json":
        text = json.dumps(network_to_json_dict(net), indent=2, sort_keys=True) + "\n"
    elif fmt == "csv":
        text = network_to_csv_text(net)
    else:
        raise NetworkFormatError(f"unknown network format {fmt!r}")
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

_ENUM_DEGREE_LIMIT = 20
_BITSET_DENOM_LIMIT = 1 << 22


def _achievable_range_hit(weights: Sequence[int], denom: int, lo: int, hi: int) -> bool:
    """Is some subset sum of ``weights`` inside the integer range [lo, hi]?"""
    if lo > hi:
        return False
    if denom <= _BITSET_DENOM_LIMIT:
        reach = 1
        for w in weights:
            reach |= reach << w
        span = reach >> lo
        mask = (1 << (hi - lo + 1)) - 1
        return bool(span & mask)
    if len(weights) <= _ENUM_DEGREE_LIMIT:
        sums = {0}
        for w in weights:
            sums |= {s + w for s in sums}
        return any(lo <= s <= hi for s in sums)
    raise ValueError(
        "decisiveness check too large: row denominator exceeds the bitset limit "
        f"and {len(weights)} co-neighbors exceed the enumeration limit {_ENUM_DEGREE_LIMIT}"
    )


def is_decisive(net: InfluenceNetwork, i: int, j: int) -> bool:
    """Whether the link (i, j) is decisive.

    Exact subset-sum reachability over the row's common denominator: the
    link is decisive iff the weights of i's other neighbors admit a subset
    sum strictly between 1/2 - w_ij and 1/2.
    """
    if not (0 <= i < net.n and 0 <= j < net.n):
        raise ValueError(f"nodes ({i}, {j}) out of range")
    nbrs, wints, denom = net.integer_rows[i]
    if j not in nbrs:
        raise ValueError(f"({i}, {j}) is not an edge of the network")
    wj = wints[nbrs.index(j)]
    others = [w for k, w in zip(nbrs, wints) if k != j]
    # Integer form of  1/2 - w_ij < s < 1/2  over sums s/denom.
    lo = (denom - 2 * wj) // 2 + 1
    hi = (denom - 1) // 2
    if lo < 0:
        lo = 0
    return _achievable_range_hit(others, denom, lo, hi)


def has_half_ties(net: InfluenceNetwork) -> bool:
    """Whether some subset of some row's weights sums to exactly 1/2.

    At such ties the weighted median can be non-unique, the tie-break can
    adopt a formally indecisive neighbor's value, and reachability over the
    decisive subgraph alone no longer bounds where opinions can travel.
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
            (i, j) for i, j, _ in self.network.edges() if (i, j) not in self.edges
        )


def decisive_subgraph(net: InfluenceNetwork) -> DecisiveSubgraph:
    """Classify every edge of the network as decisive or not."""
    kept = frozenset(
        (i, j) for i, j, _ in net.edges() if is_decisive(net, i, j)
    )
    return DecisiveSubgraph(network=net, edges=kept)


def _strongly_connected_components(n: int, adj: Sequence[Sequence[int]]) -> list[list[int]]:
    """Iterative Tarjan SCC over an adjacency list."""
    index = [0] * n
    low = [0] * n
    state = [0] * n  # 0 unvisited, 1 on stack, 2 done
    stack: list[int] = []
    comps: list[list[int]] = []
    counter = 1
    for root in range(n):
        if state[root]:
            continue
        work = [(root, iter(adj[root]))]
        index[root] = low[root] = counter
        counter += 1
        state[root] = 1
        stack.append(root)
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if state[w] == 0:
                    index[w] = low[w] = counter
                    counter += 1
                    state[w] = 1
                    stack.append(w)
                    work.append((w, iter(adj[w])))
                    advanced = True
                    break
                if state[w] == 1:
                    if index[w] < low[v]:
                        low[v] = index[w]
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                if low[v] < low[parent]:
                    low[parent] = low[v]
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    state[w] = 2
                    comp.append(w)
                    if w == v:
                        break
                comps.append(comp)
    return comps


def has_globally_reachable_node(
    sub: DecisiveSubgraph | InfluenceNetwork,
) -> tuple[bool, int | None]:
    """Whether some node is reachable from every node along the given links.

    Accepts a decisive subgraph or a whole network.  Computed by
    condensation: such a node exists iff the strongly connected components
    of the graph have a unique sink component.  The witness is the smallest
    node of that component.
    """
    if isinstance(sub, InfluenceNetwork):
        n = sub.n
        pairs: Iterable[tuple[int, int]] = ((i, j) for i, j, _ in sub.edges())
    else:
        n = sub.network.n
        pairs = sub.edges
    adj: list[list[int]] = [[] for _ in range(n)]
    for i, j in pairs:
        if i != j:
            adj[i].append(j)
    comps = _strongly_connected_components(n, adj)
    comp_id = [0] * n
    for cid, comp in enumerate(comps):
        for v in comp:
            comp_id[v] = cid
    is_sink = [True] * len(comps)
    for i in range(n):
        for j in adj[i]:
            if comp_id[i] != comp_id[j]:
                is_sink[comp_id[i]] = False
    sinks = [cid for cid, flag in enumerate(is_sink) if flag]
    if len(sinks) == 1:
        return True, min(comps[sinks[0]])
    return False, None
