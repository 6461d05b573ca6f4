"""Directed and undirected graphs over string-labeled nodes.

Graphs here are immutable values.  A label is a nonempty string
without whitespace, double quotes or backslashes, so every label can be
written into DOT as it is.  Directed graphs may contain both (j, k) and
(k, j) at once (feedback between two processes) but never self-loops.
``DiGraph`` and ``UGraph`` share one private base that holds the labels,
the edge checks, the masks, value semantics and the text forms; each
keeps only its own adjacency and operations.  Node sets are held as
bitmasks internally so that the exhaustive enumeration suites can run
millions of queries; the public API speaks frozensets of labels.
"""

from __future__ import annotations

import json
import numbers
from typing import Iterable, Iterator


class GraphError(ValueError):
    """Base class for graph construction and query errors."""


class UnknownNodeError(GraphError):
    """A query referenced a node that is not in the graph."""

    def __init__(self, label: str):
        super().__init__(f"unknown node: {label!r}")
        self.label = label


def _check_label(label) -> str:
    if not isinstance(label, str):
        raise GraphError(f"node label must be a string, got {type(label).__name__}")
    if label.split() != [label] or '"' in label or "\\" in label:
        raise GraphError(
            f"node label must be nonempty without whitespace, double quotes "
            f"or backslashes: {label!r}"
        )
    return label


def _collection(value, what: str, kind: str = "set of labels", size: int | None = None) -> tuple:
    """``value``'s members as a tuple.  A string, which would be read as
    its characters, bytes, a value that is not a collection and, when
    ``size`` is given, one with another number of members are each a
    GraphError."""
    if not isinstance(value, (str, bytes)):
        try:
            members = tuple(value)
        except TypeError:
            pass
        else:
            if size is None or len(members) == size:
                return members
    shown = f"the string {value!r}" if isinstance(value, str) else repr(value)
    raise GraphError(f"{what} must be a {kind}, not {shown}")


def _label_set(value, what: str) -> frozenset:
    """``value``'s members, read by ``_collection``, as a frozenset; a
    member that cannot be hashed, a list say, is the same GraphError."""
    members = _collection(value, what)
    try:
        return frozenset(members)
    except TypeError:
        raise GraphError(f"{what} must be a set of labels, not {value!r}") from None


def _is_int(value) -> bool:
    """Whether ``value`` is an int, numpy ints included; a bool is not one."""
    # the type test first: an ABC isinstance costs about ten times more
    return type(value) is int or (
        isinstance(value, numbers.Integral) and not isinstance(value, bool)
    )


def _check_count(value, what: str) -> None:
    """A ValueError unless ``value`` is an int (``_is_int``) >= 0."""
    if not _is_int(value) or value < 0:
        raise ValueError(f"{what} must be a non-negative int, not {value!r}")


def _real(value) -> bool:
    """Whether ``value`` is a real number; a bool is not one."""
    return type(value) is float or (
        isinstance(value, numbers.Real) and not isinstance(value, bool)
    )


def _load_json(text: str):
    """``json.loads``; input nested too deeply to parse is a ValueError."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("JSON nested too deeply to parse") from None


def _field(obj, key: str, convert, where: str, default=None, error=ValueError):
    """``convert(obj[key])``, or ``default`` when the key is absent and a
    default is given; a missing required key or a bad value is an
    ``error``."""
    if not isinstance(obj, dict) or (key not in obj and default is None):
        raise error(f"{where} must be an object with {key!r}")
    if key not in obj:
        return default
    try:
        return convert(obj[key])
    except (TypeError, ValueError, OverflowError):
        raise error(f"{where}: bad {key!r}: {obj[key]!r}") from None


def _json(*types):
    """A converter accepting only JSON values of ``types``; a boolean is
    never an integer or a number."""

    def convert(value):
        if isinstance(value, bool) or not isinstance(value, types):
            raise TypeError(value)
        return value

    return convert


_INT, _NUMBER, _STRING, _ARRAY, _OBJECT = (
    _json(int), _json(int, float), _json(str), _json(list), _json(dict)
)


def _number(value) -> float:
    return float(_NUMBER(value))


def _strings(value) -> tuple:
    return tuple(map(_STRING, _ARRAY(value)))


def _iter_bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask &= mask - 1


class _Graph:
    """What both graph kinds share: labels and their index, the per-edge
    checks, mask plumbing, value semantics and the text forms.

    A subclass supplies its arrow and DOT keyword, and builds its own
    adjacency from what ``_read_edges`` gives.
    """

    __slots__ = ("labels", "edges", "_index")
    _arrow: str
    _dot_keyword: str

    def _read_edges(self, nodes: Iterable[str], edges: Iterable[tuple[str, str]]):
        """Set the sorted labels and their index; a repeated label is a
        GraphError.  Check that each edge's endpoints exist and differ,
        and read it as directed: give the edge set and each node's out-
        and in-neighbour masks."""
        nodes = [_check_label(n) for n in _collection(nodes, "nodes")]
        self.labels = labels = tuple(sorted(set(nodes)))
        if len(labels) != len(nodes):
            raise GraphError(f"repeated node labels: {nodes!r}")
        self._index = index = {name: i for i, name in enumerate(labels)}
        out = [0] * len(labels)
        into = [0] * len(labels)
        seen = set()
        for edge in _collection(edges, "edges", "collection of pairs"):
            if type(edge) is not tuple or len(edge) != 2:
                edge = _collection(edge, "an edge", "pair of labels", 2)
            j, k = edge
            # a label is a string; anything else is no node, and may not hash
            if not isinstance(j, str) or j not in index:
                raise UnknownNodeError(j)
            if not isinstance(k, str) or k not in index:
                raise UnknownNodeError(k)
            if j == k:
                raise GraphError(f"self-loop not allowed: {j!r}")
            seen.add((j, k))
            out[index[j]] |= 1 << index[k]
            into[index[k]] |= 1 << index[j]
        return frozenset(seen), tuple(out), tuple(into)

    def __eq__(self, other) -> bool:
        return (
            type(other) is type(self)
            and self.labels == other.labels
            and self.edges == other.edges
        )

    def __hash__(self) -> int:
        return hash((self.labels, self.edges))

    def __repr__(self) -> str:
        es = ", ".join(f"{j}{self._arrow}{k}" for j, k in sorted(self.edges))
        return f"{type(self).__name__}({list(self.labels)}, [{es}])"

    def mask_of(self, names: Iterable[str]) -> int:
        if type(names) is not frozenset:
            names = _collection(names, "a node set")
        m = 0
        for name in names:
            i = self._index.get(name) if isinstance(name, str) else None
            if i is None:
                raise UnknownNodeError(name)
            m |= 1 << i
        return m

    def names_of(self, mask: int) -> frozenset[str]:
        return frozenset(self.labels[i] for i in _iter_bits(mask))

    @property
    def vertices(self) -> frozenset[str]:
        return frozenset(self.labels)

    def to_dot(self, name: str = "G") -> str:
        lines = [f"{self._dot_keyword} {name} {{"]
        lines += [f'  "{v}";' for v in self.labels]
        lines += [f'  "{j}" {self._arrow} "{k}";' for j, k in sorted(self.edges)]
        lines.append("}")
        return "\n".join(lines) + "\n"


class DiGraph(_Graph):
    """Immutable directed graph; parallel opposite edges allowed, self-loops not."""

    __slots__ = ("_children", "_parents")
    _arrow = "->"
    _dot_keyword = "digraph"

    def __init__(self, nodes: Iterable[str], edges: Iterable[tuple[str, str]] = ()):
        self.edges, self._children, self._parents = self._read_edges(nodes, edges)

    @classmethod
    def from_edges(cls, edges: Iterable[tuple[str, str]], nodes: Iterable[str] = ()) -> "DiGraph":
        edges = list(edges)
        names = list(nodes)
        known = set(names)
        endpoints = dict.fromkeys(v for j, k in edges for v in (j, k) if v not in known)
        return cls(names + list(endpoints), edges)

    def ancestral_mask(self, mask: int) -> int:
        acc = mask
        while True:
            grown = acc
            for i in _iter_bits(acc):
                grown |= self._parents[i]
            if grown == acc:
                return acc
            acc = grown

    # --- the surgeries ----------------------------------------------------

    def parents(self, of: Iterable[str]) -> frozenset[str]:
        """Nodes outside ``of`` with an edge into some member of ``of``."""
        mask = self.mask_of(of)
        out = 0
        for i in _iter_bits(mask):
            out |= self._parents[i]
        return self.names_of(out & ~mask)

    def ancestral_set(self, of: Iterable[str]) -> frozenset[str]:
        """``of`` together with every node that has a directed path into it."""
        return self.names_of(self.ancestral_mask(self.mask_of(of)))

    def delete_out_edges(self, sources: Iterable[str]) -> "DiGraph":
        """Drop every edge starting in ``sources`` (including edges within it)."""
        banned = self.mask_of(sources)
        kept = [
            (j, k) for j, k in self.edges if not (banned >> self._index[j]) & 1
        ]
        return DiGraph(self.labels, kept)

    def induced_subgraph(self, keep: Iterable[str]) -> "DiGraph":
        mask = self.mask_of(keep)
        kept = [
            (j, k)
            for j, k in self.edges
            if (mask >> self._index[j]) & 1 and (mask >> self._index[k]) & 1
        ]
        return DiGraph(self.names_of(mask), kept)

    def moralize(self) -> "UGraph":
        """Marry parents of every common child, then drop edge directions."""
        adj = moral_adjacency(self, banned_sources=0, keep=(1 << len(self.labels)) - 1)
        pairs = []
        for i, row in enumerate(adj):
            for j in _iter_bits(row):
                if j > i:
                    pairs.append((self.labels[i], self.labels[j]))
        return UGraph(self.labels, pairs)

    # --- serialization ----------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "nodes": list(self.labels),
            "edges": [[j, k] for j, k in sorted(self.edges)],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "DiGraph":
        def pairs_of(value) -> list:
            return [*map(_strings, _ARRAY(value))]

        nodes = _field(data, "nodes", _strings, "graph JSON", error=GraphError)
        pairs = _field(data, "edges", pairs_of, "graph JSON", error=GraphError)
        if len(set(pairs)) != len(pairs):
            raise GraphError(f"graph JSON 'edges' has repeated edges: {data['edges']!r}")
        return cls(nodes, pairs)

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "DiGraph":
        return cls.from_json_dict(_load_json(text))


class UGraph(_Graph):
    """Immutable undirected graph without self-loops."""

    __slots__ = ("_adj",)
    _arrow = "--"
    _dot_keyword = "graph"

    def __init__(self, nodes: Iterable[str], edges: Iterable[tuple[str, str]] = ()):
        directed, out, into = self._read_edges(nodes, edges)
        self.edges = frozenset((min(a, b), max(a, b)) for a, b in directed)
        self._adj = tuple(map(int.__or__, out, into))

    def u_separated(self, a: Iterable[str], b: Iterable[str], c: Iterable[str]) -> bool:
        """True iff every path from ``a`` to ``b`` intersects ``c``.

        A path touching ``c`` at either endpoint counts as intersecting, so
        with ``c`` empty this is plain unconnectedness.
        """
        return u_separated_masks(
            self._adj, self.mask_of(a), self.mask_of(b), self.mask_of(c)
        )


def moral_adjacency(g: DiGraph, banned_sources: int, keep: int) -> list[int]:
    """Adjacency masks of the moral graph of g with out-edges of
    ``banned_sources`` removed and vertices restricted to ``keep``."""
    n = len(g.labels)
    adj = [0] * n
    for v in _iter_bits(keep):
        pav = g._parents[v] & ~banned_sources & keep
        adj[v] |= pav
        for j in _iter_bits(pav):
            adj[j] |= (1 << v) | (pav & ~(1 << j))
    return adj


def u_separated_masks(adj: Iterable[int], a: int, b: int, c: int) -> bool:
    reached = a & ~c
    if reached & b:
        return False
    frontier = reached
    adj = tuple(adj)
    while frontier:
        grown = 0
        for i in _iter_bits(frontier):
            grown |= adj[i]
        grown &= ~c
        frontier = grown & ~reached
        reached |= frontier
        if reached & b:
            return False
    return True


def enumerate_digraphs(labels: Iterable[str]) -> Iterator[DiGraph]:
    """All directed graphs on the given nodes, in a fixed deterministic order.

    Candidate edges are ordered pairs in label order; graph #m contains
    candidate edge i iff bit i of m is set.
    """
    labels = tuple(sorted(set(labels)))
    pairs = [(j, k) for j in labels for k in labels if j != k]
    for code in range(1 << len(pairs)):
        yield DiGraph(labels, [pairs[i] for i in _iter_bits(code)])
