"""Directed and undirected graphs over string-labeled nodes.

Graphs here are immutable values.  Directed graphs may contain both
(j, k) and (k, j) at once (feedback between two processes) but never
self-loops.  Node sets are held as bitmasks internally so that the
exhaustive enumeration suites can run millions of queries; the public
API speaks frozensets of labels.
"""

from __future__ import annotations

import json
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
    if not label or any(ch.isspace() for ch in label):
        raise GraphError(f"node label must be nonempty without whitespace: {label!r}")
    return label


def _load_json(text: str):
    """``json.loads``; input nested too deeply to parse is a ValueError."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("JSON nested too deeply to parse") from None


def _iter_bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask &= mask - 1


class DiGraph:
    """Immutable directed graph; parallel opposite edges allowed, self-loops not."""

    __slots__ = ("labels", "edges", "_index", "_children", "_parents")

    def __init__(self, nodes: Iterable[str], edges: Iterable[tuple[str, str]] = ()):
        labels = tuple(sorted({_check_label(n) for n in nodes}))
        index = {name: i for i, name in enumerate(labels)}
        n = len(labels)
        children = [0] * n
        parents = [0] * n
        seen = set()
        for j, k in edges:
            if j not in index:
                raise UnknownNodeError(j)
            if k not in index:
                raise UnknownNodeError(k)
            if j == k:
                raise GraphError(f"self-loop not allowed: {j!r}")
            seen.add((j, k))
            children[index[j]] |= 1 << index[k]
            parents[index[k]] |= 1 << index[j]
        self.labels = labels
        self.edges = frozenset(seen)
        self._index = index
        self._children = tuple(children)
        self._parents = tuple(parents)

    @classmethod
    def from_edges(cls, edges: Iterable[tuple[str, str]], nodes: Iterable[str] = ()) -> "DiGraph":
        edges = list(edges)
        names = set(nodes)
        for j, k in edges:
            names.add(j)
            names.add(k)
        return cls(names, edges)

    # --- value semantics -------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, DiGraph)
            and self.labels == other.labels
            and self.edges == other.edges
        )

    def __hash__(self) -> int:
        return hash((self.labels, self.edges))

    def __repr__(self) -> str:
        es = ", ".join(f"{j}->{k}" for j, k in sorted(self.edges))
        return f"DiGraph({list(self.labels)}, [{es}])"

    # --- mask plumbing ----------------------------------------------------

    def mask_of(self, names: Iterable[str]) -> int:
        m = 0
        for name in names:
            i = self._index.get(name)
            if i is None:
                raise UnknownNodeError(name)
            m |= 1 << i
        return m

    def names_of(self, mask: int) -> frozenset[str]:
        return frozenset(self.labels[i] for i in _iter_bits(mask))

    @property
    def vertices(self) -> frozenset[str]:
        return frozenset(self.labels)

    def has_edge(self, j: str, k: str) -> bool:
        return (j, k) in self.edges

    def parents_mask(self, mask: int) -> int:
        out = 0
        for i in _iter_bits(mask):
            out |= self._parents[i]
        return out & ~mask

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
        return self.names_of(self.parents_mask(self.mask_of(of)))

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
        if not isinstance(data, dict) or "nodes" not in data or "edges" not in data:
            raise GraphError("graph JSON must be an object with 'nodes' and 'edges'")
        nodes, edges = data["nodes"], data["edges"]
        if not isinstance(nodes, list) or not all(isinstance(n, str) for n in nodes):
            raise GraphError(f"graph JSON 'nodes' must be an array of strings: {nodes!r}")
        if len(set(nodes)) != len(nodes):
            raise GraphError(f"graph JSON 'nodes' has repeated labels: {nodes!r}")
        if not isinstance(edges, list):
            raise GraphError(f"graph JSON 'edges' must be an array: {edges!r}")
        for e in edges:
            if not isinstance(e, list) or len(e) != 2 or not all(isinstance(v, str) for v in e):
                raise GraphError(f"edge must be a 2-element array of strings: {e!r}")
        return cls(nodes, [tuple(e) for e in edges])

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "DiGraph":
        return cls.from_json_dict(_load_json(text))

    def to_dot(self, name: str = "G") -> str:
        lines = [f"digraph {name} {{"]
        lines += [f'  "{v}";' for v in self.labels]
        lines += [f'  "{j}" -> "{k}";' for j, k in sorted(self.edges)]
        lines.append("}")
        return "\n".join(lines) + "\n"


class UGraph:
    """Immutable undirected graph without self-loops."""

    __slots__ = ("labels", "edges", "_index", "_adj")

    def __init__(self, nodes: Iterable[str], edges: Iterable[tuple[str, str]] = ()):
        labels = tuple(sorted({_check_label(n) for n in nodes}))
        index = {name: i for i, name in enumerate(labels)}
        adj = [0] * len(labels)
        seen = set()
        for a, b in edges:
            if a not in index:
                raise UnknownNodeError(a)
            if b not in index:
                raise UnknownNodeError(b)
            if a == b:
                raise GraphError(f"self-loop not allowed: {a!r}")
            seen.add((min(a, b), max(a, b)))
            adj[index[a]] |= 1 << index[b]
            adj[index[b]] |= 1 << index[a]
        self.labels = labels
        self.edges = frozenset(seen)
        self._index = index
        self._adj = tuple(adj)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, UGraph)
            and self.labels == other.labels
            and self.edges == other.edges
        )

    def __hash__(self) -> int:
        return hash((self.labels, self.edges))

    def __repr__(self) -> str:
        es = ", ".join(f"{a}--{b}" for a, b in sorted(self.edges))
        return f"UGraph({list(self.labels)}, [{es}])"

    @property
    def vertices(self) -> frozenset[str]:
        return frozenset(self.labels)

    def mask_of(self, names: Iterable[str]) -> int:
        m = 0
        for name in names:
            i = self._index.get(name)
            if i is None:
                raise UnknownNodeError(name)
            m |= 1 << i
        return m

    def names_of(self, mask: int) -> frozenset[str]:
        return frozenset(self.labels[i] for i in _iter_bits(mask))

    def adjacency_masks(self) -> tuple[int, ...]:
        return self._adj

    def u_separated(self, a: Iterable[str], b: Iterable[str], c: Iterable[str]) -> bool:
        """True iff every path from ``a`` to ``b`` intersects ``c``.

        A path touching ``c`` at either endpoint counts as intersecting, so
        with ``c`` empty this is plain unconnectedness.
        """
        return u_separated_masks(
            self._adj, self.mask_of(a), self.mask_of(b), self.mask_of(c)
        )

    def to_dot(self, name: str = "G") -> str:
        lines = [f"graph {name} {{"]
        lines += [f'  "{v}";' for v in self.labels]
        lines += [f'  "{a}" -- "{b}";' for a, b in sorted(self.edges)]
        lines.append("}")
        return "\n".join(lines) + "\n"


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
