"""Asymmetric graph separation for directed, possibly cyclic graphs.

``delta_separates`` is the normative moral-graph procedure: reduce
overlapping query sets, delete the edges leaving the predicted set,
restrict to the ancestral set of the query, moralize, and test
undirected separation.  ``delta_separates_trail`` answers the same
question by searching for an active allowed trail; the two must agree
on every input, and that agreement is itself a tested property.
``_delta_trail_arrays`` runs the trail search for arrays of mask
triples at once, in numpy; ``all_separations`` answers its whole
enumeration with one call of it, and ``graphoid`` fills
delta-separation truth tables with it.  Acceptance criterion 2 holds it
to both procedures on every disjoint triple of every 4-node digraph, and
``tests/test_separation.py::TestTrailArrays`` to the moral one on
random overlapping triples of 5- and 6-node digraphs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .graphs import (
    DiGraph,
    GraphError,
    _check_count,
    _iter_bits,
    _label_set,
    moral_adjacency,
    u_separated_masks,
)

MAX_ENUMERATION_NODES = 6


class EnumerationGuardError(GraphError):
    """An exhaustive enumeration was requested on too large an instance."""


@dataclass(frozen=True)
class SeparationQuery:
    """Query "c separates a from b": is the past of ``a`` irrelevant for
    predicting the present of ``b`` once the past of ``c`` is known?

    The three sets may overlap; evaluation reduces them first.  Each is
    kept as a frozenset; a string or a value that is not a collection is
    a GraphError.
    """

    a: frozenset[str]
    b: frozenset[str]
    c: frozenset[str]

    def __post_init__(self):
        for name in "abc":
            value = getattr(self, name)
            if type(value) is not frozenset:
                object.__setattr__(self, name, _label_set(value, name))

    def reduced(self) -> "SeparationQuery":
        return SeparationQuery(self.a - (self.b | self.c), self.b, self.c - self.b)


def _reduce_masks(a: int, b: int, c: int) -> tuple[int, int, int]:
    return a & ~(b | c), b, c & ~b


def delta_separates_masks(g: DiGraph, a: int, b: int, c: int) -> bool:
    a, b, c = _reduce_masks(a, b, c)
    if a == 0 or b == 0:
        return True
    anc = g.ancestral_mask(a | b | c)
    adj = moral_adjacency(g, banned_sources=b, keep=anc)
    return u_separated_masks(adj, a, b, c)


def delta_trail_masks(g: DiGraph, a: int, b: int, c: int) -> bool:
    a, b, c = _reduce_masks(a, b, c)
    if a == 0 or b == 0:
        return True
    n = len(g.labels)
    # Allowed trails contain no edge from b to the outside; drop those
    # edges in both traversal directions.
    children = [
        g._children[i] if not (b >> i) & 1 else g._children[i] & b for i in range(n)
    ]
    parents = [
        g._parents[i] if (b >> i) & 1 else g._parents[i] & ~b for i in range(n)
    ]
    anc_c = g.ancestral_mask(c)  # collider openness is judged in the full graph

    # Reachability over (node, arrival-direction) states.  "head" means the
    # trail entered along an edge pointing into the node, "tail" along an
    # edge pointing out of it.
    head = 0
    tail = 0
    new_head = 0
    new_tail = 0
    for x in _iter_bits(a):
        new_head |= children[x]
        new_tail |= parents[x]
    while new_head or new_tail:
        if (new_head | new_tail) & b:
            return False
        head |= new_head
        tail |= new_tail
        grow_head = 0
        grow_tail = 0
        for v in _iter_bits(new_head):
            if not (c >> v) & 1:
                grow_head |= children[v]  # pass through as a chain
            if (anc_c >> v) & 1:
                grow_tail |= parents[v]  # head-to-head, opened by c
        for v in _iter_bits(new_tail):
            if not (c >> v) & 1:
                grow_head |= children[v]
                grow_tail |= parents[v]
        new_head = grow_head & ~head
        new_tail = grow_tail & ~tail
    return True


def _delta_trail_arrays(
    g: DiGraph, a: np.ndarray, b: np.ndarray, c: np.ndarray
) -> np.ndarray:
    """``delta_trail_masks`` for equal-length uint16 arrays of masks at
    once: the answer to each triple (a[i], b[i], c[i]) as a bool array.

    Every query runs the same head/tail reachability, with OR tables over
    all 2^n masks in place of the loops over nodes: ``ch[M]`` and
    ``pa[M]`` are the children and parents of the nodes of M, and
    ``anc[M]`` the ancestral set of M.  A query whose frontier meets b is
    False and leaves the arrays; the rest of each step then runs on the
    live queries only.  A live frontier never contains b, so of the edges
    dropped for b only those into b from outside remain: ``pa[M] & ~b``.
    """
    a, b, c = _reduce_masks(a, b, c)
    n = len(g.labels)
    ch = np.zeros(1 << n, dtype=np.uint16)
    pa = np.zeros(1 << n, dtype=np.uint16)
    for i in range(n):
        low = slice(0, 1 << i)
        high = slice(1 << i, 2 << i)
        ch[high] = ch[low] | g._children[i]
        pa[high] = pa[low] | g._parents[i]
    anc = np.arange(1 << n, dtype=np.uint16)
    for _ in range(n):
        anc |= pa.take(anc)

    out = np.ones(a.shape, dtype=bool)
    live = np.arange(a.size)
    head = np.zeros_like(a)
    tail = np.zeros_like(a)
    new_head = ch.take(a)
    new_tail = pa.take(a) & ~b
    anc_c = anc.take(c)
    while live.size:
        reached = new_head | new_tail
        met = (reached & b) != 0
        out[live[met]] = False
        keep = ~met & (reached != 0)
        live, b, c, anc_c, head, tail, new_head, new_tail = (
            x[keep] for x in (live, b, c, anc_c, head, tail, new_head, new_tail)
        )
        head |= new_head
        tail |= new_tail
        grow_head = ch.take((new_head | new_tail) & ~c)
        grow_tail = pa.take((new_head & anc_c) | (new_tail & ~c)) & ~b
        new_head = grow_head & ~head
        new_tail = grow_tail & ~tail
    return out


def _query_masks(g: DiGraph, q: SeparationQuery) -> tuple[int, int, int]:
    return g.mask_of(q.a), g.mask_of(q.b), g.mask_of(q.c)


def delta_separates(g: DiGraph, q: SeparationQuery) -> bool:
    """Moral-graph decision procedure (the normative one)."""
    return delta_separates_masks(g, *_query_masks(g, q))


def delta_separates_trail(g: DiGraph, q: SeparationQuery) -> bool:
    """Trail decision procedure: no active allowed trail from a to b."""
    return delta_trail_masks(g, *_query_masks(g, q))


def subsets_by_size(labels: Iterable[str]) -> list[frozenset[str]]:
    """All subsets of ``labels`` ordered by (size, sorted member labels)."""
    labels = sorted(set(labels))
    masks = [(0, ())]
    for i, name in enumerate(labels):
        masks += [(m | (1 << i), members + (name,)) for m, members in masks]
    ranked = sorted(masks, key=lambda mm: (len(mm[1]), mm[1]))
    return [frozenset(members) for _, members in ranked]


def all_separations(g: DiGraph, max_cond: int) -> list[SeparationQuery]:
    """Every separated (a, b, c) with a, b nonempty and a, b, c pairwise
    disjoint, |c| <= max_cond, ordered by the ranks of a, b and c in
    ``subsets_by_size``.  One ``_delta_trail_arrays`` call decides every
    candidate triple.  A ``max_cond`` that is not a non-negative int
    (numpy ints are ints, a bool is not) is a ValueError."""
    _check_count(max_cond, "max_cond")
    if len(g.labels) > MAX_ENUMERATION_NODES:
        raise EnumerationGuardError(
            f"refusing to enumerate separations on {len(g.labels)} nodes "
            f"(limit {MAX_ENUMERATION_NODES})"
        )
    subsets = subsets_by_size(g.labels)
    masks = np.array([g.mask_of(s) for s in subsets], dtype=np.uint16)
    # ranks order the subsets by size, so the allowed c's are a prefix
    c_masks = masks[: sum(len(s) <= max_cond for s in subsets)]
    ra, rb = np.nonzero((masks[1:, None] & masks[1:]) == 0)
    ra, rb = ra + 1, rb + 1
    # row-major, so the triples stay in (rank a, rank b, rank c) order
    pair, rc = np.nonzero(((masks[ra] | masks[rb])[:, None] & c_masks) == 0)
    ra, rb = ra[pair], rb[pair]
    sep = _delta_trail_arrays(g, masks[ra], masks[rb], c_masks[rc])
    return [
        SeparationQuery(subsets[i], subsets[j], subsets[k])
        for i, j, k in zip(ra[sep].tolist(), rb[sep].tolist(), rc[sep].tolist())
    ]
