"""Executable checking of asymmetric (semi)graphoid properties.

An irrelevance oracle is any deterministic ternary predicate
``query(a, b, c)`` over subsets of a finite ground set, read "the past
of ``a`` is irrelevant for ``b`` given ``c``".  The checkers enumerate
every instance of a property over the power-set lattice (join = union,
meet = intersection, order = inclusion), report whether it holds, and
extract the first counterexample in a deterministic order: subsets are
ranked by (size, sorted member labels) and quantifiers nest in the
order the sets appear in the property.

Axioms come in left/right pairs because the relation is asymmetric.
The derived properties are:

- left/right trim: dropping the conditioning set from the left (right)
  argument does not change the relation (a biconditional).
- left/right disjoint intersection: the intersection property restated
  for four pairwise disjoint sets.
- shifted right decomposition: discarding part of the right argument is
  sound when the discard moves into the conditioning set.
- overlap-tolerant intersection: the right disjoint form with the first
  argument allowed to overlap the second and third.
- guarded right decomposition: plain right decomposition under the two
  sufficient side conditions that make it sound.

Each property is declared once, in the ``_RULES`` table: its quantified
variable names (``"AB"``, ``"ABC"`` or ``"ABCD"``), a side condition
``side(x, A, B, ...) -> truth value``, a rule
``rule(x, A, B, ...) -> (premise, conclusion)`` and, optionally, a
guard ``guard(x, A, B, ...) -> truth value``, one more premise that is
costly to ask.  An instance is a violation when the side condition,
premise and guard hold and the conclusion fails.  The side condition
is structural: it never queries the relation.  The properties without
one share ``_unconditional``, which is always true.  Side conditions,
rules and guards are written with the set operators ``|``, ``&``, ``-``
and ``<=`` and three hooks of the backend ``x``: ``x.q(a, b, c)``
queries the relation, ``x.disjoint(*sets)`` tests pairwise
disjointness and ``x.forall(S, clause)`` requires ``clause(k)`` for
every singleton ``k`` of ``S``.  A side condition is asked in two
places only: where the admitted tuples are listed, and in the replay.
Three backends run the same declarations:

- rank space (``check_axiom`` / ``check_derived`` of a rule without a
  word variable, see below): every quantified
  set is an array of subset ranks, and the lattice is evaluated with
  numpy against a precomputed truth table.  Ranks are ``uint16``
  (``RANK_DTYPE``), and each query ``q(a, b, c)`` is one ``take``
  from the flattened table at ``a*S^2 + b*S + c`` (S = 2^n subsets),
  which stays below 2^15 at ``MAX_AXIOM_GROUND``; the set operators
  gather from flat S x S tables the same way.  A rule is evaluated only
  on the rank tuples its side condition admits.  Its coupled variables
  are the first one and those the side condition is written in, read
  off the side condition by running it on ``_Uses``, which traces the
  variables each term reads; the others are free.  The coupled rank
  tuples where the side condition holds are listed once per side
  condition and ground size, on first use: all S ranks of A for
  ``_unconditional``, 3^n of the 4^n (A, D) pairs for ``D <= A``, 6^n
  (A, B, D) tuples for ``D <= B``, and 5^n, 7^n or 11^n of the 16^n
  tuples for the conditions on all four sets.  The evaluator does not
  ask the side condition again: every listed tuple satisfies it.  It
  puts listed entries on one axis and each free variable on its own,
  in chunks of at most 2^15 cells (``_BLOCK_CELLS``), so every
  intermediate array stays small.
  The first counterexample is the violating cell with the smallest
  position in the lattice order, which is not the chunk order when a
  free variable comes before a coupled one.  When every triple is
  evaluable the guard is staged: a chunk computes premise and failed
  conclusion, keeps the cells where both hold and asks the guard on
  rank arrays of those cells alone.  For guarded
  right decomposition under delta-separation that is 0.26% of the
  admitted tuples over all 4-node digraphs.  With unevaluable triples
  the guard is asked on every cell, as one more premise, so that the
  count of checked instances covers its queries.  The table asks the
  oracle each distinct triple once: every triple, or for an
  ``overlap_reducible`` oracle such as delta-separation only the
  reduced triples (A-(B|C), B, C-B).  When no asked triple is out of
  the oracle's domain the evaluability gather is skipped;
- packed words (``check_axiom`` / ``check_derived`` of the other
  rules): a rule without a guard has a word variable W when the side
  condition does not read W and every query of the rule takes W bare,
  never inside ``|``, ``&`` or ``-``, and always in the same argument
  slot; W is the first such variable, traced once per entry with
  ``_Calls``.  The truth table is packed, on first use per slot, into
  S-bit words (uint8 up to S = 8, then uint16 and uint32) whose bit r
  is the triple with rank r in W's slot, so a query is one gather of
  words at the other two arguments' ranks, over the other variables
  listed and chunked as in rank space.  A violation is premise AND NOT
  conclusion word by word (the literal premise ``True`` is every rank,
  ``==`` is the bitwise biconditional); ``checked`` counts the bits set
  in the AND of the evaluability words; and the lowest set bit of a
  violating word is W's least rank there.  W is B for the left forms of
  redundancy, decomposition, weak union, contraction, intersection and
  trim, and A for their right forms and for shifted right
  decomposition.  The other four properties have every set in their
  side condition or guard and run in rank space;
- replay (``violates``): the sets are frozensets and ``q`` is the raw
  oracle, which re-checks a reported counterexample independently of
  the truth table and of any listing.  The side condition, the rule and
  the guard are each asked, whatever the others return.

To add a property: add the enum member, add its entry
``(names, side, rule)`` to ``_RULES`` (``_unconditional`` as ``side``
when it has none), and add the matching entry to the independent slow
checker in ``tests/helpers.py``.  The side condition must not query
the relation, and it must be a named function or a lambda built once,
since its listing is cached per function.  A premise that is costly to
ask and rarely true where the rest of the rule is violated can be
declared as the entry's fourth field, its guard, with the rule's
signature and one truth value as result.  An entry without a guard
runs on packed words when one of its variables qualifies as its word
variable, and in rank space otherwise; record which in
``WORD_VARIABLE`` in ``tests/test_graphoid.py``, where a test pins it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from typing import Callable, Mapping

import numpy as np

from .graphs import DiGraph, UGraph, enumerate_digraphs
from .separation import EnumerationGuardError, delta_separates_masks

MAX_AXIOM_GROUND = 5
MAX_SEARCH_GROUND = 4
# Subset ranks and flat truth-table indices a*S^2 + b*S + c share this
# dtype; its range must cover S^3 - 1 for S = 2**MAX_AXIOM_GROUND.  A
# narrow index keeps the S^4-cell gathers of the checks cheap in time
# and memory.
RANK_DTYPE = np.uint16


class OracleDomainError(Exception):
    """The oracle cannot evaluate this triple (outside its domain)."""


@dataclass(frozen=True)
class IrrelevanceOracle:
    """A ternary irrelevance predicate over subsets of ``ground``.

    ``query`` must be total and deterministic, except that it may raise
    OracleDomainError for triples outside a declared domain; such
    instances are skipped (and counted) by the checkers, whatever
    ``overlap_reducible`` says.

    ``overlap_reducible`` asserts query(A,B,C) == query(A-(B|C), B, C-B)
    for every triple, including whether it raises OracleDomainError,
    which lets the table builder ask the reduced triples only.  Set it
    only for relations where that identity holds.
    """

    ground: tuple[str, ...]
    query: Callable[[frozenset, frozenset, frozenset], bool]
    name: str = "oracle"
    overlap_reducible: bool = False


class Axiom(Enum):
    LEFT_REDUNDANCY = "left_redundancy"
    RIGHT_REDUNDANCY = "right_redundancy"
    LEFT_DECOMPOSITION = "left_decomposition"
    RIGHT_DECOMPOSITION = "right_decomposition"
    LEFT_WEAK_UNION = "left_weak_union"
    RIGHT_WEAK_UNION = "right_weak_union"
    LEFT_CONTRACTION = "left_contraction"
    RIGHT_CONTRACTION = "right_contraction"
    LEFT_INTERSECTION = "left_intersection"
    RIGHT_INTERSECTION = "right_intersection"


class DerivedProperty(Enum):
    LEFT_TRIM = "left_trim"
    RIGHT_TRIM = "right_trim"
    LEFT_DISJOINT_INTERSECTION = "left_disjoint_intersection"
    RIGHT_DISJOINT_INTERSECTION = "right_disjoint_intersection"
    SHIFTED_RIGHT_DECOMPOSITION = "shifted_right_decomposition"
    OVERLAP_TOLERANT_INTERSECTION = "overlap_tolerant_intersection"
    GUARDED_RIGHT_DECOMPOSITION = "guarded_right_decomposition"


SEMIGRAPHOID_AXIOMS = (
    Axiom.LEFT_REDUNDANCY,
    Axiom.RIGHT_REDUNDANCY,
    Axiom.LEFT_DECOMPOSITION,
    Axiom.RIGHT_DECOMPOSITION,
    Axiom.LEFT_WEAK_UNION,
    Axiom.RIGHT_WEAK_UNION,
    Axiom.LEFT_CONTRACTION,
    Axiom.RIGHT_CONTRACTION,
)
GRAPHOID_AXIOMS = SEMIGRAPHOID_AXIOMS + (
    Axiom.LEFT_INTERSECTION,
    Axiom.RIGHT_INTERSECTION,
)

# Properties guaranteed for delta-separation on every directed graph;
# right redundancy and right decomposition are the two that may fail.
DELTA_SEPARATION_GUARANTEES = (
    Axiom.LEFT_REDUNDANCY,
    Axiom.LEFT_DECOMPOSITION,
    Axiom.LEFT_WEAK_UNION,
    Axiom.RIGHT_WEAK_UNION,
    Axiom.LEFT_CONTRACTION,
    Axiom.RIGHT_CONTRACTION,
    Axiom.LEFT_INTERSECTION,
    Axiom.RIGHT_INTERSECTION,
)

# Properties guaranteed for the intensity-based local independence
# relation of a composable process.
LOCAL_INDEPENDENCE_GUARANTEES = (
    Axiom.LEFT_REDUNDANCY,
    Axiom.LEFT_DECOMPOSITION,
    Axiom.LEFT_WEAK_UNION,
    Axiom.RIGHT_WEAK_UNION,
    Axiom.LEFT_CONTRACTION,
    Axiom.RIGHT_INTERSECTION,
)


@dataclass(frozen=True)
class CheckReport:
    prop: Axiom | DerivedProperty
    holds: bool
    counterexample: dict[str, frozenset[str]] | None
    checked: int
    skipped: int = 0

    def to_json_dict(self) -> dict:
        cx = None
        if self.counterexample is not None:
            cx = {k: sorted(v) for k, v in self.counterexample.items()}
        return {
            "property": self.prop.value,
            "holds": self.holds,
            "counterexample": cx,
            "checked": self.checked,
            "skipped": self.skipped,
        }


@dataclass(frozen=True)
class ProfileReport:
    reports: tuple[CheckReport, ...]
    matches_expected: bool | None = None

    def report_for(self, ax: Axiom) -> CheckReport:
        for r in self.reports:
            if r.prop is ax:
                return r
        raise KeyError(ax)


# --- rank-space tables ------------------------------------------------------


class _Tables:
    """Per-ground lookup tables: subset ranks and rank-space set algebra."""

    def __init__(self, ground: tuple[str, ...]):
        n = len(ground)
        size = 1 << n
        members = [
            tuple(sorted(ground[i] for i in range(n) if (m >> i) & 1))
            for m in range(size)
        ]
        order = sorted(range(size), key=lambda m: (len(members[m]), members[m]))
        self.ground = ground
        self.n = n
        self.size = size
        self.masks = np.array(order, dtype=np.int64)  # rank -> mask
        rank_of = np.empty(size, dtype=RANK_DTYPE)
        rank_of[self.masks] = np.arange(size)
        self.rank_of = rank_of  # mask -> rank
        # flat index strides, as RANK_DTYPE scalars so products stay narrow
        self.stride_a = RANK_DTYPE(size * size)
        self.stride_b = RANK_DTYPE(size)
        mi = self.masks[:, None]
        mj = self.masks[None, :]
        # pair tables, flat: entry i * S + j is for the rank pair (i, j)
        self.union = rank_of[mi | mj].reshape(-1)
        self.inter = rank_of[mi & mj].reshape(-1)
        self.diff = rank_of[mi & ~mj].reshape(-1)
        self.subset = ((mi & ~mj) == 0).reshape(-1)  # set_i <= set_j
        self.disjoint = ((mi & mj) == 0).reshape(-1)

    def pair(self, table: np.ndarray, i, j) -> np.ndarray:
        """Look up the rank pairs (i, j) in one of the flat pair tables."""
        return table.take(i * self.stride_b + j)

    def set_of(self, rank: int) -> frozenset[str]:
        m = int(self.masks[rank])
        return frozenset(self.ground[i] for i in range(self.n) if (m >> i) & 1)


@lru_cache(maxsize=64)
def _tables(ground: tuple[str, ...]) -> _Tables:
    return _Tables(ground)


@dataclass
class TruthTable:
    """Oracle answers for every subset triple, indexed by subset rank.

    ``all_evaluable`` records that no triple raised OracleDomainError."""

    tables: _Tables
    values: np.ndarray
    evaluable: np.ndarray
    all_evaluable: bool
    _packed: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def _words(self, slot: int, evaluable: bool = False) -> np.ndarray:
        """``values`` (or ``evaluable``) packed into S-bit words, built on
        first use: bit r of word i*S + j is the triple with rank r in
        argument ``slot`` and ranks i, j in the other two, in order.
        Words are uint8 up to S = 8, whose bits past S are zero, then
        uint16 and uint32."""
        key = (slot, evaluable)
        if key not in self._packed:
            size = self.tables.size
            cells = (self.evaluable if evaluable else self.values).reshape((size,) * 3)
            # packbits is several times faster along a contiguous axis
            cells = np.ascontiguousarray(np.moveaxis(cells, slot, -1))
            packed = np.packbits(cells, axis=-1, bitorder="little")
            dtype = np.dtype(f"u{max(1, size // 8)}")
            self._packed[key] = packed.view(dtype.newbyteorder("<")).astype(dtype).reshape(-1)
        return self._packed[key]


def build_truth_table(oracle: IrrelevanceOracle) -> TruthTable:
    ground = tuple(oracle.ground)
    if len(ground) > MAX_AXIOM_GROUND:
        raise EnumerationGuardError(
            f"refusing axiom enumeration over {len(ground)} ground elements "
            f"(limit {MAX_AXIOM_GROUND})"
        )
    if len(set(ground)) != len(ground):
        raise ValueError(f"ground has repeated labels: {list(ground)}")
    t = _tables(ground)
    a, b, c = (_Ranks(t, r) for r in _axes(t.size, 3))
    if oracle.overlap_reducible:
        a, c = a - (b | c), c - b
    # the flat index of the triple each cell asks; ask each distinct one
    # once, found with a mask: np.unique's first call imports numpy.ma,
    # about 1.7 MB of resident memory
    asked = _RankSpace.index(a, b, c)
    distinct = np.zeros(t.size**3, dtype=bool)
    distinct[asked] = True
    values = np.zeros(t.size**3, dtype=bool)
    evaluable = np.ones(t.size**3, dtype=bool)
    sets = [t.set_of(r) for r in range(t.size)]
    for flat in np.flatnonzero(distinct).tolist():
        ra, bc = divmod(flat, t.size * t.size)
        rb, rc = divmod(bc, t.size)
        try:
            values[flat] = oracle.query(sets[ra], sets[rb], sets[rc])
        except OracleDomainError:
            evaluable[flat] = False
    return TruthTable(t, values[asked], evaluable[asked], bool(evaluable.all()))


def _axes(size: int, k: int):
    """Index arrays for k nested quantifiers, broadcastable to (size,)*k."""
    ar = np.arange(size, dtype=RANK_DTYPE)
    out = []
    for axis in range(k):
        shape = [1] * k
        shape[axis] = size
        out.append(ar.reshape(shape))
    return out


# --- property declarations --------------------------------------------------


def _right_decomposition_guard(x, A, B, C, D):
    # right decomposition is sound when B is irrelevant for D given A|C,
    # or when every k in C-D is irrelevant from A or to B given the rest
    CD = C | D
    return x.q(B, D, A | C) | (
        x.q(B, A - CD, CD)
        & x.forall(C - D, lambda k: x.q(A, k, (C - k) | B) | x.q(B, k, (C - k) | D | A))
    )


# side conditions; the properties that share one share its listing
def _unconditional(x, *sets):
    return True


def _d_within_a(x, A, B, C, D):
    return D <= A


def _d_within_b(x, A, B, C, D):
    return D <= B


def _four_disjoint(x, A, B, C, D):
    return x.disjoint(A, B, C, D)


# property -> (quantified variable names, side condition, rule[, guard]);
# see the module docstring.
_RULES = {
    Axiom.LEFT_REDUNDANCY: ("AB", _unconditional, lambda x, A, B: (True, x.q(A, B, A))),
    Axiom.RIGHT_REDUNDANCY: ("AB", _unconditional, lambda x, A, B: (True, x.q(A, B, B))),
    Axiom.LEFT_DECOMPOSITION: ("ABCD", _d_within_a, lambda x, A, B, C, D: (
        x.q(A, B, C), x.q(D, B, C))),
    Axiom.RIGHT_DECOMPOSITION: ("ABCD", _d_within_b, lambda x, A, B, C, D: (
        x.q(A, B, C), x.q(A, D, C))),
    Axiom.LEFT_WEAK_UNION: ("ABCD", _d_within_a, lambda x, A, B, C, D: (
        x.q(A, B, C), x.q(A, B, C | D))),
    Axiom.RIGHT_WEAK_UNION: ("ABCD", _d_within_b, lambda x, A, B, C, D: (
        x.q(A, B, C), x.q(A, B, C | D))),
    Axiom.LEFT_CONTRACTION: ("ABCD", _unconditional, lambda x, A, B, C, D: (
        x.q(A, B, C) & x.q(D, B, A | C), x.q(A | D, B, C))),
    Axiom.RIGHT_CONTRACTION: ("ABCD", _unconditional, lambda x, A, B, C, D: (
        x.q(A, B, C) & x.q(A, D, B | C), x.q(A, B | D, C))),
    Axiom.LEFT_INTERSECTION: ("ABC", _unconditional, lambda x, A, B, C: (
        x.q(A, B, C) & x.q(C, B, A), x.q(A | C, B, A & C))),
    Axiom.RIGHT_INTERSECTION: ("ABC", _unconditional, lambda x, A, B, C: (
        x.q(A, B, C) & x.q(A, C, B), x.q(A, B | C, B & C))),
    DerivedProperty.LEFT_TRIM: ("ABC", _unconditional, lambda x, A, B, C: (
        True, x.q(A, B, C) == x.q(A - C, B, C))),
    DerivedProperty.RIGHT_TRIM: ("ABC", _unconditional, lambda x, A, B, C: (
        True, x.q(A, B, C) == x.q(A, B - C, C))),
    DerivedProperty.LEFT_DISJOINT_INTERSECTION: ("ABCD", _four_disjoint, lambda x, A, B, C, D: (
        x.q(A, B, C | D) & x.q(C, B, A | D), x.q(A | C, B, D))),
    DerivedProperty.RIGHT_DISJOINT_INTERSECTION: ("ABCD", _four_disjoint, lambda x, A, B, C, D: (
        x.q(A, B, C | D) & x.q(A, C, B | D), x.q(A, B | C, D))),
    DerivedProperty.SHIFTED_RIGHT_DECOMPOSITION: ("ABCD", _d_within_b, lambda x, A, B, C, D: (
        x.q(A, B, C), x.q(A, D, (C | B) - D))),
    DerivedProperty.OVERLAP_TOLERANT_INTERSECTION: (
        "ABCD",
        lambda x, A, B, C, D: x.disjoint(B, C, D) & x.disjoint(A, D),
        lambda x, A, B, C, D: (x.q(A, B, C | D) & x.q(A, C, B | D), x.q(A, B | C, D))),
    DerivedProperty.GUARDED_RIGHT_DECOMPOSITION: (
        "ABCD",
        lambda x, A, B, C, D: (D <= B) & ((A & B) <= (C | D)),
        lambda x, A, B, C, D: (x.q(A, B, C), x.q(A, D, C)),
        _right_decomposition_guard),
}


# --- rank-space backend -------------------------------------------------------


class _Ranks:
    """A quantified set as an array of subset ranks; operators are table lookups."""

    __slots__ = ("t", "r")

    def __init__(self, t: _Tables, r):
        self.t = t
        self.r = r

    def __or__(self, other: "_Ranks") -> "_Ranks":
        return _Ranks(self.t, self.t.pair(self.t.union, self.r, other.r))

    def __and__(self, other: "_Ranks") -> "_Ranks":
        return _Ranks(self.t, self.t.pair(self.t.inter, self.r, other.r))

    def __sub__(self, other: "_Ranks") -> "_Ranks":
        return _Ranks(self.t, self.t.pair(self.t.diff, self.r, other.r))

    def __le__(self, other: "_Ranks") -> np.ndarray:
        return self.t.pair(self.t.subset, self.r, other.r)


def _meet(mask, term):
    """``mask & term``, where a ``mask`` of None is true everywhere.  An
    AND is seeded from its first array operand: numpy ANDs a scalar into
    an array several times slower than two arrays."""
    return term if mask is None else mask & term


class _RankSpace:
    """Rule backend over a truth table.  ``q`` returns the table's answers
    and ANDs the queried cells' evaluability into ``evaluable``, which is
    None until the first query of a table with unevaluable triples."""

    def __init__(self, tt: TruthTable):
        self.tt = tt
        self.values = tt.values.reshape(-1)
        self.cell_evaluable = None if tt.all_evaluable else tt.evaluable.reshape(-1)
        self.evaluable = None

    @staticmethod
    def index(a: _Ranks, b: _Ranks, c: _Ranks) -> np.ndarray:
        """The flat truth-table index a*S^2 + b*S + c of each triple.  The
        two smaller operands are summed first, so only the last addition
        runs at the full broadcast size."""
        t = a.t
        x, y, z = sorted((a.r * t.stride_a, b.r * t.stride_b, c.r), key=np.size)
        return (x + y) + z

    def q(self, a: _Ranks, b: _Ranks, c: _Ranks) -> np.ndarray:
        idx = self.index(a, b, c)
        if self.cell_evaluable is not None:
            self.evaluable = _meet(self.evaluable, self.cell_evaluable.take(idx))
        return self.values.take(idx)

    def disjoint(self, *sets: _Ranks) -> np.ndarray:
        t = self.tt.tables
        out = None
        for i, a in enumerate(sets):
            for b in sets[i + 1 :]:
                out = _meet(out, t.pair(t.disjoint, a.r, b.r))
        return np.True_ if out is None else out

    def forall(self, s: _Ranks, clause) -> np.ndarray:
        # clause(k) and its evaluability count only where k is in s
        t = self.tt.tables
        outer = self.evaluable
        holds = None
        for bit_index in range(t.n):
            k = _Ranks(t, t.rank_of[1 << bit_index])
            skip = ~(k <= s)
            self.evaluable = None
            holds = _meet(holds, clause(k) | skip)
            if self.evaluable is not None:
                outer = _meet(outer, self.evaluable | skip)
        self.evaluable = outer
        return np.True_ if holds is None else holds


class _Words:
    """One query's answers as words of bits, bit r for rank r of the word
    variable.  ``==`` is the bitwise biconditional, as in the trims."""

    __slots__ = ("w",)

    def __init__(self, w: np.ndarray):
        self.w = w

    def __and__(self, other: "_Words") -> "_Words":
        return _Words(self.w & other.w)

    def __or__(self, other: "_Words") -> "_Words":
        return _Words(self.w | other.w)

    def __eq__(self, other: "_Words") -> "_Words":
        return _Words(~(self.w ^ other.w))


class _WordSpace:
    """Rule backend for a rule whose word variable is argument ``slot`` of
    every query.  ``q`` ignores that argument and gathers the table's
    words at the other two, and ANDs their evaluability words into
    ``evaluable`` as ``_RankSpace.q`` does."""

    def __init__(self, tt: TruthTable, slot: int):
        self.slot = slot
        self.stride = tt.tables.stride_b
        self.values = tt._words(slot)
        self.cell_evaluable = None if tt.all_evaluable else tt._words(slot, evaluable=True)
        self.evaluable = None

    def q(self, *args: _Ranks) -> _Words:
        i, j = (a.r for k, a in enumerate(args) if k != self.slot)
        idx = i * self.stride + j
        if self.cell_evaluable is not None:
            self.evaluable = _meet(self.evaluable, self.cell_evaluable.take(idx))
        return _Words(self.values.take(idx))


# Most cells one chunk evaluates.  A 4-set rule on five nodes spans 2^20
# cells; evaluated whole, every intermediate array is fresh memory, so
# each check pays for thousands of page faults and streams megabytes
# through the caches.  Chunks of this size keep the intermediates small
# enough for the allocator to reuse in place.  A chunk of listed 4-set
# tuples holds a rank array per set: chunks of 2^16 cells raised the
# peak memory of the ``axioms`` benchmark by 1.4 MB over 2^15 and ran no
# faster.
_BLOCK_CELLS = 1 << 15


class _Uses(frozenset):
    """The quantified variables a term reads.  Used as a side condition's
    backend and sets, every operation returns the union of its operands'
    variables, so the side condition comes out as the variables it is
    written in."""

    def _join(self, *others) -> "_Uses":
        return _Uses(self.union(*(o for o in others if isinstance(o, frozenset))))

    __or__ = __ror__ = __and__ = __rand__ = __sub__ = __le__ = __eq__ = _join
    q = disjoint = _join
    __hash__ = frozenset.__hash__

    def __invert__(self) -> "_Uses":
        return self

    def forall(self, s: "_Uses", clause) -> "_Uses":
        return self._join(s, clause(_Uses()))


def _reads(names: str, side) -> frozenset:
    """The quantified variables the side condition ``side`` is written in."""
    reads = side(_Uses(), *map(_Uses, names))
    return reads if isinstance(reads, frozenset) else frozenset()


class _Calls(list):
    """A rule backend that lists the arguments of every query, as ``_Uses``
    terms; any other hook is listed as None."""

    def q(self, *args: _Uses) -> _Uses:
        self.append(args)
        return _Uses()._join(*args)

    def disjoint(self, *sets: _Uses) -> _Uses:
        self.append(None)
        return _Uses()._join(*sets)

    def forall(self, s: _Uses, clause) -> _Uses:
        self.append(None)
        return _Uses()._join(s, clause(_Uses()))


@lru_cache(maxsize=None)
def _word_variable(names: str, side, rule, guard=None) -> tuple[str, int] | None:
    """The word variable of a ``_RULES`` entry and its argument slot, or
    None.  It is the first variable the side condition does not read
    that every query of the rule takes bare, in one and the same slot,
    and no other argument reads; an entry with a guard has none.  Traced
    once per entry, by running the rule on ``_Calls`` and ``_Uses``."""
    if guard is not None:
        return None
    calls = _Calls()
    sets = [_Uses(v) for v in names]
    rule(calls, *sets)
    if not calls or None in calls:
        return None
    reads = _reads(names, side)
    for v, bare in zip(names, sets):
        slots = {tuple(k for k, a in enumerate(args) if v in a) for args in calls}
        if v in reads or len(slots) != 1:
            continue
        (slot,) = slots
        if len(slot) == 1 and all(args[slot[0]] is bare for args in calls):
            return v, slot[0]
    return None


@lru_cache(maxsize=None)
def _admitted(names: str, side, n: int) -> tuple[str, np.ndarray]:
    """The coupled variables of the side condition ``side`` over the
    quantified variables ``names``, and the C-order positions of their
    rank tuples over n ground elements where it holds, ascending.

    The coupled variables are the first one and every one the side
    condition is written in, in quantifier order.  The side condition
    ignores the others, the free variables, so a full rank tuple is
    admitted exactly when its coupled part is listed.  The list depends
    only on n, since rank r is the same subset of the sorted labels for
    every ground; it is built on first use, in blocks of the first axis,
    with the free variables set to the empty set."""
    reads = _reads(names, side)
    coupled = "".join(v for v in names if v == names[0] or v in reads)
    t = _Tables(tuple(str(i) for i in range(n)))
    ones = np.ones(t.size**3, dtype=bool)
    x = _RankSpace(TruthTable(t, ones, ones, True))
    first, *rest = _axes(t.size, len(coupled))
    cells = t.size ** len(rest)
    step = max(1, _BLOCK_CELLS // cells)
    parts = []
    for lo in range(0, t.size, step):
        ranks = dict(zip(coupled, [first[lo : lo + step]] + rest))
        sets = [_Ranks(t, ranks.get(v, RANK_DTYPE(0))) for v in names]
        shape = (min(step, t.size - lo),) + (t.size,) * len(rest)
        holds = np.broadcast_to(side(x, *sets), shape)
        parts.append(np.flatnonzero(holds).astype(np.uint32) + np.uint32(lo * cells))
    listed = np.concatenate(parts)
    listed.setflags(write=False)
    return coupled, listed


def _position(n: int, names: str, coupled: str, entries, free):
    """The lattice positions (C order over ``names``) of the rank tuples
    whose coupled variables sit at C-order positions ``entries`` of
    their own rank tuples, and whose free variables at ``free``.  Each
    rank is an n-bit field of a position, the first variable highest."""
    k, f = len(coupled), len(names) - len(coupled)
    pos = 0
    for v in names:
        if v in coupled:
            k -= 1
            field = entries >> (n * k)
        else:
            f -= 1
            field = free >> (n * f)
        pos = (pos << n) | (field & ((1 << n) - 1))
    return pos


def _chunks(t: _Tables, names: str, coupled: str, listed: np.ndarray):
    """The rank tuples over ``names`` whose coupled variables are at a
    ``listed`` position, the free variables ranging over all ranks, in
    chunks of at most _BLOCK_CELLS cells: listed entries on the first
    axis and one axis per free variable.  Yields each chunk's entries,
    its rank array per variable and its shape."""
    n, size = t.n, t.size
    free = [v for v in names if v not in coupled]
    ranks = dict(zip(free, _axes(size, 1 + len(free))[1:]))
    step = max(1, _BLOCK_CELLS // size ** len(free))
    for lo in range(0, len(listed), step):
        where = listed[lo : lo + step]
        column = where.reshape((-1,) + (1,) * len(free))
        for i, v in enumerate(coupled):
            ranks[v] = ((column >> (n * (len(coupled) - 1 - i))) & (size - 1)).astype(RANK_DTYPE)
        yield where, ranks, (len(where),) + (size,) * len(free)


def _evaluate(tt: TruthTable, names: str, rule, coupled: str, listed: np.ndarray, guard=None):
    """Evaluate ``rule``, and ``guard`` as one more premise, on every rank
    tuple whose coupled variables are at a ``listed`` position, the free
    variables ranging over all ranks.  Every listed tuple satisfies the
    side condition, so a violation is a tuple where the premise holds
    and the conclusion fails.

    Returns the lattice position of the first violation (None if there
    is none) and the number of tuples whose queries are all evaluable.
    The tuples are evaluated a chunk (``_chunks``) at a time.  When
    every query is evaluable the guard is staged: it is asked, on 1-D
    rank arrays, only at the chunk's cells that violate the rule without
    it.  Otherwise it runs on the whole chunk, so that its queries count
    towards ``checked``.  Chunk order is not lattice order when a free
    variable comes before a coupled one, so a chunk's first violation is
    the least lattice position among its violating cells.  A chunk whose
    first cell lies past the first violation so far cannot improve on
    it, and once such a chunk is reached with every query evaluable, the
    rest cannot either."""
    t = tt.tables
    n, size = t.n, t.size
    end = hit = size ** len(names)  # past every lattice position
    checked = len(listed) * size ** (len(names) - len(coupled)) if tt.all_evaluable else 0
    for where, ranks, shape in _chunks(t, names, coupled, listed):
        late = hit <= _position(n, names, coupled, int(where[0]), 0)
        if late and tt.all_evaluable:
            break
        x = _RankSpace(tt)
        sets = [_Ranks(t, ranks[v]) for v in names]
        premise, conclusion = rule(x, *sets)
        if guard and not tt.all_evaluable:
            premise = premise & guard(x, *sets)
        if not tt.all_evaluable:
            checked += int(np.count_nonzero(np.broadcast_to(x.evaluable, shape)))
        if late:
            continue
        violated = ~conclusion if premise is True else premise & ~conclusion
        if not tt.all_evaluable:
            violated = violated & x.evaluable
        cell = np.flatnonzero(np.broadcast_to(violated, shape))
        if not cell.size:
            continue
        free_bits = n * (len(shape) - 1)
        pos = _position(n, names, coupled, where[cell >> free_bits], cell & ((1 << free_bits) - 1))
        if guard and tt.all_evaluable:
            at = np.unravel_index(pos, (size,) * len(names))
            pos = pos[guard(x, *(_Ranks(t, r.astype(RANK_DTYPE)) for r in at))]
        hit = int(pos.min(initial=hit))
    return (None if hit == end else hit), checked


# set bits of each byte value
_BIT_COUNT = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)


def _with_rank(n: int, position, rank, below: int):
    """Insert an n-bit rank field into lattice position ``position``,
    above its ``below`` lowest bits."""
    return (((position >> below) << n | rank) << below) | (position & ((1 << below) - 1))


def _evaluate_words(
    tt: TruthTable, names: str, rule, coupled: str, listed: np.ndarray, word: str, slot: int
):
    """``_evaluate`` for a rule without a guard whose every query takes the
    variable ``word`` bare in argument ``slot``: the same result, with
    ``word`` packed into the bits of one S-bit word per cell of the other
    variables' chunks, each at most _BLOCK_CELLS words.  The side
    condition does not read ``word``; when it is the first variable, and
    coupled only by position, the list is its first S-th repeated for
    every rank of ``word``.  A query is one gather of words, ``checked``
    counts the bits set in the AND of its evaluability words, and the
    least rank of ``word`` in a violating word is its lowest set bit."""
    t = tt.tables
    n, size = t.n, t.size
    if coupled[0] == word:
        coupled, listed = coupled[1:], listed[: len(listed) >> n]
    others = names.replace(word, "")
    below = n * (len(names) - 1 - names.index(word))  # the bits of later variables
    end = hit = size ** len(names)
    checked = len(listed) * size ** (len(names) - len(coupled)) if tt.all_evaluable else 0
    for where, ranks, shape in _chunks(t, others, coupled, listed):
        late = hit <= _with_rank(n, _position(n, others, coupled, int(where[0]), 0), 0, below)
        if late and tt.all_evaluable:
            break
        x = _WordSpace(tt, slot)
        premise, conclusion = rule(x, *(None if v == word else _Ranks(t, ranks[v]) for v in names))
        if not tt.all_evaluable:
            # each word of x.evaluable stands for as many chunk cells
            ones = _BIT_COUNT.take(np.ascontiguousarray(x.evaluable).view(np.uint8))
            checked += int(ones.sum(dtype=np.int64)) * (math.prod(shape) // x.evaluable.size)
        if late:
            continue
        violated = ~conclusion.w if premise is True else premise.w & ~conclusion.w
        if not tt.all_evaluable:
            violated = violated & x.evaluable
        elif premise is True and size < 8:
            violated = violated & ((1 << size) - 1)  # bits past S are no ranks
        violated = np.broadcast_to(violated, shape).reshape(-1)
        cell = np.flatnonzero(violated)
        if not cell.size:
            continue
        bits = violated[cell].astype(np.int64)
        least = np.frexp(bits & -bits)[1] - 1  # the index of the lowest set bit
        free_bits = n * (len(shape) - 1)
        pos = _position(n, others, coupled, where[cell >> free_bits], cell & ((1 << free_bits) - 1))
        hit = int(_with_rank(n, pos.astype(np.int64), least, below).min(initial=hit))
    return (None if hit == end else hit), checked


def _sets_at(t: _Tables, names: str, position: int) -> dict[str, frozenset[str]]:
    ranks = np.unravel_index(position, (t.size,) * len(names))
    return {name: t.set_of(int(rank)) for name, rank in zip(names, ranks)}


def _check(tt: TruthTable, prop: Axiom | DerivedProperty) -> CheckReport:
    names, side, rule, *guard = _RULES[prop]
    coupled, listed = _admitted(names, side, tt.tables.n)
    word = _word_variable(names, side, rule, *guard)
    if word:
        hit, checked = _evaluate_words(tt, names, rule, coupled, listed, *word)
    else:
        hit, checked = _evaluate(tt, names, rule, coupled, listed, *guard)
    admitted = len(listed) * tt.tables.size ** (len(names) - len(coupled))
    cx = None if hit is None else _sets_at(tt.tables, names, hit)
    return CheckReport(prop, hit is None, cx, checked, admitted - checked)


def _table_for(oracle: IrrelevanceOracle, table: TruthTable | None) -> TruthTable:
    if table is None:
        return build_truth_table(oracle)
    if table.tables.ground != tuple(oracle.ground):
        raise ValueError(
            f"truth table is for ground {list(table.tables.ground)}, not {list(oracle.ground)}"
        )
    return table


def check_axiom(
    oracle: IrrelevanceOracle, ax: Axiom, table: TruthTable | None = None
) -> CheckReport:
    """Exhaustively check one axiom; report the first violation if any."""
    if not isinstance(ax, Axiom):
        raise ValueError(f"not an axiom: {ax}")
    return _check(_table_for(oracle, table), ax)


def check_derived(
    oracle: IrrelevanceOracle, prop: DerivedProperty, table: TruthTable | None = None
) -> CheckReport:
    """Exhaustively check one derived property."""
    if not isinstance(prop, DerivedProperty):
        raise ValueError(f"unknown derived property: {prop}")
    return _check(_table_for(oracle, table), prop)


def check_semigraphoid_profile(
    oracle: IrrelevanceOracle,
    expected: Mapping[Axiom, bool] | None = None,
    table: TruthTable | None = None,
) -> ProfileReport:
    """Run all ten axioms; optionally compare against an expected pattern.

    ``expected`` may constrain any subset of the axioms; unmentioned
    axioms are allowed to come out either way.
    """
    for key in expected or ():
        if not isinstance(key, Axiom):
            raise ValueError(f"expected pattern keys must be axioms, not {key!r}")
    tt = _table_for(oracle, table)
    reports = tuple(check_axiom(oracle, ax, tt) for ax in GRAPHOID_AXIOMS)
    matches = None
    if expected is not None:
        observed = {r.prop: r.holds for r in reports}
        matches = all(observed[ax] == want for ax, want in expected.items())
    return ProfileReport(reports, matches)


# --- replay backend: direct re-evaluation of reported counterexamples -------


class _Replay:
    """Rule backend over frozensets, querying the raw oracle."""

    def __init__(self, oracle: IrrelevanceOracle):
        self.q = oracle.query

    @staticmethod
    def disjoint(*sets: frozenset) -> bool:
        return sum(map(len, sets)) == len(frozenset().union(*sets))

    @staticmethod
    def forall(s: frozenset, clause) -> bool:
        return all(clause(frozenset([k])) for k in s)


def violates(
    oracle: IrrelevanceOracle,
    prop: Axiom | DerivedProperty,
    sets: Mapping[str, frozenset],
) -> bool:
    """Re-evaluate a property instance through the raw oracle.

    True iff the instance is a genuine violation: structural side
    conditions and premises hold but the conclusion fails.  This is the
    self-check for counterexamples carried by CheckReport.  ``sets``
    maps the property's variable names ("A", "B", ...) to sets; a
    missing name stands for the empty set, and any other key is a
    ValueError.  An OracleDomainError raised by the oracle propagates.
    """
    if prop not in _RULES:
        raise ValueError(f"unknown property: {prop}")
    names, side, rule, *guard = _RULES[prop]
    unknown = sorted(set(sets) - set(names), key=str)
    if unknown:
        raise ValueError(f"{prop.value} quantifies over {list(names)}, not {unknown}")
    args = [frozenset(sets.get(name, frozenset())) for name in names]
    x = _Replay(oracle)
    holds = side(x, *args)
    premise, conclusion = rule(x, *args)
    guarded = all(g(x, *args) for g in guard)
    return bool(holds and premise and guarded and not conclusion)


# --- oracle factories --------------------------------------------------------


def delta_separation_oracle(g: DiGraph) -> IrrelevanceOracle:
    """Irrelevance via graph separation: (a, b, c) true iff c separates
    a from b in g."""

    def query(a: frozenset, b: frozenset, c: frozenset) -> bool:
        return delta_separates_masks(g, g.mask_of(a), g.mask_of(b), g.mask_of(c))

    return IrrelevanceOracle(
        ground=g.labels, query=query, name="delta-separation", overlap_reducible=True
    )


def undirected_separation_oracle(h: UGraph) -> IrrelevanceOracle:
    """Classical symmetric separation in an undirected graph."""

    def query(a: frozenset, b: frozenset, c: frozenset) -> bool:
        return h.u_separated(a, b, c)

    return IrrelevanceOracle(ground=h.labels, query=query, name="u-separation")


def constant_oracle(ground, value: bool = True) -> IrrelevanceOracle:
    ground = tuple(sorted(set(ground)))
    return IrrelevanceOracle(
        ground=ground, query=lambda a, b, c: value, name=f"constant-{value}"
    )


# --- counterexample searches over small graph families -----------------------


def _disjoint_right_decomposition(x, A, B, C, D):
    # A nonempty (only the empty set is disjoint from itself), A, B and
    # C pairwise disjoint, and D a proper subset of B, which makes B
    # nonempty too
    return ~x.disjoint(A, A) & x.disjoint(A, B, C) & (D <= B) & ~(B <= D)


def find_right_decomposition_counterexample(
    ground_size: int,
) -> tuple[DiGraph, dict[str, frozenset[str]]] | None:
    """Search all digraphs on ``ground_size`` labeled nodes for a right
    decomposition violation on disjoint sets: nonempty disjoint A, B and
    disjoint C with D a proper subset of B such that A is separated from
    B by C but not from D.  Returns the first (graph, sets) found.

    Overlapping-set violations are excluded here (they already occur on
    two nodes through the query reduction); the full lattice is covered
    by check_axiom instead.
    """
    if ground_size > MAX_SEARCH_GROUND:
        raise EnumerationGuardError(
            f"refusing graph search over {ground_size} nodes "
            f"(limit {MAX_SEARCH_GROUND})"
        )
    labels = ("a", "b", "c", "d")[:ground_size]
    names, _, rule = _RULES[Axiom.RIGHT_DECOMPOSITION]
    coupled, listed = _admitted(names, _disjoint_right_decomposition, ground_size)
    for g in enumerate_digraphs(labels):
        tt = build_truth_table(delta_separation_oracle(g))
        hit, _ = _evaluate(tt, names, rule, coupled, listed)
        if hit is not None:
            return g, _sets_at(tt.tables, names, hit)
    return None
