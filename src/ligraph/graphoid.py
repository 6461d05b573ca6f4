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
every singleton ``k`` of ``S``.  The declarations run in two places:

- the packed evaluator (``check_axiom``, ``check_derived`` and
  ``find_right_decomposition_counterexample``).  Every rule has a word
  variable W: a set that each of its queries takes bare, never inside
  ``|``, ``&`` or ``-``, in the same one of the first two argument
  slots, preferably one the side condition does not read; it is traced
  once per entry with ``_Calls`` and ``_Uses``.  The truth table asks
  the oracle each distinct triple once (for an ``overlap_reducible``
  oracle such as delta-separation only the reduced triples (A-(B|C), B,
  C-B) of ``separation._reduce_masks``).  When the query is the one
  ``delta_separation_oracle`` made and the ground holds exactly its
  graph's labels, in any order, the distinct triples are instead
  answered together by the array trail procedure of ``separation``; a
  query replaced by any other callable, such as a counting wrapper, is
  asked triple by triple.  The table packs the answers, per slot, into
  S-bit words (S = 2^n subsets; uint8 up to S = 8, then uint16 and
  uint32) whose bit r is the triple with rank r in that slot.  Every other set is an array of
  subset masks, bit i for the i-th label in sorted order, and the set
  operators are bitwise; ranks serve only as the bit order of a word and
  as lattice positions.  A query is then one gather of words at the
  other two arguments' masks, and one word operation decides S
  instances.  The coupled variables are the first one but W and the
  others the side condition reads; the rest but W are free.  The coupled
  rank tuples are listed once per side condition, W and ground size, on
  first use, in rank space: each listed tuple stores a side word whose
  bit r says whether the side condition holds with W at rank r, and
  tuples whose side word is zero are not listed.  The evaluator runs the
  rule once, on the listed tuples on one axis and each free variable on
  its own.  A violation is a bit of premise AND NOT conclusion (the
  literal premise ``True`` is every rank, ``==`` the bitwise
  biconditional) that is also set in the side word and, when some triple
  is out of the oracle's domain, in the evaluability words; the lowest
  such bit of a word is W's least rank there, and the first
  counterexample is the least lattice position over the violating words.
  ``checked`` counts the admitted bits whose queries are all evaluable.
  The guard is asked in rank space (``_RankSpace``): the set bits of the
  violating words are unpacked into rank tuples, each rank is replaced
  by its mask, and each query is one ``take`` from the flat truth table
  at the masks' ``a*S^2 + b*S + c``, in ``uint16`` (``RANK_DTYPE``).
  When some triple is unevaluable the guard is asked at every admitted
  bit whose rule queries are evaluable instead, so that ``checked``
  covers its queries;
- the replay (``violates``): the sets are frozensets and ``q`` is the
  raw oracle, which re-checks a reported counterexample independently
  of the truth table and of any listing.  The side condition, the rule
  and the guard are each asked, whatever the others return.

To add a property: add the enum member, add its entry
``(names, side, rule)`` to ``_RULES`` (``_unconditional`` as ``side``
when it has none), and add the matching entry to the independent slow
checker in ``tests/helpers.py``.  Every rule needs one set that all
its queries take bare in one slot, the first or the second; record it
in ``WORD_VARIABLE`` in ``tests/test_graphoid.py``, where a test pins
it.  The side condition must not query the relation, and it must be a
named function or a lambda built once, since its listing is cached per
function.  A premise that is costly to ask and rarely true where the
rest of the rule is violated can be declared as the entry's fourth
field, its guard, with the rule's signature and one truth value as
result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Callable, Mapping, NamedTuple

import numpy as np

from .graphs import DiGraph, UGraph, _check_count, _collection, _label_set, enumerate_digraphs
from .separation import EnumerationGuardError, _delta_trail_arrays, _reduce_masks
from .separation import delta_separates_masks

MAX_AXIOM_GROUND = 5
MAX_SEARCH_GROUND = 4
# Subset masks, subset ranks and flat truth-table indices a*S^2 + b*S + c
# of masks share this dtype; its range must cover S^3 - 1 for
# S = 2**MAX_AXIOM_GROUND.  A narrow index keeps the gathers of the
# checks cheap in time and memory.
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


# --- subset tables -----------------------------------------------------------


class _Tables:
    """Per-ground subset tables.  A set is a mask whose bit i is the
    i-th label in sorted order, whatever the order of ``ground``.
    ``masks`` maps a rank to its mask and ``sets`` a mask to its set;
    ranks order the subsets by (size, sorted member labels), so rank r
    is the same mask for every ground of a size."""

    def __init__(self, ground: tuple[str, ...]):
        labels = sorted(ground)
        n = len(labels)
        size = 1 << n
        self.ground = ground
        self.n = n
        self.size = size
        self.sets = [frozenset(labels[i] for i in range(n) if (m >> i) & 1) for m in range(size)]
        order = sorted(range(size), key=lambda m: (len(self.sets[m]), sorted(self.sets[m])))
        self.masks = np.array(order, dtype=RANK_DTYPE)  # rank -> mask
        # flat index strides, as RANK_DTYPE scalars so products stay narrow
        self.stride_a = RANK_DTYPE(size * size)
        self.stride_b = RANK_DTYPE(size)

    def set_of(self, rank: int) -> frozenset[str]:
        return self.sets[self.masks[rank]]


@lru_cache(maxsize=64)
def _tables(ground: tuple[str, ...]) -> _Tables:
    return _Tables(ground)


# The argument slots whose answers a truth table packs into words, and
# so the slots a word variable may take.
_WORD_SLOTS = (0, 1)


def _pack(bits: np.ndarray) -> np.ndarray:
    """Pack a bool array along its last axis, of S entries, into a flat
    array of S-bit words, bit r for entry r: uint8 up to S = 8, whose
    bits past S are zero, then uint16 and uint32."""
    dtype = np.dtype(f"u{max(1, bits.shape[-1] // 8)}")
    packed = np.packbits(bits, axis=-1, bitorder="little")
    return packed.view(dtype.newbyteorder("<")).astype(dtype).reshape(-1)


def _slot_words(cells: np.ndarray, t: _Tables) -> tuple[np.ndarray, ...]:
    """Per slot of _WORD_SLOTS, the S^3 triples ``cells``, indexed by
    masks, packed into words: bit r of word i*S + j is the triple with
    rank r in that slot and masks i, j in the other two, in order."""
    cube = cells.reshape((t.size,) * 3)
    # the take also makes the packed axis contiguous, where packbits is
    # several times faster
    return tuple(_pack(np.moveaxis(cube, s, -1).take(t.masks, axis=-1)) for s in _WORD_SLOTS)


@dataclass
class TruthTable:
    """Oracle answers for every subset triple, at the flat index
    a*S^2 + b*S + c of the triple's masks.

    ``all_evaluable`` records that no triple raised OracleDomainError.
    ``words`` holds ``values`` packed by ``_slot_words``, and
    ``evaluable_words`` holds ``evaluable`` the same way, or None when
    every triple is evaluable."""

    tables: _Tables
    values: np.ndarray
    evaluable: np.ndarray
    all_evaluable: bool
    words: tuple[np.ndarray, ...]
    evaluable_words: tuple[np.ndarray, ...] | None


def _sorted_ground(ground) -> list:
    """A ground's distinct labels in sorted order, the bit order of every
    mask; labels that do not hash or sort are a ValueError."""
    try:
        return sorted(set(ground))
    except TypeError:
        raise ValueError(f"ground labels must hash and sort: {list(ground)}") from None


def build_truth_table(oracle: IrrelevanceOracle) -> TruthTable:
    ground = _collection(oracle.ground, "ground")
    if len(ground) > MAX_AXIOM_GROUND:
        raise EnumerationGuardError(
            f"refusing axiom enumeration over {len(ground)} ground elements "
            f"(limit {MAX_AXIOM_GROUND})"
        )
    labels = _sorted_ground(ground)
    if len(labels) != len(ground):
        raise ValueError(f"ground has repeated labels: {list(ground)}")
    t = _tables(ground)
    asked, flat, triple = _asked(t.size, oracle.overlap_reducible)
    values = np.zeros(t.size**3, dtype=bool)
    evaluable = np.ones(t.size**3, dtype=bool)
    query = oracle.query
    if isinstance(query, _DeltaSeparationQuery) and labels == list(query.g.labels):
        values[flat] = _delta_trail_arrays(query.g, *triple)
    else:
        sets = t.sets
        for at, ma, mb, mc in zip(flat.tolist(), *(m.tolist() for m in triple)):
            try:
                values[at] = query(sets[ma], sets[mb], sets[mc])
            except OracleDomainError:
                evaluable[at] = False
    all_evaluable = bool(evaluable.all())
    values, evaluable = values[asked], evaluable[asked]
    words = _slot_words(values, t)
    evaluable_words = None if all_evaluable else _slot_words(evaluable, t)
    return TruthTable(t, values, evaluable, all_evaluable, words, evaluable_words)


@lru_cache(maxsize=None)
def _asked(size: int, overlap_reducible: bool):
    """What a truth table over S = ``size`` subsets asks, as read-only
    arrays: per cell, the flat index a*S^2 + b*S + c of the triple it
    asks (for an ``overlap_reducible`` oracle the reduced triple); the
    distinct flat indices, ascending; and their masks (a, b, c)."""
    a, b, c = _axes(size, 3)
    if overlap_reducible:
        a, b, c = _reduce_masks(a, b, c)
    asked = (a * RANK_DTYPE(size * size) + b * RANK_DTYPE(size)) + c
    # the distinct ones are found with a mask: np.unique's first call
    # imports numpy.ma, about 1.7 MB of resident memory
    distinct = np.zeros(size**3, dtype=bool)
    distinct[asked] = True
    flat = np.flatnonzero(distinct).astype(RANK_DTYPE)
    ma, rest = np.divmod(flat, RANK_DTYPE(size * size))
    triple = (ma, *np.divmod(rest, RANK_DTYPE(size)))
    for array in (asked, flat, *triple):
        array.flags.writeable = False
    return asked, flat, triple


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


# side conditions; the properties that share one and a word variable
# share its listing
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


# --- backends -----------------------------------------------------------------


class _Masks:
    """A quantified set as an array of subset masks; operators are bitwise."""

    __slots__ = ("m",)

    def __init__(self, m):
        self.m = m

    def __or__(self, other: "_Masks") -> "_Masks":
        return _Masks(self.m | other.m)

    def __and__(self, other: "_Masks") -> "_Masks":
        return _Masks(self.m & other.m)

    def __sub__(self, other: "_Masks") -> "_Masks":
        return _Masks(self.m & ~other.m)

    def __le__(self, other: "_Masks") -> np.ndarray:
        return (self.m & ~other.m) == 0


def _meet(mask, term):
    """``mask & term``, where a ``mask`` of None is true everywhere.  An
    AND is seeded from its first array operand: numpy ANDs a scalar into
    an array several times slower than two arrays."""
    return term if mask is None else mask & term


class _RankSpace:
    """Rule backend over mask arrays of the subsets in ``t``, one cell per
    tuple of sets.  ``q`` returns a truth table's ``values`` and ANDs the
    queried cells' ``cell_evaluable`` into ``evaluable``, which is None
    until the first query of a table with unevaluable triples.  A side
    condition needs neither, since it never queries."""

    def __init__(self, t: _Tables, values=None, cell_evaluable=None):
        self.t = t
        self.values = values
        self.cell_evaluable = cell_evaluable
        self.evaluable = None

    def index(self, a: _Masks, b: _Masks, c: _Masks) -> np.ndarray:
        """The flat truth-table index a*S^2 + b*S + c of each triple.  The
        two smaller operands are summed first, so only the last addition
        runs at the full broadcast size."""
        t = self.t
        x, y, z = sorted((a.m * t.stride_a, b.m * t.stride_b, c.m), key=np.size)
        return (x + y) + z

    def q(self, a: _Masks, b: _Masks, c: _Masks) -> np.ndarray:
        idx = self.index(a, b, c)
        if self.cell_evaluable is not None:
            self.evaluable = _meet(self.evaluable, self.cell_evaluable.take(idx))
        return self.values.take(idx)

    @staticmethod
    def disjoint(*sets: _Masks) -> np.ndarray:
        out = None
        for i, a in enumerate(sets):
            for b in sets[i + 1 :]:
                out = _meet(out, (a.m & b.m) == 0)
        return np.True_ if out is None else out

    def forall(self, s: _Masks, clause) -> np.ndarray:
        # clause(k) and its evaluability count only where k is in s
        outer = self.evaluable
        holds = None
        for bit_index in range(self.t.n):
            k = _Masks(RANK_DTYPE(1 << bit_index))
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
    words at the other two arguments' masks, and ANDs their evaluability
    words into ``evaluable`` as ``_RankSpace.q`` does."""

    def __init__(self, tt: TruthTable, slot: int):
        self.slot = slot
        self.stride = tt.tables.stride_b
        self.values = tt.words[slot]
        self.cell_evaluable = None if tt.all_evaluable else tt.evaluable_words[slot]
        self.evaluable = None

    def q(self, *args: _Masks) -> _Words:
        i, j = (a.m for k, a in enumerate(args) if k != self.slot)
        idx = i * self.stride + j
        if self.cell_evaluable is not None:
            self.evaluable = _meet(self.evaluable, self.cell_evaluable.take(idx))
        return _Words(self.values.take(idx))


# Most cells one block of a listing (``_admitted``) holds.  A listing
# over three coupled variables and the word variable spans 2^20 cells on
# five nodes, and each intermediate array of a pass is fresh memory;
# listed whole, all 17 rules raise a fresh process's peak RSS from about
# 31 to 42 MB.  A check needs no blocks: on five nodes its words are at
# most 2^15, for a 4-set rule with two free variables.
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
    terms.  Any other hook is listed with no arguments, which leaves the
    rule without a word variable."""

    def q(self, *args: _Uses) -> _Uses:
        self.append(args)
        return _Uses()._join(*args)

    def disjoint(self, *args) -> _Uses:
        self.append(())
        return _Uses()

    forall = disjoint


@lru_cache(maxsize=None)
def _word_variable(names: str, side, rule) -> tuple[str, int]:
    """The word variable of a ``_RULES`` entry and its argument slot: a
    variable that every query of the rule takes bare, never inside
    ``|``, ``&`` or ``-``, in one and the same slot of _WORD_SLOTS, and
    that no other argument reads.  It is the first such variable the
    side condition does not read, or else the first such variable.
    Traced once per entry, by running the rule on ``_Calls`` and
    ``_Uses``; a rule without one is a ValueError."""
    calls = _Calls()
    sets = [_Uses(v) for v in names]
    rule(calls, *sets)
    found = []
    for v, bare in zip(names, sets):
        slots = {tuple(k for k, a in enumerate(args) if v in a) for args in calls}
        if len(slots) != 1:
            continue
        (slot,) = slots
        if len(slot) == 1 and slot[0] in _WORD_SLOTS and all(a[slot[0]] is bare for a in calls):
            found.append((v, slot[0]))
    if not found:
        raise ValueError(f"no variable of {names!r} is bare in one slot, 0 or 1, of every query")
    reads = _reads(names, side)
    return min(found, key=lambda f: f[0] in reads)


# set bits of each byte value
_BIT_COUNT = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)


def _popcount(words: np.ndarray) -> int:
    """The number of bits set in ``words``."""
    return int(_BIT_COUNT.take(np.ascontiguousarray(words).view(np.uint8)).sum(dtype=np.int64))


class _Admitted(NamedTuple):
    """The rank tuples a side condition admits; see ``_admitted``."""

    word: str
    coupled: str
    listed: np.ndarray
    side: np.ndarray
    count: int


@lru_cache(maxsize=None)
def _admitted(names: str, side, word: str, n: int) -> _Admitted:
    """The rank tuples over n ground elements of the quantified variables
    ``names`` where the side condition ``side`` holds, listed for the
    word variable ``word``.

    The coupled variables are the first variable but ``word`` and every
    other one the side condition is written in, in quantifier order; the
    variables but those and ``word`` are free.  ``listed`` holds the
    C-order positions, ascending, of the coupled rank tuples with a
    nonzero side word, and ``side`` those side words: bit r is set where
    the side condition holds with ``word`` at rank r.  The side
    condition ignores the free variables, so a full rank tuple is
    admitted exactly when the side word of its coupled part has the bit
    of its rank of ``word``; ``count`` is the number of admitted full
    rank tuples.  The list depends only on n, since rank r is the same
    mask for every ground (see ``_Tables``); it is built on first use,
    in blocks of the first coupled axis, with the free variables set to
    the empty set."""
    reads = _reads(names, side)
    others = names.replace(word, "")
    coupled = "".join(v for v in others if v == others[0] or v in reads)
    t = _tables(tuple(str(i) for i in range(n)))
    x = _RankSpace(t)
    first, *rest = _axes(t.size, len(coupled) + 1)  # the word variable last
    step = max(1, _BLOCK_CELLS // t.size ** len(rest))
    parts = []
    for lo in range(0, t.size, step):
        ranks = dict(zip(coupled + word, [first[lo : lo + step]] + rest))
        sets = [_Masks(t.masks[ranks.get(v, 0)]) for v in names]
        shape = (min(step, t.size - lo),) + (t.size,) * len(rest)
        parts.append(_pack(np.broadcast_to(side(x, *sets), shape)))
    words = np.concatenate(parts)
    listed = np.flatnonzero(words)
    words = words[listed]
    for cached in (listed, words):
        cached.setflags(write=False)
    count = _popcount(words) * t.size ** (len(others) - len(coupled))
    return _Admitted(word, coupled, listed, words, count)


def _least(ranks, size: int) -> int | None:
    """The least lattice position (C order) of the rank tuples whose
    ranks per variable, in quantifier order, are ``ranks``; None if
    there are none."""
    if not ranks[0].size:
        return None
    return int(np.ravel_multi_index(ranks, (size,) * len(ranks)).min())


def _evaluate(tt: TruthTable, names: str, rule, admitted: _Admitted, slot: int, guard=None):
    """Evaluate ``rule``, and ``guard`` as one more premise, on every rank
    tuple of ``names`` that ``admitted`` lists, in one pass: the listed
    entries on the first axis, each free variable on an axis of its own,
    and the word variable packed into the bits of one S-bit word per
    cell.  Every query of the rule takes the word variable bare in
    argument ``slot``, so it is one gather of words at the other two
    arguments' masks.

    Returns the lattice position of the first violation (None if there
    is none) and the number of admitted tuples whose queries are all
    evaluable.  A violation is a bit set in premise AND NOT conclusion,
    in the evaluability words when some triple is unevaluable, and in
    the side word, which is ANDed in only on the cells where the rest
    has a bit set.  The least rank of the word variable in a violating
    word is its lowest set bit.  The guard is asked in ``_RankSpace``,
    on the rank tuples of set bits: of the violating words, or, when some
    triple is unevaluable, of every admitted tuple whose rule queries
    are evaluable, so that the guard's queries count towards
    ``checked``.  Cell order is not lattice order when a free variable
    comes before a coupled one, so the first violation is the least
    lattice position among the violating cells' rank tuples."""
    t = tt.tables
    size = t.size
    word, coupled = admitted.word, admitted.coupled
    free = [v for v in names if v not in coupled and v != word]
    shape = (len(admitted.listed),) + (size,) * len(free)
    column = (-1,) + (1,) * len(free)
    entries = dict(zip(coupled, np.unravel_index(admitted.listed, (size,) * len(coupled))))
    masks = {v: t.masks[r].reshape(column) for v, r in entries.items()}
    masks.update((v, t.masks[r]) for v, r in zip(free, _axes(size, len(shape))[1:]))
    x = _WordSpace(tt, slot)
    premise, conclusion = rule(x, *(None if v == word else _Masks(masks[v]) for v in names))
    violated = ~conclusion.w if premise is True else premise.w & ~conclusion.w
    checked = admitted.count
    if not tt.all_evaluable:
        violated = violated & x.evaluable
        evaluable = x.evaluable & admitted.side.reshape(column)
        # each word of ``evaluable`` stands for as many cells; with a
        # guard, the tuples are counted where the guard is asked
        checked = 0 if guard else _popcount(evaluable) * (math.prod(shape) // evaluable.size)
    # the words whose set bits are violations, or are asked the guard
    asked = evaluable if guard and not tt.all_evaluable else violated
    asked = np.broadcast_to(asked, shape).reshape(-1)
    cell = np.flatnonzero(asked)
    if not cell.size:
        return None, checked
    bits = asked[cell] & admitted.side[cell // size ** len(free)]
    keep = np.flatnonzero(bits)
    if not keep.size:
        return None, checked
    cell, bits = cell[keep], bits[keep]
    entry, *at = np.unravel_index(cell, shape)
    ranks = {v: r[entry] for v, r in entries.items()}
    ranks.update(zip(free, at))
    if not guard:
        ranks[word] = np.frexp(bits & -bits)[1] - 1  # the index of the lowest set bit
        return _least([ranks[v] for v in names], size), checked
    at, rank = np.nonzero((bits[:, None] >> np.arange(size)) & 1)
    sets = [rank if v == word else ranks[v][at] for v in names]
    y = _RankSpace(t, tt.values, None if tt.all_evaluable else tt.evaluable)
    holds = guard(y, *(_Masks(t.masks[r]) for r in sets))
    if not tt.all_evaluable:
        checked += int(np.count_nonzero(y.evaluable))
        flags = np.broadcast_to(violated, shape).reshape(-1)[cell[at]] >> rank
        holds = holds & y.evaluable & (flags & 1).astype(bool)
    return _least([r[holds] for r in sets], size), checked


def _sets_at(t: _Tables, names: str, position: int) -> dict[str, frozenset[str]]:
    ranks = np.unravel_index(position, (t.size,) * len(names))
    return {name: t.set_of(int(rank)) for name, rank in zip(names, ranks)}


def _check(tt: TruthTable, prop: Axiom | DerivedProperty) -> CheckReport:
    names, side, rule, *guard = _RULES[prop]
    word, slot = _word_variable(names, side, rule)
    admitted = _admitted(names, side, word, tt.tables.n)
    hit, checked = _evaluate(tt, names, rule, admitted, slot, *guard)
    cx = None if hit is None else _sets_at(tt.tables, names, hit)
    return CheckReport(prop, hit is None, cx, checked, admitted.count - checked)


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
    axioms are allowed to come out either way.  It must be a mapping
    from axioms to bools, or else it is a ValueError.
    """
    if expected is not None and not isinstance(expected, Mapping):
        raise ValueError(f"the expected pattern must map axioms to bools, not {expected!r}")
    for key, want in (expected or {}).items():
        if not isinstance(key, Axiom):
            raise ValueError(f"expected pattern keys must be axioms, not {key!r}")
        if not isinstance(want, bool):
            raise ValueError(f"expected pattern values must be bools, not {want!r}")
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
    missing name stands for the empty set.  Any other key, a value that
    is not a collection of labels (a string among them) and a label
    outside ``oracle.ground`` are each a ValueError.  An
    OracleDomainError raised by the oracle propagates.
    """
    if prop not in _RULES:
        raise ValueError(f"unknown property: {prop}")
    names, side, rule, *guard = _RULES[prop]
    unknown = sorted(set(sets) - set(names), key=str)
    if unknown:
        raise ValueError(f"{prop.value} quantifies over {list(names)}, not {unknown}")
    ground = frozenset(oracle.ground)
    given = {}
    for name, value in sets.items():
        given[name] = _label_set(value, name)
        outside = sorted(given[name] - ground, key=str)
        if outside:
            raise ValueError(f"{name} has labels outside the ground: {outside}")
    args = [given.get(name, frozenset()) for name in names]
    x = _Replay(oracle)
    holds = side(x, *args)
    premise, conclusion = rule(x, *args)
    guarded = all(g(x, *args) for g in guard)
    return bool(holds and premise and guarded and not conclusion)


# --- oracle factories --------------------------------------------------------


class _DeltaSeparationQuery:
    """The query of ``delta_separation_oracle``.  A call asks one triple
    of label sets with ``delta_separates_masks``.  ``build_truth_table``
    recognises this type and answers all its triples at once with the
    array trail form ``separation._delta_trail_arrays`` on ``g``, as
    ``all_separations`` does; an oracle whose query is replaced, such as
    by a counting wrapper, is asked triple by triple."""

    __slots__ = ("g",)

    def __init__(self, g: DiGraph):
        self.g = g

    def __call__(self, a: frozenset, b: frozenset, c: frozenset) -> bool:
        g = self.g
        return delta_separates_masks(g, g.mask_of(a), g.mask_of(b), g.mask_of(c))


def delta_separation_oracle(g: DiGraph) -> IrrelevanceOracle:
    """Irrelevance via graph separation: (a, b, c) true iff c separates
    a from b in g."""
    return IrrelevanceOracle(
        ground=g.labels,
        query=_DeltaSeparationQuery(g),
        name="delta-separation",
        overlap_reducible=True,
    )


def undirected_separation_oracle(h: UGraph) -> IrrelevanceOracle:
    """Classical symmetric separation in an undirected graph."""

    def query(a: frozenset, b: frozenset, c: frozenset) -> bool:
        return h.u_separated(a, b, c)

    return IrrelevanceOracle(ground=h.labels, query=query, name="u-separation")


def constant_oracle(ground, value: bool = True) -> IrrelevanceOracle:
    ground = tuple(_sorted_ground(_label_set(ground, "ground")))
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
    by check_axiom instead.  A ``ground_size`` that is not a
    non-negative int is a ValueError.
    """
    _check_count(ground_size, "ground_size")
    if ground_size > MAX_SEARCH_GROUND:
        raise EnumerationGuardError(
            f"refusing graph search over {ground_size} nodes "
            f"(limit {MAX_SEARCH_GROUND})"
        )
    labels = ("a", "b", "c", "d")[:ground_size]
    names, _, rule = _RULES[Axiom.RIGHT_DECOMPOSITION]
    word, slot = _word_variable(names, _disjoint_right_decomposition, rule)
    admitted = _admitted(names, _disjoint_right_decomposition, word, ground_size)
    for g in enumerate_digraphs(labels):
        tt = build_truth_table(delta_separation_oracle(g))
        hit, _ = _evaluate(tt, names, rule, admitted, slot)
        if hit is not None:
            return g, _sets_at(tt.tables, names, hit)
    return None
