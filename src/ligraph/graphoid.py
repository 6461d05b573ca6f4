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
variable names (``"AB"``, ``"ABC"`` or ``"ABCD"``) and one rule
``rule(x, A, B, ...) -> (side_condition, premise, conclusion)``.  An
instance is a violation when the side condition and premise hold and
the conclusion fails.  Rules are written with the set operators ``|``,
``&``, ``-`` and ``<=`` and three hooks of the backend ``x``:
``x.q(a, b, c)`` queries the relation, ``x.disjoint(*sets)`` tests
pairwise disjointness and ``x.forall(S, clause)`` requires
``clause(k)`` for every singleton ``k`` of ``S``.  Two backends run the
same rules:

- rank space (``check_axiom`` / ``check_derived``): every quantified
  set is an array of subset ranks, and the lattice is evaluated with
  numpy against a precomputed truth table, one block of at most 2^16
  cells at a time (``_BLOCK_CELLS``), so exhaustive sweeps over
  thousands of graphs stay fast and every intermediate array stays
  small.  Ranks are ``uint16`` (``RANK_DTYPE``), and each query
  ``q(a, b, c)`` is one ``np.take`` from the flattened table at
  ``a*S^2 + b*S + c`` (S = 2^n subsets), which stays below 2^15 at
  ``MAX_AXIOM_GROUND``; the set operators gather from flat S x S
  tables the same way.  A property whose side condition couples all
  four sets (``_LISTED``) admits only 5^n, 7^n or 11^n of the 16^n rank
  tuples; it runs on the list of their C-order positions instead, in
  chunks of at most 2^15 tuples (``_CHUNK_TUPLES``).  The list is
  ascending, so its first violating tuple is the first counterexample
  in the same order; it depends only on the ground size n and is built
  on first use.  The table asks the oracle each distinct triple
  once: every triple, or for an ``overlap_reducible`` oracle such as
  delta-separation only the reduced triples (A-(B|C), B, C-B).  When no
  asked triple is out of the oracle's domain the evaluability gather
  is skipped;
- replay (``violates``): the sets are frozensets and ``q`` is the raw
  oracle, which re-checks a reported counterexample independently of
  the truth table.

To add a property: add the enum member, add its rule to ``_RULES``, and
add the matching entry to the independent slow checker in
``tests/helpers.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
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

    def holds_pattern(self) -> dict[Axiom, bool]:
        return {r.prop: r.holds for r in self.reports}


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
        return np.take(table, i * self.stride_b + j)

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
    asked = (a.r * t.stride_a + b.r * t.stride_b) + c.r
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


def _guarded_right_decomposition(x, A, B, C, D):
    # right decomposition is sound when B is irrelevant for D given A|C,
    # or when every k in C-D is irrelevant from A or to B given the rest
    CD = C | D
    guard = x.q(B, D, A | C) | (
        x.q(B, A - CD, CD)
        & x.forall(C - D, lambda k: x.q(A, k, (C - k) | B) | x.q(B, k, (C - k) | D | A))
    )
    return (D <= B) & ((A & B) <= CD), guard & x.q(A, B, C), x.q(A, D, C)


# property -> (quantified variable names, rule); see the module docstring.
_RULES = {
    Axiom.LEFT_REDUNDANCY: ("AB", lambda x, A, B: (True, True, x.q(A, B, A))),
    Axiom.RIGHT_REDUNDANCY: ("AB", lambda x, A, B: (True, True, x.q(A, B, B))),
    Axiom.LEFT_DECOMPOSITION: ("ABCD", lambda x, A, B, C, D: (
        D <= A, x.q(A, B, C), x.q(D, B, C))),
    Axiom.RIGHT_DECOMPOSITION: ("ABCD", lambda x, A, B, C, D: (
        D <= B, x.q(A, B, C), x.q(A, D, C))),
    Axiom.LEFT_WEAK_UNION: ("ABCD", lambda x, A, B, C, D: (
        D <= A, x.q(A, B, C), x.q(A, B, C | D))),
    Axiom.RIGHT_WEAK_UNION: ("ABCD", lambda x, A, B, C, D: (
        D <= B, x.q(A, B, C), x.q(A, B, C | D))),
    Axiom.LEFT_CONTRACTION: ("ABCD", lambda x, A, B, C, D: (
        True, x.q(A, B, C) & x.q(D, B, A | C), x.q(A | D, B, C))),
    Axiom.RIGHT_CONTRACTION: ("ABCD", lambda x, A, B, C, D: (
        True, x.q(A, B, C) & x.q(A, D, B | C), x.q(A, B | D, C))),
    Axiom.LEFT_INTERSECTION: ("ABC", lambda x, A, B, C: (
        True, x.q(A, B, C) & x.q(C, B, A), x.q(A | C, B, A & C))),
    Axiom.RIGHT_INTERSECTION: ("ABC", lambda x, A, B, C: (
        True, x.q(A, B, C) & x.q(A, C, B), x.q(A, B | C, B & C))),
    DerivedProperty.LEFT_TRIM: ("ABC", lambda x, A, B, C: (
        True, True, x.q(A, B, C) == x.q(A - C, B, C))),
    DerivedProperty.RIGHT_TRIM: ("ABC", lambda x, A, B, C: (
        True, True, x.q(A, B, C) == x.q(A, B - C, C))),
    DerivedProperty.LEFT_DISJOINT_INTERSECTION: ("ABCD", lambda x, A, B, C, D: (
        x.disjoint(A, B, C, D), x.q(A, B, C | D) & x.q(C, B, A | D), x.q(A | C, B, D))),
    DerivedProperty.RIGHT_DISJOINT_INTERSECTION: ("ABCD", lambda x, A, B, C, D: (
        x.disjoint(A, B, C, D), x.q(A, B, C | D) & x.q(A, C, B | D), x.q(A, B | C, D))),
    DerivedProperty.SHIFTED_RIGHT_DECOMPOSITION: ("ABCD", lambda x, A, B, C, D: (
        D <= B, x.q(A, B, C), x.q(A, D, (C | B) - D))),
    DerivedProperty.OVERLAP_TOLERANT_INTERSECTION: ("ABCD", lambda x, A, B, C, D: (
        x.disjoint(B, C, D) & x.disjoint(A, D),
        x.q(A, B, C | D) & x.q(A, C, B | D),
        x.q(A, B | C, D))),
    DerivedProperty.GUARDED_RIGHT_DECOMPOSITION: ("ABCD", _guarded_right_decomposition),
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


class _RankSpace:
    """Rule backend over a truth table.  ``q`` returns the table's answers
    and ANDs the queried cells' evaluability into ``evaluable``."""

    def __init__(self, tt: TruthTable):
        self.tt = tt
        self.values = tt.values.reshape(-1)
        self.cell_evaluable = None if tt.all_evaluable else tt.evaluable.reshape(-1)
        # seeded with a numpy bool so masks stay boolean (Python's ~True is -2)
        self.evaluable = np.True_

    def q(self, a: _Ranks, b: _Ranks, c: _Ranks) -> np.ndarray:
        # one flat gather; the two smaller operands are summed first, so
        # only the last addition runs at the full broadcast size
        t = self.tt.tables
        x, y, z = sorted((a.r * t.stride_a, b.r * t.stride_b, c.r), key=np.size)
        idx = (x + y) + z
        if self.cell_evaluable is not None:
            self.evaluable = self.evaluable & np.take(self.cell_evaluable, idx)
        return np.take(self.values, idx)

    def disjoint(self, *sets: _Ranks) -> np.ndarray:
        t = self.tt.tables
        out = np.True_
        for i, a in enumerate(sets):
            for b in sets[i + 1 :]:
                out = out & t.pair(t.disjoint, a.r, b.r)
        return out

    def forall(self, s: _Ranks, clause) -> np.ndarray:
        # clause(k) and its evaluability count only where k is in s
        t = self.tt.tables
        outer = self.evaluable
        holds = np.True_
        for bit_index in range(t.n):
            k = _Ranks(t, t.rank_of[1 << bit_index])
            skip = ~(k <= s)
            self.evaluable = np.True_
            holds = holds & (clause(k) | skip)
            outer = outer & (self.evaluable | skip)
        self.evaluable = outer
        return holds


# Cells per block of the first quantifier's axis.  A 4-set rule on five
# nodes spans 2^20 cells; evaluated whole, every intermediate array is
# fresh memory, so each check pays for thousands of page faults and
# streams megabytes through the caches.  Blocks of this size keep the
# intermediates small enough for the allocator to reuse in place.
_BLOCK_CELLS = 1 << 16
# Listed tuples per chunk, for the same reason.  On five nodes 2^15 ran
# faster, with no more peak memory, than 2^12, 2^13, 2^14 or 2^16.
_CHUNK_TUPLES = 1 << 15

# Properties whose side condition couples all four sets: it admits 5^n
# (pairwise disjoint), 7^n (overlap-tolerant) or 11^n (guarded) of the
# 16^n rank tuples, so these are checked on the list of admitted tuples
# alone.  Side conditions on two sets (D <= A, D <= B) admit 12^n, and a
# dense block already broadcasts them over the free axes.
_LISTED = frozenset({
    DerivedProperty.LEFT_DISJOINT_INTERSECTION,
    DerivedProperty.RIGHT_DISJOINT_INTERSECTION,
    DerivedProperty.OVERLAP_TOLERANT_INTERSECTION,
    DerivedProperty.GUARDED_RIGHT_DECOMPOSITION,
})


def _evaluate(tt: TruthTable, rule, sets: list[_Ranks], shape: tuple[int, ...]):
    """(structural domain, evaluable domain, violations) of ``rule`` on
    ``sets``, each broadcast to ``shape``."""
    x = _RankSpace(tt)
    side, premise, conclusion = rule(x, *sets)
    struct = np.broadcast_to(side, shape)
    dom = np.broadcast_to(struct & x.evaluable, shape)
    return struct, dom, np.broadcast_to(dom & premise & ~conclusion, shape)


def _violations(tt: TruthTable, names: str, rule):
    """Evaluate ``rule`` over every rank tuple, one block of the first
    axis at a time, in order.  Yields (the block's C-order positions in
    the lattice, structural domain, evaluable domain, violations), the
    last three of shape (rows,) + (size,) * (len(names) - 1)."""
    t = tt.tables
    first, *rest = _axes(t.size, len(names))
    inner = (t.size,) * len(rest)
    cells = t.size ** len(rest)
    step = max(1, _BLOCK_CELLS // cells)
    for lo in range(0, t.size, step):
        rows = min(step, t.size - lo)
        sets = [_Ranks(t, first[lo : lo + step])] + [_Ranks(t, r) for r in rest]
        yield (range(lo * cells, (lo + rows) * cells),
               *_evaluate(tt, rule, sets, (rows,) + inner))


@lru_cache(maxsize=None)
def _admitted(prop: Axiom | DerivedProperty, n: int) -> np.ndarray:
    """The C-order positions of the rank tuples over n ground elements
    that satisfy the side condition of ``prop``, ascending.  They depend
    only on n, since rank r is the same subset of the sorted labels for
    every ground; built on first use from one dense pass over an
    all-true, all-evaluable table."""
    t = _Tables(tuple(str(i) for i in range(n)))
    cells = t.size**3
    tt = TruthTable(t, np.ones(cells, dtype=bool), np.ones(cells, dtype=bool), True)
    names, rule = _RULES[prop]
    listed = np.concatenate([
        np.flatnonzero(struct).astype(np.uint32) + np.uint32(where.start)
        for where, struct, _, _ in _violations(tt, names, rule)
    ])
    listed.setflags(write=False)
    return listed


def _listed_violations(tt: TruthTable, names: str, rule, listed: np.ndarray):
    """Evaluate ``rule`` on the listed rank tuples only, in chunks of
    _CHUNK_TUPLES, in order.  Yields what _violations does, with one
    entry per listed tuple."""
    t = tt.tables
    k = len(names)
    for lo in range(0, len(listed), _CHUNK_TUPLES):
        where = listed[lo : lo + _CHUNK_TUPLES]
        # S = 2^n ranks per axis, so a position's ranks are its n-bit
        # fields, the first axis highest (np.unravel_index is slower)
        sets = [
            _Ranks(t, ((where >> (t.n * (k - 1 - i))) & (t.size - 1)).astype(RANK_DTYPE))
            for i in range(k)
        ]
        yield (where, *_evaluate(tt, rule, sets, where.shape))


def _first_in(where, viol: np.ndarray) -> int | None:
    """The C-order lattice position of the first violation in one block
    or chunk whose cells sit at positions ``where``."""
    flat = viol.reshape(-1)
    idx = int(np.argmax(flat))
    return int(where[idx]) if flat[idx] else None


def _sets_at(t: _Tables, names: str, position: int) -> dict[str, frozenset[str]]:
    ranks = np.unravel_index(position, (t.size,) * len(names))
    return {name: t.set_of(int(rank)) for name, rank in zip(names, ranks)}


def _check(tt: TruthTable, prop: Axiom | DerivedProperty) -> CheckReport:
    names, rule = _RULES[prop]
    if prop in _LISTED:
        blocks = _listed_violations(tt, names, rule, _admitted(prop, tt.tables.n))
    else:
        blocks = _violations(tt, names, rule)
    checked = structural = 0
    hit = None
    for where, struct, dom, viol in blocks:
        checked += int(np.count_nonzero(dom))
        structural += int(np.count_nonzero(struct))
        if hit is None:
            hit = _first_in(where, viol)
    cx = None if hit is None else _sets_at(tt.tables, names, hit)
    return CheckReport(prop, hit is None, cx, checked, structural - checked)


def check_axiom(
    oracle: IrrelevanceOracle, ax: Axiom, table: TruthTable | None = None
) -> CheckReport:
    """Exhaustively check one axiom; report the first violation if any."""
    if not isinstance(ax, Axiom):
        raise ValueError(f"not an axiom: {ax}")
    tt = table if table is not None else build_truth_table(oracle)
    return _check(tt, ax)


def check_derived(
    oracle: IrrelevanceOracle, prop: DerivedProperty, table: TruthTable | None = None
) -> CheckReport:
    """Exhaustively check one derived property."""
    if not isinstance(prop, DerivedProperty):
        raise ValueError(f"unknown derived property: {prop}")
    tt = table if table is not None else build_truth_table(oracle)
    return _check(tt, prop)


def check_semigraphoid_profile(
    oracle: IrrelevanceOracle,
    expected: Mapping[Axiom, bool] | None = None,
    table: TruthTable | None = None,
) -> ProfileReport:
    """Run all ten axioms; optionally compare against an expected pattern.

    ``expected`` may constrain any subset of the axioms; unmentioned
    axioms are allowed to come out either way.
    """
    tt = table if table is not None else build_truth_table(oracle)
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
    names, rule = _RULES[prop]
    unknown = sorted(set(sets) - set(names), key=str)
    if unknown:
        raise ValueError(f"{prop.value} quantifies over {list(names)}, not {unknown}")
    args = (frozenset(sets.get(name, frozenset())) for name in names)
    side, premise, conclusion = rule(_Replay(oracle), *args)
    return bool(side and premise and not conclusion)


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
    names, rule = _RULES[Axiom.RIGHT_DECOMPOSITION]

    def disjoint_instance(x, A, B, C, D):
        side, premise, conclusion = rule(x, A, B, C, D)
        # rank 0 is the empty set
        extra = x.disjoint(A, B, C) & ~(B <= D) & (A.r > 0) & (B.r > 0)
        return side & extra, premise, conclusion

    for g in enumerate_digraphs(labels):
        tt = build_truth_table(delta_separation_oracle(g))
        blocks = _violations(tt, names, disjoint_instance)
        hits = (_first_in(where, v) for where, _, _, v in blocks)
        hit = next((h for h in hits if h is not None), None)
        if hit is not None:
            return g, _sets_at(tt.tables, names, hit)
    return None
