"""Composable finite Markov processes.

A process is specified per component: a state-space cardinality, a set
of components it declares to depend on, and a rate table giving the
intensity of each of its transitions for every configuration of the
declared dependencies and its own state.  Two components never jump at
the same instant, so the joint generator is sparse: entries between
product states differing in two or more components are exactly zero.

A spec is immutable.  The first operation that needs it validates it,
once, and compiles it into one transition structure laid out per
product state: each component's rates as a dense array over (dependency
configuration, source, target), each state's flat index into every
component's (dependency configuration, own state) rate cells, and each
state's row of joint transitions, a target state and a rate for every
(component, destination).  The generator, the constancy checks,
simulation, estimation and the decay reports all index that layout
directly; estimation counts jumps and dwell times per cell with one
``bincount`` each.  A spec that fails validation is not compiled and
raises again on every call.

Decay reports never form the dense transition matrix P(h).  They
uniformize the n x card_t block of target indicators through the
compiled transitions, at O(n * transitions per state * card_t) per
term, and one Poisson series serves the whole window ladder.
``transition_matrix`` is the dense path, run by the same series and,
for a long window, squared from a short one.

A sampled path (``Trajectory``) is kept in its wire form, the form the
JSONL files store: the initial product state and one (time, component
index, new state) event per jump, held as three read-only columns.  It
is checked once, on construction, against its ``ComponentSpace`` by one
vectorized function, which also yields each segment's product state
index and dwell time; estimation reads those and the component column
directly.  Simulation draws its random numbers in blocks, and refuses a
horizon whose length times the largest exit rate is above
MAX_HORIZON_MEAN, before it samples anything.

The module derives the independence graph from the tables (a declared
dependency whose rows never actually differ is vacuous and produces no
edge), validates the graph's separation statements numerically through
conditional-mutual-information decay, and supports exact event-driven
simulation with occurrence/exposure re-estimation of the rates.

Rates are homogeneous (time-constant).
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import re
from bisect import bisect_right
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

import numpy as np

from .graphs import DiGraph, UnknownNodeError, _check_count, _check_label, _collection, _is_int
from .graphs import _label_set
from .graphs import _ARRAY, _INT, _OBJECT, _STRING, _field, _load_json, _number, _real, _strings
from .graphoid import IrrelevanceOracle, OracleDomainError

MAX_PRODUCT_STATES = 4096
RATE_CONSTANCY_RTOL = 1e-9
POISSON_TAIL = 1e-14
UNIFORMIZATION_MAX_MEAN = 50.0
# Largest lam * h accepted for a window: halving it down to
# UNIFORMIZATION_MAX_MEAN takes at most 8 halvings, so at most 2**8
# passes of the series on the block path and 8 squarings on the dense one.
MAX_WINDOW_MEAN = 1.0e4
# Largest lam * horizon accepted for a sample path, which bounds its
# expected jump count.
MAX_HORIZON_MEAN = 1.0e6
# Holding times and transition uniforms drawn per numpy call while sampling
SAMPLE_BLOCK = 128
CMI_PROB_FLOOR = 1e-15
CMI_ZERO_TOL = 1e-12
# The target's own jump within a window of length h is an event of
# probability O(h), so mutual information with the source state is
# linear (not quadratic) in the rate perturbation: directions with a
# first-order rate dependence decay like h, separated directions like
# h^3.  The class boundary sits between the two measured regimes.
DECAY_ORDER_SPLIT = 2.0
DEFAULT_HS = (0.2, 0.1, 0.05, 0.025)
MIN_H = 1e-4


class SpecValidationError(ValueError):
    """Raised when an operation requires a valid spec but validation failed."""

    def __init__(self, errors: Sequence[str]):
        super().__init__("invalid process spec: " + "; ".join(errors))
        self.errors = list(errors)


class NonCoveringQueryError(ValueError):
    """Set-level constancy is only defined when the three sets partition
    the component set; use graph-based separation queries otherwise."""


@dataclass(frozen=True)
class ComponentSpace:
    """Ordered components with their state-space cardinalities: distinct
    string names and positive int cards (numpy ints are ints, a bool is
    not), one per name; anything else is a ValueError."""

    names: tuple[str, ...]
    cards: tuple[int, ...]

    def __post_init__(self):
        names = _collection(self.names, "component names", "collection of names")
        cards = _collection(self.cards, "cardinalities", "collection of ints")
        if not all(isinstance(n, str) for n in names) or len(set(names)) != len(names):
            raise ValueError(f"component names must be distinct strings, got {list(names)}")
        if not all(_is_int(c) and c > 0 for c in cards):
            raise ValueError(f"cardinalities must be positive ints, got {list(cards)}")
        if len(names) != len(cards):
            raise ValueError("names and cardinalities differ in length")
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "cards", tuple(map(int, cards)))

    @property
    def n_states(self) -> int:
        return math.prod(self.cards)

    @property
    def strides(self) -> tuple[int, ...]:
        return tuple(math.prod(self.cards[i + 1 :]) for i in range(len(self.cards)))

    def index_of(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise UnknownNodeError(name) from None


@dataclass(frozen=True)
class RateRow:
    """One table cell: rate of jumping from ``source`` to ``target`` while
    the declared dependencies sit in configuration ``given``."""

    given: tuple[int, ...]
    source: int
    target: int
    rate: float


@dataclass(frozen=True)
class ComponentIntensity:
    depends_on: tuple[str, ...]
    rows: tuple[RateRow, ...]


@dataclass(frozen=True, eq=False)
class CfmpSpec:
    """A process spec.  Immutable: ``intensities`` is kept as a read-only
    copy, so the spec is validated and compiled at most once."""

    space: ComponentSpace
    intensities: Mapping[str, ComponentIntensity]

    def __post_init__(self):
        if not isinstance(self.space, ComponentSpace):
            raise ValueError(f"a spec's space must be a ComponentSpace, not {self.space!r}")
        if not isinstance(self.intensities, Mapping):
            raise ValueError(f"a spec's intensities must be a mapping, not {self.intensities!r}")
        object.__setattr__(self, "intensities", MappingProxyType(dict(self.intensities)))

    @functools.cached_property
    def _compiled(self) -> _Compiled:
        return _Compiled(self)


@dataclass(frozen=True, eq=False)
class Generator:
    """Joint rate matrix over the product state space."""

    space: ComponentSpace
    matrix: np.ndarray


@dataclass(frozen=True, init=False, eq=False)
class Trajectory:
    """One sampled path in its wire form: the initial product state and
    one event per jump, kept as three read-only columns, ``times``
    (float64), ``components`` (the index of the component each jump
    moves, int64) and ``states`` (its new state, int64).
    ``Trajectory(space, initial, jumps, horizon)`` takes the jumps as
    ``(time, component index, new state)`` triples, and ``jumps`` gives
    them back as plain (float, int, int) triples.  The path is checked
    against ``space`` once, on construction, which also sets the product
    state index and dwell time of each segment.  Two trajectories are
    equal when their space, initial state, horizon and columns are, and
    equal trajectories hash alike."""

    space: ComponentSpace
    initial: tuple[int, ...]
    horizon: float
    times: np.ndarray
    components: np.ndarray
    states: np.ndarray
    _segments: np.ndarray = field(repr=False)
    _dwell: np.ndarray = field(repr=False)

    def __init__(self, space: ComponentSpace, initial, jumps, horizon: float):
        self._check(space, initial, *_columns(jumps), horizon)

    @classmethod
    def _from_columns(cls, space, initial, times: list, components: list, states: list, horizon):
        """The trajectory of three equally long lists that hold no bool,
        as the sampler and the JSONL reader build them, checked by the
        same ``_check_path``."""
        traj = object.__new__(cls)
        traj._check(space, initial, times, components, states, horizon)
        return traj

    def _check(self, space, *path):
        # _check_path returns the fields after ``space``, in field order
        for name, value in zip(self.__dataclass_fields__, (space, *_check_path(space, *path))):
            object.__setattr__(self, name, value)

    @property
    def jumps(self) -> tuple[tuple[float, int, int], ...]:
        return tuple(zip(self.times.tolist(), self.components.tolist(), self.states.tolist()))

    def _key(self) -> tuple:
        columns = (self.times, self.components, self.states)
        return (self.space, self.initial, self.horizon, *(c.tobytes() for c in columns))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Trajectory):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __reduce__(self):
        # a pickled or copied trajectory is built and checked again, so
        # its columns are read-only too
        return Trajectory, (self.space, self.initial, self.jumps, self.horizon)


def _reject(columns, bad: np.ndarray, why: str) -> None:
    """A ValueError naming the first jump flagged in ``bad``, if any, by
    the triple that ``columns`` hold for it."""
    if bad.any():
        j = int(bad.argmax())
        raise ValueError(f"jump {j} {tuple(c[j] for c in columns)!r} {why}")


def _array(values, kinds: str, what: str) -> np.ndarray:
    """``values`` as a 1-d array of one of the numpy dtype ``kinds``, cast
    to float64 or int64; anything else is a ValueError."""
    out = np.array(values)
    if out.ndim != 1 or out.dtype.kind not in kinds:
        raise ValueError(f"{what} must be {'numbers' if 'f' in kinds else 'integers'}")
    return out.astype(np.float64 if "f" in kinds else np.int64, copy=False)


def _columns(jumps) -> list:
    """A caller's jumps, a collection of triples, as three columns: the
    times, the component indices and the new states.  A jump that is not
    a triple, or holds a bool, is a ValueError."""
    jumps = _collection(jumps, "jumps", "collection of jumps")
    if {*map(type, jumps)} - {tuple} or {*map(len, jumps)} - {3}:
        kind = "(time, component index, new state) triple"
        jumps = tuple(_collection(j, f"jump {i}", kind, 3) for i, j in enumerate(jumps))
    columns = list(zip(*jumps)) or [(), (), ()]
    bools = {bool, np.bool_}
    if bools & {*map(type, itertools.chain(*columns))}:
        holds = [not bools.isdisjoint(map(type, j)) for j in jumps]
        _reject(columns, np.array(holds), "holds a bool")
    return columns


def _check_path(space: ComponentSpace, initial, times, components, states, horizon):
    """The one check of a trajectory, given as three equally long
    columns of jump times, component indices and new states that hold no
    bool: a positive finite horizon, jump times strictly increasing
    within (0, horizon], integer components and states in range, and
    every jump changing its component's state.  Returns the initial
    state as a tuple of ints, the horizon as a float, the columns as
    read-only float64, int64 and int64 arrays, and each segment's product
    state index and dwell time."""
    if not (_real(horizon) and 0 < horizon < math.inf):
        raise ValueError(f"trajectory horizon must be a positive finite number, got {horizon!r}")
    if not isinstance(space, ComponentSpace):
        raise ValueError(f"a trajectory's space must be a ComponentSpace, not {space!r}")
    if not 0 < space.n_states <= MAX_PRODUCT_STATES:
        raise ValueError(f"a trajectory's space must have 1 to {MAX_PRODUCT_STATES} states")
    cards, init = np.array(space.cards), _array(initial, "iu", "initial states")
    if init.shape != cards.shape or np.any((init < 0) | (init >= cards)):
        raise ValueError(f"initial state {initial!r} does not fit the cardinalities {space.cards}")
    given = (times, components, states)
    if not len(times):  # an empty list reads as float
        times = components = states = np.zeros(0, dtype=np.int64)
    times = _array(times, "iuf", "jump times")
    comps, states = _array(components, "iu", "jump components"), _array(states, "iu", "new states")
    dwell = np.diff(np.concatenate(([0.0], times, [horizon])))
    unordered = ~(dwell[:-1] > 0) | (times > horizon)
    _reject(given, unordered, "is not after the jump before it and within the horizon")
    _reject(given, (comps < 0) | (comps >= len(cards)), "moves no component of the space")
    _reject(given, (states < 0) | (states >= cards[comps]), "does not fit its component's states")
    # the state each jump leaves: the new state of the last earlier jump
    # of its component (its predecessor when sorted by component), or the
    # component's initial state
    order = np.argsort(comps, kind="stable")
    left = init[comps[order]]
    again = np.flatnonzero(comps[order[1:]] == comps[order[:-1]]) + 1
    left[again] = states[order[again - 1]]
    before = np.empty_like(states)
    before[order] = left
    _reject(given, before == states, "does not change its component's state")
    strides = np.array(space.strides)
    segments = np.cumsum(np.concatenate(([init @ strides], (states - before) * strides[comps])))
    for column in (times, comps, states):
        column.setflags(write=False)
    return tuple(init.tolist()), float(horizon), times, comps, states, segments, dwell


# --- validation ---------------------------------------------------------------


def validate_spec(spec: CfmpSpec) -> list[str]:
    """Every invariant violation as a message; an empty list means valid."""
    errors: list[str] = []
    space = spec.space
    names = space.names
    for name in names:
        try:
            _check_label(name)
        except ValueError as exc:
            errors.append(str(exc))
    if len(names) < 2:
        errors.append(f"at least 2 components required (got {len(names)})")
    for name, card in zip(names, space.cards):
        if card < 2:
            errors.append(f"{name}: state count must be >= 2 (got {card})")
    unknown = [key for key in spec.intensities if key not in names]
    if unknown:
        errors.append(f"intensity tables for unknown components: {unknown}")
    if errors:
        return errors
    if space.n_states > MAX_PRODUCT_STATES:
        errors.append(
            f"product state space has {space.n_states} states "
            f"(limit {MAX_PRODUCT_STATES})"
        )
        return errors

    # the sum over components of each one's largest total out-rate
    top_exit_rate = 0.0
    for name in names:
        ci = spec.intensities.get(name)
        card = space.cards[space.index_of(name)]
        if ci is None:
            errors.append(f"{name}: no intensity table")
            continue
        if not isinstance(ci, ComponentIntensity):
            errors.append(f"{name}: intensity table must be a ComponentIntensity, not {ci!r}")
            continue
        try:
            deps = _collection(ci.depends_on, f"{name}: depends_on", "collection of names")
            rows = _collection(ci.rows, f"{name}: rows", "collection of RateRow cells")
        except ValueError as exc:
            errors.append(str(exc))
            continue
        bad = [d for d in deps if d not in names or d == name]
        if bad:
            errors.append(f"{name}: depends_on must name other components, got {bad}")
            continue
        if len(deps) != len(set(deps)):
            errors.append(f"{name}: duplicate entries in depends_on")
            continue
        dep_cards = [space.cards[space.index_of(d)] for d in deps]
        seen: dict[tuple, float] = {}
        # total out-rate per (configuration, source); Python floats
        # overflow to inf without a numpy warning
        out_rates: dict[tuple, float] = {}
        for row in rows:
            if not isinstance(row, RateRow):
                errors.append(f"{name}: a rate-table row must be a RateRow, not {row!r}")
                continue
            why = _cell_error(row, dep_cards, card)
            key = None if why else (row.given, row.source, row.target)
            if key in seen:
                why = "duplicate table cell"
            if why:
                given = dict(zip(deps, row.given)) if isinstance(row.given, tuple) else row.given
                errors.append(f"{name}: given={given} from={row.source} to={row.target}: {why}")
                continue
            seen[key] = row.rate
            out = (row.given, row.source)
            out_rates[out] = out_rates.get(out, 0.0) + float(row.rate)
        for given in itertools.product(*(range(c) for c in dep_cards)):
            for s in range(card):
                for t in range(card):
                    if s != t and (given, s, t) not in seen:
                        errors.append(
                            f"{name}: missing rate for "
                            f"given={dict(zip(deps, given))} from={s} to={t}"
                        )
        top_exit_rate += max(out_rates.values(), default=0.0)
    if not math.isfinite(top_exit_rate):
        errors.append("the largest possible total exit rate overflows; scale the rates down")
    return errors


def _cell_error(row: RateRow, dep_cards: list[int], card: int) -> str | None:
    """What is wrong with one rate-table cell on its own, or None."""
    if not isinstance(row.given, tuple):
        return "configuration must be a tuple"
    if not all(map(_is_int, (*row.given, row.source, row.target))):
        return "configuration values and states must be ints"
    if not _real(row.rate):
        return f"rate must be a real number, got {row.rate!r}"
    if len(row.given) != len(dep_cards):
        return "configuration does not match depends_on"
    if any(not (0 <= v < c) for v, c in zip(row.given, dep_cards)):
        return "configuration value out of range"
    if not (0 <= row.source < card and 0 <= row.target < card):
        return "state out of range"
    if row.source == row.target:
        return "source and target must differ"
    if not math.isfinite(row.rate):
        return f"rate must be finite, got {row.rate}"
    if row.rate < 0:
        return f"negative rate {row.rate}"
    return None


class _Compiled:
    """A valid spec's transition structure, built once per spec and laid
    out once per product state.

    ``grid`` holds the product states in index order as an
    ``(n_states, n_components)`` array.  ``rates[name]`` holds a
    component's rates with shape ``(*dep_cards, card, card)`` and
    ``cell[name]`` each state's flat index into that table's
    (dependency configuration, own state) cells.  Every state has the
    same m = sum(card - 1) transitions, so ``dst`` and ``rate`` are
    ``(n_states, m)`` rows in (component, destination) order.

    Each state's total exit rate is kept twice.  ``exit_rate`` is the
    (pairwise) ``sum`` of its ``rate`` row; the decay reports and the
    window and horizon bounds read it.  ``sampling``, built on first
    use, holds the rows simulation draws from: the sequential
    ``cumsum`` of each ``rate`` row, whose last entry is the total the
    holding times are drawn at, that cumsum divided by the total, the
    ``dst`` rows, the component each column moves and the new state of
    that component.  For a row of 8 or more transitions the two totals
    can differ in the last bit, and the sampled stream is fixed by the
    cumsum."""

    def __init__(self, spec: CfmpSpec):
        errors = validate_spec(spec)
        if errors:
            raise SpecValidationError(errors)
        space = spec.space
        n = space.n_states
        self.grid = grid = np.stack(np.unravel_index(np.arange(n), space.cards), axis=1)
        self.rates: dict[str, np.ndarray] = {}
        self.cell: dict[str, np.ndarray] = {}
        dst, rate = [], []
        for ki, (name, card, stride) in enumerate(zip(space.names, space.cards, space.strides)):
            ci = spec.intensities[name]
            deps = tuple(space.index_of(d) for d in ci.depends_on)
            table = np.zeros(tuple(space.cards[p] for p in deps) + (card, card))
            for r in ci.rows:
                table[r.given + (r.source, r.target)] = r.rate
            own = grid[:, ki : ki + 1]
            axes = tuple(grid[:, p] for p in deps + (ki,))
            cell = np.ravel_multi_index(axes, table.shape[:-1])
            self.rates[name], self.cell[name] = table, cell
            targets = np.arange(card - 1)[None, :]
            targets = targets + (targets >= own)
            dst.append(np.arange(n)[:, None] + (targets - own) * stride)
            rate.append(table.reshape(-1, card)[cell[:, None], targets])
        self.dst, self.rate = np.concatenate(dst, axis=1), np.concatenate(rate, axis=1)
        self.exit_rate = self.rate.sum(axis=1)

    @functools.cached_property
    def sampling(self) -> tuple[list, ...]:
        """Per state its total exit rate, its cumulative ``rate`` row
        divided by that total, and its ``dst`` row; the component each
        column moves; per state the moved component's new state in each
        column.  All are Python lists, so a jump indexes no numpy array
        and picks its column with ``bisect``."""
        cum = np.cumsum(self.rate, axis=1)
        total = cum[:, -1:].copy()
        np.divide(cum, total, out=cum, where=total > 0.0)
        # card - 1 columns per component, in component order
        moved = np.repeat(np.arange(self.grid.shape[1]), self.grid.max(axis=0))
        new = self.grid[self.dst, moved]
        return total[:, 0].tolist(), cum.tolist(), self.dst.tolist(), moved.tolist(), new.tolist()


# --- constancy checks and graph derivation ------------------------------------


def _constant_in(spec: CfmpSpec, component: str, sources) -> bool:
    """True iff the component's rates do not vary, up to
    RATE_CONSTANCY_RTOL, with the states of its declared dependencies in
    ``sources``."""
    deps = spec.intensities[component].depends_on
    axes = tuple(i for i, d in enumerate(deps) if d in sources)
    rates = spec._compiled.rates[component]
    lo, hi = rates.min(axis=axes), rates.max(axis=axes)
    return bool(np.all(hi - lo <= RATE_CONSTANCY_RTOL * np.maximum(abs(lo), abs(hi))))


def _component_set(space: ComponentSpace, names: Iterable[str], what: str) -> frozenset[str]:
    """``names`` as a set of component names.  A bare string, which
    would be read as its characters, or any other value that is not a
    collection of names is a ValueError, and an unknown name an
    UnknownNodeError."""
    names = _label_set(names, what)
    for name in names:
        space.index_of(name)
    return names


def component_depends_only_on(spec: CfmpSpec, component: str, keep: Iterable[str]) -> bool:
    """True iff the component's rate table is constant in every declared
    dependency outside ``keep`` (i.e. it factors through ``keep``)."""
    spec._compiled  # validates the spec, once
    spec.space.index_of(component)
    keep = _component_set(spec.space, keep, "keep")
    return _constant_in(spec, component, set(spec.space.names) - keep)


def is_locally_independent(spec: CfmpSpec, source: str, target: str) -> bool:
    """True iff the target component's intensity is constant in the
    source component's state (a declared dependency may still be vacuous)."""
    spec._compiled  # validates the spec, once
    if source == target:
        raise ValueError(f"source and target must differ (got {source!r})")
    spec.space.index_of(source)
    spec.space.index_of(target)
    return _constant_in(spec, target, (source,))


def set_locally_independent(
    spec: CfmpSpec,
    sources: Iterable[str],
    targets: Iterable[str],
    given: Iterable[str],
) -> bool:
    """True iff every target component's intensity is constant in all the
    source components' states.  The three sets must be pairwise disjoint
    and jointly cover every component."""
    spec._compiled  # validates the spec, once
    b = _component_set(spec.space, sources, "sources")
    a = _component_set(spec.space, targets, "targets")
    c = _component_set(spec.space, given, "given")
    names = set(spec.space.names)
    if (b & a) or (b & c) or (a & c) or (b | a | c) != names:
        raise NonCoveringQueryError(
            "sources, targets and given must partition the component set; "
            "use delta-separation on the derived graph for other queries"
        )
    return all(_constant_in(spec, j, b) for j in a)


def _declared_dependencies(spec: CfmpSpec) -> list[tuple[str, str, bool]]:
    """Every declared dependency (j, k) with whether it is vacuous."""
    spec._compiled  # validates the spec, once
    return [
        (j, k, _constant_in(spec, k, (j,)))
        for k in spec.space.names
        for j in spec.intensities[k].depends_on
    ]


def derive_graph(spec: CfmpSpec) -> DiGraph:
    """Independence graph: edge (j, k) iff k's intensity genuinely varies
    with j's state.  Vacuous declared dependencies produce no edge."""
    edges = [(j, k) for j, k, vacuous in _declared_dependencies(spec) if not vacuous]
    return DiGraph(spec.space.names, edges)


def vacuous_dependencies(spec: CfmpSpec) -> list[tuple[str, str]]:
    """Declared dependencies whose rate rows never actually differ."""
    return [(j, k) for j, k, vacuous in _declared_dependencies(spec) if vacuous]


# --- generator and transition probabilities ------------------------------------


def build_generator(spec: CfmpSpec) -> Generator:
    """Joint rate matrix; entries between states that differ in two or
    more components are identically zero."""
    comp = spec._compiled
    n = spec.space.n_states
    q = np.zeros((n, n))
    q[np.arange(n)[:, None], comp.dst] = comp.rate
    q[np.arange(n), np.arange(n)] = -q.sum(axis=1)
    q.setflags(write=False)
    return Generator(spec.space, q)


def transition_matrix(gen: Generator, h: float) -> np.ndarray:
    """Transition probabilities over a window of length h, by Poisson
    mixing of powers of the uniformized kernel (series truncated when the
    Poisson tail mass drops below 1e-14).  Nonnegativity and unit row
    sums hold by construction.  A window whose length h times the
    largest exit rate lam is above UNIFORMIZATION_MAX_MEAN runs the
    series once at h / 2^d, for the least d that brings lam h / 2^d
    within it, and squares the result d times; one with lam h above
    MAX_WINDOW_MEAN is a ValueError, as is an h that is not a real
    number (a bool is not one)."""
    if not (_real(h) and 0 <= h < math.inf):
        raise ValueError(f"window length must be a nonnegative finite number, got {h!r}")
    return _expm_uniformized(np.asarray(gen.matrix, dtype=float), float(h))


def _expm_uniformized(q: np.ndarray, h: float) -> np.ndarray:
    n = q.shape[0]
    lam = float(np.max(-np.diag(q)))
    if lam <= 0.0:
        return np.eye(n)
    _check_means(lam, (h,), MAX_WINDOW_MEAN, "window")
    kernel = np.eye(n) + q / lam
    squarings, h = _halved(lam, h)
    # The powers of the identity are K^k from either side; multiplying
    # from the right keeps the dense rounding of P(h) = sum w_k I K^k.
    (out,) = _uniformized(lambda v: v @ kernel, lam, np.eye(n), (h,))
    for _ in range(squarings):
        out = out @ out
    return out


def _check_means(lam: float, lengths: Sequence[float], bound: float, what: str) -> None:
    for h in lengths:
        if not lam * h <= bound:
            raise ValueError(
                f"{what} length {h:g} times the largest exit rate {lam:g} is above "
                f"{bound:g}; use a shorter {what}"
            )


def _halved(lam: float, h: float) -> tuple[int, float]:
    """The least d such that lam * h / 2^d is at most
    UNIFORMIZATION_MAX_MEAN, and h / 2^d."""
    d = 0
    while lam * h > UNIFORMIZATION_MAX_MEAN:
        h /= 2.0
        d += 1
    return d, h


def _uniformized(
    step, lam: float, block: np.ndarray, hs: Sequence[float]
) -> list[np.ndarray]:
    """P(h) applied to ``block`` for every window h, where ``step``
    applies the uniformized kernel K = I + Q / lam to a block.

    P(h) is the Poisson(lam h) mixture of the powers of K.  One pass over
    K^k @ block serves every window: each keeps its own Poisson weight
    and cumulative mass, and leaves the sum once the mass it has not
    yet added is at most POISSON_TAIL.  A window with lam h above
    UNIFORMIZATION_MAX_MEAN is halved d times, until it is not, and the
    series at h / 2^d is applied 2^d times in sequence, P(h) B =
    P(h/2^d)(... (P(h/2^d) B)), so the weights never underflow; callers
    keep lam h within MAX_WINDOW_MEAN, which bounds d.  Results are
    clipped at 0, after every application."""
    out: list = [None] * len(hs)
    short = []
    for i, h in enumerate(hs):
        halvings, h = _halved(lam, h)
        if halvings:
            out[i] = block
            for _ in range(1 << halvings):
                (out[i],) = _uniformized(step, lam, out[i], (h,))
        else:
            short.append(i)
    means = [lam * hs[i] for i in short]
    weights = [math.exp(-mean) for mean in means]
    cums = list(weights)
    for i, weight in zip(short, weights):
        out[i] = weight * block
    power = block
    k = 0
    live = [j for j, cum in enumerate(cums) if 1.0 - cum > POISSON_TAIL]
    while live:
        k += 1
        power = step(power)
        for j in live:
            weights[j] *= means[j] / k
            cums[j] += weights[j]
            out[short[j]] += weights[j] * power
        live = [j for j in live if 1.0 - cums[j] > POISSON_TAIL]
    for o in out:
        np.clip(o, 0.0, None, out=o)
    return out


def uniform_distribution(space: ComponentSpace) -> np.ndarray:
    return np.full(space.n_states, 1.0 / space.n_states)


def stationary_distribution(gen: Generator) -> np.ndarray:
    """Solve pi @ Q = 0 with unit mass by least squares.  Raises
    ValueError when the solution is not unique, which is when the chain
    has more than one closed communicating class."""
    q = gen.matrix
    n = q.shape[0]
    a = np.vstack([q.T, np.ones(n)])
    # lstsq cuts rank relative to the largest singular value, so bring Q
    # to unit scale against the row of ones, in place (no n x n temporary)
    lam = float(np.max(-np.diag(q)))
    if lam > 0.0:
        a[:n] /= lam
    b = np.zeros(n + 1)
    b[-1] = 1.0
    pi, _, rank, _ = np.linalg.lstsq(a, b, rcond=None)
    if rank < n:
        raise ValueError("stationary distribution is not unique")
    pi = np.clip(pi, 0.0, None)
    return pi / pi.sum()


def _check_distribution(space: ComponentSpace, pi) -> np.ndarray:
    """``pi`` as a float64 law over the space's states; a vector that is
    not of int or float numbers (bools, complex numbers and strings
    included) is a ValueError, never a cast."""
    pi = _array(pi, "iuf", "distribution")
    if pi.shape != (space.n_states,):
        raise ValueError(
            f"distribution must have length {space.n_states}, got shape {pi.shape}"
        )
    if not np.all(np.isfinite(pi)):
        raise ValueError("distribution has non-finite entries")
    if np.any(pi < 0):
        raise ValueError("distribution has negative mass")
    if abs(float(pi.sum()) - 1.0) > 1e-12:
        raise ValueError(f"distribution mass is {pi.sum()}, not 1")
    return pi


# --- conditional mutual information decay --------------------------------------


@dataclass(frozen=True)
class CiDecayReport:
    """Conditional mutual information between a target component shortly
    after time zero and a source component at time zero, given the time
    zero states of the conditioning components (always including the
    target itself), over a ladder of window lengths."""

    target: str
    source: str
    cond: tuple[str, ...]
    hs: tuple[float, ...]
    cmis: tuple[float, ...]
    ratios: tuple[float, ...]
    orders: tuple[float, ...]
    decay_class: str

    def to_json_dict(self) -> dict:
        return {
            "target": self.target,
            "source": self.source,
            "cond": list(self.cond),
            "hs": list(self.hs),
            "cmi_nats": list(self.cmis),
            "ratios": [None if math.isnan(r) else r for r in self.ratios],
            "orders": [None if math.isnan(o) else o for o in self.orders],
            "decay_class": self.decay_class,
        }


def classify_decay(hs: Sequence[float], cmis: Sequence[float]) -> tuple[str, tuple[float, ...]]:
    """Decay class from fitted log-log slopes between consecutive rungs:
    "zero" when nothing rises above noise, otherwise "fast" for slopes
    at or above DECAY_ORDER_SPLIT and "slow" below it."""
    orders = []
    for i in range(len(hs) - 1):
        if cmis[i] > CMI_ZERO_TOL and cmis[i + 1] > CMI_ZERO_TOL:
            orders.append(
                math.log(cmis[i] / cmis[i + 1]) / math.log(hs[i] / hs[i + 1])
            )
        else:
            orders.append(float("nan"))
    usable = [o for o in orders if not math.isnan(o)]
    if not usable:
        return "zero", tuple(orders)
    mean = sum(usable) / len(usable)
    return ("fast" if mean >= DECAY_ORDER_SPLIT else "slow"), tuple(orders)


def ci_decay(
    spec: CfmpSpec,
    pi,
    target: str,
    source: str,
    cond: Iterable[str] = (),
    hs: Sequence[float] = DEFAULT_HS,
) -> CiDecayReport:
    """Measure I(target at h ; source at 0 | conditioning set at 0) in
    nats for each window length h, starting the process from ``pi``.

    The conditioning set always includes the target's own time-zero
    state.  The source must not be in it.  ``hs`` is a sequence of real
    numbers (a bool is not one), finite, at least MIN_H and strictly
    decreasing.  Each window's length times the largest exit rate must
    be at most MAX_WINDOW_MEAN, and the ladder needs at least two
    windows: the class is a slope between them.

    P(target at h | state at 0) is computed for every h at once by
    uniformization applied to the n x card_t block of target indicators
    through the spec's compiled transitions; the dense P(h) is never
    formed.
    """
    comp = spec._compiled
    space = spec.space
    pi = _check_distribution(space, pi)
    t_idx = space.index_of(target)
    s_idx = space.index_of(source)
    cond = _component_set(space, cond, "cond")
    if source == target or source in cond:
        raise ValueError("source must be outside the conditioning set and target")
    hs = _collection(hs, "window lengths", "sequence of real numbers")
    if not all(map(_real, hs)) or any(not (MIN_H <= h < math.inf) for h in hs) or any(
        hs[i] <= hs[i + 1] for i in range(len(hs) - 1)
    ):
        raise ValueError(f"window lengths must be real, finite, strictly decreasing and >= {MIN_H}")
    hs = tuple(map(float, hs))

    w_idx = sorted({space.index_of(n) for n in cond} | {t_idx})
    states = comp.grid
    n = space.n_states
    card_t = space.cards[t_idx]
    card_s = space.cards[s_idx]
    w_cards = [space.cards[i] for i in w_idx]
    w_ids = np.ravel_multi_index([states[:, i] for i in w_idx], w_cards)
    s0 = states[:, s_idx]
    onehot = np.zeros((n, card_t))
    onehot[np.arange(n), states[:, t_idx]] = 1.0

    # K v = stay v + sum rate/lam v[dst]
    lam = float(comp.exit_rate.max())
    _check_means(lam, hs, MAX_WINDOW_MEAN, "window")
    if len(hs) < 2:
        raise ValueError(
            f"a decay class is a slope between windows: need at least 2 window "
            f"lengths, got {len(hs)}"
        )
    scale = 1.0 / lam if lam > 0.0 else 0.0
    rate = comp.rate * scale
    stay = (1.0 - comp.exit_rate * scale)[:, None]
    # v[dst] as one flat take: a fancy index copies v's rows one at a time
    rows = comp.dst[:, :, None] * card_t + np.arange(card_t)

    def step(v):
        return stay * v + np.einsum("nm,nmc->nc", rate, v.reshape(-1).take(rows))

    # the flat (w, s, t) joint cell of each (state, target state) term;
    # bincount adds a cell's terms in state order, so the sums are exact
    # repeats of a loop over the states
    cells = ((w_ids * card_s + s0)[:, None] * card_t + np.arange(card_t)).ravel()
    size = int(np.prod(w_cards)) * card_s * card_t
    cmis = []
    # P(target state at h | full state at 0), for every h
    for p_target in _uniformized(step, lam, onehot, hs):
        joint = np.bincount(cells, (pi[:, None] * p_target).ravel(), size)
        cmis.append(_cmi(joint.reshape(-1, card_s, card_t)))

    ratios = tuple(
        cmis[i + 1] / cmis[i] if cmis[i] > 0 else float("nan")
        for i in range(len(cmis) - 1)
    )
    decay_class, orders = classify_decay(hs, cmis)
    return CiDecayReport(
        target=target,
        source=source,
        cond=tuple(sorted(cond)),
        hs=hs,
        cmis=tuple(cmis),
        ratios=ratios,
        orders=orders,
        decay_class=decay_class,
    )


def _cmi(joint: np.ndarray) -> float:
    """I(T; S | W) in nats from a (W, S, T) joint table; cells below
    CMI_PROB_FLOOR are treated as zero."""
    p_ws = joint.sum(axis=2, keepdims=True)
    p_wt = joint.sum(axis=1, keepdims=True)
    p_w = joint.sum(axis=(1, 2), keepdims=True)
    num = joint * p_w
    den = np.broadcast_to(p_ws * p_wt, joint.shape)
    mask = joint > CMI_PROB_FLOOR
    total = float(np.sum(joint[mask] * np.log(num[mask] / den[mask])))
    return max(total, 0.0)


# --- simulation and estimation --------------------------------------------------


def simulate(spec: CfmpSpec, pi, horizon: float, seed: int) -> Trajectory:
    """Exact event-driven sample of the joint chain: exponential holding
    times at the total exit rate, next transition chosen proportionally
    to its rate.  Deterministic given the seed.  An absorbing state
    simply holds until the horizon.  A horizon whose length times the
    largest exit rate is above MAX_HORIZON_MEAN is a ValueError."""
    return simulate_batch(spec, pi, horizon, seed, 1)[0]


def simulate_batch(
    spec: CfmpSpec, pi, horizon: float, seed: int, count: int
) -> list[Trajectory]:
    """Independent trajectories with per-trajectory seeds seed + index.
    ``seed`` and ``count`` must be integers >= 0 and ``horizon`` a
    positive finite real number; a bool is neither."""
    _check_count(seed, "seed")
    _check_count(count, "count")
    comp = spec._compiled
    if not (_real(horizon) and 0 < horizon < math.inf):
        raise ValueError(f"horizon must be a positive finite number, got {horizon!r}")
    _check_means(float(comp.exit_rate.max()), (horizon,), MAX_HORIZON_MEAN, "horizon")
    pi = _check_distribution(spec.space, pi)
    return [_sample(spec, pi, horizon, seed + i) for i in range(count)]


def _sample(spec: CfmpSpec, pi: np.ndarray, horizon: float, seed: int) -> Trajectory:
    """One path: the initial state drawn from ``pi``, then per jump a
    standard exponential scaled by the state's total exit rate and a
    uniform that picks the transition.  Both are drawn SAMPLE_BLOCK at a
    time, exponentials first, whenever the last block is used up."""
    rng = np.random.default_rng(seed)
    total, cum, dst, moved, new = spec._compiled.sampling
    idx = int(rng.choice(len(total), p=pi))
    initial = tuple(spec._compiled.grid[idx].tolist())
    times, comps, states = [], [], []
    t, i = 0.0, SAMPLE_BLOCK
    while total[idx] > 0.0:
        if i == SAMPLE_BLOCK:
            holds = rng.standard_exponential(SAMPLE_BLOCK).tolist()
            uniforms, i = rng.random(SAMPLE_BLOCK).tolist(), 0
        t += holds[i] / total[idx]
        if t > horizon:
            break
        # a zero-rate column repeats the cumulative value before it, so
        # bisect_right never picks one, and cum[idx][-1] is exactly 1.0
        pick = bisect_right(cum[idx], uniforms[i])
        i += 1
        times.append(t)
        comps.append(moved[pick])
        states.append(new[idx][pick])
        idx = dst[idx][pick]
    return Trajectory._from_columns(spec.space, initial, times, comps, states, float(horizon))


@dataclass(frozen=True)
class CellEstimate:
    exposure: float
    events: dict[int, int]
    rates: dict[int, float | None]


@dataclass(frozen=True, eq=False)
class IntensityEstimates:
    """Occurrence/exposure rate estimates, one cell per (component,
    dependency configuration, own state); cells with zero exposure are
    undefined (None), not zero."""

    space: ComponentSpace
    depends_on: dict[str, tuple[str, ...]]
    cells: dict[str, dict[tuple[tuple[int, ...], int], CellEstimate]]

    def to_json_dict(self) -> dict:
        comps = {}
        for name in self.space.names:
            deps = self.depends_on[name]
            rows = [
                {
                    "given": dict(zip(deps, given)),
                    "from": src,
                    "exposure": cell.exposure,
                    "events": {str(t): c for t, c in sorted(cell.events.items())},
                    "rates": {str(t): r for t, r in sorted(cell.rates.items())},
                }
                for (given, src), cell in sorted(self.cells[name].items())
            ]
            comps[name] = {"depends_on": list(deps), "cells": rows}
        return {"components": comps}


def estimate_intensities(
    trajectories: Sequence[Trajectory], spec: CfmpSpec
) -> IntensityEstimates:
    """Rate estimates under the spec's dependency structure: events in a
    cell divided by the total time exposed in that cell.  Raises
    ValueError when a trajectory's space is not the spec's."""
    comp = spec._compiled
    space = spec.space
    trajectories = _collection(trajectories, "trajectories", "collection of trajectories")
    for traj in trajectories:
        if _trajectory(traj).space != space:
            raise ValueError(f"a trajectory's space does not fit the spec's {space}")
    none = [np.zeros(0, dtype=int)]
    seg = np.concatenate(none + [traj._segments for traj in trajectories])
    src = np.concatenate(none + [traj._segments[:-1] for traj in trajectories])
    dst = np.concatenate(none + [traj._segments[1:] for traj in trajectories])
    dwell = np.concatenate(none + [traj._dwell for traj in trajectories])
    component = np.concatenate(none + [traj.components for traj in trajectories])

    cells: dict[str, dict[tuple[tuple[int, ...], int], CellEstimate]] = {}
    for ki, (name, card) in enumerate(zip(space.names, space.cards)):
        shape = comp.rates[name].shape[:-1]
        size = math.prod(shape)
        cell = comp.cell[name]
        # an empty bincount is integer even with weights
        exposure = np.bincount(cell[seg], weights=dwell, minlength=size)
        exposure = exposure.astype(float).tolist()
        moved = component == ki
        events = np.bincount(
            cell[src[moved]] * card + comp.grid[dst[moved], ki], minlength=size * card
        )
        events = events.reshape(size, card).tolist()
        comp_cells = {}
        for i, (*given, own) in enumerate(np.ndindex(shape)):
            expo = exposure[i]
            counts = {t: events[i][t] for t in range(card) if t != own}
            rates = {t: (cnt / expo if expo > 0 else None) for t, cnt in counts.items()}
            comp_cells[(tuple(given), own)] = CellEstimate(expo, counts, rates)
        cells[name] = comp_cells
    depends_on = {name: spec.intensities[name].depends_on for name in space.names}
    return IntensityEstimates(space, depends_on, cells)


# --- irrelevance oracle ----------------------------------------------------------


def local_independence_oracle(spec: CfmpSpec) -> IrrelevanceOracle:
    """Irrelevance by intensity constancy.  Only triples that partition
    the component set are in the oracle's domain; others raise
    OracleDomainError and are skipped by the axiom checkers."""
    spec._compiled  # validates the spec, once

    def query(a: frozenset, b: frozenset, c: frozenset) -> bool:
        try:
            return set_locally_independent(spec, a, b, c)
        except NonCoveringQueryError as exc:
            raise OracleDomainError(str(exc)) from None

    return IrrelevanceOracle(
        ground=tuple(spec.space.names), query=query, name="local-independence"
    )


# --- JSON wire formats ------------------------------------------------------------


def spec_to_json_dict(spec: CfmpSpec) -> dict:
    comps = [
        {"name": n, "states": c} for n, c in zip(spec.space.names, spec.space.cards)
    ]
    intens = {}
    for name in spec.space.names:
        ci = spec.intensities[name]
        rows = sorted(ci.rows, key=lambda r: (r.given, r.source, r.target))
        intens[name] = {
            "depends_on": list(ci.depends_on),
            "table": [
                {
                    "given": {d: v for d, v in zip(ci.depends_on, r.given)},
                    "from": r.source,
                    "to": r.target,
                    "rate": r.rate,
                }
                for r in rows
            ],
        }
    return {"components": comps, "intensities": intens}


def spec_from_json_dict(data: dict) -> CfmpSpec:
    comps = _field(data, "components", _ARRAY, "process spec JSON")
    names = [_field(c, "name", _STRING, f"component {i}") for i, c in enumerate(comps)]
    cards = [_field(c, "states", _INT, f"component {i}") for i, c in enumerate(comps)]
    space = ComponentSpace(tuple(names), tuple(cards))
    intens_data = _field(data, "intensities", _OBJECT, "process spec JSON", {})
    for key in intens_data:
        if key not in names:
            raise ValueError(f"'intensities' has an entry for unknown component {key!r}")
    intensities = {}
    for name in names:
        entry = _field(intens_data, name, _OBJECT, "'intensities'", {})
        deps = _field(entry, "depends_on", _strings, name, ())
        rows = []
        for raw in _field(entry, "table", _ARRAY, name, ()):
            where = f"{name}: rate table row"
            source = _field(raw, "from", _INT, where)
            target = _field(raw, "to", _INT, where)
            rate = _field(raw, "rate", _number, where)
            given_map = _field(raw, "given", _OBJECT, where, {})
            if set(given_map) != set(deps):
                raise ValueError(
                    f"{name}: 'given' must assign exactly {list(deps)}, "
                    f"got {sorted(given_map)}"
                )
            given = tuple(_field(given_map, d, _INT, f"{where} 'given'") for d in deps)
            rows.append(RateRow(given, source, target, rate))
        intensities[name] = ComponentIntensity(deps, tuple(rows))
    return CfmpSpec(space, intensities)


def spec_to_json(spec: CfmpSpec) -> str:
    return json.dumps(spec_to_json_dict(spec), indent=2) + "\n"


def spec_from_json(text: str) -> CfmpSpec:
    return spec_from_json_dict(_load_json(text))


def _trajectory(value) -> Trajectory:
    """``value``, which must be a Trajectory; anything else is a ValueError."""
    if not isinstance(value, Trajectory):
        raise ValueError(f"trajectories must be Trajectory instances, not {value!r}")
    return value


def trajectory_to_jsonl(traj: Trajectory, space: ComponentSpace) -> str:
    """The JSONL text of ``traj``: a ``json.dumps`` header line, then one
    event line per jump, formatted as ``json.dumps`` would format it."""
    if space != _trajectory(traj).space:
        raise ValueError(f"a trajectory over {traj.space} cannot be written over {space}")
    header = dict(components=list(space.names), initial=list(traj.initial), horizon=traj.horizon)
    names = [json.dumps(n) for n in space.names]
    events = [
        f'{{"time": {t!r}, "component": {names[k]}, "new_state": {s}}}\n' for t, k, s in traj.jumps
    ]
    return json.dumps(header) + "\n" + "".join(events)


@functools.cache
def _event_line() -> re.Pattern:
    """The writer's event line, for values that ``json`` reads the same
    way: an unsigned number whose integer part ``float`` cannot overflow,
    a name with no escape or control character, a state of 1-18 digits."""
    number = r"(?:0|[1-9][0-9]{0,15})(?:\.[0-9]+)?(?:[eE][-+]?[0-9]+)?"
    name, state = r'[^"\\\x00-\x1f]*', r"0|[1-9][0-9]{0,17}"
    return re.compile(f'{{"time": ({number}), "component": "({name})", "new_state": ({state})}}')


def trajectory_from_jsonl(text: str, space: ComponentSpace) -> Trajectory:
    """The trajectory in ``text``.  An event line in the writer's exact
    form is read by one regex match; any other line by ``json``."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty trajectory file")
    header = _load_json(lines[0])
    where = "trajectory header"
    if tuple(_field(header, "components", _ARRAY, where)) != space.names:
        raise ValueError(
            f"trajectory components {header['components']} do not match "
            f"the spec components {list(space.names)}"
        )
    initial = _field(header, "initial", lambda v: tuple(map(_INT, _ARRAY(v))), where)
    horizon = _field(header, "horizon", _number, where)
    match, index = _event_line().fullmatch, {n: space.index_of(n) for n in space.names}
    # _number, _INT and the pattern never yield a bool
    times, comps, states = [], [], []
    for ln in lines[1:]:
        m = match(ln)
        if m and m[2] in index:
            time, ki, new = float(m[1]), index[m[2]], int(m[3])
        else:
            ev = _load_json(ln)
            ki = space.index_of(_field(ev, "component", _STRING, "trajectory event"))
            new = _field(ev, "new_state", _INT, "trajectory event")
            time = _field(ev, "time", _number, "trajectory event")
        times.append(time)
        comps.append(ki)
        states.append(new)
    return Trajectory._from_columns(space, initial, times, comps, states, horizon)
