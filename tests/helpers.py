"""Shared test machinery: an independent slow-path property checker, a
rank-space reference evaluator, a per-triple ``all_separations`` loop, a
``ci_decay`` kernel with fancy-index gathers and ``np.add.at`` tables, a
per-line trajectory JSONL writer and reader with line mutations for
them, and random spec/graph generators.

The slow checker re-states every property as explicit nested loops over
subsets with direct oracle queries, deliberately sharing no code with
the vectorized engine; agreement between the two is itself a test.  The
rank-space evaluator runs the engine's own rule declarations one cell
per instance, without packed words or listings.
"""

from __future__ import annotations

import itertools
import json
import random

import numpy as np

from ligraph import graphoid
from ligraph.cfmp import (
    _ARRAY,
    _INT,
    _STRING,
    DEFAULT_HS,
    CfmpSpec,
    CiDecayReport,
    ComponentIntensity,
    ComponentSpace,
    RateRow,
    Trajectory,
    _cmi,
    _field,
    _number,
    _uniformized,
    ci_decay,
    classify_decay,
)
from ligraph.graphs import DiGraph, _load_json
from ligraph.graphoid import Axiom, DerivedProperty, OracleDomainError
from ligraph.separation import SeparationQuery, delta_separates, subsets_by_size


def _query_fn(oracle):
    def q(a, b, c):
        try:
            return oracle.query(a, b, c)
        except OracleDomainError:
            return None

    return q


def _instances(prop, subs):
    """Yield quantified-set dicts in canonical nested order, applying the
    property's structural side conditions."""
    four = (
        Axiom.LEFT_DECOMPOSITION,
        Axiom.RIGHT_DECOMPOSITION,
        Axiom.LEFT_WEAK_UNION,
        Axiom.RIGHT_WEAK_UNION,
        Axiom.LEFT_CONTRACTION,
        Axiom.RIGHT_CONTRACTION,
        DerivedProperty.LEFT_DISJOINT_INTERSECTION,
        DerivedProperty.RIGHT_DISJOINT_INTERSECTION,
        DerivedProperty.SHIFTED_RIGHT_DECOMPOSITION,
        DerivedProperty.OVERLAP_TOLERANT_INTERSECTION,
        DerivedProperty.GUARDED_RIGHT_DECOMPOSITION,
    )
    if prop in (Axiom.LEFT_REDUNDANCY, Axiom.RIGHT_REDUNDANCY):
        for a in subs:
            for b in subs:
                yield {"A": a, "B": b}
    elif prop in (
        Axiom.LEFT_INTERSECTION,
        Axiom.RIGHT_INTERSECTION,
        DerivedProperty.LEFT_TRIM,
        DerivedProperty.RIGHT_TRIM,
    ):
        for a in subs:
            for b in subs:
                for c in subs:
                    yield {"A": a, "B": b, "C": c}
    elif prop in four:
        for a in subs:
            for b in subs:
                for c in subs:
                    for d in subs:
                        sets = {"A": a, "B": b, "C": c, "D": d}
                        if _structurally_valid(prop, sets):
                            yield sets
    else:
        raise ValueError(prop)


def _structurally_valid(prop, s) -> bool:
    a, b, c, d = s["A"], s["B"], s["C"], s["D"]
    if prop in (Axiom.LEFT_DECOMPOSITION, Axiom.LEFT_WEAK_UNION):
        return d <= a
    if prop in (
        Axiom.RIGHT_DECOMPOSITION,
        Axiom.RIGHT_WEAK_UNION,
        DerivedProperty.SHIFTED_RIGHT_DECOMPOSITION,
    ):
        return d <= b
    if prop in (Axiom.LEFT_CONTRACTION, Axiom.RIGHT_CONTRACTION):
        return True
    if prop in (
        DerivedProperty.LEFT_DISJOINT_INTERSECTION,
        DerivedProperty.RIGHT_DISJOINT_INTERSECTION,
    ):
        return (
            not a & b and not a & c and not a & d
            and not b & c and not b & d and not c & d
        )
    if prop is DerivedProperty.OVERLAP_TOLERANT_INTERSECTION:
        return not b & c and not b & d and not c & d and not a & d
    if prop is DerivedProperty.GUARDED_RIGHT_DECOMPOSITION:
        return d <= b and not (a & b) - (c | d)
    raise ValueError(prop)


def _queries(prop, s):
    """All oracle triples an instance touches: premises first, conclusion
    last (biconditionals list both sides; the guarded form lists its side
    conditions between premise and conclusion)."""
    a, b, c, d = (
        s.get("A", frozenset()),
        s.get("B", frozenset()),
        s.get("C", frozenset()),
        s.get("D", frozenset()),
    )
    if prop is Axiom.LEFT_REDUNDANCY:
        return [(a, b, a)]
    if prop is Axiom.RIGHT_REDUNDANCY:
        return [(a, b, b)]
    if prop is Axiom.LEFT_DECOMPOSITION:
        return [(a, b, c), (d, b, c)]
    if prop is Axiom.RIGHT_DECOMPOSITION:
        return [(a, b, c), (a, d, c)]
    if prop is Axiom.LEFT_WEAK_UNION:
        return [(a, b, c), (a, b, c | d)]
    if prop is Axiom.RIGHT_WEAK_UNION:
        return [(a, b, c), (a, b, c | d)]
    if prop is Axiom.LEFT_CONTRACTION:
        return [(a, b, c), (d, b, a | c), (a | d, b, c)]
    if prop is Axiom.RIGHT_CONTRACTION:
        return [(a, b, c), (a, d, b | c), (a, b | d, c)]
    if prop is Axiom.LEFT_INTERSECTION:
        return [(a, b, c), (c, b, a), (a | c, b, a & c)]
    if prop is Axiom.RIGHT_INTERSECTION:
        return [(a, b, c), (a, c, b), (a, b | c, b & c)]
    if prop is DerivedProperty.LEFT_TRIM:
        return [(a, b, c), (a - c, b, c)]
    if prop is DerivedProperty.RIGHT_TRIM:
        return [(a, b, c), (a, b - c, c)]
    if prop is DerivedProperty.LEFT_DISJOINT_INTERSECTION:
        return [(a, b, c | d), (c, b, a | d), (a | c, b, d)]
    if prop in (
        DerivedProperty.RIGHT_DISJOINT_INTERSECTION,
        DerivedProperty.OVERLAP_TOLERANT_INTERSECTION,
    ):
        return [(a, b, c | d), (a, c, b | d), (a, b | c, d)]
    if prop is DerivedProperty.SHIFTED_RIGHT_DECOMPOSITION:
        return [(a, b, c), (a, d, (c | b) - d)]
    if prop is DerivedProperty.GUARDED_RIGHT_DECOMPOSITION:
        qs = [(a, b, c), (b, d, a | c), (b, a - (c | d), c | d)]
        for k in sorted(c - d):
            qs.append((a, frozenset([k]), (c - {k}) | b))
            qs.append((b, frozenset([k]), (c - {k}) | d | a))
        qs.append((a, d, c))
        return qs
    raise ValueError(prop)


def _violated(prop, s, vals) -> bool:
    """Decide violation from the query values in _queries order."""
    if prop in (Axiom.LEFT_REDUNDANCY, Axiom.RIGHT_REDUNDANCY):
        return not vals[0]
    if prop in (DerivedProperty.LEFT_TRIM, DerivedProperty.RIGHT_TRIM):
        return vals[0] != vals[1]
    if prop is DerivedProperty.GUARDED_RIGHT_DECOMPOSITION:
        premise, guard_i, guard_ii_base = vals[0], vals[1], vals[2]
        ks = sorted(s["C"] - s["D"])
        per_k = vals[3 : 3 + 2 * len(ks)]
        conclusion = vals[-1]
        guard = guard_i or (
            guard_ii_base
            and all(per_k[2 * i] or per_k[2 * i + 1] for i in range(len(ks)))
        )
        return premise and guard and not conclusion
    return all(vals[:-1]) and not vals[-1]


def slow_check(oracle, prop):
    """Independent reference implementation of check_axiom/check_derived.

    Returns (holds, first counterexample, checked, skipped).
    """
    subs = subsets_by_size(oracle.ground)
    q = _query_fn(oracle)
    cache: dict = {}

    def cached(triple):
        if triple not in cache:
            cache[triple] = q(*triple)
        return cache[triple]

    checked = 0
    skipped = 0
    first = None
    for sets in _instances(prop, subs):
        vals = [cached(t) for t in _queries(prop, sets)]
        if any(v is None for v in vals):
            skipped += 1
            continue
        checked += 1
        if first is None and _violated(prop, sets, vals):
            first = dict(sets)
    return first is None, first, checked, skipped


def rank_space_evaluate(table, names, side, rule, guard=None):
    """Evaluate a ``_RULES`` entry on the whole lattice of ``table`` at
    once, one cell per rank tuple of ``names``, each set held as the
    subset masks of its ranks: the side condition, the rule and the
    guard are all asked on every cell.

    Returns the lattice position (C order over ``names``) of the first
    violation, or None, and the number of cells where the side condition
    holds and every query is evaluable: what ``graphoid._evaluate``
    returns for the entry."""
    t = table.tables
    x = graphoid._RankSpace(t, table.values, None if table.all_evaluable else table.evaluable)
    sets = [graphoid._Masks(t.masks[r]) for r in graphoid._axes(t.size, len(names))]
    premise, conclusion = rule(x, *sets)
    premise = premise & (guard(x, *sets) if guard else True)
    shape = (t.size,) * len(names)
    admitted = np.broadcast_to(side(x, *sets), shape)
    if x.evaluable is not None:
        admitted = admitted & x.evaluable
    cells = np.flatnonzero(admitted & premise & ~conclusion)
    return (int(cells[0]) if cells.size else None), int(np.count_nonzero(admitted))


def reference_all_separations(g: DiGraph, max_cond: int) -> list[SeparationQuery]:
    """``all_separations`` as nested loops over ranked subsets, one
    ``delta_separates`` call per disjoint triple."""
    subsets = subsets_by_size(g.labels)
    found = []
    for a in subsets:
        if not a:
            continue
        for b in subsets:
            if not b or (a & b):
                continue
            rest = [s for s in subsets if len(s) <= max_cond and not s & (a | b)]
            for c in rest:
                q = SeparationQuery(a, b, c)
                if delta_separates(g, q):
                    found.append(q)
    return found


def reference_ci_decay(spec, pi, target, source, cond=(), hs=DEFAULT_HS) -> CiDecayReport:
    """``ci_decay`` with its former kernel, for valid arguments: each
    uniformization step gathers the neighbour rows as the fancy index
    ``v[dst]``, and each window's joint table is summed by ``np.add.at``.
    ``ci_decay`` must return the same bits."""
    comp, space = spec._compiled, spec.space
    pi = np.asarray(pi, dtype=float)
    hs = tuple(map(float, hs))
    t_idx, s_idx = space.index_of(target), space.index_of(source)
    w_idx = sorted({space.index_of(n) for n in cond} | {t_idx})
    states = comp.grid
    card_t, card_s = space.cards[t_idx], space.cards[s_idx]
    w_cards = [space.cards[i] for i in w_idx]
    w_ids = np.ravel_multi_index([states[:, i] for i in w_idx], w_cards)
    onehot = np.zeros((space.n_states, card_t))
    onehot[np.arange(space.n_states), states[:, t_idx]] = 1.0
    lam = float(comp.exit_rate.max())
    scale = 1.0 / lam if lam > 0.0 else 0.0
    rate = comp.rate * scale
    stay = (1.0 - comp.exit_rate * scale)[:, None]

    def step(v):
        return stay * v + np.einsum("nm,nmc->nc", rate, v[comp.dst])

    cmis = []
    for p_target in _uniformized(step, lam, onehot, hs):
        joint = np.zeros((int(np.prod(w_cards)), card_s, card_t))
        np.add.at(joint, (w_ids, states[:, s_idx]), pi[:, None] * p_target)
        cmis.append(_cmi(joint))
    ratios = tuple(
        cmis[i + 1] / cmis[i] if cmis[i] > 0 else float("nan") for i in range(len(cmis) - 1)
    )
    decay_class, orders = classify_decay(hs, cmis)
    return CiDecayReport(
        target, source, tuple(sorted(cond)), hs, tuple(cmis), ratios, orders, decay_class
    )


def assert_decay_matches_reference(spec, pi, target, source, cond) -> None:
    """``ci_decay`` and ``reference_ci_decay`` agree bit for bit: the
    report's JSON text (floats by repr) and the hex of every CMI."""
    got = ci_decay(spec, pi, target, source, cond)
    want = reference_ci_decay(spec, pi, target, source, cond)
    assert json.dumps(got.to_json_dict()) == json.dumps(want.to_json_dict())
    assert [c.hex() for c in got.cmis] == [c.hex() for c in want.cmis]


def reference_trajectory_to_jsonl(traj: Trajectory, space: ComponentSpace) -> str:
    """The trajectory writer as one ``json.dumps`` per line."""
    header = dict(components=list(space.names), initial=list(traj.initial), horizon=traj.horizon)
    events = ({"time": t, "component": space.names[k], "new_state": s} for t, k, s in traj.jumps)
    return "".join(json.dumps(line) + "\n" for line in (header, *events))


def reference_trajectory_from_jsonl(text: str, space: ComponentSpace) -> Trajectory:
    """The trajectory reader as one ``json.loads`` per line, every field
    read through the library's ``_field`` converters."""
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
    jumps = []
    for ln in lines[1:]:
        ev = _load_json(ln)
        ki = space.index_of(_field(ev, "component", _STRING, "trajectory event"))
        new = _field(ev, "new_state", _INT, "trajectory event")
        jumps.append((_field(ev, "time", _number, "trajectory event"), ki, new))
    return Trajectory(space, initial, tuple(jumps), horizon)


def event_line_mutations(line: str) -> dict[str, str]:
    """Variants of one event line written by the trajectory writer: other
    number spellings, layouts, keys, names and values, and broken lines."""
    ev = json.loads(line)
    t, name, s = json.dumps(ev["time"]), json.dumps(ev["component"]), ev["new_state"]

    def event(time=t, comp=name, state=s):
        return f'{{"time": {time}, "component": {comp}, "new_state": {state}}}'

    escaped = "".join(f"\\u{ord(c):04x}" for c in ev["component"])
    return {
        "minus-zero": event(time="-0"),
        "minus-zero-float": event(time="-0.0"),
        "negative-time": event(time="-" + t),
        "upper-exponent": event(time="1E5"),
        "fraction-exponent": event(time="0.5e-3"),
        "exponent-spelling": event(time=f"{ev['time']:.17E}"),
        "long-fraction": event(time=f"{ev['time']:.25f}"),
        "int-time": event(time="1"),
        "leading-zero-time": event(time="01"),
        "leading-zero-state": event(state="01"),
        "20-digit-time": event(time="1" * 20),
        "20-digit-state": event(state="1" * 20),
        "400-digit-time": event(time="9" * 400),
        "overflowing-time": event(time="1e400"),
        "non-ascii-digit": event(time="\u0661"),
        "compact": json.dumps(ev, separators=(",", ":")),
        "tabs": event().replace(" ", "\t"),
        "padded": f" {event()} ",
        "reordered-keys": json.dumps(dict(reversed(ev.items()))),
        "duplicate-key": '{"time": 0.25, ' + event()[1:],
        "extra-key": event()[:-1] + ', "x": 1}',
        "escaped-name": event(comp=f'"{escaped}"'),
        "non-ascii-name": event(comp='"\u00e9"'),
        "escaped-non-ascii-name": event(comp='"\\u00e9"'),
        "control-in-name": event(comp='"c\x01"'),
        "empty-name": event(comp='""'),
        "unknown-name": event(comp='"zz"'),
        "true-time": event(time="true"),
        "true-state": event(state="true"),
        "null-state": event(state="null"),
        "float-state": event(state=f"{s}.0"),
        "crlf": event() + "\r",
        "line-separator": event()[:12] + "\u2028" + event()[12:],
        "trailing-garbage": event() + "x",
        "open-string": event()[:-1] + ', "x": "',
    }


def random_digraph(labels, rng: random.Random, p: float = 0.35) -> DiGraph:
    edges = [
        (j, k) for j in labels for k in labels if j != k and rng.random() < p
    ]
    return DiGraph(labels, edges)


def random_spec(rng: random.Random) -> CfmpSpec:
    """A random valid spec: 2-4 components with 2-3 states each, random
    dependency sets, rates in [0.1, 3]."""
    n = rng.randint(2, 4)
    names = tuple(f"c{i}" for i in range(n))
    cards = tuple(rng.randint(2, 3) for _ in range(n))
    space = ComponentSpace(names, cards)
    intensities = {}
    for i, name in enumerate(names):
        others = [m for m in names if m != name]
        deps = tuple(sorted(rng.sample(others, rng.randint(0, min(2, len(others))))))
        dep_cards = [cards[names.index(d)] for d in deps]
        rows = []
        for given in itertools.product(*(range(c) for c in dep_cards)):
            for s in range(cards[i]):
                for t in range(cards[i]):
                    if s != t:
                        rows.append(RateRow(given, s, t, rng.uniform(0.1, 3.0)))
        intensities[name] = ComponentIntensity(deps, tuple(rows))
    return CfmpSpec(space, intensities)


def closure_under(relation: set, subs, rules: str) -> set:
    """Close a set of true triples under the left or right family of
    {redundancy facts, decomposition, contraction} until a fixpoint."""
    rel = set(relation)
    for a in subs:
        for b in subs:
            rel.add((a, b, a) if rules == "left" else (a, b, b))
    changed = True
    while changed:
        changed = False
        for a, b, c in list(rel):
            if rules == "left":
                for d in subs:
                    if d <= a and (d, b, c) not in rel:
                        rel.add((d, b, c))
                        changed = True
                for d in subs:
                    if (d, b, a | c) in rel and (a | d, b, c) not in rel:
                        rel.add((a | d, b, c))
                        changed = True
            else:
                for d in subs:
                    if d <= b and (a, d, c) not in rel:
                        rel.add((a, d, c))
                        changed = True
                for d in subs:
                    if (a, d, b | c) in rel and (a, b | d, c) not in rel:
                        rel.add((a, b | d, c))
                        changed = True
    return rel
