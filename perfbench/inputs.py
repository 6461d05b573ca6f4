"""Seeded input generation for the benchmark workloads.

Everything here is plain Python (``random`` and ``json``) and never imports
ligraph, so the program under test only ever sees the generated inputs.
The same (workload, seed) pair always yields byte-identical inputs; see
``inputs_bytes``.
"""

from __future__ import annotations

import itertools
import json
import random

DSEP_LABELS = tuple("abcdef")
# Edge probability ranges of the three dsep density classes.
DSEP_DENSITY = {"small": (0.10, 0.25), "medium": (0.30, 0.45), "large": (0.50, 0.70)}
DSEP_POOL = 150  # graphs per density class

AXIOM_LABELS = {"small": tuple("abc"), "medium": tuple("abcd"), "large": tuple("abcde")}
AXIOM_MEDIUM_POOL = 800  # distinct codes drawn from the 4096 four-node digraphs
AXIOM_LARGE_POOL = 60

# Binary components per decay size class: 64, 256 and 1024 product states.
DECAY_COMPONENTS = {"small": 6, "medium": 8, "large": 10}
DECAY_SPECS_PER_CLASS = 4
# Every decay spec is rescaled so that its largest total exit rate is
# DECAY_EXIT_RATE_PER_COMPONENT * components.  The uniformization series
# length depends only on that rate, so the per-report cost at one size does
# not drift with the seed.
DECAY_EXIT_RATE_PER_COMPONENT = 1.2
DECAY_MAX_STATEMENTS = 6  # per kind (edge / separated) and spec

SESSION_COMPONENTS = 6
SESSION_STATES = 3  # 3 ** 6 = 729 product states


def _rng(workload: str, seed: int, stream: str = "") -> random.Random:
    return random.Random(f"{workload}/{stream}/{int(seed)}")


def _pairs(labels):
    return [(j, k) for j in labels for k in labels if j != k]


def digraph_from_code(labels, code: int) -> list[list[str]]:
    """Edge list of digraph number ``code`` in ligraph's enumeration order
    (candidate edge i, in label order, is present iff bit i is set)."""
    return [list(p) for i, p in enumerate(_pairs(labels)) if (code >> i) & 1]


def _random_edges(labels, rng: random.Random, p: float) -> set[tuple[str, str]]:
    return {(j, k) for j, k in _pairs(labels) if rng.random() < p}


def dsep_inputs(seed: int) -> dict:
    """6-node digraphs in three density classes.  Every graph gets a planted
    two-node feedback loop, and sparse graphs a directed 3-cycle, so cycles
    occur at every density."""
    out = {}
    for cls, (lo, hi) in DSEP_DENSITY.items():
        rng = _rng("dsep", seed, cls)
        graphs = []
        for _ in range(DSEP_POOL):
            edges = _random_edges(DSEP_LABELS, rng, rng.uniform(lo, hi))
            j, k = rng.sample(DSEP_LABELS, 2)
            edges |= {(j, k), (k, j)}
            if cls == "small":
                x, y, z = rng.sample(DSEP_LABELS, 3)
                edges |= {(x, y), (y, z), (z, x)}
            graphs.append(sorted([list(e) for e in edges]))
        out[cls] = graphs
    return {"labels": list(DSEP_LABELS), "graphs": out}


def axioms_inputs(seed: int) -> dict:
    """3-node digraphs (all 64, shuffled), a draw of distinct 4-node digraph
    codes out of 4096, and random 5-node digraphs."""
    rng = _rng("axioms", seed)
    small = rng.sample(range(64), 64)
    medium = rng.sample(range(4096), AXIOM_MEDIUM_POOL)
    large = []
    for _ in range(AXIOM_LARGE_POOL):
        edges = _random_edges(AXIOM_LABELS["large"], rng, rng.uniform(0.1, 0.6))
        large.append(sorted([list(e) for e in edges]))
    return {
        "labels": {cls: list(v) for cls, v in AXIOM_LABELS.items()},
        "graphs": {
            "small": [digraph_from_code(AXIOM_LABELS["small"], c) for c in small],
            "medium": [digraph_from_code(AXIOM_LABELS["medium"], c) for c in medium],
            "large": large,
        },
    }


def _spec_json(names, cards, deps, rates) -> dict:
    """Spec JSON in ligraph's wire format; ``rates[name]`` maps
    (given, from, to) to a rate."""
    intens = {}
    for name in names:
        table = []
        for (given, src, dst), rate in sorted(rates[name].items()):
            table.append(
                {
                    "given": dict(zip(deps[name], given)),
                    "from": src,
                    "to": dst,
                    "rate": rate,
                }
            )
        intens[name] = {"depends_on": list(deps[name]), "table": table}
    return {
        "components": [{"name": n, "states": c} for n, c in zip(names, cards)],
        "intensities": intens,
    }


def _random_rates(names, cards, deps, rng, lo, hi) -> dict:
    card_of = dict(zip(names, cards))
    rates = {}
    for name in names:
        table = {}
        configs = itertools.product(*(range(card_of[d]) for d in deps[name]))
        for given in configs:
            for src in range(card_of[name]):
                for dst in range(card_of[name]):
                    if src != dst:
                        table[(given, src, dst)] = rng.uniform(lo, hi)
        rates[name] = table
    return rates


def _ring_with_extras(names, rng, extras: int, max_deps: int) -> dict:
    """Component i depends on component i-1, plus ``extras`` seeded extra
    dependencies (so the graph has cycles, feedback loops and chords)."""
    n = len(names)
    deps = {names[i]: [names[i - 1]] for i in range(n)}
    added = 0
    while added < extras:
        j, k = rng.sample(names, 2)
        if j not in deps[k] and len(deps[k]) < max_deps:
            deps[k].append(j)
            added += 1
    return {k: tuple(sorted(v)) for k, v in deps.items()}


def _max_exit_rate(names, deps, rates) -> float:
    """Largest total exit rate over the product states of a binary spec."""
    index = {name: i for i, name in enumerate(names)}
    best = 0.0
    for state in itertools.product((0, 1), repeat=len(names)):
        total = 0.0
        for name in names:
            given = tuple(state[index[d]] for d in deps[name])
            src = state[index[name]]
            total += rates[name][(given, src, 1 - src)]
        best = max(best, total)
    return best


def decay_spec(rng: random.Random, components: int) -> dict:
    """A binary-component ring with seeded extra dependencies and random
    rates, rescaled to a fixed largest exit rate."""
    names = [f"x{i}" for i in range(components)]
    cards = [2] * components
    deps = _ring_with_extras(names, rng, extras=components // 3, max_deps=3)
    rates = _random_rates(names, cards, deps, rng, 0.3, 2.5)
    scale = DECAY_EXIT_RATE_PER_COMPONENT * components / _max_exit_rate(names, deps, rates)
    rates = {
        name: {key: round(r * scale, 9) for key, r in table.items()}
        for name, table in rates.items()
    }
    return {"spec": _spec_json(names, cards, deps, rates), "deps": deps}


def _statements(rng: random.Random, names, deps) -> list[list]:
    """Alternating (source, target, kind) decay statements: every declared
    dependency is an edge, every non-dependency a covering separated
    statement (conditioning on all other components)."""
    edges = [(j, k) for k in names for j in deps[k]]
    non_edges = [(j, k) for j, k in _pairs(names) if j not in deps[k]]
    edges = rng.sample(edges, min(len(edges), DECAY_MAX_STATEMENTS))
    non_edges = rng.sample(non_edges, min(len(non_edges), DECAY_MAX_STATEMENTS))
    out = []
    for pair in itertools.zip_longest(edges, non_edges):
        for kind, st in zip(("edge", "separated"), pair):
            if st is not None:
                out.append([st[0], st[1], kind])
    return out


def decay_inputs(seed: int) -> dict:
    out = {}
    for cls, components in DECAY_COMPONENTS.items():
        rng = _rng("decay", seed, cls)
        specs = []
        for _ in range(DECAY_SPECS_PER_CLASS):
            made = decay_spec(rng, components)
            names = [c["name"] for c in made["spec"]["components"]]
            made["statements"] = _statements(rng, names, made["deps"])
            made["deps"] = {k: list(v) for k, v in made["deps"].items()}
            specs.append(made)
        out[cls] = specs
    return {"specs": out}


def session_inputs(seed: int) -> dict:
    """The 729-state spec the session simulates and estimates, and the
    base seed of its simulate commands."""
    rng = _rng("session", seed)
    names = [f"s{i}" for i in range(SESSION_COMPONENTS)]
    cards = [SESSION_STATES] * SESSION_COMPONENTS
    deps = _ring_with_extras(names, rng, extras=SESSION_COMPONENTS, max_deps=2)
    rates = _random_rates(names, cards, deps, rng, 0.3, 2.0)
    rates = {n: {k: round(r, 9) for k, r in t.items()} for n, t in rates.items()}
    return {
        "spec": _spec_json(names, cards, deps, rates),
        "deps": {k: list(v) for k, v in deps.items()},
        "sim_seed": rng.randrange(1, 10**6),
    }


def census_inputs(seed: int) -> dict:
    """Small inputs that exercise every layer once, for the traced run's
    census of layers a workload does not reach by itself."""
    rng = _rng("census", seed)
    graph5 = sorted([list(e) for e in _random_edges(AXIOM_LABELS["large"], rng, 0.4)])
    return {
        "graph5": graph5,
        "graph4": digraph_from_code(AXIOM_LABELS["medium"], rng.randrange(4096)),
        "graph3": digraph_from_code(AXIOM_LABELS["small"], rng.randrange(1, 64)),
        "specs": {
            str(2 ** n): decay_spec(rng, n)["spec"] for n in DECAY_COMPONENTS.values()
        },
        "sim_seed": rng.randrange(1, 10**6),
    }


GENERATORS = {
    "dsep": dsep_inputs,
    "axioms": axioms_inputs,
    "decay": decay_inputs,
    "session": session_inputs,
    "census": census_inputs,
}


def generate(workload: str, seed: int) -> dict:
    return GENERATORS[workload](seed)


def inputs_bytes(workload: str, seed: int) -> bytes:
    """Canonical serialization of a workload's inputs."""
    return json.dumps(generate(workload, seed), sort_keys=True).encode()
