"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line.  Tolerances and thresholds are fixed here and in the library
constants; nothing is calibrated at test time."""

import itertools
import json
import math
import pathlib
import random

import numpy as np
import pytest

import ligraph.separation
from ligraph import cli
from ligraph.cfmp import (
    build_generator,
    ci_decay,
    derive_graph,
    estimate_intensities,
    simulate_batch,
    spec_from_json,
    spec_to_json,
    stationary_distribution,
    uniform_distribution,
)
from ligraph.fixtures import (
    home_visits_process,
    three_cycle_graph,
    three_cycle_process,
)
from ligraph.graphs import DiGraph, enumerate_digraphs
from ligraph.graphoid import (
    Axiom,
    DELTA_SEPARATION_GUARANTEES,
    DerivedProperty,
    build_truth_table,
    check_axiom,
    check_derived,
    check_semigraphoid_profile,
    delta_separation_oracle,
    find_right_decomposition_counterexample,
)
from ligraph.separation import (
    SeparationQuery,
    _delta_trail_arrays,
    all_separations,
    delta_separates,
    delta_separates_masks,
    delta_separates_trail,
    delta_trail_masks,
)

from helpers import random_digraph

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def _report(number: int, name: str, ok: bool, detail: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number} {name}: {verdict}{suffix}")
    assert ok, f"criterion {number} {name} failed{suffix}"


def _query(a, b, c):
    return SeparationQuery(frozenset(a), frozenset(b), frozenset(c))


def test_criterion_1_cycle_asymmetry():
    g = three_cycle_graph()
    sep = _query("b", "a", "c")
    insep = _query("a", "b", "c")
    ok = (
        delta_separates(g, sep)
        and delta_separates_trail(g, sep)
        and not delta_separates(g, insep)
        and not delta_separates_trail(g, insep)
    )
    _report(1, "three-cycle asymmetry by both methods", ok)


def test_criterion_2_method_equivalence_four_nodes():
    labels = ("a", "b", "c", "d")
    n = len(labels)
    triples = []
    for assignment in itertools.product(range(4), repeat=n):
        a = b = c = 0
        for i, slot in enumerate(assignment):
            if slot == 1:
                a |= 1 << i
            elif slot == 2:
                b |= 1 << i
            elif slot == 3:
                c |= 1 << i
        triples.append((a, b, c))
    arrays = [np.array(m, dtype=np.uint16) for m in zip(*triples)]
    checks = 0
    disagreements = 0
    for g in enumerate_digraphs(labels):
        # the third procedure, the array kernel behind delta-separation
        # truth tables, answers all the triples of a graph at once
        kernel = _delta_trail_arrays(g, *arrays).tolist()
        for (a, b, c), by_kernel in zip(triples, kernel):
            checks += 1
            moral = delta_separates_masks(g, a, b, c)
            if not moral == delta_trail_masks(g, a, b, c) == by_kernel:
                disagreements += 1
    ok = disagreements == 0 and checks == 4096 * 256
    _report(
        2,
        "moral, trail and array trail methods agree on all 4-node digraphs",
        ok,
        f"{checks} checks, {disagreements} disagreements",
    )


def test_criterion_3_semigraphoid_profile():
    expected = {ax: True for ax in DELTA_SEPARATION_GUARANTEES}
    failures = []

    for g in enumerate_digraphs(("a", "b", "c")):
        profile = check_semigraphoid_profile(delta_separation_oracle(g), expected)
        if not profile.matches_expected:
            failures.append(sorted(g.edges))
    graphs_checked = 64

    rng = random.Random(20260810)
    for _ in range(250):
        g = random_digraph(("a", "b", "c", "d"), rng, p=rng.uniform(0.1, 0.6))
        profile = check_semigraphoid_profile(delta_separation_oracle(g), expected)
        graphs_checked += 1
        if not profile.matches_expected:
            failures.append(sorted(g.edges))
    for _ in range(250):
        g = random_digraph(("a", "b", "c", "d", "e"), rng, p=rng.uniform(0.1, 0.6))
        profile = check_semigraphoid_profile(delta_separation_oracle(g), expected)
        graphs_checked += 1
        if not profile.matches_expected:
            failures.append(sorted(g.edges))

    single_edge = DiGraph.from_edges([("a", "b")])
    rr = check_axiom(delta_separation_oracle(single_edge), Axiom.RIGHT_REDUNDANCY)
    rr_ok = not rr.holds and rr.counterexample == {
        "A": frozenset("a"),
        "B": frozenset("b"),
    }

    ok = not failures and rr_ok
    _report(
        3,
        "guaranteed axioms hold on 64 + 500 graphs; right redundancy fails as stated",
        ok,
        f"{graphs_checked} graphs, {len(failures)} profile failures",
    )


def test_criterion_4_derived_properties_four_nodes():
    must_hold = (
        DerivedProperty.LEFT_TRIM,
        DerivedProperty.LEFT_DISJOINT_INTERSECTION,
        DerivedProperty.RIGHT_DISJOINT_INTERSECTION,
        DerivedProperty.SHIFTED_RIGHT_DECOMPOSITION,
        DerivedProperty.OVERLAP_TOLERANT_INTERSECTION,
        DerivedProperty.GUARDED_RIGHT_DECOMPOSITION,
    )
    violations = {prop: 0 for prop in must_hold}
    right_trim_failures = 0
    for g in enumerate_digraphs(("a", "b", "c", "d")):
        oracle = delta_separation_oracle(g)
        table = build_truth_table(oracle)
        for prop in must_hold:
            if not check_derived(oracle, prop, table).holds:
                violations[prop] += 1
        if not check_derived(oracle, DerivedProperty.RIGHT_TRIM, table).holds:
            right_trim_failures += 1
    witness = find_right_decomposition_counterexample(4)
    ok = (
        all(v == 0 for v in violations.values())
        and right_trim_failures > 0
        and witness is not None
    )
    _report(
        4,
        "derived properties exhaustive on 4096 digraphs; counterexamples found",
        ok,
        f"violations={sum(violations.values())}, "
        f"right-trim counterexample graphs={right_trim_failures}, "
        f"right-decomposition witness={'yes' if witness else 'no'}",
    )


def test_criterion_5_generator_structure():
    from helpers import random_spec

    rng = random.Random(42)
    worst_row_sum = 0.0
    bad_entries = 0
    for _ in range(100):
        spec = random_spec(rng)
        gen = build_generator(spec)
        states = list(np.ndindex(spec.space.cards))
        worst_row_sum = max(worst_row_sum, float(np.abs(gen.matrix.sum(axis=1)).max()))
        for i, yi in enumerate(states):
            for j, yj in enumerate(states):
                if i != j and sum(a != b for a, b in zip(yi, yj)) >= 2:
                    if gen.matrix[i, j] != 0.0:
                        bad_entries += 1
    ok = bad_entries == 0 and worst_row_sum <= 1e-12
    _report(
        5,
        "generator zero-structure and row sums on 100 random specs",
        ok,
        f"worst row sum {worst_row_sum:.2e}",
    )


def _covering_singletons(found, names):
    out = []
    for q in found:
        if len(q.a) == 1 and len(q.b) == 1 and (q.a | q.b | q.c) == set(names):
            out.append((next(iter(q.a)), next(iter(q.b)), tuple(sorted(q.c))))
    return out


def test_criterion_6_decay_classes_on_fixtures():
    details = []
    ok = True
    for spec, require_strictly_fast in (
        (three_cycle_process(), True),
        (home_visits_process(), False),
    ):
        names = spec.space.names
        derived = derive_graph(spec)
        pi = uniform_distribution(spec.space)
        found = all_separations(derived, max_cond=len(names) - 2)
        statements = _covering_singletons(found, names)
        fast_seen = 0
        for source, target, cond in statements:
            report = ci_decay(spec, pi, target=target, source=source, cond=cond)
            if report.decay_class == "fast":
                fast_seen += 1
            if require_strictly_fast:
                ok = ok and report.decay_class == "fast"
            else:
                ok = ok and report.decay_class in ("fast", "zero")
        ok = ok and statements and fast_seen >= 1
        for j, k in sorted(derived.edges):
            cond = tuple(sorted(set(names) - {j, k}))
            report = ci_decay(spec, pi, target=k, source=j, cond=cond)
            ok = ok and report.decay_class == "slow"
        details.append(
            f"{len(names)}-component fixture: {len(statements)} separated "
            f"({fast_seen} fast), {len(derived.edges)} edges slow"
        )

    # the confounding showcase: hospitalization alone does not separate
    # visits from survival, and the dependence is visible at first order
    # when the process starts from its stationary law
    visits = home_visits_process()
    graph = derive_graph(visits)
    ok = ok and not delta_separates(graph, _query({"visits"}, {"survival"}, {"hosp"}))
    pi_s = stationary_distribution(build_generator(visits))
    showcase = ci_decay(visits, pi_s, target="survival", source="visits", cond=("hosp",))
    ok = ok and showcase.decay_class == "slow"
    details.append(f"confounded direction class={showcase.decay_class}")

    _report(6, "separation statements decay fast, edges slow", ok, "; ".join(details))


def test_criterion_7_simulation_round_trip():
    spec = three_cycle_process()
    pi = uniform_distribution(spec.space)
    true = {
        name: {(r.given, r.source, r.target): r.rate for r in ci.rows}
        for name, ci in spec.intensities.items()
    }
    total = 0
    within = 0
    for i in range(20):
        trajectories = simulate_batch(spec, pi, 100.0, seed=1000 + 100 * i, count=50)
        estimates = estimate_intensities(trajectories, spec)
        for name, cells in estimates.cells.items():
            for (given, src), cell in cells.items():
                if cell.exposure <= 5:
                    continue
                for dst, rate in cell.rates.items():
                    truth = true[name][(given, src, dst)]
                    se = math.sqrt(truth / cell.exposure)
                    total += 1
                    if abs(rate - truth) <= 3 * se:
                        within += 1
    frac = within / total if total else 0.0
    ok = total >= 200 and frac >= 0.99
    _report(
        7,
        "rates recovered within 3 SE for >= 99% of well-exposed cells",
        ok,
        f"{within}/{total} = {frac:.4f}",
    )


def test_criterion_8_cli_conformance(capsys, monkeypatch):
    graph_file = str(FIXTURES / "three_cycle_graph.json")

    def run(*argv):
        code = cli.main(list(argv))
        out = capsys.readouterr().out
        return code, out

    ok = True
    code, out = run("dsep", graph_file, "--a", "b", "--b", "a", "--c", "c")
    ok = ok and code == 0 and json.loads(out)["separated"] is True
    code, out = run("dsep", graph_file, "--a", "a", "--b", "b", "--c", "c")
    ok = ok and code == 0 and json.loads(out)["separated"] is False
    code, out = run("dsep", graph_file, "--a", "", "--b", "b", "--c", "c")
    ok = ok and code == 0 and json.loads(out)["separated"] is True

    for name in ("three_cycle_graph.json", "home_visits_graph.json"):
        text = (FIXTURES / name).read_text()
        once = DiGraph.from_json(text).to_json()
        ok = ok and DiGraph.from_json(once).to_json() == once == text
    for name in ("three_cycle_process.json", "home_visits_process.json"):
        text = (FIXTURES / name).read_text()
        once = spec_to_json(spec_from_json(text))
        ok = ok and spec_to_json(spec_from_json(once)) == once == text

    monkeypatch.setattr(ligraph.separation, "delta_separates_trail", lambda g, q: False)
    code, out = run(
        "dsep", graph_file, "--a", "b", "--b", "a", "--c", "c", "--method", "both"
    )
    capsys.readouterr()
    ok = ok and code == 1 and json.loads(out)["agree"] is False

    _report(8, "CLI verdicts, byte-stable formats, disagreement exit", ok)
