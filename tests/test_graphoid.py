import itertools
import random

import numpy as np
import pytest

from helpers import (
    _instances,
    _queries,
    _structurally_valid,
    _violated,
    closure_under,
    random_digraph,
    slow_check,
)
from ligraph import graphoid
from ligraph.graphs import DiGraph, UGraph, enumerate_digraphs
from ligraph.graphoid import (
    Axiom,
    DELTA_SEPARATION_GUARANTEES,
    DerivedProperty,
    GRAPHOID_AXIOMS,
    IrrelevanceOracle,
    LOCAL_INDEPENDENCE_GUARANTEES,
    MAX_AXIOM_GROUND,
    OracleDomainError,
    RANK_DTYPE,
    build_truth_table,
    check_axiom,
    check_derived,
    check_semigraphoid_profile,
    constant_oracle,
    delta_separation_oracle,
    find_right_decomposition_counterexample,
    undirected_separation_oracle,
    violates,
)
from ligraph.separation import EnumerationGuardError, subsets_by_size
from ligraph.cfmp import local_independence_oracle


def relation_oracle(ground, true_triples, name="synthetic"):
    triples = set(true_triples)
    return IrrelevanceOracle(
        ground=tuple(ground),
        query=lambda a, b, c: (a, b, c) in triples,
        name=name,
    )


class TestConstantOracle:
    def test_all_axioms_hold(self):
        oracle = constant_oracle(("a", "b", "c"))
        profile = check_semigraphoid_profile(oracle)
        assert all(r.holds for r in profile.reports)

    def test_all_derived_hold(self):
        oracle = constant_oracle(("a", "b", "c"))
        for prop in DerivedProperty:
            assert check_derived(oracle, prop).holds


class TestDeltaSeparationProfiles:
    def test_three_cycle_matches_guarantees(self, cycle3):
        oracle = delta_separation_oracle(cycle3)
        expected = {ax: True for ax in DELTA_SEPARATION_GUARANTEES}
        profile = check_semigraphoid_profile(oracle, expected)
        assert profile.matches_expected

    def test_right_redundancy_counterexample_on_single_edge(self):
        g = DiGraph.from_edges([("a", "b")])
        oracle = delta_separation_oracle(g)
        report = check_axiom(oracle, Axiom.RIGHT_REDUNDANCY)
        assert not report.holds
        assert report.counterexample == {"A": frozenset("a"), "B": frozenset("b")}
        assert violates(oracle, Axiom.RIGHT_REDUNDANCY, report.counterexample)

    def test_edgeless_graph_satisfies_everything(self):
        oracle = delta_separation_oracle(DiGraph(["a", "b", "c"]))
        profile = check_semigraphoid_profile(oracle)
        assert all(r.holds for r in profile.reports)

    def test_ground_guard(self):
        g = DiGraph([f"n{i}" for i in range(6)])
        with pytest.raises(EnumerationGuardError):
            check_axiom(delta_separation_oracle(g), Axiom.LEFT_REDUNDANCY)


class TestInputValidation:
    def test_repeated_ground_labels_rejected(self):
        # a repeated label would quantify over 2^3 "subsets" of a 2-set
        oracle = IrrelevanceOracle(ground=("a", "a", "b"), query=lambda a, b, c: False)
        with pytest.raises(ValueError, match="repeated"):
            build_truth_table(oracle)
        with pytest.raises(ValueError, match="repeated"):
            check_axiom(oracle, Axiom.LEFT_REDUNDANCY)

    def test_violates_rejects_unknown_keys(self):
        oracle = delta_separation_oracle(DiGraph.from_edges([("a", "b")]))
        lowercase = {"a": frozenset("a"), "b": frozenset("b")}
        with pytest.raises(ValueError, match="not \\['a', 'b'\\]"):
            violates(oracle, Axiom.RIGHT_REDUNDANCY, lowercase)
        with pytest.raises(ValueError, match="'C'"):
            violates(oracle, Axiom.RIGHT_REDUNDANCY, {"A": frozenset("a"), "C": frozenset()})

    def test_violates_reads_missing_keys_as_empty(self):
        oracle = delta_separation_oracle(DiGraph.from_edges([("a", "b")]))
        # A = {a}, B = {b} violates right redundancy; B = {} does not
        assert violates(oracle, Axiom.RIGHT_REDUNDANCY, {"A": frozenset("a"), "B": frozenset("b")})
        assert not violates(oracle, Axiom.RIGHT_REDUNDANCY, {"A": frozenset("a")})


class TestUndirectedSeparationIsClassicalGraphoid:
    def test_all_three_node_graphs_satisfy_all_ten(self):
        nodes = ("a", "b", "c")
        pairs = list(itertools.combinations(nodes, 2))
        for code in range(1 << len(pairs)):
            h = UGraph(nodes, [p for i, p in enumerate(pairs) if (code >> i) & 1])
            profile = check_semigraphoid_profile(undirected_separation_oracle(h))
            assert all(r.holds for r in profile.reports), (
                sorted(h.edges),
                [(r.prop.value, r.counterexample) for r in profile.reports if not r.holds],
            )


class TestLocalIndependenceOracle:
    def test_profile_on_evaluable_triples(self, cycle3_spec):
        oracle = local_independence_oracle(cycle3_spec)
        expected = {ax: True for ax in LOCAL_INDEPENDENCE_GUARANTEES}
        profile = check_semigraphoid_profile(oracle, expected)
        assert profile.matches_expected
        # the covering-triple domain is thin: most instances are skipped
        right_int = profile.report_for(Axiom.RIGHT_INTERSECTION)
        assert right_int.skipped > 0
        assert right_int.checked > 0

    def test_direction_of_relation(self, cycle3_spec):
        oracle = local_independence_oracle(cycle3_spec)
        # b's past is irrelevant for a given c (a listens only to c)
        assert oracle.query(frozenset("b"), frozenset("a"), frozenset("c"))
        # a's past matters for b
        assert not oracle.query(frozenset("a"), frozenset("b"), frozenset("c"))


class TestVectorizedEngineAgainstSlowPath:
    @pytest.mark.parametrize("prop", list(GRAPHOID_AXIOMS) + list(DerivedProperty))
    def test_cycle_oracle(self, prop, cycle3):
        oracle = delta_separation_oracle(cycle3)
        table = build_truth_table(oracle)
        if isinstance(prop, Axiom):
            report = check_axiom(oracle, prop, table)
        else:
            report = check_derived(oracle, prop, table)
        holds, first, checked, skipped = slow_check(oracle, prop)
        assert report.holds == holds
        assert report.counterexample == first
        assert report.checked == checked
        assert report.skipped == skipped

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("prop", list(GRAPHOID_AXIOMS) + list(DerivedProperty))
    def test_random_relations(self, prop, seed):
        # arbitrary relations violate most properties; the engines must
        # agree on the verdict and on the first counterexample
        rng = random.Random(seed)
        ground = ("x", "y")
        subs = subsets_by_size(ground)
        triples = {
            (a, b, c)
            for a in subs
            for b in subs
            for c in subs
            if rng.random() < 0.6
        }
        oracle = relation_oracle(ground, triples)
        if isinstance(prop, Axiom):
            report = check_axiom(oracle, prop)
        else:
            report = check_derived(oracle, prop)
        holds, first, checked, skipped = slow_check(oracle, prop)
        assert report.holds == holds
        assert report.counterexample == first
        assert report.checked == checked
        # the replay must agree with the slow path on every assignment,
        # not only on reported counterexamples
        names = "".join(next(_instances(prop, subs)))
        for combo in itertools.product(subs, repeat=len(names)):
            sets = dict(zip(names, combo))
            valid = len(names) < 4 or _structurally_valid(prop, sets)
            vals = [oracle.query(*t) for t in _queries(prop, sets)]
            assert violates(oracle, prop, sets) == (valid and _violated(prop, sets, vals)), sets

    @pytest.mark.parametrize("seed", range(2))
    def test_partial_oracle_skips_match(self, seed):
        rng = random.Random(100 + seed)
        ground = ("x", "y", "z")
        subs = subsets_by_size(ground)
        answers = {
            (a, b, c): rng.random() < 0.5
            for a in subs
            for b in subs
            for c in subs
        }
        domain = {t for t in answers if rng.random() < 0.9}

        def query(a, b, c):
            if (a, b, c) not in domain:
                raise OracleDomainError("out of domain")
            return answers[(a, b, c)]

        oracle = IrrelevanceOracle(ground=ground, query=query)
        table = build_truth_table(oracle)
        assert not table.all_evaluable
        for prop in list(GRAPHOID_AXIOMS) + list(DerivedProperty):
            if isinstance(prop, Axiom):
                report = check_axiom(oracle, prop, table)
            else:
                report = check_derived(oracle, prop, table)
            holds, first, checked, skipped = slow_check(oracle, prop)
            assert (report.holds, report.counterexample) == (holds, first), prop
            assert (report.checked, report.skipped) == (checked, skipped), prop

    @pytest.mark.parametrize("prop", [
        Axiom.LEFT_REDUNDANCY,
        Axiom.RIGHT_REDUNDANCY,
        Axiom.LEFT_INTERSECTION,
        Axiom.RIGHT_INTERSECTION,
        DerivedProperty.LEFT_TRIM,
        DerivedProperty.RIGHT_TRIM,
    ])
    def test_widest_ground(self, prop):
        # the flat index a*S^2 + b*S + c reaches S^3 - 1 at the ground limit
        assert (1 << MAX_AXIOM_GROUND) ** 3 - 1 <= np.iinfo(RANK_DTYPE).max
        labels = tuple("abcdefgh"[:MAX_AXIOM_GROUND])
        g = random_digraph(labels, random.Random(7), p=0.4)
        oracle = delta_separation_oracle(g)
        table = build_truth_table(oracle)
        assert table.all_evaluable
        if isinstance(prop, Axiom):
            report = check_axiom(oracle, prop, table)
        else:
            report = check_derived(oracle, prop, table)
        holds, first, checked, skipped = slow_check(oracle, prop)
        assert (report.holds, report.counterexample) == (holds, first)
        assert (report.checked, report.skipped) == (checked, skipped)

    # blocks of one first-axis rank, and at 5 nodes blocks of 3 ranks with
    # a last block of 2, against the whole lattice in one block
    @pytest.mark.parametrize("block_cells", [1, 3 << 15])
    def test_blocks_match_whole_lattice(self, monkeypatch, block_cells):
        labels = tuple("abcdefgh"[:MAX_AXIOM_GROUND])
        full = delta_separation_oracle(random_digraph(labels, random.Random(7), p=0.4))
        rng = random.Random(8)
        subs = subsets_by_size(labels)
        outside = {t for t in itertools.product(subs, repeat=3) if rng.random() < 0.1}

        def query(a, b, c):
            if (a, b, c) in outside:
                raise OracleDomainError("out of domain")
            return full.query(a, b, c)

        partial = IrrelevanceOracle(ground=labels, query=query)
        tables = [(o, build_truth_table(o)) for o in (full, partial)]

        def reports():
            return [
                check_axiom(o, prop, t) if isinstance(prop, Axiom) else check_derived(o, prop, t)
                for o, t in tables
                for prop in list(GRAPHOID_AXIOMS) + list(DerivedProperty)
            ]

        monkeypatch.setattr(graphoid, "_BLOCK_CELLS", 1 << 20)
        whole = reports()
        monkeypatch.setattr(graphoid, "_BLOCK_CELLS", block_cells)
        assert reports() == whole
        # offsets matter: some first counterexample lies past the first rank
        assert any(r.counterexample and r.counterexample["A"] for r in whole)
        assert any(r.skipped for r in whole)


class TestReducibleTableMatchesGenericTable:
    def test_agreement(self):
        rng = random.Random(11)
        graphs = list(enumerate_digraphs(("a", "b", "c")))
        graphs += [random_digraph(tuple("abcd"), rng, p=rng.uniform(0.1, 0.7)) for _ in range(12)]
        graphs += [random_digraph(tuple("abcde"), rng, p=rng.uniform(0.1, 0.7)) for _ in range(3)]
        for g in graphs:
            oracle = delta_separation_oracle(g)
            fast = build_truth_table(oracle)
            generic = build_truth_table(
                IrrelevanceOracle(ground=oracle.ground, query=oracle.query)
            )
            assert (fast.values == generic.values).all(), g.edges
            assert (fast.evaluable == generic.evaluable).all(), g.edges
            assert fast.all_evaluable and generic.all_evaluable

    @pytest.mark.parametrize("seed", range(2))
    def test_reducible_oracle_with_domain_matches_slow_check(self, seed):
        # a reducible oracle may still declare a domain: it is asked only
        # reduced triples, and the ones outside its domain are skipped
        rng = random.Random(300 + seed)
        labels = ("a", "b", "c")
        full = delta_separation_oracle(random_digraph(labels, rng, p=0.5))
        subs = subsets_by_size(labels)
        outside = {t for t in itertools.product(subs, repeat=3) if rng.random() < 0.1}

        def query(a, b, c):
            a, c = a - (b | c), c - b
            if (a, b, c) in outside:
                raise OracleDomainError("out of domain")
            return full.query(a, b, c)

        oracle = IrrelevanceOracle(ground=labels, query=query, overlap_reducible=True)
        table = build_truth_table(oracle)
        assert not table.all_evaluable
        skipped = 0
        for prop in list(GRAPHOID_AXIOMS) + list(DerivedProperty):
            if isinstance(prop, Axiom):
                report = check_axiom(oracle, prop, table)
            else:
                report = check_derived(oracle, prop, table)
            holds, first, checked, skips = slow_check(oracle, prop)
            assert (report.holds, report.counterexample) == (holds, first), prop
            assert (report.checked, report.skipped) == (checked, skips), prop
            skipped += report.skipped
        assert skipped


class TestTrimMetaTheorems:
    @pytest.mark.parametrize("seed", range(8))
    def test_left_closure_implies_left_trim(self, seed):
        rng = random.Random(seed)
        ground = ("u", "v", "w")
        subs = subsets_by_size(ground)
        seed_rel = {
            (a, b, c)
            for a in subs
            for b in subs
            for c in subs
            if rng.random() < 0.05
        }
        rel = closure_under(seed_rel, subs, "left")
        oracle = relation_oracle(ground, rel, "left-closed")
        for ax in (Axiom.LEFT_REDUNDANCY, Axiom.LEFT_DECOMPOSITION, Axiom.LEFT_CONTRACTION):
            assert check_axiom(oracle, ax).holds
        assert check_derived(oracle, DerivedProperty.LEFT_TRIM).holds

    @pytest.mark.parametrize("seed", range(8))
    def test_right_closure_implies_right_trim(self, seed):
        rng = random.Random(1000 + seed)
        ground = ("u", "v", "w")
        subs = subsets_by_size(ground)
        seed_rel = {
            (a, b, c)
            for a in subs
            for b in subs
            for c in subs
            if rng.random() < 0.05
        }
        rel = closure_under(seed_rel, subs, "right")
        oracle = relation_oracle(ground, rel, "right-closed")
        for ax in (Axiom.RIGHT_REDUNDANCY, Axiom.RIGHT_DECOMPOSITION, Axiom.RIGHT_CONTRACTION):
            assert check_axiom(oracle, ax).holds
        assert check_derived(oracle, DerivedProperty.RIGHT_TRIM).holds


class TestRightTrimCounterexampleReconstruction:
    def test_found_on_four_labeled_nodes(self):
        # search for a graph where dropping the conditioned part of the
        # predicted set flips the verdict for the canonical query
        a = frozenset(["a"])
        b = frozenset(["b1", "b2"])
        c = frozenset(["b1", "c"])
        witness = None
        for g in enumerate_digraphs(("a", "b1", "b2", "c")):
            oracle = delta_separation_oracle(g)
            if oracle.query(a, b - c, c) and not oracle.query(a, b, c):
                witness = g
                break
        assert witness is not None
        oracle = delta_separation_oracle(witness)
        report = check_derived(oracle, DerivedProperty.RIGHT_TRIM)
        assert not report.holds
        assert violates(oracle, DerivedProperty.RIGHT_TRIM, report.counterexample)
        assert violates(oracle, DerivedProperty.RIGHT_TRIM, {"A": a, "B": b, "C": c})


class TestRightDecompositionWitnesses:
    def test_small_grounds_have_none(self):
        assert find_right_decomposition_counterexample(1) is None
        assert find_right_decomposition_counterexample(2) is None

    def test_four_nodes_yield_witness(self):
        found = find_right_decomposition_counterexample(4)
        assert found is not None
        g, sets = found
        assert violates(delta_separation_oracle(g), Axiom.RIGHT_DECOMPOSITION, sets)

    def test_canonical_pattern_with_back_edge_exists(self):
        # some four-node graph containing the edge (b, a) realizes the
        # violation with A={a}, B={b,d}, C={c}, D={d}
        a, b, c, d = (frozenset([x]) for x in "abcd")
        big_b = b | d
        hits = []
        for g in enumerate_digraphs(("a", "b", "c", "d")):
            if ("b", "a") not in g.edges:
                continue
            oracle = delta_separation_oracle(g)
            if oracle.query(a, big_b, c) and not oracle.query(a, d, c):
                hits.append(g)
                break
        assert hits

    def test_guard(self):
        with pytest.raises(EnumerationGuardError):
            find_right_decomposition_counterexample(5)


class TestThreeNodeExhaustiveDerived:
    @pytest.mark.parametrize(
        "prop",
        [
            DerivedProperty.LEFT_TRIM,
            DerivedProperty.LEFT_DISJOINT_INTERSECTION,
            DerivedProperty.RIGHT_DISJOINT_INTERSECTION,
            DerivedProperty.SHIFTED_RIGHT_DECOMPOSITION,
            DerivedProperty.OVERLAP_TOLERANT_INTERSECTION,
            DerivedProperty.GUARDED_RIGHT_DECOMPOSITION,
        ],
    )
    def test_hold_on_all_three_node_digraphs(self, prop):
        for g in enumerate_digraphs(("a", "b", "c")):
            oracle = delta_separation_oracle(g)
            report = check_derived(oracle, prop)
            assert report.holds, (sorted(g.edges), report.counterexample)


class TestCounterexampleSelfVerification:
    @pytest.mark.parametrize("seed", range(6))
    def test_reported_violations_replay(self, seed):
        rng = random.Random(777 + seed)
        g = random_digraph(("a", "b", "c", "d"), rng)
        oracle = delta_separation_oracle(g)
        table = build_truth_table(oracle)
        for prop in list(GRAPHOID_AXIOMS) + list(DerivedProperty):
            if isinstance(prop, Axiom):
                report = check_axiom(oracle, prop, table)
            else:
                report = check_derived(oracle, prop, table)
            if not report.holds:
                assert violates(oracle, prop, report.counterexample), prop

    def test_report_json_round_trips(self, cycle3):
        import json

        oracle = delta_separation_oracle(cycle3)
        report = check_axiom(oracle, Axiom.RIGHT_REDUNDANCY)
        data = json.loads(json.dumps(report.to_json_dict()))
        assert data["property"] == "right_redundancy"
        assert data["holds"] is False
        assert data["counterexample"] == {"A": ["a"], "B": ["b"]}
