import dataclasses
import hashlib
import itertools
import json
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
    rank_space_evaluate,
    slow_check,
)
from ligraph import graphoid
from ligraph.graphs import DiGraph, GraphError, UGraph, UnknownNodeError, enumerate_digraphs
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
from ligraph.cfmp import CfmpSpec, ComponentSpace, local_independence_oracle


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

    @pytest.mark.parametrize("ground", [("a", 1), ("a", ["b"])])
    def test_unsortable_ground_labels_rejected(self, ground):
        # sets are masks over the sorted labels, so the labels must sort
        oracle = IrrelevanceOracle(ground=ground, query=lambda a, b, c: True)
        with pytest.raises(ValueError, match="ground labels must hash and sort"):
            build_truth_table(oracle)
        with pytest.raises(ValueError, match="ground labels must hash and sort"):
            check_axiom(oracle, Axiom.LEFT_REDUNDANCY)

    def test_unsortable_ground_rejected_by_constant_oracle(self):
        # the oracle's ground is stored sorted, by the same helper the
        # truth table sorts with
        with pytest.raises(ValueError, match="ground labels must hash and sort"):
            constant_oracle(["a", 1])
        assert constant_oracle(["b", "a", "b"]).ground == ("a", "b")

    def test_string_ground_rejected(self):
        # a string would be read as its characters
        with pytest.raises(ValueError, match="ground .* the string 'abc'"):
            constant_oracle("abc")
        with pytest.raises(GraphError, match=r"ground must be a set of labels, not \[\['a'\]\]"):
            constant_oracle([["a"]])
        oracle = IrrelevanceOracle(ground="ab", query=lambda a, b, c: True)
        with pytest.raises(ValueError, match="ground .* the string 'ab'"):
            build_truth_table(oracle)

    def test_table_from_another_ground_rejected(self):
        # a 3-node table read as a 4-node oracle's would check 12^3 cells
        oracle = constant_oracle(tuple("abcd"))
        for ground in ("abc", "abce"):
            table = build_truth_table(constant_oracle(tuple(ground)))
            with pytest.raises(ValueError, match="truth table is for ground"):
                check_axiom(oracle, Axiom.RIGHT_DECOMPOSITION, table)
            with pytest.raises(ValueError, match="truth table is for ground"):
                check_derived(oracle, DerivedProperty.LEFT_TRIM, table)
            with pytest.raises(ValueError, match="truth table is for ground"):
                check_semigraphoid_profile(oracle, None, table)
        table = build_truth_table(oracle)
        assert check_axiom(oracle, Axiom.RIGHT_DECOMPOSITION, table).checked == 6**4 * 16

    @pytest.mark.parametrize("key", [DerivedProperty.LEFT_TRIM, "left_redundancy"])
    def test_expected_keys_must_be_axioms(self, monkeypatch, key):
        def no_check(*args):
            raise AssertionError("a check ran before the pattern was read")

        monkeypatch.setattr(graphoid, "check_axiom", no_check)
        monkeypatch.setattr(graphoid, "build_truth_table", no_check)
        with pytest.raises(ValueError, match="keys must be axioms"):
            check_semigraphoid_profile(constant_oracle(("a", "b")), {key: True})

    @pytest.mark.parametrize("expected", [
        {Axiom.LEFT_REDUNDANCY: "yes"},
        {Axiom.LEFT_REDUNDANCY: 1},
        {Axiom.LEFT_REDUNDANCY: None},
        [Axiom.LEFT_REDUNDANCY],
        "left_redundancy",
    ])
    def test_expected_pattern_maps_axioms_to_bools(self, monkeypatch, expected):
        def no_check(*args):
            raise AssertionError("a check ran before the pattern was read")

        monkeypatch.setattr(graphoid, "check_axiom", no_check)
        monkeypatch.setattr(graphoid, "build_truth_table", no_check)
        with pytest.raises(ValueError, match="must map axioms to bools|values must be bools"):
            check_semigraphoid_profile(constant_oracle(("a", "b")), expected)

    def test_violates_rejects_unknown_keys(self):
        oracle = delta_separation_oracle(DiGraph.from_edges([("a", "b")]))
        lowercase = {"a": frozenset("a"), "b": frozenset("b")}
        with pytest.raises(ValueError, match="not \\['a', 'b'\\]"):
            violates(oracle, Axiom.RIGHT_REDUNDANCY, lowercase)
        with pytest.raises(ValueError, match="'C'"):
            violates(oracle, Axiom.RIGHT_REDUNDANCY, {"A": frozenset("a"), "C": frozenset()})
        # a string would be read as the set of its characters
        with pytest.raises(ValueError, match="not the string 'ab'"):
            violates(constant_oracle(("a", "b"), False), Axiom.LEFT_REDUNDANCY, {"A": "ab"})
        # a label the oracle does not know, and a value that is no set
        with pytest.raises(ValueError, match="A has labels outside the ground: \\['z'\\]"):
            violates(constant_oracle(("a", "b"), False), Axiom.LEFT_REDUNDANCY, {"A": {"z"}})
        with pytest.raises(ValueError, match="A must be a set of labels, not 5"):
            violates(constant_oracle(("a", "b"), False), Axiom.LEFT_REDUNDANCY, {"A": 5})
        # a member that cannot hash is the same one-line error
        with pytest.raises(GraphError, match=r"A must be a set of labels, not \[\['a'\]\]"):
            violates(constant_oracle(("a", "b"), False), Axiom.LEFT_REDUNDANCY, {"A": [["a"]]})

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

    @pytest.mark.parametrize("kind", ["true", "false", "random", "partial"])
    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_small_grounds(self, n, kind):
        # S = 1, 2 and 4 subsets: packed words narrower than their uint8
        oracle = _small_ground_oracles(n)[kind]
        table = build_truth_table(oracle)
        for prop in PROPERTIES:
            report = _report(oracle, prop, table)
            got = (report.holds, report.counterexample, report.checked, report.skipped)
            assert got == slow_check(oracle, prop), prop


PROPERTIES = list(GRAPHOID_AXIOMS) + list(DerivedProperty)


def _report(oracle, prop, table=None):
    if isinstance(prop, Axiom):
        return check_axiom(oracle, prop, table)
    return check_derived(oracle, prop, table)


def _small_ground_oracles(n):
    """Oracles on n ground elements by kind: constant true and false, a
    random relation, and the same relation raising for about 20% of the
    triples."""
    labels = tuple("xy"[:n])
    subs = subsets_by_size(labels)
    rng = random.Random(40 + n)
    answers = {t: rng.random() < 0.5 for t in itertools.product(subs, repeat=3)}
    outside = {t for t in answers if rng.random() < 0.2}

    def partial(a, b, c):
        if (a, b, c) in outside:
            raise OracleDomainError("out of domain")
        return answers[(a, b, c)]

    return {
        "true": constant_oracle(labels, True),
        "false": constant_oracle(labels, False),
        "random": IrrelevanceOracle(ground=labels, query=lambda a, b, c: answers[(a, b, c)]),
        "partial": IrrelevanceOracle(ground=labels, query=partial),
    }


def _replays_violation(oracle, prop, sets):
    try:
        return violates(oracle, prop, sets)
    except OracleDomainError:
        return False


# the word variable of each property: the first variable every query
# takes bare in one slot, preferring one its side condition does not read
# (left weak union could take A as well)
WORD_VARIABLE = {
    Axiom.LEFT_REDUNDANCY: "B",
    Axiom.RIGHT_REDUNDANCY: "A",
    Axiom.LEFT_DECOMPOSITION: "B",
    Axiom.RIGHT_DECOMPOSITION: "A",
    Axiom.LEFT_WEAK_UNION: "B",
    Axiom.RIGHT_WEAK_UNION: "A",
    Axiom.LEFT_CONTRACTION: "B",
    Axiom.RIGHT_CONTRACTION: "A",
    Axiom.LEFT_INTERSECTION: "B",
    Axiom.RIGHT_INTERSECTION: "A",
    DerivedProperty.LEFT_TRIM: "B",
    DerivedProperty.RIGHT_TRIM: "A",
    DerivedProperty.LEFT_DISJOINT_INTERSECTION: "B",
    DerivedProperty.RIGHT_DISJOINT_INTERSECTION: "A",
    DerivedProperty.SHIFTED_RIGHT_DECOMPOSITION: "A",
    DerivedProperty.OVERLAP_TOLERANT_INTERSECTION: "A",
    DerivedProperty.GUARDED_RIGHT_DECOMPOSITION: "A",
}


# per property: its coupled variables, the coupled rank tuples listed per
# ground element, and the full rank tuples admitted per ground element.
# The coupled variables are the first one but the word variable and those
# the side condition reads.  Listed per element: the element is in the
# first coupled set or not (2); D <= A or D <= B, so it is in neither, in
# the larger alone or in both (3); it lies in none or one of three
# disjoint sets (4); D <= B, and C either way (6).  Admitted per element:
# any pattern of the quantified sets (4, 8, 16) or, with D <= A or
# D <= B, 3 * 4 (12); in none or one of four disjoint sets (5); in A or
# not, and in none or one of B, C, D, with D apart from A (7); any of the
# 16 patterns but D without B and A & B outside C | D (11)
ADMITTED_PER_ELEMENT = {
    Axiom.LEFT_REDUNDANCY: ("A", 2, 4),
    Axiom.RIGHT_REDUNDANCY: ("B", 2, 4),
    Axiom.LEFT_DECOMPOSITION: ("AD", 3, 12),
    Axiom.RIGHT_DECOMPOSITION: ("BD", 3, 12),
    Axiom.LEFT_WEAK_UNION: ("AD", 3, 12),
    Axiom.RIGHT_WEAK_UNION: ("BD", 3, 12),
    Axiom.LEFT_CONTRACTION: ("A", 2, 16),
    Axiom.RIGHT_CONTRACTION: ("B", 2, 16),
    Axiom.LEFT_INTERSECTION: ("A", 2, 8),
    Axiom.RIGHT_INTERSECTION: ("B", 2, 8),
    DerivedProperty.LEFT_TRIM: ("A", 2, 8),
    DerivedProperty.RIGHT_TRIM: ("B", 2, 8),
    DerivedProperty.LEFT_DISJOINT_INTERSECTION: ("ACD", 4, 5),
    DerivedProperty.RIGHT_DISJOINT_INTERSECTION: ("BCD", 4, 5),
    DerivedProperty.SHIFTED_RIGHT_DECOMPOSITION: ("BD", 3, 12),
    DerivedProperty.OVERLAP_TOLERANT_INTERSECTION: ("BCD", 4, 7),
    DerivedProperty.GUARDED_RIGHT_DECOMPOSITION: ("BCD", 6, 11),
}


def _test_oracles(n):
    """A delta-separation oracle on n nodes, one that raises for about
    10% of the triples, and one with about 2% of its answers flipped."""
    labels = tuple("abcdefgh"[:n])
    full = delta_separation_oracle(random_digraph(labels, random.Random(7), p=0.4))
    rng = random.Random(8)
    subs = subsets_by_size(labels)
    triples = list(itertools.product(subs, repeat=3))
    outside = {t for t in triples if rng.random() < 0.1}
    flipped = {t for t in triples if rng.random() < 0.02}

    def partial(a, b, c):
        if (a, b, c) in outside:
            raise OracleDomainError("out of domain")
        return full.query(a, b, c)

    def noisy(a, b, c):
        return full.query(a, b, c) != ((a, b, c) in flipped)

    return (
        full,
        IrrelevanceOracle(ground=labels, query=partial),
        IrrelevanceOracle(ground=labels, query=noisy),
    )


def _refuse(a, b, c):
    raise AssertionError("a side condition queried the relation")


class _RefusingRankSpace(graphoid._RankSpace):
    def q(self, a, b, c):
        _refuse(a, b, c)


class TestAdmittedTuples:
    @pytest.mark.parametrize("n", range(MAX_AXIOM_GROUND + 1))
    @pytest.mark.parametrize("prop", list(ADMITTED_PER_ELEMENT))
    def test_lists_are_the_side_condition(self, prop, n):
        assert set(ADMITTED_PER_ELEMENT) == set(graphoid._RULES)
        names, side = graphoid._RULES[prop][:2]
        word = WORD_VARIABLE[prop]
        admitted = graphoid._admitted(names, side, word, n)
        assert graphoid._admitted(names, side, word, n) is admitted
        coupled, listed_per_element, admitted_per_element = ADMITTED_PER_ELEMENT[prop]
        assert (admitted.word, admitted.coupled) == (word, coupled)
        assert len(admitted.listed) == listed_per_element**n
        assert admitted.count == admitted_per_element**n
        assert (np.diff(admitted.listed.astype(np.int64)) > 0).all()
        assert admitted.side.all()
        # the side condition on every full rank tuple is the bit of its
        # rank of the word variable in the side word of its coupled part:
        # it does not read the free sets.  It is structural: both
        # backends refuse every query.
        labels = tuple("abcdefgh"[:n])
        t = graphoid._tables(labels)
        side_words = np.zeros(t.size ** len(coupled), dtype=np.int64)
        side_words[admitted.listed] = admitted.side

        def listed(ranks):
            entry = 0
            for name in coupled:
                entry = entry * t.size + ranks[name]
            return (side_words[entry] >> ranks[word]) & 1 == 1

        if n <= 3:
            replay = graphoid._Replay(IrrelevanceOracle(ground=labels, query=_refuse))
            sets = [t.set_of(r) for r in range(t.size)]
            for ranks in itertools.product(range(t.size), repeat=len(names)):
                want = bool(side(replay, *(sets[r] for r in ranks)))
                assert listed(dict(zip(names, ranks))) == want, ranks
        else:
            # the whole lattice at once, in the rank-space backend
            axes = dict(zip(names, graphoid._axes(t.size, len(names))))
            holds = side(_RefusingRankSpace(t), *(graphoid._Masks(t.masks[a]) for a in axes.values()))
            shape = (t.size,) * len(names)
            assert np.array_equal(
                np.broadcast_to(listed(axes), shape), np.broadcast_to(holds, shape)
            )

    @pytest.mark.parametrize("n", [3, MAX_AXIOM_GROUND])
    def test_listed_reports_cover_the_list(self, n):
        full, partial, _ = _test_oracles(n)
        skipped = 0
        for oracle in (full, partial):
            table = build_truth_table(oracle)
            for prop, (_, _, per_element) in ADMITTED_PER_ELEMENT.items():
                report = _report(oracle, prop, table)
                assert report.checked + report.skipped == per_element**n
                skipped += report.skipped
        assert skipped

    def test_blocks_do_not_change_the_list(self, monkeypatch):
        """Listing in blocks of one rank of the first coupled variable, of
        1,000 cells and whole gives the same lists at five nodes."""
        entries = [(entry[0], entry[1], WORD_VARIABLE[p]) for p, entry in graphoid._RULES.items()]
        names, _, rule = graphoid._RULES[Axiom.RIGHT_DECOMPOSITION]
        search = graphoid._disjoint_right_decomposition
        entries.append((names, search, graphoid._word_variable(names, search, rule)[0]))

        def lists(block_cells):
            monkeypatch.setattr(graphoid, "_BLOCK_CELLS", block_cells)
            graphoid._admitted.cache_clear()
            out = []
            for names, side, word in entries:
                admitted = graphoid._admitted(names, side, word, MAX_AXIOM_GROUND)
                out.append((admitted.listed.tolist(), admitted.side.tolist(), admitted.count))
            return out

        try:
            assert lists(1) == lists(1000) == lists(1 << 20)
        finally:
            graphoid._admitted.cache_clear()


class TestStagedGuard:
    @pytest.mark.parametrize("n", [3, 4, MAX_AXIOM_GROUND])
    def test_staged_guard_matches_folded_premise(self, n):
        """Asking the guard only where the rule alone is violated finds the
        same first counterexample and count as asking it everywhere."""
        prop = DerivedProperty.GUARDED_RIGHT_DECOMPOSITION
        names, side, rule, guard = graphoid._RULES[prop]
        admitted = graphoid._admitted(names, side, "A", n)
        hits = []
        for oracle in _test_oracles(n):
            table = build_truth_table(oracle)
            staged = graphoid._evaluate(table, names, rule, admitted, 0, guard)
            assert staged == rank_space_evaluate(table, names, side, rule, guard)
            hits.append(staged[0] is not None)
            if n == 3:
                report = check_derived(oracle, prop, table)
                got = (report.holds, report.counterexample, report.checked, report.skipped)
                assert got == slow_check(oracle, prop)
        # only the noisy oracle violates it, through the staged path
        assert hits == [False, False, True]


def _left_redundancy_with_c(x, A, B, C):
    # queries neither C nor anything of it: its evaluability words broadcast
    return True, x.q(A, B, A)


class TestPackedRules:
    def test_word_variables_are_pinned(self):
        assert set(WORD_VARIABLE) == set(graphoid._RULES)
        for prop, (names, side, rule, *_) in graphoid._RULES.items():
            assert graphoid._word_variable(names, side, rule)[0] == WORD_VARIABLE[prop], prop

    @pytest.mark.parametrize("rule", [
        # A is bare in two slots, and B and C are inside a union too
        lambda x, A, B, C: (x.q(A, B, C), x.q(B | C, A, C)),
        # only C is bare in one slot, the third, which is not packed
        lambda x, A, B, C: (x.q(A | B, B, C), x.q(B, A, C)),
        # a hook other than q
        lambda x, A, B, C: (x.disjoint(A, B), x.q(A, B, C)),
    ])
    def test_rule_without_word_variable_is_refused(self, rule):
        with pytest.raises(ValueError, match="no variable of 'ABC'"):
            graphoid._word_variable("ABC", graphoid._unconditional, rule)

    @pytest.mark.parametrize("n", [3, 4, MAX_AXIOM_GROUND])
    def test_packed_path_matches_evaluate(self, n):
        """Every rule, and the right decomposition search, finds the same
        first counterexample and count of checked instances over packed
        words as the rank-space reference over single cells."""
        entries = list(graphoid._RULES.values())
        entries.append(("ABC", graphoid._unconditional, _left_redundancy_with_c))
        assert graphoid._word_variable(*entries[-1]) == ("B", 1)
        names, _, rule = graphoid._RULES[Axiom.RIGHT_DECOMPOSITION]
        entries.append((names, graphoid._disjoint_right_decomposition, rule))
        hits = 0
        for oracle in _test_oracles(n):
            table = build_truth_table(oracle)
            for names, side, rule, *guard in entries:
                word, slot = graphoid._word_variable(names, side, rule)
                admitted = graphoid._admitted(names, side, word, n)
                packed = graphoid._evaluate(table, names, rule, admitted, slot, *guard)
                assert packed == rank_space_evaluate(table, names, side, rule, *guard), rule
                hits += packed[0] is not None
        assert hits

    def test_first_violation_in_cell_order_is_not_the_first(self):
        """With C a free variable between A and D, some left decomposition
        or left weak union violation lies in an earlier cell of
        ``_evaluate``'s pass than the reported first counterexample, yet
        has a larger lattice position: the first counterexample is the
        least position over the violating cells, not the first of them."""
        n = 3
        t = graphoid._tables(tuple("abcdefgh"[:n]))
        rank = {t.set_of(r): r for r in range(t.size)}

        def located(prop, sets):
            """An instance's lattice position and the index of its cell:
            the listed entry of its coupled ranks, then its free ranks."""
            names, side = graphoid._RULES[prop][:2]
            admitted = graphoid._admitted(names, side, WORD_VARIABLE[prop], n)
            ranks = {v: rank[sets.get(v, frozenset())] for v in names}
            coupled = [ranks[v] for v in admitted.coupled]
            free = [ranks[v] for v in names if v not in admitted.coupled + admitted.word]
            entry = np.ravel_multi_index(coupled, (t.size,) * len(coupled))
            at = int(np.searchsorted(admitted.listed, entry))
            shape = (len(admitted.listed),) + (t.size,) * len(free)
            cell = np.ravel_multi_index([at, *free], shape)
            position = np.ravel_multi_index(list(ranks.values()), (t.size,) * len(names))
            return position, cell

        overtaken = []
        for oracle in _test_oracles(n):
            table = build_truth_table(oracle)
            for prop in (Axiom.LEFT_DECOMPOSITION, Axiom.LEFT_WEAK_UNION):
                report = check_axiom(oracle, prop, table)
                if report.holds:
                    continue
                first, first_cell = located(prop, report.counterexample)
                for sets in _instances(prop, list(rank)):
                    position, cell = located(prop, sets)
                    later = position > first and _replays_violation(oracle, prop, sets)
                    if cell < first_cell and later:
                        overtaken.append((prop, sets))
        assert overtaken


def _five_node_digraphs():
    rng = random.Random(4242)
    return [random_digraph(tuple("abcde"), rng, p=0.4) for _ in range(40)]


# the oracles whose reports are pinned, by family
REPORT_FAMILIES = {
    "three_node_digraphs": lambda: [
        delta_separation_oracle(g) for g in enumerate_digraphs(("a", "b", "c"))
    ],
    "test_oracles": lambda: [o for n in (3, 4, MAX_AXIOM_GROUND) for o in _test_oracles(n)],
    "five_node_digraphs": lambda: [delta_separation_oracle(g) for g in _five_node_digraphs()],
    "small_grounds": lambda: [
        o for n in (0, 1, 2) for o in _small_ground_oracles(n).values()
    ],
}

# SHA-256 of the JSON reports of all 17 properties on each family's
# oracles, in order
REPORT_DIGESTS = {
    "three_node_digraphs": "868ef1f185d6686ecb9a54f3bf95865eaab8e92e78c6c5a362e2af3f63cc178c",
    "test_oracles": "01ba38f2bca36dd58671f1b6cce371060873054385959066ba1fa1d753e21cf9",
    "five_node_digraphs": "e83b671403cf08adabeb464ea98bb2f22b4d2ee8af081b7e2fe18c36e2777df7",
    "small_grounds": "3764e4cbc7ca07bf1a46a74108276a4c7e0494a7afd6a2403a4af33265b1a196",
}


class TestPinnedReports:
    @pytest.mark.parametrize("family", list(REPORT_DIGESTS))
    def test_reports_are_pinned(self, family):
        """Verdict, first counterexample and the checked and skipped counts
        of every property stay as they were when the digests were taken."""
        digest = hashlib.sha256()
        for oracle in REPORT_FAMILIES[family]():
            table = build_truth_table(oracle)
            for prop in PROPERTIES:
                report = _report(oracle, prop, table).to_json_dict()
                digest.update(json.dumps(report, sort_keys=True).encode())
        assert digest.hexdigest() == REPORT_DIGESTS[family]


def _loop_table(oracle):
    """The truth table of ``oracle`` asked triple by triple: a plain
    function wrapping its query never reaches the delta-separation
    kernel."""
    query = oracle.query
    return build_truth_table(dataclasses.replace(oracle, query=lambda a, b, c: query(a, b, c)))


def _assert_same_table(got, expected):
    assert (got.values == expected.values).all()
    assert (got.evaluable == expected.evaluable).all()
    assert got.all_evaluable == expected.all_evaluable
    for ours, theirs in zip(got.words, expected.words, strict=True):
        assert ours.dtype == theirs.dtype and (ours == theirs).all()


class TestReducibleTableMatchesGenericTable:
    def test_agreement(self):
        rng = random.Random(11)
        graphs = list(enumerate_digraphs(("a", "b", "c")))
        graphs += [random_digraph(tuple("abcd"), rng, p=rng.uniform(0.1, 0.7)) for _ in range(12)]
        graphs += [random_digraph(tuple("abcde"), rng, p=rng.uniform(0.1, 0.7)) for _ in range(3)]
        for g in graphs:
            oracle = delta_separation_oracle(g)
            fast = build_truth_table(oracle)
            generic = _loop_table(IrrelevanceOracle(ground=oracle.ground, query=oracle.query))
            assert (fast.values == generic.values).all(), g.edges
            assert (fast.evaluable == generic.evaluable).all(), g.edges
            assert fast.all_evaluable and generic.all_evaluable

    @pytest.mark.parametrize("reducible", [True, False])
    def test_kernel_table_equals_loop_table(self, monkeypatch, reducible):
        """A delta-separation query over its graph's labels, in any order,
        fills the table with the array kernel, asking no triple alone;
        unreduced triples are reduced by the kernel."""
        rng = random.Random(12)
        for labels in ("abc", "abcd", "abcde"):
            for _ in range(3):
                g = random_digraph(tuple(labels), rng, p=rng.uniform(0.1, 0.7))
                query = delta_separation_oracle(g).query
                for ground in (g.labels, tuple(rng.sample(g.labels, len(g.labels)))):
                    oracle = IrrelevanceOracle(ground, query, overlap_reducible=reducible)
                    expected = _loop_table(oracle)
                    with monkeypatch.context() as m:
                        m.setattr(graphoid, "delta_separates_masks", None)
                        got = build_truth_table(oracle)
                    _assert_same_table(got, expected)

    def test_other_grounds_are_asked_triple_by_triple(self):
        g = random_digraph(tuple("abcd"), random.Random(13), p=0.5)
        query = delta_separation_oracle(g).query
        subset = IrrelevanceOracle(("d", "b", "a"), query, overlap_reducible=True)
        _assert_same_table(build_truth_table(subset), _loop_table(subset))
        # a label the graph lacks fails the first query that holds it
        for ground in (tuple("abcz"), tuple("abcde")):
            oracle = IrrelevanceOracle(ground, query, overlap_reducible=True)
            with pytest.raises(UnknownNodeError) as loop_error:
                _loop_table(oracle)
            with pytest.raises(UnknownNodeError) as error:
                build_truth_table(oracle)
            assert str(error.value) == str(loop_error.value)

    @pytest.mark.parametrize("n", range(MAX_AXIOM_GROUND + 1))
    def test_ground_arrays_are_cached_read_only(self, n):
        size = 1 << n
        for reducible, distinct in ((True, 4**n), (False, size**3)):
            asked, flat, triple = graphoid._asked(size, reducible)
            assert graphoid._asked(size, reducible)[0] is asked
            assert len(flat) == distinct and (np.diff(flat.astype(int)) > 0).all()
            assert (np.unique(asked) == flat).all()
            a, b, c = (m.astype(int) for m in triple)
            assert (flat == a * size * size + b * size + c).all()
            if reducible:
                assert not (a & (b | c)).any() and not (b & c).any()
            for array in (asked, flat, *triple):
                assert not array.flags.writeable

    @pytest.mark.parametrize("labels", ["abc", "abcd"])
    def test_replaced_query_is_asked_once_per_distinct_triple(self, labels):
        # how perfbench's traced run counts oracle calls: the kernel stays
        # with the query it belongs to, so the wrapper is asked
        oracle = delta_separation_oracle(random_digraph(tuple(labels), random.Random(14), p=0.5))
        asked = []

        def counting(a, b, c):
            asked.append((a, b, c))
            return oracle.query(a, b, c)

        table = build_truth_table(dataclasses.replace(oracle, query=counting))
        assert len(asked) == len(set(asked)) == 4 ** len(labels)
        _assert_same_table(table, build_truth_table(oracle))

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


class TestLabelOrder:
    def test_reports_do_not_depend_on_the_order_of_ground(self, cycle3_spec):
        """An oracle whose ground is out of sorted order reports exactly
        what the same relation over the sorted ground reports, on every
        property: sets, ranks and counterexamples follow sorted labels."""
        rng = random.Random(23)
        pairs = []
        for order in ("cadb", "dcba", "bdac"):
            full = delta_separation_oracle(random_digraph(tuple("abcd"), rng, p=0.4))
            shuffled = IrrelevanceOracle(tuple(order), full.query, overlap_reducible=True)
            pairs.append((full, shuffled))
        partial = _test_oracles(4)[1]
        pairs.append((partial, IrrelevanceOracle(tuple("dbca"), partial.query)))
        space = cycle3_spec.space
        cab = ComponentSpace(("c", "a", "b"), tuple(space.cards[space.index_of(v)] for v in "cab"))
        pairs.append((
            local_independence_oracle(cycle3_spec),
            local_independence_oracle(CfmpSpec(cab, cycle3_spec.intensities)),
        ))
        for ordered, shuffled in pairs:
            assert list(ordered.ground) == sorted(shuffled.ground) != list(shuffled.ground)
            table = build_truth_table(shuffled)
            for prop in PROPERTIES:
                assert _report(shuffled, prop, table) == _report(ordered, prop), prop


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

    @pytest.mark.parametrize("n", [3, 4])
    def test_first_witness_is_pinned(self, n):
        g, sets = find_right_decomposition_counterexample(n)
        assert g.labels == ("a", "b", "c", "d")[:n]
        assert sorted(g.edges) == [("a", "b"), ("a", "c")]
        assert sets == {
            "A": frozenset("b"),
            "B": frozenset("ac"),
            "C": frozenset(),
            "D": frozenset("c"),
        }

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

    def test_ground_size_may_be_a_numpy_int(self):
        assert find_right_decomposition_counterexample(np.int64(2)) == (
            find_right_decomposition_counterexample(2)
        )

    @pytest.mark.parametrize("ground_size", [-1, 2.0, True, "3", None, np.int64(-1), np.bool_(1)])
    def test_ground_size_must_be_a_non_negative_int(self, ground_size):
        # -1 would slice ("a", "b", "c", "d") to three labels
        with pytest.raises(ValueError, match="non-negative int"):
            find_right_decomposition_counterexample(ground_size)


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
