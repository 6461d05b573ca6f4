import itertools
import random

import numpy as np
import pytest

from helpers import random_digraph, reference_all_separations
from ligraph.graphs import DiGraph, GraphError, UnknownNodeError, enumerate_digraphs
from ligraph.separation import (
    EnumerationGuardError,
    SeparationQuery,
    _delta_trail_arrays,
    all_separations,
    delta_separates,
    delta_separates_masks,
    delta_separates_trail,
    subsets_by_size,
)


def q(a="", b="", c=""):
    return SeparationQuery(frozenset(a.split()), frozenset(b.split()), frozenset(c.split()))


def all_subsets(labels):
    return [
        frozenset(n for i, n in enumerate(labels) if (r >> i) & 1)
        for r in range(1 << len(labels))
    ]


class TestMoralMethod:
    def test_cycle_asymmetry(self, cycle3):
        assert delta_separates(cycle3, q("b", "a", "c"))
        assert not delta_separates(cycle3, q("a", "b", "c"))

    def test_visits_not_separated_by_hosp_alone(self, visits_graph):
        assert not delta_separates(visits_graph, q("visits", "survival", "hosp"))

    def test_visits_separated_with_health(self, visits_graph):
        assert delta_separates(visits_graph, q("visits", "survival", "hosp health"))

    def test_empty_a_always_separated(self, cycle3, visits_graph):
        for g in (cycle3, visits_graph):
            for b in all_subsets(g.labels)[1:4]:
                assert delta_separates(g, SeparationQuery(frozenset(), b, frozenset()))

    def test_empty_b_vacuously_separated(self, cycle3):
        assert delta_separates(cycle3, q("a", "", "c"))

    def test_overlap_reduces_to_connected_pair(self):
        g = DiGraph.from_edges([("a", "b")])
        assert not delta_separates(g, q("a", "b", "b"))
        assert not delta_separates_trail(g, q("a", "b", "b"))

    def test_unknown_node(self, cycle3):
        with pytest.raises(UnknownNodeError, match="'z'"):
            delta_separates(cycle3, q("z", "a", ""))


class TestTrailMethod:
    def test_cycle_asymmetry(self, cycle3):
        assert delta_separates_trail(cycle3, q("b", "a", "c"))
        assert not delta_separates_trail(cycle3, q("a", "b", "c"))

    def test_edgeless_disjoint_queries_trivially_separated(self):
        g = DiGraph(["a", "b", "c"])
        for a in all_subsets(g.labels):
            for b in all_subsets(g.labels):
                if a and b and not a & b:
                    assert delta_separates_trail(g, SeparationQuery(a, b, frozenset()))

    def test_agrees_with_moral_method_exhaustively(self):
        subsets = all_subsets(("a", "b", "c"))
        for g in enumerate_digraphs(("a", "b", "c")):
            for a in subsets:
                for b in subsets:
                    for c in subsets:
                        query = SeparationQuery(a, b, c)
                        assert delta_separates(g, query) == delta_separates_trail(
                            g, query
                        ), (sorted(g.edges), sorted(a), sorted(b), sorted(c))


class TestTrailArrays:
    @pytest.mark.parametrize("n", [5, 6])
    def test_agrees_with_moral_method_on_overlapping_triples(self, n):
        # random mask triples mostly overlap, so the kernel must reduce
        # them itself, as build_truth_table sends them unreduced when the
        # oracle is not overlap_reducible
        rng = random.Random(40 + n)
        labels = tuple("abcdef"[:n])
        answers = set()
        for _ in range(8):
            g = random_digraph(labels, rng, p=rng.uniform(0.1, 0.6))
            triples = [tuple(rng.randrange(1 << n) for _ in range(3)) for _ in range(500)]
            a, b, c = (np.array(m, dtype=np.uint16) for m in zip(*triples))
            expected = [delta_separates_masks(g, *t) for t in triples]
            assert _delta_trail_arrays(g, a, b, c).tolist() == expected, sorted(g.edges)
            answers.update(expected)
        assert answers == {False, True}


class TestQuery:
    def test_keeps_each_set_as_a_frozenset(self):
        fs = frozenset("a")
        query = SeparationQuery(fs, ["b", "c"], ())
        assert query.a is fs and query.b == {"b", "c"} and query.c == frozenset()
        assert all(type(s) is frozenset for s in (query.a, query.b, query.c))

    @pytest.mark.parametrize("sets, match", [
        (("a", "bc", ""), "a must be a set of labels, not the string 'a'"),
        ((["a"], "bc", ()), "b must be a set of labels, not the string 'bc'"),
        ((None, ["b"], ()), "a must be a set of labels, not None"),
        ((["a"], ["b"], 3), "c must be a set of labels, not 3"),
        (([["a"]], ["b"], ()), r"a must be a set of labels, not \[\['a'\]\]"),
    ])
    def test_rejects_a_string_or_non_collection(self, sets, match):
        with pytest.raises(GraphError, match=match):
            SeparationQuery(*sets)


class TestReduction:
    def test_reduced_query(self):
        query = q("a b c", "b", "b c d")
        red = query.reduced()
        assert red.a == {"a"}
        assert red.b == {"b"}
        assert red.c == {"c", "d"}

    def test_reduction_invariant_exhaustive(self):
        subsets = all_subsets(("a", "b", "c"))
        for g in enumerate_digraphs(("a", "b", "c")):
            for a in subsets:
                for b in subsets:
                    for c in subsets:
                        query = SeparationQuery(a, b, c)
                        assert delta_separates(g, query) == delta_separates(
                            g, query.reduced()
                        )


class TestMonotoneSurgery:
    def test_nodes_outside_ancestral_set_are_irrelevant(self):
        subsets = all_subsets(("a", "b", "c"))
        for g in enumerate_digraphs(("a", "b", "c")):
            for a in subsets:
                for b in subsets:
                    for c in subsets:
                        if a & b or a & c or b & c:
                            continue
                        anc = g.ancestral_set(a | b | c)
                        for v in g.vertices - anc:
                            trimmed = g.induced_subgraph(g.vertices - {v})
                            query = SeparationQuery(a, b, c)
                            assert delta_separates(g, query) == delta_separates(
                                trimmed, query
                            )


class TestAllSeparations:
    def test_cycle_contains_expected_direction_only(self, cycle3):
        found = all_separations(cycle3, max_cond=1)
        assert q("b", "a", "c") in found
        assert q("a", "b", "c") not in found

    def test_edgeless_pair(self):
        g = DiGraph(["x", "y"])
        found = all_separations(g, max_cond=0)
        assert q("x", "y", "") in found
        assert q("y", "x", "") in found

    def test_complete_bidirected_empty(self):
        labels = ("a", "b", "c")
        g = DiGraph(labels, [(j, k) for j in labels for k in labels if j != k])
        assert all_separations(g, max_cond=3) == []

    def test_deterministic(self, visits_graph):
        assert all_separations(visits_graph, 2) == all_separations(visits_graph, 2)

    def test_entries_are_separated_disjoint_and_bounded(self, visits_graph):
        for query in all_separations(visits_graph, 1):
            assert query.a and query.b
            assert not query.a & query.b and not query.a & query.c
            assert not query.b & query.c
            assert len(query.c) <= 1
            assert delta_separates(visits_graph, query)

    def test_guard(self):
        g = DiGraph([f"n{i}" for i in range(7)])
        with pytest.raises(EnumerationGuardError):
            all_separations(g, 1)

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_matches_reference_loop_on_every_small_digraph(self, n):
        for g in enumerate_digraphs(("a", "b", "c")[:n]):
            for max_cond in range(5):
                assert all_separations(g, max_cond) == reference_all_separations(g, max_cond)

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_matches_reference_loop_on_random_digraphs(self, n):
        rng = random.Random(n)
        labels = [f"v{i}" for i in range(n)]
        for p in (0.1, 0.25, 0.4, 0.6):
            for _ in range(5):
                g = random_digraph(labels, rng, p)
                for max_cond in (0, 1, n):
                    assert all_separations(g, max_cond) == reference_all_separations(g, max_cond)

    def test_takes_a_numpy_int_max_cond(self, cycle3):
        assert all_separations(cycle3, np.int64(1)) == all_separations(cycle3, 1)

    @pytest.mark.parametrize("max_cond", ["2", None, -1, 2.5, True, np.bool_(True), np.int64(-1)])
    def test_rejects_bad_max_cond(self, cycle3, max_cond):
        with pytest.raises(ValueError, match="max_cond must be a non-negative int"):
            all_separations(cycle3, max_cond)
        # checked before the node-count guard
        with pytest.raises(ValueError, match="max_cond must be a non-negative int"):
            all_separations(DiGraph([f"n{i}" for i in range(7)]), max_cond)


class TestSubsetOrder:
    def test_ranked_by_size_then_labels(self):
        subs = subsets_by_size(("b", "a"))
        assert subs == [
            frozenset(),
            frozenset({"a"}),
            frozenset({"b"}),
            frozenset({"a", "b"}),
        ]
