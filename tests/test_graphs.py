import hashlib
import itertools

import numpy as np
import pytest

from ligraph.graphs import (
    DiGraph,
    GraphError,
    UGraph,
    UnknownNodeError,
    enumerate_digraphs,
)


def reachability_closure(g: DiGraph) -> dict[str, set[str]]:
    """Independent ancestor oracle: boolean adjacency matrix powers."""
    labels = g.labels
    n = len(labels)
    adj = np.zeros((n, n), dtype=bool)
    for j, k in g.edges:
        adj[labels.index(j), labels.index(k)] = True
    reach = adj.copy()
    for _ in range(n):
        reach = reach | (reach @ adj)
    return {
        labels[i]: {labels[j] for j in range(n) if reach[i, j]} for i in range(n)
    }


class TestConstruction:
    def test_rejects_self_loop(self):
        with pytest.raises(GraphError, match="self-loop"):
            DiGraph(["a", "b"], [("a", "a")])

    def test_rejects_unknown_endpoint(self):
        with pytest.raises(UnknownNodeError, match="'z'"):
            DiGraph(["a", "b"], [("a", "z")])

    def test_rejects_bad_labels(self):
        with pytest.raises(GraphError):
            DiGraph([""])
        with pytest.raises(GraphError):
            DiGraph(["a b"])
        with pytest.raises(GraphError):
            DiGraph([3])
        # a quote or backslash would end or escape a quoted DOT identifier
        for label in ('a"b', "a\\", '"'):
            with pytest.raises(GraphError, match="double quotes or backslashes"):
                DiGraph([label])
            with pytest.raises(GraphError, match="double quotes or backslashes"):
                UGraph([label])

    # a bare string would be read as the set of its characters
    @pytest.mark.parametrize("call, match", [
        (lambda: DiGraph("ab"), "nodes .* the string 'ab'"),
        (lambda: UGraph(5), "nodes .* not 5"),
        (lambda: DiGraph(["a", "b"], ["ab"]), "edge .* the string 'ab'"),
        (lambda: DiGraph(["a", "b"], [("a", "b", "a")]), "edge must be a pair"),
        (lambda: DiGraph(["a", "b"], None), "edges .* not None"),
        (lambda: DiGraph(["b", "c"]).parents("b"), "the string 'b'"),
        (lambda: DiGraph(["b", "c"]).ancestral_set("bc"), "the string 'bc'"),
        (lambda: DiGraph(["a", "b"]).induced_subgraph("ab"), "the string 'ab'"),
        (lambda: DiGraph(["a", "b"]).delete_out_edges(None), "not None"),
        (lambda: UGraph(["a", "b"]).u_separated("a", "b", ""), "the string 'a'"),
    ])
    def test_rejects_a_string_or_non_collection_as_a_set(self, call, match):
        with pytest.raises(GraphError, match=match):
            call()

    # a label is a string: anything else is no node, and a list, which
    # does not hash, must not reach the label index
    @pytest.mark.parametrize("call", [
        lambda: DiGraph(["a", "b"], [(["a"], "b")]),
        lambda: DiGraph(["a", "b"], [("a", {"x": 1})]),
        lambda: UGraph(["a", "b"], [(["a"], "b")]),
        lambda: DiGraph(["a", "b"]).mask_of([["a"]]),
        lambda: DiGraph(["a", "b"]).parents([["a"], "b"]),
        lambda: UGraph(["a", "b"]).u_separated([["a"]], ["b"], []),
    ])
    def test_rejects_an_unhashable_label(self, call):
        with pytest.raises(UnknownNodeError, match=r"unknown node: (\['a'\]|\{'x': 1\})"):
            call()

    def test_takes_any_collection_of_labels(self):
        g = DiGraph(("a", "b"), {("a", "b")})
        assert g.parents(x for x in ["b"]) == {"a"}
        assert g.ancestral_set({"b": 1}.keys()) == {"a", "b"}

    def test_two_cycle_allowed(self):
        g = DiGraph.from_edges([("a", "b"), ("b", "a")])
        assert g.edges == {("a", "b"), ("b", "a")}

    def test_value_semantics(self):
        g1 = DiGraph(["a", "b"], [("a", "b")])
        g2 = DiGraph(["b", "a"], [("a", "b")])
        assert g1 == g2
        assert hash(g1) == hash(g2)
        assert g1 != DiGraph(["a", "b"])
        # the same labels and edges make a different graph of the other kind
        assert g1 != UGraph(["a", "b"], [("a", "b")]) and UGraph(["a", "b"], [("a", "b")]) != g1
        assert DiGraph([]) != UGraph([])


class TestParents:
    def test_three_cycle(self, cycle3):
        assert cycle3.parents({"b"}) == {"a"}

    def test_empty_set(self, cycle3):
        assert cycle3.parents(frozenset()) == frozenset()

    def test_two_parents(self):
        g = DiGraph.from_edges([("a", "b"), ("c", "b")])
        assert g.parents({"b"}) == {"a", "c"}

    def test_excludes_members(self):
        g = DiGraph.from_edges([("a", "b"), ("b", "c")])
        assert g.parents({"b", "c"}) == {"a"}

    def test_unknown_node(self, cycle3):
        with pytest.raises(UnknownNodeError, match="'q'"):
            cycle3.parents({"q"})


class TestAncestralSet:
    def test_three_cycle_all(self, cycle3):
        assert cycle3.ancestral_set({"a"}) == {"a", "b", "c"}

    def test_edgeless(self):
        g = DiGraph(["a", "b", "c"])
        assert g.ancestral_set({"b"}) == {"b"}

    def test_visits_graph_survival(self, visits_graph):
        # derived from the reachability oracle below
        got = visits_graph.ancestral_set({"survival"})
        closure = reachability_closure(visits_graph)
        want = {"survival"} | {
            j for j, reach in closure.items() if "survival" in reach
        }
        assert got == want == {"health", "hosp", "survival", "visits"}

    def test_matches_reachability_oracle_exhaustively(self):
        for g in enumerate_digraphs(("a", "b", "c")):
            closure = reachability_closure(g)
            for r in range(8):
                target = frozenset(n for i, n in enumerate("abc") if (r >> i) & 1)
                want = set(target)
                for j, reach in closure.items():
                    if reach & target:
                        want.add(j)
                assert g.ancestral_set(target) == want

    def test_monotone_and_idempotent(self):
        for g in enumerate_digraphs(("a", "b", "c")):
            subsets = [
                frozenset(n for i, n in enumerate("abc") if (r >> i) & 1)
                for r in range(8)
            ]
            for a in subsets:
                an_a = g.ancestral_set(a)
                assert g.ancestral_set(an_a) == an_a
                for b in subsets:
                    if a <= b:
                        assert an_a <= g.ancestral_set(b)


class TestDeleteOutEdges:
    def test_three_cycle(self, cycle3):
        assert cycle3.delete_out_edges({"a"}).edges == {("b", "c"), ("c", "a")}

    def test_empty_is_identity(self, cycle3):
        assert cycle3.delete_out_edges(frozenset()) == cycle3

    def test_all_edges_removed(self):
        g = DiGraph.from_edges([("a", "b"), ("b", "a")])
        assert g.delete_out_edges({"a", "b"}).edges == frozenset()

    def test_vertices_unchanged(self, cycle3):
        assert cycle3.delete_out_edges({"a"}).vertices == cycle3.vertices

    def test_preserves_ancestral_sets(self):
        # removing the edges leaving b cannot change the ancestral set of
        # any vertex set containing b; exhaustive through 4 nodes
        for n in (2, 3, 4):
            labels = "abcd"[:n]
            subsets = [
                frozenset(x for i, x in enumerate(labels) if (r >> i) & 1)
                for r in range(1 << n)
            ]
            for g in enumerate_digraphs(labels):
                for u in subsets:
                    an_u = g.ancestral_set(u)
                    for b in subsets:
                        if b <= u:
                            assert an_u == g.delete_out_edges(b).ancestral_set(u)


class TestInducedSubgraph:
    def test_drops_outside_edges(self):
        g = DiGraph.from_edges([("a", "b"), ("b", "c")])
        sub = g.induced_subgraph({"a", "b"})
        assert sub.vertices == {"a", "b"}
        assert sub.edges == {("a", "b")}

    def test_full_set_is_identity(self, cycle3):
        assert cycle3.induced_subgraph(cycle3.vertices) == cycle3

    def test_empty(self, cycle3):
        sub = cycle3.induced_subgraph(frozenset())
        assert sub.vertices == frozenset() and sub.edges == frozenset()


class TestMoralize:
    def test_chain_no_marriage(self):
        g = DiGraph.from_edges([("b", "c"), ("c", "a")])
        h = g.moralize()
        assert h.edges == {("b", "c"), ("a", "c")}
        assert h.u_separated({"a"}, {"b"}, {"c"})

    def test_common_child_marries_parents(self):
        g = DiGraph.from_edges([("a", "b"), ("c", "b")])
        assert g.moralize().edges == {("a", "b"), ("b", "c"), ("a", "c")}

    def test_two_cycle_collapses(self):
        g = DiGraph.from_edges([("a", "b"), ("b", "a")])
        assert g.moralize().edges == {("a", "b")}

    def test_fixpoint_of_symmetric_remoralization(self):
        # iterating undirected -> symmetric digraph -> moral graph reaches a
        # stable graph; once stable, moralizing adds nothing
        for g in enumerate_digraphs(("a", "b", "c")):
            h = g.moralize()
            for _ in range(4):
                sym = DiGraph(
                    h.labels, [(x, y) for x, y in h.edges] + [(y, x) for x, y in h.edges]
                )
                h2 = sym.moralize()
                if h2 == h:
                    break
                h = h2
            sym = DiGraph(
                h.labels, [(x, y) for x, y in h.edges] + [(y, x) for x, y in h.edges]
            )
            assert sym.moralize() == h

    def test_union_of_cliques_already_moral(self):
        edges = [("a", "b"), ("b", "c"), ("a", "c"), ("d", "e")]
        sym = DiGraph.from_edges(
            edges + [(y, x) for x, y in edges], nodes=["f"]
        )
        assert sym.moralize().edges == {tuple(sorted(e)) for e in edges}


class TestUSeparated:
    def test_chain_blocked(self):
        h = UGraph(["a", "b", "c"], [("b", "c"), ("c", "a")])
        assert h.u_separated({"a"}, {"b"}, {"c"})

    def test_empty_source(self):
        h = UGraph(["a", "b"], [("a", "b")])
        assert h.u_separated(frozenset(), {"b"}, frozenset())

    def test_direct_edge(self):
        h = UGraph(["a", "b"], [("a", "b")])
        assert not h.u_separated({"a"}, {"b"}, frozenset())

    def test_empty_conditioning_means_unconnected(self):
        h = UGraph(["a", "b", "c", "d"], [("a", "b"), ("c", "d")])
        assert h.u_separated({"a"}, {"c"}, frozenset())
        assert not h.u_separated({"a"}, {"b"}, frozenset())

    def test_symmetry_exhaustive(self):
        nodes = ("a", "b", "c")
        pairs = list(itertools.combinations(nodes, 2))
        subsets = [
            frozenset(n for i, n in enumerate(nodes) if (r >> i) & 1)
            for r in range(8)
        ]
        for code in range(1 << len(pairs)):
            h = UGraph(nodes, [p for i, p in enumerate(pairs) if (code >> i) & 1])
            for a in subsets:
                for b in subsets:
                    for c in subsets:
                        assert h.u_separated(a, b, c) == h.u_separated(b, a, c)

    def test_endpoint_in_conditioning_blocks(self):
        h = UGraph(["a", "b"], [("a", "b")])
        assert h.u_separated({"a"}, {"b"}, {"a"})
        assert h.u_separated({"a"}, {"b"}, {"b"})


class TestSerialization:
    def test_json_round_trip(self, visits_graph):
        assert DiGraph.from_json(visits_graph.to_json()) == visits_graph

    def test_json_shape(self, cycle3):
        data = cycle3.to_json_dict()
        assert data == {
            "nodes": ["a", "b", "c"],
            "edges": [["a", "b"], ["b", "c"], ["c", "a"]],
        }

    def test_json_rejects_malformed(self):
        with pytest.raises(GraphError):
            DiGraph.from_json_dict({"nodes": ["a"]})
        with pytest.raises(GraphError):
            DiGraph.from_json_dict({"nodes": ["a", "b"], "edges": [["a", "b", "c"]]})

    # graph JSON is read by the same typed field reader as spec JSON
    @pytest.mark.parametrize("data, match", [
        ([], "graph JSON must be an object with 'nodes'"),
        ({"edges": []}, "graph JSON must be an object with 'nodes'"),
        ({"nodes": ["a"]}, "graph JSON must be an object with 'edges'"),
        ({"nodes": "ab", "edges": []}, "graph JSON: bad 'nodes': 'ab'"),
        ({"nodes": ["a", 1], "edges": []}, "graph JSON: bad 'nodes'"),
        ({"nodes": ["a", "b"], "edges": {"a": "b"}}, "graph JSON: bad 'edges'"),
        ({"nodes": ["a", "b"], "edges": [["a", ["b"]]]}, "graph JSON: bad 'edges'"),
        ({"nodes": ["a", "b"], "edges": ["ab"]}, "graph JSON: bad 'edges'"),
        ({"nodes": ["a", "b"], "edges": [["a", "b", "a"]]}, "edge must be a pair"),
    ])
    def test_json_messages(self, data, match):
        with pytest.raises(GraphError, match=match):
            DiGraph.from_json_dict(data)

    def test_json_rejects_repeated_labels(self):
        with pytest.raises(GraphError, match="repeated"):
            DiGraph.from_json_dict({"nodes": ["a", "a", "b"], "edges": []})
        # the constructors reject them too
        with pytest.raises(GraphError, match="repeated"):
            DiGraph(["a", "a", "b"])
        with pytest.raises(GraphError, match="repeated"):
            UGraph(["x", "x"])
        with pytest.raises(GraphError, match="repeated"):
            DiGraph.from_edges([("a", "b")], ["a", "a"])
        # an edge endpoint also listed in nodes is not a repeat
        assert DiGraph.from_edges([("a", "b"), ("b", "c")], ["b", "d"]).labels == tuple("abcd")

    def test_json_rejects_repeated_edges(self):
        with pytest.raises(GraphError, match="repeated edges"):
            DiGraph.from_json_dict({"nodes": ["a", "b"], "edges": [["a", "b"], ["a", "b"]]})
        # opposite edges are two edges, and the constructor merges repeats
        both = DiGraph.from_json_dict({"nodes": ["a", "b"], "edges": [["a", "b"], ["b", "a"]]})
        assert both.edges == {("a", "b"), ("b", "a")}
        assert DiGraph(["a", "b"], [("a", "b"), ("a", "b")]).edges == {("a", "b")}

    def test_dot_directed(self, cycle3):
        dot = cycle3.to_dot()
        assert dot.startswith("digraph G {")
        assert '"a" -> "b";' in dot

    def test_dot_undirected(self):
        h = DiGraph.from_edges([("a", "b"), ("c", "b")]).moralize()
        dot = h.to_dot()
        assert dot.startswith("graph G {")
        assert '"a" -- "c";' in dot


class TestTextForms:
    # SHA-256 of each text form over all 4,096 four-node digraphs in
    # enumeration order and over their moral graphs: any change to how
    # either graph kind prints itself changes a digest.
    DIGESTS = {
        "repr": "95e42351e945ae5cc27518d8ffd556659421288ae6917d69f8a6366c6f7c58f6",
        "dot": "9075c1a01ae9dd79f01847194f3298655c4f5f5a34e6e461bf9eaf5da991d9c7",
        "json": "0d7551a7e4a0562bc1a39fa5552b5939ed81a8017f1d43f1d932165ee92327ed",
        "moral_repr": "f5aa1cac0397dbe38a95dc8b1a485ae5283a0532b93e3e3eefc80d2532100803",
        "moral_dot": "908aa6cfb609257005b7437ebc9d3ce13c135969b606e038a9750ccd6cd8567e",
    }

    def test_four_node_digests(self):
        forms = {name: hashlib.sha256() for name in self.DIGESTS}
        for g in enumerate_digraphs("abcd"):
            h = g.moralize()
            forms["repr"].update((repr(g) + "\n").encode())
            forms["dot"].update(g.to_dot().encode())
            forms["json"].update(g.to_json().encode())
            forms["moral_repr"].update((repr(h) + "\n").encode())
            forms["moral_dot"].update(h.to_dot().encode())
        assert {name: d.hexdigest() for name, d in forms.items()} == self.DIGESTS


class TestEnumeration:
    def test_counts(self):
        assert sum(1 for _ in enumerate_digraphs(("a", "b"))) == 4
        assert sum(1 for _ in enumerate_digraphs(("a", "b", "c"))) == 64

    def test_deterministic_order(self):
        first, *_, last = list(enumerate_digraphs(("a", "b")))
        assert first.edges == frozenset()
        assert last.edges == {("a", "b"), ("b", "a")}
