import contextlib
import io
import json
import pathlib

import pytest
from hypothesis import given
from hypothesis import strategies as st

import ligraph.separation
from helpers import event_line_mutations, reference_trajectory_from_jsonl
from ligraph import cli
from ligraph.cfmp import simulate, spec_from_json, trajectory_to_jsonl, uniform_distribution
from ligraph.fixtures import repo_fixture_files
from ligraph.graphs import DiGraph, GraphError

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def cycle_graph_file():
    return str(FIXTURES / "three_cycle_graph.json")


def visits_graph_file():
    return str(FIXTURES / "home_visits_graph.json")


def absorbing_spec_file(tmp_path):
    """Two binary components with every rate zero: every state absorbs."""
    table = [{"given": {}, "from": s, "to": 1 - s, "rate": 0.0} for s in (0, 1)]
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "components": [{"name": "x", "states": 2}, {"name": "y", "states": 2}],
        "intensities": {n: {"depends_on": [], "table": table} for n in "xy"},
    }))
    return str(spec)


def overflowing_spec_file(tmp_path):
    """Two binary components with every rate at 1e308: each rate is
    finite, but a state's total exit rate is not."""
    table = [{"given": {}, "from": s, "to": 1 - s, "rate": 1e308} for s in (0, 1)]
    spec = tmp_path / "huge.json"
    spec.write_text(json.dumps({
        "components": [{"name": "x", "states": 2}, {"name": "y", "states": 2}],
        "intensities": {n: {"depends_on": [], "table": table} for n in "xy"},
    }))
    return str(spec)


HEADER = '{"components": ["a", "b", "c"], "initial": [0, 0, 0], "horizon": 5.0}'


def assert_one_line_error(code, out, err):
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: ")


class TestDsep:
    def test_separated_direction(self, capsys):
        code, out, _ = run(capsys, "dsep", cycle_graph_file(), "--a", "b", "--b", "a", "--c", "c")
        assert code == 0
        data = json.loads(out)
        assert data["separated"] is True
        assert data["reduced_query"] == {"a": ["b"], "b": ["a"], "c": ["c"]}

    def test_unseparated_direction(self, capsys):
        code, out, _ = run(capsys, "dsep", cycle_graph_file(), "--a", "a", "--b", "b", "--c", "c")
        assert code == 0
        assert json.loads(out)["separated"] is False

    def test_empty_a_is_separated(self, capsys):
        code, out, _ = run(capsys, "dsep", cycle_graph_file(), "--a", "", "--b", "b", "--c", "c")
        assert code == 0
        assert json.loads(out)["separated"] is True

    def test_trail_method(self, capsys):
        code, out, _ = run(
            capsys, "dsep", cycle_graph_file(),
            "--a", "b", "--b", "a", "--c", "c", "--method", "trail",
        )
        assert code == 0
        data = json.loads(out)
        assert data["method"] == "trail" and data["separated"] is True

    def test_both_methods_agree(self, capsys):
        code, out, _ = run(
            capsys, "dsep", visits_graph_file(),
            "--a", "visits", "--b", "survival", "--c", "hosp", "--method", "both",
        )
        assert code == 0
        data = json.loads(out)
        assert data["agree"] is True and data["separated"] is False

    def test_overlapping_query_reduces(self, capsys):
        code, out, _ = run(
            capsys, "dsep", cycle_graph_file(),
            "--a", "a b", "--b", "b", "--c", "b c",
        )
        assert code == 0
        assert json.loads(out)["reduced_query"] == {"a": ["a"], "b": ["b"], "c": ["c"]}

    def test_unknown_node_errors(self, capsys):
        code, _, err = run(capsys, "dsep", cycle_graph_file(), "--a", "zz", "--b", "a", "--c", "")
        assert code == 2
        assert "zz" in err

    @pytest.mark.parametrize(
        "graph",
        [
            {"nodes": "ab", "edges": []},
            {"nodes": ["a", "b"], "edges": ["ab"]},
            {"nodes": ["a", "a", "b"], "edges": []},
            {"nodes": ["a", "b"], "edges": [[["a"], "b"]]},
            {"nodes": ["a", "b"], "edges": [[{"x": 1}, "b"]]},
            {"nodes": ["a", "b"], "edges": [["a", "b"], ["a", "b"]]},
        ],
    )
    def test_malformed_graph_json_errors(self, capsys, tmp_path, graph):
        # a JSON string must not be read as a sequence of node or edge labels
        path = tmp_path / "g.json"
        path.write_text(json.dumps(graph))
        code, out, err = run(capsys, "dsep", str(path), "--a", "a", "--b", "b")
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("error: ")

    def test_missing_file_errors(self, capsys):
        code, _, err = run(capsys, "dsep", "no-such-file.json", "--a", "a", "--b", "b", "--c", "")
        assert code == 2
        assert "error" in err

    def test_disagreement_fault_injection(self, capsys, monkeypatch):
        # force the two procedures apart; the CLI must exit nonzero
        monkeypatch.setattr(
            ligraph.separation, "delta_separates_trail", lambda g, q: False
        )
        code, out, err = run(
            capsys, "dsep", cycle_graph_file(),
            "--a", "b", "--b", "a", "--c", "c", "--method", "both",
        )
        assert code == 1
        data = json.loads(out)
        assert data["agree"] is False and data["separated"] is None
        assert "disagree" in err


class TestMoralize:
    def test_whole_graph(self, capsys):
        code, out, _ = run(capsys, "moralize", cycle_graph_file())
        assert code == 0
        assert out.startswith("graph G {")

    def test_delete_out_pipeline(self, capsys):
        code, out, _ = run(capsys, "moralize", cycle_graph_file(), "--delete-out", "a")
        assert code == 0
        assert '"b" -- "c";' in out and '"a" -- "c";' in out
        assert '"a" -- "b";' not in out

    def test_edgeless_graph_isolated_nodes(self, capsys, tmp_path):
        path = tmp_path / "g.json"
        path.write_text(json.dumps({"nodes": ["p", "q"], "edges": []}))
        code, out, _ = run(capsys, "moralize", str(path))
        assert code == 0
        assert '"p";' in out and '"q";' in out and "--" not in out

    def test_visits_walkthrough_marriage(self, capsys):
        code, out, _ = run(
            capsys, "moralize", visits_graph_file(),
            "--delete-out", "survival", "--ancestral-of", "visits survival hosp",
        )
        assert code == 0
        # visits and survival stay connected around hosp through the
        # health-visits marriage over their common child hosp
        assert '"health" -- "visits";' in out
        assert '"health" -- "survival";' in out

    @pytest.mark.parametrize("label", ['a"b', "a\\"])
    def test_dot_breaking_label_errors(self, capsys, tmp_path, label):
        path = tmp_path / "g.json"
        path.write_text(json.dumps({"nodes": [label, "b"], "edges": [[label, "b"]]}))
        code, out, err = run(capsys, "moralize", str(path))
        assert_one_line_error(code, out, err)
        assert "double quotes or backslashes" in err


class TestAxioms:
    def test_cycle_profile(self, capsys):
        code, out, _ = run(capsys, "axioms", cycle_graph_file())
        assert code == 0
        reports = {r["property"]: r for r in json.loads(out)}
        assert reports["right_redundancy"]["holds"] is False
        for prop in (
            "left_redundancy", "left_decomposition", "left_weak_union",
            "right_weak_union", "left_contraction", "right_contraction",
            "left_intersection", "right_intersection",
        ):
            assert reports[prop]["holds"] is True

    def test_single_edge_counterexample(self, capsys, tmp_path):
        path = tmp_path / "g.json"
        path.write_text(json.dumps({"nodes": ["a", "b"], "edges": [["a", "b"]]}))
        code, out, _ = run(capsys, "axioms", str(path))
        assert code == 0
        reports = {r["property"]: r for r in json.loads(out)}
        assert reports["right_redundancy"]["counterexample"] == {"A": ["a"], "B": ["b"]}

    def test_edgeless_all_hold(self, capsys, tmp_path):
        path = tmp_path / "g.json"
        path.write_text(json.dumps({"nodes": ["a", "b", "c"], "edges": []}))
        code, out, _ = run(capsys, "axioms", str(path))
        assert code == 0
        assert all(r["holds"] for r in json.loads(out))

    def test_derived_flag_appends_reports(self, capsys):
        code, out, _ = run(capsys, "axioms", cycle_graph_file(), "--derived")
        assert code == 0
        props = [r["property"] for r in json.loads(out)]
        assert "shifted_right_decomposition" in props
        assert len(props) == 17

    def test_node_guard(self, capsys, tmp_path):
        path = tmp_path / "g.json"
        path.write_text(json.dumps({"nodes": list("abcdef"), "edges": []}))
        code, _, err = run(capsys, "axioms", str(path))
        assert code == 2
        assert "refusing" in err


class TestDeriveGraph:
    def test_cycle_spec(self, capsys):
        code, out, _ = run(capsys, "derive-graph", str(FIXTURES / "three_cycle_process.json"))
        assert code == 0
        assert out == (FIXTURES / "three_cycle_graph.json").read_text()

    def test_vacuous_dependency_warns(self, capsys, tmp_path, vacuous_spec):
        from ligraph.cfmp import spec_to_json

        path = tmp_path / "spec.json"
        path.write_text(spec_to_json(vacuous_spec))
        code, out, err = run(capsys, "derive-graph", str(path))
        assert code == 0
        assert json.loads(out)["edges"] == []
        assert "vacuous dependency x -> y" in err

    def test_dot_output(self, capsys, tmp_path):
        dot_path = tmp_path / "g.dot"
        code, _, _ = run(
            capsys, "derive-graph", str(FIXTURES / "three_cycle_process.json"),
            "--dot", str(dot_path),
        )
        assert code == 0
        assert '"a" -> "b";' in dot_path.read_text()

    @pytest.mark.parametrize("name", ['a"b', "a\\"])
    def test_dot_breaking_component_name_errors(self, capsys, tmp_path, name):
        text = (FIXTURES / "three_cycle_process.json").read_text()
        spec = tmp_path / "spec.json"
        spec.write_text(text.replace('"a"', json.dumps(name)))
        dot_path = tmp_path / "g.dot"
        code, out, err = run(capsys, "derive-graph", str(spec), "--dot", str(dot_path))
        assert_one_line_error(code, out, err)
        assert "double quotes or backslashes" in err
        assert not dot_path.exists()

    def test_unwritable_dot_path_errors(self, capsys, tmp_path):
        dot_path = tmp_path / "no" / "such" / "x.dot"
        assert_one_line_error(*run(
            capsys, "derive-graph", str(FIXTURES / "three_cycle_process.json"),
            "--dot", str(dot_path),
        ))

    def test_invalid_spec_errors(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"components": [{"name": "x", "states": 2}]}))
        code, _, err = run(capsys, "derive-graph", str(path))
        assert code == 2
        assert "at least 2 components" in err

    @pytest.mark.parametrize(
        "path, key",
        [
            (("intensities", "a", "table", 0), "to"),
            (("intensities", "b", "table", 1), "from"),
            (("intensities", "c", "table", 0), "rate"),
            (("components", 0), "name"),
            (("components", 2), "states"),
        ],
    )
    def test_spec_missing_field_errors(self, capsys, tmp_path, path, key):
        data = json.loads((FIXTURES / "three_cycle_process.json").read_text())
        node = data
        for step in path:
            node = node[step]
        del node[key]
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(data))
        code, out, err = run(capsys, "derive-graph", str(spec))
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and f"'{key}'" in err

    @pytest.mark.parametrize(
        "path, value",
        [
            pytest.param(("components",), 5, id="components-number"),
            pytest.param(("intensities",), [], id="intensities-array"),
            pytest.param(("intensities", "a"), [], id="entry-array"),
            pytest.param(("intensities", "a", "table"), {}, id="table-object"),
            pytest.param(("intensities", "a", "table", 0, "given"), "c", id="given-string"),
            pytest.param(("intensities", "a", "depends_on"), 5, id="depends-number"),
            pytest.param(("intensities", "a", "depends_on"), "c", id="depends-string"),
            pytest.param(("components", 0, "states"), 2.7, id="states-float"),
            pytest.param(("components", 0, "states"), True, id="states-bool"),
            pytest.param(("components", 0, "states"), "2", id="states-string"),
            pytest.param(("components", 0, "name"), 5, id="name-number"),
            pytest.param(("intensities", "a", "table", 0, "from"), "0", id="from-string"),
            pytest.param(("intensities", "a", "table", 0, "to"), 1.0, id="to-float"),
            pytest.param(
                ("intensities", "a", "table", 0, "given", "c"), True, id="given-value-bool"
            ),
            pytest.param(("intensities", "a", "table", 0, "rate"), True, id="rate-bool"),
            pytest.param(("intensities", "a", "table", 0, "rate"), "0.5", id="rate-string"),
            pytest.param(
                ("intensities", "zz"), {"depends_on": ["nope"], "table": "garbage"},
                id="unknown-component",
            ),
        ],
    )
    def test_spec_ill_typed_field_errors(self, capsys, tmp_path, path, value):
        data = json.loads((FIXTURES / "three_cycle_process.json").read_text())
        node = data
        for step in path[:-1]:
            node = node[step]
        node[path[-1]] = value
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(data))
        assert_one_line_error(*run(capsys, "derive-graph", str(spec)))


class TestCiCheck:
    def test_fast_direction(self, capsys):
        code, out, _ = run(
            capsys, "ci-check", str(FIXTURES / "three_cycle_process.json"),
            "--target", "a", "--source", "b", "--cond", "c",
        )
        assert code == 0
        assert json.loads(out)["decay_class"] == "fast"

    def test_slow_direction(self, capsys):
        code, out, _ = run(
            capsys, "ci-check", str(FIXTURES / "three_cycle_process.json"),
            "--target", "b", "--source", "a", "--cond", "c",
        )
        assert code == 0
        assert json.loads(out)["decay_class"] == "slow"

    def test_independent_zero(self, capsys):
        code, out, _ = run(
            capsys, "ci-check", str(FIXTURES / "independent_pair_process.json"),
            "--target", "x", "--source", "y",
        )
        assert code == 0
        assert json.loads(out)["decay_class"] == "zero"

    def test_stationary_of_absorbing_chain_errors(self, capsys, tmp_path):
        code, out, err = run(
            capsys, "ci-check", absorbing_spec_file(tmp_path),
            "--target", "x", "--source", "y", "--pi", "stationary",
        )
        assert_one_line_error(code, out, err)
        assert "not unique" in err

    @pytest.mark.parametrize("hs", ["nan", "inf", "0.1 nan"])
    def test_non_finite_window_errors(self, capsys, hs):
        code, out, err = run(
            capsys, "ci-check", str(FIXTURES / "three_cycle_process.json"),
            "--target", "a", "--source", "b", "--hs", hs,
        )
        assert_one_line_error(code, out, err)
        assert "finite" in err

    def test_huge_window_errors(self, capsys):
        code, out, err = run(
            capsys, "ci-check", str(FIXTURES / "three_cycle_process.json"),
            "--target", "a", "--source", "b", "--hs", "1e300",
        )
        assert_one_line_error(code, out, err)
        assert "largest exit rate" in err

    @pytest.mark.parametrize("hs", ["0.2", ""])
    def test_too_few_windows_errors(self, capsys, hs):
        code, out, err = run(
            capsys, "ci-check", str(FIXTURES / "three_cycle_process.json"),
            "--target", "b", "--source", "a", "--cond", "c", "--hs", hs,
        )
        assert_one_line_error(code, out, err)
        assert "at least 2 window lengths" in err

    def test_custom_windows(self, capsys):
        code, out, _ = run(
            capsys, "ci-check", str(FIXTURES / "three_cycle_process.json"),
            "--target", "a", "--source", "b", "--cond", "c", "--hs", "0.1 0.05",
        )
        assert code == 0
        assert json.loads(out)["hs"] == [0.1, 0.05]


class TestSimulateEstimate:
    def test_deterministic_outputs(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        spec = str(FIXTURES / "three_cycle_process.json")
        outputs = []
        for prefix in ("one_", "two_"):
            code, out, _ = run(
                capsys, "simulate", spec,
                "--horizon", "20", "--seed", "7", "--count", "2",
                "--out-prefix", prefix,
            )
            assert code == 0
            files = json.loads(out)["files"]
            assert files == [f"{prefix}000.jsonl", f"{prefix}001.jsonl"]
            outputs.append([pathlib.Path(f).read_bytes() for f in files])
        assert outputs[0] == outputs[1]

    def test_estimate_round_trip(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        spec = str(FIXTURES / "three_cycle_process.json")
        code, out, _ = run(
            capsys, "simulate", spec,
            "--horizon", "50", "--seed", "3", "--count", "4", "--out-prefix", "t_",
        )
        assert code == 0
        files = json.loads(out)["files"]
        code, out, _ = run(capsys, "estimate", *files, "--spec", spec)
        assert code == 0
        data = json.loads(out)
        total = sum(
            cell["exposure"]
            for comp in data["components"].values()
            for cell in comp["cells"]
        )
        assert total == pytest.approx(3 * 4 * 50.0)

    def test_estimate_empty_all_undefined(self, capsys):
        spec = str(FIXTURES / "three_cycle_process.json")
        code, out, _ = run(capsys, "estimate", "--spec", spec)
        assert code == 0
        data = json.loads(out)
        for comp in data["components"].values():
            for cell in comp["cells"]:
                assert all(v is None for v in cell["rates"].values())

    @pytest.mark.parametrize(
        "horizon, count, message",
        [
            ("nan", "1", "horizon"),
            ("inf", "1", "horizon"),
            ("nan", "0", "horizon"),
            ("10", "-1", "count"),
        ],
    )
    def test_rejects_bad_horizon_or_count(self, capsys, tmp_path, horizon, count, message):
        # every state absorbing, so a missing horizon check would return, not loop
        code, out, err = run(
            capsys, "simulate", absorbing_spec_file(tmp_path), "--horizon", horizon,
            "--seed", "1", "--count", count, "--out-prefix", str(tmp_path / "t_"),
        )
        assert_one_line_error(code, out, err)
        assert message in err
        assert not list(tmp_path.glob("t_*"))

    def test_rejects_horizon_with_too_many_jumps(self, capsys, tmp_path):
        code, out, err = run(
            capsys, "simulate", str(FIXTURES / "three_cycle_process.json"), "--horizon", "1e300",
            "--seed", "1", "--count", "0", "--out-prefix", str(tmp_path / "t_"),
        )
        assert_one_line_error(code, out, err)
        assert "largest exit rate" in err

    @pytest.mark.parametrize(
        "lines",
        [
            pytest.param(['[0, 0, 0]'], id="header-array"),
            pytest.param([HEADER.replace("[0, 0, 0]", "[0, 0]")], id="initial-short"),
            pytest.param([HEADER.replace("[0, 0, 0]", "[9, 9, 9]")], id="initial-range"),
            pytest.param([HEADER.replace("[0, 0, 0]", "[0, 0, 0.5]")], id="initial-float"),
            pytest.param([HEADER.replace("5.0", "NaN")], id="horizon-nan"),
            pytest.param(
                [HEADER, '{"time": 1.0, "component": "a", "new_state": 5}'], id="new-state-range"
            ),
            pytest.param([HEADER, '{"time": 1.0, "component": "a"}'], id="new-state-missing"),
        ],
    )
    def test_estimate_rejects_bad_trajectory(self, capsys, tmp_path, lines):
        path = tmp_path / "t.jsonl"
        path.write_text("\n".join(lines) + "\n")
        spec = str(FIXTURES / "three_cycle_process.json")
        assert_one_line_error(*run(capsys, "estimate", str(path), "--spec", spec))


class TestOneProcess:
    def test_commands_in_sequence_match_a_fresh_parser_each(self, capsys, tmp_path):
        # the parser is built once per process; each command must still
        # see only its own arguments and the defaults
        spec = str(FIXTURES / "three_cycle_process.json")
        graph = cycle_graph_file()
        simulate = ["simulate", spec, "--horizon", "5", "--seed", "1", "--count", "2"]
        sequence = [
            ["dsep", graph, "--a", "b", "--b", "a", "--c", "c", "--method", "both"],
            ["dsep", graph, "--b", "a"],
            [*simulate, "--pi", "stationary", "--out-prefix", str(tmp_path / "s")],
            [*simulate, "--out-prefix", str(tmp_path / "u")],
            ["estimate", str(tmp_path / "s000.jsonl"), "--spec", spec],
            ["estimate", "--spec", spec],
            ["dsep", graph, "--a", "a", "--method", "trail"],
        ]

        def files():
            return {p.name: p.read_text() for p in sorted(tmp_path.iterdir())}

        cli._build_parser.cache_clear()
        shared = [run(capsys, *argv) for argv in sequence]
        assert cli._build_parser.cache_info().misses == 1
        shared_files = files()
        fresh = []
        for argv in sequence:
            cli._build_parser.cache_clear()
            fresh.append(run(capsys, *argv))
        assert fresh == shared and files() == shared_files
        assert json.loads(shared[1][1])["reduced_query"]["a"] == []
        assert shared_files["s000.jsonl"] != shared_files["u000.jsonl"]  # --pi matters here


class TestTrajectoryJsonlBoundary:
    @pytest.mark.parametrize(
        "mutation", sorted(event_line_mutations('{"time": 1.0, "component": "a", "new_state": 1}'))
    )
    def test_mutated_line_reads_or_fails_in_one_line(self, capsys, tmp_path, mutation):
        spec_path = FIXTURES / "three_cycle_process.json"
        spec = spec_from_json(spec_path.read_text())
        traj = simulate(spec, uniform_distribution(spec.space), 10.0, seed=3)
        lines = trajectory_to_jsonl(traj, spec.space).splitlines()
        lines[2] = event_line_mutations(lines[2])[mutation]
        path = tmp_path / "t.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code, out, err = run(capsys, "estimate", str(path), "--spec", str(spec_path))
        try:
            with open(path, encoding="utf-8") as fh:
                reference_trajectory_from_jsonl(fh.read(), spec.space)
        except ValueError as exc:
            assert_one_line_error(code, out, err)
            assert err == f"error: {exc}\n"
        else:
            assert code == 0 and err == ""


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["dsep", "{deep}", "--a", "a", "--b", "b"], id="graph"),
        pytest.param(["ci-check", "{deep}", "--target", "a", "--source", "b"], id="spec"),
        pytest.param(
            ["estimate", "{deep}", "--spec", str(FIXTURES / "three_cycle_process.json")],
            id="trajectory",
        ),
    ],
)
def test_deeply_nested_json_errors(capsys, tmp_path, argv):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000)
    argv = [str(deep) if a == "{deep}" else a for a in argv]
    assert_one_line_error(*run(capsys, *argv))


@pytest.mark.parametrize("argv", [
    ("derive-graph",),
    ("ci-check", "--target", "x", "--source", "y"),
    ("ci-check", "--target", "x", "--source", "y", "--pi", "stationary"),
    ("simulate", "--horizon", "1", "--seed", "0", "--out-prefix", "run_"),
])
def test_overflowing_exit_rate_errors(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    command, *flags = argv
    code, out, err = run(capsys, command, overflowing_spec_file(tmp_path), *flags)
    assert_one_line_error(code, out, err)
    assert "total exit rate overflows" in err


JSON_SCALARS = (
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=4)
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(st.text(max_size=4), kids, max_size=4),
    max_leaves=12,
)
GOOD_LABELS = st.sampled_from(["a", "b", "c", "\u00e9"])
BAD_LABELS = st.sampled_from(["", "a b", 'a"', "b\\", 0, None, ["a"]])


@st.composite
def well_formed_graphs(draw):
    nodes = draw(st.lists(GOOD_LABELS, min_size=2, max_size=4, unique=True))
    pairs = st.sampled_from([[j, k] for j in nodes for k in nodes if j != k])
    return {"nodes": nodes, "edges": draw(st.lists(pairs, max_size=6, unique_by=tuple))}


@st.composite
def graph_objects(draw):
    """Graph-shaped JSON objects, some of them well formed."""
    labels = GOOD_LABELS | BAD_LABELS
    nodes = draw(st.lists(GOOD_LABELS, max_size=4, unique=True) | st.lists(labels, max_size=4))
    ends = st.sampled_from(nodes) if nodes and draw(st.booleans()) else labels
    edge = st.lists(ends, min_size=2, max_size=2) | st.lists(ends, max_size=3)
    return {"nodes": nodes, "edges": draw(st.lists(edge, max_size=5) | JSON_VALUES)}


class TestGraphJsonBoundary:
    @given(
        data=well_formed_graphs()
        | graph_objects()
        | st.fixed_dictionaries({"nodes": JSON_VALUES, "edges": JSON_VALUES})
        | JSON_VALUES
    )
    def test_parses_and_round_trips_or_fails_in_one_line(self, tmp_path_factory, data):
        try:
            g = DiGraph.from_json_dict(data)
        except GraphError:
            g = None
        else:
            back = g.to_json_dict()
            assert DiGraph.from_json_dict(back) == g
            assert back["nodes"] == sorted(data["nodes"])
            assert back["edges"] == sorted(data["edges"])
        path = tmp_path_factory.getbasetemp() / "boundary_graph.json"
        path.write_text(json.dumps(data))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["dsep", str(path)])
        if g is None:
            assert_one_line_error(code, out.getvalue(), err.getvalue())
        else:
            assert code == 0 and err.getvalue() == ""
            assert json.loads(out.getvalue())["separated"] is True


class TestWireFormatStability:
    def test_fixture_files_are_canonical(self):
        for name, text in repo_fixture_files().items():
            assert (FIXTURES / name).read_text() == text

    def test_graph_json_fixpoint(self):
        for name in ("three_cycle_graph.json", "home_visits_graph.json"):
            text = (FIXTURES / name).read_text()
            once = DiGraph.from_json(text).to_json()
            assert DiGraph.from_json(once).to_json() == once == text

    def test_spec_json_fixpoint(self):
        from ligraph.cfmp import spec_from_json, spec_to_json

        for name in (
            "three_cycle_process.json",
            "home_visits_process.json",
            "independent_pair_process.json",
        ):
            text = (FIXTURES / name).read_text()
            once = spec_to_json(spec_from_json(text))
            assert spec_to_json(spec_from_json(once)) == once == text
