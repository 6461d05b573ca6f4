"""Spans and counters for the traced run.

Timing wrappers are installed from here, around the public names one
ligraph layer imports from another (and the names the benchmark itself
calls), by replacing module and class attributes for the duration of the
traced run.  Spans are kept in memory as compact columns (name, start,
end, parent) and written out at the end; a span's self time is its
duration minus the time its child spans cover.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import time
from array import array
from collections import defaultdict
from pathlib import Path

SIZES = (64, 256, 1024)
CLI_COMMANDS = (
    "dsep", "moralize", "axioms", "derive-graph", "ci-check", "simulate", "estimate",
)
PROPERTIES = (
    "left_redundancy", "right_redundancy", "left_decomposition",
    "right_decomposition", "left_weak_union", "right_weak_union",
    "left_contraction", "right_contraction", "left_intersection",
    "right_intersection", "left_trim", "right_trim",
    "left_disjoint_intersection", "right_disjoint_intersection",
    "shifted_right_decomposition", "overlap_tolerant_intersection",
    "guarded_right_decomposition",
)


def _per_call(span: str, scale: float) -> dict:
    return {"kind": "per_call", "span": span, "scale": scale}


def _per_jump(span: str) -> dict:
    return {"kind": "per_jump", "span": span, "scale": 1e-3}


def _count(counter: str) -> dict:
    return {"kind": "count", "counter": counter}


US, MS = 1e-3, 1e-6  # nanoseconds to microseconds / milliseconds

# Per-layer metric name -> (unit, how it is computed).  Time metrics are the
# mean inclusive duration of every span of that name.
LAYER_METRICS: dict[str, tuple[str, dict]] = {
    "graphs.ancestral_mask_us": ("us", _per_call("graphs.ancestral_mask", US)),
    "graphs.moral_adjacency_us": ("us", _per_call("graphs.moral_adjacency", US)),
    "graphs.u_separated_us": ("us", _per_call("graphs.u_separated", US)),
    "graphs.digraph_build_us": ("us", _per_call("graphs.digraph_build", US)),
    "separation.moral_us": ("us", _per_call("separation.moral", US)),
    "separation.trail_us": ("us", _per_call("separation.trail", US)),
    "separation.all_separations_ms": ("ms", _per_call("separation.all_separations", MS)),
    "separation.queries": ("count", _count("separation.queries")),
    "graphoid.truth_table_ms": ("ms", _per_call("graphoid.truth_table", MS)),
    "graphoid.oracle_calls": ("count", _count("graphoid.oracle_calls")),
    "graphoid.profile_ms": ("ms", _per_call("graphoid.profile", MS)),
    **{
        f"graphoid.check_ms.{p}": ("ms", _per_call(f"graphoid.check.{p}", MS))
        for p in PROPERTIES
    },
    "graphoid.instances_checked": ("count", _count("graphoid.instances_checked")),
    "graphoid.instances_skipped": ("count", _count("graphoid.instances_skipped")),
    "graphoid.replay_ms": ("ms", _per_call("graphoid.replay", MS)),
    **{
        f"cfmp.{what}_ms.{n}": ("ms", _per_call(f"cfmp.{what}.{n}", MS))
        for what in ("generator", "transition", "stationary")
        for n in SIZES
    },
    "cfmp.validate_ms": ("ms", _per_call("cfmp.validate", MS)),
    "cfmp.derive_graph_ms": ("ms", _per_call("cfmp.derive_graph", MS)),
    "cfmp.simulate_us_per_jump": ("us", _per_jump("cfmp.simulate")),
    "cfmp.to_jsonl_us_per_jump": ("us", _per_jump("cfmp.to_jsonl")),
    "cfmp.from_jsonl_us_per_jump": ("us", _per_jump("cfmp.from_jsonl")),
    "cfmp.estimate_us_per_jump": ("us", _per_jump("cfmp.estimate")),
    "cfmp.jumps": ("count", _count("cfmp.jumps")),
    "cfmp.zero_exposure_cells": ("count", _count("cfmp.zero_exposure_cells")),
    **{f"cli.{c}_ms": ("ms", _per_call(f"cli.{c}", MS)) for c in CLI_COMMANDS},
    "trace.overhead_pct": ("%", {"kind": "overhead"}),
}


class Tracer:
    """In-memory span recorder plus named counters."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self._stack: list[int] = []
        self.counters: dict[str, int] = defaultdict(int)

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, fn, name, on_result=None):
        """``fn`` recording one span per call.  ``name`` is a string or a
        function of the call's arguments; ``on_result(tracer, args,
        kwargs, result)`` updates counters after the call."""
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name if isinstance(name, str) else name(*args, **kwargs)
            idx = len(self.start)
            self.name_id.append(self._id(label))
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.end.append(0)
            self._stack.append(idx)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                self._stack.pop()
            if on_result is not None:
                on_result(self, args, kwargs, result)
            return result

        return traced

    def count(self, counter: str, by: int = 1) -> None:
        self.counters[counter] += by

    def span_totals(self) -> dict[str, dict]:
        """Per span name: calls, total and self time in nanoseconds."""
        import numpy as np

        names = np.frombuffer(self.name_id, dtype=np.uint16)
        dur = np.frombuffer(self.end, dtype=np.int64) - np.frombuffer(self.start, dtype=np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        k = len(self.names)
        calls = np.bincount(names, minlength=k)
        total = np.bincount(names, weights=dur, minlength=k)
        own = np.bincount(names, weights=dur - child, minlength=k)
        return {
            name: {"calls": int(calls[i]), "total_ns": int(total[i]), "self_ns": int(own[i])}
            for i, name in enumerate(self.names)
        }

    def write(self, stem: Path) -> None:
        """Write the spans as four binary columns (``<stem>.spans``: uint16
        name ids, int64 start and end in ns, int32 parent index, each
        column whole in that order) and a JSON index (``<stem>.json``)
        with the name table, per-name totals and the counters."""
        stem.parent.mkdir(parents=True, exist_ok=True)
        with open(stem.with_suffix(".spans"), "wb") as fh:
            for column in (self.name_id, self.start, self.end, self.parent):
                column.tofile(fh)
        doc = {
            "spans": len(self.start),
            "names": self.names,
            "columns": [["name", "uint16"], ["start_ns", "int64"],
                        ["end_ns", "int64"], ["parent", "int32"]],
            "totals": self.span_totals(),
            "counters": dict(self.counters),
        }
        with open(stem.with_suffix(".json"), "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)


def layer_metrics(tracer: Tracer, overhead_pct: float) -> dict[str, dict]:
    totals = tracer.span_totals()
    out = {}
    for metric, (unit, how) in LAYER_METRICS.items():
        kind = how["kind"]
        if kind == "count":
            value = tracer.counters.get(how["counter"], 0)
        elif kind == "overhead":
            value = overhead_pct
        else:
            rec = totals.get(how["span"], {"calls": 0, "total_ns": 0})
            if kind == "per_call":
                base = rec["calls"]
            else:
                base = tracer.counters.get(f"{how['span']}.jumps", 0)
            value = rec["total_ns"] * how["scale"] / base if base else 0.0
        out[metric] = {"value": value, "unit": unit}
    return out


def missing_spans(tracer: Tracer) -> set[str]:
    """Spans behind a time metric that no call has produced yet."""
    have = set(tracer.names)
    return {
        how["span"]
        for _, how in LAYER_METRICS.values()
        if "span" in how and how["span"] not in have
    }


# --- installation ------------------------------------------------------------


def _n_states(spec) -> int:
    return spec.space.n_states


def install(tracer: Tracer):
    """Wrap the layer boundaries; returns a function that restores them."""
    from ligraph import cfmp, cli, graphoid, graphs, separation

    def on_query(t, args, kwargs, result):
        t.count("separation.queries")

    def on_report(t, args, kwargs, result):
        t.count("graphoid.instances_checked", result.checked)
        t.count("graphoid.instances_skipped", result.skipped)

    def counting_oracle(t, oracle):
        query = oracle.query

        def counted(a, b, c):
            t.count("graphoid.oracle_calls")
            return query(a, b, c)

        return dataclasses.replace(oracle, query=counted)

    def on_simulate(t, args, kwargs, result):
        jumps = sum(len(tr.jumps) for tr in result)
        t.count("cfmp.jumps", jumps)
        t.count("cfmp.simulate.jumps", jumps)

    def on_to_jsonl(t, args, kwargs, result):
        t.count("cfmp.to_jsonl.jumps", len(args[0].jumps))

    def on_from_jsonl(t, args, kwargs, result):
        t.count("cfmp.from_jsonl.jumps", len(result.jumps))

    def on_estimate(t, args, kwargs, result):
        t.count("cfmp.estimate.jumps", sum(len(tr.jumps) for tr in args[0]))
        t.count(
            "cfmp.zero_exposure_cells",
            sum(
                1
                for cells in result.cells.values()
                for cell in cells.values()
                if cell.exposure == 0
            ),
        )

    def check_name(oracle, prop, table=None):
        return f"graphoid.check.{prop.value}"

    def expm_name(q, h):
        if h == 0.2:
            return f"cfmp.transition.{q.shape[0]}"
        return "cfmp.expm"

    plan = [
        (graphs.DiGraph, "ancestral_mask", "graphs.ancestral_mask", None),
        (graphs.DiGraph, "__init__", "graphs.digraph_build", None),
        (graphs, "moral_adjacency", "graphs.moral_adjacency", None),
        (separation, "moral_adjacency", "graphs.moral_adjacency", None),
        (separation, "u_separated_masks", "graphs.u_separated", None),
        (separation, "delta_separates_masks", "separation.moral", on_query),
        (graphoid, "delta_separates_masks", "separation.moral", on_query),
        (separation, "delta_trail_masks", "separation.trail", on_query),
        (separation, "all_separations", "separation.all_separations", None),
        (graphoid, "build_truth_table", "graphoid.truth_table", None),
        (cli, "build_truth_table", "graphoid.truth_table", None),
        (graphoid, "check_semigraphoid_profile", "graphoid.profile", None),
        (cli, "check_semigraphoid_profile", "graphoid.profile", None),
        (graphoid, "check_axiom", check_name, on_report),
        (graphoid, "check_derived", check_name, on_report),
        (cli, "check_derived", check_name, on_report),
        (graphoid, "violates", "graphoid.replay", None),
        (cfmp, "validate_spec", "cfmp.validate", None),
        (cfmp, "derive_graph", "cfmp.derive_graph", None),
        (cli, "derive_graph", "cfmp.derive_graph", None),
        (cfmp, "build_generator", lambda spec: f"cfmp.generator.{_n_states(spec)}", None),
        (cli, "build_generator", lambda spec: f"cfmp.generator.{_n_states(spec)}", None),
        (cfmp, "_expm_uniformized", expm_name, None),
        (cfmp, "stationary_distribution",
         lambda gen: f"cfmp.stationary.{gen.matrix.shape[0]}", None),
        (cli, "stationary_distribution",
         lambda gen: f"cfmp.stationary.{gen.matrix.shape[0]}", None),
        (cfmp, "ci_decay", "cfmp.ci_decay", None),
        (cli, "ci_decay", "cfmp.ci_decay", None),
        (cfmp, "simulate_batch", "cfmp.simulate", on_simulate),
        (cli, "simulate_batch", "cfmp.simulate", on_simulate),
        (cfmp, "trajectory_to_jsonl", "cfmp.to_jsonl", on_to_jsonl),
        (cli, "trajectory_to_jsonl", "cfmp.to_jsonl", on_to_jsonl),
        (cfmp, "trajectory_from_jsonl", "cfmp.from_jsonl", on_from_jsonl),
        (cli, "trajectory_from_jsonl", "cfmp.from_jsonl", on_from_jsonl),
        (cfmp, "estimate_intensities", "cfmp.estimate", on_estimate),
        (cli, "estimate_intensities", "cfmp.estimate", on_estimate),
        (cli, "main", lambda argv: f"cli.{argv[0]}", None),
    ]
    saved = []
    for owner, attr, name, on_result in plan:
        original = owner.__dict__[attr]
        saved.append((owner, attr, original))
        setattr(owner, attr, tracer.wrap(original, name, on_result))
    for owner in (graphoid, cli):
        original = owner.__dict__["delta_separation_oracle"]
        saved.append((owner, "delta_separation_oracle", original))
        setattr(
            owner,
            "delta_separation_oracle",
            functools.wraps(original)(
                lambda g, _orig=original: counting_oracle(tracer, _orig(g))
            ),
        )

    def uninstall():
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

    return uninstall


# --- census ------------------------------------------------------------------


def census(missing: set[str], inputs: dict, root: Path, workdir: Path) -> None:
    """Call, once each on small seeded inputs, the layers behind the spans
    in ``missing``: the ones the workload itself never reaches.  This keeps
    every per-layer metric a measured time on every workload."""
    import contextlib
    import io

    from ligraph import cfmp, cli, graphoid, graphs, separation

    def wanted(*prefixes):
        return any(s.startswith(prefixes) for s in missing)

    if wanted("graphs.", "separation.moral", "separation.trail"):
        g5 = graphs.DiGraph.from_json_dict({"nodes": list("abcde"), "edges": inputs["graph5"]})
        g5.moralize()
        for a in (1, 3, 5):
            for b in (8, 16, 24):
                separation.delta_separates_masks(g5, a, b, 2)
                separation.delta_trail_masks(g5, a, b, 2)
    if wanted("separation.all_separations"):
        g4 = graphs.DiGraph.from_json_dict({"nodes": list("abcd"), "edges": inputs["graph4"]})
        separation.all_separations(g4, 2)
    if wanted("graphoid."):
        g3 = graphs.DiGraph.from_json_dict({"nodes": list("abc"), "edges": inputs["graph3"]})
        oracle = graphoid.delta_separation_oracle(g3)
        table = graphoid.build_truth_table(oracle)
        reports = graphoid.check_semigraphoid_profile(oracle, None, table).reports + tuple(
            graphoid.check_derived(oracle, p, table) for p in graphoid.DerivedProperty
        )
        for r in reports:
            if r.counterexample is not None:
                graphoid.violates(oracle, r.prop, r.counterexample)
        graphoid.violates(oracle, graphoid.Axiom.LEFT_REDUNDANCY, {"A": frozenset("a")})
    for n in SIZES:
        if wanted(f"cfmp.generator.{n}", f"cfmp.transition.{n}", f"cfmp.stationary.{n}"):
            spec = cfmp.spec_from_json_dict(inputs["specs"][str(n)])
            gen = cfmp.build_generator(spec)
            cfmp.transition_matrix(gen, 0.2)
            cfmp.stationary_distribution(gen)
    if wanted("cfmp.validate", "cfmp.derive_graph"):
        cfmp.derive_graph(cfmp.spec_from_json_dict(inputs["specs"]["64"]))
    fixtures = root / "fixtures"
    if wanted("cfmp.simulate", "cfmp.to_jsonl", "cfmp.from_jsonl", "cfmp.estimate"):
        spec = cfmp.spec_from_json((fixtures / "three_cycle_process.json").read_text())
        trajs = cfmp.simulate_batch(
            spec, cfmp.uniform_distribution(spec.space), 20.0, inputs["sim_seed"], 2
        )
        texts = [cfmp.trajectory_to_jsonl(t, spec.space) for t in trajs]
        back = [cfmp.trajectory_from_jsonl(t, spec.space) for t in texts]
        cfmp.estimate_intensities(back, spec)
    if wanted("cli."):
        workdir.mkdir(parents=True, exist_ok=True)
        graph = str(fixtures / "three_cycle_graph.json")
        proc = str(fixtures / "three_cycle_process.json")
        prefix = str(workdir / "census_")
        commands = {
            "dsep": ["dsep", graph, "--a", "b", "--b", "a", "--c", "c"],
            "moralize": ["moralize", graph],
            "axioms": ["axioms", graph],
            "derive-graph": ["derive-graph", proc],
            "ci-check": ["ci-check", proc, "--target", "a", "--source", "b", "--cond", "c"],
            "simulate": ["simulate", proc, "--horizon", "10", "--seed",
                         str(inputs["sim_seed"]), "--out-prefix", prefix],
            "estimate": ["estimate", f"{prefix}000.jsonl", "--spec", proc],
        }
        for command, argv in commands.items():
            if f"cli.{command}" in missing or command == "simulate":
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                    cli.main(argv)
