"""Command-line front end.

Commands: dsep, moralize, axioms, derive-graph, ci-check, simulate,
estimate.  Reports are UTF-8 JSON on stdout, diagnostics on stderr.
Exit codes: 0 on success (a negative dsep verdict is still success),
1 when the two separation methods disagree or a guaranteed axiom fails,
2 on errors (parse failures, unknown nodes, invalid specs, guards).
"""

from __future__ import annotations

import argparse
import json
import sys

from . import separation as _separation
from .cfmp import (
    DEFAULT_HS,
    build_generator,
    ci_decay,
    derive_graph,
    estimate_intensities,
    simulate_batch,
    spec_from_json,
    stationary_distribution,
    trajectory_from_jsonl,
    trajectory_to_jsonl,
    uniform_distribution,
    vacuous_dependencies,
)
from .graphs import DiGraph, GraphError
from .graphoid import (
    DELTA_SEPARATION_GUARANTEES,
    DerivedProperty,
    build_truth_table,
    check_derived,
    check_semigraphoid_profile,
    delta_separation_oracle,
)
from .separation import SeparationQuery


def _names(text: str | None) -> frozenset[str]:
    return frozenset((text or "").split())


def _load_graph(path: str) -> DiGraph:
    with open(path, "r", encoding="utf-8") as fh:
        return DiGraph.from_json(fh.read())


def _load_spec(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return spec_from_json(fh.read())


def _initial_distribution(spec, kind: str):
    if kind == "stationary":
        return stationary_distribution(build_generator(spec))
    return uniform_distribution(spec.space)


def _emit(obj) -> None:
    print(json.dumps(obj, indent=2))


def cmd_dsep(args) -> int:
    g = _load_graph(args.graph)
    query = SeparationQuery(_names(args.a), _names(args.b), _names(args.c))
    reduced = query.reduced()
    reduced_json = {
        "a": sorted(reduced.a),
        "b": sorted(reduced.b),
        "c": sorted(reduced.c),
    }
    if args.method == "both":
        moral = _separation.delta_separates(g, query)
        trail = _separation.delta_separates_trail(g, query)
        _emit(
            {
                "separated": moral if moral == trail else None,
                "method": "both",
                "moral": moral,
                "trail": trail,
                "agree": moral == trail,
                "reduced_query": reduced_json,
            }
        )
        if moral != trail:
            print("error: separation methods disagree", file=sys.stderr)
            return 1
        return 0
    if args.method == "trail":
        verdict = _separation.delta_separates_trail(g, query)
    else:
        verdict = _separation.delta_separates(g, query)
    _emit(
        {"separated": verdict, "method": args.method, "reduced_query": reduced_json}
    )
    return 0


def cmd_moralize(args) -> int:
    g = _load_graph(args.graph)
    if args.delete_out is not None:
        g = g.delete_out_edges(_names(args.delete_out))
    if args.ancestral_of is not None:
        g = g.induced_subgraph(g.ancestral_set(_names(args.ancestral_of)))
    sys.stdout.write(g.moralize().to_dot())
    return 0


def cmd_axioms(args) -> int:
    g = _load_graph(args.graph)
    oracle = delta_separation_oracle(g)
    table = build_truth_table(oracle)
    expected = {ax: True for ax in DELTA_SEPARATION_GUARANTEES}
    profile = check_semigraphoid_profile(oracle, expected=expected, table=table)
    reports = [r.to_json_dict() for r in profile.reports]
    if args.derived:
        reports += [
            check_derived(oracle, prop, table).to_json_dict()
            for prop in DerivedProperty
        ]
    _emit(reports)
    return 0 if profile.matches_expected else 1


def cmd_derive_graph(args) -> int:
    spec = _load_spec(args.spec)
    derived = derive_graph(spec)
    for j, k in vacuous_dependencies(spec):
        print(f"warning: vacuous dependency {j} -> {k} (no edge emitted)", file=sys.stderr)
    sys.stdout.write(derived.to_json())
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(derived.to_dot())
    return 0


def cmd_ci_check(args) -> int:
    spec = _load_spec(args.spec)
    pi = _initial_distribution(spec, args.pi)
    hs = tuple(float(x) for x in args.hs.split()) if args.hs is not None else DEFAULT_HS
    report = ci_decay(
        spec, pi, target=args.target, source=args.source, cond=_names(args.cond), hs=hs
    )
    _emit(report.to_json_dict())
    return 0


def cmd_simulate(args) -> int:
    spec = _load_spec(args.spec)
    pi = _initial_distribution(spec, args.pi)
    trajectories = simulate_batch(spec, pi, args.horizon, args.seed, args.count)
    paths = []
    for i, traj in enumerate(trajectories):
        path = f"{args.out_prefix}{i:03d}.jsonl"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(trajectory_to_jsonl(traj, spec.space))
        paths.append(path)
    _emit(
        {
            "files": paths,
            "count": args.count,
            "seed": args.seed,
            "horizon": args.horizon,
        }
    )
    return 0


def cmd_estimate(args) -> int:
    spec = _load_spec(args.spec)
    trajectories = []
    for path in args.trajectories:
        with open(path, "r", encoding="utf-8") as fh:
            trajectories.append(trajectory_from_jsonl(fh.read(), spec.space))
    _emit(estimate_intensities(trajectories, spec).to_json_dict())
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ligraph",
        description="Local independence graphs: separation queries, axiom "
        "suites, graph derivation, decay checks, and simulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dsep", help="asymmetric separation query")
    p.add_argument("graph", help="graph JSON file")
    p.add_argument("--a", default="", help="space-separated source-side nodes")
    p.add_argument("--b", default="", help="space-separated predicted nodes")
    p.add_argument("--c", default="", help="space-separated conditioning nodes")
    p.add_argument("--method", choices=("moral", "trail", "both"), default="moral")
    p.set_defaults(func=cmd_dsep)

    p = sub.add_parser("moralize", help="moral graph as undirected DOT")
    p.add_argument("graph")
    p.add_argument("--delete-out", dest="delete_out", default=None,
                   help="delete edges starting in these nodes first")
    p.add_argument("--ancestral-of", dest="ancestral_of", default=None,
                   help="restrict to the ancestral set of these nodes")
    p.set_defaults(func=cmd_moralize)

    p = sub.add_parser("axioms", help="asymmetric graphoid profile of a graph")
    p.add_argument("graph")
    p.add_argument("--derived", action="store_true", help="also check derived properties")
    p.set_defaults(func=cmd_axioms)

    p = sub.add_parser("derive-graph", help="independence graph of a process spec")
    p.add_argument("spec", help="process spec JSON file")
    p.add_argument("--dot", default=None, help="also write directed DOT here")
    p.set_defaults(func=cmd_derive_graph)

    p = sub.add_parser("ci-check", help="conditional-information decay report")
    p.add_argument("spec")
    p.add_argument("--target", required=True)
    p.add_argument("--source", required=True)
    p.add_argument("--cond", default="", help="space-separated conditioning components")
    p.add_argument("--hs", default=None, help="space-separated window lengths")
    p.add_argument("--pi", choices=("uniform", "stationary"), default="uniform")
    p.set_defaults(func=cmd_ci_check)

    p = sub.add_parser("simulate", help="sample trajectories to JSONL files")
    p.add_argument("spec")
    p.add_argument("--horizon", type=float, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--out-prefix", dest="out_prefix", required=True,
                   help="trajectory files are written as <prefix><idx>.jsonl")
    p.add_argument("--pi", choices=("uniform", "stationary"), default="uniform")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("estimate", help="occurrence/exposure rate estimates")
    p.add_argument("trajectories", nargs="*", help="trajectory JSONL files")
    p.add_argument("--spec", required=True, help="process spec JSON (dependency shape)")
    p.set_defaults(func=cmd_estimate)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (GraphError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
