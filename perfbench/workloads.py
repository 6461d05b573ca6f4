"""The four workloads: item streams, warm-up and correctness gates.

A workload turns its generated inputs into an endless stream of items.
Item ``i`` belongs to size class ``PATTERN[i % len(PATTERN)]`` ("small",
"medium" or "large") and takes the next input of that class, so the
stream, and therefore every output, depends only on the seed.  The first
round (``len(PATTERN)`` items) is the reference prefix that every run
completes and that the reference digests cover.

The benchmark reaches ligraph through module attributes (``separation.
delta_separates_masks``, ``cli.main``) so that the traced run's wrappers
see every call.  Gates check each item's output right after its timed
region (``finish_item``) and pooled properties after the last item
(``finish_run``), against references that share no code with the path
they check.  Only the prefix's outputs are kept, so memory does not grow
with the number of items a run completes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from pathlib import Path

from ligraph import cfmp, cli, graphoid, graphs, separation

CLASSES = ("small", "medium", "large")


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def _load_test_helpers(root: Path):
    """tests/helpers.py, the test suite's independent slow-path checker."""
    import importlib.util

    spec = importlib.util.spec_from_file_location(
        "ligraph_test_helpers", root / "tests" / "helpers.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class Workload:
    PATTERN: tuple[str, ...] = ()

    def __init__(self, inputs: dict, root: Path, workdir: Path):
        self.root = root
        self.workdir = workdir

    def locate(self, i: int) -> tuple[str, int]:
        """Size class of item i and its index within that class's stream."""
        r, pos = divmod(i, len(self.PATTERN))
        cls = self.PATTERN[pos]
        return cls, r * self.PATTERN.count(cls) + self.PATTERN[:pos].count(cls)

    def warmup(self) -> None:
        pass

    def prepare(self, i: int) -> None:
        """Per-input work that is not part of item i's own time."""

    def run_item(self, i: int):
        raise NotImplementedError

    def units(self, i: int) -> int:
        """Work units item i counts for in ``items_per_s``."""
        return 1

    def finish_item(self, i: int, record, seconds: float) -> tuple[float, bool]:
        """Item i's figure for its class's ``<class>_ms`` and whether its
        output passes the gates; runs outside the timed region."""
        return 1000.0 * seconds, self.item_ok(i, record)

    def item_ok(self, i: int, record) -> bool:
        return True

    def finish_run(self) -> set[int]:
        """Indices of items that fail a gate pooled over the whole run."""
        return set()

    def digest(self, records: dict) -> str | None:
        """Digest of the reference prefix's verdicts, or None when the
        workload's outputs are checked against fixed expectations instead."""
        return None

    def info(self) -> dict:
        return {}

    def close(self) -> None:
        pass


# --- dsep ---------------------------------------------------------------------


def _criterion2_triples(n: int) -> list[tuple[int, int, int]]:
    """Every pairwise disjoint (a, b, c) mask triple over n nodes: each node
    goes to a, b, c or none."""
    out = []
    for code in range(4 ** n):
        masks = [0, 0, 0, 0]
        for i in range(n):
            masks[(code >> (2 * i)) & 3] |= 1 << i
        out.append((masks[1], masks[2], masks[3]))
    return out


class Dsep(Workload):
    """Every disjoint triple of a 6-node digraph by both mask procedures,
    then ``all_separations`` on the label-level API."""

    PATTERN = ("small", "medium", "large")
    MAX_COND = 4  # n - 2: every covering statement

    def __init__(self, inputs, root, workdir):
        super().__init__(inputs, root, workdir)
        labels = inputs["labels"]
        self.pool = {
            cls: [graphs.DiGraph.from_json_dict({"nodes": labels, "edges": e}) for e in es]
            for cls, es in inputs["graphs"].items()
        }
        self.triples = _criterion2_triples(len(labels))
        # all_separations decides every triple with a and b nonempty
        self.enumerated = sum(1 for a, b, _ in self.triples if a and b)

    def _graph(self, i):
        cls, j = self.locate(i)
        pool = self.pool[cls]
        return pool[j % len(pool)]

    def warmup(self):
        for i in range(len(self.PATTERN)):
            g = self._graph(i)
            for a, b, c in self.triples[:512]:
                separation.delta_separates_masks(g, a, b, c)
                separation.delta_trail_masks(g, a, b, c)

    def units(self, i):
        return 2 * len(self.triples) + self.enumerated

    def run_item(self, i):
        g = self._graph(i)
        moral = bytearray(len(self.triples))
        trail = bytearray(len(self.triples))
        for t, (a, b, c) in enumerate(self.triples):
            moral[t] = separation.delta_separates_masks(g, a, b, c)
            trail[t] = separation.delta_trail_masks(g, a, b, c)
        found = separation.all_separations(g, self.MAX_COND)
        return g, bytes(moral), bytes(trail), found

    def item_ok(self, i, record):
        g, moral, trail, found = record
        want = {self.triples[t] for t, v in enumerate(moral) if v and all(self.triples[t][:2])}
        got = [(g.mask_of(q.a), g.mask_of(q.b), g.mask_of(q.c)) for q in found]
        return moral == trail and set(got) == want and len(got) == len(want)

    def digest(self, records):
        return _digest(
            [
                [moral.hex(), [[sorted(q.a), sorted(q.b), sorted(q.c)] for q in found]]
                for _, (g, moral, _t, found) in sorted(records.items())
            ]
        )


# --- axioms -------------------------------------------------------------------


class Axioms(Workload):
    """Truth table, the 10-axiom profile and all 7 derived properties of
    3-, 4- and 5-node digraphs under delta-separation."""

    PATTERN = ("large",) + ("medium",) * 8 + ("small",) * 2 + ("medium",) * 8 + ("small",) * 2
    # Items compared in full against tests/helpers.slow_check: the first
    # 4-node and the first two 3-node graphs of the stream.
    SLOW_CHECKED = (1, 9, 10)

    def __init__(self, inputs, root, workdir):
        super().__init__(inputs, root, workdir)
        self.pool = {
            cls: [
                graphs.DiGraph.from_json_dict({"nodes": inputs["labels"][cls], "edges": e})
                for e in es
            ]
            for cls, es in inputs["graphs"].items()
        }
        self.expected = {ax: True for ax in graphoid.DELTA_SEPARATION_GUARANTEES}

    def _graph(self, i):
        cls, j = self.locate(i)
        pool = self.pool[cls]
        return pool[j % len(pool)]

    def warmup(self):
        for labels in (tuple("abc"), tuple("abcd")):
            oracle = graphoid.delta_separation_oracle(graphs.DiGraph(labels))
            graphoid.check_semigraphoid_profile(oracle)

    def run_item(self, i):
        g = self._graph(i)
        oracle = graphoid.delta_separation_oracle(g)
        table = graphoid.build_truth_table(oracle)
        profile = graphoid.check_semigraphoid_profile(oracle, self.expected, table)
        derived = tuple(
            graphoid.check_derived(oracle, prop, table) for prop in graphoid.DerivedProperty
        )
        return g, profile, derived

    def item_ok(self, i, record):
        g, profile, derived = record
        reports = profile.reports + derived
        ok = profile.matches_expected is True and all(
            profile.report_for(ax).holds for ax in graphoid.DELTA_SEPARATION_GUARANTEES
        )
        oracle = graphoid.delta_separation_oracle(g)
        for r in reports:
            if r.counterexample is not None:
                ok = ok and graphoid.violates(oracle, r.prop, r.counterexample)
        if i in self.SLOW_CHECKED:
            slow_check = _load_test_helpers(self.root).slow_check
            for r in reports:
                ok = ok and (r.holds, r.counterexample, r.checked, r.skipped) == slow_check(
                    oracle, r.prop
                )
        return ok

    def digest(self, records):
        out = []
        for _, (g, profile, derived) in sorted(records.items()):
            out.append([r.to_json_dict() for r in profile.reports + derived])
        return _digest(out)


# --- decay --------------------------------------------------------------------


class Decay(Workload):
    """``ci_decay`` on derived edges and covering separated statements of
    binary-component specs with 64, 256 and 1024 product states, from the
    uniform and the stationary distribution."""

    PATTERN = ("large",) + ("medium",) * 2 + ("small",) * 8 + ("medium",) * 2 + ("small",) * 8
    EXPM_TOL = 1e-12

    def __init__(self, inputs, root, workdir):
        super().__init__(inputs, root, workdir)
        self.specs = {
            cls: [cfmp.spec_from_json_dict(s["spec"]) for s in specs]
            for cls, specs in inputs["specs"].items()
        }
        self.meta = inputs["specs"]
        # Per class: the flat report stream (spec, statement, distribution).
        self.stream = {
            cls: [
                (s, st, pi)
                for s, made in enumerate(specs)
                for st in range(len(made["statements"]))
                for pi in ("uniform", "stationary")
            ]
            for cls, specs in self.meta.items()
        }
        self.prepared: dict[str, tuple] = {}  # class -> (spec, graph, laws)
        self.items_of: dict[str, set[int]] = {}  # class -> items run

    def _report(self, i):
        cls, j = self.locate(i)
        stream = self.stream[cls]
        return cls, stream[j % len(stream)]

    def warmup(self):
        # The first dense products after start-up run several times slower
        # than steady state; pay that here, untimed.
        for cls in CLASSES:
            gen = cfmp.build_generator(self.specs[cls][0])
            for _ in range(2 if cls == "large" else 3):
                cfmp.transition_matrix(gen, 0.2)

    def prepare(self, i):
        cls, (s, _st, _pi) = self._report(i)
        if self.prepared.get(cls, (None,))[0] != s:
            spec = self.specs[cls][s]
            pis = {
                "uniform": cfmp.uniform_distribution(spec.space),
                "stationary": cfmp.stationary_distribution(cfmp.build_generator(spec)),
            }
            self.prepared[cls] = (s, cfmp.derive_graph(spec), pis)

    def run_item(self, i):
        cls, (s, st, pi) = self._report(i)
        spec = self.specs[cls][s]
        _, derived, pis = self.prepared[cls]
        source, target, kind = self.meta[cls][s]["statements"][st]
        cond = [n for n in spec.space.names if n not in (source, target)]
        report = cfmp.ci_decay(spec, pis[pi], target=target, source=source, cond=cond)
        return cls, s, st, pi, kind, report.decay_class, derived

    def item_ok(self, i, record):
        cls, s, st, pi, kind, decay_class, derived = record
        self.items_of.setdefault(cls, set()).add(i)
        source, target, _ = self.meta[cls][s]["statements"][st]
        declared = {(j, k) for k, deps in self.meta[cls][s]["deps"].items() for j in deps}
        names = self.specs[cls][s].space.names
        q = separation.SeparationQuery({source}, {target}, set(names) - {source, target})
        separated = separation.delta_separates(derived, q)
        return (
            set(derived.edges) == declared
            and separated == separation.delta_separates_trail(derived, q)
            and separated == (kind == "separated")
            and decay_class in (("fast", "zero") if kind == "separated" else ("slow",))
        )

    def finish_run(self):
        """On the first spec of every size run, ``transition_matrix`` must
        match scipy's ``expm``; otherwise every item of that size fails."""
        from scipy.linalg import expm

        failed = set()
        for cls, items in self.items_of.items():
            gen = cfmp.build_generator(self.specs[cls][0])
            got = cfmp.transition_matrix(gen, 0.2)
            if not float(abs(got - expm(gen.matrix * 0.2)).max()) < self.EXPM_TOL:
                failed |= items
        return failed

    def digest(self, records):
        return _digest([list(rec[:6]) for _, rec in sorted(records.items())])


# --- session ------------------------------------------------------------------


def _three_se(estimate: dict, spec_json: dict, min_exposure: float = 5.0):
    """(cells within 3 standard errors, well-exposed cells) of an estimate
    report against the spec's true rates (criterion 7)."""
    truth = {}
    for name, entry in spec_json["intensities"].items():
        deps = entry["depends_on"]
        for row in entry["table"]:
            given = tuple(row["given"][d] for d in deps)
            truth[(name, given, row["from"], row["to"])] = row["rate"]
    within = total = 0
    for name, comp in estimate["components"].items():
        deps = comp["depends_on"]
        for cell in comp["cells"]:
            if cell["exposure"] <= min_exposure:
                continue
            given = tuple(cell["given"][d] for d in deps)
            for dst, rate in cell["rates"].items():
                true_rate = truth[(name, given, cell["from"], int(dst))]
                total += 1
                if abs(rate - true_rate) <= 3 * math.sqrt(true_rate / cell["exposure"]):
                    within += 1
    return within, total


class Session(Workload):
    """The README walkthrough through ``cli.main``, plus simulate -> JSONL
    -> estimate on the 3-cycle fixture and a seeded 729-state spec."""

    # medium: 3-cycle simulate/estimate; large: the 729-state spec
    SIMULATE = {
        "medium": {"spec": "three_cycle", "horizon": "100", "count": 10},
        "large": {"spec": "big", "horizon": "20", "count": 10},
    }
    MIN_WITHIN = 0.99
    MIN_CELLS = 200

    def __init__(self, inputs, root, workdir, walkthrough: dict | None = None):
        super().__init__(inputs, root, workdir)
        if walkthrough is None:
            walkthrough = json.loads((Path(__file__).parent / "walkthrough.json").read_text())
        fixtures = str(root / "fixtures")
        workdir.mkdir(parents=True, exist_ok=True)
        self.big_path = workdir / "spec729.json"
        self.big_path.write_text(json.dumps(inputs["spec"], indent=2) + "\n")
        self.big_spec = cfmp.spec_from_json(self.big_path.read_text())
        self.inputs = inputs
        self.spec_paths = {
            "three_cycle": str(root / "fixtures" / "three_cycle_process.json"),
            "big": str(self.big_path),
        }
        self.spec_json = {k: json.loads(Path(p).read_text()) for k, p in self.spec_paths.items()}
        self.space = {
            "medium": cfmp.spec_from_json_dict(self.spec_json["three_cycle"]).space,
            "large": self.big_spec.space,
        }

        def fill(text):
            return text.replace("{fixtures}", fixtures).replace("{work}", str(workdir))

        self.light = []
        for c in walkthrough["commands"]:
            c = {**c, "argv": [fill(a) for a in c["argv"]]}
            if "stdout_file" in c:
                c["stdout_file"] = fill(c["stdout_file"])
            self.light.append(c)
        edges = sorted([j, k] for k, deps in inputs["deps"].items() for j in deps)
        self.light.append(
            {"argv": ["derive-graph", str(self.big_path)], "exit": 0, "edges": edges}
        )
        self.PATTERN = ("small",) * len(self.light) + ("medium", "large")
        # Pooled over the run: 3-SE counts, pipeline items and their rounds.
        self.within = self.total = 0
        self.pipelines: set[int] = set()
        self.rounds: dict[str, list[int]] = {}

    def _call(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return code, out.getvalue()

    def _prefix(self, cls, r):
        return str(self.workdir / f"{'first' if r == 0 else 'last'}_{cls}_")

    def _files(self, cls, r):
        prefix = self._prefix(cls, r)
        return [f"{prefix}{k:03d}.jsonl" for k in range(self.SIMULATE[cls]["count"])]

    def warmup(self):
        for c in self.light:
            self._call(c["argv"])

    def units(self, i):
        cls, _ = self.locate(i)
        return 1 if cls == "small" else 2

    def run_item(self, i):
        r, pos = divmod(i, len(self.PATTERN))
        cls = self.PATTERN[pos]
        if cls == "small":
            return ("small", pos) + self._call(self.light[pos]["argv"])
        sim = self.SIMULATE[cls]
        spec = self.spec_paths[sim["spec"]]
        seed = self.inputs["sim_seed"] + 1000 * r
        code1, _ = self._call(
            ["simulate", spec, "--horizon", sim["horizon"], "--seed", str(seed),
             "--count", str(sim["count"]), "--out-prefix", self._prefix(cls, r)]
        )
        code2, out = self._call(["estimate", *self._files(cls, r), "--spec", spec])
        return cls, r, code1 or code2, out

    def finish_item(self, i, record, seconds):
        """Light commands count in ms; pipelines in ms per 1000 jumps (the
        events in the estimate), so their figure does not depend on how far
        the seeded paths wander."""
        if record[0] == "small":
            _, pos, code, out = record
            return 1000.0 * seconds, self._light_ok(pos, code, out)
        cls, r, code, out = record
        self.pipelines.add(i)
        self.rounds.setdefault(cls, []).append(r)
        if code != 0:
            return 1000.0 * seconds, False
        estimate = json.loads(out)
        within, total = _three_se(estimate, self.spec_json[self.SIMULATE[cls]["spec"]])
        self.within += within
        self.total += total
        jumps = sum(
            count
            for comp in estimate["components"].values()
            for cell in comp["cells"]
            for count in cell["events"].values()
        )
        return 1e6 * seconds / max(jumps, 1), True

    def _light_ok(self, pos, code, out) -> bool:
        c = self.light[pos]
        if code != c["exit"]:
            return False
        if "json" in c:
            got = json.loads(out)
            return all(got.get(k) == v for k, v in c["json"].items())
        if "contains" in c:
            return all(line in out.splitlines() for line in c["contains"])
        if "holds" in c:
            return {r["property"]: r["holds"] for r in json.loads(out)} == c["holds"]
        if "stdout_file" in c:
            return out == Path(c["stdout_file"]).read_text()
        if "edges" in c:
            return json.loads(out)["edges"] == c["edges"]
        return True

    def _jsonl_stable(self, cls, r) -> bool:
        space = self.space[cls]
        for path in self._files(cls, r):
            text = Path(path).read_text()
            if cfmp.trajectory_to_jsonl(cfmp.trajectory_from_jsonl(text, space), space) != text:
                return False
        return True

    def finish_run(self):
        """The 3-SE criterion pools every well-exposed cell of the run; the
        JSONL round trip is checked on the first and the last round."""
        ok = self.total >= self.MIN_CELLS and self.within >= self.MIN_WITHIN * self.total
        ok = ok and all(
            self._jsonl_stable(cls, r) for cls, rs in self.rounds.items() for r in {0, max(rs)}
        )
        return set() if ok else set(self.pipelines)

    def info(self):
        """Digest of the first round's 3-cycle trajectories; informational,
        since a declared change of the random stream may move it."""
        h = hashlib.sha256()
        for path in self._files("medium", 0):
            h.update(Path(path).read_bytes())
        return {"trajectory_digest": h.hexdigest()}

    def close(self):
        import shutil

        shutil.rmtree(self.workdir, ignore_errors=True)


WORKLOADS = {"dsep": Dsep, "axioms": Axioms, "decay": Decay, "session": Session}
