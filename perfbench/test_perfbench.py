"""The benchmark's own tests.  Run from the repository root with

    python3 -m pytest perfbench -q

They check that inputs depend only on the seed, that the gates can fail,
and that the traced run reports every per-layer metric of BENCHMARK.json.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import inputs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
REFERENCE = json.loads((HERE / "reference.json").read_text())
WALKTHROUGH = json.loads((HERE / "walkthrough.json").read_text())
WORKLOADS = ["dsep", "axioms", "decay", "session"]


def _run(workload, trace=0, **kwargs):
    result, info = run.run(workload, run.DEFAULT_SEED, 0.0, trace, **kwargs)
    assert result["attempted"] >= 1
    return result, info


def test_same_seed_gives_byte_identical_inputs():
    code = (
        "import hashlib, sys; sys.path.insert(0, sys.argv[1]); import inputs; "
        "print([hashlib.sha256(inputs.inputs_bytes(w, 7)).hexdigest() "
        "for w in sorted(inputs.GENERATORS)])"
    )
    outs = set()
    for hash_seed in ("1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": hash_seed}
        done = subprocess.run(
            [sys.executable, "-c", code, str(HERE)],
            capture_output=True, text=True, env=env, check=True,
        )
        outs.add(done.stdout)
    assert len(outs) == 1
    for w in inputs.GENERATORS:
        assert inputs.inputs_bytes(w, 7) != inputs.inputs_bytes(w, 8)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_default_seed_passes_every_gate(workload):
    result, info = _run(workload)
    assert result["correct"] and result["failed"] == 0
    want = REFERENCE["digests"].get(workload)
    if want is not None:
        assert info["prefix_digest"] == want
    names = {m["name"] for m in BENCHMARK["end_to_end"]}
    assert set(result["metrics"]) == names
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", ["dsep", "axioms"])
def test_flipped_reference_digest_fails_the_prefix(workload):
    planted = json.loads(json.dumps(REFERENCE))
    digest = planted["digests"][workload]
    planted["digests"][workload] = digest[:-1] + ("0" if digest[-1] != "0" else "1")
    result, _ = _run(workload, reference=planted)
    assert result["failed"] > 0 and not result["correct"]


def test_tampered_walkthrough_fails_the_session():
    planted = json.loads(json.dumps(WALKTHROUGH))
    planted["commands"][0]["json"]["separated"] = True  # README says false
    result, _ = _run("session", walkthrough=planted)
    assert result["failed"] > 0 and not result["correct"]


def test_wrong_program_answer_fails_the_dsep_gate(monkeypatch):
    from ligraph import separation

    honest = separation.delta_trail_masks

    def lying(g, a, b, c):
        verdict = honest(g, a, b, c)
        return (not verdict) if (a, b, c) == (1, 2, 4) else verdict

    monkeypatch.setattr(separation, "delta_trail_masks", lying)
    result, _ = _run("dsep")
    assert result["failed"] > 0


def test_traced_run_reports_every_layer_metric_and_repeats_counts():
    per_layer = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert per_layer == {k: unit for k, (unit, _) in tracing.LAYER_METRICS.items()}
    first, info = _run("dsep", trace=1)
    second, _ = _run("dsep", trace=1)
    assert first["correct"] and second["correct"]
    assert {k: m["unit"] for k, m in first["metrics"].items()} == per_layer
    for name, (unit, how) in tracing.LAYER_METRICS.items():
        if unit in ("us", "ms"):
            assert first["metrics"][name]["value"] > 0, name
        if how["kind"] == "count":
            assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
    stem = run.OUT / f"trace-dsep-{run.DEFAULT_SEED}"
    index = json.loads(stem.with_suffix(".json").read_text())
    assert stem.with_suffix(".spans").stat().st_size == 22 * index["spans"]


def test_benchmark_json_follows_the_contract():
    assert set(BENCHMARK) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert {w["name"] for w in BENCHMARK["workloads"]} == {"axioms", "decay", "session"}
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert all(m["bound"] <= setup["bound"] <= 0.25 for m in BENCHMARK["end_to_end"])
