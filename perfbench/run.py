"""ligraph benchmark: one workload, one process, one item in flight.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload decay --seed 1 --seconds 35 --trace 0

Workloads are ``dsep``, ``axioms``, ``decay`` and ``session`` (see
perfbench/README.md).  The run makes its inputs from ``--seed``, sets up,
warms up untimed, then runs items in a closed loop for ``--seconds`` (and
at least the reference prefix), checks every output after the timed
region, and prints two JSON lines: the machine facts and digests, then the
result ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 1`` it instead runs a fixed number of items twice, untimed-
traced and traced, and reports the per-layer metrics and the tracing
overhead.  Exit code 0 means a result was printed; 2 means no result
(for example, no ligraph sources next to the benchmark).
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
NPROC = len(os.sched_getaffinity(0))  # what `nproc` reports
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 6  # extra set-ups in child processes; setup_s is the median
DEFAULT_SEED = 0  # the seed the reference digests were recorded with
# Rounds of the item pattern per second of --seconds in a traced run: the
# traced run does a fixed amount of work so its counters repeat exactly.
TRACE_ROUNDS_PER_S = {"dsep": 0.8, "axioms": 0.4, "decay": 0.14, "session": 0.8}


def cap_blas_threads() -> int:
    """Cap BLAS threads at nproc; must run before numpy is imported."""
    for var in BLAS_THREAD_VARS:
        try:
            current = int(os.environ.get(var, ""))
        except ValueError:
            current = NPROC
        os.environ[var] = str(max(1, min(current, NPROC)))
    return int(os.environ["OPENBLAS_NUM_THREADS"])


def _blas_runtime_threads():
    """Thread count reported by the loaded OpenBLAS, if it can be asked."""
    import ctypes

    try:
        maps = Path("/proc/self/maps").read_text().splitlines()
    except OSError:
        return None
    libs = {line.split()[-1] for line in maps if "openblas" in line.lower() and "/" in line}
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def machine_facts(blas_cap: int) -> dict:
    import numpy as np

    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    sources = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        sources.update(path.relative_to(ROOT).as_posix().encode())
        sources.update(path.read_bytes())
    return {
        "nproc": NPROC,
        "cpu_model": cpu or platform.processor(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_cap": blas_cap,
        "blas_threads": _blas_runtime_threads(),
        "commit": _commit(),
        "src_sha256": sources.hexdigest(),
    }


def _setup(workload: str, inputs: dict, workdir: Path, **kwargs):
    """Import ligraph and parse the inputs: the work setup_s measures.

    numpy is loaded first, outside the measurement: its import is most of
    the total (about 0.14 s of 0.21 s), no ligraph change moves it, and it
    swings with the machine's state far more than ligraph's own set-up."""
    import numpy  # noqa: F401

    t0 = time.perf_counter()
    import workloads

    w = workloads.WORKLOADS[workload](inputs, ROOT, workdir, **kwargs)
    return w, time.perf_counter() - t0


def _probe_setup(workload: str, seed: int) -> float:
    """Run the set-up once more in a fresh interpreter and return its time."""
    cmd = [
        sys.executable, str(Path(__file__)), "--setup-probe",
        "--workload", workload, "--seed", str(seed),
    ]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def _run_items(w, indices, stop=None):
    """Closed loop over the given item indices, each item's gates checked
    right after its timed region.  Returns each item's figure (ms), the
    failed indices, the prefix's records, the work units and the busy
    seconds (preparation and items, without the gates)."""
    figures, failed, prefix = {}, set(), {}
    units, busy = 0, 0.0
    for i in indices:
        t0 = t1 = time.perf_counter()
        record = None
        try:
            w.prepare(i)
            t1 = time.perf_counter()
            record = w.run_item(i)
        except Exception:
            traceback.print_exc(file=sys.stderr)
        t2 = time.perf_counter()
        busy += t2 - t0
        units += w.units(i)
        figures[i], ok = 1000.0 * (t2 - t1), False
        if record is not None:
            try:
                figures[i], ok = w.finish_item(i, record, t2 - t1)
            except Exception:
                traceback.print_exc(file=sys.stderr)
            if i < len(w.PATTERN):
                prefix[i] = record
        if not ok:
            failed.add(i)
        if stop is not None and stop(i, busy):
            break
    return figures, failed, prefix, units, busy


def _gate(w, workload, seed, figures, failed, prefix, reference) -> tuple[set, dict]:
    """Run-level gates and the reference digest; returns every failed
    index and the prefix digest."""
    failed = set(failed)
    try:
        failed |= w.finish_run()
    except Exception:
        traceback.print_exc(file=sys.stderr)
        failed |= set(figures)
    got = w.digest(prefix) if len(prefix) == len(w.PATTERN) else None
    want = reference["digests"].get(workload)
    if seed == reference["seed"] and want is not None and got != want:
        failed |= set(range(len(w.PATTERN)))
    return failed, {"prefix_digest": got}


def run(workload, seed, seconds, trace, reference=None, walkthrough=None):
    """Run one benchmark invocation in-process; returns (result, info)."""
    import inputs as gen

    if reference is None:
        reference = json.loads((HERE / "reference.json").read_text())
    extra = {"walkthrough": walkthrough} if walkthrough is not None else {}
    data = gen.generate(workload, seed)
    workdir = OUT / f"work-{workload}-{os.getpid()}"
    w, setup_first = _setup(workload, data, workdir, **extra)
    info = {}
    try:
        if trace:
            w.warmup()
            result = _traced(w, workload, seed, seconds, data, workdir, reference, extra, info)
        else:
            setups = [setup_first] + [_probe_setup(workload, seed) for _ in range(SETUP_PROBES)]
            info["setup_samples_s"] = setups
            w.warmup()
            result = _end_to_end(w, workload, seed, seconds, reference, info)
            result["metrics"]["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    finally:
        w.close()
    return result, info


def _end_to_end(w, workload, seed, seconds, reference, info):
    """The end-to-end run: timed closed loop, then the run-level gates."""
    minimum = len(w.PATTERN)
    figures, failed, prefix, units, busy = _run_items(
        w, itertools.count(), lambda i, busy: i + 1 >= minimum and busy >= seconds
    )
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failed, digests = _gate(w, workload, seed, figures, failed, prefix, reference)
    info.update(digests)
    info.update(w.info())
    per_class = {"small": [], "medium": [], "large": []}
    for i, ms in figures.items():
        per_class[w.locate(i)[0]].append(ms)
    info["items"] = {cls: len(v) for cls, v in per_class.items()}
    metrics = {
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        "items_per_s": {"value": units / busy, "unit": "1/s"},
    }
    # Means, not medians: this kind of host shifts its speed between levels
    # for seconds at a time, and a median then jumps between the levels
    # while a mean moves in proportion to the time spent at each.
    for cls, values in per_class.items():
        metrics[f"{cls}_ms"] = {"value": statistics.fmean(values), "unit": "ms"}
    return {
        "correct": not failed,
        "attempted": len(figures),
        "failed": len(failed),
        "metrics": metrics,
    }


def _traced(w, workload, seed, seconds, data, workdir, reference, extra, info):
    """The per-layer run: the same fixed items untraced, then traced."""
    import inputs as gen
    import tracing
    import workloads

    rounds = max(1, round(seconds * TRACE_ROUNDS_PER_S[workload]))
    indices = range(rounds * len(w.PATTERN))
    busy_plain = _run_items(w, indices)[4]
    w.close()
    w = workloads.WORKLOADS[workload](data, ROOT, workdir, **extra)
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        figures, failed, prefix, _, busy_traced = _run_items(w, indices)
        failed, digests = _gate(w, workload, seed, figures, failed, prefix, reference)
        tracing.census(
            tracing.missing_spans(tracer), gen.generate("census", seed), ROOT, workdir
        )
    finally:
        uninstall()
        w.close()
        shutil.rmtree(workdir, ignore_errors=True)  # the census's files
    info.update(digests)
    overhead = 100.0 * (busy_traced - busy_plain) / busy_plain
    info["trace"] = {"items": len(indices), "untraced_s": busy_plain, "traced_s": busy_traced}
    tracer.write(OUT / f"trace-{workload}-{seed}")
    return {
        "correct": not failed,
        "attempted": len(figures),
        "failed": len(failed),
        "metrics": tracing.layer_metrics(tracer, overhead),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("dsep", "axioms", "decay", "session"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "ligraph" / "__init__.py").is_file():
        print(f"error: no ligraph sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    blas_cap = cap_blas_threads()
    sys.path.insert(0, str(ROOT / "src"))

    if args.setup_probe:
        import inputs as gen

        data = gen.generate(args.workload, args.seed)
        workdir = OUT / f"probe-{os.getpid()}"
        w, elapsed = _setup(args.workload, data, workdir)
        w.close()
        print(elapsed)
        return 0

    result, info = run(args.workload, args.seed, args.seconds, args.trace)
    facts = machine_facts(blas_cap)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": facts,
        **info,
        "result": result,
    }
    OUT.mkdir(exist_ok=True)
    name = f"result-{args.workload}-{args.seed}-{args.trace}-{os.getpid()}.json"
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"machine": facts, **info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
