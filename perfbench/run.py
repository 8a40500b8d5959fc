"""smoothrq benchmark: time one workload end to end, or trace it layer by layer.

Run from the repository root:

    python3 perfbench/run.py --workload synth-n400 --seed 1 --seconds 20 --trace 0

--trace 0 measures the end-to-end metrics: the median wall time of a request
(solve_s), the median fresh-process set-up time (setup_s) and the peak
resident memory (peak_rss_mb).  --trace 1 replays request 0, first plain and
then with every public smoothrq function wrapped, and reports the per-layer
metrics of bench_layers.PER_LAYER.  Both modes check every result outside the
timed region and print, as the last line, one JSON object with the keys
correct, attempted, failed and metrics.  A run record (versions, BLAS, CPU
count, commit, source size, samples) goes to .perfbench_out/.

The benchmark imports smoothrq from src/ next to this directory and exits
with status 2 when it is not there.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("synth-n400", "swiss-999", "rrq-n1000")
SETUP_RUNS = 5  # fresh processes per run; setup_s is their median
MIN_SAMPLES = 3  # requests timed even when --seconds is already spent
MIN_TRACED = 2  # traced replays, so counters are compared at least once

END_TO_END = {"solve_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}


def fail(message: str):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_smoothrq():
    """Import smoothrq from this checkout's src/ and nowhere else."""
    package = SRC / "smoothrq"
    if not (package / "__init__.py").is_file():
        fail(f"no smoothrq sources at {package}")
    sys.path[:0] = [str(SRC), str(HERE)]
    import smoothrq

    if Path(smoothrq.__file__).resolve().parent != package.resolve():
        fail(f"smoothrq imported from {smoothrq.__file__}, not {package}")


def measure_setup(workload: str, seed: int) -> list[float]:
    """Wall time of fresh processes that import smoothrq and build request 0's data."""
    code = (f"import sys; sys.path[:0] = [{str(SRC)!r}, {str(HERE)!r}]\n"
            "import smoothrq.cli, bench_workloads\n"
            f"bench_workloads.make_workloads(None)[{workload!r}].setup({seed})\n")
    times = []
    for _ in range(SETUP_RUNS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True,
                       stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return times


def timed(wl, inputs):
    t0 = time.perf_counter()
    raw = wl.solve(inputs)
    return raw, time.perf_counter() - t0


def loop(deadline: float, minimum: int, body) -> list:
    """Call body(i) until `deadline` seconds have passed and `minimum` calls are made."""
    out = []
    start = time.perf_counter()
    while len(out) < minimum or time.perf_counter() - start < deadline:
        out.append(body(len(out)))
    return out


def check_runs(runs) -> tuple[int, int, list[str]]:
    """(levels attempted, levels failed, what failed) over (input key, result) pairs.

    Results for the same inputs must be byte-identical; a result that
    differs from the first for its key fails on every level.  Each distinct
    input is checked once.
    """
    from bench_workloads import check_families

    first: dict = {}
    verdict: dict = {}
    attempted = failed = 0
    notes = []
    for key, (families, levels, blob) in runs:
        attempted += levels
        if first.setdefault(key, blob) != blob:
            failed += levels
            notes.append(f"request {key}: output differs from an earlier run of the same inputs")
            continue
        if key not in verdict:
            verdict[key] = check_families(families)
            notes += [f"request {key}: {label} failed at levels {sorted(levels)}"
                      for label, levels in verdict[key].items()]
        failed += sum(len(levels) for levels in verdict[key].values())
    return attempted, failed, notes


def tail(samples: list[float]):
    """(percentile, value) of the highest percentile with ten samples beyond it."""
    n = len(samples)
    if n <= 10:
        return None
    rank = n - 10
    return 100.0 * rank / n, sorted(samples)[rank - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def run_plain(wl, seed: int, seconds: float) -> dict:
    inputs = wl.inputs(seed, 0)
    runs = [(wl.key(seed, 0), wl.collect(inputs, wl.solve(inputs)))]  # warm-up
    samples = []

    def request(i):
        inputs = wl.inputs(seed, i)
        raw, dt = timed(wl, inputs)
        samples.append(dt)
        runs.append((wl.key(seed, i), wl.collect(inputs, raw)))

    loop(seconds, MIN_SAMPLES, request)
    peak = peak_rss_mb()
    attempted, failed, notes = check_runs(runs)
    return {"metrics": {"solve_s": statistics.median(samples), "peak_rss_mb": peak},
            "samples": samples, "attempted": attempted, "failed": failed,
            "failures": notes, "counters_repeat": True}


def run_traced(wl, seed: int, seconds: float, spans_path: Path) -> dict:
    from bench_layers import COUNTERS, layer_metrics, trace_points
    from bench_trace import UNOBSERVED, Tracer, write_spans

    key = wl.key(seed, 0)
    inputs = wl.inputs(seed, 0)
    runs = [(key, wl.collect(inputs, wl.solve(inputs)))]  # warm-up

    def plain(i):
        inputs = wl.inputs(seed, 0)
        raw, dt = timed(wl, inputs)
        runs.append((key, wl.collect(inputs, raw)))
        return dt

    base = loop(seconds / 2, MIN_SAMPLES, plain)
    tracer = Tracer()
    layers, traced, first = [], [], []

    def replay(i):
        tracer.reset()
        with tracer.span("request"):
            inputs = wl.inputs(seed, 0)  # traced too: datagen.s counts input building
            raw, dt = timed(wl, inputs)
        traced.append(dt)
        layers.append(layer_metrics(tracer.spans))
        if i == 0:
            first.extend(tracer.spans)
        runs.append((key, wl.collect(inputs, raw)))

    with tracer.patched(trace_points()):
        loop(seconds / 2, MIN_TRACED, replay)
    write_spans(first, spans_path)

    repeat = all(m[c] == layers[0][c] for m in layers for c in COUNTERS)
    metrics = {name: (layers[0][name] if name in COUNTERS
                      else statistics.median(m[name] for m in layers))
               for name in layers[0]}
    metrics["trace.overhead"] = statistics.median(traced) / statistics.median(base)
    # which layer dominates: self time as a share of the traced request
    shares = {name: value / statistics.median(traced) for name, value in metrics.items()
              if name.endswith(".s") and value != UNOBSERVED}
    attempted, failed, notes = check_runs(runs)
    metrics["fail_ratio"] = failed / attempted
    if not repeat:
        notes.append("a counter differed between replays of the same request")
    return {"metrics": metrics, "samples": base, "traced_samples": traced,
            "shares": dict(sorted(shares.items(), key=lambda kv: -kv[1])),
            "attempted": attempted, "failed": failed, "failures": notes,
            "counters_repeat": repeat}


def blas_info() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    maps = Path("/proc/self/maps")
    libs = set(re.findall(r"\S*openblas\S*\.so\S*", maps.read_text())) if maps.exists() else ()
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                fn = getattr(handle, symbol)
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {"name": blas.get("name"), "version": blas.get("version"), "threads": threads}


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired) as exc:
        return f"unknown ({exc})"
    return res.stdout.strip() or f"unknown ({res.stderr.strip()})"


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted(SRC.rglob("*.py")))


def run_record(args, result: dict, setup: list[float]) -> dict:
    import numpy
    import scipy

    found = tail(result["samples"])
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "python": sys.version.split()[0], "numpy": numpy.__version__,
        "scipy": scipy.__version__, "blas": blas_info(),
        "nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "src_lines": src_lines(),  # information only, not gated
        "setup_samples_s": setup,
        "solve_samples_s": result["samples"],
        "solve_tail": None if found is None else {"percentile": found[0], "s": found[1]},
        "traced_samples_s": result.get("traced_samples"),
        "self_time_shares": result.get("shares"),
        "counters_repeat": result["counters_repeat"],
        "attempted": result["attempted"], "failed": result["failed"],
        "failures": result["failures"],
        "metrics": result["metrics"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0, help="workload seed")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="how long the timed loop runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_smoothrq()
    from bench_layers import PER_LAYER
    from bench_trace import UNOBSERVED
    from bench_workloads import make_workloads

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    wl = make_workloads(workdir)[args.workload]
    setup = []
    try:
        if args.trace:
            result = run_traced(wl, args.seed, args.seconds, OUT / f"spans-{tag}.tsv")
            units = PER_LAYER
        else:
            setup = measure_setup(args.workload, args.seed)
            result = run_plain(wl, args.seed, args.seconds)
            result["metrics"]["setup_s"] = statistics.median(setup)
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    record = run_record(args, result, setup)
    (OUT / f"record-{tag}.json").write_text(json.dumps(record, indent=2) + "\n")
    metrics = {}
    for name, unit in units.items():
        value = result["metrics"][name]
        if float(value).is_integer() and unit != "s":
            value = int(value)
        metrics[name] = {"value": value, "unit": unit}
        print(f"{name}: " + ("unobserved (-1)" if value == UNOBSERVED else f"{value} {unit}"))
    samples = result["samples"]
    found = tail(samples)
    print(f"solve samples: {len(samples)}, median {statistics.median(samples):.6f} s, "
          + (f"p{found[0]:.0f} {found[1]:.6f} s" if found
             else "no percentile has ten samples beyond it"))
    if "shares" in result:
        print("self-time share of a traced request: "
              + ", ".join(f"{name} {share:.1%}" for name, share in result["shares"].items()))
    for note in result["failures"]:
        print(f"check failed: {note}")
    print(f"record: {OUT / f'record-{tag}.json'}")
    correct = result["failed"] == 0 and result["counters_repeat"]
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
