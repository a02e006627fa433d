#!/usr/bin/env python3
"""End-to-end benchmark of the sops simulator (see perfbench/README.md).

    python3 perfbench/run.py --workload compress-par --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --trace 1

Run from the repository root.  Builds the two benchmark programs in Release under
.bench_build/perfbench (the first run compiles the library, about half a
minute on four cores), runs the workload for about --seconds, prints every
metric with its unit, writes the full record with hardware and build
context to .bench_build/perfbench/results/, and prints as its last stdout
line one JSON object with the keys correct, attempted, failed and metrics:
the end-to-end metrics of BENCHMARK.json with --trace 0, its per-layer
metrics with --trace 1.  Exits non-zero, without that line, when the
build, a benchmark program or a check of the record fails.
"""

import argparse
import hashlib
import itertools
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import benchstats

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
SCRATCH = Path(".bench_build") / "perfbench" / "scratch"  # relative to ROOT
BUILD_TIMEOUT_S = 840
PROGRAM_TIMEOUT_S = 150
MIN_REPS = {0: 3, 1: 2}  # by --trace
# Workloads run.py accepts by name beyond those of BENCHMARK.json; `all`
# leaves them out.  compress-seq is the single-thread baseline of
# compress-par, but its speed moves by a third with co-tenant load on a
# shared host, more than any bound allows (see README.md).
UNGATED_WORKLOADS = ("compress-seq",)

# Unit of every per-layer metric a traced run derives.  BENCHMARK.json
# lists those every workload measures, with the workload's chain layer
# (core.engine, core.sharded or amoebot) as chain.*; the others exist only
# where their layer runs, so they are printed and recorded but left out of
# the result line.
LAYER_UNITS = {
    "sim.make_initial_s": "s",
    "sim.start_s": "s",
    "chain.busy_s": "s",
    "chain.ns_per_step": "ns",
    "core.engine.accept_ratio": "ratio",
    "core.engine.reject_occupied": "ratio",
    "core.engine.reject_gap": "ratio",
    "core.engine.reject_property": "ratio",
    "core.engine.reject_filter": "ratio",
    "core.sharded.sweep_ratio": "ratio",
    "core.sharded.epoch_target": "count",
    "core.sharded.accept_ratio": "ratio",
    "amoebot.sweep_ratio": "ratio",
    "amoebot.epoch_target": "count",
    "system.metrics.busy_s": "s",
    "system.metrics.sample_ms_p50": "ms",
    "system.metrics.sample_ms_p90": "ms",
    "system.metrics.samples": "count",
    "system.snapshot.serialize_ms_p50": "ms",
    "system.snapshot.write_ms_p50": "ms",
    "system.snapshot.write_ms_p90": "ms",
    "system.snapshot.bytes": "bytes",
    "system.snapshot.busy_s": "s",
    "sim.sink.busy_s": "s",
    "sim.sink.write_ms_p50": "ms",
    "sim.sink.bytes": "bytes",
    "sim.unattributed_s": "s",
    "trace.overhead_ratio": "ratio",
}

# Per-layer values that depend only on the seed: those in these units,
# except the ratios of timings listed after them.
COUNT_UNITS = ("count", "ratio", "bytes")
TIMING_RATIOS = ("trace.overhead_ratio",)

# Per-layer busy-time keys of a traced repetition; the wall time they do
# not cover is sim.unattributed_s.
LAYER_KEYS = ("make_initial_s", "start_s", "chain_s", "metrics_s",
              "snapshot_s", "sink_s")


class BenchError(Exception):
    pass


def run_child(cmd, timeout, **kwargs):
    """Runs cmd in its own process group; on timeout or interrupt the whole
    group is killed and waited for, so no compiler or benchmark program
    outlives us."""
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True, **kwargs)
    try:
        out, err = proc.communicate(timeout=timeout)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    return proc.returncode, out, err


def load_benchmark_spec():
    path = ROOT / "BENCHMARK.json"
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as e:
        raise BenchError(f"cannot read {path}: {e}") from e


def build(target):
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError("the sops sources (CMakeLists.txt, src/) are not "
                         "beside perfbench/: run from a full checkout")
    BUILD.mkdir(parents=True, exist_ok=True)
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release", *generator])
    steps.append(["cmake", "--build", str(BUILD), "--target", target,
                  "-j", str(min(4, os.cpu_count() or 1))])
    log = BUILD / "build.log"
    # Compiler temporaries stay inside the checkout too.
    tmp = BUILD / "tmp"
    tmp.mkdir(exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    with open(log, "w") as out:
        for cmd in steps:
            try:
                code, _, _ = run_child(cmd, BUILD_TIMEOUT_S, stdout=out,
                                       stderr=subprocess.STDOUT, env=env)
            except subprocess.TimeoutExpired as e:
                raise BenchError(f"build timed out: {' '.join(cmd)}") from e
            if code != 0:
                out.flush()
                raise BenchError(f"build failed: {' '.join(cmd)}\n"
                                 f"{log.read_text()[-4000:]}")
    return BUILD / target


def run_program(exe, workload, seed, rep):
    """One repetition in a fresh process; returns its record."""
    cmd = [str(exe), "--workload", workload, "--seed", str(seed),
           "--rep", str(rep), "--dir", str(SCRATCH)]
    try:
        code, out, err = run_child(cmd, PROGRAM_TIMEOUT_S,
                                   stdout=subprocess.PIPE,
                                   stderr=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"{exe.name} timed out on {workload}") from e
    if code != 0:
        raise BenchError(f"{exe.name} failed on {workload} (exit {code}):\n"
                         f"{err.strip()}")
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError(f"{exe.name} printed no record")
    try:
        record = json.loads(lines[-1])
    except ValueError as e:
        raise BenchError(f"{exe.name} printed no JSON record: {e}") from e
    context = record["context"]
    if context["build_type"] != "Release" or not context["ndebug"]:
        raise BenchError(f"refusing to report from a {context['build_type']} "
                         "build")
    return record


def measure(exe, workload, seed, seconds, trace):
    """Repetitions (fresh seeds, one process each) until the next would
    overrun `seconds`, at least MIN_REPS[trace].  Returns the combined
    record."""
    records = []
    start = time.monotonic()
    for rep in itertools.count():
        elapsed = time.monotonic() - start
        if rep >= MIN_REPS[trace] and elapsed + elapsed / rep > seconds:
            break
        records.append(run_program(exe, workload, seed, rep))
    combined = {
        "workload": workload, "seed": seed,
        "context": records[0]["context"],
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "failures": [f for r in records for f in r["failures"]][:20],
        "reps": [r["rep"] for r in records],
    }
    if trace:
        combined["traced"] = [r["traced"] for r in records]
    if combined["attempted"] < 1:
        raise BenchError("no checks ran")
    return combined


def source_digest():
    """SHA-256 over the library sources and the benchmark, so a result can be
    tied to the code it measured when the checkout has no git metadata."""
    digest = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for base in (ROOT / "src", ROOT / "cmake", HERE):
        files += [p for p in base.rglob("*")
                  if p.is_file() and "__pycache__" not in p.parts]
    for path in sorted(files):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit():
    # Only inside a git checkout: git would otherwise search parent
    # directories, outside the checkout.
    if not (ROOT / ".git").exists():
        return "none (not a git checkout)"
    code, out, _ = run_child(["git", "rev-parse", "HEAD"], 30,
                             stdout=subprocess.PIPE,
                             stderr=subprocess.DEVNULL, text=True)
    return out.strip() if code == 0 else "unknown"


def end_to_end_samples(record):
    """Per-repetition samples of each timed end-to-end metric."""
    reps = record["reps"]
    return {
        "steps_per_s": [r["steps"] / (r["wall_s"] - r["setup_s"])
                        for r in reps],
        "wall_s": [r["wall_s"] for r in reps],
        "setup_s": [r["setup_s"] for r in reps],
        "peak_rss_mb": [r["peak_rss_mb"] for r in reps],
    }


def end_to_end_values(samples):
    return {name: benchstats.median(v) for name, v in samples.items()}


def per_layer_values(record):
    """Per-layer metrics of a traced record, only those its layers ran.
    Timings are medians over the traced repetitions (per-call latencies
    pooled over them); counts come from the first repetition, whose inputs
    depend only on --seed."""
    traces = record["traced"]
    first = traces[0]
    counts = first["counts"]

    def med(key):
        return benchstats.median([t[key] for t in traces])

    latencies = latency_samples(record)
    steps = counts["steps"]
    sample_ms = latencies["sample_ms"]
    values = {
        "sim.make_initial_s": med("make_initial_s"),
        "sim.start_s": med("start_s"),
        "chain.busy_s": med("chain_s"),
        "chain.ns_per_step": benchstats.median(
            [1e9 * t["chain_s"] / t["counts"]["steps"] for t in traces]),
        "system.metrics.busy_s": med("metrics_s"),
        "system.metrics.sample_ms_p50": benchstats.percentile(sample_ms, 50),
        "system.metrics.sample_ms_p90": benchstats.percentile(sample_ms, 90),
        "system.metrics.samples": len(first["sample_ms"]),
        "sim.unattributed_s": benchstats.median(
            [t["wall_s"] - sum(t[k] for k in LAYER_KEYS) for t in traces]),
        "trace.overhead_ratio": med("wall_s") / med("untraced_wall_s") - 1.0,
    }

    layer = first["layer"]
    if layer == "core.engine":
        moves = counts["movement_steps"]
        values["core.engine.accept_ratio"] = counts["accepted"] / moves
        values["core.engine.reject_occupied"] = counts["target_occupied"] / moves
        values["core.engine.reject_gap"] = counts["rejected_gap"] / moves
        values["core.engine.reject_property"] = (
            counts["rejected_property"] / moves)
        values["core.engine.reject_filter"] = counts["rejected_filter"] / moves
    elif layer == "core.sharded":
        values["core.sharded.sweep_ratio"] = counts["sweep_events"] / steps
        values["core.sharded.epoch_target"] = counts["epoch_target"]
        values["core.sharded.accept_ratio"] = (
            counts["accepted"] / counts["movement_steps"])
    elif layer == "amoebot":
        values["amoebot.sweep_ratio"] = counts["sweep_activations"] / steps
        values["amoebot.epoch_target"] = counts["epoch_target"]
    else:
        raise BenchError(f"unknown traced layer {layer!r}")

    if first["write_ms"]:
        write_ms = latencies["write_ms"]
        values["system.snapshot.serialize_ms_p50"] = benchstats.percentile(
            latencies["serialize_ms"], 50)
        values["system.snapshot.write_ms_p50"] = benchstats.percentile(
            write_ms, 50)
        values["system.snapshot.write_ms_p90"] = benchstats.percentile(
            write_ms, 90)
        values["system.snapshot.bytes"] = first["snapshot_bytes"]
        values["system.snapshot.busy_s"] = med("snapshot_s")
    if first["sink_ms"]:
        values["sim.sink.busy_s"] = med("sink_s")
        values["sim.sink.write_ms_p50"] = benchstats.percentile(
            latencies["sink_ms"], 50)
        values["sim.sink.bytes"] = first["sink_bytes"]
    return values


def latency_samples(record):
    """Per-call latency distributions of a traced record, pooled over its
    repetitions."""
    traces = record["traced"]
    return {key: [v for t in traces for v in t[key]]
            for key in ("sample_ms", "serialize_ms", "write_ms", "sink_ms")}


def describe(values, unit):
    """Median, quartiles, their spread, sample count and the highest
    percentile with at least ten samples beyond it."""
    q1, q2, q3 = benchstats.quartiles(values)
    top = benchstats.top_percentile(values)
    tail = (f"p{top[0]:g}={top[1]:.6g}" if top
            else "no percentile has 10 samples beyond it")
    return (f"median {q2:.6g} {unit}  q1 {q1:.6g}  q3 {q3:.6g}  "
            f"iqr/median {benchstats.relative_spread(values):.3f}  "
            f"n={len(values)}  {tail}")


def report(workload, args, record, spec, values):
    """Human-readable summary: context, checks, the end-to-end metrics and,
    traced, the per-layer metrics (counts apart from timings) and per-call
    latency distributions."""
    ctx = record["context"]
    print(f"== {workload}  seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print(f"   cpu: {ctx['cpu_model']}, nproc {ctx['nproc']}, "
          f"L1d/L2/L3 {ctx['l1d_bytes']:.0f}/{ctx['l2_bytes']:.0f}/"
          f"{ctx['l3_bytes']:.0f} B, load {ctx['loadavg']}")
    print(f"   build: {ctx['build_type']}, {ctx['compiler']}, "
          f"commit {ctx['git_commit']}, sources {ctx['source_digest'][:16]}")
    failed, attempted = record["failed"], record["attempted"]
    print(f"   checks: {attempted} attempted, {failed} failed, "
          f"failed_ratio {failed / attempted:.6g}")
    for failure in record["failures"]:
        print(f"   FAILED: {failure}")
    # Traced, the end-to-end figures come from the untraced halves of the
    # pairs, in processes that also ran the traced half.
    samples = end_to_end_samples(record)
    print("   end-to-end" + (" (untraced halves)" if args.trace else "") + ":")
    for m in spec["end_to_end"]:
        dist = samples[m["name"]]
        print(f"     {m['name']:12s} {describe(dist, m['unit'])}")
    if not args.trace:
        return
    print(f"   chain layer (chain.*): {record['traced'][0]['layer']}")
    for label, want_counts in (("counts (seed-only)", True),
                               ("timings", False)):
        print(f"   per-layer {label}:")
        for name, value in values.items():
            unit = LAYER_UNITS[name]
            is_count = unit in COUNT_UNITS and name not in TIMING_RATIOS
            if is_count == want_counts:
                print(f"     {name:34s} {value:.6g} {unit}")
    for key, dist in latency_samples(record).items():
        if dist:
            print(f"   per-call {key}: {describe(dist, 'ms')}")


def result_line(correct, attempted, failed, metrics):
    return json.dumps({"correct": correct, "attempted": attempted,
                       "failed": failed, "metrics": metrics})


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="a workload name from BENCHMARK.json, or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per workload (default: "
                             "run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        spec = load_benchmark_spec()
        if args.seconds is None:
            args.seconds = spec["run_seconds"]
        names = [w["name"] for w in spec["workloads"]]
        known = names + list(UNGATED_WORKLOADS)
        if args.workload != "all" and args.workload not in known:
            raise BenchError(f"unknown workload {args.workload!r} "
                             f"(known: {', '.join(known)}, all)")
        chosen = names if args.workload == "all" else [args.workload]
        exe = build("perfbench_trace" if args.trace else "perfbench_run")
        metric_specs = spec["per_layer"] if args.trace else spec["end_to_end"]

        (BUILD / "results").mkdir(parents=True, exist_ok=True)
        commit, digest = git_commit(), source_digest()
        total_attempted = total_failed = 0
        metrics = {}
        for workload in chosen:
            load_at_start = os.getloadavg()
            record = measure(exe, workload, args.seed, args.seconds,
                             args.trace)
            record["context"].update(loadavg=list(load_at_start),
                                     git_commit=commit, source_digest=digest)
            values = (per_layer_values(record) if args.trace
                      else end_to_end_values(end_to_end_samples(record)))
            record["metrics"] = values
            out = BUILD / "results" / (
                f"{workload}-seed{args.seed}-trace{args.trace}.json")
            out.write_text(json.dumps(record, indent=1) + "\n")
            report(workload, args, record, spec, values)
            total_attempted += record["attempted"]
            total_failed += record["failed"]
            prefix = "" if len(chosen) == 1 else f"{workload}."
            for m in metric_specs:
                if m["name"] not in values:
                    raise BenchError(f"{workload} does not measure "
                                     f"{m['name']}")
                metrics[prefix + m["name"]] = {"value": values[m["name"]],
                                               "unit": m["unit"]}
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    print(result_line(total_failed == 0, total_attempted, total_failed,
                      metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
