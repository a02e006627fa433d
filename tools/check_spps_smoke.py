#!/usr/bin/env python3
"""Run one spps spec per registered scenario and check the sink output shape.

The CI smoke job for the scenario facade: every scenario must be runnable
from a RunSpec alone, and its CSV/JSONL sinks must have the declared
column shape with one sample row per (replica, checkpoint).

Also the cross-thread contract of both sharded runners at the CLI: a
20000-particle spiral at threads=2 and threads=4 must end on the same
final CSV row, byte for byte, for the compression chain, and at threads=1,
2 and 4 for the amoebot Algorithm A, whose runner is sharded at every
count.  Both runners route their compressed-regime epochs through the
rejection-free kernel: the replica record's rejection_free_epochs must be
a positive integer, equal at every thread count — and for amoebot so must
the activation outcome counts idle, expanded, moved_to_head and
contracted_back.  The compression record's
stage histogram (accepted, target_occupied, rejected_gap,
rejected_property, rejected_filter, boundary_rejects) must sum to its
steps and be equal at both thread counts.

Every replica record must name its occupancy regime: "dense-flat" or
"dense-tiled" (a missing or any other value fails).

Also a holed start: a ring's iteration-0 sample must count its hole and
carry it into the perimeter.

And the crash-resume smoke for durable runs: SIGKILL an spps process
mid-run (no cleanup, the real crash), resume from the snapshot it left,
and require the resumed trajectory to finish byte-identical to an
uninterrupted run of the same spec (for sharded compression and amoebot
on a 20000-particle spiral, with the same rejection_free_epochs, stage
histogram and outcome counts; the amoebot run killed at threads=2 resumes
at threads=1).  Both routed runners again with checkpoints every three
epochs, off the grid of the route's four-epoch rejection-free spans:
killed at threads=4, resumed at threads=2, compared with an uninterrupted
run at threads=3.  Plus SIGTERM → graceful exit 3 with the cancelled step
in the primary snapshot, and a clean run that leaves its final step
there.

Usage:
    python3 tools/check_spps_smoke.py path/to/spps [workdir]
"""
import csv
import json
import os
import signal
import struct
import subprocess
import sys
import time

# (scenario, extra spec keys, expected metric columns).  The alignment
# entry runs threads=2: a single-replica chain spec with a thread budget
# > 1 routes through the sharded multi-core runner, so CI smokes that
# path end to end (sinks included), not just the sequential engine.
SCENARIOS = [
    ("compression", "lambda=4.0",
     ["edges", "perimeter", "alpha", "acceptance", "holes"]),
    ("separation", "gamma=4.0 replicas=2",
     ["edges", "perimeter", "alpha", "hom_fraction"]),
    ("alignment", "kappa=4.0 threads=2",
     ["edges", "perimeter", "alpha", "aligned_fraction"]),
    ("amoebot", "threads=2",
     ["perimeter", "alpha", "sweep_fraction", "sim_time"]),
]
BASE = "n=60 steps=200000 checkpoint=50000 seed=1603"
CHECKPOINTS = 4  # steps / checkpoint

# Seed-only counts of each sharded runner's replica record.
# Every proposal of the sharded chain ends in exactly one of these stages.
COMPRESSION_STAGES = ("accepted", "target_occupied", "rejected_gap",
                      "rejected_property", "rejected_filter",
                      "boundary_rejects")
COMPRESSION_COUNTS = ("rejection_free_epochs",) + COMPRESSION_STAGES
AMOEBOT_OUTCOMES = ("idle", "expanded", "moved_to_head", "contracted_back")
AMOEBOT_COUNTS = ("rejection_free_epochs",) + AMOEBOT_OUTCOMES

# The occupancy regimes a replica record may report.
REGIMES = ("dense-flat", "dense-tiled")


def fail(message):
    raise SystemExit(f"FAIL: {message}")


def check_regime(replica, what):
    regime = replica.get("regime")
    if regime not in REGIMES:
        fail(f"{what}: replica regime {regime!r}, expected one of {REGIMES}")


def strict_json_loads(line):
    """json.loads with the lenient non-finite literals rejected.

    Python's json module accepts NaN/Infinity/-Infinity by default, which
    would let a sink regression that prints non-JSON number literals slip
    through this smoke (the JsonlSink emits null for non-finite metrics
    precisely so every line stays strictly loadable).
    """
    def reject(token):
        fail(f"non-JSON number literal {token!r} in JSONL output")
    try:
        return json.loads(line, parse_constant=reject)
    except json.JSONDecodeError as error:
        fail(f"invalid JSONL line {line!r}: {error}")


def check_csv(path, scenario, metrics, replicas):
    with open(path) as f:
        lines = [line.rstrip("\n") for line in f if line.strip()]
    expected_header = ",".join(["replica", "iteration"] + metrics)
    if lines[0] != expected_header:
        fail(f"{scenario}: csv header {lines[0]!r} != {expected_header!r}")
    rows = [line.split(",") for line in lines[1:]]
    # One row at iteration 0 plus one per checkpoint, per replica.  The
    # block runners round checkpoints up to whole epochs and rejection-free
    # spans, so count rows, not exact iterations.
    expected_rows = replicas * (CHECKPOINTS + 1)
    if len(rows) != expected_rows:
        fail(f"{scenario}: {len(rows)} csv rows, expected {expected_rows}")
    for row in rows:
        if len(row) != 2 + len(metrics):
            fail(f"{scenario}: csv row width {len(row)}")
        float(row[2 + metrics.index("alpha")])  # parses as a number
    final_alpha = float(rows[-1][2 + metrics.index("alpha")])
    start_alpha = float(rows[-1 - CHECKPOINTS][2 + metrics.index("alpha")])
    if not (0.9 <= final_alpha <= start_alpha):
        fail(f"{scenario}: alpha {start_alpha} -> {final_alpha} "
             "did not stay in (0.9, start] — not compressing?")


def check_jsonl(path, scenario, metrics, replicas):
    # Every line must be *strict* JSON — a lying metric row or a nan/inf
    # literal is a sink bug, not a formatting choice.
    with open(path) as f:
        records = [strict_json_loads(line) for line in f if line.strip()]
    kinds = [r["type"] for r in records]
    if kinds[0] != "run" or kinds[-1] != "end":
        fail(f"{scenario}: jsonl must open with run and close with end")
    if records[0]["metrics"] != metrics:
        fail(f"{scenario}: jsonl metrics {records[0]['metrics']}")
    samples = [r for r in records if r["type"] == "sample"]
    summaries = [r for r in records if r["type"] == "replica"]
    if len(samples) != replicas * (CHECKPOINTS + 1):
        fail(f"{scenario}: {len(samples)} jsonl samples")
    if len(summaries) != replicas:
        fail(f"{scenario}: {len(summaries)} replica summaries")
    for record in samples:
        for metric in metrics:
            if metric not in record:
                fail(f"{scenario}: sample missing {metric}")
    for summary in summaries:
        if summary["steps"] < 200000:
            fail(f"{scenario}: replica ran only {summary['steps']} steps")
        check_regime(summary, scenario)


def snapshot_steps(path):
    """The stepsDone recorded in a snapshot file, or None when the file is
    missing/torn (mirrors the C++ frame: magic, version, length, FNV-1a-64
    checksum, then payload = len-prefixed compat string, replica, steps)."""
    try:
        with open(path, "rb") as f:
            data = f.read()
    except OSError:
        return None
    if len(data) < 28 or data[:8] != b"SOPSSNAP":
        return None
    length, checksum = struct.unpack_from("<QQ", data, 12)
    payload = data[28:28 + length]
    if len(payload) != length or len(payload) < 8:
        return None
    h = 0xcbf29ce484222325
    for b in payload:
        h = ((h ^ b) * 0x100000001b3) & 0xFFFFFFFFFFFFFFFF
    if h != checksum:
        return None
    compat_len, = struct.unpack_from("<Q", payload, 0)
    _, steps = struct.unpack_from("<QQ", payload, 8 + compat_len)
    return steps


def resumable_steps(snap):
    """stepsDone from the primary snapshot, falling back to .prev exactly
    like loadResumableSnapshot (a SIGKILL can land mid-rotation)."""
    steps = snapshot_steps(snap)
    return steps if steps is not None else snapshot_steps(snap + ".prev")


def wait_for_checkpoints(proc, snap, min_steps, timeout=60.0):
    """Polls until the running spps has durably checkpointed >= min_steps."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            fail(f"spps exited {proc.returncode} before being killed:\n"
                 f"{proc.stdout.read()}\n{proc.stderr.read()}")
        steps = resumable_steps(snap)
        if steps is not None and steps >= min_steps:
            return steps
        time.sleep(0.02)
    fail(f"no snapshot with >= {min_steps} steps within {timeout}s")


def final_csv_row(path):
    with open(path) as f:
        lines = [line.rstrip("\n") for line in f if line.strip()]
    return lines[-1]


def replica_counts(jsonl_path, what, keys):
    """The replica record's seed-only counts `keys`, strictly parsed: each
    present and a non-negative JSON integer (not a float, not a bool)."""
    with open(jsonl_path) as f:
        records = [strict_json_loads(line) for line in f if line.strip()]
    replicas = [r for r in records if r["type"] == "replica"]
    if len(replicas) != 1:
        fail(f"{what}: {len(replicas)} replica records, expected 1")
    check_regime(replicas[0], what)
    counts = {}
    for key in keys:
        value = replicas[0].get(key)
        if type(value) is not int or value < 0:
            fail(f"{what}: {key} {value!r} is not a non-negative integer")
        counts[key] = value
    if set(keys) >= set(COMPRESSION_STAGES):
        staged = sum(counts[key] for key in COMPRESSION_STAGES)
        if staged != replicas[0]["steps"]:
            fail(f"{what}: the stage histogram sums to {staged}, not the "
                 f"{replicas[0]['steps']} steps run")
    if set(keys) >= set(AMOEBOT_OUTCOMES):
        executed = sum(counts[key] for key in AMOEBOT_OUTCOMES)
        if executed > replicas[0]["steps"]:
            fail(f"{what}: {executed} executed activations, more than the "
                 f"{replicas[0]['steps']} steps run")
    return counts


def expect_positive_counts(counts, what):
    """Routing and outcome counts must be positive; a stage of the
    compression histogram may legitimately stay empty."""
    for key, value in counts.items():
        if key not in COMPRESSION_STAGES and value <= 0:
            fail(f"{what}: {key} is {value}, expected a positive count")


def with_threads(spec, threads):
    """`spec` with its threads= key set to `threads` (None keeps it)."""
    if threads is None:
        return spec
    return " ".join(f"threads={threads}" if key.startswith("threads=")
                    else key for key in spec.split())


def check_crash_resume(spps, workdir, scenario, extra, tag=None,
                       size="n=60", counts=(), resume_threads=None,
                       reference_threads=None, checkpoint=50000):
    """SIGKILL mid-run, resume from the snapshot, compare the final CSV row
    against an uninterrupted run of the identical spec.  The replica
    record's `counts` (a routed sharded runner's) must be positive and
    survive the crash too.  With `resume_threads` the resume, and with
    `reference_threads` the uninterrupted run, runs at that thread count
    instead of the killed run's."""
    tag = tag or scenario
    base = (f"scenario={scenario} {size} checkpoint={checkpoint} seed=1603 "
            f"{extra}").strip()
    snap = os.path.join(workdir, f"{tag}_crash.snap")
    for leftover in (snap, snap + ".prev"):
        if os.path.exists(leftover):
            os.remove(leftover)

    # Effectively unbounded run so the kill always lands mid-flight; the
    # snapshot spec's steps need not match the resume spec's.
    crash_spec = f"{base} steps=4000000000 snapshot-file={snap}"
    proc = subprocess.Popen([spps] + crash_spec.split(),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)
    wait_for_checkpoints(proc, snap, 2 * checkpoint)
    proc.kill()  # SIGKILL: no handler, no final snapshot, a real crash
    proc.wait()

    steps_at_kill = resumable_steps(snap)
    if steps_at_kill is None:
        fail(f"{scenario}: no resumable snapshot survived the SIGKILL")
    target = steps_at_kill + 4 * checkpoint

    resumed_csv = os.path.join(workdir, f"{tag}_resumed.csv")
    resumed_jsonl = os.path.join(workdir, f"{tag}_resumed.jsonl")
    result = subprocess.run(
        [spps] + f"{with_threads(base, resume_threads)} steps={target} "
                 f"resume={snap} "
                 f"csv={resumed_csv} jsonl={resumed_jsonl}".split(),
        capture_output=True, text=True)
    if result.returncode != 0:
        fail(f"{tag}: resume exited {result.returncode}:\n"
             f"{result.stdout}\n{result.stderr}")

    reference_csv = os.path.join(workdir, f"{tag}_reference.csv")
    reference_jsonl = os.path.join(workdir, f"{tag}_reference.jsonl")
    result = subprocess.run(
        [spps] + f"{with_threads(base, reference_threads)} steps={target} "
                 f"csv={reference_csv} jsonl={reference_jsonl}".split(),
        capture_output=True, text=True)
    if result.returncode != 0:
        fail(f"{tag}: reference run exited {result.returncode}")

    resumed = final_csv_row(resumed_csv)
    reference = final_csv_row(reference_csv)
    if resumed != reference:
        fail(f"{tag}: resumed trajectory diverged\n"
             f"  resumed:   {resumed}\n  reference: {reference}")
    routing = ""
    if counts:
        resumed_counts = replica_counts(resumed_jsonl, f"{tag} resumed",
                                        counts)
        reference_counts = replica_counts(reference_jsonl,
                                          f"{tag} reference", counts)
        expect_positive_counts(reference_counts, f"{tag} reference")
        if resumed_counts != reference_counts:
            fail(f"{tag}: counts {resumed_counts} after resume, "
                 f"{reference_counts} uninterrupted")
        routing = (f", {reference_counts['rejection_free_epochs']} "
                   "rejection-free epochs either way")
    resumed_at = ("" if resume_threads is None
                  else f" at threads={resume_threads}")
    reference_at = ("" if reference_threads is None
                    else f" at threads={reference_threads}")
    print(f"ok: {tag} SIGKILL at {steps_at_kill} steps, resumed{resumed_at} "
          f"to {target} — final row identical to the uninterrupted run"
          f"{reference_at}{routing}")


def check_cross_thread(spps, workdir, scenario, counts, thread_counts):
    """A sharded runner's trajectory is a pure function of the seed: the
    same spec at every count of `thread_counts` must end on byte-identical
    final CSV rows.  The replica record's `counts` (rejection-free epochs,
    and amoebot's outcomes) must be positive and equal at every count."""
    rows = {}
    seen = {}
    for threads in thread_counts:
        csv_path = os.path.join(workdir, f"{scenario}_threads{threads}.csv")
        jsonl_path = os.path.join(workdir,
                                  f"{scenario}_threads{threads}.jsonl")
        spec = (f"scenario={scenario} shape=spiral n=20000 lambda=4 "
                f"steps=2000000 threads={threads} csv={csv_path} "
                f"jsonl={jsonl_path}")
        result = subprocess.run([spps] + spec.split(), capture_output=True,
                                text=True)
        if result.returncode != 0:
            fail(f"spps {spec!r} exited {result.returncode}:\n"
                 f"{result.stdout}\n{result.stderr}")
        rows[threads] = final_csv_row(csv_path)
        seen[threads] = replica_counts(
            jsonl_path, f"{scenario} threads={threads}", counts)
    first = thread_counts[0]
    expect_positive_counts(seen[first], f"{scenario} threads={first}")
    for threads in thread_counts[1:]:
        if rows[threads] != rows[first]:
            fail(f"{scenario}: sharded runner diverged across thread "
                 f"counts\n  threads={first}: {rows[first]}\n"
                 f"  threads={threads}: {rows[threads]}")
        if seen[threads] != seen[first]:
            fail(f"{scenario}: counts {seen[first]} at threads={first}, "
                 f"{seen[threads]} at threads={threads}")
    counts_text = " and ".join(f"threads={t}" for t in thread_counts)
    print(f"ok: {scenario} 20000-particle spiral, {counts_text} end on the "
          f"same final CSV row, {seen[first]['rejection_free_epochs']} "
          "rejection-free epochs at each")


def check_holed_start(spps, workdir):
    """Every other spec starts and stays hole-free, so a hole counter stuck
    at 0 would pass them: a radius-3 ring (18 particles around one hole)
    must sample holes = 1 and p = 3n - e - 3 + 3 at iteration 0."""
    csv_path = os.path.join(workdir, "compression_ring.csv")
    spec = (f"scenario=compression shape=ring n=3 steps=1000 "
            f"checkpoint=1000 seed=1603 csv={csv_path}")
    result = subprocess.run([spps] + spec.split(), capture_output=True,
                            text=True)
    if result.returncode != 0:
        fail(f"spps {spec!r} exited {result.returncode}:\n"
             f"{result.stdout}\n{result.stderr}")
    with open(csv_path) as f:
        rows = list(csv.DictReader(f))
    start = next(row for row in rows if int(row["iteration"]) == 0)
    holes = float(start["holes"])
    edges = float(start["edges"])
    perimeter = float(start["perimeter"])
    if holes != 1:
        fail(f"ring start: holes = {holes}, expected 1")
    if perimeter != 3 * 18 - edges - 3 + 3:
        fail(f"ring start: perimeter = {perimeter} with e = {edges}, "
             f"expected {3 * 18 - edges - 3 + 3}")
    print(f"ok: ring start samples holes = 1, perimeter = {perimeter:g}")


def check_clean_snapshot(spps, workdir):
    """Snapshots are written in the background, but a run that ends must
    leave its final step in the primary snapshot (no .prev fallback) and
    the checkpoint before it in .prev."""
    checkpoint = 50000
    steps = 4 * checkpoint
    snap = os.path.join(workdir, "clean.snap")
    spec = (f"scenario=compression n=60 steps={steps} "
            f"checkpoint={checkpoint} seed=1603 snapshot-file={snap}")
    result = subprocess.run([spps] + spec.split(), capture_output=True,
                            text=True)
    if result.returncode != 0:
        fail(f"spps {spec!r} exited {result.returncode}:\n"
             f"{result.stdout}\n{result.stderr}")
    primary = snapshot_steps(snap)
    previous = snapshot_steps(snap + ".prev")
    if primary != steps or previous != steps - checkpoint:
        fail(f"clean run: primary snapshot at {primary} steps and .prev at "
             f"{previous}, expected {steps} and {steps - checkpoint}")
    print(f"ok: clean run leaves its final step {steps} in the primary "
          "snapshot")


def check_sigterm_exit(spps, workdir):
    """SIGTERM must cancel cooperatively: exit 3, resumable snapshot named,
    the cancelled step in the primary snapshot (no .prev fallback), and the
    snapshot must actually resume to completion."""
    checkpoint = 50000
    snap = os.path.join(workdir, "sigterm.snap")
    jsonl_path = os.path.join(workdir, "sigterm.jsonl")
    # A leftover snapshot would satisfy the wait below before spps has
    # installed its signal handler.
    for leftover in (snap, snap + ".prev"):
        if os.path.exists(leftover):
            os.remove(leftover)
    spec = (f"scenario=compression n=60 steps=4000000000 "
            f"checkpoint={checkpoint} seed=1603 snapshot-file={snap} "
            f"jsonl={jsonl_path}")
    proc = subprocess.Popen([spps] + spec.split(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    wait_for_checkpoints(proc, snap, checkpoint)
    proc.send_signal(signal.SIGTERM)
    stdout, stderr = proc.communicate(timeout=120)
    if proc.returncode != 3:
        fail(f"SIGTERM: spps exited {proc.returncode}, expected 3:\n"
             f"{stdout}\n{stderr}")
    if "interrupted" not in stdout or "resumable snapshot" not in stdout:
        fail(f"SIGTERM: stdout does not name the resumable snapshot:\n{stdout}")
    steps = snapshot_steps(snap)
    cancelled_at = replica_counts(jsonl_path, "SIGTERM", ("steps",))["steps"]
    if steps != cancelled_at:
        fail(f"SIGTERM: primary snapshot holds {steps} steps, the run was "
             f"cancelled at {cancelled_at}")
    result = subprocess.run(
        [spps] + f"scenario=compression n=60 steps={steps + checkpoint} "
                 f"checkpoint={checkpoint} seed=1603 "
                 f"resume={snap}".split(),
        capture_output=True, text=True)
    if result.returncode != 0:
        fail(f"SIGTERM: resume after graceful cancel exited "
             f"{result.returncode}:\n{result.stdout}\n{result.stderr}")
    print(f"ok: SIGTERM → exit 3 at {steps} steps, snapshot resumed cleanly")


def main():
    if len(sys.argv) < 2:
        raise SystemExit(__doc__)
    spps = os.path.abspath(sys.argv[1])
    workdir = sys.argv[2] if len(sys.argv) > 2 else "spps_smoke_out"
    os.makedirs(workdir, exist_ok=True)

    for scenario, extra, metrics in SCENARIOS:
        csv_path = os.path.join(workdir, f"{scenario}.csv")
        jsonl_path = os.path.join(workdir, f"{scenario}.jsonl")
        spec = (f"scenario={scenario} {BASE} {extra} "
                f"csv={csv_path} jsonl={jsonl_path}")
        result = subprocess.run([spps] + spec.split(), capture_output=True,
                                text=True)
        if result.returncode != 0:
            fail(f"spps {spec!r} exited {result.returncode}:\n"
                 f"{result.stdout}\n{result.stderr}")
        replicas = 2 if "replicas=2" in extra else 1
        check_csv(csv_path, scenario, metrics, replicas)
        check_jsonl(jsonl_path, scenario, metrics, replicas)
        if scenario == "amoebot":
            replica_counts(jsonl_path, scenario, AMOEBOT_COUNTS)
        print(f"ok: {scenario} ({replicas} replica(s), sinks well-formed)")

    # The error paths must be loud: unknown scenario and unknown parameter.
    for bad in ("scenario=teleportation", "scenario=compression bogus=1"):
        result = subprocess.run([spps] + bad.split() + ["steps=1"],
                                capture_output=True, text=True)
        if result.returncode == 0:
            fail(f"spps {bad!r} should have failed")
        if "unknown" not in result.stderr:
            fail(f"spps {bad!r}: stderr lacks an 'unknown ...' message")
    print("ok: unknown scenario/parameter specs fail loudly")

    check_holed_start(spps, workdir)
    check_cross_thread(spps, workdir, "compression", COMPRESSION_COUNTS,
                       (2, 4))
    check_cross_thread(spps, workdir, "amoebot", AMOEBOT_COUNTS, (1, 2, 4))

    # Durable runs: a real SIGKILL (sequential compression; sharded
    # compression and amoebot on a spiral large enough that their epochs
    # run rejection-free; the sharded separation runner — the chain with
    # the most derived state to rebuild on restore — and the sharded
    # amoebot runner on the block path), then graceful SIGTERM.
    check_crash_resume(spps, workdir, "compression", "lambda=4.0")
    check_crash_resume(spps, workdir, "compression", "lambda=4.0 threads=2",
                       tag="compression_sharded",
                       size="shape=spiral n=20000", counts=COMPRESSION_COUNTS)
    check_crash_resume(spps, workdir, "separation", "gamma=4.0 threads=2")
    check_crash_resume(spps, workdir, "amoebot", "threads=2")
    check_crash_resume(spps, workdir, "amoebot", "lambda=4.0 threads=2",
                       tag="amoebot_routed",
                       size="shape=spiral n=20000", counts=AMOEBOT_COUNTS,
                       resume_threads=1)
    # Checkpoints every 3L (L = 2n = 40000), off the grid of the route's
    # rejection-free spans of 4L: every advance ends inside a span and
    # rounds up to its end.
    for scenario, counts in (("compression", COMPRESSION_COUNTS),
                             ("amoebot", AMOEBOT_COUNTS)):
        check_crash_resume(spps, workdir, scenario, "lambda=4.0 threads=4",
                           tag=f"{scenario}_off_span",
                           size="shape=spiral n=20000", counts=counts,
                           resume_threads=2, reference_threads=3,
                           checkpoint=3 * 40000)
    check_clean_snapshot(spps, workdir)
    check_sigterm_exit(spps, workdir)
    print("spps smoke: all scenarios runnable from a RunSpec alone; "
          "crash-resume and SIGTERM cancellation verified")
    return 0


if __name__ == "__main__":
    sys.exit(main())
