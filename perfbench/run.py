#!/usr/bin/env python3
"""Build and run the RAFDA benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload <soak|rpc|local> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload all [--seed <n>] [--seconds <s>]
    python3 perfbench/run.py --selfcheck [--seed <n>]

The first form builds `perfbench/` (release, offline) into
`$CARGO_TARGET_DIR` (default `.bench_build`), runs one workload (untraced:
in PROCESSES processes of equal length, each metric their median) and prints,
as its last stdout line, one JSON object with `correct`, `attempted`,
`failed` and `metrics`: the `end_to_end` metrics of BENCHMARK.json with
`--trace 0`, its `per_layer` metrics with `--trace 1`. Traced runs write
their spans to `$CARGO_TARGET_DIR/perfbench/trace-<workload>.tsv`.

`--workload all` runs every workload untraced and prints a table of the
end-to-end metrics, network ones included; `--selfcheck` checks that the
deterministic counters repeat for a seed and move with it. Both exit
non-zero on any oracle mismatch, monitor violation or failed check.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join(ROOT, "perfbench", "Cargo.toml")
SPEC = os.path.join(ROOT, "BENCHMARK.json")
WORKLOADS = ["soak", "rpc", "local"]
RUN_TIMEOUT_S = 170
# Processes an untraced run is split over. Each process lays out its heap
# and code differently and keeps that luck for its whole life, which moves
# its latency tails by up to ~10 %; the median of several processes does
# not depend on one layout.
PROCESSES = 6

# The end-to-end metrics a user of each workload sees. The network ones
# are zero on `local` (no messages), so BENCHMARK.json gates them as
# per-layer counters; `--workload all` shows all of them side by side.
ALL_END_TO_END = [
    "ops_per_s", "read_p50_us", "read_p99_us", "write_p50_us", "write_p99_us",
    "sim_us_per_op", "sim_read_p99_us", "sim_write_p99_us", "msgs_per_op",
    "wire_bytes_per_op", "peak_rss_mb", "setup_s", "failed_ops_frac",
]
NETWORK = {"sim_us_per_op", "sim_read_p99_us", "sim_write_p99_us",
           "msgs_per_op", "wire_bytes_per_op"}


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def target_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build")))


def build():
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST]
    if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(target_dir(), "release", "rafda-perfbench")


def run_binary(binary, args, timeout):
    """Run the benchmark binary; returns (exit code, its last stdout line)."""
    try:
        proc = subprocess.run([binary] + args, stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"run timed out after {timeout:.0f} s")
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, (lines[-1] if lines else "")


def measure(binary, workload, seed, seconds, trace):
    """One run: untraced runs are split over PROCESSES processes and each
    metric is the median of theirs; returns (worst exit code, result)."""
    out_dir = os.path.join(target_dir(), "perfbench")
    procs = 1 if trace else PROCESSES
    codes, results = [], []
    for _ in range(procs):
        code, last = run_binary(binary, [
            "--workload", workload, "--seed", str(seed), "--seconds", str(seconds / procs),
            "--trace", "1" if trace else "0", "--out", out_dir,
        ], RUN_TIMEOUT_S / procs)
        try:
            results.append(json.loads(last))
        except json.JSONDecodeError:
            fail(f"{workload}: no result (exit code {code})")
        codes.append(code)
    return max(codes), {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {k: statistics.median(r["metrics"][k] for r in results)
                    for k in results[0]["metrics"]},
    }


def units(spec):
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def one(spec, binary, args):
    trace = args.trace == 1
    code, result = measure(binary, args.workload, args.seed, args.seconds, trace)
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        if m["name"] not in result["metrics"]:
            fail(f"{args.workload}: metric {m['name']} missing from the run")
        metrics[m["name"]] = {"value": result["metrics"][m["name"]], "unit": m["unit"]}
    print(json.dumps({
        "correct": result["correct"] and code == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0 if code == 0 else 1


def table(spec, binary, args):
    unit = units(spec)
    results = {}
    ok = True
    for w in WORKLOADS:
        code, result = measure(binary, w, args.seed, args.seconds, False)
        ok = ok and code == 0 and result["correct"]
        results[w] = result
    print(f"{'metric':<20} {'unit':<6}" + "".join(f"{w:>14}" for w in WORKLOADS))
    for name in ALL_END_TO_END:
        cells = []
        for w in WORKLOADS:
            v = results[w]["metrics"][name]
            cells.append("n/a" if w == "local" and name in NETWORK else f"{v:.6g}")
        print(f"{name:<20} {unit[name]:<6}" + "".join(f"{c:>14}" for c in cells))
    for w in WORKLOADS:
        m = results[w]["metrics"]
        print(f"{w}: {results[w]['attempted']} ops attempted, {results[w]['failed']} failed, "
              f"correct={results[w]['correct']}; latency percentiles are per episode over "
              f"{m['bench.read_samples']:.0f} reads / {m['bench.write_samples']:.0f} writes, "
              f"median of {m['bench.episodes']:.0f} episodes in each of {PROCESSES} processes")
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--selfcheck", action="store_true")
    args = p.parse_args()
    if not args.selfcheck and args.workload is None:
        p.error("--workload or --selfcheck is required")
    if not os.path.isfile(SPEC):
        fail("BENCHMARK.json not found at the repository root")
    with open(SPEC) as f:
        spec = json.load(f)
    if args.seconds is None:
        args.seconds = spec["run_seconds"] if args.workload != "all" else 8
    binary = build()
    if args.selfcheck:
        proc = subprocess.run([binary, "--selfcheck", "--seed", str(args.seed)],
                              timeout=RUN_TIMEOUT_S)
        return proc.returncode
    if args.workload == "all":
        return table(spec, binary, args)
    return one(spec, binary, args)


if __name__ == "__main__":
    sys.exit(main())
