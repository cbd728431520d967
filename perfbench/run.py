#!/usr/bin/env python3
"""Runs one benchmark workload and prints its result line.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the measuring program
(`perfbench/`, a cargo package of its own) and the `hfta` binary the
serve workload spawns, into `$CARGO_TARGET_DIR` (default
`.bench_build`); runs the workload; applies the host-speed correction
recorded in `perfbench/design.json`; checks the answers, which do not
depend on the seed, against `perfbench/expected.json`; and prints, as
the last stdout line, one JSON object with `correct`, `attempted`,
`failed` and `metrics` --
the end-to-end metrics of `BENCHMARK.json` with `--trace 0`, its
per-layer metrics with `--trace 1`. The full record of the run (raw and
corrected values, calibration samples, the workload's own metric names)
is printed on the line before and appended to
`.perfbench_runs/records.jsonl`; a traced run's spans are written to
`.perfbench_runs/spans-<workload>-<seed>.jsonl`.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(target):
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    steps = [
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(ROOT, "Cargo.toml"), "-p", "hfta", "--bin", "hfta"],
    ]
    for cmd in steps:
        if subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=870).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))


def median(xs):
    xs = sorted(xs)
    mid = len(xs) // 2
    return xs[mid] if len(xs) % 2 else (xs[mid - 1] + xs[mid]) / 2


def end_to_end(timeline, factor, units):
    """Raw and host-corrected (raw * factor) end-to-end metrics from the
    run's timeline of samples: a metric is the median of its samples,
    and a `metric:part` label makes it the sum of the per-part medians
    (paper_tables: per circuit)."""
    parts = {}
    for label, v in timeline:
        if label != "cal":
            metric, _, part = label.partition(":")
            parts.setdefault(metric, {}).setdefault(part, []).append(v)
    out = {}
    for metric, by_part in parts.items():
        raw = sum(median(xs) for xs in by_part.values())
        out[metric] = {"raw": raw, "corrected": raw * factor, "unit": units[metric]}
    return out


def expected_failures(workload, answers):
    """Mismatches against the stored answers. The designs are fixed (the
    seed orders the analyses and draws the serve reads), so every seed
    must give them."""
    with open(os.path.join(HERE, "expected.json")) as f:
        want = json.load(f)[workload]
    return [f"{k}: got {answers.get(k)}, want {v}" for k, v in want.items() if answers.get(k) != v]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    os.chdir(ROOT)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(os.path.join(HERE, "design.json")) as f:
        design = json.load(f)
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        sys.exit(f"perfbench: unknown workload {args.workload!r}")

    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build(target)

    work = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    cmd = [os.path.join(target, "release", "perfbench"), "run",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work", os.path.relpath(work), "--hfta", os.path.join(target, "release", "hfta")]
    os.makedirs(".perfbench_runs", exist_ok=True)
    # A session of its own, so a run that overstays is stopped together
    # with everything it started (calibration helper, serve daemon).
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=170)
        spans = os.path.join(work, "spans.jsonl")
        if os.path.exists(spans):
            shutil.move(spans, os.path.join(".perfbench_runs", f"spans-{args.workload}-{args.seed}.jsonl"))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.exit("perfbench: workload run timed out")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0 or not out.strip():
        sys.exit(f"perfbench: workload run failed (exit {proc.returncode})")
    record = json.loads(out.strip().splitlines()[-1])

    units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    # Host-speed correction: raw * calib_ref / calib_run.
    record["calib_run_ms"] = median(record["calib_samples_ms"])
    factor = design["calib_ref_ms"] / record["calib_run_ms"]
    record["e2e"] = end_to_end(record["timeline"], factor, units)
    record["e2e"]["peak_rss_mb"] = {"raw": record["peak_rss_mb"], "corrected": record["peak_rss_mb"], "unit": "MB"}
    for native, metric in design["native_names"][args.workload].items():
        record["native"][native] = record["e2e"][metric]

    failures = list(record["failures"])
    attempted, failed = record["attempted"], record["failed"]
    mismatches = expected_failures(args.workload, record["answers"])
    attempted += 1
    if mismatches:
        failed += 1
        failures += mismatches
    record["failed_ratio"] = failed / max(attempted, 1)

    if args.trace:
        metrics = {m["name"]: record["layers"][m["name"]] for m in bench["per_layer"]}
        # What each layer's metrics should move, and where they should not.
        record["layer_moves"] = {k: v for k, v in design["per_layer"].items() if k != "note"}
    else:
        gate = design["gate_uses"][args.workload]
        metrics = {}
        for m in bench["end_to_end"]:
            e = record["e2e"][m["name"]]
            metrics[m["name"]] = {"value": e[gate[m["name"]]], "unit": e["unit"]}

    with open(os.path.join(".perfbench_runs", "records.jsonl"), "a") as f:
        f.write(json.dumps(record) + "\n")
    for msg in failures:
        print("FAILED:", msg, file=sys.stderr)
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
