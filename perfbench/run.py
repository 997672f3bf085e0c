#!/usr/bin/env python3
"""manetcast benchmark.

One run, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

builds perfbench_runner from the checkout's sources (under
$CARGO_TARGET_DIR, default .bench_build, in a directory of this source
tree's own), runs the workload on one thread, checks its results and
prints one JSON object as the last line of stdout: the end-to-end metrics
of BENCHMARK.json with --trace 0, the per-layer metrics with --trace 1.
setup_s and tick_norm_ms_* are probe-normalised: scaled to a reference
host speed by a probe timed just before and after the run
(metrics.host_scale). The `measured` line above the JSON line gives the
run's times as measured. Runs of one binary, workload, seed and length
must repeat every count exactly; a ledger under the build directory,
keyed by the binary's digest, flags any drift as a failure.

Steadiness report:

    python3 perfbench/run.py --report <k> [--sets <m>] [--seconds <s>]

runs every workload k times per set with seeds 1..k, alternating
workloads, and prints each end-to-end metric's median, quartiles, min/max
and spread; with m >= 2 sets, also how far each later set's median moved
from the first set's.
"""

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import metrics

ROOT = Path(__file__).resolve().parent.parent
RUNNER_TIMEOUT_S = 170


class BenchError(Exception):
    """The benchmark could not run (as opposed to ran and found errors)."""


def load_benchmark():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build():
    """Configures (once) and builds perfbench_runner; returns its path.
    Each source tree builds in a directory of its own, so checkouts that
    share one $CARGO_TARGET_DIR never run each other's code."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError(f"no manetcast sources under {ROOT / 'src'}")
    tree = hashlib.sha256(str(ROOT / "perfbench").encode()).hexdigest()[:12]
    out = build_dir() / f"perfbench-{tree}"
    out.mkdir(parents=True, exist_ok=True)
    log = out / "build.log"
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(out), "--target", "perfbench_runner",
                  "-j", jobs])
    with log.open("w") as sink:
        for step in steps:
            if subprocess.run(step, stdout=sink, stderr=subprocess.STDOUT,
                              check=False).returncode != 0:
                sink.flush()
                sys.stderr.write(log.read_text()[-4000:])
                raise BenchError(f"build failed: {' '.join(step)}")
    return out / "perfbench_runner"


def invoke_runner(exe, *args):
    """Runs perfbench_runner to completion; returns its last stdout line
    parsed as JSON."""
    try:
        done = subprocess.run([str(exe), *map(str, args)],
                              stdout=subprocess.PIPE, text=True,
                              timeout=RUNNER_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"runner exceeded {RUNNER_TIMEOUT_S} s") from e
    if done.returncode != 0:
        raise BenchError(f"runner exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def check_determinism(raw, seconds, exe):
    """Compares this run's deterministic record with the first run of the
    same binary, workload, seed and length in this build directory (and
    records it when there is none). A rebuilt binary starts a ledger of
    its own, so a change that legitimately moves a count is not drift.
    Returns the names of drifting entries."""
    digest = hashlib.sha256(exe.read_bytes()).hexdigest()[:16]
    ledger = build_dir() / "ledger" / digest
    ledger.mkdir(parents=True, exist_ok=True)
    path = ledger / f"{raw['workload']}-seed{raw['seed']}-{seconds}s.json"
    record = metrics.deterministic_record(raw)
    if path.is_file():
        expected = json.loads(path.read_text())
        drifted = metrics.drift(expected, record)
        merged = {**record, **expected}
    else:
        drifted, merged = [], record
    path.write_text(json.dumps(merged, indent=1, sort_keys=True))
    return drifted


def one_run(args, spec):
    names = {w["name"] for w in spec["workloads"]}
    if args.workload not in names:
        raise BenchError(f"unknown workload {args.workload!r}; one of "
                         f"{sorted(names)}")
    exe = build()
    traced = args.trace == 1
    spans_path = None
    if traced:
        spans_path = exe.parent / "spans" / f"{args.workload}-{args.seed}.jsonl"
        spans_path.parent.mkdir(parents=True, exist_ok=True)
    load_start = os.getloadavg()
    probe_start = invoke_runner(exe, "--probe")
    cmd = ["--workload", args.workload, "--seed", args.seed,
           "--seconds", args.seconds]
    if traced:
        cmd += ["--spans", spans_path]
    raw = invoke_runner(exe, *cmd)
    raw["probe_ms"] = [probe_start, invoke_runner(exe, "--probe")]
    load_end = os.getloadavg()

    errors = list(raw["errors"])
    drifted = check_determinism(raw, args.seconds, exe)
    if drifted:
        errors.append("determinism drift against an earlier run of this "
                      "binary and seed: " + ", ".join(drifted))
    if traced:
        spans = [json.loads(line) for line in
                 spans_path.read_text().splitlines()]
        values = metrics.per_layer(raw, spans)
        wanted = spec["per_layer"]
    else:
        values = metrics.end_to_end(raw)
        wanted = spec["end_to_end"]
        print("measured " + json.dumps(metrics.measured(raw)))
        errors += [f"{m['name']} is {values[m['name']]}" for m in wanted
                   if not (math.isfinite(values[m["name"]])
                           and values[m["name"]] > 0)]

    host = {
        "workload": raw["workload"], "seed": raw["seed"],
        "nproc": os.cpu_count(), "loadavg_start": load_start,
        "loadavg_end": load_end, "probe_ms_start": raw["probe_ms"][0],
        "probe_ms_end": raw["probe_ms"][1],
        "fingerprint": raw["fingerprint"], "state_hash": raw["state_hash"],
        "ticks": raw["ticks"], "broadcasts": raw["broadcasts"],
        "connected": raw["connected"],
    }
    print("host " + json.dumps(host))
    for error in errors:
        print("error: " + error, file=sys.stderr)
    result = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
              for m in wanted}
    for name, v in result.items():
        target = ""
        if traced:
            moves, on, _ = metrics.LAYER_TARGETS[name]
            target = f"  (moves {moves} on {on})"
        print(f"{name} = {v['value']:.6g} {v['unit']}{target}")
    print(json.dumps({
        "correct": not errors,
        "attempted": raw["attempted"],
        "failed": max(raw["failed"], 1 if errors else 0),
        "metrics": result,
    }))
    return 0


def report(args, spec):
    """Runs the steadiness report; returns 0 when every run was correct."""
    workloads = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    sets = []
    all_correct = True
    for s in range(args.sets):
        values = {w: {} for w in workloads}
        for seed in range(1, args.report + 1):
            for w in workloads:
                cmd = [sys.executable, __file__, "--workload", w, "--seed",
                       str(seed), "--seconds", str(args.seconds), "--trace",
                       "0"]
                start = time.monotonic()
                done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                                      check=False)
                lines = done.stdout.strip().splitlines()
                if done.returncode != 0 or not lines:
                    raise BenchError(f"{w} seed {seed} failed to run")
                result = json.loads(lines[-1])
                host = json.loads(next(l for l in lines
                                       if l.startswith("host "))[5:])
                all_correct &= result["correct"]
                for name, m in result["metrics"].items():
                    values[w].setdefault(name, []).append(m["value"])
                shown = " ".join(f"{name}={m['value']:.5g}" for name, m
                                 in result["metrics"].items())
                print(f"set {s + 1} {w} seed {seed}: "
                      f"correct={result['correct']} {shown} "
                      f"probe_ms={host['probe_ms_start']:.2f}/"
                      f"{host['probe_ms_end']:.2f} "
                      f"load={host['loadavg_start'][0]:.2f} "
                      f"wall={time.monotonic() - start:.1f}s", flush=True)
        sets.append(values)
        print(f"\nset {s + 1}: {args.report} runs per workload")
        print(f"{'workload':16s} {'metric':18s} {'median':>12s} {'q1':>12s} "
              f"{'q3':>12s} {'min':>12s} {'max':>12s} {'spread':>7s} "
              f"{'bound':>6s}")
        for w in workloads:
            for name, vs in values[w].items():
                q1, q2, q3 = statistics.quantiles(vs, n=4)
                spread = metrics.spread(vs)
                flag = ("" if name == "setup_s" or spread < bounds[name] / 3
                        else "  above a third of the bound")
                print(f"{w:16s} {name:18s} {q2:12.5g} {q1:12.5g} {q3:12.5g} "
                      f"{min(vs):12.5g} {max(vs):12.5g} "
                      f"{spread:7.4f} {bounds[name]:6.3f}{flag}")
    for s in range(1, len(sets)):
        print(f"\nset {s + 1} against set 1: share by which the median got "
              "worse (negative: better)")
        for w in workloads:
            for name in sets[0][w]:
                first = statistics.median(sets[0][w][name])
                later = statistics.median(sets[s][w][name])
                worse = (later - first) / first
                flag = "" if worse <= bounds[name] else "  EXCEEDS BOUND"
                print(f"{w:16s} {name:18s} {first:12.5g} -> {later:12.5g} "
                      f"{worse:+8.4f} (bound {bounds[name]:.3f}){flag}")
    print("\nall runs correct" if all_correct else "\nSOME RUNS INCORRECT")
    return 0 if all_correct else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", type=int, metavar="K")
    parser.add_argument("--sets", type=int, default=1)
    args = parser.parse_args()
    try:
        spec = load_benchmark()
        if args.seconds is None:
            args.seconds = spec["run_seconds"]
        if args.report is not None:
            return report(args, spec)
        if args.workload is None:
            parser.error("--workload or --report is required")
        return one_run(args, spec)
    except (BenchError, OSError, ValueError, KeyError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
