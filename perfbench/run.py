#!/usr/bin/env python3
"""Benchmark of the vstream simulator: end-to-end host time, memory and
per-layer timing over three workloads.

Run from the repository root:

    python3 perfbench/run.py --workload campaign --seed 1 --seconds 20 --trace 0

It builds perfbench/ (the simulator's libraries plus perfbench_driver) in
$CARGO_TARGET_DIR, default .bench_build, then starts the driver once per
repetition, each in a fresh process, for about --seconds.  Repetition i
simulates the world of scenario seed 1000 * seed + i, checks its outputs
and prints their digest.  The last line of stdout is one JSON object:
correct, attempted, failed and the metrics, which are the end-to-end
metrics (medians over repetitions) with --trace 0 and the per-layer
metrics with --trace 1.  See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys

# Planned host seconds of one repetition (a 4-core host, Release build,
# process start to exit; the driver sets each workload's session count).
# A run makes round(--seconds / planned) repetitions, so the same seed and
# --seconds always measure the same set of worlds, however fast the build.
PLANNED_REPETITION_S = {
    "campaign": 2.3,
    "spill_overload": 2.3,
    "attribution_serial": 2.9,
}

# Metric names and units are defined once, in BENCHMARK.json.
with open("BENCHMARK.json", encoding="utf-8") as spec_file:
    SPEC = json.load(spec_file)
END_TO_END_UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
# Every per-layer metric comes from the driver's traced repetitions except
# trace.overhead_s, which is derived here.
LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

# Simulated statistics: a function of the world alone, so the traced and
# untraced repetitions of a world must report them exactly equal.
EXACT_COUNTS = [name for name in LAYER_UNITS
                if name.split(".")[0] in ("client", "net", "cdn")]

MIN_REPETITIONS = 3
REPETITION_TIMEOUT_S = 150


def log(message):
    print(message, file=sys.stderr, flush=True)


def build(build_dir):
    """Configure (once) and build the driver; returns its path."""
    if not os.path.isfile(os.path.join("perfbench", "CMakeLists.txt")):
        raise RuntimeError("run from the repository root")
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", "perfbench", "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"] + generator,
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "--target",
                    "perfbench_driver", "-j", jobs],
                   stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "perfbench_driver")


def world_seed(seed, index):
    """Scenario seed of the run's index-th world."""
    return (seed * 1000 + index) % 2**64


def run_driver(driver, args, seed, traced, work_dir, spans_file):
    command = [driver, "--workload", args.workload, "--seed", str(seed),
               "--work", work_dir, "--trace", "1" if traced else "0"]
    if traced:
        command += ["--spans", spans_file]
    proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                          timeout=REPETITION_TIMEOUT_S)
    shutil.rmtree(work_dir, ignore_errors=True)
    if proc.returncode != 0:
        raise RuntimeError(f"driver exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    print(next(l for l in lines if l.startswith("digest ")), flush=True)
    result = json.loads(lines[-1])
    result["traced"] = traced
    result["world"] = seed
    return result


def repeat(driver, args, work_root, spans_file):
    """Runs the planned repetitions, one fresh driver process each.

    Each repetition simulates its own world (catalog, population and
    sessions all follow the scenario seed), so the run's medians are taken
    over several worlds and one unusual world cannot move them far.  With
    --trace 1 each world runs traced and then untraced: the pair gives the
    tracing overhead and must agree on every output.
    """
    repetitions = max(MIN_REPETITIONS, round(
        args.seconds / PLANNED_REPETITION_S[args.workload]))
    worlds = repetitions if args.trace == 0 else max(2, repetitions // 2)
    work_dir = os.path.join(work_root, "rep")
    results = []
    for index in range(worlds):
        seed = world_seed(args.seed, index)
        for traced in ((False,) if args.trace == 0 else (True, False)):
            results.append(run_driver(driver, args, seed, traced, work_dir,
                                      spans_file))
    return results


def median_of(results, key):
    return statistics.median(r[key] for r in results)


def summarize(args, results):
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    correct = failed == 0
    for r in results:
        if r["check_error"]:
            log(f"world {r['world']}: output check failed: {r['check_error']}")
            correct = False

    # One digest for the run: two runs of one seed must print the same.
    worlds = {}
    for r in results:
        if worlds.setdefault(r["world"], r) is r:
            continue
        first = worlds[r["world"]]
        differ = [name for name in EXACT_COUNTS
                  if r["layers"][name] != first["layers"][name]]
        if r["digest"] != first["digest"]:
            differ.insert(0, "outputs")
        if differ:
            log(f"world {r['world']}: traced and untraced repetitions differ "
                f"in {', '.join(differ)}")
            correct = False
            failed += r["attempted"]
    run_digest = hashlib.sha256(
        " ".join(w["digest"] for w in worlds.values()).encode()).hexdigest()
    print(f"digest {args.workload} seed={args.seed} worlds={len(worlds)} "
          f"sha256={run_digest[:16]}", flush=True)

    if args.trace == 0:
        values = {
            "setup_s": median_of(results, "setup_s"),
            "wall_s": median_of(results, "wall_s"),
            "sessions_per_s": statistics.median(
                r["attempted"] / (r["wall_s"] - r["setup_s"])
                for r in results),
            "peak_rss_mb": median_of(results, "peak_rss_mb"),
        }
        units = END_TO_END_UNITS
    else:
        traced = [r for r in results if r["traced"]]
        values = {name: statistics.median(r["layers"][name] for r in traced)
                  for name in LAYER_UNITS if name != "trace.overhead_s"}
        untraced_wall = {r["world"]: r["wall_s"]
                         for r in results if not r["traced"]}
        values["trace.overhead_s"] = statistics.median(
            r["wall_s"] - untraced_wall[r["world"]] for r in traced)
        units = LAYER_UNITS

    for name, value in values.items():
        log(f"  {name:36s} {value:.6g} {units[name]}")
    log(f"  repetitions: {len(results)} over {len(worlds)} worlds")
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(PLANNED_REPETITION_S))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    knobs = sorted(k for k in os.environ if k.startswith("VSTREAM_"))
    if knobs:
        log(f"refusing to run with {', '.join(knobs)} set: VSTREAM_* "
            "variables re-shape the engine")
        return 2

    try:
        driver = build(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    except (OSError, RuntimeError, subprocess.CalledProcessError) as error:
        log(f"build failed: {error}")
        return 1

    # Scratch files stay inside the repository directory; the spans of traced
    # repetitions are kept in .bench_work/spans/ after the run.
    work_root = os.path.join(".bench_work", f"{args.workload}-{os.getpid()}")
    spans_dir = os.path.join(".bench_work", "spans")
    os.makedirs(spans_dir, exist_ok=True)
    spans_file = os.path.join(spans_dir,
                              f"{args.workload}-seed{args.seed}.jsonl")
    if os.path.exists(spans_file):
        os.remove(spans_file)
    try:
        results = repeat(driver, args, work_root, spans_file)
    except (OSError, RuntimeError, ValueError, StopIteration,
            subprocess.TimeoutExpired) as error:
        log(f"benchmark failed: {error}")
        return 1
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
    print(json.dumps(summarize(args, results)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
