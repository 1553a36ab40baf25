#!/usr/bin/env python3
"""Run one workload of the emstress benchmark and print its result.

    python3 perfbench/run.py --workload <name> --seed <n> \
        --seconds <s> --trace <0|1>

Run from the root of a checkout. The first run configures and builds
perfbench/ (the emstress libraries plus the `perfbench` runner) into
.bench_build/; later runs only check that the build is up to date.

With --trace 0 the runner measures the end-to-end metrics; set-up time
is sampled in several fresh processes and reported as their median.
With --trace 1 it measures the per-layer metrics in a separate traced
run and writes a Chrome trace under .bench_out/. Readable progress
goes to standard output first; the last line is one JSON object with
the keys correct, attempted, failed and metrics. The exit code is 0
only when every output check passed. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build")
OUT = os.path.join(ROOT, ".bench_out")
BINARY = os.path.join(BUILD, "perfbench")
MANIFEST = os.path.join(ROOT, "BENCHMARK.json")

# Fresh processes whose set-up times setup_s is the median of (the
# measuring run itself is one of them).
SETUP_SAMPLES = 11
# Build parallelism (the benchmark host has 4 vCPUs).
BUILD_JOBS = "4"
# Environment switches the program reads that must not leak into a run:
# thread counts, budgets and the metrics registry are fixed in code.
IGNORED_ENV = ("EMSTRESS_THREADS", "EMSTRESS_FULL", "EMSTRESS_METRICS")


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("emstress sources not found under " + ROOT)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", SOURCE, "-B", BUILD,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("configure failed")
    cmd = ["cmake", "--build", BUILD, "--target", "perfbench",
           "-j", BUILD_JOBS]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def manifest_metrics(trace):
    """Name -> unit of the metrics the manifest expects in this mode."""
    try:
        with open(MANIFEST) as f:
            manifest = json.load(f)
    except (OSError, ValueError):
        fail("cannot read " + MANIFEST)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in manifest[key]}


def run_child(args, extra):
    """Run the runner; echo its output; return its JSON result line."""
    env = {k: v for k, v in os.environ.items() if k not in IGNORED_ENV}
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", OUT] + extra
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=env,
                          cwd=ROOT, text=True)
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("runner printed no result (exit code %d)" % proc.returncode)
    if proc.returncode != 0 and result.get("failed", 0) == 0:
        fail("runner exited with code %d" % proc.returncode)
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["em_search", "droop_search",
                                 "service_mix"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    expected = manifest_metrics(args.trace)
    build()
    os.makedirs(OUT, exist_ok=True)
    setup = []
    if args.trace == 0:
        for _ in range(SETUP_SAMPLES - 1):
            sample = run_child(args, ["--setup-only"])
            setup.append(sample["metrics"]["setup_s"]["value"])
    result = run_child(args, [])
    metrics = result["metrics"]
    if args.trace == 0:
        setup.append(metrics["setup_s"]["value"])
        metrics["setup_s"]["value"] = statistics.median(setup)
        metrics["setup_s"]["samples"] = len(setup)
        print("setup_s samples: " + " ".join("%.6f" % s for s in setup))

    for name, m in metrics.items():
        print("%-32s %18.6f %-6s samples=%d"
              % (name, m["value"], m["unit"], m["samples"]))
    got = {name: m["unit"] for name, m in metrics.items()}
    if got != expected:
        fail("metrics %s do not match the manifest's %s"
             % (sorted(got.items()), sorted(expected.items())))
    print(json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in metrics.items()},
    }))
    return 0 if result["correct"] and result["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
