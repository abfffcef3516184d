#!/usr/bin/env python3
"""Builds and runs the BSG4Bot benchmark (perfbench/bsg_bench).

Run from the repository root:

  python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
      Builds bsg + the benchmark from source (incrementally) into
      $CARGO_TARGET_DIR or .bench_build, runs one workload and passes its
      output through. The last stdout line is the JSON result; the exit
      code is 0 only when every output check passed.

  python3 perfbench/run.py --self-check
      Every workload at toy size, untraced and traced, with all output
      checks, plus the layer-stress predictions and the metric names and
      units of BENCHMARK.json. Takes well under a minute once built.

Build and run output (logs, checkpoints, span files) stays inside the
build directory.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["train", "serve-hot", "serve-single"]
RUN_TIMEOUT_S = 175


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build():
    """Configures (once) and builds; returns the binary path or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "bsg4bot.h")):
        log("run.py: bsg sources not found under %s/src" % ROOT)
        return None
    out = build_dir()
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(out, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", out,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", out, "-j", jobs])
        for cmd in steps:
            if subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr,
                               env=env) != 0:
                log("run.py: build step failed: %s" % " ".join(cmd))
                return None
    return os.path.join(out, "bsg_bench")


def git_sha():
    if os.environ.get("BSG_BENCH_GIT_SHA"):
        return os.environ["BSG_BENCH_GIT_SHA"]
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        return subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True,
                              timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def run_once(binary, workload, seed, seconds, trace, toy=False, capture=False):
    """Runs one workload; returns (exit code, stdout or None)."""
    out_dir = os.path.join(build_dir(), "run")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--out-dir", out_dir] + (["--toy"] if toy else [])
    env = dict(os.environ, BSG_BENCH_GIT_SHA=git_sha())
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env,
                            stdout=subprocess.PIPE if capture else None)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log("run.py: %s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
        return 3, None
    return proc.returncode, stdout.decode() if capture else None


def result_of(stdout):
    lines = [l for l in (stdout or "").splitlines() if l.strip()]
    return json.loads(lines[-1]) if lines else None


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def self_check(binary):
    spec = load_spec()
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    layers = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            code, stdout = run_once(binary, workload, 1, 1, trace, toy=True,
                                    capture=True)
            tag = "%s trace=%d" % (workload, trace)
            res = result_of(stdout)
            if code != 0 or res is None or not res.get("correct"):
                problems.append("%s: exit %d, result %s" % (tag, code, res))
                continue
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != wanted[trace]:
                problems.append("%s: metrics %s differ from BENCHMARK.json"
                                % (tag, sorted(set(got) ^ set(wanted[trace]))
                                   or "units"))
            if trace:
                layers[workload] = {k: v["value"]
                                    for k, v in res["metrics"].items()}
            log("self-check: %s ok" % tag)
    # The layer-stress predictions each workload was designed around.
    if len(layers) == len(WORKLOADS):
        predictions = [
            ("serve-hot cache.hit_ratio >= 0.95",
             layers["serve-hot"]["cache.hit_ratio"] >= 0.95),
            ("serve-single has a mixed hit ratio (0.3 to 0.95)",
             0.3 <= layers["serve-single"]["cache.hit_ratio"] <= 0.95),
            ("serve-single runs PPR in its window",
             layers["serve-single"]["ppr.calls"] > 0),
            ("no PPR calls in serve-hot's window",
             layers["serve-hot"]["ppr.calls"] == 0),
            ("the served engine stacks f32 weights only on serve-single",
             all((layers[w]["stack.f32_weight_reuses"] > 0) ==
                 (w == "serve-single") for w in WORKLOADS)),
        ]
        problems += ["prediction failed: " + p for p, ok in predictions if not ok]
    for p in problems:
        log("self-check: " + p)
    log("self-check: %s" % ("FAILED" if problems else "all workloads passed"))
    return 1 if problems else 0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--self-check", action="store_true")
    args = p.parse_args()
    if not (args.workload or args.self_check):
        p.error("give --workload or --self-check")

    binary = build()
    if binary is None:
        return 2
    if args.self_check:
        return self_check(binary)
    code, _ = run_once(binary, args.workload, args.seed, args.seconds,
                       args.trace)
    return code


if __name__ == "__main__":
    sys.exit(main())
