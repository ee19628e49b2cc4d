#!/usr/bin/env python3
"""Builds and runs the serving-and-training benchmark.

Run from the repository root:

  python3 perfbench/run.py --workload city_replay --seed 1 --seconds 20 --trace 0
  python3 perfbench/run.py --report [--seed N] [--seconds S] [--trace 0|1]
  python3 perfbench/run.py --regen-goldens
  python3 perfbench/run.py --selftest

The first form runs one workload and prints its result as the last line
of standard output. --report runs every workload and prints a table of
every metric with its unit. --regen-goldens rewrites perfbench/goldens.json
after a deliberate numeric change. --selftest runs the benchmark's own
tests. README.md in this directory explains the workloads and metrics.
"""

import argparse
import fcntl
import hashlib
import json
import os
import signal
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build(target):
    """Configures (once) and builds `target`; returns the binary path."""
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    with open(os.path.join(out, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
            steps.append(["cmake", "-S", BENCH_DIR, "-B", out,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", out, "--target", target, "-j", jobs])
        for cmd in steps:
            res = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                 timeout=BUILD_TIMEOUT_S)
            if res.returncode != 0:
                log(f"build step failed: {' '.join(cmd)}")
                sys.exit(res.returncode or 1)
    return os.path.join(out, target)


def load_json(name):
    with open(os.path.join(BENCH_DIR, name)) as f:
        return json.load(f)


def source_digest():
    """sha256 over the program sources and build files: identifies the code
    measured even where the checkout is not a git repository."""
    h = hashlib.sha256()
    paths = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in (os.path.join(ROOT, "src"), BENCH_DIR):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            paths += [os.path.join(dirpath, f) for f in sorted(filenames)]
    for p in paths:
        if os.path.isfile(p):
            h.update(os.path.relpath(p, ROOT).encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def git_sha():
    try:
        res = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return res.stdout.strip() if res.returncode == 0 else "none"


def bench_command(binary, workload, seed, seconds, trace, extra=()):
    config = load_json("workloads.json")[workload]
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--rate", str(config["rate_per_s"]),
           "--tail", str(config["tail_percentile"]),
           "--workdir", build_dir()]
    for key, digest in load_json("goldens.json").get(workload, {}).items():
        cmd += ["--golden", f"{key}={digest}"]
    return cmd + list(extra)


def run_bench(cmd):
    """Runs one benchmark process to completion; returns (code, stdout)."""
    try:
        res = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                             text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"timed out after {RUN_TIMEOUT_S} s: {' '.join(cmd)}")
        return 124, ""
    return res.returncode, res.stdout


def last_json(stdout):
    lines = [l for l in stdout.splitlines() if l.strip()]
    return json.loads(lines[-1]) if lines else None


def cmd_run(args):
    binary = build("rtp_bench")
    meta = ["--meta", f"git_sha={git_sha()}", "--meta",
            f"source_digest={source_digest()}"]
    code, stdout = run_bench(bench_command(binary, args.workload, args.seed,
                                           args.seconds, args.trace, meta))
    sys.stdout.write(stdout)
    sys.stdout.flush()
    return code


def cmd_report(args):
    binary = build("rtp_bench")
    names = list(load_json("workloads.json"))
    results = {}
    for name in names:
        code, stdout = run_bench(bench_command(binary, name, args.seed,
                                               args.seconds, args.trace))
        result = last_json(stdout) if code == 0 else None
        if result is None:
            log(f"{name}: failed (exit {code})")
            return code or 1
        results[name] = result
    metrics = list(results[names[0]]["metrics"])
    print(f"{'metric':<28} {'unit':<8} " +
          " ".join(f"{n:>15}" for n in names))
    for m in metrics:
        unit = results[names[0]]["metrics"][m]["unit"]
        cells = " ".join(f"{results[n]['metrics'][m]['value']:>15.4f}"
                         if results[n]["metrics"][m]["value"] is not None
                         else f"{'-':>15}" for n in names)
        print(f"{m:<28} {unit:<8} {cells}")
    for key in ("attempted", "failed"):
        print(f"{key:<28} {'count':<8} " +
              " ".join(f"{results[n][key]:>15d}" for n in names))
    print(f"{'failed_frac':<28} {'frac':<8} " +
          " ".join(f"{results[n]['failed'] / results[n]['attempted']:>15.6f}"
                   for n in names))
    print(f"{'correct':<28} {'':<8} " +
          " ".join(f"{str(results[n]['correct']):>15}" for n in names))
    return 0 if all(r["correct"] for r in results.values()) else 1


def cmd_regen(args):
    binary = build("rtp_bench")
    goldens = {}
    for name in load_json("workloads.json"):
        code, stdout = run_bench(bench_command(binary, name, 1, 1, 0,
                                               ["--regen"]))
        result = last_json(stdout) if code == 0 else None
        if result is None:
            log(f"{name}: regen failed (exit {code})")
            return code or 1
        goldens[name] = result["goldens"]
    with open(os.path.join(BENCH_DIR, "goldens.json"), "w") as f:
        json.dump(goldens, f, indent=2, sort_keys=True)
        f.write("\n")
    log("wrote perfbench/goldens.json")
    return 0


def cmd_selftest(args):
    binary = build("perfbench_test")
    return subprocess.run([binary]).returncode


def main():
    # Turn SIGTERM into an exception, so subprocess.run kills and reaps the
    # benchmark process instead of leaving it running.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--report", action="store_true")
    mode.add_argument("--regen-goldens", action="store_true")
    mode.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if args.report:
        return cmd_report(args)
    if args.regen_goldens:
        return cmd_regen(args)
    if args.selftest:
        return cmd_selftest(args)
    if not args.workload:
        parser.error("--workload is required")
    if args.workload not in load_json("workloads.json"):
        parser.error(f"unknown workload {args.workload}")
    return cmd_run(args)


if __name__ == "__main__":
    sys.exit(main())
