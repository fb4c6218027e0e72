#!/usr/bin/env python3
"""Whole-campaign benchmark for CFTCG.

Builds the CFTCG library from the checkout's src/ together with the harness
in campaign_bench/ (into .bench_build/campaign_bench), then runs one workload:

    python3 campaign_bench/run.py --workload long-seq --seed 1 --seconds 25 --trace 0

The harness's last line of standard output is the result object. The build
log goes to standard error. `--self-test` builds and runs the checks'
self-test instead. Exit codes: 0 when the workload ran to its end (wrong
outputs are counted as failed operations in the result), 2 when the sources
are missing or the build fails, otherwise the harness's own code.
"""
import argparse
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "campaign_bench")


def build(target):
    """Configures (once) and builds `target`; returns the binary path or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("error: no CFTCG sources at %s" % os.path.join(ROOT, "src"), file=sys.stderr)
        return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", BUILD_DIR, "--target", target, "-j", jobs])
    # Compiler temporaries stay inside the checkout too.
    env = dict(os.environ, TMPDIR=os.path.join(BUILD_DIR, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
                              env=env)
        if done.returncode != 0:
            sys.stderr.write(done.stdout)
            print("error: %s failed (exit %d)" % (" ".join(cmd[:2]), done.returncode),
                  file=sys.stderr)
            return None
    return os.path.join(BUILD_DIR, target)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=["long-seq", "many-short", "parallel"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")

    binary = build("campaign_bench_selftest" if args.self_test else "campaign_bench")
    if binary is None:
        return 2
    if args.self_test:
        cmd = [binary, "--models", os.path.join(ROOT, "models")]
    else:
        cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--models", os.path.join(ROOT, "models"),
               "--work", os.path.join(BUILD_DIR, "work")]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
