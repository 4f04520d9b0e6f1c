#!/usr/bin/env python3
"""End-to-end enforcement benchmark for the fgac engine.

Builds the engine and the benchmark binary (fgac_perfbench) from source,
then runs one workload and relays the binary's output; the last line of
standard output is the result object.

    python3 perfbench/run.py --workload portal --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --self-test

Run from the root of a checkout. Build files go to $CARGO_TARGET_DIR (or
.bench_build), traced-run files to .bench_out. See perfbench/README.md.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(target):
    """Configures and builds `target`; returns its path or None on failure."""
    out = build_dir()
    jobs = str(os.cpu_count() or 1)
    steps = [
        ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", out, "--target", target, "-j", jobs],
    ]
    for cmd in steps:
        res = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                             text=True, check=False)
        if res.returncode != 0:
            sys.stderr.write(res.stdout[-4000:])
            log(f"build step failed: {' '.join(cmd[:3])}")
            return None
    path = os.path.join(out, target)
    return path if os.path.isfile(path) else None


def commit():
    """The checkout's git commit when it is a repository, else 'unknown'."""
    if shutil.which("git") is None:
        return "unknown"
    res = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                         stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                         text=True, check=False)
    return res.stdout.strip() if res.returncode == 0 and res.stdout.strip() else "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=["portal", "policy", "analytics", "enroll"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=12)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="build and run the benchmark's own tests")
    args = ap.parse_args()

    if args.self_test:
        binary = build("perfbench_test")
        if binary is None:
            return 1
        return subprocess.run([binary], cwd=ROOT, check=False).returncode
    if args.workload is None:
        ap.error("--workload is required")

    binary = build("fgac_perfbench")
    if binary is None:
        return 1
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", os.path.join(ROOT, ".bench_out"), "--commit", commit()]
    try:
        res = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 1
    lines = [ln for ln in res.stdout.splitlines() if ln.strip()]
    if res.returncode != 0 or not lines or not lines[-1].startswith('{"correct"'):
        sys.stdout.write(res.stdout)
        log(f"fgac_perfbench failed with exit code {res.returncode}")
        return res.returncode or 1
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
