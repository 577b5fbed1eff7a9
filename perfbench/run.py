#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the repository root.  The first call configures and builds the
rtr library and the perfbench program from source (CMake, Release) under
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that variable
is unset; later calls only re-check the configuration and the build.  The
program's info document is printed on one line, and its result object --
correct, attempted, failed, metrics -- as the last line of standard output.
Build output goes to standard error.

--self-test builds and runs the benchmark's own unit tests instead.

Exit status is 0 when a result was printed, non-zero (with no result line)
when the build or the run failed.
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("serve_http", "serve_wire", "epoch_churn", "build_snapshot")
RUN_TIMEOUT_S = 170


def build_dir() -> Path:
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return (Path.cwd() / base / "perfbench").resolve()


def build(target: str) -> Path:
    """Configures (once) and builds `target`; returns the build directory."""
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    # One build at a time per checkout, so concurrent runs cannot interleave.
    with open(out / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        cmd = ["cmake", "-S", str(HERE), "-B", str(out),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja") and not (out / "CMakeCache.txt").exists():
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
        jobs = str(max(1, os.cpu_count() or 1))
        subprocess.run(["cmake", "--build", str(out), "--target", target,
                        "-j", jobs], check=True, stdout=sys.stderr)
    return out


def split_documents(text: str) -> list:
    """perfbench prints its JSON documents back to back."""
    decoder = json.JSONDecoder()
    docs, i = [], 0
    while True:
        while i < len(text) and text[i].isspace():
            i += 1
        if i >= len(text):
            return docs
        doc, i = decoder.raw_decode(text, i)
        docs.append(doc)


def run(args: argparse.Namespace) -> int:
    out = build("perfbench")
    work = out / f"work-{os.getpid()}"
    cmd = [str(out / "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work-dir", str(work)]
    if args.trace:
        cmd += ["--spans", str(out / f"spans-{args.workload}.jsonl")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0:
        print(f"perfbench exited with {proc.returncode}", file=sys.stderr)
        return 1
    docs = split_documents(proc.stdout)
    if len(docs) != 2 or "info" not in docs[0] or "metrics" not in docs[1]:
        print("perfbench printed an unexpected document sequence",
              file=sys.stderr)
        return 1
    info, result = docs
    print(json.dumps(info, separators=(",", ":")))
    print(json.dumps(result, separators=(",", ":")), flush=True)
    return 0


def self_test() -> int:
    out = build("perfbench_tests")
    return subprocess.run([str(out / "perfbench_tests")], cwd=out).returncode


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    try:
        if args.self_test:
            return self_test()
        if None in (args.workload, args.seed, args.seconds, args.trace):
            parser.error("--workload, --seed, --seconds and --trace are required")
        return run(args)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError, ValueError) as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
