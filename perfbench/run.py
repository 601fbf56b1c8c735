#!/usr/bin/env python3
"""Entry point of the end-to-end benchmark (see README.md).

    python3 perfbench/run.py --workload fit-graph --seed 1 --seconds 30 \
        --trace 0

Run from the repository root. Builds the library and the driver from
source (cmake, into $CARGO_TARGET_DIR/perfbench or .bench_build/perfbench;
a no-op once built), runs one workload and prints the driver's result as
the last line of stdout: {"correct", "attempted", "failed", "metrics"}.
Exits non-zero without a result when the build fails or the result does
not carry exactly the metrics BENCHMARK.json declares.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DRIVER_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(targets=("perfbench_driver",)):
    """Configures (once) and builds `targets`; returns the build dir.

    Build output goes to stderr so stdout carries only the result.
    Raises RuntimeError when the sources or the toolchain are missing.
    """
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("no taxorec sources next to perfbench/")
    bdir = build_dir()
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", bdir,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            stdout=sys.stderr, stderr=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", bdir, "-j", "4", "--target", *targets],
        stdout=sys.stderr, stderr=sys.stderr, check=True)
    return bdir


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def check_result(line, trace):
    """Returns the parsed result, or raises ValueError if it is malformed."""
    result = json.loads(line)
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        raise ValueError("result keys: %s" % sorted(result))
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        raise ValueError("attempted must be a whole number >= 1")
    if not isinstance(result["failed"], int):
        raise ValueError("failed must be a whole number")
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    want = declared_metrics(trace)
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        raise ValueError("metrics differ from BENCHMARK.json: missing %s, "
                         "extra %s" % (missing, extra))
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    try:
        bdir = build()
    except (RuntimeError, OSError, subprocess.CalledProcessError) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 2
    cmd = [os.path.join(bdir, "perfbench_driver"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: driver timed out", file=sys.stderr)
        return 4
    lines = proc.stdout.strip().splitlines()
    if not lines:
        print("perfbench: driver printed no result (exit %d)"
              % proc.returncode, file=sys.stderr)
        return proc.returncode or 5
    try:
        check_result(lines[-1], args.trace)
    except ValueError as e:
        print("perfbench: bad result: %s" % e, file=sys.stderr)
        return 6
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    print(lines[-1])
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
