#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-check

Run from the repository root. The first call configures and builds
perfbench/ (which compiles ../src) in Release mode under
$CARGO_TARGET_DIR, or .bench_build when that is unset; later calls
only rebuild what changed. Build output goes to stderr, so the last
line of stdout is the benchmark's JSON result. The exit status is the
benchmark's: non-zero when the build fails or an output check fails.

--self-check runs every workload briefly, untraced and traced, checks
that each prints exactly the end-to-end and per-layer metrics that
BENCHMARK.json names, with their units, and that a run fed a corrupted
oracle input fails its output check. It covers the workloads
BENCHMARK.json lists and the ones it leaves out (UNLISTED_WORKLOADS).
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170
# Workloads the binary runs that BENCHMARK.json does not list, because
# their figures are not yet steady enough on a shared host (NOTES.md).
# The self-check still runs them.
UNLISTED_WORKLOADS = ["serve-mixed", "cluster-mixed"]


def build_dir():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(root), "perfbench")


def build():
    out = build_dir()
    jobs = str(os.cpu_count() or 1)
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", out, "-j", jobs],
                   stdout=sys.stderr, check=True)
    return os.path.join(out, "perfbench")


def run_bench(binary, workload, seed, seconds, trace, extra=()):
    """Runs the binary; returns (exit code, stdout lines)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--work-dir", os.path.join(build_dir(), "work"), *extra]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    return proc.returncode, proc.stdout.splitlines()


def self_check(binary):
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    failures = []

    def expect(ok, what):
        print(("PASS " if ok else "FAIL ") + what)
        if not ok:
            failures.append(what)

    names = [w["name"] for w in spec["workloads"]] + UNLISTED_WORKLOADS
    for name in names:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, lines = run_bench(binary, name, 1, 1, trace)
            result = json.loads(lines[-1]) if lines else {}
            expect(code == 0 and result.get("correct") is True,
                   f"{name} trace={trace} exits 0 with correct output")
            got = result.get("metrics", {})
            want = {m["name"]: m["unit"] for m in spec[key]}
            expect(set(got) == set(want),
                   f"{name} trace={trace} prints exactly the {key} metrics"
                   f" (missing {sorted(set(want) - set(got))},"
                   f" extra {sorted(set(got) - set(want))})")
            expect(all(got[m]["unit"] == u for m, u in want.items()
                       if m in got),
                   f"{name} trace={trace} units match BENCHMARK.json")
        code, lines = run_bench(binary, name, 1, 1, 0, ["--corrupt-oracle"])
        result = json.loads(lines[-1]) if lines else {}
        expect(code != 0 and result.get("correct") is False,
               f"{name} fails its output check on a corrupted oracle")
    print(f"self-check: {len(failures)} failure(s)")
    return 1 if failures else 0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-check", action="store_true")
    a = p.parse_args()
    try:
        binary = build()
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"perfbench build failed: {e}", file=sys.stderr)
        return 2
    if a.self_check:
        return self_check(binary)
    if not a.workload:
        p.error("--workload is required")
    try:
        code, lines = run_bench(binary, a.workload, a.seed, a.seconds,
                                a.trace)
    except subprocess.TimeoutExpired:
        print(f"perfbench: no result within {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 3
    print("\n".join(lines), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
