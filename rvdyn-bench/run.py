#!/usr/bin/env python3
"""Build rvdyn-bench from source and run one workload.

    python3 rvdyn-bench/run.py --workload <rewrite|profile|fuzz> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run configures and builds the
rvdyn libraries plus the benchmark binary (Release) into $CARGO_TARGET_DIR,
or .bench_build when that is unset; later runs only re-check the build.
Build output goes to stderr, so the last line of stdout is the binary's
JSON result. Traced runs write their spans under <build dir>/traces/. The
binary runs with address-space randomization off (Linux personality flag),
which keeps same-input runs within a few percent of each other.
"""
import argparse
import ctypes
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def source_digest():
    """Short hash of the sources the benchmark is built from (the checkout
    need not be a git repository)."""
    h = hashlib.sha256()
    for top in (os.path.join(ROOT, "src"), HERE):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:12]


def no_aslr():
    """Child-side: turn off address-space randomization (personality flag
    ADDR_NO_RANDOMIZE), so run-to-run timing does not depend on where the
    heap and mappings happened to land."""
    libc = ctypes.CDLL(None, use_errno=True)
    current = libc.personality(0xFFFFFFFF)
    if current != -1:
        libc.personality(current | 0x0040000)


def build(build_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", build_dir, "--target", "rvdyn_bench", "-j", jobs]]
    if os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps = steps[1:]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["rewrite", "profile", "fuzz"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    if not os.path.isdir(os.path.join(ROOT, "src")):
        print("rvdyn-bench: no rvdyn sources next to the benchmark", file=sys.stderr)
        return 1
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                                os.path.join(ROOT, ".bench_build"))
    if not build(build_dir):
        print("rvdyn-bench: build failed", file=sys.stderr)
        return 1
    sys.stdout.flush()
    cmd = [os.path.join(build_dir, "rvdyn_bench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", build_dir, "--source-digest", source_digest()]
    try:
        return subprocess.run(cmd, timeout=175, preexec_fn=no_aslr).returncode
    except subprocess.TimeoutExpired:
        print("rvdyn-bench: run timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
