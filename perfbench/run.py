#!/usr/bin/env python3
"""Builds ppdp and the perfbench runner from source, then runs one workload.

Run from the root of a ppdp checkout:

    python3 perfbench/run.py --workload serve-light --seed 1 --seconds 20 --trace 0

Workloads: serve-light, serve-genome, batch-graph (see perfbench/README.md).
--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones. The
last line of stdout is the result object; build output goes to stderr.
Everything the run writes stays under the build directory
($CARGO_TARGET_DIR, default .bench_build/ in the checkout).
"""
import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ("serve-light", "serve-genome", "batch-graph")
TARGETS = ("ppdp_serve", "perfbench_runner")


def die_with_parent():
    """Linux: the runner gets SIGKILL if this process dies first."""
    try:
        import ctypes
        ctypes.CDLL(None).prctl(1, 9)  # PR_SET_PDEATHSIG, SIGKILL
    except (OSError, AttributeError):
        pass


def build(root, build_dir):
    """Configures on first use, then builds the daemon and the runner."""
    here = os.path.dirname(os.path.abspath(__file__))
    cmake_dir = os.path.join(build_dir, "cmake")
    if not os.path.isfile(os.path.join(cmake_dir, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", here, "-B", cmake_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
                       + generator, check=True, stdout=sys.stderr, cwd=root)
    subprocess.run(["cmake", "--build", cmake_dir, "-j", str(os.cpu_count() or 1), "--target"]
                   + list(TARGETS), check=True, stdout=sys.stderr, cwd=root)
    return cmake_dir


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    if not (os.path.isfile(os.path.join(root, "src", "CMakeLists.txt"))
            and os.path.isfile(os.path.join(root, "tools", "ppdp_serve.cc"))):
        print("perfbench: no ppdp source tree here; run from the repository root",
              file=sys.stderr)
        return 2
    build_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    try:
        cmake_dir = build(root, build_dir)
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"perfbench: build failed: {error}", file=sys.stderr)
        return 2

    work_dir = os.path.join(build_dir, f"run-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    try:
        return subprocess.run([
            os.path.join(cmake_dir, "perfbench_runner"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--bin_dir", os.path.join(cmake_dir, "ppdp_tools"), "--work_dir", work_dir,
        ], cwd=root, preexec_fn=die_with_parent).returncode
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
