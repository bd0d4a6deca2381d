#!/usr/bin/env python3
"""Entry point of the end-to-end benchmark.

    python3 e2ebench/run.py --workload repro-cold --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. Builds the repository's libraries, the
bpsim_serve daemon and the bpsim_e2e benchmark program from source
into .bench_build (or $CARGO_TARGET_DIR), then runs bpsim_e2e. Its last
stdout line is the result object; its exit code is passed on.
Build output goes to stderr.
"""

import argparse
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def build(build_dir):
    """Configures (once) and builds the targets the benchmark runs."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("e2ebench: no src/ beside e2ebench/; run from a full checkout")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + generator,
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "-j",
                    str(os.cpu_count() or 1), "--target", "bpsim_e2e",
                    "bpsim_serve_daemon"],
                   check=True, stdout=sys.stderr)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["repro-cold", "rerun-warm", "serve-mix"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    try:
        build(build_dir)
    except (OSError, subprocess.CalledProcessError) as error:
        sys.exit(f"e2ebench: build failed: {error}")

    bench = [os.path.join(build_dir, "bpsim_e2e"),
             "--workload", args.workload, "--seed", str(args.seed % 2**64),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--work-dir", os.path.join(build_dir, "e2e"),
             "--serve-binary", os.path.join(build_dir, "serve", "bpsim_serve"),
             "--reference", os.path.join(BENCH_DIR, "reference.json")]
    sys.exit(subprocess.run(bench, cwd=ROOT).returncode)


if __name__ == "__main__":
    main()
