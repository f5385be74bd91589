#!/usr/bin/env python3
"""Build and run the wall-clock ledger.

Run from the repository root:

    python3 ledger/run.py --workload full --seed 42 --seconds 10 --trace 0
    python3 ledger/run.py --self-test

The first call configures and builds the library and the ledger in
Release mode under .bench_build/; later calls rebuild incrementally.
Build output goes to stderr, so the last stdout line is the ledger's
JSON result. Run artifacts (per-run report with provenance, spans of
traced runs) land in .bench_run/<workload>/.
"""

import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
BUILD = Path(".bench_build")
RUN = Path(".bench_run")


def nproc():
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:
        return max(1, os.cpu_count() or 1)


def build(targets):
    """Configure (once) and build; returns False on any failure."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        print("ledger: no library sources at src/; cannot build",
              file=sys.stderr)
        return False
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE.relative_to(ROOT)),
                      "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", str(nproc()),
                  "--target"] + targets)
    for cmd in steps:
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode:
            print("ledger: build step failed: " + " ".join(cmd),
                  file=sys.stderr)
            return False
    return True


def src_digest():
    """sha256 over the library sources: provenance without git."""
    h = hashlib.sha256()
    for p in sorted((ROOT / "src").rglob("*")):
        if p.is_file():
            h.update(str(p.relative_to(ROOT)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()[:16]


def git_commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload",
                    choices=["full", "sampled-ckpt", "serve-hot"])
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    ap.add_argument("--self-test", action="store_true",
                    help="build and run the ledger's own tests")
    args = ap.parse_args()
    os.chdir(ROOT)

    if args.self_test:
        if not build(["ledger_tests"]):
            return 2
        return subprocess.run([str(BUILD / "ledger_tests")]).returncode
    if args.workload is None:
        ap.error("--workload is required")
    if not build(["ledger", "bds_serve_bin"]):
        return 2
    cmd = [str(BUILD / "ledger"),
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", str(args.seconds),
           "--trace", args.trace,
           "--serve-bin", str(BUILD / "bds" / "serve" / "bds_serve"),
           "--digests", str(HERE.relative_to(ROOT) / "digests.txt"),
           "--run-dir", str(RUN),
           "--commit", git_commit(),
           "--src-digest", src_digest()]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
