#!/usr/bin/env python3
"""Build the TOSS benchmark and run one workload in a fresh process.

    python3 perfbench/run.py --workload paper-queries --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. Builds `perfbench` (its own cargo
workspace) and the repository's `toss-cli` in release mode into
$CARGO_TARGET_DIR (default `.bench_build`), then runs the workload
binary with the same arguments. The workload prints a stamp line and,
last, the result object. See perfbench/README.md.
"""

import argparse
import os
import pathlib
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("paper-queries", "serve-rw", "cold-restart")
# A single run must finish well inside three minutes.
RUN_TIMEOUT_S = 175


def git_rev():
    """The checkout's git revision, or `unknown` outside a git checkout."""
    try:
        top = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, check=True,
        ).stdout.split()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    if len(top) == 2 and pathlib.Path(top[0]).resolve() == ROOT:
        return top[1]
    return "unknown"


def build(env):
    for manifest, extra in ((HERE / "Cargo.toml", []),
                            (ROOT / "Cargo.toml", ["-p", "toss-cli"])):
        cmd = ["cargo", "build", "--release", "--offline", "--quiet",
               "--manifest-path", str(manifest), *extra]
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            sys.exit(f"build failed: {' '.join(cmd)}")


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()
    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates").is_dir():
        sys.exit(f"{ROOT} is not a checkout of the TOSS workspace")

    target = pathlib.Path(os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build")))
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    build(env)

    work = ROOT / ".bench_work"
    cmd = [str(target / "release" / "toss-perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--work-dir", str(work), "--cli", str(target / "release" / "toss-cli"),
           "--rev", git_rev()]
    try:
        code = subprocess.run(cmd, env=env, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        sys.exit(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
