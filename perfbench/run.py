#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload <ingest|history|live> --seed <n> \
        --seconds <s> --trace <0|1>

Run it from the repository root. It builds `perfbench` (a Cargo package
of its own) in release mode into $CARGO_TARGET_DIR (default
`.bench_build`), runs it with a scratch directory under that target
directory, and passes its output through: the last stdout line is one JSON
object with `correct`, `attempted`, `failed` and `metrics`. Build output
and the human-readable summary go to stderr. The exit code is non-zero
when the build or the run fails.
"""

import os
import shutil
import subprocess
import sys

ROOT = os.getcwd()
MANIFEST = os.path.join("perfbench", "Cargo.toml")
RUN_TIMEOUT_S = 170


def main():
    args = sys.argv[1:]
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(ROOT, target)
    env = {k: v for k, v in os.environ.items() if not k.startswith("TU_")}
    env["CARGO_TARGET_DIR"] = target
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST],
        stdout=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    binary = os.path.join(target, "release", "perfbench")
    work = os.path.join(target, "perfbench-work")
    os.makedirs(work, exist_ok=True)
    try:
        run = subprocess.run([binary, *args, "--work-dir", work], env=env, timeout=RUN_TIMEOUT_S)
        return run.returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
