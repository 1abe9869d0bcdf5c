#!/usr/bin/env python3
"""Builds and runs the perfbench benchmark from the root of a checkout.

    python3 perfbench/run.py --workload hot-hits --seed 1 --seconds 15 --trace 0

Builds the `perfbench` package (its own Cargo workspace, depending on the
repository's crates by path) in release mode, then runs it with the given
arguments. Cargo honours CARGO_TARGET_DIR; without it the build goes to
perfbench/target. Spans of traced runs and temporary slab directories go
under perfbench/out. The last line of standard output is the result JSON.
A failed build exits non-zero without printing a result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def capture(cmd):
    """Standard output of `cmd` run at the checkout root, or None."""
    # Keep git from climbing above the checkout: a checkout that is not a
    # repository of its own reports "unknown", not some enclosing repo.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def provenance_env():
    env = dict(os.environ)
    sha = capture(["git", "rev-parse", "HEAD"])
    status = capture(["git", "status", "--porcelain"]) if sha else None
    env["PERFBENCH_GIT_SHA"] = sha or "unknown"
    env["PERFBENCH_GIT_DIRTY"] = "unknown" if status is None else str(bool(status)).lower()
    env["PERFBENCH_RUSTC"] = capture(["rustc", "--version"]) or "unknown"
    return env


def main():
    manifest = os.path.join(HERE, "Cargo.toml")
    build = subprocess.run(
        ["cargo", "build", "--offline", "--release", "--quiet", "--manifest-path", manifest],
        cwd=ROOT,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    exe = os.path.join(ROOT, target, "release", "perfbench")
    out_dir = os.path.join(HERE, "out")
    run = subprocess.run([exe, *sys.argv[1:], "--out", out_dir], cwd=ROOT, env=provenance_env())
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
