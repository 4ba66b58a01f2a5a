#!/usr/bin/env python3
"""Build the benchmark and run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload <serve|churn|cold-start> \
        --seed <n> --seconds <s> --trace <0|1>

Builds the `perfbench` package (release profile) into $CARGO_TARGET_DIR,
default `.bench_build` in the current directory, then runs it. The
benchmark's report goes to standard output; its last line is one JSON
object with the keys `correct`, `attempted`, `failed` and `metrics`.
Snapshots are written under `.perfbench_work` in the current directory
and removed at the end of the run. Exits non-zero, without a result,
when the build fails.
"""

import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def source_digest():
    """SHA-256 over the sources the benchmark builds, so a result names
    the code it measured even where there is no git history."""
    h = hashlib.sha256()
    for top in ("Cargo.toml", "crates", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f)
            for d, _, fs in os.walk(path)
            for f in fs
            if f.endswith((".rs", ".toml"))
        )
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def commit():
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return "unknown"
    return lines[1]


def main():
    env = dict(os.environ)
    target = os.path.abspath(env.get("CARGO_TARGET_DIR") or ".bench_build")
    env["CARGO_TARGET_DIR"] = target
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        stdout=sys.stderr, env=env,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    env["PERFBENCH_COMMIT"] = commit()
    env["PERFBENCH_SOURCE_DIGEST"] = source_digest()
    exe = os.path.join(target, "release", "perfbench")
    work = os.path.abspath(".perfbench_work")
    return subprocess.run([exe, *sys.argv[1:], "--work-dir", work], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
