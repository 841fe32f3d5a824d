#!/usr/bin/env python3
"""Build and run the specdb benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The benchmark is a Cargo package of its own
(perfbench/Cargo.toml) that depends on the workspace crates by path; it is
built in release mode into $CARGO_TARGET_DIR (default: .bench_build), then
run with the same arguments plus provenance. The last line of standard
output is the run's JSON result.
"""

import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def source_digest():
    """SHA-256 over the sources that make up the measured program."""
    h = hashlib.sha256()
    for top in ("crates", "perfbench/src", "Cargo.toml", "Cargo.lock", "perfbench/Cargo.toml"):
        path = os.path.join(ROOT, top)
        files = []
        if os.path.isfile(path):
            files = [path]
        for dirpath, dirnames, filenames in os.walk(path):
            dirnames.sort()
            files += [os.path.join(dirpath, f) for f in sorted(filenames)]
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def main():
    if not os.path.isfile(os.path.join(ROOT, "crates", "sim", "Cargo.toml")):
        print("perfbench: the specdb sources (crates/) are missing beside perfbench/",
              file=sys.stderr)
        return 2
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        stdout=sys.stderr, env=env)
    if build.returncode != 0:
        return build.returncode
    exe = os.path.join(target, "release", "perfbench")
    extra = ["--commit", commit(), "--source-digest", source_digest(),
             "--out-dir", os.path.join(HERE, "out")]
    return subprocess.run([exe] + sys.argv[1:] + extra, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
