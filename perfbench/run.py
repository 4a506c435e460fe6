#!/usr/bin/env python3
"""Build the perfbench benchmark from source and run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload figs --seed 42 --seconds 20 --trace 0

The Go build cache, the binary and the traced run's span files all live in
the build directory ($CARGO_TARGET_DIR, default .bench_build) inside the
checkout. The benchmark's own output, ending in one JSON line, is passed
through unchanged, as is its exit code.
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def source_digest():
    """Names the source revision when the checkout is not a git repository:
    a hash over the Go module and every Go file outside the build tree."""
    h = hashlib.sha256()
    paths = []
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
        for f in filenames:
            if f.endswith(".go") or f in ("go.mod", "go.sum"):
                paths.append(os.path.join(dirpath, f))
    for p in sorted(paths):
        h.update(os.path.relpath(p, ROOT).encode())
        with open(p, "rb") as fh:
            h.update(fh.read())
    return "src-" + h.hexdigest()[:16]


def commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return source_digest()


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=["figs", "tenants", "daemon"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    for need in ("go.mod", os.path.join("internal", "core"), os.path.join("internal", "server")):
        if not os.path.exists(os.path.join(ROOT, need)):
            print(f"perfbench: {need} missing: run from the root of a full checkout",
                  file=sys.stderr)
            return 2

    build = os.path.abspath(os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build")))
    os.makedirs(os.path.join(build, "spans"), exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOMODCACHE": os.path.join(build, "gomodcache"),
        "GOPATH": os.path.join(build, "gopath"),
        "XDG_CONFIG_HOME": os.path.join(build, "config"),
        "GOTOOLCHAIN": "local",
        "GOFLAGS": "-mod=mod",
        "GOWORK": "off",
        "GOENV": "off",
    })
    binary = os.path.join(build, "perfbench")
    b = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env, timeout=850)
    if b.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    cmd = [binary, "-workload", args.workload, "-seed", str(args.seed),
           "-seconds", str(args.seconds), "-trace", str(args.trace),
           "-spans", os.path.join(build, "spans"), "-commit", commit()]
    return subprocess.run(cmd, cwd=ROOT, env=env, timeout=175).returncode


if __name__ == "__main__":
    sys.exit(main())
