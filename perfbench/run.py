#!/usr/bin/env python3
"""Build the perfbench binary from this checkout's sources and run it.

Usage (from the repository root):

    python3 perfbench/run.py --workload serve_point --seed 1 --seconds 10 --trace 0

All Go build state (build cache, temporary files, the binary) lives under
the build directory named by CARGO_TARGET_DIR, default `.bench_build`, so
the benchmark reads and writes nothing outside the checkout. The build
fails, and so does this script, when the ecoDB sources next to `perfbench/`
are missing.
"""
import os
import subprocess
import sys


def main():
    root = os.getcwd()
    bench_dir = os.path.join(root, "perfbench")
    build = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOTMPDIR": os.path.join(build, "tmp"),
        "GOMODCACHE": os.path.join(build, "gomod"),
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOFLAGS": "-mod=mod",
        "GOWORK": "off",
        "CGO_ENABLED": "0",
    })
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    binary = os.path.join(build, "perfbench-bin")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=bench_dir, env=env,
                           stdout=sys.stderr)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return built.returncode or 1
    env["PERFBENCH_OUT"] = build
    return subprocess.run([binary] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
