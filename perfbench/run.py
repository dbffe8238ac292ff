#!/usr/bin/env python3
"""Builds PolyFlow and runs one benchmark workload.

    python3 perfbench/run.py --workload grid|hot|upload --seed N \
        --seconds S --trace 0|1

Run from the repository root. Builds the `serve` and `router` release
binaries and the benchmark itself into $CARGO_TARGET_DIR (default
`.bench_build`), then runs the workload. The last line of stdout is the
result object; reports and traces go to `.bench_out/`.
"""

import argparse
import os
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["grid", "hot", "upload"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    ap.add_argument("--out-dir", default=".bench_out")
    args = ap.parse_args()

    if not (os.path.isfile("Cargo.toml") and os.path.isdir("crates/serve")):
        sys.exit("run.py: run from the root of a PolyFlow checkout (no crates/serve here)")

    env = dict(os.environ)
    # The figure configuration reads POLYFLOW_* overrides; the benchmark
    # measures the defaults the golden snapshot pins.
    for key in [k for k in env if k.startswith("POLYFLOW_")]:
        del env[key]
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    for build in (
        ["cargo", "build", "--release", "--offline", "--quiet",
         "-p", "polyflow-serve", "--bin", "serve", "--bin", "router"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", "perfbench/Cargo.toml"],
    ):
        if subprocess.run(build, env=env, stdout=sys.stderr).returncode != 0:
            sys.exit("run.py: build failed: " + " ".join(build))

    release = os.path.join(target, "release")
    cmd = [
        os.path.join(release, "polyflow-perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--serve-bin", os.path.join(release, "serve"),
        "--router-bin", os.path.join(release, "router"),
        "--out-dir", args.out_dir,
    ]
    sys.stdout.flush()
    sys.exit(subprocess.run(cmd, env=env).returncode)


if __name__ == "__main__":
    main()
