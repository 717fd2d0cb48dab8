#!/usr/bin/env python3
"""Build the repository's release binaries and the benchmark harness, then
run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. Binaries go to $CARGO_TARGET_DIR
(default: .bench_build in the checkout); generated inputs go to a
perfbench-work directory beside them. Build output goes to stderr, so the
last line of stdout is the harness's JSON result. See perfbench/README.md.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Release binaries the workloads launch: all_experiments and its children
# (eval) and the prediction server (serve-closed).
BINARIES = [
    "all_experiments",
    "table01",
    "table02",
    "counter_decay",
    "figure02",
    "figure07",
    "figure08",
    "figure09",
    "figure10",
    "figure11",
    "figure12",
    "figure13",
    "figure14",
    "figure15",
    "ablations",
    "window_sweep",
    "bottleneck",
    "mascotd",
]


def fail(message):
    print(f"perfbench/run.py: {message}", file=sys.stderr)
    sys.exit(2)


def cargo(args, target):
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    result = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", *args],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if result.returncode != 0:
        fail(f"cargo build {' '.join(args)} failed with code {result.returncode}")


def main():
    for needed in ("Cargo.toml", "crates", os.path.join("perfbench", "Cargo.toml")):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail(f"{needed} not found under {ROOT}: run from a full checkout")
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(ROOT, target)
    bins = [arg for name in BINARIES for arg in ("--bin", name)]
    cargo(["-p", "mascot-bench", "-p", "mascot-serve", *bins], target)
    cargo(["--manifest-path", os.path.join("perfbench", "Cargo.toml")], target)
    release = os.path.join(target, "release")
    harness = os.path.join(release, "perfbench")
    argv = [
        harness,
        *sys.argv[1:],
        "--bin-dir",
        release,
        "--work-dir",
        os.path.join(target, "perfbench-work"),
    ]
    sys.stdout.flush()
    os.chdir(ROOT)
    os.execv(harness, argv)


if __name__ == "__main__":
    main()
