#!/usr/bin/env python3
"""Build and run the benchmark; summarise repeated runs.

One run, from the repository root:

    python3 perfbench/run.py --workload study-half --seed 1 --seconds 10 --trace 0

builds the `perfbench` package in release mode (into $CARGO_TARGET_DIR,
default perfbench/target), runs the named workload in its own process and
passes its output through. The last line of standard output is the JSON
result.

Repeated runs, for measuring spread before setting bounds:

    python3 perfbench/run.py repeat --workload daemon-read --runs 5 [--seed 1]
        [--seconds 10] [--trace 0]

runs the workload with seeds seed, seed+1, ... and prints each metric's
median, quartiles, interquartile range as a share of the median, and
sample count.
"""

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A run must end within 180 s; the binary itself stops well before.
RUN_TIMEOUT_S = 175


def build():
    """Builds the benchmark; returns the executable's path or None."""
    target = os.environ.get("CARGO_TARGET_DIR", os.path.join(HERE, "target"))
    target = os.path.join(ROOT, target) if not os.path.isabs(target) else target
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    if done.returncode != 0:
        return None
    exe = os.path.join(target, "release", "perfbench")
    return exe if os.path.isfile(exe) else None


def run_once(exe, args, capture):
    """Runs the binary once; returns (exit code, stdout text)."""
    try:
        done = subprocess.run([exe] + args, cwd=ROOT, timeout=RUN_TIMEOUT_S,
                              stdout=subprocess.PIPE if capture else None)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1, ""
    out = done.stdout.decode() if capture else ""
    return done.returncode, out


def repeat(argv):
    opts = {"--workload": None, "--runs": "5", "--seed": "1",
            "--seconds": "10", "--trace": "0"}
    it = iter(argv)
    for flag in it:
        if flag not in opts:
            sys.exit(f"repeat: unknown argument {flag!r}")
        opts[flag] = next(it, None)
    if not opts["--workload"]:
        sys.exit("repeat: --workload is required")
    exe = build()
    if exe is None:
        sys.exit("perfbench: build failed")
    values, units, oks = {}, {}, []
    for i in range(int(opts["--runs"])):
        seed = str(int(opts["--seed"]) + i)
        code, out = run_once(exe, ["--workload", opts["--workload"], "--seed", seed,
                                   "--seconds", opts["--seconds"],
                                   "--trace", opts["--trace"]], True)
        lines = out.strip().splitlines()
        if code != 0 or not lines:
            sys.exit(f"repeat: run with seed {seed} failed (exit {code})")
        result = json.loads(lines[-1])
        oks.append((result["correct"], result["attempted"], result["failed"]))
        print(f"seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}",
              file=sys.stderr)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
    print(f"{'metric':<28} {'unit':<6} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'iqr/med':>8} {'n':>3}")
    for name, vals in values.items():
        med = statistics.median(vals)
        if len(vals) >= 2:
            q1, _, q3 = statistics.quantiles(vals, n=4)
        else:
            q1 = q3 = vals[0]
        spread = (q3 - q1) / med if med else float("nan")
        print(f"{name:<28} {units[name]:<6} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
              f"{spread:>8.3f} {len(vals):>3}")
        print("    runs: " + " ".join(f"{v:.4g}" for v in vals), file=sys.stderr)
    print("all correct" if all(c for c, _, _ in oks) else "SOME RUNS INCORRECT")
    print("failed share per run: " + ", ".join(f"{f}/{a}" for _, a, f in oks))


def main():
    argv = sys.argv[1:]
    if argv[:1] == ["repeat"]:
        repeat(argv[1:])
        return
    exe = build()
    if exe is None:
        print("perfbench: build failed", file=sys.stderr)
        sys.exit(1)
    code, _ = run_once(exe, argv, False)
    sys.exit(code)


if __name__ == "__main__":
    main()
