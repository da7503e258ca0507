#!/usr/bin/env python3
"""Build and run the ROP simulator benchmark.

Run from the repository root:

    python3 ropbench/run.py --workload closed-rop --seed 1 --seconds 30 --trace 0
    python3 ropbench/run.py --workload openloop-knee --seed 1 --seconds 30 --trace 1
    python3 ropbench/run.py --selftest
    python3 ropbench/run.py --report 10 [--workload W] [--sets 2] [--seconds 30]

The benchmark is a Rust package of its own (ropbench/Cargo.toml) built
against the repository's crates by path, in release mode, into
$CARGO_TARGET_DIR (default: .bench_build at the repository root). The last
line of standard output of a run is its JSON result; build output goes to
standard error.

--report N runs each workload N times with seeds 1..N (a second set, with
--sets 2, uses seeds N+1..2N, its runs alternating with the first set's)
and prints, per end-to-end metric, the median
and quartiles of each set beside the bound BENCHMARK.json fixes for it.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["closed-rop", "openloop-knee", "sweep-resume"]


def build():
    """Builds the benchmark binary and returns its path (exits on failure)."""
    target = Path(os.environ.get("CARGO_TARGET_DIR", ROOT / ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(HERE / "Cargo.toml")]
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0:
        sys.exit(f"ropbench: build failed (exit {r.returncode})")
    return target / "release" / "ropbench"


def run_once(binary, args):
    """Runs the binary once; returns (exit code, parsed result or None)."""
    r = subprocess.run([str(binary), *args, "--work-dir", str(ROOT / ".ropbench_work")],
                       cwd=ROOT, stdout=subprocess.PIPE, stderr=sys.stderr, text=True)
    lines = r.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    return r.returncode, result, lines[-1] if lines else ""


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def report(binary, args):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    workloads = [args.workload] if args.workload else [w["name"] for w in spec["workloads"]]
    ok = True
    for w in workloads:
        # The sets take turns run by run, so a slow phase of the host
        # lands on both rather than on one.
        sets = [{} for _ in range(args.sets)]
        for i in range(args.report):
            for s, values in enumerate(sets):
                seed = s * args.report + i + 1
                code, res, _ = run_once(binary, ["--workload", w, "--seed", str(seed),
                                                 "--seconds", str(args.seconds), "--trace", "0"])
                if code != 0 or res is None or not res["correct"]:
                    print(f"{w} seed {seed}: run failed or incorrect", file=sys.stderr)
                    ok = False
                    continue
                for name, m in res["metrics"].items():
                    values.setdefault(name, []).append(m["value"])
        print(f"\n== {w}: {args.report} runs per set, {args.seconds}s each")
        print(f"{'metric':<20} {'set':>3} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>7} {'bound':>6}  verdict")
        first_median = {}
        for s, values in enumerate(sets):
            for name, vals in values.items():
                b = bounds[name]["bound"]
                lower = bounds[name]["better"] == "lower"
                q1, med, q3 = quartiles(vals)
                spread = (q3 - q1) / med if med else 0.0
                verdict = []
                if name != "setup_s":
                    verdict.append("steady" if spread < b / 3 else
                                   "within bound" if spread <= b else "TOO NOISY")
                    ok &= spread <= b
                if s == 0:
                    first_median[name] = med
                else:
                    m0 = first_median[name]
                    worse = (med - m0) / m0 if lower else (m0 - med) / m0
                    verdict.append(f"vs set 1: {worse:+.3f} worse "
                                   f"({'ok' if worse <= b else 'DRIFT'})")
                    ok &= worse <= b
                print(f"{name:<20} {s + 1:>3} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
                      f"{spread:>7.3f} {b:>6}  {'; '.join(verdict)}")
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", choices=["0", "1"], default="0")
    p.add_argument("--selftest", action="store_true")
    p.add_argument("--report", type=int, metavar="N")
    p.add_argument("--sets", type=int, default=1)
    args = p.parse_args()
    binary = build()
    if args.report:
        sys.exit(report(binary, args))
    if args.selftest:
        cmd = ["--selftest", "--seed", str(args.seed)]
    elif args.workload:
        cmd = ["--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace]
    else:
        p.error("--workload, --selftest or --report is required")
    code, _, last = run_once(binary, cmd)
    if last:
        print(last)
    sys.exit(code)


if __name__ == "__main__":
    main()
