#!/usr/bin/env python3
"""Alternating A/B pairs of one perfbench workload from two checkouts.

    python3 tools/perf_pairs.py --parent <checkout> --change <checkout> \\
        --workload nat_conn_churn [--seed 1] [--seconds 15] [--pairs 10] \\
        [--metric host_mpps]

Each run goes through that checkout's own perfbench/run.py with
--trace 0, so each side builds and runs its own sources (in its own
.bench_build). Pair i runs the parent first when i is even and the
change first when i is odd. Before the pairs, one short unrecorded run
per side finishes the builds.

Prints every run, then each side's median and quartiles for every
end-to-end metric that BENCHMARK.json (in the change checkout) lists,
then the win count for --metric and whether a gain may be claimed:
the change wins at least 9/10 of the pairs (ties count for neither)
and the medians differ, in the better direction, by more than the
parent's interquartile range. Last, the median change/parent ratio of
--metric within a pair. Exits non-zero if any run fails.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

RUN_TIMEOUT_S = 600


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    env = dict(os.environ)
    env.pop("CARGO_TARGET_DIR", None)  # keep each checkout's build separate
    cmd = [sys.executable, str(checkout / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S,
                          check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-4000:])
        raise RuntimeError(f"{checkout}: run failed (exit {proc.returncode})")
    result = json.loads(lines[-1])
    record = lines[-2] if len(lines) >= 2 else ""
    result["fingerprint"] = (json.loads(record.split(":", 1)[1]).get("fingerprint")
                             if record.startswith("run_record:") else None)
    return result


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--metric", default="host_mpps", help="the claimed metric")
    args = parser.parse_args()
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}

    spec = json.loads((sides["change"] / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    if args.metric not in better:
        parser.error(f"--metric {args.metric} is not an end-to-end metric")

    for side, checkout in sides.items():
        print(f"warm-up build: {side} {checkout}", flush=True)
        run_once(checkout, args.workload, args.seed, 0.2)

    values = {side: {name: [] for name in better} for side in sides}
    failed = 0
    wins = losses = 0
    ratios = []  # change / parent of --metric, per pair
    for pair in range(args.pairs):
        order = ["parent", "change"] if pair % 2 == 0 else ["change", "parent"]
        got = {}
        for side in order:
            result = run_once(sides[side], args.workload, args.seed, args.seconds)
            metrics = {name: result["metrics"][name]["value"] for name in better}
            got[side] = metrics
            if not result["correct"] or result["failed"] != 0:
                failed += 1
            for name, value in metrics.items():
                values[side][name].append(value)
            shown = " ".join(f"{name}={value:.6g}" for name, value in metrics.items())
            print(f"pair {pair + 1:2d} {side:6s} correct={result['correct']} "
                  f"failed={result['failed']} fingerprint={result['fingerprint']} {shown}",
                  flush=True)
        a, b = got["parent"][args.metric], got["change"][args.metric]
        if a != 0:
            ratios.append(b / a)
        if a != b:
            change_better = b > a if better[args.metric] == "higher" else b < a
            wins += change_better
            losses += not change_better

    print(f"\n{args.workload} seed={args.seed} seconds={args.seconds} pairs={args.pairs}")
    print(f"{'metric':22s} {'parent q1/median/q3':>36s} {'change q1/median/q3':>36s}")
    for name in better:
        cells = []
        for side in sides:
            q1, median, q3 = quartiles(values[side][name])
            cells.append(f"{q1:.6g} / {median:.6g} / {q3:.6g}")
        print(f"{name:22s} {cells[0]:>36s} {cells[1]:>36s}")

    p_q1, p_median, p_q3 = quartiles(values["parent"][args.metric])
    c_median = quartiles(values["change"][args.metric])[1]
    gap = c_median - p_median if better[args.metric] == "higher" else p_median - c_median
    holds = wins * 10 >= 9 * args.pairs and gap > p_q3 - p_q1
    print(f"\n{args.metric}: change wins {wins}/{args.pairs} (losses {losses}); "
          f"median gap {gap:+.6g} vs parent IQR {p_q3 - p_q1:.6g}; "
          f"claim rule (>=9/10 wins, gap > IQR) {'HOLDS' if holds else 'does not hold'}")
    if ratios:
        # Host drift moves both runs of a pair together, so the
        # within-pair ratio shows the effect even when the IQR is wide.
        print(f"{args.metric} change/parent within a pair: median "
              f"{statistics.median(ratios):.3f} (min {min(ratios):.3f}, max {max(ratios):.3f})")
    if failed:
        print(f"{failed} run(s) reported failed operations or checks")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
