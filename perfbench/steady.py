#!/usr/bin/env python3
"""Steadiness check: run one workload k times on the current checkout and
report, per end-to-end metric, the median, the quartiles and the spread
(q3 - q1) / median against the metric's bound in BENCHMARK.json.

    python3 perfbench/steady.py --workload spec-run [-k 10] [--sets 2]
        [--seconds S] [--first-seed N]

Each run gets its own seed. With --sets 2 the k runs are repeated as a
second set and the shift of each median between the sets is reported
against the bound too. Quartiles are those of Python's
statistics.quantiles(values, n=4). A spread below a third of its bound is
marked "ok"; setup_s is gated on the median shift only.
"""

import argparse
import json
import statistics
import subprocess
import sys


def one_run(workload, seed, seconds):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, check=True).stdout
    return json.loads(out.decode().strip().splitlines()[-1])


def summarise(results, metrics):
    rows = {}
    for m in metrics:
        vals = [r["metrics"][m["name"]]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(vals, n=4)
        rows[m["name"]] = (med, q1, q3, (q3 - q1) / med, vals)
    return rows


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("-k", type=int, default=10)
    ap.add_argument("--sets", type=int, choices=[1, 2], default=1)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--first-seed", type=int, default=1)
    a = ap.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    seconds = a.seconds or spec["run_seconds"]
    metrics = spec["end_to_end"]
    seed = a.first_seed
    sets = []
    for s in range(a.sets):
        results = []
        for _ in range(a.k):
            r = one_run(a.workload, seed, seconds)
            seed += 1
            if not r["correct"]:
                sys.exit("seed %d: outputs were wrong" % (seed - 1))
            results.append(r)
        shares = {r["failed"] / r["attempted"] for r in results}
        print("set %d: %s, %d runs of %d s, seeds %d..%d, failed share %s"
              % (s + 1, a.workload, a.k, seconds, seed - a.k, seed - 1,
                 sorted(shares)))
        rows = summarise(results, metrics)
        print("  %-16s %12s %12s %12s %8s %6s  %s" % (
            "metric", "median", "q1", "q3", "spread", "bound", "verdict"))
        for m in metrics:
            med, q1, q3, spread, _ = rows[m["name"]]
            if m["name"] == "setup_s":
                verdict = "-"
            else:
                verdict = "ok" if spread < m["bound"] / 3 else (
                    "within" if spread <= m["bound"] else "TOO WIDE")
            print("  %-16s %12.6g %12.6g %12.6g %8.4f %6.3f  %s" % (
                m["name"], med, q1, q3, spread, m["bound"], verdict))
        sets.append(rows)
    if len(sets) == 2:
        print("median shift, set 2 against set 1 (worse direction):")
        for m in metrics:
            m1, m2 = sets[0][m["name"]][0], sets[1][m["name"]][0]
            worse = (m2 - m1) / m1 if m["better"] == "lower" else (m1 - m2) / m1
            print("  %-16s %+8.4f  bound %.3f  %s" % (
                m["name"], worse, m["bound"],
                "ok" if worse <= m["bound"] else "TOO WIDE"))


if __name__ == "__main__":
    main()
