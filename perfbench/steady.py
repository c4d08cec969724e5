"""Steadiness of the benchmark: repeat each workload over seeds and
compare the spread of every end-to-end metric with its bound.

    python3 perfbench/steady.py [--first-seed 1] [--save FILE]
        [--against FILE]

Runs the command of BENCHMARK.json ten times on every workload (seeds
first-seed, first-seed + 1, ...) with --trace 0 and run_seconds, one
run at a time, from the root of the checkout.  For each workload and
metric it prints the median, the quartiles (statistics.quantiles,
n=4) and the spread (q3 - q1) / median against the metric's bound; a
spread under a third of the bound reads "steady".  It also prints the
share of failed requests, which must be the same in every run.
--save writes the values; --against reads a saved set and prints how
far each median moved from it, as a share of the saved median, and
whether the failed share is the same.

Exits with 1 if any run is not correct, the failed share differs
between runs (or from the saved set), a spread reaches a third of its
bound, or a median moved by more than its bound in either direction.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = 10


def run_once(spec: dict, workload: str, seed: int) -> dict:
    argv = spec["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(spec["run_seconds"]),
                              "--trace", "0"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(lines[-1])


def summary(values: list[float]) -> tuple[float, float, float, float]:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--save", type=Path)
    p.add_argument("--against", type=Path)
    args = p.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    before = json.loads(args.against.read_text()) if args.against else {}
    saved: dict[str, dict] = {}
    good = True
    for workload in (w["name"] for w in spec["workloads"]):
        values: dict[str, list[float]] = {m: [] for m in bounds}
        shares = set()
        correct = True
        for k in range(RUNS):
            res = run_once(spec, workload, args.first_seed + k)
            correct = correct and res["correct"]
            shares.add(res["failed"] / res["attempted"])
            for m in bounds:
                values[m].append(res["metrics"][m]["value"])
        share = sorted(shares)
        saved[workload] = {"failed_share": share, "values": values}
        print(f"{workload}: {RUNS} runs, correct={correct}, "
              f"failed share {share}")
        good = good and correct and len(shares) == 1
        if workload in before:
            same = before[workload]["failed_share"] == share
            good = good and same
            print(f"  failed share {'same as' if same else 'DIFFERS from'} "
                  f"the saved set {before[workload]['failed_share']}")
        print(f"  {'metric':12s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'spread':>8s} {'bound':>6s}")
        for m, vals in values.items():
            med, q1, q3, spread = summary(vals)
            ok = spread < bounds[m] / 3
            line = (f"  {m:12s} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                    f"{spread:8.4f} {bounds[m]:6.3f} "
                    f"{'steady' if ok else 'WIDE'}")
            if workload in before:
                old = statistics.median(before[workload]["values"][m])
                moved = (med - old) / old
                within = abs(moved) <= bounds[m]
                ok = ok and within
                line += (f"  moved {moved:+.4f} "
                         f"{'within' if within else 'OUTSIDE'} bound")
            good = good and ok
            print(line)
    if args.save:
        args.save.write_text(json.dumps(saved, indent=1) + "\n")
    return 0 if good else 1


if __name__ == "__main__":
    sys.exit(main())
