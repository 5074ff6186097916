#!/usr/bin/env python3
"""Run the benchmark once per seed and report how far each metric spreads.

    python3 perfbench/steadiness.py [--workloads low-degree,verify] [--seeds 1-10]
                                    [--seconds S] [--against FILE]

For every workload and end-to-end metric it prints the median over the seeds,
the quartiles from statistics.quantiles(values, n=4), the spread
(q3 - q1) / median and the metric's bound from BENCHMARK.json, and for every
workload the share of failed operations in each run. Each run is a separate
process started from the root of the checkout, one after another.

The medians and failed shares are written to
perfbench/out/steadiness-s<seeds>.json. With --against, such a file from an
earlier set, the medians of this set are also compared with that set's: a
metric fails when it is worse by more than its bound.

The exit code is 1 when a run is not correct, the failed shares differ
between runs (or from the earlier set), a spread exceeds its bound, or a
median is worse than the earlier set's by more than the bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += list(range(int(lo), int(hi or lo) + 1))
    return out


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--against", type=Path)
    args = ap.parse_args(argv)
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    earlier = json.loads(args.against.read_text()) if args.against else {}
    summary = {}
    ok = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in _seeds(args.seeds):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=600)
            wall = time.perf_counter() - t0
            if proc.returncode != 0:
                print(proc.stdout + proc.stderr)
                print(f"{workload} seed {seed}: exit code {proc.returncode}")
                return 1
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            res["wall_s"] = wall
            runs.append(res)
            print(f"{workload} seed {seed}: {wall:.1f} s, correct {res['correct']}, "
                  f"{res['failed']}/{res['attempted']} failed, " + ", ".join(
                      f"{k} {v['value']:.5g}" for k, v in res["metrics"].items()),
                  flush=True)
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        print(f"{workload}: failed shares {shares}, all correct "
              f"{all(r['correct'] for r in runs)}, wall {sum(r['wall_s'] for r in runs):.0f} s")
        ok = ok and len(shares) == 1 and all(r["correct"] for r in runs)
        before = earlier.get(workload)
        if before is not None and before["failed_shares"] != shares:
            print(f"  failed shares differ from the earlier set's {before['failed_shares']}")
            ok = False
        summary[workload] = {"failed_shares": shares, "medians": {}}
        for name, m in metrics.items():
            vals = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            bound = m["bound"]
            verdict = ("steady" if spread < bound / 3 else
                       "within bound" if spread <= bound else "TOO WIDE")
            ok = ok and spread <= bound
            summary[workload]["medians"][name] = med
            line = (f"  {name:<14} median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
                    f"spread {spread:.3f} bound {bound} {verdict}")
            if before is not None:
                old = before["medians"][name]
                worse = (med - old) / old if m["better"] == "lower" else (old - med) / old
                ok = ok and worse <= bound
                line += f"; {worse:+.3f} worse than the earlier median {old:.6g}"
                line += "" if worse <= bound else " OUT OF BOUND"
            print(line, flush=True)
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    path = out / f"steadiness-s{args.seeds}.json"
    path.write_text(json.dumps(summary, indent=1))
    print(f"medians written to {path.relative_to(ROOT)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
