#!/usr/bin/env python3
"""Steadiness check of the benchmark across seeds and across repeated runs.

    python3 bench/steady.py [--save FILE] [--compare FILE]

Runs the BENCHMARK.json command once per workload and seed 1..10 with
--trace 0, then once more with seed 1.  It fails when

- an exact counter (nnz, bytes, jumps, trajectories) or the count of
  attempted or failed operations differs between the two runs of seed 1,
  or a counter that no seed sets (nnz, bytes) differs between seeds;
- the spread of an end-to-end metric, (Q3 - Q1) / median over the seeds,
  exceeds its bound;
- with --compare, a median differs from the saved one by more than the
  bound, in either direction.

A spread above a third of the bound is flagged as "wide".  --save writes
the medians and spreads for a later --compare.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(1, 11)
SEED_FREE_COUNTERS = ("galerkin.nnz", "galerkin.matrix_bytes", "galerkin.cumulative_bytes",
                      "jumpchain.trajectories")


def run_once(spec: dict, workload: str, seed: int) -> dict:
    argv = spec["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    t0 = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=300)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    counters = next(json.loads(l[len("counters "):]) for l in lines if l.startswith("counters "))
    result = json.loads(lines[-1])
    return {"result": result, "counters": counters, "elapsed": elapsed}


def spread(values) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--save", type=Path)
    p.add_argument("--compare", type=Path)
    args = p.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    previous = json.loads(args.compare.read_text()) if args.compare else {}
    ok = True
    summary = {}
    for name in (w["name"] for w in spec["workloads"]):
        runs = [run_once(spec, name, s) for s in SEEDS]
        again = run_once(spec, name, 1)
        if again["counters"] != runs[0]["counters"]:
            ok = False
            print(f"{name}: counters of seed 1 differ between runs: "
                  f"{runs[0]['counters']} vs {again['counters']}")
        tally = [(r["result"]["attempted"], r["result"]["failed"]) for r in (runs[0], again)]
        if tally[0] != tally[1]:
            ok = False
            print(f"{name}: attempted and failed of seed 1 differ between runs: {tally}")
        for key in SEED_FREE_COUNTERS:
            values = {r["counters"].get(key) for r in runs}
            if len(values) > 1:
                ok = False
                print(f"{name}: {key} differs between seeds: {sorted(values)}")
        failed = [r["result"]["failed"] for r in runs]
        correct = all(r["result"]["correct"] for r in runs + [again])
        ok &= correct
        print(f"{name}: {len(runs)} seeds, correct={correct}, failed per run {failed}, "
              f"run time {min(r['elapsed'] for r in runs):.1f}-"
              f"{max(r['elapsed'] for r in runs):.1f} s")
        summary[name] = {}
        for m in spec["end_to_end"]:
            values = [r["result"]["metrics"][m["name"]]["value"] for r in runs]
            med, sp = statistics.median(values), spread(values)
            summary[name][m["name"]] = {"median": med, "spread": sp, "values": values}
            status = "ok" if sp < m["bound"] / 3 else "wide" if sp <= m["bound"] else "OVER"
            if status == "OVER":
                ok = False
            line = (f"  {m['name']:<16} median {med:.6g} {m['unit']:<3} spread {sp:.4f} "
                    f"bound {m['bound']} {status}")
            old = previous.get(name, {}).get(m["name"])
            if old:
                change = med / old["median"] - 1
                line += f"  vs saved {old['median']:.6g} ({change:+.3f})"
                if abs(change) > m["bound"]:
                    ok = False
                    line += " DIFFERS"
            print(line, flush=True)
    if args.save:
        args.save.write_text(json.dumps(summary, indent=1))
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
