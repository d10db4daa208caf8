#!/usr/bin/env python3
"""Steadiness check for the benchmark.

    python3 perfbench/steady.py --runs 10 --save .perfbench/steady-A.json
    python3 perfbench/steady.py --runs 10 --compare .perfbench/steady-A.json

Runs every workload --runs times, each with another seed, untraced, and prints
for each end-to-end metric its median, quartiles and spread (interquartile
range over median) against the metric's bound in BENCHMARK.json. A spread
above a third of the bound is marked "noisy", above the bound "FAIL". Then it
runs each workload traced twice with one seed and requires the per-layer
counts to repeat exactly.

Results are saved with the environment of every run. --compare reads an
earlier saved file and requires each median to be no worse than the earlier
one by more than the bound; runs from a different environment (python, CPU
count, machine, host) are flagged as such, not compared silently.

Exit status: 0 when nothing failed, 1 otherwise.
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
ENV_KEYS = ("python", "implementation", "machine", "host", "nproc", "affinity")
FIRST_SEED = 100


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    res = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=900)
    lines = res.stdout.strip().splitlines()
    env = next((json.loads(ln[4:]) for ln in lines if ln.startswith("env ")), {})
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    return res.returncode, result, env, res.stdout + res.stderr


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def env_of(envs):
    keys = {json.dumps({k: e.get(k) for k in ENV_KEYS}, sort_keys=True) for e in envs}
    return [json.loads(k) for k in sorted(keys)]


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--compare", help="earlier saved result file")
    parser.add_argument("--save", help="where to save results (default .perfbench/steady-<time>.json)")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    failures = []
    saved = {"seconds": args.seconds, "workloads": {}}
    for wl in names:
        seeds = list(range(FIRST_SEED, FIRST_SEED + args.runs))
        values, envs = {}, []
        for seed in seeds:
            rc, result, env, text = run_once(wl, seed, args.seconds, 0)
            envs.append(env)
            if rc != 0 or result is None or not result["correct"] or result["failed"]:
                failures.append(f"{wl} seed {seed}: exit {rc}\n{text[-2000:]}")
                continue
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        saved["workloads"][wl] = {"seeds": seeds, "env": env_of(envs), "metrics": values}
        print(f"\n{wl}: {len(seeds)} runs, seeds {seeds[0]}..{seeds[-1]}, {args.seconds} s each")
        if len(env_of(envs)) > 1:
            print("  NOTE runs came from different environments:", env_of(envs))
        print(f"  {'metric':<18} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for name, vals in values.items():
            if len(vals) < 4:
                failures.append(f"{wl} {name}: too few runs")
                continue
            med, q1, q3, sp = spread(vals)
            bound = bounds[name]["bound"]
            if sp > bound:
                mark = "FAIL"
                failures.append(f"{wl} {name}: spread {sp:.3f} > bound {bound}")
            elif sp > bound / 3:
                mark = "noisy"
            else:
                mark = "ok"
            print(f"  {name:<18} {med:>12.5g} {q1:>12.5g} {q3:>12.5g} {sp:>8.3f} {bound:>6} {mark}")
        counts = []
        for _ in range(2):
            rc, result, _, text = run_once(wl, seeds[0], min(args.seconds, 5), 1)
            if rc != 0 or result is None:
                failures.append(f"{wl} traced: exit {rc}\n{text[-2000:]}")
                break
            counts.append({k: m["value"] for k, m in result["metrics"].items()
                           if m["unit"] in ("count", "ratio") and k != "trace.overhead"})
        if len(counts) == 2:
            same = counts[0] == counts[1]
            print(f"  per-layer counts repeat exactly across two traced runs: {same}")
            if not same:
                failures.append(f"{wl}: per-layer counts differ between traced runs")
    if args.compare:
        old = json.loads(Path(args.compare).read_text(encoding="utf-8"))
        print(f"\ncompared with {args.compare}:")
        for wl, cur in saved["workloads"].items():
            before = old["workloads"].get(wl)
            if before is None:
                continue
            if before["env"] != cur["env"]:
                print(f"  {wl}: ENVIRONMENT DIFFERS, medians below are not comparable")
                print(f"    before {before['env']}\n    now    {cur['env']}")
            for name, vals in cur["metrics"].items():
                if name not in before["metrics"]:
                    continue
                a, b = statistics.median(before["metrics"][name]), statistics.median(vals)
                m = bounds[name]
                worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
                mark = "FAIL" if worse > m["bound"] else "ok"
                if mark == "FAIL" and before["env"] == cur["env"]:
                    failures.append(f"{wl} {name}: worse by {worse:.3f} > bound {m['bound']}")
                print(f"  {wl:<11} {name:<18} {a:>12.5g} -> {b:>12.5g} worse by {worse:+.3f} {mark}")
    save = Path(args.save) if args.save else ROOT / ".perfbench" / f"steady-{int(time.time())}.json"
    save.parent.mkdir(parents=True, exist_ok=True)
    save.write_text(json.dumps(saved, indent=1) + "\n", encoding="utf-8")
    print(f"\nsaved {save}")
    for f in failures:
        print("FAILED", f)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
