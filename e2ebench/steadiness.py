#!/usr/bin/env python3
"""Steadiness mode: runs the benchmark suite twice and reports, for every
end-to-end metric of every workload, its run-to-run spread against the
bound in BENCHMARK.json and the drift of the second set's median.

Run from the repository root:

    python3 e2ebench/steadiness.py [--workloads a,b] [--seeds 10] [--sets 2]

Set E2EBENCH_SECONDS to override run_seconds for a quick smoke test.

Each set runs every workload once per seed (seeds first_seed .. first_seed
+ seeds - 1). The spread of a metric in a set is the distance between the
first and third quartiles of its values (statistics.quantiles, n=4) as a
share of their median. A metric is steady when that spread stays under a
third of its bound; the set passes when it stays under the bound (setup_s
is exempt), and the suite passes when every second-set median is within
the bound of the first. Simulated (sim_*) metrics must also repeat exactly
for every seed, and so must every per-layer count: each set ends with one
traced run per workload on the first seed. The table goes to stdout and
the raw values to e2ebench/out/steadiness.json; the exit code is 1 when a
check fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load(path):
    with open(path) as f:
        return json.load(f)


def run_once(bench, workload, seed, trace=0):
    cmd = bench["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(os.environ.get("E2EBENCH_SECONDS", bench["run_seconds"])),
        "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stdout}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"] != 0:
        raise SystemExit(f"{workload} seed {seed}: incorrect result {result}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, (q3 - q1) / med


def main():
    bench = load(os.path.join(ROOT, "BENCHMARK.json"))
    design = load(os.path.join(HERE, "design.json"))
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--first-seed", type=int, default=design["default_seed"])
    args = ap.parse_args()

    workloads = args.workloads.split(",")
    seeds = list(range(args.first_seed, args.first_seed + args.seeds))
    metrics = bench["end_to_end"]
    counts = [m["name"] for m in bench["per_layer"] if m["unit"] == "count"]
    # runs[set][workload][seed] = {metric: value}; traced[set][workload] likewise
    runs, traced = [], []
    for s in range(args.sets):
        runs.append({})
        traced.append({})
        for w in workloads:
            runs[s][w] = {}
            for seed in seeds:
                runs[s][w][seed] = run_once(bench, w, seed)
                print(f"set {s + 1} {w} seed {seed}: " + ", ".join(
                    f"{m['name']}={runs[s][w][seed][m['name']]:.6g}" for m in metrics), flush=True)
        for w in workloads:
            traced[s][w] = run_once(bench, w, seeds[0], trace=1)
            print(f"set {s + 1} {w} seed {seeds[0]} traced: " + ", ".join(
                f"{c}={traced[s][w][c]:.0f}" for c in counts if traced[s][w][c]), flush=True)

    failures = []
    for w in workloads:
        for c in counts:
            vals = {traced[s][w][c] for s in range(args.sets)}
            if len(vals) != 1:
                failures.append(f"{w} {c}: per-layer count differs between sets {vals}")
    print(f"\n{'workload':<15} {'metric':<15} {'bound':>6} "
          + " ".join(f"{'spread' + str(s + 1):>8}" for s in range(args.sets))
          + f" {'drift':>8}  verdict")
    for w in workloads:
        for m in metrics:
            name, bound = m["name"], m["bound"]
            meds, spreads = [], []
            for s in range(args.sets):
                med, sp = spread([runs[s][w][seed][name] for seed in seeds])
                meds.append(med)
                spreads.append(sp)
            # How much worse than the first set a later set's median is
            # (negative when it is better).
            sign = 1 if m["better"] == "lower" else -1
            worse = max(sign * (med - meds[0]) / meds[0] for med in meds[1:]) if meds[1:] else 0.0
            verdict = "steady"
            if name != "setup_s" and max(spreads) > bound:
                verdict = "FAIL spread"
            elif worse > bound:
                verdict = "FAIL drift"
            elif name != "setup_s" and max(spreads) > bound / 3:
                verdict = "noisy"
            if verdict.startswith("FAIL"):
                failures.append(f"{w} {name}: {verdict}")
            if name.startswith("sim_"):
                for seed in seeds:
                    vals = {runs[s][w][seed][name] for s in range(args.sets)}
                    if len(vals) != 1:
                        failures.append(f"{w} {name} seed {seed}: simulated values differ {vals}")
            print(f"{w:<15} {name:<15} {bound:>6.3f} "
                  + " ".join(f"{sp:>8.4f}" for sp in spreads)
                  + f" {worse:>+8.4f}  {verdict}")

    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with open(os.path.join(HERE, "out", "steadiness.json"), "w") as f:
        json.dump({"seeds": seeds, "runs": runs, "traced": traced}, f, indent=1)
    for line in failures:
        print("FAILED", line)
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
