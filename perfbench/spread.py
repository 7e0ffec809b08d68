#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

Usage, from the repository root:

    python3 perfbench/spread.py [--seeds 1-10] [--trace 0|1] [workload ...]

For every workload (default: all in BENCHMARK.json) it runs the benchmark
command once per seed, in sequence, and prints per metric the median, the
quartiles, and the quartile spread (Q3 - Q1) as a share of the median, as
`statistics.quantiles(values, n=4)` computes them. End-to-end spreads are
compared with a third of each metric's bound. Raw results are appended as
JSON lines to `.bench_trace/spread.jsonl`.
"""

import json
import os
import statistics
import subprocess
import sys
import time


def seeds_arg(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv):
    seeds, trace, names = list(range(1, 11)), "0", []
    args = iter(argv)
    for a in args:
        if a == "--seeds":
            seeds = seeds_arg(next(args))
        elif a == "--trace":
            trace = next(args)
        else:
            names.append(a)
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = names or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    os.makedirs(".bench_trace", exist_ok=True)
    steady = True
    for name in names:
        values, wall = {}, []
        for seed in seeds:
            cmd = bench["command"] + ["--workload", name, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]), "--trace", trace]
            t0 = time.monotonic()
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
            wall.append(time.monotonic() - t0)
            line = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else "{}"
            result = json.loads(line)
            with open(".bench_trace/spread.jsonl", "a") as log:
                log.write(json.dumps({"workload": name, "seed": seed, "trace": trace,
                                      "exit": proc.returncode, "wall_s": wall[-1], "result": result,
                                      "stderr": proc.stderr.splitlines()[-40:]}) + "\n")
            if proc.returncode != 0 or not result.get("correct"):
                print(f"{name} seed {seed}: exit {proc.returncode}, result {line}")
                steady = False
            for metric, v in result.get("metrics", {}).items():
                values.setdefault(metric, []).append(v["value"])
        print(f"{name}: {len(seeds)} runs, run wall median {statistics.median(wall):.1f} s, max {max(wall):.1f} s")
        for metric, xs in values.items():
            med = statistics.median(xs)
            q1, _, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (xs[0], 0, xs[0])
            spread = (q3 - q1) / abs(med) if med else float("inf")
            note = ""
            if metric in bounds:
                ok = spread < bounds[metric] / 3
                steady &= ok
                note = f"  (bound/3 = {bounds[metric] / 3:.4f}{'' if ok else ' EXCEEDED'})"
            print(f"  {metric:<30} median {med:<14.6g} q1 {q1:<14.6g} q3 {q3:<14.6g} spread {spread:.4f}{note}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
