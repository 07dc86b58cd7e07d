#!/usr/bin/env python3
"""One full set of runs, the way the driver takes them: every workload of
BENCHMARK.json ten times untraced, each with another seed, plus one traced run.

    python3 benchmark/spread.py OUT.json [--runs 10] [--first-seed 1]

Run it from the root of the repository. Prints, per workload and end-to-end
metric, the median, the quartiles and their distance as a share of the median
(the spread the driver holds against the metric's bound), and writes every
number to OUT.json. Two such files of one commit are the repeatability report
under baseline/; `spread.py --compare A.json B.json` prints their table.
"""

import json
import os
import statistics
import subprocess
import sys


def run(contract, workload, seed, trace):
    command = contract["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(contract["run_seconds"]),
        "--trace", str(trace),
    ]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: {result['failed']} of {result['attempted']} checks failed")
    return {name: m["value"] for name, m in result["metrics"].items()}


def command_line(*command):
    try:
        return subprocess.run(command, capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def measure(out_path, runs, first_seed):
    contract = json.load(open("BENCHMARK.json"))
    report = {
        "commit": command_line("git", "rev-parse", "HEAD"),
        "rustc": command_line("rustc", "-V"),
        "nproc": os.cpu_count(),
        "run_seconds": contract["run_seconds"],
        "runs": runs,
        "first_seed": first_seed,
        "workloads": {},
    }
    for workload in (w["name"] for w in contract["workloads"]):
        samples = [run(contract, workload, first_seed + i, 0) for i in range(runs)]
        end_to_end = {}
        for metric in contract["end_to_end"]:
            values = [s[metric["name"]] for s in samples]
            q1, median, q3 = statistics.quantiles(values, n=4)
            end_to_end[metric["name"]] = {
                "values": values, "q1": q1, "median": median, "q3": q3,
                "spread": (q3 - q1) / median,
            }
            print(f"{workload:22} {metric['name']:16} median {median:<14.8g} "
                  f"spread {(q3 - q1) / median:8.4%}  (bound {metric['bound']:.1%})", flush=True)
        report["workloads"][workload] = {
            "end_to_end": end_to_end,
            "per_layer": run(contract, workload, first_seed, 1),
        }
    json.dump(report, open(out_path, "w"), indent=1)


def compare(path_a, path_b):
    a, b = (json.load(open(p))["workloads"] for p in (path_a, path_b))
    bounds = {m["name"]: m["bound"] for m in json.load(open("BENCHMARK.json"))["end_to_end"]}
    print("| workload | metric | median A | median B | B vs A | spread A | spread B | bound |")
    print("|---|---|---|---|---|---|---|---|")
    for workload in a:
        for name, first in a[workload]["end_to_end"].items():
            second = b[workload]["end_to_end"][name]
            change = second["median"] / first["median"] - 1
            print(f"| `{workload}` | `{name}` | {first['median']:.6g} | {second['median']:.6g} "
                  f"| {change:+.2%} | {first['spread']:.2%} | {second['spread']:.2%} "
                  f"| {bounds[name]:.1%} |")
    # Counts and count-made ratios repeat exactly; timings and the overhead do not.
    timed = ("_s", "_us", "obs.overhead_ratio")
    differing = [
        f"{workload}: {name}"
        for workload in a
        for name, value in a[workload]["per_layer"].items()
        if not name.endswith(timed) and value != b[workload]["per_layer"][name]
    ]
    print("\nper-layer counts that differ between the two traced runs:",
          ", ".join(differing) or "none")


if __name__ == "__main__":
    args = sys.argv[1:]
    if len(args) == 3 and args[0] == "--compare":
        compare(args[1], args[2])
    elif args and not args[0].startswith("--"):
        options = dict(zip(args[1::2], args[2::2]))
        measure(args[0], int(options.get("--runs", 10)), int(options.get("--first-seed", 1)))
    else:
        sys.exit(__doc__)
