"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/repeat.py [--workload NAME ...] [--seeds 1-10] [--trace 0]
        [--seconds N] [--out summary.json]

Runs perfbench/run.py once per workload and seed, one run at a time, and
prints for each metric the median, the first and third quartiles
(statistics.quantiles with n=4) and their distance as a share of the median.
The workloads default to all of BENCHMARK.json's, --seconds to its
run_seconds. A run that fails stops the whole command.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_range(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def summarise(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / abs(q2) if q2 else None,
        "values": values,
    }


def repeat(workload, seeds, seconds, trace, bounds):
    results = []
    for seed in seeds:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            sys.exit(f"{workload} seed {seed}: run.py exited with {proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        results.append(result)
        values = {k: round(m["value"], 4) for k, m in result["metrics"].items()}
        print(f"{workload} seed {seed}: correct={result['correct']} {values}", flush=True)

    summary = {
        "all_correct": all(r["correct"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "metrics": {},
    }
    for name, metric in results[0]["metrics"].items():
        stats = summarise([r["metrics"][name]["value"] for r in results])
        stats["unit"] = metric["unit"]
        summary["metrics"][name] = stats
        bound = bounds.get(name)
        spread = "n/a" if stats["spread"] is None else f"{stats['spread']:.4f}"
        print(f"{workload} {name}: median {stats['median']:.6g} {metric['unit']} "
              f"q1 {stats['q1']:.6g} q3 {stats['q3']:.6g} spread {spread}"
              + (f" (bound {bound})" if bound else ""), flush=True)
    return summary


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append")
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    summary = {
        "seeds": args.seeds,
        "seconds": seconds,
        "trace": args.trace,
        "workloads": {
            w: repeat(w, args.seeds, seconds, args.trace, bounds) for w in workloads
        },
    }
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
