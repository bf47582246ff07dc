"""Run the benchmark on several seeds and report each metric's median and spread.

    python3 perfbench/spread.py --workload serve --seeds 1-10 --seconds 55 --out pass1.json

Runs ``perfbench/run.py`` once per seed, one run at a time, and reads the JSON
result on the last line of each. For every metric it prints the median, the
quartiles (``statistics.quantiles(values, n=4)``) and the spread, which is
(Q3 - Q1) / median. ``--out`` also writes every value to a JSON file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
ROOT = RUN.parent.parent


def seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("nan"), "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args()

    results = []
    for seed in args.seeds:
        proc = subprocess.run([sys.executable, str(RUN), "--workload", args.workload,
                               "--seed", str(seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)],
                              cwd=ROOT, capture_output=True, text=True, timeout=300)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        result["seed"] = seed
        result["comments"] = [line for line in lines
                              if line.startswith("#") and not line.startswith("# machine")]
        results.append(result)
        print(f"seed {seed}: correct {result['correct']}, failed {result['failed']} of "
              f"{result['attempted']}; " + ", ".join(
                  f"{name} {m['value']:.5g}" for name, m in result["metrics"].items()),
              flush=True)

    metrics = {}
    for name, first in results[0]["metrics"].items():
        metrics[name] = summarize([r["metrics"][name]["value"] for r in results])
        metrics[name]["unit"] = first["unit"]
        m = metrics[name]
        print(f"{name:36s} median {m['median']:.6g} {m['unit']}, "
              f"Q1 {m['q1']:.6g}, Q3 {m['q3']:.6g}, spread {m['spread']:.3f}")
    summary = {
        "workload": args.workload, "seconds": args.seconds, "trace": args.trace,
        "seeds": args.seeds, "all_correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "samples_per_run": [r["comments"] for r in results],
        "metrics": metrics,
    }
    print(f"all correct: {summary['all_correct']}, failed {summary['failed']} "
          f"of {summary['attempted']}")
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
