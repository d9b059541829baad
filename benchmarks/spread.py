"""Run one workload over several seeds and report each metric's spread.

    python3 benchmarks/spread.py --workload distill --seeds 0-9 [--trace 0]

For every metric it prints the median, the quartiles from
``statistics.quantiles(values, n=4)``, and the spread: the interquartile
distance as a share of the median, next to the metric's bound from
BENCHMARK.json. Runs are sequential, one process at a time, with the
benchmark's own ``run_seconds``. Raw results are appended to
``benchmarks/out/spread-<workload>.jsonl``.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}
    values: dict[str, list[float]] = {}
    log = ROOT / "benchmarks" / "out" / f"spread-{args.workload}.jsonl"
    log.parent.mkdir(exist_ok=True)
    for seed in parse_seeds(args.seeds):
        cmd = [*bench["command"], "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"seed": seed, **result}) + "\n")
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']} "
              + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        print(f"{name:40s} median {med:.6g} q1 {q1:.6g} q3 {q3:.6g} spread {spread:.3f}"
              + (f" bound {bound}" if bound is not None else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
