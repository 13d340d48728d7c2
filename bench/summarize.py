#!/usr/bin/env python3
"""Summarise results files written by bench/run.py into one JSON baseline.

    python3 bench/summarize.py bench/results/*.json > bench/baseline/seed.json

For every workload: the median, quartiles and run count of each
end-to-end metric over the untraced runs, with the spread (third minus
first quartile, as a share of the median); the median of each per-layer
metric over the traced runs; the seeds used and the machine facts.
"""

import json
import statistics
import sys
from pathlib import Path


def summarize(paths: list[str]) -> dict:
    runs = [json.loads(Path(p).read_text()) for p in paths]
    out: dict = {"machine": runs[0]["machine"] if runs else None, "workloads": {}}
    for workload in sorted({r["workload"] for r in runs}):
        mine = [r for r in runs if r["workload"] == workload]
        plain = [r for r in mine if not r["trace"]]
        traced = [r for r in mine if r["trace"]]
        entry: dict = {
            "seeds": sorted(r["seed"] for r in plain),
            "traced_seeds": sorted(r["seed"] for r in traced),
            "failed": sum(r["result"]["failed"] for r in mine),
            "attempted": sum(r["result"]["attempted"] for r in mine),
            "end_to_end": {},
            "per_layer": {},
        }
        for name in plain[0]["metrics"] if plain else []:
            values = [r["metrics"][name] for r in plain]
            median = statistics.median(values)
            q1, _, q3 = (
                statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
            )
            entry["end_to_end"][name] = {
                "median": median, "q1": q1, "q3": q3, "runs": len(values),
                "spread": (q3 - q1) / median if median else None,
            }
        for name in traced[0]["layers"] if traced else []:
            entry["per_layer"][name] = statistics.median(r["layers"][name] for r in traced)
        out["workloads"][workload] = entry
    return out


if __name__ == "__main__":
    print(json.dumps(summarize(sys.argv[1:]), indent=1))
