"""Summarise one result set, or compare two.

    python3 perfbench/compare.py RESULTS.jsonl
    python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl
    python3 perfbench/compare.py --baseline SET-A.jsonl [SET-B.jsonl ...] perfbench/baseline.json

A result set is a JSON-lines file written by sweep.py: one line per run,
{"workload", "seed", "order", "result"}.  For each workload and metric the
summary prints the median, the quartiles (statistics.quantiles, n=4) and
the spread, (q3 - q1) / median.  Comparing two sets also pairs the runs by
seed and prints the fraction of pairs the change won (ties count for
neither), the change of the median, and a verdict against the metric's
bound from BENCHMARK.json:

- "gain" when the change won at least 9/10 of the pairs and the medians
  differ by more than the parent's own quartile distance;
- "regression" when the change's median is worse than the parent's by
  more than the bound;
- "unresolved" when the parent's spread is wider than the bound, unless
  every change run beats every parent run;
- "same" otherwise.

--baseline stores each set's per-workload medians, quartiles and spreads,
with each workload's reason from BENCHMARK.json and the machine they ran
on.
"""
from __future__ import annotations

import json
import os
import platform
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def load(path) -> dict:
    """{workload: {metric: {seed: value}}} from a result set."""
    out: dict = {}
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        row = json.loads(line)
        for name, metric in row["result"]["metrics"].items():
            out.setdefault(row["workload"], {}).setdefault(name, {})[row["seed"]] = metric["value"]
    return out


def quartiles(values) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(values) -> float:
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else float("inf")


def benchmark_spec() -> dict:
    return json.loads((HERE.parent / "BENCHMARK.json").read_text())


def metric_specs() -> dict:
    spec = benchmark_spec()
    return {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}


def write_baseline(paths, out) -> None:
    """Store each result set's per-workload medians, quartiles and spreads."""
    spec = benchmark_spec()
    units = {name: m["unit"] for name, m in metric_specs().items()}
    sets = []
    for path in paths:
        failed: dict = {}
        for line in Path(path).read_text().splitlines():
            if line.strip():
                row = json.loads(line)
                failed.setdefault(row["workload"], []).append(row["result"]["failed"])
        workloads = {}
        for workload, metrics in load(path).items():
            rows = {}
            for name, by_seed in metrics.items():
                q1, med, q3 = quartiles(list(by_seed.values()))
                rows[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread(list(by_seed.values())),
                              "unit": units[name]}
            workloads[workload] = {"seeds": sorted(next(iter(metrics.values()))), "metrics": rows,
                                   "wrong_outputs_per_run": failed.get(workload, [])}
        sets.append({"set": Path(path).stem, "workloads": workloads})
    machine = {"cpus": os.cpu_count(), "python": platform.python_version(),
               "implementation": platform.python_implementation(), "machine": platform.machine()}
    data = {"machine": machine, "run_seconds": spec["run_seconds"],
            "why": {w["name"]: w["why"] for w in spec["workloads"]}, "sets": sets}
    Path(out).write_text(json.dumps(data, indent=1) + "\n")


def summarise(path) -> None:
    specs = metric_specs()
    for workload, metrics in load(path).items():
        for name, by_seed in metrics.items():
            values = list(by_seed.values())
            q1, med, q3 = quartiles(values)
            bound = specs.get(name, {}).get("bound")
            note = f"  bound {bound}" if bound is not None else ""
            print(f"{workload:20s} {name:32s} n={len(values):2d} median {med:.6g} "
                  f"[{q1:.6g}, {q3:.6g}] spread {spread(values):.3f}{note}")


def compare(parent_path, change_path) -> None:
    specs = metric_specs()
    parent, change = load(parent_path), load(change_path)
    for workload in parent:
        for name, base in parent[workload].items():
            new = change.get(workload, {}).get(name)
            if not new:
                continue
            spec = specs.get(name, {})
            sign = 1 if spec.get("better", "lower") == "higher" else -1
            seeds = sorted(set(base) & set(new))
            wins = sum(sign * (new[s] - base[s]) > 0 for s in seeds)
            b1, bmed, b3 = quartiles(list(base.values()))
            c1, cmed, c3 = quartiles(list(new.values()))
            worse = -sign * (cmed - bmed) / bmed if bmed else 0.0
            bound = spec.get("bound")
            if seeds and wins >= 0.9 * len(seeds) and abs(cmed - bmed) > b3 - b1:
                verdict = "gain"
            elif bound is not None and worse > bound:
                verdict = "regression"
            elif bound is not None and spread(list(base.values())) > bound and not (
                    min(sign * v for v in new.values()) > max(sign * v for v in base.values())):
                verdict = "unresolved"
            else:
                verdict = "same"
            print(f"{workload:20s} {name:32s} parent {bmed:.6g} [{b1:.6g}, {b3:.6g}]  "
                  f"change {cmed:.6g} [{c1:.6g}, {c3:.6g}]  worse {worse:+.1%}  "
                  f"won {wins}/{len(seeds)}  {verdict}")


def main(argv) -> int:
    if len(argv) >= 3 and argv[0] == "--baseline":
        write_baseline(argv[1:-1], argv[-1])
    elif len(argv) == 1:
        summarise(argv[0])
    elif len(argv) == 2:
        compare(*argv)
    else:
        print(__doc__, file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
