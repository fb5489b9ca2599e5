"""Run the benchmark over several seeds, one run at a time, into a result set.

    python3 perfbench/sweep.py --seeds 1-10 --out .perfbench_out/set-a.jsonl
    python3 perfbench/sweep.py --workloads cpp-cli --seeds 1-10 \\
        --against ../parent-checkout --out .perfbench_out/change.jsonl \\
        --against-out .perfbench_out/parent.jsonl

Each run is an untraced child process of perfbench/run.py, started from
the root of its checkout, that measures for BENCHMARK.json's run_seconds.
With --against, every seed is also run in the other checkout (which must
hold the same benchmark), alternating which side runs first, so the two
files can be compared pair by pair with compare.py.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

RUN_TIMEOUT_S = 900
RUN_SECONDS = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]


def seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_once(checkout: Path, workload: str, seed: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(RUN_SECONDS), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"{checkout}: {workload} seed {seed} printed nothing: {proc.stderr.strip()[-500:]}")
    result = json.loads(lines[-1])
    if proc.returncode != 0 or not result["correct"]:
        print(f"{checkout}: {workload} seed {seed}: exit {proc.returncode}, "
              f"{result['failed']} wrong of {result['attempted']}", file=sys.stderr)
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default="all")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--out", required=True)
    parser.add_argument("--against", help="another checkout to run alternately")
    parser.add_argument("--against-out")
    args = parser.parse_args()
    if args.against and not args.against_out:
        parser.error("--against needs --against-out")

    workloads = list(WORKLOADS) if args.workloads == "all" else args.workloads.split(",")
    sides = [(HERE.parent, Path(args.out))]
    if args.against:
        sides.append((Path(args.against).resolve(), Path(args.against_out)))
    for _, out in sides:
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text("")
    for workload in workloads:
        for i, seed in enumerate(seed_list(args.seeds)):
            order = sides if i % 2 == 0 else sides[::-1]
            for position, (checkout, out) in enumerate(order):
                result = run_once(checkout, workload, seed)
                row = {"workload": workload, "seed": seed, "order": position, "result": result}
                with out.open("a") as fh:
                    fh.write(json.dumps(row) + "\n")
    for _, out in sides:
        print(f"== {out}")
        compare.summarise(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
