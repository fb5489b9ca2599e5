"""Budget-edge census: does each default budget's edge case finish in time?

    python3 perfbench/census.py [--out perfbench/census.json]

A one-shot command, separate from the timed runs.  Each case runs once,
in its own child process with a limit of LIMIT_S seconds, one child at a
time; the census records whether it finished and how long it took.  A
default budget is honest only if its edge case finishes within the limit.
The cases include the two defaults known to fail that test: max_elements
(building boolean(12)) and max_cg_carrier on a congruence-rich algebra.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
LIMIT_S = 120

# (budget, default, edge case, code that sets `result`)
CASES = [
    ("max_elements", 4096, "boolean_lattice(12), 4096 elements",
     "L = boolean_lattice(12); result = L.size"),
    ("max_sublattice_host", 64, "is_distributive(2 x 32), exhaustive at host 64",
     "result = is_distributive(product(chain_lattice(2), chain_lattice(32))).distributive"),
    ("max_sublattice_host", 64, "is_distributive(boolean(6)), exhaustive at host 64",
     "result = is_distributive(boolean_lattice(6)).distributive"),
    ("max_rank_elements", 8, "enumerate_ranks(chain(8)) with Blass and Gaifman",
     "result = len(enumerate_ranks(chain_lattice(8), {'axioms', 'blass', 'gaifman'}))"),
    ("max_rank_candidates", 2_000_000,
     "enumerate_ranks(chain(9)), 9! = 362,880 candidates; needs max_rank_elements=9, "
     "since at the default of 8 no lattice reaches the candidate budget",
     "result = len(enumerate_ranks(chain_lattice(9), max_elements=9))"),
    ("max_cpp_ground", 7, "is_ncpp(chain(2) on ground 7, depth 2)",
     "from finlat.eqrel import trivial_eq, discrete_eq\n"
     "R = Representation(chain_lattice(2), 7, (trivial_eq(7), discrete_eq(7)))\n"
     "result = is_ncpp(R, 2).holds"),
    ("max_order_elements", 8, "is_reasonable on boolean(3), an equivalence that passes the fast "
     "path and fails the full 8! order scan",
     "from finlat.eqrel import from_class_ids\n"
     "EL = EquivalencedLattice(boolean_lattice(3), from_class_ids([0, 1, 1, 2, 3, 2, 2, 4]))\n"
     "result = is_reasonable(EL).reasonable"),
    ("max_survey_kernels", 200_000, "crt2_survey(5, 3), Bell(10) = 115,975 kernels",
     "result = crt2_survey(5, 3).admitting"),
    ("max_subset_candidates", 2_000_000,
     "find_canonical_subset(n=26, k=8), C(26, 8) = 1,562,275 subsets, seeded values in range(3)",
     "import random\nrng = random.Random(0)\n"
     "f = pair_function(26, [rng.randrange(3) for _ in range(26 * 25 // 2)])\n"
     "result = find_canonical_subset(f, 8)"),
    ("max_cg_carrier", 10, "congruence_lattice, carrier 10, one seeded binary operation "
     "(congruence-poor)",
     "import random\nfrom finlat.congruence import algebra\nrng = random.Random(0)\n"
     "result = len(congruence_lattice(algebra(10, [(2, [rng.randrange(10) for _ in range(100)])])).congruences)"),
    ("max_cg_carrier", 10, "congruence_lattice, carrier 7, no operations (Bell(7) = 877 congruences)",
     "from finlat.congruence import algebra\nresult = len(congruence_lattice(algebra(7, [])).congruences)"),
    ("max_cg_carrier", 10, "congruence_lattice, carrier 10, no operations (Bell(10) = 115,975 "
     "congruences, congruence-rich)",
     "from finlat.congruence import algebra\nresult = len(congruence_lattice(algebra(10, [])).congruences)"),
    ("max_search_candidates", 1_000_000, "search_algebra(m(4), max_carrier=5), which runs into "
     "the candidate budget",
     "r = search_algebra(m_lattice(4), max_carrier=5); result = [r.exhausted_budget, r.candidates_tried]"),
    ("MAX_SEARCH_CARRIER", 4, "search_algebra(m(4)) at carrier 4 (not found)",
     "r = search_algebra(m_lattice(4)); result = [r.algebra is not None, r.candidates_tried]"),
    ("MAX_ISO_GROUND", 10, "reps_isomorphic(pairs_b2_rep(5), reversed copy), ground 10",
     "from finlat.reps import relabel_rep\nR = pairs_b2_rep(5)\n"
     "result = reps_isomorphic(R, relabel_rep(R, list(range(9, -1, -1)))) is not None"),
    ("MAX_POWER_GROUND", 4096, "power_rep(m3_base_rep(), 7), ground 2187, then verify_pseudo_rep",
     "result = verify_pseudo_rep(power_rep(m3_base_rep(), 7)).valid"),
]

CHILD = """\
import json, sys, time
sys.path.insert(0, "src")
t0 = time.perf_counter()
from finlat import *
{code}
print(json.dumps({{"seconds": time.perf_counter() - t0, "result": result}}))
"""


def run_case(code: str) -> dict:
    start = perf_counter()
    try:
        proc = subprocess.run([sys.executable, "-c", CHILD.format(code=code)], cwd=ROOT,
                              capture_output=True, text=True, timeout=LIMIT_S)
    except subprocess.TimeoutExpired:
        return {"status": "timed out", "seconds": round(perf_counter() - start, 3)}
    if proc.returncode != 0:
        return {"status": "failed", "seconds": round(perf_counter() - start, 3),
                "error": proc.stderr.strip().splitlines()[-1:]}
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    return {"status": "finished", "seconds": round(out["seconds"], 3), "result": out["result"]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", help="also write the census as JSON here")
    args = parser.parse_args()
    rows = []
    for budget, default, case, code in CASES:
        row = {"budget": budget, "default": default, "case": case, "limit_s": LIMIT_S,
               **run_case(code)}
        rows.append(row)
        print(f"{budget:22s} {default:>9} {row['status']:10s} {row['seconds']:8.2f} s  {case}", flush=True)
    if args.out:
        meta = {"cpus": os.cpu_count(), "python": platform.python_version(), "machine": platform.machine()}
        Path(args.out).write_text(json.dumps({"machine": meta, "cases": rows}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
