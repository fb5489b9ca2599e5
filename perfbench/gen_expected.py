"""Regenerate expected.json, the answers the benchmark checks against.

    python3 perfbench/gen_expected.py

CPP verdicts and congruence sets come from the independent oracles in
tests/oracles.py; rank counts, search verdicts, family closure,
reasonableness and the survey count come from the brute force in
reference.py.  finlat is imported only for the value types the oracles
take.  The congruence pool's algebras are drawn from a fixed seed, so the
file is the same on every run.
"""
from __future__ import annotations

import json
import random
import sys
import time
from itertools import combinations, permutations, product
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src"), str(ROOT / "tests")]

import oracles  # noqa: E402
import reference as ref  # noqa: E402
import workloads as wl  # noqa: E402
from finlat import congruence, eqrel, lattice, reps  # noqa: E402

POOL_SEED = 20241017
DEPTHS = (1, 2)


def _rep(lat_up, ids_list):
    lat = lattice.build_lattice(len(lat_up), sorted(ref.covers(lat_up)))
    n = len(ids_list[0])
    return reps.Representation(lat, n, tuple(eqrel.EquivalenceRelation(n, ref.canonical(i)) for i in ids_list))


def ncpp(lat_up, ids_list) -> list[bool]:
    R = _rep(lat_up, ids_list)
    return [oracles.oracle_ncpp(R, d) for d in DEPTHS]


def shapes(n: int):
    """One partition of each class-size multiset, with 2..n-1 classes."""
    seen = {}
    for ids in ref.rgs(n):
        if 2 <= ref.num_classes(ids) <= n - 1:
            seen.setdefault(ref.shape(ids), ids)
    return seen.values()


def reps_iso(a, b) -> bool:
    n = len(a[0])
    if n != len(b[0]):
        return False
    return any(all(wl._same_relation(x, y, p) for x, y in zip(a, b)) for p in permutations(range(n)))


def family_closure(members) -> bool:
    """Every partition of every member is canonical on some subset whose
    restriction is isomorphic to a member."""
    for ids_list in members:
        n = len(ids_list[0])
        for theta in ref.rgs(n):
            ok = False
            for size in range(n, 0, -1):
                for Y in combinations(range(n), size):
                    restricted = [ref.restrict_ids(ids, Y) for ids in ids_list]
                    if ref.restrict_ids(theta, Y) in restricted and any(reps_iso(restricted, m) for m in members):
                        ok = True
                        break
                if ok:
                    break
            if not ok:
                return False
    return True


def search_found(target_up, max_carrier: int = 4, max_ops: int = 3) -> bool:
    """Exhaustive: is Cg(A) isomorphic to the target for some algebra with at
    most three unary operations on at most four elements?"""
    t = len(target_up)
    for c in range(1, max_carrier + 1):
        parts = list(ref.rgs(c))
        if len(parts) < t:
            continue
        masks = {
            sum(1 << i for i, ids in enumerate(parts) if ref.compatible(c, [(1, table)], ids))
            for table in product(range(c), repeat=c)
        }
        reach = level = {(1 << len(parts)) - 1}
        for _ in range(max_ops):
            level = {a & m for a in level for m in masks}
            reach = reach | level
        for mask in reach:
            congs = [parts[i] for i in range(len(parts)) if mask >> i & 1]
            if len(congs) == t and ref.isomorphic_orders(target_up, ref.refinement_order(congs)):
                return True
    return False


def survey_admitting(n: int, k: int) -> int:
    subsets = list(combinations(range(n), k))
    return sum(
        any(ref.canonical_forms(n, vec, X) for X in subsets)
        for vec in ref.rgs(n * (n - 1) // 2)
    )


def congruence_pool() -> list[dict]:
    rng = random.Random(POOL_SEED)
    specs = [(c, 1, 1) for c in (4, 5, 6, 7)] + [(c, 1, 2) for c in (4, 5, 6, 7)]
    specs += [(c, 2, 1) for c in (5, 7, 8, 9, 10, 10)]
    pool = []
    for i, (size, arity, count) in enumerate(specs):
        ops = [(arity, [rng.randrange(size) for _ in range(size ** arity)]) for _ in range(count)]
        A = congruence.algebra(size, ops)
        congs = sorted(ref.canonical(_ids_of_blocks(p, size)) for p in oracles.oracle_congruences(A))
        kind = "unary" if arity == 1 else "binary"
        pool.append({"name": f"{kind}{size}.{i}", "size": size, "ops": ops, "congruences": congs,
                     "principal": i in (5, 10)})
    return pool


def _ids_of_blocks(partition, size: int) -> list[int]:
    ids = [0] * size
    for k, block in enumerate(sorted(partition, key=min)):
        for x in block:
            ids[x] = k
    return ids


def main() -> None:
    t0 = time.perf_counter()
    data = ROOT / "tests" / "data"
    corpus = {p.stem: json.loads(p.read_text()) for p in data.glob("*.json")}
    out: dict = {}

    named = {name: up for name, up, _ in wl.COMPOSITES if len(up) <= 8}
    named.update({"boolean(2)": wl.B2, "hexagon": wl.HEX, "m(3)": wl.M3, "pentagon": wl.N5, "chain(3)": wl.C(3)})
    out["ranks"] = {name: ref.count_ranks(up) for name, up in named.items()}

    out["ncpp_chain3"] = {
        wl._shape_key(ids): ncpp(wl.C(3), wl.chain3_ids(n, ids)) for n in (4, 5, 6) for ids in shapes(n)
    }
    pairs4 = wl.pairs_b2_ids(4)
    out["ncpp_pairs4"] = {
        ",".join(map(str, Y)): ncpp(wl.B2, [ref.restrict_ids(ids, Y) for ids in pairs4])
        for size in range(3, 7) for Y in combinations(range(6), size)
    }
    rep_files = {name: wl._rep_ids(corpus[name]) for name in ("m3_base_rep", "pairs_b2_4", "chain2_rep4", "chain2_rep5")}
    out["ncpp_named"] = {"m3_base": ncpp(wl.M3, wl.M3_BASE_IDS),
                         "chain2_g7": ncpp(wl.C(2), [(0,) * 7, tuple(range(7))])}
    out["ncpp_named"].update({name: ncpp(*rep_files[name]) for name in rep_files})

    out["family"] = {name: family_closure(wl.family_members(name)) for name in wl.FAMILY_LATTICE}
    out["family"]["m3_base_rep"] = family_closure([rep_files["m3_base_rep"][1]])
    out["family"]["chain2_rep4+5"] = family_closure([rep_files["chain2_rep4"][1], rep_files["chain2_rep5"][1]])

    out["congruence_pool"] = congruence_pool()
    out["search"] = {name: search_found(up) for name, up in wl.SEARCH_TARGETS.items()}

    out["reasonable"] = {}
    for name in ("n5_bc", "b2_atoms"):
        up = wl._order_of_json(corpus[name])
        out["reasonable"][name] = ref.first_witness_order(up, ref.canonical(wl._e_ids(corpus[name]))) is not None
    # boolean(3): every equivalence that relates only elements of equal rank,
    # so that the fast path passes and the verdict needs the order scan
    b3 = ref.boolean_order(3)
    ranks = [(0,), (1, 2, 4), (3, 5, 6), (7,)]
    pool = []
    for left in ref.rgs(3):
        for right in ref.rgs(3):
            ids = [0] * 8
            ids[7] = 1
            for pos, p in enumerate(ranks[1]):
                ids[p] = 2 + left[pos]
            for pos, p in enumerate(ranks[2]):
                ids[p] = 5 + right[pos]
            E = ref.canonical(ids)
            pool.append({"E": list(E), "reasonable": ref.first_witness_order(b3, E) is not None})
    out["reasonable_b3"] = pool
    out["survey_5_3_admitting"] = survey_admitting(5, 3)

    (HERE / "expected.json").write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print(f"wrote expected.json in {time.perf_counter() - t0:.1f} s")


if __name__ == "__main__":
    main()
