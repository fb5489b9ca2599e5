"""Seeded job lists for the benchmark's two workloads.

Each workload joins two parts, each part a job list that exercises some
of finlat's modules: lattice-classify (lattice, ranked) with
congruence-closure (congruence), and cpp-decide (reps, eqrel) with
cli-batch (cli, ramsey, diversity).  Two workloads of long runs measure
more steadily on a small shared machine than four of short runs.

A job is one unit of closed-loop work: a call (or a few calls) into one
finlat module, timed as a whole, plus a check of its output against an
answer finlat did not compute.  Answers come from closed forms, from the
known structure of the inputs, from `expected.json` (written once by
`gen_expected.py` from the test-suite oracles and the brute force in
`reference.py`), or from re-verifying a returned witness with
`reference.py`.

Every input is made here from the seed; finlat receives only the inputs.
The seed picks relabelings, shuffles and sampled choices, while the list
of job kinds and sizes stays fixed, so that runs on different seeds do
comparable work.
"""
from __future__ import annotations

import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from math import factorial
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Callable, Optional

import reference as ref

ALL_CHECKS = frozenset({"axioms", "blass", "gaifman"})


@dataclass
class Job:
    id: str
    run: Callable[[Any], Any]  # run(lib) -> output
    check: Callable[[Any], Optional[str]]  # None when the output is right
    edge: bool = False  # sits at the edge of a default budget
    tally: Callable[[Any], dict] = field(default=lambda out: {})  # per-layer counts
    part: str = ""  # the PARTS entry that made the job


@dataclass
class Ctx:
    fin: SimpleNamespace  # the freshly imported finlat modules
    rng: random.Random
    expected: dict
    data: Path  # the tests/data corpus
    workdir: Path  # where cli-batch writes its seeded input files
    tiny: bool


# functions the workloads call, by module; the traced run wraps each one
LIB_FUNCTIONS = {
    "lattice": ("build_lattice", "boolean_lattice", "is_distributive", "birkhoff_oracle",
                "satisfies_distributive_law", "lattice_isomorphism"),
    "ranked": ("enumerate_ranks",),
    "eqrel": ("meet_eq", "join_eq", "restrict_eq"),
    "reps": ("is_ncpp", "verify_pseudo_rep", "is_representation", "is_0cpp",
             "reps_isomorphic", "family_closure_check"),
    "congruence": ("congruence_lattice", "principal_congruence", "search_algebra"),
    "cli": ("main",),
}


def make_lib(fin: SimpleNamespace, wrap=None) -> SimpleNamespace:
    lib = SimpleNamespace()
    for module, names in LIB_FUNCTIONS.items():
        for name in names:
            fn = getattr(getattr(fin, module), name)
            setattr(lib, name, wrap(f"{module}.{name}", fn) if wrap else fn)
    return lib


def _perm(rng: random.Random, n: int) -> list[int]:
    p = list(range(n))
    rng.shuffle(p)
    return p


def _relabel_order(up: list[int], perm: list[int]) -> list[int]:
    n = len(up)
    out = [0] * n
    for i in range(n):
        out[perm[i]] = sum(1 << perm[j] for j in range(n) if up[i] >> j & 1)
    return out


def _shuffled_covers(rng: random.Random, up: list[int]) -> list[tuple[int, int]]:
    pairs = sorted(ref.covers(up))
    rng.shuffle(pairs)
    return pairs


def _linear_extension(rng: random.Random, up: list[int]) -> list[int]:
    """A seeded numbering in which every element comes after all below it."""
    left, perm = set(range(len(up))), [0] * len(up)
    for pos in range(len(up)):
        x = rng.choice(sorted(i for i in left if not any(j != i and up[j] >> i & 1 for j in left)))
        perm[x] = pos
        left.remove(x)
    return perm


def _seeded_lattice(rng: random.Random, up: list[int], linear: bool = False):
    """A random relabeling of a lattice: its order and its shuffled cover pairs.
    With `linear`, the relabeling is a linear extension of the order."""
    perm = _linear_extension(rng, up) if linear else _perm(rng, len(up))
    new_up = _relabel_order(up, perm)
    return new_up, _shuffled_covers(rng, new_up)


# ---------------------------------------------------------------------------
# lattice-classify

C = ref.chain_order
B2 = ref.boolean_order(2)
M3 = ref.DIAMOND_UP
N5 = ref.PENTAGON_UP
HEX = ref.HEXAGON_UP
prod = ref.product_order
dbl = ref.doubling_order
oplus = ref.oplus_order

# (name, order, distributive).  The verdicts are structural facts: products,
# doublings and 1 (+) L of distributive lattices are distributive, and a
# lattice with an m(3), pentagon or hexagon factor contains that factor as a
# sublattice and is not.
COMPOSITES = [
    ("c2xc4", prod(C(2), C(4)), True),
    ("b2xc2", prod(B2, C(2)), True),
    ("1+1+1+m3", oplus(oplus(oplus(M3))), False),
    ("dbl(n5,a)", dbl(N5, 1), False),
    ("1+1+hex", oplus(oplus(HEX)), False),
    ("m3xc2", prod(M3, C(2)), False),
    ("dbl(m3,0)", dbl(M3, 0), False),
    ("c4xc4", prod(C(4), C(4)), True),
    ("1+c3xc5", oplus(prod(C(3), C(5))), True),
    ("hexxc3", prod(HEX, C(3)), False),
    ("n5xb2", prod(N5, B2), False),
    ("m3xc4", prod(M3, C(4)), False),
    ("dbl(c4xc4,5)", dbl(prod(C(4), C(4)), 5), True),
    ("m3xm3", prod(M3, M3), False),
    ("n5xc5", prod(N5, C(5)), False),
    ("hexxb2xc2", prod(prod(HEX, B2), C(2)), False),
    ("b2xb2xc2", prod(prod(B2, B2), C(2)), True),
    ("1+b2xb2xc2", oplus(prod(prod(B2, B2), C(2))), True),
    ("dbl(n5xc3,4)", dbl(prod(N5, C(3)), 4), False),
]
# host 64 is the default max_sublattice_host
EDGE_COMPOSITES = [
    ("boolean(6)", ref.boolean_order(6), True),
    ("m(62)", ref.m_order(62), False),
]
ISO_MAX = 16  # isomorphism search is exponential on symmetric hosts; keep it small
TINY_MAX = 10
# Witness search, isomorphism search and rank enumeration take time that
# depends on the labels, so those jobs run on several seeded relabelings:
# a job's time then varies less from seed to seed.
# finlat's birkhoff_oracle adds the join-irreducibles in element-number order
# and so undercounts down-sets when an element is numbered before one below
# it (c4xc4 and 1+c3xc5 come out not distributive, 1+1+hex distributive).
# The lattices it is given here (classify jobs and cli analyze) are therefore
# numbered by seeded linear extensions; test_perfbench.py keeps the defect
# in view.
CLASSIFY_COPIES = 4
ISO_COPIES = 12
RANK_COPIES = 5


def _check_order(L, up: list[int]) -> Optional[str]:
    n = len(up)
    if L.size != n:
        return f"size {L.size} != {n}"
    for i in range(n):
        for j in range(n):
            if bool(L.le(i, j)) != bool(up[i] >> j & 1):
                return f"order differs at ({i}, {j})"
    return None


def _classify_job(ctx: Ctx, name: str, up0: list[int], dist: bool, edge: bool) -> Job:
    # the exhaustive search on a distributive lattice costs the same under any labels
    copies = CLASSIFY_COPIES if not dist and len(up0) <= ISO_MAX else 1
    cases = [_seeded_lattice(ctx.rng, up0, linear=True) for _ in range(copies)]
    n = len(up0)

    def run(lib):
        out = []
        for _, pairs in cases:
            L = lib.build_lattice(n, pairs)
            out.append((L, lib.is_distributive(L), lib.birkhoff_oracle(L), lib.satisfies_distributive_law(L)))
        return out

    def check(results):
        for (up, _), (L, verdict, birk, law) in zip(cases, results):
            bad = _check_order(L, up)
            if bad:
                return bad
            if (verdict.distributive, birk.distributive, law) != (dist, dist, dist):
                return f"verdicts {verdict.distributive}/{birk.distributive}/{law}, expected {dist}"
            if not dist:
                pattern = {"diamond": ref.DIAMOND_UP, "pentagon": ref.PENTAGON_UP}.get(verdict.witness_kind)
                if pattern is None or verdict.witness is None:
                    return f"missing witness (kind {verdict.witness_kind!r})"
                if not ref.is_lattice_embedding(verdict.witness.map, pattern, up):
                    return f"witness {verdict.witness.map} is not a {verdict.witness_kind} sublattice"
        return None

    return Job(f"classify:{name}", run, check, edge, tally=lambda out: {"lattice.cells": n * n * copies})


def _iso_job(ctx: Ctx, name: str, up0: list[int]) -> Job:
    build = ctx.fin.lattice.build_lattice
    cases = []
    for _ in range(ISO_COPIES):
        up1, pairs1 = _seeded_lattice(ctx.rng, up0)
        up2, pairs2 = _seeded_lattice(ctx.rng, up0)
        cases.append((up1, up2, build(len(up1), pairs1), build(len(up2), pairs2)))

    def check(maps):
        for f, (up1, up2, _, _) in zip(maps, cases):
            if f is None:
                return "no isomorphism found between relabeled copies"
            if not ref.is_order_isomorphism(f, up1, up2):
                return f"map {f} is not an isomorphism"
        return None

    return Job(f"iso:{name}", lambda lib: [lib.lattice_isomorphism(L1, L2) for _, _, L1, L2 in cases], check)


def _ranks_job(ctx: Ctx, name: str, up0: list[int], count: int, edge: bool, relabel: bool = True) -> Job:
    if relabel:
        orders = [_seeded_lattice(ctx.rng, up0) for _ in range(RANK_COPIES)]
    else:
        orders = [(up0, sorted(ref.covers(up0)))]
    cases = []
    for up, pairs in orders:
        meet, join = ref.meet_join_tables(up)
        cases.append((up, meet, join, ctx.fin.lattice.build_lattice(len(up), pairs)))
    space = ref.candidate_space(up0)

    def check(results):
        for ranks, (up, meet, join, _) in zip(results, cases):
            rhos = [tuple(R.rho) for R in ranks]
            if len(rhos) != count:
                return f"{len(rhos)} ranks, expected {count}"
            if len(set(rhos)) != len(rhos):
                return "duplicate ranks"
            for rho in rhos:
                if not ref.rank_holds(up, rho, meet, join):
                    return f"rho {rho} fails the rank axioms, Blass or Gaifman"
        return None

    return Job(
        f"ranks:{name}",
        lambda lib: [lib.enumerate_ranks(L, ALL_CHECKS) for _, _, _, L in cases],
        check,
        edge,
        tally=lambda results: {"ranked.ranks": sum(map(len, results)), "ranked.space": space * len(results)},
    )


def _boolean_job(ctx: Ctx, k: int) -> Job:
    size = 1 << k
    SizeLimit = ctx.fin.errors.SizeLimit

    def run(lib):
        L = lib.boolean_lattice(k)
        birk = lib.birkhoff_oracle(L)
        try:
            host = lib.is_distributive(L)
        except SizeLimit as exc:
            host = exc
        return L, birk, host

    def check(out):
        L, birk, host = out
        if L.size != size or any(L.up[a] != sum(1 << b for b in range(size) if a & ~b == 0) for a in range(size)):
            return "not the subset order"
        if not birk.distributive:
            return "boolean lattice reported not distributive"
        if not isinstance(host, SizeLimit):
            return f"host {size} > 64 was not refused with SizeLimit"
        return None

    return Job(f"boolean:{k}", run, check, tally=lambda out: {"lattice.cells": size * size})


def lattice_classify(ctx: Ctx) -> list[Job]:
    ranks = ctx.expected["ranks"]
    jobs = []
    for name, up, dist in COMPOSITES:
        if ctx.tiny and len(up) > TINY_MAX:
            continue
        jobs.append(_classify_job(ctx, name, up, dist, False))
        if len(up) <= ISO_MAX:
            jobs.append(_iso_job(ctx, name, up))
        if len(up) <= 8:
            jobs.append(_ranks_job(ctx, name, up, ranks[name], False))
    if not ctx.tiny:
        for name, up, dist in EDGE_COMPOSITES:
            jobs.append(_classify_job(ctx, name, up, dist, True))
        # chain(k) has 2^(k-1) ranks; 8 is the default max_rank_elements.  It
        # keeps its natural labels: this is the fixed edge case, and the
        # enumeration's pruning depends on the labels.
        jobs.append(_ranks_job(ctx, "chain(8)", C(8), 2 ** 7, True, relabel=False))
        jobs += [_boolean_job(ctx, 7), _boolean_job(ctx, 8)]
    return jobs


# ---------------------------------------------------------------------------
# cpp-decide


def _rep(fin, lat, ids_list):
    eq = fin.eqrel.EquivalenceRelation
    n = len(ids_list[0])
    return fin.reps.Representation(lat, n, tuple(eq(n, ref.canonical(ids)) for ids in ids_list))


def _lattice_from(fin, up):
    return fin.lattice.build_lattice(len(up), sorted(ref.covers(up)))


def _random_partition(rng: random.Random, n: int, lo: int, hi: int) -> tuple[int, ...]:
    while True:
        k = rng.randint(lo, hi)
        ids = ref.canonical([rng.randrange(k) for _ in range(n)])
        if lo <= ref.num_classes(ids) <= hi:
            return ids


def _shape_key(ids) -> str:
    return f"{len(ids)}:" + ",".join(map(str, ref.shape(ids)))


def chain3_ids(n: int, middle) -> list[tuple[int, ...]]:
    return [(0,) * n, tuple(middle), tuple(range(n))]


def pairs_b2_ids(n: int) -> list[tuple[int, ...]]:
    """pairs_b2_rep(n) as class-id vectors: bottom, the two coordinate kernels, top."""
    points = [(x, y) for x in range(n) for y in range(x + 1, n)]
    k = len(points)
    return [(0,) * k, ref.canonical([x for x, _ in points]), ref.canonical([y for _, y in points]), tuple(range(k))]


M3_BASE_IDS = [(0, 0, 0), (0, 1, 1), (0, 1, 0), (0, 0, 1), (0, 1, 2)]


def m3_power_ids(m: int) -> list[tuple[int, ...]]:
    seqs = [()]
    for _ in range(m):
        seqs = [s + (c,) for s in seqs for c in range(3)]
    return [ref.canonical([tuple(ids[c] for c in s) for s in seqs]) for ids in M3_BASE_IDS]


def _zero_cpp(ids_list) -> bool:
    return all(ref.num_classes(ids) != 2 for ids in ids_list)


def _rgs_index(n: int) -> dict:
    return {ids: i for i, ids in enumerate(ref.rgs(n))}


def _ncpp_job(ctx: Ctx, name: str, cases, depth: int, edge: bool = False) -> Job:
    """is_ncpp on each (rep, class-id vectors, oracle answers by depth)."""
    wants = [_zero_cpp(ids_list) if depth == 0 else answers[depth - 1] for _, ids_list, answers in cases]
    index = _rgs_index(cases[0][0].ground_size) if depth else {}

    def run(lib):
        return [lib.is_ncpp(R, depth) for R, _, _ in cases]

    def check(verdicts):
        for v, want in zip(verdicts, wants):
            if v.holds != want or v.depth != depth:
                return f"holds={v.holds} at depth {v.depth}, expected {want} at depth {depth}"
        return None

    def thetas(v):
        # top-level partitions decided: the whole certificate, or up to the failing one
        if depth == 0:
            return 0
        return len(v.certificate) if v.holds else index[tuple(v.witness_theta.class_id)] + 1

    return Job(f"ncpp:{name}:d{depth}", run, check, edge,
               tally=lambda verdicts: {"reps.thetas": sum(map(thetas, verdicts))})


def _same_relation(ids1, ids2, f) -> bool:
    n = len(ids1)
    return all(
        (ids1[x] == ids1[y]) == (ids2[f[x]] == ids2[f[y]]) for x in range(n) for y in range(x + 1, n)
    )


def _rep_iso_job(ctx: Ctx, name: str, lat, ids_list, other=None, edge: bool = False) -> Job:
    """reps_isomorphic against a relabeled copy, or against `other`, which
    differs in some image's class sizes and so cannot be isomorphic."""
    fin = ctx.fin
    n = len(ids_list[0])
    perm = _perm(ctx.rng, n)
    ids2 = other or [ref.permute_ids(ids, perm) for ids in ids_list]
    R1, R2 = _rep(fin, lat, ids_list), _rep(fin, lat, ids2)

    def check(f):
        if other is not None:
            return None if f is None else f"isomorphism {f} between different class sizes"
        if f is None:
            return "no isomorphism found to a relabeled copy"
        if sorted(f) != list(range(n)) or not all(_same_relation(a, b, f) for a, b in zip(ids_list, ids2)):
            return f"map {f} is not an isomorphism"
        return None

    return Job(f"rep-iso:{name}", lambda lib: lib.reps_isomorphic(R1, R2), check, edge)


def _verify_job(ctx: Ctx, m3, m: int) -> Job:
    ids_list = m3_power_ids(m)
    perm = _perm(ctx.rng, len(ids_list[0]))
    P = _rep(ctx.fin, m3, [ref.permute_ids(ids, perm) for ids in ids_list])

    def run(lib):
        return lib.verify_pseudo_rep(P).valid, lib.is_representation(P).injective, lib.is_0cpp(P).holds

    def check(out):
        # a power of a representation is a representation; m3^m has images
        # with 1, 2^m and 3^m classes, so it is 0-CPP exactly when m >= 2
        want = (True, True, m >= 2)
        return None if out == want else f"(pseudo, injective, 0-CPP) = {out}, expected {want}"

    return Job(f"verify:m3^{m}", run, check, edge=3 ** m == 2187)


def family_members(name: str) -> list[list[tuple[int, ...]]]:
    """The fixed families of family_closure_check, as class-id vectors."""
    return {
        "m3_base": [M3_BASE_IDS],
        "pairs3": [pairs_b2_ids(3)],
        "chain3_small": [chain3_ids(3, (0, 1, 1)), chain3_ids(4, (0, 0, 1, 1))],
    }[name]


FAMILY_LATTICE = {"m3_base": M3, "pairs3": B2, "chain3_small": C(3)}


def _family_job(ctx: Ctx, name: str) -> Job:
    fin = ctx.fin
    lat = _lattice_from(fin, FAMILY_LATTICE[name])
    members = family_members(name)
    family = []
    for ids_list in members:
        perm = _perm(ctx.rng, len(ids_list[0]))
        family.append(_rep(fin, lat, [ref.permute_ids(ids, perm) for ids in ids_list]))
    closure = ctx.expected["family"][name]
    not_0cpp = tuple(i for i, ids_list in enumerate(members) if not _zero_cpp(ids_list))

    def check(rep):
        got = (rep.nonempty, rep.not_0cpp_members, rep.all_0cpp, rep.closure_holds, rep.correct)
        want = (True, not_0cpp, not not_0cpp, closure, closure and not not_0cpp)
        return None if got == want else f"report {got}, expected {want}"

    return Job(f"family:{name}", lambda lib: lib.family_closure_check(family), check)


EQ_CALLS = 150
NCPP_COPIES = 3


def _eqrel_job(ctx: Ctx, op: str, n: int, parts) -> Job:
    fin = ctx.fin
    eq = fin.eqrel.EquivalenceRelation
    rng = ctx.rng
    calls = EQ_CALLS // 10 if ctx.tiny else EQ_CALLS
    if op == "restrict":
        args = []
        for _ in range(calls):
            ids = rng.choice(parts)
            args.append((eq(n, ids), tuple(sorted(rng.sample(range(n), rng.randint(2, n - 1))))))
        want = [ref.restrict_ids(t.class_id, s) for t, s in args]
    else:
        args = [(eq(n, rng.choice(parts)), eq(n, rng.choice(parts))) for _ in range(calls)]
        fn = ref.meet_ids if op == "meet" else ref.join_ids
        want = [fn(a.class_id, b.class_id) for a, b in args]
    name = f"{op}_eq"

    def run(lib):
        f = getattr(lib, name)
        return [f(a, b) for a, b in args]

    def check(out):
        got = [tuple(t.class_id) for t in out]
        bad = [i for i, (g, w) in enumerate(zip(got, want)) if g != w]
        return f"{len(bad)} wrong results, first at call {bad[0]}" if bad else None

    return Job(f"eqrel:{op}:n{n}", run, check, tally=lambda out: {"eqrel.ops": len(args)})


def cpp_decide(ctx: Ctx) -> list[Job]:
    fin, rng, exp = ctx.fin, ctx.rng, ctx.expected
    c2, c3, b2, m3 = (_lattice_from(fin, up) for up in (C(2), C(3), B2, M3))
    depths = (0, 1) if ctx.tiny else (0, 1, 2)
    jobs = []

    def relabeled(lat, ids_list, answers):
        perm = _perm(rng, len(ids_list[0]))
        ids_list = [ref.permute_ids(ids, perm) for ids in ids_list]
        return _rep(fin, lat, ids_list), ids_list, answers

    def add(name, cases, edge=False):
        for d in depths:
            jobs.append(_ncpp_job(ctx, name, cases, d, edge))

    # the seed picks partitions and subsets of fixed sizes, NCPP_COPIES per
    # job, since the verdict's cost depends on which ones
    for n in (4, 5) if ctx.tiny else (4, 5, 6):
        for k in (2, 3):
            middles = [_random_partition(rng, n, k, k) for _ in range(NCPP_COPIES)]
            add(f"chain3:g{n}:{k}classes", [
                (_rep(fin, c3, chain3_ids(n, m)), chain3_ids(n, m), exp["ncpp_chain3"][_shape_key(m)])
                for m in middles])
    pairs4 = pairs_b2_ids(4)
    for size in (4, 5) if ctx.tiny else (4, 5, 6):
        subsets = [tuple(sorted(rng.sample(range(6), size))) for _ in range(NCPP_COPIES)]
        add(f"pairs4:{size}points", [
            relabeled(b2, [ref.restrict_ids(ids, Y) for ids in pairs4], exp["ncpp_pairs4"][",".join(map(str, Y))])
            for Y in subsets])
    add("m3_base", [relabeled(m3, M3_BASE_IDS, exp["ncpp_named"]["m3_base"]) for _ in range(NCPP_COPIES)])
    if not ctx.tiny:
        # ground 7 is the default max_cpp_ground; relabeling trivial and
        # discrete relations changes nothing, so one copy
        ids_list = [(0,) * 7, tuple(range(7))]
        for d in (1, 2):
            jobs.append(_ncpp_job(ctx, "chain2:g7", [(_rep(fin, c2, ids_list), ids_list,
                                                       exp["ncpp_named"]["chain2_g7"])], d, edge=True))
    for m in range(1, 4 if ctx.tiny else 8):
        jobs.append(_verify_job(ctx, m3, m))
    jobs.append(_rep_iso_job(ctx, "pairs_b2(4)", b2, pairs4))
    jobs.append(_rep_iso_job(ctx, "chain3:g6", c3, chain3_ids(6, _random_partition(rng, 6, 3, 3))))
    jobs.append(_rep_iso_job(ctx, "chain3:g6:shapes", c3, chain3_ids(6, (0, 0, 0, 1, 1, 2)),
                             other=chain3_ids(6, (0, 0, 1, 1, 2, 2))))
    if not ctx.tiny:
        jobs.append(_rep_iso_job(ctx, "m3^2", m3, m3_power_ids(2)))
        # ground 10 is MAX_ISO_GROUND
        jobs.append(_rep_iso_job(ctx, "pairs_b2(5)", b2, pairs_b2_ids(5), edge=True))
    for name in ("m3_base", "pairs3", "chain3_small"):
        jobs.append(_family_job(ctx, name))
    for n in (6, 7, 8):
        parts = list(ref.rgs(n))
        for op in ("meet", "join", "restrict"):
            jobs.append(_eqrel_job(ctx, op, n, parts))
    return jobs


# ---------------------------------------------------------------------------
# congruence-closure


def residue_ids(n: int, d: int) -> tuple[int, ...]:
    return tuple(x % d for x in range(n))


def divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def _algebra(fin, size, ops):
    return fin.congruence.FiniteAlgebra(
        size, tuple(fin.congruence.Operation(a, tuple(t)) for a, t in ops)
    )


def _closure_job(ctx: Ctx, name: str, size: int, ops, want: set, edge: bool = False) -> Job:
    A = _algebra(ctx.fin, size, ops)

    def check(cg):
        got = [tuple(t.class_id) for t in cg.congruences]
        if len(got) != len(set(got)) or set(got) != want:
            return f"{len(set(got))} congruences, expected {len(want)}"
        if cg.lattice.size != len(want):
            return f"lattice of size {cg.lattice.size} for {len(want)} congruences"
        return None

    rich = len(want) > size
    return Job(f"cg:{name}", lambda lib: lib.congruence_lattice(A), check, edge,
               tally=lambda cg: {"congruence.count": len(cg.congruences), "congruence.rich": rich})


def _least_containing(congs: set, a: int, b: int) -> tuple[int, ...]:
    out = None
    for c in congs:
        if c[a] == c[b]:
            out = c if out is None else ref.meet_ids(out, c)
    return out


def _principal_job(ctx: Ctx, name: str, size: int, ops, congs: set) -> Job:
    A = _algebra(ctx.fin, size, ops)
    pairs = [tuple(ctx.rng.sample(range(size), 2)) for _ in range(4 if ctx.tiny else 12)]
    want = [_least_containing(congs, a, b) for a, b in pairs]

    def check(out):
        got = [tuple(t.class_id) for t in out]
        bad = [p for p, g, w in zip(pairs, got, want) if g != w]
        return f"wrong principal congruence for {bad[0]}" if bad else None

    return Job(f"principal:{name}", lambda lib: [lib.principal_congruence(A, a, b) for a, b in pairs], check)


SEARCH_TARGETS = {"m(3)": M3, "m(4)": ref.m_order(4), "pentagon": N5, "chain(2)": C(2),
                  "chain(3)": C(3), "chain(4)": C(4), "boolean(2)": B2}


def search_found_ok(target_up, algebra) -> Optional[str]:
    """Re-verify a found algebra: small, unary, and Cg(A) ordered by inclusion
    isomorphic to the target."""
    if algebra.size > 4 or len(algebra.operations) > 3 or any(op.arity != 1 for op in algebra.operations):
        return "algebra outside the search bounds"
    ops = [(op.arity, list(op.table)) for op in algebra.operations]
    congs = sorted(ref.all_congruences(algebra.size, ops))
    if not ref.isomorphic_orders(target_up, ref.refinement_order(congs)):
        return "congruence lattice of the found algebra is not the target"
    return None


def _search_job(ctx: Ctx, name: str, up: list[int]) -> Job:
    L = _lattice_from(ctx.fin, up)
    found = ctx.expected["search"][name]

    def check(res):
        if (res.algebra is not None) != found or res.exhausted_budget:
            return f"found={res.algebra is not None} exhausted={res.exhausted_budget}, expected found={found}"
        return search_found_ok(up, res.algebra) if found else None

    return Job(f"search:{name}", lambda lib: lib.search_algebra(L), check, edge=True,
               tally=lambda r: {"congruence.candidates": r.candidates_tried,
                                "congruence.found": int(r.algebra is not None)})


def _relabeled_pool_entry(rng, entry):
    size = entry["size"]
    perm = _perm(rng, size)
    ops = ref.conjugate_ops(size, entry["ops"], perm)
    return size, ops, {ref.permute_ids(c, perm) for c in entry["congruences"]}


def congruence_closure(ctx: Ctx) -> list[Job]:
    rng = ctx.rng
    jobs = []
    # no operations: every partition is a congruence, Bell(n) of them
    for n in (3, 4) if ctx.tiny else (3, 4, 5, 6):
        jobs.append(_closure_job(ctx, f"free{n}", n, [], set(ref.rgs(n))))
    # Z_n: one congruence per divisor of n, the residues modulo it
    for n in range(4, 7 if ctx.tiny else 11):
        perm = _perm(rng, n)
        ops = ref.conjugate_ops(n, [(2, [(a + b) % n for a in range(n) for b in range(n)])], perm)
        want = {ref.permute_ids(residue_ids(n, d), perm) for d in divisors(n)}
        jobs.append(_closure_job(ctx, f"Z{n}", n, ops, want, edge=n == 10))
        if n in (6, 8):
            jobs.append(_principal_job(ctx, f"Z{n}", n, ops, want))
    for entry in ctx.expected["congruence_pool"]:
        if ctx.tiny and entry["size"] > 6:
            continue
        size, ops, want = _relabeled_pool_entry(rng, entry)
        # carrier 10 is the default max_cg_carrier
        jobs.append(_closure_job(ctx, entry["name"], size, ops, want, edge=size == 10))
        if entry["principal"]:
            jobs.append(_principal_job(ctx, entry["name"], size, ops, want))
    for name, up in SEARCH_TARGETS.items():
        if not (ctx.tiny and name == "m(4)"):
            jobs.append(_search_job(ctx, name, up))
    return jobs


# ---------------------------------------------------------------------------
# cli-batch


def _write(ctx: Ctx, name: str, data) -> str:
    path = ctx.workdir / name
    path.write_text(json.dumps(data))
    return str(path)


def _lattice_json(up, pairs=None) -> dict:
    return {"size": len(up), "leq": [list(p) for p in (pairs or sorted(ref.covers(up)))]}


def _order_of_json(data) -> list[int]:
    return ref.order_closure(data["size"], [tuple(p) for p in data["leq"]])


def _rep_json(lat_up, ids_list) -> dict:
    n = len(ids_list[0])
    alpha = {}
    for r, ids in enumerate(ids_list):
        classes: dict = {}
        for p, c in enumerate(ids):
            classes.setdefault(c, []).append(p)
        alpha[str(r)] = {"ground": n, "classes": list(classes.values())}
    return {"lattice": _lattice_json(lat_up), "ground": n, "alpha": alpha}


def _rep_ids(data) -> tuple[list[int], list[tuple[int, ...]]]:
    """A representation JSON as (lattice order, class-id vectors)."""
    ids_list = [ref.canonical(_ids_of_classes(data["alpha"][str(r)])) for r in range(data["lattice"]["size"])]
    return _order_of_json(data["lattice"]), ids_list


def _cli_job(ctx: Ctx, name: str, argv: list[str], check_report, edge: bool = False, code: int = 0,
             tally=None) -> Job:
    def run(lib):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            status = lib.main(argv)
        return status, out.getvalue(), err.getvalue()

    def check(result):
        status, out, err = result
        if status != code:
            return f"exit code {status}, expected {code}: {err.strip()[:200]}"
        if code != 0:
            return None if not out and '"error"' in err else "error not reported on stderr alone"
        try:
            report = json.loads(out) if argv[0] != "export-dot" else out
        except json.JSONDecodeError:
            return "stdout is not a JSON report"
        return check_report(report)

    def counts(result):
        extra = tally(json.loads(result[1])) if tally and result[0] == 0 else {}
        return {"cli.report_bytes": len(result[1].encode()), **extra}

    return Job(f"cli:{name}", run, check, edge, counts)


def _analyze_check(up, dist):
    def check(rep):
        if rep["size"] != len(up) or not rep["valid"]:
            return "size or validity wrong"
        got = (rep["distributive"], rep["birkhoff"]["distributive"], rep["distributive_law"])
        if got != (dist, dist, dist) or rep["methods_agree"] is not True:
            return f"verdicts {got[0]}/{got[1]}/{got[2]}, expected {dist}"
        w = rep["forbidden_sublattice"]["witness"]
        if not dist:
            pattern = {"diamond": ref.DIAMOND_UP, "pentagon": ref.PENTAGON_UP}.get(w and w["kind"])
            if pattern is None or not ref.is_lattice_embedding(w["map"], pattern, up):
                return f"bad witness {w}"
        return None
    return check


def _ranks_check(up, count):
    meet, join = ref.meet_join_tables(up)

    def check(rep):
        rhos = [tuple(r["rho"]) for r in rep["ranks"]]
        if rep["count"] != count or len(set(rhos)) != count:
            return f"{rep['count']} ranks, expected {count}"
        if not all(ref.rank_holds(up, rho, meet, join) for rho in rhos):
            return "a listed rank fails its conditions"
        return None
    return check


def _dot_check(up):
    def check(text):
        edges = set()
        for line in text.splitlines():
            if "->" in line:
                a, b = line.strip().rstrip(";").split("->")
                edges.add((int(a), int(b)))
        return None if edges == ref.covers(up) else "DOT edges are not the cover relation"
    return check


def _rep_verify_check(lat_up, ids_list):
    meet, join = ref.meet_join_tables(lat_up)
    bottom = next(i for i in range(len(lat_up)) if lat_up[i] == (1 << len(lat_up)) - 1)
    top = next(i for i in range(len(lat_up)) if all(u >> i & 1 for u in lat_up))
    n = len(ids_list[0])
    pseudo = (ref.num_classes(ids_list[bottom]) == 1 and ref.num_classes(ids_list[top]) == n and all(
        ids_list[join[x][y]] == ref.meet_ids(ids_list[x], ids_list[y])
        for x in range(len(lat_up)) for y in range(len(lat_up))))
    injective = len(set(ids_list)) == len(ids_list)

    def check(rep):
        got = (rep["pseudo_valid"], rep["is_representation"])
        return None if got == (pseudo, injective) else f"(pseudo, injective) = {got}, expected {(pseudo, injective)}"
    return check


def _max_split(coarse, fine) -> int:
    seen: dict = {}
    for c, f in zip(coarse, fine):
        seen.setdefault(c, set()).add(f)
    return max(len(v) for v in seen.values())


def _rep_ranked_check(lat_up, ids_list, rho, bound):
    meet, join = ref.meet_join_tables(lat_up)
    n = len(lat_up)
    le = lambda a, b: lat_up[a] >> b & 1
    axioms = (all(le(x, rho[x]) and rho[rho[x]] == rho[x] for x in range(n))
              and all(le(rho[x], rho[y]) or le(rho[y], rho[x]) for x in range(n) for y in range(n))
              and all(rho[join[x][y]] == join[rho[x]][rho[y]] for x in range(n) for y in range(n)))
    holds = None
    if axioms:
        holds = all(
            bool(le(s, rho[r])) == (_max_split(ids_list[r], ids_list[s]) <= bound)
            for r in range(n) for s in range(n) if le(r, s)
        )

    def check(rep):
        got = rep["rank_axioms_valid"], rep["result"] and rep["result"]["holds"]
        return None if got == (axioms, holds) else f"(axioms, holds) = {got}, expected {(axioms, holds)}"
    return check


def _alg_json(size, ops) -> dict:
    return {"size": size, "ops": [{"arity": a, "table": list(t)} for a, t in ops]}


def _cg_check(want):
    def check(rep):
        got = {ref.canonical(_ids_of_classes(c)) for c in rep["congruences"]}
        if rep["congruence_count"] != len(want) or got != want:
            return f"{rep['congruence_count']} congruences, expected {len(want)}"
        return None
    return check


def _ids_of_classes(data) -> list[int]:
    ids = [0] * data["ground"]
    for k, cls in enumerate(data["classes"]):
        for p in cls:
            ids[p] = k
    return ids


def _alg_check_check(size, ops, theta):
    want = ref.compatible(size, ops, theta)

    def check(rep):
        if rep["is_congruence"] != want:
            return f"is_congruence={rep['is_congruence']}, expected {want}"
        w = rep["witness"]
        if w is not None:
            table = ops[w["op"]][1]
            a, b = w["args"], w["args_substituted"]
            related = all(theta[x] == theta[y] for x, y in zip(a, b))
            if not related or theta[ref.apply_op(size, table, a)] == theta[ref.apply_op(size, table, b)]:
                return f"witness {w} is not a violation"
        return None
    return check


def _search_check(up, found):
    def check(rep):
        if rep["found"] != found:
            return f"found={rep['found']}, expected {found}"
        if found:
            A = SimpleNamespace(size=rep["algebra"]["size"], operations=[
                SimpleNamespace(arity=o["arity"], table=o["table"]) for o in rep["algebra"]["ops"]])
            return search_found_ok(up, A)
        return None
    return check


def _reasonable_check(up, E, want):
    def check(rep):
        if rep["reasonable"] != want:
            return f"reasonable={rep['reasonable']}, expected {want}"
        if want and not ref.order_witnesses(up, E, rep["witness_order"]):
            return f"order {rep['witness_order']} does not witness reasonableness"
        return None
    return check


def _orders_tried(size):
    def tally(rep):
        if rep["witness_order"]:
            return {"diversity.orders": ref.permutation_rank(rep["witness_order"]) + 1}
        return {"diversity.orders": 0 if rep["obstruction"] else factorial(size)}
    return tally


def _crt2_check(n, values, k):
    exists = ref.first_canonical_subset(n, values, k) is not None

    def check(rep):
        w = rep["witness"]
        if (w is not None) != exists:
            return f"witness {w}, but a canonical {k}-subset {'exists' if exists else 'does not exist'}"
        if w is not None:
            forms = ref.canonical_forms(n, values, w)
            if len(w) != k or not forms or set(rep["forms"]) != forms:
                return f"forms {rep['forms']} on {w}, expected {sorted(forms)}"
        return None
    return check


def _survey_check(total, admitting):
    def check(rep):
        got = (rep["total"], rep["admitting"], len(rep["failing"]))
        want = (total, admitting, total - admitting)
        return None if got == want else f"(total, admitting, failing) = {got}, expected {want}"
    return check


def _equivalenced_json(up, E) -> dict:
    data = _lattice_json(up)
    data["E"] = [[a, b] for a in range(len(E)) for b in range(a + 1, len(E)) if E[a] == E[b]]
    return data


def cli_batch(ctx: Ctx) -> list[Job]:
    rng, exp, data = ctx.rng, ctx.expected, ctx.data
    ctx.workdir.mkdir(parents=True, exist_ok=True)
    corpus = {name: json.loads((data / f"{name}.json").read_text())
              for name in ("b2", "h", "m3", "n5", "chain3", "m3_base_rep", "pairs_b2_4",
                           "chain2_rep4", "chain2_rep5", "z4", "klein", "free3", "n5_bc",
                           "b2_atoms", "sum5_fn")}
    path = lambda name: str(data / f"{name}.json")
    corpus_lattices = {"b2": ("boolean(2)", True), "h": ("hexagon", False), "m3": ("m(3)", False),
                       "n5": ("pentagon", False), "chain3": ("chain(3)", True)}
    jobs = []
    for name, (rank_key, dist) in corpus_lattices.items():
        up = _order_of_json(corpus[name])
        jobs.append(_cli_job(ctx, f"analyze:{name}", ["analyze", path(name)], _analyze_check(up, dist)))
        jobs.append(_cli_job(ctx, f"ranks:{name}", ["ranks", path(name), "--blass", "--gaifman"],
                             _ranks_check(up, exp["ranks"][rank_key])))
    # fixed kinds, seeded labels: each kind costs about the same under any seed
    composites = {name: (up, dist) for name, up, dist in COMPOSITES}
    for i, name in enumerate(("m3xc2", "c2xc4") if ctx.tiny else ("m3xc4", "1+c3xc5", "dbl(n5,a)")):
        up0, dist = composites[name]
        up, pairs = _seeded_lattice(rng, up0, linear=True)
        f = _write(ctx, f"lat{i}.json", _lattice_json(up, pairs))
        jobs.append(_cli_job(ctx, f"analyze:{name}", ["analyze", f], _analyze_check(up, dist)))
        jobs.append(_cli_job(ctx, f"export-dot:{name}", ["export-dot", f], _dot_check(up)))
    for i, name in enumerate(("c2xc4", "1+1+1+m3")):
        up, pairs = _seeded_lattice(rng, composites[name][0])
        f = _write(ctx, f"ranklat{i}.json", _lattice_json(up, pairs))
        jobs.append(_cli_job(ctx, f"ranks:{name}", ["ranks", f, "--blass", "--gaifman"],
                             _ranks_check(up, exp["ranks"][name])))
    for name in ("b2", "n5"):
        jobs.append(_cli_job(ctx, f"export-dot:{name}", ["export-dot", path(name)],
                             _dot_check(_order_of_json(corpus[name]))))

    perm = _perm(rng, 9)
    seeded_reps = {
        "m3^2": (M3, [ref.permute_ids(ids, perm) for ids in m3_power_ids(2)]),
        "chain3": (C(3), chain3_ids(5, _random_partition(rng, 5, 3, 3))),
    }
    rep_files = {name: (path(name), *_rep_ids(corpus[name]))
                 for name in ("m3_base_rep", "pairs_b2_4", "chain2_rep4", "chain2_rep5")}
    for name, (lat_up, ids_list) in seeded_reps.items():
        rep_files[name] = (_write(ctx, f"rep_{name}.json", _rep_json(lat_up, ids_list)), lat_up, ids_list)
    for name, (f, lat_up, ids_list) in rep_files.items():
        jobs.append(_cli_job(ctx, f"rep-verify:{name}", ["rep", "verify", f], _rep_verify_check(lat_up, ids_list)))
    for name in ("m3_base_rep", "pairs_b2_4", "chain2_rep4", "chain2_rep5", "chain3"):
        f, _, ids_list = rep_files[name]
        answers = (exp["ncpp_named"][name] if name != "chain3"
                   else exp["ncpp_chain3"][_shape_key(ids_list[1])])
        for d in (1,) if ctx.tiny else (1, 2):
            want = answers[d - 1]
            jobs.append(_cli_job(ctx, f"rep-cpp:{name}:d{d}", ["rep", "cpp", f, "--depth", str(d)],
                                 lambda rep, want=want: None if rep["holds"] == want else f"holds={rep['holds']}"))
    f, lat_up, ids_list = rep_files["pairs_b2_4"]
    for rho in ("3,3,3,3", "1,1,3,3", "2,3,2,3", "0,1,2,3"):
        bound = rng.randint(1, 6)
        jobs.append(_cli_job(ctx, f"rep-ranked:{rho}", ["rep", "ranked", f, "--rho", rho, "--bound", str(bound)],
                             _rep_ranked_check(lat_up, ids_list, [int(v) for v in rho.split(",")], bound)))
    for name, files in (("m3_base_rep", ["m3_base_rep"]), ("chain2_rep4+5", ["chain2_rep4", "chain2_rep5"])):
        members = [rep_files[m][2] for m in files]
        closure = exp["family"][name]
        not_0cpp = [i for i, ids_list in enumerate(members) if not _zero_cpp(ids_list)]
        want = (closure, not_0cpp, closure and not not_0cpp)
        jobs.append(_cli_job(ctx, f"rep-family:{name}", ["rep", "family-closure", *[path(m) for m in files]],
                             lambda rep, want=want: None if (rep["closure_holds"], rep["not_0cpp_members"],
                                                             rep["correct"]) == want else "family report wrong"))

    # Z4 has one congruence per divisor; the Klein group (XOR on 2-bit codes)
    # one per subgroup, the coset partitions; free3 (no operations) all Bell(3)
    ops_of = lambda name: [(op["arity"], op["table"]) for op in corpus[name]["ops"]]
    alg_files = {
        "z4": (path("z4"), 4, ops_of("z4"), {residue_ids(4, d) for d in divisors(4)}),
        "klein": (path("klein"), 4, ops_of("klein"),
                  {(0, 0, 0, 0), (0, 1, 2, 3), (0, 0, 1, 1), (0, 1, 0, 1), (0, 1, 1, 0)}),
        "free3": (path("free3"), 3, [], set(ref.rgs(3))),
    }
    for entry in [e for e in exp["congruence_pool"] if e["name"] in ("unary5.1", "binary7.9")]:
        size, ops, want = _relabeled_pool_entry(rng, entry)
        alg_files[entry["name"]] = (_write(ctx, f"alg_{entry['name']}.json", _alg_json(size, ops)), size, ops, want)
    for name, (f, size, ops, want) in alg_files.items():
        jobs.append(_cli_job(ctx, f"alg-cg:{name}", ["alg", "cg", f], _cg_check(want)))
    for name in ("z4", "klein"):
        f, size, ops, _ = alg_files[name]
        for theta in [(0, 1, 0, 1)] + [ref.canonical([rng.randrange(3) for _ in range(4)]) for _ in range(2)]:
            jobs.append(_cli_job(ctx, f"alg-check:{name}:{theta}",
                                 ["alg", "check", f, "--theta", ",".join(map(str, theta))],
                                 _alg_check_check(size, ops, theta)))
    for name, key in (("chain3", "chain(3)"), ("b2", "boolean(2)"), ("m3", "m(3)")):
        up = _order_of_json(corpus[name])
        jobs.append(_cli_job(ctx, f"alg-search:{name}", ["alg", "search", path(name)],
                             _search_check(up, exp["search"][key]),
                             tally=lambda rep: {"congruence.candidates": rep["candidates_tried"]}))

    for name in ("n5_bc", "b2_atoms"):
        up = _order_of_json(corpus[name])
        E = ref.canonical(_e_ids(corpus[name]))
        jobs.append(_cli_job(ctx, f"reasonable:{name}", ["reasonable", path(name)],
                             _reasonable_check(up, E, exp["reasonable"][name]),
                             tally=_orders_tried(len(up))))
    b3 = ref.boolean_order(3)
    if not ctx.tiny:
        # equivalences that pass the fast path but fail the full 8! order
        # scan (8 elements is the default max_order_elements), moved by a
        # seeded automorphism of boolean(3), a permutation of its atoms
        failing = [e["E"] for e in exp["reasonable_b3"] if not e["reasonable"]][:2]
        for i, E0 in enumerate(failing):
            atoms = _perm(rng, 3)
            image = [sum(1 << atoms[b] for b in range(3) if m >> b & 1) for m in range(8)]
            E = ref.permute_ids(E0, image)
            f = _write(ctx, f"eqlat{i}.json", _equivalenced_json(b3, E))
            jobs.append(_cli_job(ctx, f"reasonable:b3:{i}", ["reasonable", f],
                                 _reasonable_check(b3, E, False), True, tally=_orders_tried(8)))
    E = ref.canonical([0, 1, 2, 3, 4, 5, 6, 1])  # relates an atom to the top: fast-path refusal
    f = _write(ctx, "eqlat_fast.json", _equivalenced_json(b3, E))
    jobs.append(_cli_job(ctx, "reasonable:b3:fast", ["reasonable", f], _reasonable_check(b3, E, False),
                         tally=_orders_tried(8)))

    sum5 = corpus["sum5_fn"]
    fns = [("sum5_fn", path("sum5_fn"), sum5["n"], sum5["values"], 3)]
    for n, k in ((8, 3), (11, 4), (14, 4)):
        values = [rng.randrange(2) for _ in range(n * (n - 1) // 2)]
        fns.append((f"fn{n}", _write(ctx, f"fn{n}.json", {"n": n, "values": values}), n, values, k))
    for name, f, n, values, k in fns:
        jobs.append(_cli_job(ctx, f"crt2-fn:{name}:k{k}", ["crt2", "--fn", f, "--k", str(k)],
                             _crt2_check(n, values, k)))
    if not ctx.tiny:
        # Bell(10) = 115,975 kernels, near the default max_survey_kernels
        jobs.append(_cli_job(ctx, "crt2-survey:n5k3", ["crt2", "--survey", "--n", "5", "--k", "3"],
                             _survey_check(ref.bell(10), exp["survey_5_3_admitting"]), edge=True,
                             tally=lambda rep: {"ramsey.kernels": rep["total"]}))
    for name in ("bad_poset", "not_lattice"):
        jobs.append(_cli_job(ctx, f"error:{name}", ["analyze", path(name)], None, code=2))
    return jobs


def _e_ids(data) -> list[int]:
    n = data["size"]
    label = list(range(n))
    for a, b in data["E"]:
        old, new = label[b], label[a]
        label = [new if v == old else v for v in label]
    return label


PARTS = {
    "lattice-classify": lattice_classify,
    "cpp-decide": cpp_decide,
    "congruence-closure": congruence_closure,
    "cli-batch": cli_batch,
}
# each workload's parts: lattice-congruence calls nothing in reps, and
# cpp-cli reaches lattice and congruence only through some CLI commands
WORKLOADS = {
    "lattice-congruence": ("lattice-classify", "congruence-closure"),
    "cpp-cli": ("cpp-decide", "cli-batch"),
}


def build(workload: str, ctx: Ctx) -> list[Job]:
    jobs = []
    for part in WORKLOADS[workload]:
        for job in PARTS[part](ctx):
            job.part = part
            jobs.append(job)
    return jobs
