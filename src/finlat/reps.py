"""Lattice representations into Eq(A) and canonical partition properties.

A pseudo-representation maps lattice elements to equivalence relations on a
shared ground set, sending the bottom to the trivial relation, the top to
the discrete relation, and joins to meets.  A representation is an injective
pseudo-representation.  The canonical partition property (CPP) hierarchy is
decided exhaustively at desk scale: 0-CPP means no image has exactly two
classes, and (n+1)-CPP means every partition of the ground set becomes
canonical on some subset whose restricted representation is an injective
n-CPP representation.

Ground points are indices 0..ground_size-1; structured points (ordered
pairs, sequences) are carried in an optional point_decode annotation that
plays no role in equality.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import cache
from itertools import combinations, product
from operator import itemgetter
from typing import Callable, Iterable, Optional, Sequence

from . import eqrel
from .eqrel import (
    EquivalenceRelation,
    _canonical_ids,
    discrete_eq,
    eq_stats,
    kernel_of,
    meet_eq,
    restrict_eq,
    restricted_growth_strings,
    trivial_eq,
)
from .errors import EmptySubset, GroundMismatch, InvalidParameter, SizeLimit
from .lattice import MAX_ELEMENTS, DegenerateParameterWarning, FiniteLattice, boolean_lattice, m_lattice
from .lattice import lattice_from_json, lattice_to_json

MAX_CPP_GROUND = 7
MAX_ISO_GROUND = 10
MAX_POWER_GROUND = 4096


@dataclass(frozen=True)
class Representation:
    """Per-lattice-element equivalence relations on a common ground set."""

    lattice: FiniteLattice
    ground_size: int
    alpha: tuple[EquivalenceRelation, ...]
    point_decode: Optional[tuple] = field(default=None, compare=False)

    def __post_init__(self):
        if len(self.alpha) != self.lattice.size:
            raise InvalidParameter("alpha must assign a relation to every lattice element")
        for rel in self.alpha:
            if rel.ground_size != self.ground_size:
                raise GroundMismatch("all images must share the ground set")
        if self.point_decode is not None and len(self.point_decode) != self.ground_size:
            raise InvalidParameter("point_decode length must equal ground_size")


@dataclass(frozen=True)
class ThresholdRankContext:
    """Finite stand-in for boundedness: 'bounded' means 'at most bound'."""

    bound: int

    def __post_init__(self):
        if self.bound < 1:
            raise InvalidParameter("bound must be at least 1")


@dataclass(frozen=True)
class PseudoRepReport:
    valid: bool
    violations: tuple[tuple[str, Optional[tuple[int, int]]], ...]


def verify_pseudo_rep(R: Representation) -> PseudoRepReport:
    """Check the boundary laws and the join-to-meet law on all pairs."""
    L = R.lattice
    bad: list[tuple[str, Optional[tuple[int, int]]]] = []
    if not R.alpha[L.bottom].is_trivial:
        bad.append(("bottom_not_trivial", None))
    if not R.alpha[L.top].is_discrete:
        bad.append(("top_not_discrete", None))
    for x in range(L.size):
        for y in range(x, L.size):
            if R.alpha[L.join(x, y)] != meet_eq(R.alpha[x], R.alpha[y]):
                bad.append(("join_law", (x, y)))
    return PseudoRepReport(not bad, tuple(bad))


@dataclass(frozen=True)
class InjectivityVerdict:
    injective: bool
    witness: Optional[tuple[int, int]]


def is_representation(R: Representation) -> InjectivityVerdict:
    """True iff distinct lattice elements map to distinct relations."""
    seen: dict[EquivalenceRelation, int] = {}
    for r, rel in enumerate(R.alpha):
        if rel in seen:
            return InjectivityVerdict(False, (seen[rel], r))
        seen[rel] = r
    return InjectivityVerdict(True, None)


def restrict_rep(R: Representation, subset: Iterable[int]) -> Representation:
    """Pointwise restriction onto a nonempty subset; always a pseudo-representation.

    Injectivity may be lost; recheck with is_representation on the result.
    """
    points = sorted(set(subset))
    if not points:
        raise EmptySubset("cannot restrict a representation to the empty subset")
    alpha = tuple(restrict_eq(rel, points) for rel in R.alpha)
    decode = None
    if R.point_decode is not None:
        decode = tuple(R.point_decode[p] for p in points)
    return Representation(R.lattice, len(points), alpha, decode)


def relabel_rep(R: Representation, perm: Sequence[int]) -> Representation:
    """Image of R under a ground permutation (old point i goes to perm[i])."""
    alpha = tuple(eqrel.permute_eq(rel, perm) for rel in R.alpha)
    decode = None
    if R.point_decode is not None:
        decode = [None] * R.ground_size
        for old, new in enumerate(perm):
            decode[new] = R.point_decode[old]
        decode = tuple(decode)
    return Representation(R.lattice, R.ground_size, alpha, decode)


def reps_isomorphic(
    R1: Representation, R2: Representation, max_ground: int = MAX_ISO_GROUND
) -> Optional[tuple[int, ...]]:
    """A ground bijection f with (x,y) in a1(r) iff (f x, f y) in a2(r) for all r.

    Exhaustive backtracking over ground points, pruned by per-element class
    sizes; the first bijection in increasing point order is returned, or
    None when the exhaustive search finds nothing.
    """
    if R1.lattice != R2.lattice:
        raise InvalidParameter("representations must share the lattice")
    if R1.ground_size != R2.ground_size:
        return None
    n = R1.ground_size
    if n > max_ground:
        raise SizeLimit("representation isomorphism ground", n, max_ground)
    for r in range(R1.lattice.size):
        if eq_stats(R1.alpha[r]).class_size_multiset != eq_stats(R2.alpha[r]).class_size_multiset:
            return None

    f: list[int] = []
    used = [False] * n

    def compatible(x: int, v: int) -> bool:
        for y, w in enumerate(f):
            for r in range(R1.lattice.size):
                if R1.alpha[r].relates(x, y) != R2.alpha[r].relates(v, w):
                    return False
        return True

    def extend(x: int) -> bool:
        if x == n:
            return True
        for v in range(n):
            if not used[v] and compatible(x, v):
                f.append(v)
                used[v] = True
                if extend(x + 1):
                    return True
                f.pop()
                used[v] = False
        return False

    return tuple(f) if extend(0) else None


def canonical_for(theta: EquivalenceRelation, R: Representation) -> Optional[int]:
    """The least lattice element whose image equals theta, or None."""
    if theta.ground_size != R.ground_size:
        raise GroundMismatch("theta must live on the representation's ground set")
    return next((r for r, rel in enumerate(R.alpha) if rel == theta), None)


@dataclass(frozen=True)
class ZeroCppVerdict:
    holds: bool
    witness: Optional[int]  # element whose image has exactly two classes


def is_0cpp(R: Representation) -> ZeroCppVerdict:
    """True iff no image has exactly two classes."""
    r = next((r for r, rel in enumerate(R.alpha) if rel.num_classes == 2), None)
    return ZeroCppVerdict(r is None, r)


@dataclass(frozen=True)
class CppChoice:
    """One certificate entry: the subset chosen for a partition of the ground set."""

    theta: EquivalenceRelation
    subset: tuple[int, ...]


@dataclass(frozen=True)
class CppVerdict:
    holds: bool
    depth: int
    witness_theta: Optional[EquivalenceRelation]  # failing partition, depth > 0
    witness_element: Optional[int]  # failing element, depth 0
    certificate: tuple[CppChoice, ...]


def _subset_table(alpha: tuple) -> list:
    """(subset, picker of its points, restricted images, their set) for every
    nonempty subset of the ground of alpha, largest first, then lexicographic."""
    n, table = len(alpha[0]), []
    for subset in (s for size in range(n, 0, -1) for s in combinations(range(n), size)):
        pick = itemgetter(*subset) if len(subset) > 1 else (lambda ids, p=subset[0]: (ids[p],))
        images = tuple(_canonical_ids(pick(ids)) for ids in alpha)
        table.append((subset, pick, images, frozenset(images)))
    return table


def _canonical_scan(table: list, good: Callable[[tuple, tuple], bool]):
    """Pair each partition theta (class ids, restricted_growth_strings order)
    with the first subset whose images hold theta restricted to it and whose
    good(subset, images) holds, or None; good runs at most once per subset."""
    verdicts: list[Optional[bool]] = [None] * len(table)
    for theta in restricted_growth_strings(len(table[0][0])):
        found = None
        for k, (subset, pick, images, image_set) in enumerate(table):
            if _canonical_ids(pick(theta)) in image_set:
                if verdicts[k] is None:
                    verdicts[k] = good(subset, images)
                if verdicts[k]:
                    found = subset
                    break
        yield theta, found


def is_ncpp(R: Representation, depth: int, max_ground: int = MAX_CPP_GROUND) -> CppVerdict:
    """Decide the canonical partition property at the given depth, exhaustively.

    Depth 0 delegates to is_0cpp.  At depth n+1, for every partition of the
    ground set a subset is sought (largest first, then lexicographic, the
    first witness winning) whose restricted representation is injective and
    n-CPP and on which the partition is canonical.  True verdicts carry the
    chosen subset per partition; false verdicts carry a failing partition.
    Grounds beyond the budget raise SizeLimit rather than approximating.
    """
    if depth < 0:
        raise InvalidParameter("depth must be nonnegative")
    if depth == 0:
        zero = is_0cpp(R)
        return CppVerdict(zero.holds, 0, None, zero.witness, ())
    if R.ground_size > max_ground:
        raise SizeLimit("cpp ground", R.ground_size, max_ground)
    table = cache(_subset_table)  # for this call only, like levels
    levels: dict[tuple, list[bool]] = {}

    def scan(alpha: tuple, d: int):
        return _canonical_scan(table(alpha), lambda _, images: len(set(images)) == len(images)
                               and holds(images, d - 1))

    def holds(alpha: tuple, d: int) -> bool:
        # levels[alpha][d] is whether alpha is d-CPP, filled lowest depth
        # first so that the recursion descends only through smaller grounds
        known = levels.setdefault(alpha, [all(max(ids) != 1 for ids in alpha)])
        while len(known) <= d:
            known.append(all(subset is not None for _, subset in scan(alpha, len(known))))
        return known[d]

    choices: list[CppChoice] = []
    for ids, subset in scan(tuple(rel.class_id for rel in R.alpha), depth):
        theta = EquivalenceRelation(R.ground_size, ids)
        if subset is None:
            return CppVerdict(False, depth, theta, None, ())
        choices.append(CppChoice(theta, subset))
    return CppVerdict(True, depth, None, None, tuple(choices))


# ---------------------------------------------------------------------------
# concrete representations


def pairs_b2_rep(n: int) -> Representation:
    """The diamond represented on ordered pairs <x, y> with x < y < n.

    The two middle elements are sent to the kernels of the two coordinate
    projections; n = 2 yields a single point and is flagged degenerate.
    """
    if n < 2:
        raise InvalidParameter("pairs representation needs n >= 2")
    if n == 2:
        warnings.warn("pairs_b2_rep(2) has a one-point ground", DegenerateParameterWarning)
    points = [(x, y) for x in range(n) for y in range(x + 1, n)]
    lat = boolean_lattice(2)  # indices: 0 bottom, 1 and 2 the atoms, 3 top
    alpha = (
        trivial_eq(len(points)),
        kernel_of([x for x, _ in points]),
        kernel_of([y for _, y in points]),
        discrete_eq(len(points)),
    )
    return Representation(lat, len(points), alpha, tuple(points))


def m3_base_rep() -> Representation:
    """The 3-diamond represented on the ground set {0, 1, 2}.

    The middle elements a, b, c go to the partitions 0|12, 02|1, 01|2.
    """
    lat = m_lattice(3)
    alpha = (
        trivial_eq(3),
        eqrel.from_class_ids((0, 1, 1)),  # a: {0}, {1,2}
        eqrel.from_class_ids((0, 1, 0)),  # b: {0,2}, {1}
        eqrel.from_class_ids((0, 0, 1)),  # c: {0,1}, {2}
        discrete_eq(3),
    )
    return Representation(lat, 3, alpha, (0, 1, 2))


def power_rep(R: Representation, m: int, max_ground: int = MAX_POWER_GROUND) -> Representation:
    """Componentwise power on length-m sequences over R's ground set."""
    if m < 1:
        raise InvalidParameter("power needs m >= 1")
    size = R.ground_size**m
    if size > max_ground:
        raise SizeLimit("power ground", size, max_ground)
    seqs = list(product(range(R.ground_size), repeat=m))
    alpha = tuple(
        kernel_of([tuple(rel.class_id[c] for c in s) for s in seqs]) for rel in R.alpha
    )
    return Representation(R.lattice, size, alpha, tuple(seqs))


# ---------------------------------------------------------------------------
# ranked representations, finite-threshold form


def _max_split(coarse: EquivalenceRelation, fine: EquivalenceRelation) -> int:
    """Largest number of fine classes meeting a single coarse class."""
    counts: dict[int, set[int]] = {}
    for point in range(coarse.ground_size):
        counts.setdefault(coarse.class_id[point], set()).add(fine.class_id[point])
    return max(len(v) for v in counts.values())


@dataclass(frozen=True)
class RankedRepVerdict:
    holds: bool
    witness: Optional[tuple[int, int]]  # violating (r, s)
    reason: Optional[str]


def check_ranked_rep(
    R: Representation, rho: Sequence[int], ctx: ThresholdRankContext
) -> RankedRepVerdict:
    """Finite-threshold rank compatibility.

    For every r <= s the biconditional must hold: s <= rho(r) iff every
    image-of-r class is a union of at most ctx.bound image-of-s classes.
    The caller is expected to have validated (lattice, rho) as a rank.
    """
    L = R.lattice
    if len(rho) != L.size:
        raise InvalidParameter("rho must be total on the lattice")
    for r in range(L.size):
        for s in range(L.size):
            if not L.le(r, s):
                continue
            bounded = _max_split(R.alpha[r], R.alpha[s]) <= ctx.bound
            if L.le(s, rho[r]) and not bounded:
                return RankedRepVerdict(False, (r, s), "split exceeds bound")
            if not L.le(s, rho[r]) and bounded:
                return RankedRepVerdict(False, (r, s), "bound not required by rank")
    return RankedRepVerdict(True, None, None)


# ---------------------------------------------------------------------------
# family closure check

FAMILY_NOTE = (
    "on any ground with at least two points a two-class partition exists, so a "
    "finite family can satisfy the closure clause only through members that "
    "fail 0-CPP; the two clauses are jointly unsatisfiable at finite scale"
)


@dataclass(frozen=True)
class FamilyClosureReport:
    nonempty: bool
    all_0cpp: bool
    not_0cpp_members: tuple[int, ...]
    closure_holds: bool
    closure_failure: Optional[tuple[int, EquivalenceRelation]]  # (member index, theta)
    correct: bool
    note: str


def family_closure_check(
    family: Sequence[Representation], max_ground: int = MAX_CPP_GROUND
) -> FamilyClosureReport:
    """Check a finite family for the correctness closure property.

    Every member must be 0-CPP, and for every member and every partition of
    its ground set there must be a subset whose restriction is (up to ground
    relabeling) again a member, with the partition canonical on it.  Both
    clauses are reported separately; see FAMILY_NOTE for why they cannot
    both hold at finite scale.
    """
    if not family:
        return FamilyClosureReport(False, True, (), True, None, False, FAMILY_NOTE)
    lat = family[0].lattice
    for member in family:
        if member.lattice != lat:
            raise InvalidParameter("family members must share the lattice")
        if member.ground_size > max_ground:
            raise SizeLimit("family member ground", member.ground_size, max_ground)
    not_0cpp = tuple(i for i, member in enumerate(family) if not is_0cpp(member).holds)
    alphas = [tuple(rel.class_id for rel in member.alpha) for member in family]

    def in_family(subset: tuple[int, ...], images: tuple) -> bool:
        n = len(subset)
        rep = Representation(lat, n, tuple(EquivalenceRelation(n, ids) for ids in images))
        return any(alpha == images or reps_isomorphic(member, rep) is not None
                   for member, alpha in zip(family, alphas))

    failure = next((
        (i, EquivalenceRelation(len(theta), theta))
        for i, alpha in enumerate(alphas)
        for theta, subset in _canonical_scan(_subset_table(alpha), in_family) if subset is None
    ), None)
    closure = failure is None
    return FamilyClosureReport(
        True, not not_0cpp, not_0cpp, closure, failure, closure and not not_0cpp, FAMILY_NOTE
    )


# ---------------------------------------------------------------------------
# serialization


def rep_flags(R: Representation) -> list[str]:
    return ["degenerate-ground"] if R.ground_size <= 1 else []


def rep_to_json(R: Representation) -> dict:
    data: dict = {
        "lattice": lattice_to_json(R.lattice),
        "ground": R.ground_size,
        "alpha": {str(r): eqrel.eq_to_json(rel) for r, rel in enumerate(R.alpha)},
    }
    if R.point_decode is not None:
        data["decode"] = [list(p) if isinstance(p, tuple) else p for p in R.point_decode]
    return data


def rep_from_json(data: dict, max_size: int = MAX_ELEMENTS) -> Representation:
    if not isinstance(data, dict) or not {"lattice", "ground", "alpha"} <= data.keys():
        raise InvalidParameter("representation JSON needs 'lattice', 'ground' and 'alpha'")
    lat = lattice_from_json(data["lattice"], max_size=max_size)
    ground = int(data["ground"])
    alpha = []
    for r in range(lat.size):
        key = str(r)
        if key not in data["alpha"]:
            raise InvalidParameter(f"alpha missing element {key}")
        alpha.append(eqrel.eq_from_json(data["alpha"][key]))
    decode = data.get("decode")
    if decode is not None:
        decode = tuple(tuple(p) if isinstance(p, list) else p for p in decode)
    return Representation(lat, ground, tuple(alpha), decode)


def cpp_certificate_json(verdict: CppVerdict) -> dict:
    data: dict = {"holds": verdict.holds, "depth": verdict.depth}
    if verdict.witness_theta is not None:
        data["failing_theta"] = eqrel.eq_to_json(verdict.witness_theta)
    if verdict.witness_element is not None:
        data["failing_element"] = verdict.witness_element
    if verdict.certificate:
        data["certificate"] = [
            {"theta": eqrel.eq_to_json(c.theta), "subset": list(c.subset)}
            for c in verdict.certificate
        ]
    return data
