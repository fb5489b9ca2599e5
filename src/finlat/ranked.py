"""Rank functions on finite lattices.

A rank is a map rho: L -> L with
  (1) x <= rho(x),
  (2) rho(rho(x)) = rho(x),
  (3) rho(x) and rho(y) comparable for all x, y,
  (4) rho(x v y) = rho(x) v rho(y).
Its image, the rankset, is then a chain containing the top.  Two further
conditions cut down the ranks that matter here: the Blass Condition
(rho(x) = rho(y) implies rho(x) = rho(x ^ y); in a finite lattice every
element is compact, so it is checked for all pairs) and the Gaifman
Condition (no x < y < x v z with z = rho(z) and x ^ z = y ^ z).

Checkers return verdicts with witnesses rather than bare booleans so that
reports can print explicit counterexamples.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import InvalidParameter, SizeLimit
from .lattice import FiniteLattice, lattice_isomorphism, pentagon

MAX_RANK_ELEMENTS = 8
MAX_RANK_CANDIDATES = 2_000_000

RANK_FLAG_EXTERNAL_N5_EXCLUSION = (
    "excluded by external theorem (Kossak-Schmerl 4.6.1), not by Blass/Gaifman"
)


@dataclass(frozen=True)
class RankedLattice:
    """A lattice with a validated rank map; rho[i] is the rank of element i."""

    lattice: FiniteLattice
    rho: tuple[int, ...]

    @property
    def rankset(self) -> tuple[int, ...]:
        """Image of rho, sorted bottom-up along the chain it forms."""
        image = set(self.rho)
        return tuple(sorted(image, key=lambda x: sum(self.lattice.le(y, x) for y in image)))


@dataclass(frozen=True)
class RankAxiomReport:
    valid: bool
    violations: tuple[tuple[int, tuple[int, ...]], ...]  # (axiom id, witness elements)


def verify_rank_axioms(L: FiniteLattice, rho: Sequence[int]) -> RankAxiomReport:
    """Check axioms (1)-(4); lists every violated instance with its witnesses."""
    if len(rho) != L.size or any(not 0 <= v < L.size for v in rho):
        raise InvalidParameter("rho must be a total map on the lattice's elements")
    bad: list[tuple[int, tuple[int, ...]]] = []
    for x in range(L.size):
        if not L.le(x, rho[x]):
            bad.append((1, (x,)))
        if rho[rho[x]] != rho[x]:
            bad.append((2, (x,)))
    for x in range(L.size):
        for y in range(x + 1, L.size):
            if not L.le(rho[x], rho[y]) and not L.le(rho[y], rho[x]):
                bad.append((3, (x, y)))
    for x in range(L.size):
        for y in range(L.size):
            if rho[L.join(x, y)] != L.join(rho[x], rho[y]):
                bad.append((4, (x, y)))
    return RankAxiomReport(not bad, tuple(bad))


def ranked_lattice(L: FiniteLattice, rho: Sequence[int]) -> RankedLattice:
    """Validating constructor; raises InvalidParameter on any axiom violation."""
    report = verify_rank_axioms(L, rho)
    if not report.valid:
        axiom, witness = report.violations[0]
        raise InvalidParameter(f"rank axiom ({axiom}) fails at {witness}")
    return RankedLattice(L, tuple(rho))


@dataclass(frozen=True)
class ConditionVerdict:
    holds: bool
    witness: Optional[tuple[int, ...]]


def check_blass(R: RankedLattice) -> ConditionVerdict:
    """Blass Condition over all pairs; witness is the first failing (x, y)."""
    L, rho = R.lattice, R.rho
    for x in range(L.size):
        for y in range(x + 1, L.size):
            if rho[x] == rho[y] and rho[L.meet(x, y)] != rho[x]:
                return ConditionVerdict(False, (x, y))
    return ConditionVerdict(True, None)


def check_gaifman(R: RankedLattice) -> ConditionVerdict:
    """Gaifman Condition; witness is the first failing (x, y, z)."""
    L, rho = R.lattice, R.rho
    fixed = [z for z in range(L.size) if rho[z] == z]
    for x in range(L.size):
        for y in range(L.size):
            if x == y or not L.le(x, y):
                continue
            for z in fixed:
                if (
                    y != L.join(x, z)
                    and L.le(y, L.join(x, z))
                    and L.meet(x, z) == L.meet(y, z)
                ):
                    return ConditionVerdict(False, (x, y, z))
    return ConditionVerdict(True, None)


_KNOWN_CHECKS = frozenset({"axioms", "blass", "gaifman"})


def enumerate_ranks(
    L: FiniteLattice,
    require: frozenset[str] | set[str] = frozenset({"axioms"}),
    max_elements: int = MAX_RANK_ELEMENTS,
    max_candidates: int = MAX_RANK_CANDIDATES,
) -> list[RankedLattice]:
    """All rank maps passing the requested checks, in lexicographic rho order.

    Enumeration runs over raw maps L -> L, pruned early by axiom (1)
    (each rho(x) ranges over the filter of x) and by partial comparability
    and join-law checks, monotonicity included; the axioms are always
    required.  The candidate space is the product of filter sizes, guarded
    by max_candidates.
    """
    unknown = set(require) - _KNOWN_CHECKS
    if unknown:
        raise InvalidParameter(f"unknown checks requested: {sorted(unknown)}")
    if L.size > max_elements:
        raise SizeLimit("rank enumeration lattice size", L.size, max_elements)
    ups = [[v for v in range(L.size) if L.le(x, v)] for x in range(L.size)]
    space = 1
    for u in ups:
        space *= len(u)
    if space > max_candidates:
        raise SizeLimit("rank enumeration candidates", space, max_candidates)

    out: list[RankedLattice] = []
    rho: list[int] = []

    def feasible(x: int, v: int) -> bool:
        for y in range(x):
            w = rho[y]
            if not L.le(v, w) and not L.le(w, v):
                return False  # axiom (3)
            j = L.join(x, y)
            if j < x and rho[j] != L.join(v, w):
                return False  # axiom (4), both sides already chosen
            if j == x and L.join(v, w) != v:
                return False  # axiom (4) with y <= x: rho is monotone
        return True

    def descend(x: int) -> None:
        if x == L.size:
            candidate = tuple(rho)
            if not verify_rank_axioms(L, candidate).valid:
                return
            R = RankedLattice(L, candidate)
            if "blass" in require and not check_blass(R).holds:
                return
            if "gaifman" in require and not check_gaifman(R).holds:
                return
            out.append(R)
            return
        for v in ups[x]:
            if feasible(x, v):
                rho.append(v)
                descend(x + 1)
                rho.pop()

    descend(0)
    return out


def rank_report(L: FiniteLattice, ranks: Sequence[RankedLattice]) -> list[dict]:
    """JSON-ready rows: rho, rankset, Blass/Gaifman verdicts, and flags.

    When the lattice is a pentagon, the rank sending the bottom to the
    pentagon's b element passes the axioms and both conditions here but is
    known to be impossible in the structures these ranks classify, by a
    theorem outside this library's scope; such rows are flagged rather than
    suppressed.
    """
    pentagon_map = lattice_isomorphism(pentagon(), L)
    rows = []
    for R in ranks:
        flags = []
        if pentagon_map is not None:
            b_elem = pentagon_map[2]
            if R.rho[L.bottom] == b_elem:
                flags.append(RANK_FLAG_EXTERNAL_N5_EXCLUSION)
        rows.append(
            {
                "rho": list(R.rho),
                "rankset": list(R.rankset),
                "blass": check_blass(R).holds,
                "gaifman": check_gaifman(R).holds,
                "flags": flags,
            }
        )
    return rows
