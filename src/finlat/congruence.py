"""Finite algebras and their congruence lattices.

An algebra is a finite carrier with finitary operation tables.  A
congruence is an equivalence relation compatible with every operation; the
congruences form a sublattice of Eq(A) computed here as the join-closure of
the principal congruences.  The tiny-scale search asks, for a given
lattice, whether some small algebra has an isomorphic congruence lattice;
absence within the search budget proves nothing and is reported as such.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Optional, Sequence

from .eqrel import (
    EquivalenceRelation,
    _UnionFind,
    all_partitions,
    discrete_eq,
    join_eq,
    refinement_lattice,
)
from .errors import FinlatError, GroundMismatch, InvalidParameter, SizeLimit
from .lattice import FiniteLattice, dual, lattice_isomorphism

MAX_CG_CARRIER = 10
MAX_SEARCH_CARRIER = 4
MAX_SEARCH_CANDIDATES = 1_000_000


@dataclass(frozen=True)
class Operation:
    """A finitary operation given by its flat result table.

    The table is row-major over argument tuples: the entry for (a_0..a_{k-1})
    sits at sum a_i * size^(k-1-i).
    """

    arity: int
    table: tuple[int, ...]


@dataclass(frozen=True)
class FiniteAlgebra:
    size: int
    operations: tuple[Operation, ...]

    def __post_init__(self):
        if self.size < 1:
            raise InvalidParameter("carrier must be nonempty")
        for op in self.operations:
            if op.arity < 0:
                raise InvalidParameter("arity must be nonnegative")
            if len(op.table) != self.size**op.arity:
                raise InvalidParameter(
                    f"table length {len(op.table)} != {self.size}^{op.arity}"
                )
            for v in op.table:
                if not 0 <= v < self.size:
                    raise InvalidParameter(f"table entry {v} outside the carrier")

    def apply(self, op_index: int, args: Sequence[int]) -> int:
        op = self.operations[op_index]
        idx = 0
        for a in args:
            idx = idx * self.size + a
        return op.table[idx]


def algebra(size: int, operations: Sequence[tuple[int, Sequence[int]]]) -> FiniteAlgebra:
    """Build and validate an algebra from (arity, table) pairs."""
    return FiniteAlgebra(size, tuple(Operation(a, tuple(t)) for a, t in operations))


def cyclic_group_algebra(n: int) -> FiniteAlgebra:
    """(Z_n, +) as a single binary operation."""
    table = tuple((a + b) % n for a in range(n) for b in range(n))
    return algebra(n, [(2, table)])


def klein_group_algebra() -> FiniteAlgebra:
    """(Z_2 x Z_2, +) on carrier {0..3}, elements encoded as bit pairs."""
    table = tuple(a ^ b for a in range(4) for b in range(4))
    return algebra(4, [(2, table)])


@dataclass(frozen=True)
class CongruenceVerdict:
    holds: bool
    witness: Optional[tuple[int, tuple[int, ...], tuple[int, ...]]]  # (op, args, args')


def is_congruence(theta: EquivalenceRelation, A: FiniteAlgebra) -> CongruenceVerdict:
    """Compatibility with every operation.

    Checked via single-coordinate substitutions, which suffices by
    transitivity; the witness substitutes one related argument.
    """
    if theta.ground_size != A.size:
        raise GroundMismatch("theta must live on the algebra's carrier")
    ids = theta.class_id
    for op_index, op in enumerate(A.operations):
        if op.arity == 0:
            continue
        for args in product(range(A.size), repeat=op.arity):
            base = A.apply(op_index, args)
            for pos in range(op.arity):
                for b in range(A.size):
                    if ids[b] != ids[args[pos]] or b == args[pos]:
                        continue
                    other = args[:pos] + (b,) + args[pos + 1 :]
                    if ids[A.apply(op_index, other)] != ids[base]:
                        return CongruenceVerdict(False, (op_index, args, other))
    return CongruenceVerdict(True, None)


def principal_congruence(A: FiniteAlgebra, a: int, b: int) -> EquivalenceRelation:
    """Least congruence relating a and b, by closure under the operations."""
    if not (0 <= a < A.size and 0 <= b < A.size):
        raise InvalidParameter("elements must lie in the carrier")
    sets = _UnionFind(A.size)
    queue = []
    if sets.union(a, b):
        queue.append((a, b))
    while queue:
        u, v = queue.pop()
        for op_index, op in enumerate(A.operations):
            if op.arity == 0:
                continue
            for args in product(range(A.size), repeat=op.arity):
                for pos in range(op.arity):
                    if args[pos] != u:
                        continue
                    other = args[:pos] + (v,) + args[pos + 1 :]
                    x, y = A.apply(op_index, args), A.apply(op_index, other)
                    if sets.union(x, y):
                        queue.append((x, y))
    return sets.relation()


def _join_congruence(A: FiniteAlgebra, t1: EquivalenceRelation, t2: EquivalenceRelation) -> EquivalenceRelation:
    joined = join_eq(t1, t2)
    # the congruences form a sublattice of Eq(A), so the plain join must
    # already be compatible; a failure here would be a bug
    if not is_congruence(joined, A).holds:
        raise FinlatError(f"join of congruences {t1.class_id} and {t2.class_id} is not a congruence")
    return joined


def all_congruences(A: FiniteAlgebra, max_carrier: int = MAX_CG_CARRIER) -> tuple[EquivalenceRelation, ...]:
    """Every congruence, as the join-closure of the principal ones plus equality.

    Sound and complete: every congruence is the join of the principal
    congruences it contains.  Deterministic order: finer first, then by
    class-id vector.
    """
    if A.size > max_carrier:
        raise SizeLimit("congruence carrier", A.size, max_carrier)
    found = {discrete_eq(A.size)}
    for a in range(A.size):
        for b in range(a + 1, A.size):
            found.add(principal_congruence(A, a, b))
    frontier = list(found)
    while frontier:
        nxt = []
        for t1 in frontier:
            for t2 in list(found):
                j = _join_congruence(A, t1, t2)
                if j not in found:
                    found.add(j)
                    nxt.append(j)
        frontier = nxt
    return tuple(sorted(found, key=lambda t: (-t.num_classes, t.class_id)))


@dataclass(frozen=True)
class CongruenceLattice:
    lattice: FiniteLattice
    congruences: tuple[EquivalenceRelation, ...]


def congruence_lattice(A: FiniteAlgebra, max_carrier: int = MAX_CG_CARRIER) -> CongruenceLattice:
    """Cg(A) ordered by inclusion; element i is congruences[i], labeled by its classes."""
    congs = all_congruences(A, max_carrier=max_carrier)
    return CongruenceLattice(refinement_lattice(congs), congs)


@dataclass(frozen=True)
class CongRepVerdict:
    holds: bool
    isomorphism: Optional[tuple[int, ...]]  # L element i -> dual(Cg) element


def is_congruence_representation(
    L: FiniteLattice, A: FiniteAlgebra, max_carrier: int = MAX_CG_CARRIER
) -> CongRepVerdict:
    """True iff L is isomorphic to the dual of Cg(A)."""
    cg = congruence_lattice(A, max_carrier=max_carrier)
    iso = lattice_isomorphism(L, dual(cg.lattice))
    return CongRepVerdict(iso is not None, iso)


@dataclass(frozen=True)
class SearchResult:
    algebra: Optional[FiniteAlgebra]
    exhausted_budget: bool
    candidates_tried: int
    note: str


def _compatible_mask(parts: Sequence[EquivalenceRelation], A: FiniteAlgebra) -> int:
    mask = 0
    for i, t in enumerate(parts):
        if is_congruence(t, A).holds:
            mask |= 1 << i
    return mask


def search_algebra(
    L: FiniteLattice,
    max_carrier: int = MAX_SEARCH_CARRIER,
    max_unary_ops: int = 3,
    max_binary_ops: int = 0,
    max_candidates: int = MAX_SEARCH_CANDIDATES,
    match_dual: bool = False,
) -> SearchResult:
    """First small algebra whose congruence lattice is isomorphic to L.

    Deterministic order: carrier ascending, then depth-first over
    non-decreasing operation-index tuples in lexicographic order with
    prefixes first (unary tables precede binary ones in the pool).  The
    congruence set of an operation multiset is the intersection of
    per-operation compatible-partition sets, which only shrinks as
    operations are added, so branches whose set is already too small are
    pruned.  Exceeding max_candidates stops the search with
    exhausted_budget set; absence within the budget proves nothing.
    """
    target = dual(L) if match_dual else L
    tried = 0

    for carrier in range(1, max_carrier + 1):
        parts = list(all_partitions(carrier))
        if len(parts) < L.size:
            continue
        pool: list[tuple[int, tuple[int, ...]]] = []  # (arity, table), unary first
        if max_unary_ops > 0:
            for table in product(range(carrier), repeat=carrier):
                pool.append((1, table))
        if max_binary_ops > 0:
            for table in product(range(carrier), repeat=carrier * carrier):
                pool.append((2, table))
        masks = [
            _compatible_mask(parts, FiniteAlgebra(carrier, (Operation(a, t),)))
            for a, t in pool
        ]
        full_mask = (1 << len(parts)) - 1
        seen_masks: dict[int, bool] = {}

        def lattice_matches(mask: int) -> bool:
            if mask in seen_masks:
                return seen_masks[mask]
            congs = [parts[i] for i in range(len(parts)) if mask >> i & 1]
            ok = False
            if len(congs) == target.size:
                lat = refinement_lattice(congs)
                ok = lattice_isomorphism(target, lat) is not None
            seen_masks[mask] = ok
            return ok

        def op_budget_ok(ops: list[int]) -> bool:
            unary = sum(1 for i in ops if pool[i][0] == 1)
            binary = len(ops) - unary
            return unary <= max_unary_ops and binary <= max_binary_ops

        max_ops = max_unary_ops + max_binary_ops

        # depth-first over non-decreasing op-index tuples, prefixes first
        def extend(ops: list[int], mask: int, size: int) -> Optional[FiniteAlgebra]:
            nonlocal tried
            if tried >= max_candidates:
                return None
            tried += 1
            if op_budget_ok(ops) and lattice_matches(mask):
                return FiniteAlgebra(
                    carrier, tuple(Operation(*pool[i]) for i in ops)
                )
            if size == max_ops:
                return None
            start = ops[-1] if ops else 0
            for i in range(start, len(pool)):
                new_mask = mask & masks[i]
                if bin(new_mask).count("1") < L.size:
                    continue
                if not op_budget_ok(ops + [i]):
                    continue
                found = extend(ops + [i], new_mask, size + 1)
                if found is not None or tried >= max_candidates:
                    return found
            return None

        found = extend([], full_mask, 0)
        if found is not None:
            return SearchResult(found, False, tried, "found within budget")
        if tried >= max_candidates:
            return SearchResult(
                None, True, tried,
                "budget exhausted; absence within the budget is not a proof",
            )
    return SearchResult(
        None, False, tried,
        "search space exhausted up to the carrier bound; absence here is not a proof "
        "for larger carriers",
    )


# ---------------------------------------------------------------------------
# serialization


def algebra_to_json(A: FiniteAlgebra) -> dict:
    return {
        "size": A.size,
        "ops": [{"arity": op.arity, "table": list(op.table)} for op in A.operations],
    }


def algebra_from_json(data: dict) -> FiniteAlgebra:
    if not isinstance(data, dict) or "size" not in data or "ops" not in data:
        raise InvalidParameter("algebra JSON needs 'size' and 'ops'")
    ops = [(int(op["arity"]), [int(v) for v in op["table"]]) for op in data["ops"]]
    return algebra(int(data["size"]), ops)
