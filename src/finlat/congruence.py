"""Finite algebras and their congruence lattices.

An algebra is a finite carrier with finitary operation tables.  A
congruence is an equivalence relation compatible with every operation; the
congruences form a sublattice of Eq(A) computed here as the join-closure of
the principal congruences.  The tiny-scale search asks, for a given
lattice, whether some small algebra has an isomorphic congruence lattice;
absence within the search budget proves nothing and is reported as such.
"""
from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import product
from typing import Optional, Sequence

from .eqrel import (
    EquivalenceRelation,
    _UnionFind,
    all_partitions,
    bell_number,
    discrete_eq,
    join_eq,
    refinement_lattice,
)
from .errors import FinlatError, GroundMismatch, InvalidParameter, SizeLimit
from .lattice import MAX_ELEMENTS, FiniteLattice, dual, lattice_isomorphism

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
            # size**arity >= 2**arity exceeds the table length once the arity
            # passes its bit length; checked first, as the power is costly
            too_long = self.size >= 2 and op.arity > len(op.table).bit_length()
            if too_long or len(op.table) != self.size**op.arity:
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
    witness = _first_failure(A, theta.class_id, theta.classes())
    return CongruenceVerdict(witness is None, witness)


def _first_failure(
    A: FiniteAlgebra, ids: tuple[int, ...], members: tuple[tuple[int, ...], ...]
) -> Optional[tuple[int, tuple[int, ...], tuple[int, ...]]]:
    """is_congruence's witness for the relation with class ids `ids` and
    classes `members`, or None when it is a congruence."""
    n = A.size
    for op_index, op in enumerate(A.operations):
        table = op.table
        strides = [n ** (op.arity - 1 - pos) for pos in range(op.arity)]
        # argument tuples in lexicographic order are the table indices in
        # increasing order; substituting b for a at pos moves the index by
        # (b - a) * stride.  Only b > a is tried: a failure with b < a is
        # mirrored by one at the smaller index that holds b, so the first
        # failure in (args, pos, b) order always has b > a.
        for idx, value in enumerate(table):
            base = ids[value]
            for pos, stride in enumerate(strides):
                a = idx // stride % n
                for b in members[ids[a]]:
                    if b > a and ids[table[idx + (b - a) * stride]] != base:
                        args = tuple(idx // s % n for s in strides)
                        return op_index, args, args[:pos] + (b,) + args[pos + 1 :]
    return None


def _translation_rows(A: FiniteAlgebra) -> list[list[tuple[int, ...]]]:
    """One entry per operation and argument position: row u lists the
    results with u at that position, the other arguments running through
    their tuples in the same order for every u."""
    n = A.size
    out = []
    for op in A.operations:
        for pos in range(op.arity):
            stride = n ** (op.arity - 1 - pos)
            rows: list[list[int]] = [[] for _ in range(n)]
            for idx, value in enumerate(op.table):
                rows[idx // stride % n].append(value)
            out.append([tuple(r) for r in rows])
    return out


def _principal(rows: list[list[tuple[int, ...]]], n: int, a: int, b: int) -> EquivalenceRelation:
    # every pair that merges two classes is pushed through every
    # single-position substitution; those pairs generate the congruence
    sets = _UnionFind(n)
    queue = [(a, b)] if sets.union(a, b) else []
    while queue:
        u, v = queue.pop()
        for row in rows:
            for x, y in zip(row[u], row[v]):
                if sets.union(x, y):
                    queue.append((x, y))
    return sets.relation()


def principal_congruence(A: FiniteAlgebra, a: int, b: int) -> EquivalenceRelation:
    """Least congruence relating a and b, by closure under the operations."""
    if not (0 <= a < A.size and 0 <= b < A.size):
        raise InvalidParameter("elements must lie in the carrier")
    return _principal(_translation_rows(A), A.size, a, b)


def all_congruences(
    A: FiniteAlgebra, max_carrier: int = MAX_CG_CARRIER, max_elements: int = MAX_ELEMENTS
) -> tuple[EquivalenceRelation, ...]:
    """Every congruence, as equality plus the closure of the principal
    congruences under joining with a principal congruence.

    Sound and complete: every congruence is the join of the principal
    congruences it contains, so joining each newly found congruence with
    the principal ones alone reaches them all.  Each congruence found,
    principal ones included, is checked with is_congruence once.  Raises
    SizeLimit as soon as more than max_elements congruences are found,
    since a lattice of that many elements would be refused anyway.
    Deterministic order: finer first, then by class-id vector.
    """
    if A.size > max_carrier:
        raise SizeLimit("congruence carrier", A.size, max_carrier)
    found = {discrete_eq(A.size)}
    queue: list[EquivalenceRelation] = []

    def add(theta: EquivalenceRelation) -> None:
        # the congruences form a sublattice of Eq(A), so the principal
        # closures and plain joins must be compatible; a failure is a bug
        if not is_congruence(theta, A).holds:
            raise FinlatError(f"congruence closure produced {theta.class_id}, which is not a congruence")
        found.add(theta)
        if len(found) > max_elements:
            raise SizeLimit("congruences found", len(found), max_elements)
        queue.append(theta)

    rows = _translation_rows(A)
    principals = []  # (a, b, Cg(a, b)), one per distinct congruence
    for a in range(A.size):
        for b in range(a + 1, A.size):
            theta = _principal(rows, A.size, a, b)
            if theta not in found:
                add(theta)
                principals.append((a, b, theta))
    for theta in queue:  # grows while it is walked
        ids = theta.class_id
        for a, b, p in principals:
            if ids[a] == ids[b]:
                continue  # p lies below theta, so their join is theta
            joined = join_eq(theta, p)
            if joined not in found:
                add(joined)
    return tuple(sorted(found, key=lambda t: (-t.num_classes, t.class_id)))


@dataclass(frozen=True)
class CongruenceLattice:
    lattice: FiniteLattice
    congruences: tuple[EquivalenceRelation, ...]


def congruence_lattice(
    A: FiniteAlgebra, max_carrier: int = MAX_CG_CARRIER, max_elements: int = MAX_ELEMENTS
) -> CongruenceLattice:
    """Cg(A) ordered by inclusion; element i is congruences[i], labeled by its classes."""
    congs = all_congruences(A, max_carrier=max_carrier, max_elements=max_elements)
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


def _compatible_mask(parts: Sequence[tuple], A: FiniteAlgebra) -> int:
    """Bit i is set iff the partition with (class ids, classes) parts[i] is a congruence of A."""
    mask = 0
    for i, (ids, members) in enumerate(parts):
        if _first_failure(A, ids, members) is None:
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
    exhausted_budget set; absence within the budget proves nothing.  So
    does a carrier whose pool costs more to prepare, (pool size + 1) *
    B(carrier) steps, counted before the partitions or the pool are listed.
    """
    target = dual(L) if match_dual else L
    tried = 0

    for carrier in range(1, max_carrier + 1):
        bell = bell_number(carrier)
        if bell < L.size:
            continue
        # one mask step per (operation, partition) pair; carrier 4 has 4^16 binary tables
        pool_size = (carrier**carrier if max_unary_ops > 0 else 0) + (
            carrier ** (carrier * carrier) if max_binary_ops > 0 else 0)
        if (pool_size + 1) * bell > max_candidates:
            break
        parts = list(all_partitions(carrier))
        pool: list[tuple[int, tuple[int, ...]]] = []  # (arity, table), unary first
        if max_unary_ops > 0:
            for table in product(range(carrier), repeat=carrier):
                pool.append((1, table))
        if max_binary_ops > 0:
            for table in product(range(carrier), repeat=carrier * carrier):
                pool.append((2, table))
        part_classes = [(t.class_id, t.classes()) for t in parts]
        masks = [
            _compatible_mask(part_classes, FiniteAlgebra(carrier, (Operation(a, t),)))
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

        # pool indices whose mask keeps at least L.size partitions of `mask`
        kept_by_mask: dict[int, list[int]] = {}

        def kept(mask: int) -> list[int]:
            if mask not in kept_by_mask:
                kept_by_mask[mask] = [i for i, m in enumerate(masks) if (mask & m).bit_count() >= L.size]
            return kept_by_mask[mask]

        num_unary = sum(1 for arity, _ in pool if arity == 1)
        max_ops = max_unary_ops + max_binary_ops

        # depth-first over non-decreasing op-index tuples, prefixes first;
        # unary and binary count the ops of each arity in `ops`
        def extend(ops: tuple[int, ...], mask: int, unary: int, binary: int) -> Optional[FiniteAlgebra]:
            nonlocal tried
            if tried >= max_candidates:
                return None
            tried += 1
            if unary <= max_unary_ops and binary <= max_binary_ops and lattice_matches(mask):
                return FiniteAlgebra(
                    carrier, tuple(Operation(*pool[i]) for i in ops)
                )
            if unary + binary == max_ops:
                return None
            children = kept(mask)
            for i in children[bisect_left(children, ops[-1] if ops else 0):]:
                u, b = (unary + 1, binary) if i < num_unary else (unary, binary + 1)
                if u > max_unary_ops or b > max_binary_ops:
                    continue
                found = extend(ops + (i,), mask & masks[i], u, b)
                if found is not None or tried >= max_candidates:
                    return found
            return None

        found = extend((), full_mask, 0, 0)
        if found is not None:
            return SearchResult(found, False, tried, "found within budget")
        if tried >= max_candidates:
            break
    else:
        return SearchResult(
            None, False, tried,
            "search space exhausted up to the carrier bound; absence here is not a proof "
            "for larger carriers",
        )
    return SearchResult(
        None, True, tried, "budget exhausted; absence within the budget is not a proof"
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
