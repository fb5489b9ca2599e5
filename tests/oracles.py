"""Independent brute-force oracles used only by the test suite.

These deliberately avoid the library's algorithms and data layouts: posets
are enumerated from scratch as bitmask down-sets, partitions are handled as
frozensets of frozensets over the original point names (no reindexing), and
congruences are filtered by the literal all-pairs definition.
"""
from __future__ import annotations

from itertools import combinations, product
from typing import Iterator

from finlat.congruence import FiniteAlgebra
from finlat.lattice import FiniteLattice, build_lattice, lattice_isomorphism
from finlat.reps import Representation


# ---------------------------------------------------------------------------
# exhaustive enumeration of small lattices


def _downclosed_subsets(down: list[int], k: int) -> list[int]:
    out = []
    for mask in range(1 << k):
        ok = True
        m = mask
        while m:
            j = (m & -m).bit_length() - 1
            if down[j] & ~mask:
                ok = False
                break
            m &= m - 1
        if ok:
            out.append(mask)
    return out


def labeled_posets(n: int) -> Iterator[tuple[int, ...]]:
    """All naturally labeled posets on {0..n-1} as down-set bitmask tuples.

    Element k is added with an arbitrary down-closed subset of {0..k-1} as
    its strict predecessors, so indices form a linear extension and every
    isomorphism class appears.
    """
    def rec(k: int, down: list[int]) -> Iterator[tuple[int, ...]]:
        if k == n:
            yield tuple(down)
            return
        for D in _downclosed_subsets(down, k):
            yield from rec(k + 1, down + [D | (1 << k)])

    yield from rec(0, [])


def _poset_is_lattice(downs: tuple[int, ...], n: int) -> bool:
    ups = [0] * n
    for i in range(n):
        m = downs[i]
        while m:
            j = (m & -m).bit_length() - 1
            ups[j] |= 1 << i
            m &= m - 1
    for rows in (downs, ups):
        for i in range(n):
            for j in range(i + 1, n):
                s = rows[i] & rows[j]
                m = s
                found = False
                while m:
                    k = (m & -m).bit_length() - 1
                    if s & ~rows[k] == 0:
                        found = True
                        break
                    m &= m - 1
                if not found:
                    return False
    return True


def enumerate_labeled_lattices(size: int) -> Iterator[FiniteLattice]:
    """All naturally labeled lattices on exactly `size` elements, validated."""
    for downs in labeled_posets(size):
        if not _poset_is_lattice(downs, size):
            continue
        pairs = []
        for j in range(size):
            m = downs[j]
            while m:
                i = (m & -m).bit_length() - 1
                pairs.append((i, j))
                m &= m - 1
        yield build_lattice(size, pairs)


def relabeled(L: FiniteLattice, rng) -> FiniteLattice:
    """L renumbered by a random permutation and rebuilt from its cover
    pairs in random order, so index order need not be a linear extension."""
    perm = list(range(L.size))
    rng.shuffle(perm)
    pairs = [(perm[i], perm[j]) for i, j in L.covers()]
    rng.shuffle(pairs)
    return build_lattice(L.size, pairs)


def iso_classes(lattices) -> list[FiniteLattice]:
    """One representative per isomorphism class, bucketed by cheap invariants."""
    buckets: dict[tuple, list[FiniteLattice]] = {}
    out = []
    for L in lattices:
        key = (
            L.size,
            tuple(sorted(bin(u).count("1") for u in L.up)),
            len(L.covers()),
        )
        reps_in_bucket = buckets.setdefault(key, [])
        if not any(lattice_isomorphism(L, M) is not None for M in reps_in_bucket):
            reps_in_bucket.append(L)
            out.append(L)
    return out


# ---------------------------------------------------------------------------
# set-partition machinery over original point names


def set_partitions(points: frozenset) -> Iterator[frozenset]:
    """All partitions of a finite set, as frozensets of frozenset blocks."""
    pts = sorted(points)
    if not pts:
        yield frozenset()
        return
    first, rest = pts[0], frozenset(pts[1:])
    for part in set_partitions(rest):
        blocks = list(part)
        for i, b in enumerate(blocks):
            yield frozenset(blocks[:i] + [b | {first}] + blocks[i + 1 :])
        yield part | {frozenset({first})}


def _blocks_of(rel) -> frozenset:
    groups: dict[int, set[int]] = {}
    for p, c in enumerate(rel.class_id):
        groups.setdefault(c, set()).add(p)
    return frozenset(frozenset(b) for b in groups.values())


def _restrict_blocks(partition: frozenset, Y: frozenset) -> frozenset:
    return frozenset(b & Y for b in partition if b & Y)


class _CppOracle:
    """The canonical partition property by literal recursion over set partitions."""

    def __init__(self, R: Representation):
        self.top_alpha = [_blocks_of(rel) for rel in R.alpha]
        self.lat_size = R.lattice.size
        self.ground = frozenset(range(R.ground_size))
        self.memo: dict[tuple[frozenset, int], bool] = {}
        self.images: dict[frozenset, set] = {}

    def first_subset(self, theta: frozenset, points: frozenset, d: int):
        """The first subset of points (largest first, then lexicographic) that
        is injective, carries theta canonically and is (d-1)-CPP, or None."""
        pts = sorted(points)
        for size in range(len(pts), 0, -1):
            for sub in combinations(pts, size):
                Y = frozenset(sub)
                if Y not in self.images:
                    self.images[Y] = {_restrict_blocks(a, Y) for a in self.top_alpha}
                aY = self.images[Y]
                if len(aY) != self.lat_size:
                    continue  # not injective, hence not a representation
                if _restrict_blocks(theta, Y) not in aY:
                    continue  # theta not canonical on Y
                if self.holds(Y, d - 1):
                    return sub
        return None

    def holds(self, points: frozenset, d: int) -> bool:
        key = (points, d)
        if key not in self.memo:
            if d == 0:
                alpha = [_restrict_blocks(a, points) for a in self.top_alpha]
                self.memo[key] = all(len(a) != 2 for a in alpha)
            else:
                self.memo[key] = all(
                    self.first_subset(theta, points, d) is not None for theta in set_partitions(points)
                )
        return self.memo[key]


def oracle_ncpp(R: Representation, depth: int) -> bool:
    """The canonical partition property by literal recursion over set partitions."""
    return _CppOracle(R).holds(frozenset(range(R.ground_size)), depth)


def oracle_ncpp_certificate(R: Representation, depth: int) -> Iterator[tuple[frozenset, tuple]]:
    """The certificate form, for depth >= 1: (theta, its first good subset or
    None) for every partition theta of the ground, as blocks, lazily and in
    this module's own partition order."""
    oracle = _CppOracle(R)
    for theta in set_partitions(oracle.ground):
        yield theta, oracle.first_subset(theta, oracle.ground, depth)


# ---------------------------------------------------------------------------
# congruences by the literal definition


def oracle_congruences(A: FiniteAlgebra) -> set:
    """Filter every partition of the carrier by the all-pairs compatibility check."""
    out = set()
    for part in set_partitions(frozenset(range(A.size))):
        block_of = {}
        for b in part:
            for x in b:
                block_of[x] = b
        ok = True
        for op_index, op in enumerate(A.operations):
            if op.arity == 0:
                continue
            for args1 in product(range(A.size), repeat=op.arity):
                for args2 in product(range(A.size), repeat=op.arity):
                    if all(block_of[a] is block_of[b] for a, b in zip(args1, args2)):
                        if block_of[A.apply(op_index, args1)] is not block_of[A.apply(op_index, args2)]:
                            ok = False
                            break
                if not ok:
                    break
            if not ok:
                break
        if ok:
            out.add(part)
    return out


def blocks_set(rel) -> frozenset:
    """Adapter: a library relation as a frozenset of frozenset blocks."""
    return _blocks_of(rel)
