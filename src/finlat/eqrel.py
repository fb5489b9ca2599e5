"""Equivalence relations on finite ground sets {0..n-1}.

A relation is stored as a canonical class-id vector: class ids form a
contiguous range and first occurrences appear in increasing point order,
so two relations are equal iff their vectors are equal.  The set Eq(A) of
all equivalence relations on A is a lattice under inclusion of pair sets:
the discrete relation is the bottom, the trivial (one class) relation is
the top, meet is intersection and join is the transitive closure of the
union.

All values are immutable and all operations are pure functions.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable, Iterator, Optional, Sequence

from .errors import EmptySubset, GroundMismatch, InvalidParameter, SizeLimit


def _canonical_ids(values: Sequence[Hashable]) -> tuple[int, ...]:
    remap: dict = {}
    out = []
    for v in values:
        if v not in remap:
            remap[v] = len(remap)
        out.append(remap[v])
    return tuple(out)


@dataclass(frozen=True)
class EquivalenceRelation:
    """A partition of {0..ground_size-1} in canonical class-id form."""

    ground_size: int
    class_id: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "class_id", tuple(self.class_id))
        if self.ground_size < 1:
            raise InvalidParameter("ground set must be nonempty")
        if len(self.class_id) != self.ground_size:
            raise InvalidParameter("class_id length must equal ground_size")
        if self.class_id != _canonical_ids(self.class_id):
            raise InvalidParameter("class ids are not in canonical first-occurrence order")

    @property
    def num_classes(self) -> int:
        return max(self.class_id) + 1

    @property
    def is_trivial(self) -> bool:
        return self.num_classes == 1

    @property
    def is_discrete(self) -> bool:
        return self.num_classes == self.ground_size

    def relates(self, x: int, y: int) -> bool:
        return self.class_id[x] == self.class_id[y]

    def classes(self) -> tuple[tuple[int, ...], ...]:
        """Members of each class, classes in canonical (first-occurrence) order."""
        out: list[list[int]] = [[] for _ in range(self.num_classes)]
        for point, c in enumerate(self.class_id):
            out[c].append(point)
        return tuple(tuple(c) for c in out)

    def pairs(self) -> tuple[tuple[int, int], ...]:
        """All related pairs (x, y) with x < y."""
        return tuple(
            (x, y)
            for x in range(self.ground_size)
            for y in range(x + 1, self.ground_size)
            if self.class_id[x] == self.class_id[y]
        )


def from_class_ids(ids: Sequence[int]) -> EquivalenceRelation:
    """Build a relation from an arbitrary (non-canonical) class-id vector."""
    return EquivalenceRelation(len(ids), _canonical_ids(ids))


def from_classes(ground_size: int, classes: Iterable[Iterable[int]]) -> EquivalenceRelation:
    """Build a relation from explicit classes, which must partition the ground set."""
    ids = [-1] * ground_size
    for k, cls in enumerate(classes):
        for point in cls:
            if not 0 <= point < ground_size:
                raise InvalidParameter(f"point {point} outside ground set of size {ground_size}")
            if ids[point] != -1:
                raise InvalidParameter(f"point {point} appears in two classes")
            ids[point] = k
    if -1 in ids:
        raise InvalidParameter(f"point {ids.index(-1)} missing from all classes")
    return from_class_ids(ids)


def trivial_eq(ground_size: int) -> EquivalenceRelation:
    """The one-class relation, the top of Eq(A)."""
    return EquivalenceRelation(ground_size, (0,) * ground_size)


def discrete_eq(ground_size: int) -> EquivalenceRelation:
    """The all-singletons relation, the bottom of Eq(A)."""
    return EquivalenceRelation(ground_size, tuple(range(ground_size)))


def kernel_of(values: Sequence[Hashable]) -> EquivalenceRelation:
    """Relate two points iff the observed values at them are equal."""
    if not values:
        raise InvalidParameter("kernel of an empty sequence is undefined")
    return EquivalenceRelation(len(values), _canonical_ids(values))


class _UnionFind:
    """Disjoint sets on {0..n-1}, merged one pair at a time.

    The sets start as singletons, or as the classes of `start`.
    """

    __slots__ = ("parent",)

    def __init__(self, n: int, start: Optional[EquivalenceRelation] = None):
        if start is None:
            self.parent = list(range(n))
        else:
            first: dict[int, int] = {}
            self.parent = [first.setdefault(c, point) for point, c in enumerate(start.class_id)]

    def find(self, x: int) -> int:
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(self, x: int, y: int) -> bool:
        """Merge the sets of x and y; False when they were already one set."""
        rx, ry = self.find(x), self.find(y)
        if rx == ry:
            return False
        self.parent[ry] = rx
        return True

    def relation(self) -> EquivalenceRelation:
        """The partition into the current sets, in canonical form."""
        return from_class_ids([self.find(x) for x in range(len(self.parent))])


def meet_eq(t1: EquivalenceRelation, t2: EquivalenceRelation) -> EquivalenceRelation:
    """Intersection of the two relations: the common refinement."""
    if t1.ground_size != t2.ground_size:
        raise GroundMismatch(f"ground sizes differ: {t1.ground_size} != {t2.ground_size}")
    return from_class_ids(_canonical_ids(tuple(zip(t1.class_id, t2.class_id))))


def join_eq(t1: EquivalenceRelation, t2: EquivalenceRelation) -> EquivalenceRelation:
    """Transitive closure of the union, computed by union-find."""
    if t1.ground_size != t2.ground_size:
        raise GroundMismatch(f"ground sizes differ: {t1.ground_size} != {t2.ground_size}")
    sets = _UnionFind(t1.ground_size, t1)
    first_seen: dict[int, int] = {}
    for point, c in enumerate(t2.class_id):
        anchor = first_seen.setdefault(c, point)
        if anchor != point:
            sets.union(anchor, point)
    return sets.relation()


def restrict_eq(t: EquivalenceRelation, subset: Iterable[int]) -> EquivalenceRelation:
    """Induced relation on a nonempty subset, reindexed in increasing point order."""
    points = sorted(set(subset))
    if not points:
        raise EmptySubset("cannot restrict to the empty subset")
    for p in points:
        if not 0 <= p < t.ground_size:
            raise InvalidParameter(f"point {p} outside ground set of size {t.ground_size}")
    return from_class_ids([t.class_id[p] for p in points])


def permute_eq(t: EquivalenceRelation, perm: Sequence[int]) -> EquivalenceRelation:
    """Image of the relation under a ground-set permutation (old point i goes to perm[i])."""
    if sorted(perm) != list(range(t.ground_size)):
        raise InvalidParameter("perm is not a permutation of the ground set")
    ids = [0] * t.ground_size
    for old, new in enumerate(perm):
        ids[new] = t.class_id[old]
    return from_class_ids(ids)


@dataclass(frozen=True)
class EqStats:
    num_classes: int
    is_trivial: bool
    is_discrete: bool
    class_size_multiset: tuple[int, ...]


def eq_stats(t: EquivalenceRelation) -> EqStats:
    """Exact class counts; sizes reported in decreasing order."""
    sizes = sorted((len(c) for c in t.classes()), reverse=True)
    return EqStats(t.num_classes, t.is_trivial, t.is_discrete, tuple(sizes))


def refines(t1: EquivalenceRelation, t2: EquivalenceRelation) -> bool:
    """True iff t1 <= t2 in Eq(A), i.e. every t1-class lies inside a t2-class."""
    if t1.ground_size != t2.ground_size:
        raise GroundMismatch(f"ground sizes differ: {t1.ground_size} != {t2.ground_size}")
    seen: dict[int, int] = {}
    for c1, c2 in zip(t1.class_id, t2.class_id):
        if seen.setdefault(c1, c2) != c2:
            return False
    return True


def restricted_growth_strings(n: int) -> Iterator[tuple[int, ...]]:
    """All canonical class-id vectors of length n, in lexicographic order."""
    if n == 0:
        yield ()
        return
    vec = [0] * n
    maxes = [0] * n  # maxes[i] = max(vec[:i+1])
    i = n - 1
    yield tuple(vec)
    while True:
        # advance position i; positions right of i reset to 0
        while i > 0 and vec[i] >= maxes[i - 1] + 1:
            vec[i] = 0
            maxes[i] = maxes[i - 1]
            i -= 1
        if i == 0:
            return
        vec[i] += 1
        maxes[i] = max(maxes[i - 1], vec[i])
        for j in range(i + 1, n):
            maxes[j] = maxes[i]
        i = n - 1
        yield tuple(vec)


def all_partitions(n: int) -> Iterator[EquivalenceRelation]:
    """All equivalence relations on {0..n-1}, in lexicographic class-id order."""
    for vec in restricted_growth_strings(n):
        yield EquivalenceRelation(n, vec)


def bell_number(n: int) -> int:
    """Number of partitions of an n-set."""
    if n < 0:
        raise InvalidParameter("n must be nonnegative")
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[0]


def partition_label(t: EquivalenceRelation) -> str:
    """Compact display form, e.g. '01|2' for the relation {0,1},{2}."""
    return "|".join("".join(str(p) for p in cls) for cls in t.classes())


def _pair_mask(t: EquivalenceRelation) -> int:
    """Bit x*n + y is set iff t relates x and y, so t1 refines t2 iff
    _pair_mask(t1) is a subset of _pair_mask(t2)."""
    n = t.ground_size
    members = [0] * t.num_classes
    for point, c in enumerate(t.class_id):
        members[c] |= 1 << point
    mask = 0
    for point, c in enumerate(t.class_id):
        mask |= members[c] << (point * n)
    return mask


def refinement_lattice(parts: Sequence[EquivalenceRelation]):
    """The given relations ordered by refines; element i is parts[i], labeled by its classes."""
    from .lattice import build_lattice

    for t in parts[1:]:
        if t.ground_size != parts[0].ground_size:
            raise GroundMismatch(f"ground sizes differ: {parts[0].ground_size} != {t.ground_size}")
    masks = [_pair_mask(t) for t in parts]
    pairs = [
        (i, j)
        for i, m1 in enumerate(masks)
        for j, m2 in enumerate(masks)
        if not m1 & ~m2
    ]
    return build_lattice(len(parts), pairs, labels=tuple(partition_label(t) for t in parts))


def eq_lattice(n: int, max_ground: int = 5):
    """Eq(n) as an explicit FiniteLattice, ordered by inclusion.

    Exponential in n, so guarded by a small budget; elements are indexed in
    the lexicographic order of all_partitions(n).
    """
    if n > max_ground:
        raise SizeLimit("eq_lattice ground", n, max_ground)
    parts = tuple(all_partitions(n))
    return refinement_lattice(parts), parts


def eq_to_json(t: EquivalenceRelation) -> dict:
    return {"ground": t.ground_size, "classes": [list(c) for c in t.classes()]}


def eq_from_json(data: dict) -> EquivalenceRelation:
    if not isinstance(data, dict) or "ground" not in data or "classes" not in data:
        raise InvalidParameter("equivalence relation JSON needs 'ground' and 'classes'")
    ground, classes = int(data["ground"]), data["classes"]
    # checked before from_classes allocates a vector of the claimed size
    listed = sum(len(cls) for cls in classes)
    if ground != listed:
        raise InvalidParameter(f"ground {ground} but the classes list {listed} points")
    return from_classes(ground, classes)
