"""Independent brute-force oracles used only by the test suite.

These deliberately avoid the library's algorithms and data layouts: posets
are enumerated from scratch as bitmask down-sets, partitions are handled as
frozensets of frozensets over the original point names (no reindexing), and
congruences are filtered by the literal all-pairs definition.
"""
from __future__ import annotations

from itertools import combinations, permutations, product
from typing import Iterator

from finlat.congruence import FiniteAlgebra
from finlat.lattice import FiniteLattice, build_lattice
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


DERIVED_LAWS = (
    "commutativity", "absorption", "meet associativity", "join associativity", "idempotence",
)


def oracle_lattice_problems(L: FiniteLattice) -> list[str]:
    """Every order fact, table cell and lattice law of L, checked on every
    pair and triple through L.le, L.meet and L.join only.

    The order and table lines come first, in the library's message format;
    the lines that start with a DERIVED_LAWS entry follow.
    """
    n = L.size
    problems = []
    for i in range(n):
        if not L.le(i, i):
            problems.append(f"reflexivity fails at {i}")
    for i in range(n):
        for j in range(n):
            if i != j and L.le(i, j) and L.le(j, i):
                problems.append(f"antisymmetry fails at ({i}, {j})")
            for k in range(n):
                if L.le(i, j) and L.le(j, k) and not L.le(i, k):
                    problems.append(f"transitivity fails at ({i}, {j}, {k})")
    ups = [sum(1 << j for j in range(n) if L.le(i, j)) for i in range(n)]
    downs = [sum(1 << j for j in range(n) if L.le(j, i)) for i in range(n)]
    by_down = {d: k for k, d in enumerate(downs)}
    by_up = {u: k for k, u in enumerate(ups)}
    for i in range(n):
        for j in range(n):
            if by_down.get(downs[i] & downs[j]) != L.meet(i, j):
                problems.append(f"meet table wrong at ({i}, {j})")
            if by_up.get(ups[i] & ups[j]) != L.join(i, j):
                problems.append(f"join table wrong at ({i}, {j})")
    for x in range(n):
        for y in range(n):
            if L.meet(x, y) != L.meet(y, x) or L.join(x, y) != L.join(y, x):
                problems.append(f"commutativity fails at ({x}, {y})")
            if L.meet(x, L.join(x, y)) != x or L.join(x, L.meet(x, y)) != x:
                problems.append(f"absorption fails at ({x}, {y})")
            for z in range(n):
                if L.meet(x, L.meet(y, z)) != L.meet(L.meet(x, y), z):
                    problems.append(f"meet associativity fails at ({x}, {y}, {z})")
                if L.join(x, L.join(y, z)) != L.join(L.join(x, y), z):
                    problems.append(f"join associativity fails at ({x}, {y}, {z})")
        if L.meet(x, x) != x or L.join(x, x) != x:
            problems.append(f"idempotence fails at {x}")
    return problems


def oracle_build_outcome(size: int, pairs) -> tuple:
    """What build_lattice must make of these pairs, by brute force.

    Closes the relation by relaxing to a fixpoint, scans pairs (i, j), i < j,
    for antisymmetry, then each (i, j) in index order for a greatest lower
    and a least upper bound.  Returns ("order", (i, j)), ("lattice", (i, j),
    kind) or ("ok", le, meet, join) with le a matrix and meet, join tables.
    """
    le = [[i == j for j in range(size)] for i in range(size)]
    for a, b in pairs:
        le[a][b] = True
    changed = True
    while changed:
        changed = False
        for i, j, k in product(range(size), repeat=3):
            if le[i][j] and le[j][k] and not le[i][k]:
                le[i][k] = changed = True
    for i, j in combinations(range(size), 2):
        if le[i][j] and le[j][i]:
            return ("order", (i, j))
    meet = [[None] * size for _ in range(size)]
    join = [[None] * size for _ in range(size)]
    for i, j in product(range(size), repeat=2):
        lower = [k for k in range(size) if le[k][i] and le[k][j]]
        upper = [k for k in range(size) if le[i][k] and le[j][k]]
        glb = [g for g in lower if all(le[h][g] for h in lower)]
        lub = [g for g in upper if all(le[g][h] for h in upper)]
        if not glb:
            return ("lattice", (i, j), "meet")
        if not lub:
            return ("lattice", (i, j), "join")
        meet[i][j], join[i][j] = glb[0], lub[0]
    return ("ok", le, meet, join)


def relabeled(L: FiniteLattice, rng) -> FiniteLattice:
    """L renumbered by a random permutation and rebuilt from its cover
    pairs in random order, so index order need not be a linear extension."""
    perm = list(range(L.size))
    rng.shuffle(perm)
    pairs = [(perm[i], perm[j]) for i, j in L.covers()]
    rng.shuffle(pairs)
    return build_lattice(L.size, pairs)


def oracle_first_isomorphism(n: int, related1, related2, order) -> tuple | None:
    """The least bijection f, comparing (f[order[0]], f[order[1]], ...)
    lexicographically, with related1(x, y) == related2(f[x], f[y]) for all
    points x, y; None when no permutation qualifies."""
    f = [0] * n
    for images in permutations(range(n)):
        for x, v in zip(order, images):
            f[x] = v
        if all(related1(x, y) == related2(f[x], f[y]) for x in range(n) for y in range(n)):
            return tuple(f)
    return None


def cover_degree_order(L: FiniteLattice) -> list[int]:
    """Elements by number of covers (up or down) descending, then index,
    with covers read off L.le alone."""
    n = L.size
    def covers(x, y):
        return x != y and L.le(x, y) and not any(
            z not in (x, y) and L.le(x, z) and L.le(z, y) for z in range(n))
    degree = [sum(covers(x, y) or covers(y, x) for y in range(n)) for x in range(n)]
    return sorted(range(n), key=lambda x: (-degree[x], x))


def oracle_lattice_isomorphism(L1: FiniteLattice, L2: FiniteLattice) -> tuple | None:
    """The first order isomorphism L1 -> L2 in cover-degree order, by brute force."""
    if L1.size != L2.size:
        return None
    return oracle_first_isomorphism(L1.size, L1.le, L2.le, cover_degree_order(L1))


def iso_classes(lattices) -> list[FiniteLattice]:
    """One representative per isomorphism class, bucketed by up-set sizes."""
    buckets: dict[tuple, list[FiniteLattice]] = {}
    out = []
    for L in lattices:
        n = L.size
        key = (n, tuple(sorted(sum(L.le(x, y) for y in range(n)) for x in range(n))))
        reps_in_bucket = buckets.setdefault(key, [])
        if not any(oracle_lattice_isomorphism(L, M) is not None for M in reps_in_bucket):
            reps_in_bucket.append(L)
            out.append(L)
    return out


# ---------------------------------------------------------------------------
# rank maps by brute force


def oracle_ranks(L: FiniteLattice) -> list[tuple[int, ...]]:
    """Every map rho with x <= rho(x) that satisfies the rank axioms
    (2) rho(rho x) = rho x, (3) rho x, rho y comparable and
    (4) rho(x v y) = rho x v rho y, in lexicographic order; the order and
    the joins are read off the up-set masks alone."""
    n, up = L.size, L.up
    def le(x, y):
        return bool(up[x] >> y & 1)
    def least_upper_bound(x, y):
        common = up[x] & up[y]
        return next(z for z in range(n) if common >> z & 1 and common & ~up[z] == 0)
    join = [[least_upper_bound(x, y) for y in range(n)] for x in range(n)]
    filters = [[v for v in range(n) if le(x, v)] for x in range(n)]
    return [
        rho for rho in product(*filters)
        if all(rho[rho[x]] == rho[x] for x in range(n))
        and all(le(rho[x], rho[y]) or le(rho[y], rho[x]) for x in range(n) for y in range(n))
        and all(rho[join[x][y]] == join[rho[x]][rho[y]] for x in range(n) for y in range(n))
    ]


def count_chains_through_top(L: FiniteLattice) -> int:
    """The number of sets of pairwise comparable elements that contain the top."""
    n = L.size
    top = next(t for t in range(n) if all(L.le(x, t) for x in range(n)))
    return sum(
        all(L.le(x, y) or L.le(y, x) for x in C for y in C)
        for C in (
            {top} | {x for x in range(n) if mask >> x & 1}
            for mask in range(1 << n) if not mask >> top & 1
        )
    )


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


# ---------------------------------------------------------------------------
# reasonableness by trying every order


def oracle_first_witness_order(L: FiniteLattice, class_id) -> tuple | None:
    """The first permutation, in itertools order, under which the ideals of
    every two related elements, each sorted by position, are related
    element by element; None when no permutation does."""
    n = L.size
    ideals = [[x for x in range(n) if L.le(x, a)] for a in range(n)]
    related = [(a, b) for a in range(n) for b in range(a + 1, n) if class_id[a] == class_id[b]]
    for order in permutations(range(n)):
        position = {e: i for i, e in enumerate(order)}
        ok = True
        for a, b in related:
            ia = sorted(ideals[a], key=position.__getitem__)
            ib = sorted(ideals[b], key=position.__getitem__)
            if len(ia) != len(ib) or any(class_id[x] != class_id[y] for x, y in zip(ia, ib)):
                ok = False
                break
        if ok:
            return order
    return None


def oracle_size_obstruction(L: FiniteLattice, class_id) -> tuple | None:
    """The first related pair (a, b), a < b, whose ideals differ in size."""
    n = L.size
    size = [sum(1 for x in range(n) if L.le(x, a)) for a in range(n)]
    pairs = ((a, b) for a in range(n) for b in range(a + 1, n) if class_id[a] == class_id[b])
    return next(((a, b) for a, b in pairs if size[a] != size[b]), None)


# ---------------------------------------------------------------------------
# canonical Ramsey survey by the literal definitions


def _growth_strings(m: int, prefix: tuple = ()) -> Iterator[tuple]:
    """Class-id vectors of length m whose first occurrences count up from 0,
    in lexicographic order."""
    if len(prefix) == m:
        yield prefix
        return
    for c in range(max(prefix, default=-1) + 2):
        yield from _growth_strings(m, prefix + (c,))


_ORACLE_FORMS = (
    ("constant", lambda p, q: True),
    ("first_coordinate", lambda p, q: p[0] == q[0]),
    ("second_coordinate", lambda p, q: p[1] == q[1]),
    ("one_to_one", lambda p, q: p == q),
)


def oracle_crt2_rows(n: int, k: int) -> list[tuple]:
    """(kernel id, admits, least canonical k-subset, first form by
    precedence) for every kernel on the pairs of {0..n-1}: a form holds on X
    when two pairs of X share a value iff they agree as the form says."""
    all_pairs = [(x, y) for x in range(n) for y in range(n) if x < y]
    rows = []
    for kernel_id, ids in enumerate(_growth_strings(len(all_pairs))):
        value = dict(zip(all_pairs, ids))
        found = None
        for X in combinations(range(n), k):
            pairs = [(x, y) for x in X for y in X if x < y]
            form = next(
                (
                    name
                    for name, same in _ORACLE_FORMS
                    if all((value[p] == value[q]) == same(p, q) for p in pairs for q in pairs)
                ),
                None,
            )
            if form is not None:
                found = (X, form)
                break
        rows.append((kernel_id, found is not None, *(found or (None, None))))
    return rows
