"""Reference answers computed without finlat.

Everything here works on plain Python data (order relations as bitmasks,
partitions as class-id lists, operation tables as lists) and uses only the
textbook definitions, so a check built from these functions does not trust
the library it is checking.
"""
from __future__ import annotations

from itertools import combinations, permutations
from math import factorial


# ---------------------------------------------------------------------------
# orders and lattices


def order_closure(n: int, pairs) -> list[int]:
    """Reflexive-transitive closure; up[i] has bit j set iff i <= j."""
    up = [1 << i for i in range(n)]
    for a, b in pairs:
        up[a] |= 1 << b
    changed = True
    while changed:
        changed = False
        for i in range(n):
            acc = up[i]
            m = acc
            while m:
                j = (m & -m).bit_length() - 1
                acc |= up[j]
                m &= m - 1
            if acc != up[i]:
                up[i] = acc
                changed = True
    return up


def down_sets(up: list[int]) -> list[int]:
    n = len(up)
    down = [0] * n
    for i in range(n):
        for j in range(n):
            if up[i] >> j & 1:
                down[j] |= 1 << i
    return down


def _greatest(mask: int, down: list[int]):
    for k in range(len(down)):
        if mask >> k & 1 and mask & ~down[k] == 0:
            return k
    return None


def meet_join_tables(up: list[int]):
    """Meet and join tables from the order alone; None entries mean 'no bound'."""
    down = down_sets(up)
    n = len(up)
    meet = [[_greatest(down[i] & down[j], down) for j in range(n)] for i in range(n)]
    join = [[_greatest(up[i] & up[j], up) for j in range(n)] for i in range(n)]
    return meet, join


def covers(up: list[int]) -> set[tuple[int, int]]:
    """Pairs i < j with nothing strictly between."""
    down = down_sets(up)
    n = len(up)
    return {
        (i, j)
        for i in range(n)
        for j in range(n)
        if i != j and up[i] >> j & 1 and up[i] & down[j] == (1 << i) | (1 << j)
    }


# the two forbidden patterns, indexed as finlat indexes m_lattice(3) and pentagon()
DIAMOND_UP = order_closure(5, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)])
PENTAGON_UP = order_closure(5, [(0, 1), (1, 2), (2, 4), (0, 3), (3, 4)])


def is_lattice_embedding(f, source_up: list[int], host_up: list[int]) -> bool:
    """Injective and preserving meets and joins, with both sides' operations
    recomputed from the order relations."""
    if len(f) != len(source_up) or len(set(f)) != len(f):
        return False
    if any(not 0 <= v < len(host_up) for v in f):
        return False
    sm, sj = meet_join_tables(source_up)
    hm, hj = meet_join_tables(host_up)
    k = len(f)
    for x in range(k):
        for y in range(k):
            if f[sm[x][y]] != hm[f[x]][f[y]] or f[sj[x][y]] != hj[f[x]][f[y]]:
                return False
    return True


def is_order_isomorphism(f, up1: list[int], up2: list[int]) -> bool:
    n = len(up1)
    if len(f) != n or len(up2) != n or sorted(f) != list(range(n)):
        return False
    return all(
        (up1[i] >> j & 1) == (up2[f[i]] >> f[j] & 1) for i in range(n) for j in range(n)
    )


def isomorphic_orders(up1: list[int], up2: list[int]) -> bool:
    """Brute force over bijections; for the small lattices of the search jobs."""
    n = len(up1)
    if n != len(up2):
        return False
    return any(is_order_isomorphism(p, up1, up2) for p in permutations(range(n)))


# ---------------------------------------------------------------------------
# rank maps


def rank_holds(up: list[int], rho, meet, join) -> bool:
    """Axioms (1)-(4) plus the Blass and Gaifman conditions, literally."""
    n = len(up)
    le = lambda a, b: up[a] >> b & 1
    for x in range(n):
        if not le(x, rho[x]) or rho[rho[x]] != rho[x]:
            return False
    for x in range(n):
        for y in range(n):
            if not le(rho[x], rho[y]) and not le(rho[y], rho[x]):
                return False
            if rho[join[x][y]] != join[rho[x]][rho[y]]:
                return False
            if rho[x] == rho[y] and rho[meet[x][y]] != rho[x]:
                return False
    fixed = [z for z in range(n) if rho[z] == z]
    for x in range(n):
        for y in range(n):
            if x != y and le(x, y):
                for z in fixed:
                    xz = join[x][z]
                    if y != xz and le(y, xz) and meet[x][z] == meet[y][z]:
                        return False
    return True


def candidate_space(up: list[int]) -> int:
    """Product of filter sizes: the raw maps with x <= rho(x)."""
    space = 1
    for u in up:
        space *= bin(u).count("1")
    return space


def count_ranks(up: list[int]) -> int:
    """Brute-force count of rank maps satisfying Blass and Gaifman."""
    n = len(up)
    meet, join = meet_join_tables(up)
    filters = [[v for v in range(n) if up[x] >> v & 1] for x in range(n)]
    count = 0
    rho = [0] * n

    def rec(x: int) -> None:
        nonlocal count
        if x == n:
            if rank_holds(up, rho, meet, join):
                count += 1
            return
        for v in filters[x]:
            rho[x] = v
            # rho(x) must be comparable with every earlier image
            if all(up[v] >> rho[y] & 1 or up[rho[y]] >> v & 1 for y in range(x)):
                rec(x + 1)

    rec(0)
    return count


# ---------------------------------------------------------------------------
# partitions as class-id vectors


def canonical(ids) -> tuple[int, ...]:
    remap: dict = {}
    return tuple(remap.setdefault(v, len(remap)) for v in ids)


def rgs(n: int):
    """Restricted growth strings of length n in lexicographic order."""
    def rec(prefix, top):
        if len(prefix) == n:
            yield tuple(prefix)
            return
        for v in range(top + 2):
            prefix.append(v)
            yield from rec(prefix, max(top, v))
            prefix.pop()

    if n == 0:
        yield ()
        return
    yield from rec([0], 0)


def bell(n: int) -> int:
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[0]


def meet_ids(a, b) -> tuple[int, ...]:
    return canonical(list(zip(a, b)))


def join_ids(a, b) -> tuple[int, ...]:
    n = len(a)
    label = list(range(n))
    for ids in (a, b):
        for x in range(n):
            for y in range(x + 1, n):
                if ids[x] == ids[y] and label[x] != label[y]:
                    old, new = label[y], label[x]
                    label = [new if v == old else v for v in label]
    return canonical(label)


def restrict_ids(ids, subset) -> tuple[int, ...]:
    return canonical([ids[p] for p in sorted(set(subset))])


def permute_ids(ids, perm) -> tuple[int, ...]:
    """Image under old point i -> perm[i]."""
    out = [0] * len(ids)
    for old, new in enumerate(perm):
        out[new] = ids[old]
    return canonical(out)


def num_classes(ids) -> int:
    return len(set(ids))


def shape(ids) -> tuple[int, ...]:
    counts: dict = {}
    for v in ids:
        counts[v] = counts.get(v, 0) + 1
    return tuple(sorted(counts.values(), reverse=True))


# ---------------------------------------------------------------------------
# algebras: size plus a list of (arity, flat table)


def apply_op(size: int, table, args) -> int:
    idx = 0
    for a in args:
        idx = idx * size + a
    return table[idx]


def compatible(size: int, ops, ids) -> bool:
    """Every operation respects the partition; one substituted argument at a
    time suffices by transitivity of the partition."""
    for arity, table in ops:
        if arity == 0:
            continue
        for args in _tuples(size, arity):
            base = ids[apply_op(size, table, args)]
            for pos in range(arity):
                for b in range(size):
                    if b != args[pos] and ids[b] == ids[args[pos]]:
                        other = args[:pos] + (b,) + args[pos + 1:]
                        if ids[apply_op(size, table, other)] != base:
                            return False
    return True


def _tuples(size: int, arity: int):
    if arity == 0:
        yield ()
        return
    for head in range(size):
        for rest in _tuples(size, arity - 1):
            yield (head,) + rest


def all_congruences(size: int, ops) -> set[tuple[int, ...]]:
    return {ids for ids in rgs(size) if compatible(size, ops, ids)}


def conjugate_ops(size: int, ops, perm):
    """The isomorphic copy of an algebra under old element i -> perm[i]."""
    inv = [0] * size
    for old, new in enumerate(perm):
        inv[new] = old
    out = []
    for arity, table in ops:
        new_table = []
        for args in _tuples(size, arity):
            old_args = tuple(inv[a] for a in args)
            new_table.append(perm[apply_op(size, table, old_args)])
        out.append((arity, new_table))
    return out


def refinement_order(parts) -> list[int]:
    """up masks of the inclusion order on a list of partitions."""
    n = len(parts)
    up = [0] * n
    for i, a in enumerate(parts):
        for j, b in enumerate(parts):
            seen: dict = {}
            if all(seen.setdefault(x, y) == y for x, y in zip(a, b)):
                up[i] |= 1 << j
    return up


# ---------------------------------------------------------------------------
# canonical Ramsey forms on pair functions


def pair_index(n: int, x: int, y: int) -> int:
    return sum(n - 1 - i for i in range(x)) + (y - x - 1)


def canonical_forms(n: int, values, X) -> set[str]:
    """The four forms checked straight from their definitions."""
    pairs = list(combinations(sorted(X), 2))
    v = {p: values[pair_index(n, *p)] for p in pairs}
    forms = set()
    if len(set(v.values())) == 1:
        forms.add("constant")
    if len(set(v.values())) == len(pairs):
        forms.add("one_to_one")
    if all((v[p] == v[q]) == (p[0] == q[0]) for p in pairs for q in pairs):
        forms.add("first_coordinate")
    if all((v[p] == v[q]) == (p[1] == q[1]) for p in pairs for q in pairs):
        forms.add("second_coordinate")
    return forms


def first_canonical_subset(n: int, values, k: int):
    for X in combinations(range(n), k):
        if canonical_forms(n, values, X):
            return X
    return None


# ---------------------------------------------------------------------------
# reasonableness


def order_witnesses(up: list[int], E_ids, order) -> bool:
    """Positional ideal matching: for E-related a, b the ideals listed in the
    order's sequence must pair up element by element inside E-classes."""
    n = len(up)
    if sorted(order) != list(range(n)):
        return False
    position = {e: i for i, e in enumerate(order)}
    ideals = [sorted((x for x in range(n) if up[x] >> a & 1), key=position.__getitem__) for a in range(n)]
    for a in range(n):
        for b in range(a + 1, n):
            if E_ids[a] == E_ids[b]:
                ia, ib = ideals[a], ideals[b]
                if len(ia) != len(ib) or any(E_ids[x] != E_ids[y] for x, y in zip(ia, ib)):
                    return False
    return True


def first_witness_order(up: list[int], E_ids):
    for order in permutations(range(len(up))):
        if order_witnesses(up, E_ids, order):
            return order
    return None


def permutation_rank(order) -> int:
    """Position of a permutation in lexicographic order, from 0."""
    rank = 0
    rest = sorted(order)
    for i, v in enumerate(order):
        k = rest.index(v)
        rank += k * factorial(len(order) - 1 - i)
        rest.pop(k)
    return rank


# ---------------------------------------------------------------------------
# small lattices and the constructions the composites are made of, as orders


def chain_order(k: int) -> list[int]:
    return order_closure(k, [(i, i + 1) for i in range(k - 1)])


def m_order(k: int) -> list[int]:
    return order_closure(k + 2, [(0, i) for i in range(1, k + 1)] + [(i, k + 1) for i in range(1, k + 1)])


def boolean_order(n: int) -> list[int]:
    size = 1 << n
    return [sum(1 << b for b in range(size) if a & ~b == 0) for a in range(size)]


HEXAGON_UP = order_closure(6, [(0, 1), (1, 2), (2, 5), (0, 3), (3, 4), (4, 5)])


def product_order(up1: list[int], up2: list[int]) -> list[int]:
    """Componentwise order; (i, j) gets index i * |L2| + j."""
    n2 = len(up2)
    return [
        sum(
            1 << (b1 * n2 + b2)
            for b1 in range(len(up1))
            if up1[a1] >> b1 & 1
            for b2 in range(n2)
            if up2[a2] >> b2 & 1
        )
        for a1 in range(len(up1))
        for a2 in range(n2)
    ]


def doubling_order(up: list[int], a: int) -> list[int]:
    """{(r, i) : i = 0 or r >= a} inside L x 2."""
    elems = [(r, 0) for r in range(len(up))] + [(r, 1) for r in range(len(up)) if up[a] >> r & 1]
    return [
        sum(1 << t for t, (s, j) in enumerate(elems) if up[r] >> s & 1 and i <= j)
        for (r, i) in elems
    ]


def oplus_order(up: list[int]) -> list[int]:
    """A new bottom below the old one; old element i becomes i + 1."""
    n = len(up)
    return [(1 << (n + 1)) - 1] + [u << 1 for u in up]
