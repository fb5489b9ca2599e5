"""Finite bounded lattices: construction, validation, and classification.

Elements are dense indices 0..n-1; labels are cosmetic.  The order is kept
as one bitmask per element (bit j of up[i] set iff i <= j), and meet/join
tables are derived and checked at construction, so every FiniteLattice in
circulation is valid.  All values are immutable and every operation is a
pure function, safe for concurrent use.
"""
from __future__ import annotations

import heapq
import re
import warnings
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from .eqrel import EquivalenceRelation, _UnionFind
from .errors import InvalidParameter, NotALattice, NotAPartialOrder, SizeLimit

MAX_ELEMENTS = 4096
MAX_SUBLATTICE_HOST = 64


class DegenerateParameterWarning(UserWarning):
    """A constructor parameter outside the intended range was accepted."""


@dataclass(frozen=True)
class FiniteLattice:
    """A finite bounded lattice given by its order relation.

    up[i] is the bitmask of {j : i <= j}.  meet_table/join_table are
    validated at construction; equality ignores labels.
    """

    size: int
    up: tuple[int, ...]
    meet_table: tuple[tuple[int, ...], ...]
    join_table: tuple[tuple[int, ...], ...]
    labels: Optional[tuple[str, ...]] = field(default=None, compare=False)

    def le(self, i: int, j: int) -> bool:
        return bool(self.up[i] >> j & 1)

    def meet(self, i: int, j: int) -> int:
        return self.meet_table[i][j]

    def join(self, i: int, j: int) -> int:
        return self.join_table[i][j]

    @property
    def bottom(self) -> int:
        full = (1 << self.size) - 1
        return next(i for i in range(self.size) if self.up[i] == full)

    @property
    def top(self) -> int:
        return next(i for i in range(self.size) if self.up[i] == 1 << i)

    def label(self, i: int) -> str:
        return self.labels[i] if self.labels is not None else str(i)

    def leq_pairs(self) -> tuple[tuple[int, int], ...]:
        """All ordered pairs (i, j) with i <= j, including reflexive ones."""
        return tuple(
            (i, j) for i in range(self.size) for j in range(self.size) if self.le(i, j)
        )

    def covers(self) -> tuple[tuple[int, int], ...]:
        """All cover pairs (i, j): i < j with nothing strictly between."""
        out = []
        down = _down_masks(self.up, self.size)
        for i in range(self.size):
            for j in range(self.size):
                if i != j and self.le(i, j):
                    between = self.up[i] & down[j] & ~(1 << i) & ~(1 << j)
                    if between == 0:
                        out.append((i, j))
        return tuple(out)

    def elements(self) -> range:
        return range(self.size)


def _bits(mask: int):
    """The indices of the set bits of mask, smallest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _down_masks(up: Sequence[int], n: int) -> list[int]:
    down = [0] * n
    for i in range(n):
        for j in _bits(up[i]):
            down[j] |= 1 << i
    return down


def build_lattice(
    size: int,
    leq_pairs: Iterable[tuple[int, int]],
    labels: Optional[Sequence[str]] = None,
    max_size: int = MAX_ELEMENTS,
) -> FiniteLattice:
    """Close the given pairs reflexively and transitively, then validate.

    Raises NotAPartialOrder if antisymmetry fails, NotALattice (with a
    witness pair) if some pair lacks a unique meet or join, SizeLimit if
    size exceeds the element budget.
    """
    if size < 1:
        raise InvalidParameter("a lattice needs at least one element")
    if size > max_size:
        raise SizeLimit("lattice size", size, max_size)
    up = [1 << i for i in range(size)]
    for a, b in leq_pairs:
        if not (0 <= a < size and 0 <= b < size):
            raise InvalidParameter(f"pair ({a}, {b}) references an element outside 0..{size - 1}")
        up[a] |= 1 << b
    for k in range(size):
        bit = 1 << k
        for i in range(size):
            if up[i] & bit:
                up[i] |= up[k]
    for i in range(size):
        for j in range(i + 1, size):
            if up[i] >> j & 1 and up[j] >> i & 1:
                raise NotAPartialOrder(i, j)
    # a meet exists iff the intersection of the principal down-sets is itself
    # principal, and then it is the element owning that down-set; dually for joins
    down = _down_masks(up, size)
    by_down = {d: k for k, d in enumerate(down)}
    by_up = {u: k for k, u in enumerate(up)}
    meet_rows = []
    join_rows = []
    for i in range(size):
        di, ui = down[i], up[i]
        mrow = [by_down.get(di & d) for d in down]
        jrow = [by_up.get(ui & u) for u in up]
        if None in mrow or None in jrow:
            j = next(j for j in range(size) if mrow[j] is None or jrow[j] is None)
            raise NotALattice(i, j, "meet" if mrow[j] is None else "join")
        meet_rows.append(tuple(mrow))
        join_rows.append(tuple(jrow))
    lab = tuple(labels) if labels is not None else None
    if lab is not None and len(lab) != size:
        raise InvalidParameter("labels length must equal size")
    return FiniteLattice(size, tuple(up), tuple(meet_rows), tuple(join_rows), lab)


def validate_lattice(L: FiniteLattice) -> list[str]:
    """Re-check every axiom from scratch; returns a list of violations (empty = valid)."""
    problems = []
    n = L.size
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
    down = _down_masks(L.up, n)
    by_down = {d: k for k, d in enumerate(down)}
    by_up = {u: k for k, u in enumerate(L.up)}
    for i in range(n):
        for j in range(n):
            if by_down.get(down[i] & down[j]) != L.meet(i, j):
                problems.append(f"meet table wrong at ({i}, {j})")
            if by_up.get(L.up[i] & L.up[j]) != L.join(i, j):
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


# ---------------------------------------------------------------------------
# standard lattices


def chain_lattice(k: int) -> FiniteLattice:
    """The k-element chain 0 < 1 < ... < k-1."""
    if k < 1:
        raise InvalidParameter("a chain needs at least one element")
    pairs = [(i, i + 1) for i in range(k - 1)]
    return build_lattice(k, pairs, labels=tuple(str(i) for i in range(k)))


def boolean_lattice(n: int, max_size: int = MAX_ELEMENTS) -> FiniteLattice:
    """The subset lattice of an n-set; element i is the subset with bitmask i."""
    if n < 0:
        raise InvalidParameter("boolean lattice needs n >= 0")
    size = 1 << n
    if size > max_size:
        raise SizeLimit("lattice size", size, max_size)
    pairs = [(a, a | 1 << i) for a in range(size) for i in range(n) if not a >> i & 1]
    labels = []
    for mask in range(size):
        members = [str(i) for i in range(n) if mask >> i & 1]
        labels.append("{" + ",".join(members) + "}")
    return build_lattice(size, pairs, labels=tuple(labels))


_ATOM_NAMES = "abcdefghijklmnopqrstuvwxyz"


def m_lattice(n: int) -> FiniteLattice:
    """Bottom, top, and n pairwise-incomparable elements in between.

    n = 1 or 2 gives a (distributive) chain or diamond; accepted but flagged
    with a DegenerateParameterWarning since the interesting cases have n > 2.
    """
    if n < 1:
        raise InvalidParameter("m(n) needs n >= 1")
    if n < 3:
        warnings.warn(f"m({n}) is degenerate (distributive)", DegenerateParameterWarning)
    top = n + 1
    pairs = [(0, i) for i in range(1, n + 1)] + [(i, top) for i in range(1, n + 1)]
    atoms = tuple(_ATOM_NAMES[i] if i < len(_ATOM_NAMES) else f"x{i}" for i in range(n))
    return build_lattice(n + 2, pairs, labels=("0",) + atoms + ("1",))


def pentagon() -> FiniteLattice:
    """The pentagon: 0 < a < b < 1 and 0 < c < 1."""
    pairs = [(0, 1), (1, 2), (2, 4), (0, 3), (3, 4)]
    return build_lattice(5, pairs, labels=("0", "a", "b", "c", "1"))


def hexagon() -> FiniteLattice:
    """The hexagon: 0 < a < b < 1 and 0 < c < d < 1."""
    pairs = [(0, 1), (1, 2), (2, 5), (0, 3), (3, 4), (4, 5)]
    return build_lattice(6, pairs, labels=("0", "a", "b", "c", "d", "1"))


_STANDARD_RE = re.compile(r"^(boolean|m|chain)\((\d+)\)$")


def standard_lattice(kind: str, max_size: int = MAX_ELEMENTS) -> FiniteLattice:
    """Parse a description like 'boolean(3)', 'm(3)', 'chain(4)', 'pentagon', 'hexagon'.

    Raises SizeLimit before anything is built when the element count
    exceeds max_size.  boolean(n) is compared through bit lengths, so a huge
    n costs nothing; its count is reported as the string '2^n' from n = 64.
    """
    kind = kind.strip()
    match = _STANDARD_RE.match(kind)
    if kind not in ("pentagon", "hexagon") and not match:
        raise InvalidParameter(f"unknown standard lattice {kind!r}")
    name, arg = (match.group(1), int(match.group(2))) if match else (kind, 0)
    if name != "boolean":
        size = {"pentagon": 5, "hexagon": 6, "m": arg + 2, "chain": arg}[name]
    elif arg < max_size.bit_length():
        size = 1 << arg
    else:
        raise SizeLimit("lattice size", 1 << arg if arg < 64 else f"2^{arg}", max_size)
    if size > max_size:
        raise SizeLimit("lattice size", size, max_size)
    if name == "boolean":
        return boolean_lattice(arg)
    if name == "m":
        return m_lattice(arg)
    if name == "chain":
        return chain_lattice(arg)
    return pentagon() if name == "pentagon" else hexagon()


# ---------------------------------------------------------------------------
# constructions


def dual(L: FiniteLattice) -> FiniteLattice:
    """Order reversed, meet and join swapped; an involution on elements."""
    down = _down_masks(L.up, L.size)
    return FiniteLattice(L.size, tuple(down), L.join_table, L.meet_table, L.labels)


def product(L1: FiniteLattice, L2: FiniteLattice, max_size: int = MAX_ELEMENTS) -> FiniteLattice:
    """Componentwise order on pairs; element (i, j) gets index i*|L2| + j."""
    size = L1.size * L2.size
    if size > max_size:
        raise SizeLimit("lattice size", size, max_size)
    n2 = L2.size
    up = []
    meet_rows = []
    join_rows = []
    for a1 in range(L1.size):
        for a2 in range(n2):
            mask = 0
            for b1 in range(L1.size):
                if not L1.le(a1, b1):
                    continue
                for b2 in range(n2):
                    if L2.le(a2, b2):
                        mask |= 1 << (b1 * n2 + b2)
            up.append(mask)
            meet_rows.append(
                tuple(
                    L1.meet(a1, b1) * n2 + L2.meet(a2, b2)
                    for b1 in range(L1.size)
                    for b2 in range(n2)
                )
            )
            join_rows.append(
                tuple(
                    L1.join(a1, b1) * n2 + L2.join(a2, b2)
                    for b1 in range(L1.size)
                    for b2 in range(n2)
                )
            )
    labels = tuple(
        f"({L1.label(a1)},{L2.label(a2)})" for a1 in range(L1.size) for a2 in range(n2)
    )
    return FiniteLattice(size, tuple(up), tuple(meet_rows), tuple(join_rows), labels)


def doubling_extension(L: FiniteLattice, a: int, max_size: int = MAX_ELEMENTS) -> FiniteLattice:
    """The sublattice {(r, i) : i = 0 or r >= a} of L x 2, ordered lexicographically.

    (r, i) <= (s, j) iff r <= s and i <= j.  The result has |L| + |{r : r >= a}|
    elements: a copy of L at level 0 plus a copy of the filter of a at level 1.
    """
    if not 0 <= a < L.size:
        raise InvalidParameter(f"element {a} outside lattice of size {L.size}")
    elems = [(r, 0) for r in range(L.size)]
    elems += [(r, 1) for r in range(L.size) if L.le(a, r)]
    if len(elems) > max_size:
        raise SizeLimit("lattice size", len(elems), max_size)
    index = {e: i for i, e in enumerate(elems)}
    pairs = [
        (index[(r, i)], index[(s, j)])
        for (r, i) in elems
        for (s, j) in elems
        if L.le(r, s) and i <= j
    ]
    labels = tuple(f"({L.label(r)},{i})" for (r, i) in elems)
    return build_lattice(len(elems), pairs, labels=labels, max_size=max_size)


def two_oplus(L: FiniteLattice) -> FiniteLattice:
    """Append a new bottom strictly below the old one; old element i becomes i + 1."""
    pairs = [(0, i + 1) for i in range(L.size)]
    pairs += [(i + 1, j + 1) for (i, j) in L.leq_pairs()]
    labels = ("0*",) + tuple(L.label(i) for i in range(L.size))
    return build_lattice(L.size + 1, pairs, labels=labels)


def ideal_elements(L: FiniteLattice, a: int) -> tuple[int, ...]:
    """The elements of the principal ideal {x : x <= a}, in index order."""
    if not 0 <= a < L.size:
        raise InvalidParameter(f"element {a} outside lattice of size {L.size}")
    return tuple(x for x in range(L.size) if L.le(x, a))


def principal_ideal(L: FiniteLattice, a: int) -> FiniteLattice:
    """The sublattice {x : x <= a} with the induced order, reindexed densely."""
    elems = ideal_elements(L, a)
    index = {e: i for i, e in enumerate(elems)}
    pairs = [(index[x], index[y]) for x in elems for y in elems if L.le(x, y)]
    return build_lattice(len(elems), pairs, labels=tuple(L.label(e) for e in elems))


# ---------------------------------------------------------------------------
# isomorphism and distributivity


@dataclass(frozen=True)
class LatticeEmbedding:
    """An injective meet/join-preserving map; map[i] is the image of source element i."""

    source: FiniteLattice
    target: FiniteLattice
    map: tuple[int, ...]


def check_embedding(e: LatticeEmbedding) -> bool:
    """Re-verify injectivity and meet/join preservation on all pairs."""
    f = e.map
    if len(set(f)) != e.source.size:
        return False
    for x in range(e.source.size):
        for y in range(e.source.size):
            if f[e.source.meet(x, y)] != e.target.meet(f[x], f[y]):
                return False
            if f[e.source.join(x, y)] != e.target.join(f[x], f[y]):
                return False
    return True


def _first_isomorphism(
    rows1: Sequence[tuple[int, ...]], rows2: Sequence[tuple[int, ...]], order: Sequence[int]
) -> Optional[tuple[int, ...]]:
    """The first bijection f (f[x] = image of x) with bit y of rows1[x][k]
    equal to bit f[y] of rows2[f[x]][k] for every relation k and all points
    x, y, or None.  Points are placed in `order`, images tried in increasing
    index, each only among the images with its signature (the size of each
    of its rows).  The relations must be reflexive and closed under
    converse, at the same index on both sides, as (up, down) and
    equivalence relations are, so a new point is tested only against the
    rows of the points already placed.
    """
    n = len(rows1)
    sig1 = [tuple(map(int.bit_count, row)) for row in rows1]
    sig2 = [tuple(map(int.bit_count, row)) for row in rows2]
    if sorted(sig1) != sorted(sig2):
        return None
    with_sig: dict[tuple, int] = {}
    for v, sig in enumerate(sig2):
        with_sig[sig] = with_sig.get(sig, 0) | 1 << v
    f = [0] * n

    def candidates(p: int, free: int) -> int:
        x = order[p]
        cand = free & with_sig[sig1[x]]
        for y in order[:p]:
            for r1, r2 in zip(rows1[y], rows2[f[y]]):
                cand &= r2 if r1 >> x & 1 else ~r2
            if not cand:
                break
        return cand

    # depth-first without recursion: stack[p] holds the untried images of order[p]
    free = (1 << n) - 1
    stack = [candidates(0, free)]
    while stack:
        p = len(stack) - 1
        cand = stack[p]
        if not cand:
            stack.pop()
            if p:
                free |= 1 << f[order[p - 1]]
            continue
        low = cand & -cand
        stack[p] = cand ^ low
        f[order[p]] = low.bit_length() - 1
        if p + 1 == n:
            return tuple(f)
        free ^= low
        stack.append(candidates(p + 1, free))
    return None


def lattice_isomorphism(L1: FiniteLattice, L2: FiniteLattice) -> Optional[tuple[int, ...]]:
    """A meet/join-preserving bijection L1 -> L2 (map[i] = image of i), or None.

    A bijection preserving <= both ways preserves meets and joins, so only
    the order is searched, placing L1's elements by (cover degree
    descending, index) and trying images in increasing index.
    """
    if L1.size != L2.size:
        return None
    deg = [0] * L1.size
    for i, j in L1.covers():
        deg[i] += 1
        deg[j] += 1
    order = sorted(range(L1.size), key=lambda x: (-deg[x], x))

    def rows(L: FiniteLattice) -> list[tuple[int, int]]:
        return list(zip(L.up, _down_masks(L.up, L.size)))

    return _first_isomorphism(rows(L1), rows(L2), order)


@dataclass(frozen=True)
class DistributivityVerdict:
    distributive: bool
    witness: Optional[LatticeEmbedding]
    witness_kind: Optional[str]  # "diamond" or "pentagon"


def is_distributive(L: FiniteLattice, max_host: int = MAX_SUBLATTICE_HOST) -> DistributivityVerdict:
    """Distributive iff L has no sublattice isomorphic to M3 or the pentagon N5.

    By the M3-N5 theorem (Dedekind, Birkhoff) a direct scan of triples
    suffices, so no general sublattice search is run.  It looks first for
    an M3: pairwise incomparable a < b < c (by index) with equal pairwise
    meets m and equal pairwise joins j, returned as (m, a, b, c, j) in
    m_lattice(3) numbering.  Then for an N5: a < b in the order with c
    incomparable to both, a ^ c = b ^ c and a v c = b v c, scanned by
    (a, c, b) and returned as (a ^ c, a, b, c, a v c) in pentagon()
    numbering.  The first hit in index order is the witness.
    """
    if L.size > max_host:
        raise SizeLimit("sublattice search host", L.size, max_host)
    n = L.size
    up, meet, join = L.up, L.meet_table, L.join_table
    down = _down_masks(up, n)
    full = (1 << n) - 1
    incomparable = [full & ~(up[x] | down[x]) for x in range(n)]
    for a in range(n):
        for b in _bits(incomparable[a] & ~((2 << a) - 1)):
            m, j = meet[a][b], join[a][b]
            # c lies in the interval [m, j] and after b
            for c in _bits(incomparable[a] & incomparable[b] & up[m] & down[j] & ~((2 << b) - 1)):
                if meet[a][c] == meet[b][c] == m and join[a][c] == join[b][c] == j:
                    copy = LatticeEmbedding(m_lattice(3), L, (m, a, b, c, j))
                    return DistributivityVerdict(False, copy, "diamond")
    for a in range(n):
        for c in _bits(incomparable[a]):
            m, j = meet[a][c], join[a][c]
            # a < b <= a v c already forces b v c = a v c
            for b in _bits(up[a] & down[j] & incomparable[c] & ~(1 << a)):
                if meet[b][c] == m:
                    copy = LatticeEmbedding(pentagon(), L, (m, a, b, c, j))
                    return DistributivityVerdict(False, copy, "pentagon")
    return DistributivityVerdict(True, None, None)


def satisfies_distributive_law(L: FiniteLattice) -> bool:
    """Direct check of both distributive identities over all triples."""
    meet, join = L.meet_table, L.join_table
    for x in range(L.size):
        mx, jx = meet[x], join[x]
        for y in range(L.size):
            # for every z at once: x ^ (y v z) = (x ^ y) v (x ^ z) and
            # x v (y ^ z) = (x v y) ^ (x v z), read as rows of the tables
            join_of_mxy, meet_of_jxy = join[mx[y]], meet[jx[y]]
            if [mx[v] for v in join[y]] != [join_of_mxy[v] for v in mx]:
                return False
            if [jx[v] for v in meet[y]] != [meet_of_jxy[v] for v in jx]:
                return False
    return True


def join_irreducibles(L: FiniteLattice) -> tuple[int, ...]:
    """Elements with exactly one lower cover (excludes the bottom)."""
    lower_covers = {i: 0 for i in range(L.size)}
    for i, j in L.covers():
        lower_covers[j] += 1
    return tuple(x for x in range(L.size) if lower_covers[x] == 1)


@dataclass(frozen=True)
class BirkhoffVerdict:
    distributive: bool
    join_irreducibles: tuple[int, ...]
    downset_count: int


def birkhoff_oracle(L: FiniteLattice, max_size: int = MAX_ELEMENTS) -> BirkhoffVerdict:
    """Down-set reconstruction test, an independent distributivity oracle.

    Computes the poset of join-irreducibles and counts its down-sets,
    stopping at |L| + 1.  In a finite lattice the canonical map into the
    down-set lattice is always an order embedding, so L is distributive
    iff the count equals |L| exactly.
    """
    if L.size > max_size:
        raise SizeLimit("lattice size", L.size, max_size)
    ji = join_irreducibles(L)
    cap = L.size + 1
    downsets: set[frozenset[int]] = {frozenset()}
    for x in _linear_extension(L, ji):
        below = frozenset(y for y in ji if L.le(y, x) and y != x)
        new = set()
        for d in downsets:
            if below <= d:
                new.add(d | {x})
        downsets |= new
        if len(downsets) > cap:
            return BirkhoffVerdict(False, ji, len(downsets))
    return BirkhoffVerdict(len(downsets) == L.size, ji, len(downsets))


def _linear_extension(L: FiniteLattice, elems: Sequence[int]) -> list[int]:
    """elems (ascending) ordered so that each comes after those below it,
    the smallest available index first; index order when that already works."""
    mask = sum(1 << x for x in elems)
    down = _down_masks(L.up, L.size)
    waiting = {x: bin(down[x] & mask).count("1") - 1 for x in elems}
    ready = [x for x in elems if not waiting[x]]
    order = []
    while ready:
        x = heapq.heappop(ready)
        order.append(x)
        for y in _bits(L.up[x] & mask & ~(1 << x)):
            waiting[y] -= 1
            if not waiting[y]:
                heapq.heappush(ready, y)
    return order


# ---------------------------------------------------------------------------
# equivalenced lattices


@dataclass(frozen=True)
class EquivalencedLattice:
    """A lattice together with an equivalence relation on its element set."""

    lattice: FiniteLattice
    E: EquivalenceRelation

    def __post_init__(self):
        if self.E.ground_size != self.lattice.size:
            raise InvalidParameter("E must be an equivalence relation on the lattice's elements")


# ---------------------------------------------------------------------------
# serialization


def lattice_to_json(L: FiniteLattice) -> dict:
    data: dict = {"size": L.size, "leq": [list(p) for p in L.leq_pairs()]}
    if L.labels is not None:
        data["labels"] = list(L.labels)
    return data


def lattice_from_json(data: dict, max_size: int = MAX_ELEMENTS) -> FiniteLattice:
    """Accepts {"size", "leq", "labels"?, "covers"?}; leq may list cover pairs."""
    if not isinstance(data, dict) or "size" not in data or "leq" not in data:
        raise InvalidParameter("lattice JSON needs 'size' and 'leq'")
    pairs = [(int(a), int(b)) for a, b in data["leq"]]
    labels = data.get("labels")
    return build_lattice(int(data["size"]), pairs, labels=labels, max_size=max_size)


def equivalenced_to_json(EL: EquivalencedLattice) -> dict:
    data = lattice_to_json(EL.lattice)
    data["E"] = [list(p) for p in EL.E.pairs()]
    return data


def equivalenced_from_json(data: dict, max_size: int = MAX_ELEMENTS) -> EquivalencedLattice:
    if "E" not in data:
        raise InvalidParameter("equivalenced lattice JSON needs 'E'")
    lat = lattice_from_json(data, max_size=max_size)
    sets = _UnionFind(lat.size)
    for a, b in data["E"]:
        if not (0 <= int(a) < lat.size and 0 <= int(b) < lat.size):
            raise InvalidParameter(f"E pair ({a}, {b}) outside the element set")
        sets.union(int(a), int(b))
    return EquivalencedLattice(lat, sets.relation())


def lattice_to_dot(L: FiniteLattice, name: str = "lattice") -> str:
    """Hasse diagram in DOT form: cover edges only, bottom drawn at rank 0."""
    lines = [f"digraph {name} {{", "  rankdir=BT;", "  node [shape=circle];"]
    for i in range(L.size):
        lines.append(f'  {i} [label="{L.label(i)}"];')
    for i, j in sorted(L.covers()):
        lines.append(f"  {i} -> {j};")
    lines.append("}")
    return "\n".join(lines) + "\n"
