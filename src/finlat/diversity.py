"""Reasonableness of equivalenced lattices.

An equivalenced lattice (L, E) is reasonable when some single linear order
on the elements makes the principal ideals of any two E-related elements
order-isomorphic through an E-compatible map.  Between two finite linear
orders the order isomorphism is unique (sort and match positionally), so
an order witnesses reasonableness iff, for every E-pair, the j-th elements
of the two ideals are E-related for every j.  The search builds the order
one element at a time, smallest unused element first, and backtracks as
soon as a matched couple is not E-related; it is exhaustive within a
budget and finds the lexicographically first witness.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import SizeLimit
from .lattice import EquivalencedLattice, ideal_elements

MAX_ORDER_ELEMENTS = 8


@dataclass(frozen=True)
class ReasonableVerdict:
    reasonable: bool
    witness_order: Optional[tuple[int, ...]]  # elements listed smallest first
    obstruction: Optional[tuple[int, int]]  # E-pair with mismatched ideal sizes


def is_reasonable(
    EL: EquivalencedLattice,
    max_elements: int = MAX_ORDER_ELEMENTS,
    fast_path: bool = True,
) -> ReasonableVerdict:
    """Search for a witnessing linear order, first in lexicographic order.

    The fast path rejects immediately when two E-related elements have
    principal ideals of different sizes (no order isomorphism can exist);
    disable it to force the exhaustive search, which must agree.
    """
    L = EL.lattice
    if L.size > max_elements:
        raise SizeLimit("reasonableness lattice size", L.size, max_elements)
    pairs = EL.E.pairs()
    ideals = {a: ideal_elements(L, a) for a in range(L.size)}
    if fast_path:
        for a, b in pairs:
            if len(ideals[a]) != len(ideals[b]):
                return ReasonableVerdict(False, None, (a, b))
    order = _first_witness_order(L.size, [(ideals[a], ideals[b]) for a, b in pairs], EL.E.class_id)
    return ReasonableVerdict(order is not None, order, None)


def _first_witness_order(
    size: int, ideal_pairs: Sequence[tuple[Sequence[int], Sequence[int]]], class_id: Sequence[int]
) -> Optional[tuple[int, ...]]:
    """The lexicographically first order of {0..size-1} under which the two
    ideals of every pair have equal sizes and E-related j-th elements.

    Elements placed so far come first in every completion, so the placed
    members of an ideal are its first members and a couple is final once
    both of its members are placed: a couple whose members lie in different
    classes rules out the whole subtree.
    """
    if any(len(I) != len(J) for I, J in ideal_pairs):
        return None
    # sides[e]: for each ideal containing e, its placed members and those of its partner
    sides: list[list[tuple[list[int], list[int]]]] = [[] for _ in range(size)]
    for I, J in ideal_pairs:
        placed_I: list[int] = []
        placed_J: list[int] = []
        for e in I:
            sides[e].append((placed_I, placed_J))
        for e in J:
            sides[e].append((placed_J, placed_I))
    order: list[int] = []
    unused = [True] * size

    def fits(e: int) -> bool:
        """Placing e next couples it only with elements of its own class."""
        return all(
            len(mine) >= len(other) or class_id[other[len(mine)]] == class_id[e]
            for mine, other in sides[e]
        )

    def extend() -> bool:
        if len(order) == size:
            return True
        for e in range(size):
            if unused[e] and fits(e):
                unused[e] = False
                order.append(e)
                for mine, _ in sides[e]:
                    mine.append(e)
                if extend():
                    return True
                for mine, _ in sides[e]:
                    mine.pop()
                order.pop()
                unused[e] = True
        return False

    return tuple(order) if extend() else None
