"""Reasonableness of equivalenced lattices.

An equivalenced lattice (L, E) is reasonable when some single linear order
on the elements makes the principal ideals of any two E-related elements
order-isomorphic through an E-compatible map.  Between two finite linear
orders the order isomorphism is unique (sort and match positionally), so
each candidate order is cheap to check; the search over all |L|! orders is
exhaustive within a budget.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from typing import Optional

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

    for order in permutations(range(L.size)):
        position = {e: i for i, e in enumerate(order)}
        ok = True
        for a, b in pairs:
            ia, ib = ideals[a], ideals[b]
            if len(ia) != len(ib):
                ok = False
                break
            sa = sorted(ia, key=position.__getitem__)
            sb = sorted(ib, key=position.__getitem__)
            if any(not EL.E.relates(x, y) for x, y in zip(sa, sb)):
                ok = False
                break
        if ok:
            return ReasonableVerdict(True, order, None)
    return ReasonableVerdict(False, None, None)
