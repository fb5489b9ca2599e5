import pytest

from finlat.diversity import ReasonableVerdict, is_reasonable
from finlat.errors import SizeLimit
from finlat.eqrel import all_partitions, discrete_eq, from_class_ids
from finlat.lattice import (
    EquivalencedLattice,
    boolean_lattice,
    chain_lattice,
    ideal_elements,
    m_lattice,
    pentagon,
)

from oracles import (
    enumerate_labeled_lattices,
    iso_classes,
    oracle_first_witness_order,
    oracle_size_obstruction,
)


class TestReasonable:
    def test_pentagon_b_c_unreasonable(self):
        EL = EquivalencedLattice(pentagon(), from_class_ids((0, 1, 2, 2, 3)))
        verdict = is_reasonable(EL)
        assert not verdict.reasonable
        assert verdict.obstruction == (2, 3)  # ideal sizes 3 vs 2

    def test_fast_path_and_exhaustive_agree(self):
        EL = EquivalencedLattice(pentagon(), from_class_ids((0, 1, 2, 2, 3)))
        assert is_reasonable(EL, fast_path=False).reasonable is False

    def test_equality_always_reasonable(self):
        for L in [pentagon(), m_lattice(3), boolean_lattice(2), chain_lattice(4)]:
            EL = EquivalencedLattice(L, discrete_eq(L.size))
            verdict = is_reasonable(EL)
            assert verdict.reasonable
            assert verdict.witness_order == tuple(range(L.size))

    def test_b2_atoms_related(self):
        EL = EquivalencedLattice(boolean_lattice(2), from_class_ids((0, 1, 1, 2)))
        verdict = is_reasonable(EL)
        assert verdict.reasonable and verdict.witness_order is not None

    def test_m3_two_atoms_related(self):
        EL = EquivalencedLattice(m_lattice(3), from_class_ids((0, 1, 1, 2, 3)))
        assert is_reasonable(EL).reasonable

    def test_chain_distinct_levels_unreasonable(self):
        # relating elements at different heights of a chain fails on ideal sizes
        EL = EquivalencedLattice(chain_lattice(3), from_class_ids((0, 1, 1)))
        verdict = is_reasonable(EL)
        assert not verdict.reasonable and verdict.obstruction == (1, 2)

    def test_witness_order_reverifies(self):
        EL = EquivalencedLattice(boolean_lattice(2), from_class_ids((0, 1, 1, 2)))
        verdict = is_reasonable(EL)
        order = verdict.witness_order
        position = {e: i for i, e in enumerate(order)}
        L = EL.lattice
        for a in range(L.size):
            for b in range(L.size):
                if a != b and EL.E.relates(a, b):
                    ia = sorted(ideal_elements(L, a), key=position.__getitem__)
                    ib = sorted(ideal_elements(L, b), key=position.__getitem__)
                    assert len(ia) == len(ib)
                    assert all(EL.E.relates(x, y) for x, y in zip(ia, ib))

    def test_budget(self):
        L = boolean_lattice(4)
        with pytest.raises(SizeLimit):
            is_reasonable(EquivalencedLattice(L, discrete_eq(L.size)))

    def test_cardinality_obstructions_verified_exhaustively(self):
        # whenever the fast path fires, the exhaustive search agrees
        cases = [
            EquivalencedLattice(pentagon(), from_class_ids((0, 1, 2, 2, 3))),
            EquivalencedLattice(chain_lattice(3), from_class_ids((0, 1, 1))),
            EquivalencedLattice(chain_lattice(4), from_class_ids((0, 0, 1, 2))),
        ]
        for EL in cases:
            fast = is_reasonable(EL)
            slow = is_reasonable(EL, fast_path=False)
            assert fast.reasonable is False and slow.reasonable is False

    def test_equality_reasonable_on_all_small_lattices(self):
        for n in range(1, 6):
            for L in iso_classes(enumerate_labeled_lattices(n)):
                EL = EquivalencedLattice(L, discrete_eq(L.size))
                assert is_reasonable(EL).reasonable

    def test_fast_path_never_flips_verdict(self):
        from finlat.eqrel import all_partitions

        for L in [boolean_lattice(2), chain_lattice(4), m_lattice(3), pentagon()]:
            for E in all_partitions(L.size):
                EL = EquivalencedLattice(L, E)
                assert (
                    is_reasonable(EL).reasonable
                    == is_reasonable(EL, fast_path=False).reasonable
                )

    def test_invariant_under_automorphism(self):
        # pushing E through any atom permutation of the diamond-of-three
        # (each is a lattice automorphism) must not change the verdict
        from itertools import permutations

        from finlat.eqrel import permute_eq

        L = m_lattice(3)
        for E in [from_class_ids((0, 1, 1, 2, 3)), from_class_ids((0, 1, 1, 1, 2))]:
            base = is_reasonable(EquivalencedLattice(L, E)).reasonable
            for atoms in permutations((1, 2, 3)):
                perm = (0,) + atoms + (4,)
                moved = permute_eq(E, perm)
                assert is_reasonable(EquivalencedLattice(L, moved)).reasonable == base


class TestAgainstOracle:
    """Verdict, witness order and obstruction, with and without the fast
    path, equal those of trying every permutation."""

    @staticmethod
    def check(L, E):
        order = oracle_first_witness_order(L, E.class_id)
        obstruction = oracle_size_obstruction(L, E.class_id)
        slow = ReasonableVerdict(order is not None, order, None)
        fast = ReasonableVerdict(False, None, obstruction) if obstruction else slow
        EL = EquivalencedLattice(L, E)
        assert is_reasonable(EL) == fast
        assert is_reasonable(EL, fast_path=False) == slow

    def test_every_lattice_up_to_five_elements_and_partition(self):
        for n in range(1, 6):
            for L in enumerate_labeled_lattices(n):
                for E in all_partitions(n):
                    self.check(L, E)

    def test_boolean3_partitions_past_the_size_check(self):
        # equal ideal sizes on every E-pair, so the fast path cannot decide;
        # 13 of these 25 fail the full scan
        L = boolean_lattice(3)
        sizes = [len(ideal_elements(L, a)) for a in range(L.size)]
        for E in all_partitions(L.size):
            if all(sizes[a] == sizes[b] for a, b in E.pairs()):
                self.check(L, E)
