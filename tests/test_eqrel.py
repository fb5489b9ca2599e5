import pytest
from hypothesis import given, strategies as st

from finlat.eqrel import (
    EquivalenceRelation,
    all_partitions,
    bell_number,
    discrete_eq,
    eq_from_json,
    eq_lattice,
    eq_stats,
    eq_to_json,
    from_class_ids,
    from_classes,
    join_eq,
    kernel_of,
    meet_eq,
    partition_label,
    permute_eq,
    refinement_lattice,
    refines,
    restrict_eq,
    restricted_growth_strings,
    trivial_eq,
)
from finlat.errors import EmptySubset, GroundMismatch, InvalidParameter, SizeLimit


class TestConstruction:
    def test_canonical_enforced(self):
        with pytest.raises(InvalidParameter):
            EquivalenceRelation(3, (1, 0, 0))

    def test_from_class_ids_canonicalizes(self):
        assert from_class_ids((5, 2, 5)).class_id == (0, 1, 0)

    def test_from_classes(self):
        t = from_classes(4, [[0, 2], [1, 3]])
        assert t.class_id == (0, 1, 0, 1)
        with pytest.raises(InvalidParameter):
            from_classes(3, [[0, 1]])
        with pytest.raises(InvalidParameter):
            from_classes(3, [[0, 1], [1, 2]])

    def test_kernel(self):
        assert kernel_of([5, 5, 5]).is_trivial
        assert kernel_of([1, 2, 3]).is_discrete
        assert kernel_of([7, 9, 7, 9]).classes() == ((0, 2), (1, 3))
        with pytest.raises(InvalidParameter):
            kernel_of([])


class TestLatticeOps:
    def test_identities(self):
        x = from_class_ids((0, 0, 1, 2))
        assert meet_eq(trivial_eq(4), x) == x
        assert join_eq(discrete_eq(4), x) == x

    def test_join_transitive_closure(self):
        a = from_classes(4, [[0, 1], [2], [3]])
        b = from_classes(4, [[1, 2], [0], [3]])
        assert join_eq(a, b) == from_classes(4, [[0, 1, 2], [3]])

    def test_projection_kernels_meet_discrete(self):
        points = [(x, y) for x in range(4) for y in range(x + 1, 4)]
        p1 = kernel_of([x for x, _ in points])
        p2 = kernel_of([y for _, y in points])
        assert meet_eq(p1, p2).is_discrete

    def test_exhaustive_lattice_laws(self):
        # commutativity, associativity, idempotence, absorption over ground <= 4
        for n in range(1, 5):
            rels = list(all_partitions(n))
            for a in rels:
                assert meet_eq(a, a) == a and join_eq(a, a) == a
                for b in rels:
                    assert meet_eq(a, b) == meet_eq(b, a)
                    assert join_eq(a, b) == join_eq(b, a)
                    assert meet_eq(a, join_eq(a, b)) == a
                    assert join_eq(a, meet_eq(a, b)) == a
                    for c in rels:
                        assert meet_eq(a, meet_eq(b, c)) == meet_eq(meet_eq(a, b), c)
                        assert join_eq(a, join_eq(b, c)) == join_eq(join_eq(a, b), c)

    def test_exhaustive_laws_ground_five_via_lattice(self):
        # ground 5 exhaustively: meet_eq/join_eq must match the validated
        # Eq(5) lattice tables on every pair, and those tables satisfy all
        # the laws (validate_lattice re-checks them on every triple)
        from finlat.lattice import validate_lattice

        lat, parts = eq_lattice(5)
        assert not validate_lattice(lat)
        index = {t: i for i, t in enumerate(parts)}
        for i, a in enumerate(parts):
            for j, b in enumerate(parts):
                assert index[meet_eq(a, b)] == lat.meet(i, j)
                assert index[join_eq(a, b)] == lat.join(i, j)

    def test_bounds_are_extreme(self):
        for t in all_partitions(4):
            assert refines(discrete_eq(4), t)
            assert refines(t, trivial_eq(4))

    def test_meet_is_glb_and_join_is_lub(self):
        rels = list(all_partitions(4))
        for a in rels:
            for b in rels:
                m = meet_eq(a, b)
                assert refines(m, a) and refines(m, b)
                j = join_eq(a, b)
                assert refines(a, j) and refines(b, j)
                for c in rels:
                    if refines(c, a) and refines(c, b):
                        assert refines(c, m)
                    if refines(a, c) and refines(b, c):
                        assert refines(j, c)

    def test_ground_mismatch(self):
        with pytest.raises(GroundMismatch):
            meet_eq(trivial_eq(3), trivial_eq(4))


class TestRestrict:
    def test_discrete_and_trivial(self):
        assert restrict_eq(discrete_eq(5), [1, 3]).is_discrete
        assert restrict_eq(trivial_eq(5), [0, 2, 4]).is_trivial

    def test_pair_classes(self):
        t = from_classes(4, [[0, 1], [2, 3]])
        assert restrict_eq(t, [1, 2]).is_discrete

    def test_empty_rejected(self):
        with pytest.raises(EmptySubset):
            restrict_eq(trivial_eq(3), [])

    def test_commutes_with_meet_exhaustive(self):
        from itertools import combinations

        rels = list(all_partitions(4))
        subsets = [s for k in range(1, 5) for s in combinations(range(4), k)]
        for a in rels:
            for b in rels:
                m = meet_eq(a, b)
                for Y in subsets:
                    assert restrict_eq(m, Y) == meet_eq(restrict_eq(a, Y), restrict_eq(b, Y))


class TestStats:
    def test_trivial(self):
        assert eq_stats(trivial_eq(9)) == eq_stats(trivial_eq(9)).__class__(1, True, False, (9,))

    def test_discrete(self):
        s = eq_stats(discrete_eq(3))
        assert (s.num_classes, s.is_trivial, s.is_discrete) == (3, False, True)
        assert s.class_size_multiset == (1, 1, 1)

    def test_projection_kernel(self):
        points = [(x, y) for x in range(4) for y in range(x + 1, 4)]
        s = eq_stats(kernel_of([x for x, _ in points]))
        assert (s.num_classes, s.class_size_multiset) == (3, (3, 2, 1))


class TestEnumeration:
    def test_bell_numbers(self):
        assert [bell_number(n) for n in range(7)] == [1, 1, 2, 5, 15, 52, 203]

    def test_partition_counts_match_bell(self):
        for n in range(1, 7):
            assert sum(1 for _ in all_partitions(n)) == bell_number(n)

    def test_lex_order_and_uniqueness(self):
        seen = list(restricted_growth_strings(4))
        assert seen == sorted(seen) and len(seen) == len(set(seen))

    def test_eq_lattice_small(self):
        lat, parts = eq_lattice(3)
        assert lat.size == 5
        assert not any(
            refines(parts[i], parts[j]) != lat.le(i, j)
            for i in range(5)
            for j in range(5)
        )

    def test_refinement_lattice_of_a_subfamily(self):
        parts = [from_class_ids(ids) for ids in ((0, 1, 2, 3), (0, 0, 1, 1), (0, 1, 0, 1), (0, 0, 0, 0))]
        lat = refinement_lattice(parts)
        assert lat.labels == tuple(partition_label(t) for t in parts)
        assert all(lat.le(i, j) == refines(parts[i], parts[j]) for i in range(4) for j in range(4))

    def test_eq_lattice_budget(self):
        with pytest.raises(SizeLimit):
            eq_lattice(6)


class TestJson:
    def test_round_trip(self):
        for t in all_partitions(4):
            assert eq_from_json(eq_to_json(t)) == t

    def test_bad_input(self):
        with pytest.raises(InvalidParameter):
            eq_from_json({"ground": 3})

    def test_ground_must_count_the_listed_points(self):
        for ground, classes in ((10**12, [[0]]), (3, [[0], [2]]), (2, [[0], [1], [2]])):
            with pytest.raises(InvalidParameter, match=f"ground {ground} but the classes list"):
                eq_from_json({"ground": ground, "classes": classes})
        # the counts agree, so the per-point checks decide
        with pytest.raises(InvalidParameter, match="appears in two classes"):
            eq_from_json({"ground": 3, "classes": [[0, 1], [1]]})


@given(st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=8))
def test_kernel_canonical_property(values):
    t = kernel_of(values)
    assert t.class_id == from_class_ids(t.class_id).class_id
    assert t.num_classes == len(set(values))


@given(st.permutations(list(range(5))))
def test_permute_preserves_stats(perm):
    t = from_class_ids((0, 0, 1, 2, 1))
    assert eq_stats(permute_eq(t, perm)).class_size_multiset == eq_stats(t).class_size_multiset
