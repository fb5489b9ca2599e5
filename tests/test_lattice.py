import json
import random
import time

import pytest
from hypothesis import given, strategies as st

from finlat.errors import InvalidParameter, NotALattice, NotAPartialOrder, SizeLimit
from finlat.lattice import (
    BirkhoffVerdict,
    DegenerateParameterWarning,
    EquivalencedLattice,
    LatticeEmbedding,
    birkhoff_oracle,
    boolean_lattice,
    build_lattice,
    chain_lattice,
    check_embedding,
    doubling_extension,
    dual,
    equivalenced_from_json,
    equivalenced_to_json,
    find_sublattice_copy,
    hexagon,
    ideal_elements,
    is_distributive,
    join_irreducibles,
    lattice_from_json,
    lattice_isomorphism,
    lattice_to_dot,
    lattice_to_json,
    m_lattice,
    pentagon,
    principal_ideal,
    product,
    satisfies_distributive_law,
    standard_lattice,
    two_oplus,
    validate_lattice,
)

from oracles import enumerate_labeled_lattices, iso_classes, relabeled


def small_lattices(max_size=5):
    out = []
    for n in range(1, max_size + 1):
        out.extend(enumerate_labeled_lattices(n))
    return out


class TestBuildLattice:
    def test_one_element(self):
        L = build_lattice(1, [])
        assert L.size == 1 and L.bottom == L.top == 0

    def test_diamond_from_covers(self):
        L = build_lattice(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
        assert L.le(0, 3)  # transitive closure
        assert L.meet(1, 2) == 0 and L.join(1, 2) == 3
        assert not validate_lattice(L)

    def test_antisymmetry_failure(self):
        with pytest.raises(NotAPartialOrder) as err:
            build_lattice(2, [(0, 1), (1, 0)])
        assert err.value.witness == (0, 1)

    def test_no_join_detected(self):
        # two incomparable maximal elements above two incomparable minimal ones
        with pytest.raises(NotALattice) as err:
            build_lattice(4, [(0, 2), (0, 3), (1, 2), (1, 3)])
        assert err.value.witness == (0, 1)

    def test_size_budget(self):
        with pytest.raises(SizeLimit):
            build_lattice(10, [], max_size=5)

    def test_bad_index(self):
        with pytest.raises(InvalidParameter):
            build_lattice(2, [(0, 5)])


class TestStandardLattices:
    def test_m3_shape(self):
        L = m_lattice(3)
        assert L.size == 5
        atoms = [x for x in range(5) if L.le(0, x) and x not in (0, 4)]
        assert atoms == [1, 2, 3]
        for a in atoms:
            for b in atoms:
                if a != b:
                    assert not L.le(a, b)

    def test_pentagon_covers(self):
        assert sorted(pentagon().covers()) == [(0, 1), (0, 3), (1, 2), (2, 4), (3, 4)]

    def test_hexagon_covers(self):
        assert sorted(hexagon().covers()) == [(0, 1), (0, 3), (1, 2), (2, 5), (3, 4), (4, 5)]

    def test_boolean1_is_two_chain(self):
        assert lattice_isomorphism(boolean_lattice(1), chain_lattice(2)) is not None

    def test_m_degenerate_flagged(self):
        with pytest.warns(DegenerateParameterWarning):
            L = m_lattice(2)
        assert satisfies_distributive_law(L)
        with pytest.warns(DegenerateParameterWarning):
            m_lattice(1)

    def test_m_zero_rejected(self):
        with pytest.raises(InvalidParameter):
            m_lattice(0)

    def test_standard_parser(self):
        assert standard_lattice("boolean(2)").size == 4
        assert standard_lattice("chain(4)").size == 4
        assert standard_lattice("pentagon").size == 5
        with pytest.raises(InvalidParameter):
            standard_lattice("dodecahedron")

    def test_standard_parser_budget(self):
        for kind, size in [("chain(20)", 20), ("m(9)", 11), ("boolean(4)", 16), ("pentagon", 5), ("hexagon", 6)]:
            assert standard_lattice(kind, max_size=size).size == size
            with pytest.raises(SizeLimit) as info:
                standard_lattice(kind, max_size=size - 1)
            assert (info.value.dimension, info.value.actual, info.value.limit) == ("lattice size", size, size - 1)

    def test_standard_budget_checked_before_building(self):
        start = time.perf_counter()
        for kind in ("chain(1000000000)", "m(1000000000)", "boolean(1000000000)"):
            with pytest.raises(SizeLimit):
                standard_lattice(kind)
        assert time.perf_counter() - start < 0.1
        with pytest.raises(SizeLimit) as info:
            standard_lattice("boolean(64)")
        assert info.value.actual == "2^64"

    def test_boolean_from_covers_matches_all_subset_pairs(self):
        for k in range(6):
            size = 1 << k
            pairs = [(a, b) for a in range(size) for b in range(size) if a & ~b == 0]
            assert boolean_lattice(k) == build_lattice(size, pairs)

    def test_all_standard_validate(self):
        for L in [chain_lattice(4), boolean_lattice(3), m_lattice(4), pentagon(), hexagon()]:
            assert not validate_lattice(L)


class TestDual:
    def test_involution(self):
        for L in [pentagon(), hexagon(), m_lattice(3), boolean_lattice(2)]:
            assert dual(dual(L)) == L
            assert not validate_lattice(dual(L))

    def test_chain_self_dual(self):
        L = chain_lattice(3)
        D = dual(L)
        assert D.le(2, 0) and not D.le(0, 2)
        assert lattice_isomorphism(L, D) is not None

    def test_pentagon_dual_isomorphic(self):
        assert lattice_isomorphism(dual(pentagon()), pentagon()) is not None

    def test_boolean_self_dual(self):
        assert lattice_isomorphism(dual(boolean_lattice(2)), boolean_lattice(2)) is not None

    def test_distributivity_invariant(self):
        for L in small_lattices(5):
            assert is_distributive(L).distributive == is_distributive(dual(L)).distributive


class TestProduct:
    def test_two_by_two_is_diamond(self):
        P = product(chain_lattice(2), chain_lattice(2))
        assert lattice_isomorphism(P, boolean_lattice(2)) is not None

    def test_unit(self):
        L = pentagon()
        assert lattice_isomorphism(product(chain_lattice(1), L), L) is not None

    def test_two_by_three(self):
        P = product(chain_lattice(2), chain_lattice(3))
        assert P.size == 6
        assert is_distributive(P).distributive
        assert not validate_lattice(P)

    def test_budget(self):
        with pytest.raises(SizeLimit):
            product(boolean_lattice(3), boolean_lattice(3), max_size=10)


class TestDoubling:
    def test_chain_at_top(self):
        D = doubling_extension(chain_lattice(2), 1)
        assert lattice_isomorphism(D, chain_lattice(3)) is not None

    def test_one_element_step(self):
        D = doubling_extension(build_lattice(1, []), 0)
        assert lattice_isomorphism(D, chain_lattice(2)) is not None

    def test_size_formula(self):
        for L in [pentagon(), m_lattice(3), boolean_lattice(2)]:
            for a in range(L.size):
                filt = sum(1 for r in range(L.size) if L.le(a, r))
                assert doubling_extension(L, a).size == L.size + filt

    def test_results_validate(self):
        for a in range(5):
            assert not validate_lattice(doubling_extension(pentagon(), a))

    def test_closure_matches_distributive_up_to_seven(self):
        # deeper cut of the generation fact than the acceptance gate's size 6
        max_size = 7
        reached = [build_lattice(1, [])]
        frontier = list(reached)
        while frontier:
            new = []
            for L in frontier:
                for a in range(L.size):
                    D = doubling_extension(L, a)
                    if D.size > max_size:
                        continue
                    if all(
                        lattice_isomorphism(D, M) is None
                        for M in reached
                        if M.size == D.size
                    ):
                        reached.append(D)
                        new.append(D)
            frontier = new
        per_size = {}
        for L in reached:
            per_size[L.size] = per_size.get(L.size, 0) + 1
        # known counts of distributive lattices with n elements
        assert per_size == {1: 1, 2: 1, 3: 1, 4: 2, 5: 3, 6: 5, 7: 8}
        for L in reached:
            assert satisfies_distributive_law(L)


class TestTwoOplus:
    def test_m3(self):
        T = two_oplus(m_lattice(3))
        assert T.size == 6
        assert T.bottom == 0
        # unique atom is the old bottom
        atoms = [j for (i, j) in T.covers() if i == T.bottom]
        assert atoms == [1]

    def test_chain(self):
        assert lattice_isomorphism(two_oplus(chain_lattice(1)), chain_lattice(2)) is not None

    def test_pentagon_stays_nondistributive(self):
        T = two_oplus(pentagon())
        assert T.size == 6
        assert not is_distributive(T).distributive

    def test_old_order_preserved(self):
        L = pentagon()
        T = two_oplus(L)
        for x in range(L.size):
            for y in range(L.size):
                assert L.le(x, y) == T.le(x + 1, y + 1)


class TestSublatticeSearch:
    def test_no_m3_in_boolean3(self):
        assert find_sublattice_copy(boolean_lattice(3), m_lattice(3)) is None

    def test_pentagon_identity(self):
        emb = find_sublattice_copy(pentagon(), pentagon())
        assert emb is not None and emb.map == (0, 1, 2, 3, 4)

    def test_m3_in_m4(self):
        emb = find_sublattice_copy(m_lattice(4), m_lattice(3))
        assert emb is not None
        assert check_embedding(emb)

    def test_embeddings_recheck(self):
        for L in [hexagon(), m_lattice(4), two_oplus(pentagon())]:
            for pattern in [m_lattice(3), pentagon()]:
                emb = find_sublattice_copy(L, pattern)
                if emb is not None:
                    assert check_embedding(emb)

    def test_deterministic(self):
        a = find_sublattice_copy(m_lattice(4), m_lattice(3))
        b = find_sublattice_copy(m_lattice(4), m_lattice(3))
        assert a.map == b.map

    def test_host_budget(self):
        with pytest.raises(SizeLimit):
            find_sublattice_copy(boolean_lattice(3), pentagon(), max_host=4)


class TestDistributivity:
    def test_boolean4(self):
        assert is_distributive(boolean_lattice(4)).distributive

    def test_m3_witness_identity(self):
        v = is_distributive(m_lattice(3))
        assert not v.distributive
        assert v.witness_kind == "diamond"
        assert v.witness.map == (0, 1, 2, 3, 4)

    def test_hexagon_contains_pentagon(self):
        v = is_distributive(hexagon())
        assert not v.distributive and v.witness_kind == "pentagon"
        assert check_embedding(v.witness)

    def test_agrees_with_law(self):
        # the scan reads element numbers, so each lattice is also relabeled
        rng = random.Random(3)
        patterns = {"diamond": m_lattice(3), "pentagon": pentagon()}
        for L0 in small_lattices(6):
            for L in (L0, relabeled(L0, rng), relabeled(L0, rng)):
                v = is_distributive(L)
                assert v.distributive == birkhoff_oracle(L).distributive == satisfies_distributive_law(L)
                if v.distributive:
                    assert v.witness is None and v.witness_kind is None
                else:
                    assert v.witness.source == patterns[v.witness_kind]
                    assert v.witness.target == L
                    assert check_embedding(v.witness)

    def test_host_budget(self):
        with pytest.raises(SizeLimit) as err:
            is_distributive(boolean_lattice(7))
        assert (err.value.dimension, err.value.actual, err.value.limit) == ("sublattice search host", 128, 64)
        with pytest.raises(SizeLimit):
            is_distributive(pentagon(), max_host=4)


class TestBirkhoff:
    def test_chains(self):
        for k in range(1, 6):
            v = birkhoff_oracle(chain_lattice(k))
            assert v.distributive
            assert len(v.join_irreducibles) == k - 1

    def test_m3_counts(self):
        v = birkhoff_oracle(m_lattice(3))
        assert not v.distributive
        assert v.downset_count == 8  # 2^3 down-sets of a 3-antichain

    def test_boolean2(self):
        assert birkhoff_oracle(boolean_lattice(2)).distributive

    def test_any_numbering(self):
        # down-sets are counted along a linear extension, not in index order
        assert birkhoff_oracle(build_lattice(3, [(0, 2), (2, 1)])) == BirkhoffVerdict(True, (1, 2), 3)
        rng = random.Random(11)
        cases = [
            (product(chain_lattice(4), chain_lattice(4)), True),
            (two_oplus(product(chain_lattice(3), chain_lattice(5))), True),
            (two_oplus(two_oplus(hexagon())), False),
        ]
        for L0, dist in cases:
            for _ in range(8):
                L = relabeled(L0, rng)
                v = birkhoff_oracle(L)
                assert v.distributive == dist
                assert v.join_irreducibles == join_irreducibles(L)
                if dist:
                    assert v.downset_count == L.size

    def test_join_irreducibles_definition(self):
        for L in small_lattices(5):
            expected = tuple(
                x
                for x in range(L.size)
                if x != L.bottom
                and all(
                    L.join(a, b) != x
                    for a in range(L.size)
                    for b in range(L.size)
                    if L.le(a, x) and a != x and L.le(b, x) and b != x
                )
            )
            assert join_irreducibles(L) == expected


class TestPrincipalIdeal:
    def test_bottom(self):
        assert principal_ideal(pentagon(), 0).size == 1

    def test_top_gives_whole(self):
        L = pentagon()
        assert lattice_isomorphism(principal_ideal(L, L.top), L) is not None

    def test_pentagon_b_is_three_chain(self):
        I = principal_ideal(pentagon(), 2)
        assert ideal_elements(pentagon(), 2) == (0, 1, 2)
        assert lattice_isomorphism(I, chain_lattice(3)) is not None


class TestEnumerationOracle:
    def test_known_iso_class_counts(self):
        # reference counts of lattices with n elements up to isomorphism
        expected = {1: 1, 2: 1, 3: 1, 4: 2, 5: 5, 6: 15}
        for n, count in expected.items():
            classes = iso_classes(enumerate_labeled_lattices(n))
            assert len(classes) == count

    def test_all_enumerated_validate(self):
        for L in small_lattices(5):
            assert not validate_lattice(L)


class TestSerialization:
    def test_round_trip(self):
        for L in [pentagon(), hexagon(), m_lattice(3), boolean_lattice(2), chain_lattice(4)]:
            data = lattice_to_json(L)
            again = lattice_from_json(json.loads(json.dumps(data)))
            assert again == L
            assert again.labels == L.labels

    def test_covers_input_accepted(self):
        data = {"size": 4, "leq": [[0, 1], [0, 2], [1, 3], [2, 3]], "covers": True}
        L = lattice_from_json(data)
        assert L.le(0, 3)

    def test_equivalenced_round_trip(self):
        from finlat.eqrel import from_class_ids

        EL = EquivalencedLattice(pentagon(), from_class_ids((0, 1, 2, 2, 3)))
        data = equivalenced_to_json(EL)
        again = equivalenced_from_json(json.loads(json.dumps(data)))
        assert again.lattice == EL.lattice and again.E == EL.E

    def test_equivalenced_budget(self):
        from finlat.eqrel import from_class_ids

        data = equivalenced_to_json(EquivalencedLattice(pentagon(), from_class_ids((0, 1, 2, 2, 3))))
        assert equivalenced_from_json(data, max_size=5).lattice == pentagon()
        with pytest.raises(SizeLimit):
            equivalenced_from_json(data, max_size=4)

    def test_equivalenced_pairs_merge_transitively(self):
        data = {"size": 5, "leq": [[0, 1], [0, 2], [0, 3], [1, 4], [2, 4], [3, 4]], "E": [[1, 2], [3, 2]]}
        assert equivalenced_from_json(data).E.classes() == ((0,), (1, 2, 3), (4,))

    def test_dot_golden(self):
        import pathlib

        golden = pathlib.Path(__file__).parent / "golden"
        b2 = lattice_from_json(json.load(open(pathlib.Path(__file__).parent / "data" / "b2.json")))
        cases = [("b2", b2), ("m3", m_lattice(3)), ("n5", pentagon()), ("h", hexagon())]
        for name, L in cases:
            assert lattice_to_dot(L) == (golden / f"{name}.dot").read_text()

    def test_bad_json(self):
        with pytest.raises(InvalidParameter):
            lattice_from_json({"size": 3})


@given(st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=6))
def test_product_size_property(a, b):
    P = product(chain_lattice(a), chain_lattice(b))
    assert P.size == a * b
    assert is_distributive(P).distributive


@given(
    st.integers(min_value=1, max_value=5),
    st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), max_size=12),
)
def test_build_lattice_total(size, pairs):
    # arbitrary input either builds a valid lattice or raises a typed error
    pairs = [(a % size, b % size) for a, b in pairs]
    try:
        L = build_lattice(size, pairs)
    except (NotAPartialOrder, NotALattice):
        return
    assert not validate_lattice(L)
