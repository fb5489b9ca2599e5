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
    FiniteLattice,
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

from oracles import (
    DERIVED_LAWS,
    enumerate_labeled_lattices,
    iso_classes,
    oracle_build_outcome,
    oracle_lattice_isomorphism,
    oracle_lattice_problems,
    relabeled,
)


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

    def test_cycle_witness_is_first_pair(self):
        # the 3-cycle 1 -> 3 -> 2 -> 1: (1, 2) comes before (1, 3) and (2, 3)
        with pytest.raises(NotAPartialOrder) as err:
            build_lattice(4, [(1, 3), (3, 2), (2, 1)])
        assert err.value.witness == (1, 2)

    def test_witnesses_equal_oracle_on_seeded_pairs(self):
        rng = random.Random(20261018)
        seen = {"order": 0, "lattice": 0, "ok": 0}
        for _ in range(3000):
            size = rng.randint(1, 8)
            pairs = [(rng.randrange(size), rng.randrange(size)) for _ in range(rng.randint(0, 10))]
            if rng.random() < 0.7:
                # orient along a random numbering, so most lists are acyclic
                pos = rng.sample(range(size), size)
                pairs = [(a, b) if pos[a] <= pos[b] else (b, a) for a, b in pairs]
                if rng.random() < 0.6:
                    # add a least and a greatest element, so many orders are lattices
                    low, high = pos.index(0), pos.index(size - 1)
                    pairs += [(low, k) for k in range(size)] + [(k, high) for k in range(size)]
                    rng.shuffle(pairs)
            expected = oracle_build_outcome(size, pairs)
            seen[expected[0]] += 1
            if expected[0] == "order":
                with pytest.raises(NotAPartialOrder) as err:
                    build_lattice(size, pairs)
                assert err.value.witness == expected[1], (size, pairs)
            elif expected[0] == "lattice":
                with pytest.raises(NotALattice) as err:
                    build_lattice(size, pairs)
                assert (err.value.witness, err.value.kind) == expected[1:], (size, pairs)
            else:
                L = build_lattice(size, pairs)
                _, le, meet, join = expected
                assert [[L.le(i, j) for j in range(size)] for i in range(size)] == le
                assert [list(row) for row in L.meet_table] == meet
                assert [list(row) for row in L.join_table] == join
        assert min(seen.values()) >= 200, seen

    def test_label_count_refused_before_closure(self):
        pairs = [(i, i + 1) for i in range(2047)]
        start = time.perf_counter()
        with pytest.raises(InvalidParameter, match="labels length must equal size"):
            build_lattice(2048, pairs, labels=("x",))
        assert time.perf_counter() - start < 0.1

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


class TestIsomorphism:
    def test_equals_oracle_on_all_small_lattices(self):
        # every labelled lattice with at most 6 elements, against two seeded
        # relabellings and against one lattice of each isomorphism class of
        # its size, all but one of which are not isomorphic to it
        rng = random.Random(8)
        for n in range(1, 7):
            lattices = list(enumerate_labeled_lattices(n))
            classes = iso_classes(lattices)
            for L in lattices:
                for M in [relabeled(L, rng), relabeled(L, rng)] + classes:
                    for A, B in ((L, M), (M, L)):
                        assert lattice_isomorphism(A, B) == oracle_lattice_isomorphism(A, B)

    def test_first_map_follows_cover_degree_order(self):
        # the automorphism swaps 2 with 3 and 4 with 5, and 4 has more covers
        # than 2, so which map comes first depends on the order of placement
        L = build_lattice(7, [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5), (2, 4), (3, 5), (4, 6), (5, 6)])
        rng = random.Random(1)
        for _ in range(4):
            M = relabeled(L, rng)
            for A, B in ((L, M), (M, L)):
                assert lattice_isomorphism(A, B) == oracle_lattice_isomorphism(A, B)

    def test_sizes_differ(self):
        assert lattice_isomorphism(pentagon(), hexagon()) is None

    def test_b2_b2_c3_onto_itself(self):
        L = product(product(boolean_lattice(2), boolean_lattice(2)), chain_lattice(3))
        start = time.perf_counter()
        f = lattice_isomorphism(L, L)
        assert time.perf_counter() - start < 0.5
        assert f is not None and check_embedding(LatticeEmbedding(L, L, f))


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


def _same(got, expected):
    # FiniteLattice equality ignores labels, so compare them as well
    return (got.up, got.meet_table, got.join_table, got.labels) == (
        expected.up, expected.meet_table, expected.join_table, expected.labels)


# every labelled lattice with at most 5 elements, then the dual of each, in
# which index order runs against the order, then two with labels
SMALL_AND_DUALS = small_lattices(5) + [dual(L) for L in small_lattices(5)] + [pentagon(), m_lattice(3)]


class TestConstructionsEqualBuildLattice:
    # each construction against build_lattice on its order worked out from L.le
    lattices = SMALL_AND_DUALS

    def test_product(self):
        for L1 in self.lattices:
            for L2 in self.lattices:
                n2 = L2.size
                pairs = [
                    (a1 * n2 + a2, b1 * n2 + b2)
                    for a1 in L1.elements() for a2 in L2.elements()
                    for b1 in L1.elements() for b2 in L2.elements()
                    if L1.le(a1, b1) and L2.le(a2, b2)
                ]
                labels = [f"({L1.label(a1)},{L2.label(a2)})" for a1 in L1.elements() for a2 in L2.elements()]
                assert _same(product(L1, L2), build_lattice(L1.size * n2, pairs, labels))

    def test_two_oplus(self):
        for L in self.lattices:
            pairs = [(0, i + 1) for i in L.elements()]
            pairs += [(i + 1, j + 1) for i in L.elements() for j in L.elements() if L.le(i, j)]
            labels = ["0*"] + [L.label(i) for i in L.elements()]
            assert _same(two_oplus(L), build_lattice(L.size + 1, pairs, labels))

    def test_principal_ideal(self):
        for L in self.lattices:
            for a in L.elements():
                elems = [x for x in L.elements() if L.le(x, a)]
                pairs = [(i, j) for i, x in enumerate(elems) for j, y in enumerate(elems) if L.le(x, y)]
                expected = build_lattice(len(elems), pairs, [L.label(x) for x in elems])
                assert _same(principal_ideal(L, a), expected)

    def test_doubling_extension(self):
        for L in self.lattices:
            for a in L.elements():
                elems = [(r, 0) for r in L.elements()] + [(r, 1) for r in L.elements() if L.le(a, r)]
                pairs = [
                    (k, m)
                    for k, (r, i) in enumerate(elems)
                    for m, (s, j) in enumerate(elems)
                    if L.le(r, s) and i <= j
                ]
                expected = build_lattice(len(elems), pairs, [f"({L.label(r)},{i})" for r, i in elems])
                assert _same(doubling_extension(L, a), expected)

    def test_dual(self):
        for L in self.lattices:
            pairs = [(j, i) for i in L.elements() for j in L.elements() if L.le(i, j)]
            assert _same(dual(L), build_lattice(L.size, pairs, L.labels))


class TestDownSetsAndCovers:
    lattices = SMALL_AND_DUALS

    def test_down_sets(self):
        for L in self.lattices:
            for j in L.elements():
                assert L.down[j] == sum(1 << i for i in L.elements() if L.le(i, j))

    def test_covers_and_leq_pairs_in_index_order(self):
        for L in self.lattices:
            n = L.size
            leq = [(i, j) for i in range(n) for j in range(n) if L.le(i, j)]
            covers = [
                (i, j) for i, j in leq
                if i != j and not any(L.le(i, k) and L.le(k, j) for k in range(n) if k not in (i, j))
            ]
            assert list(L.leq_pairs()) == leq
            assert list(L.covers()) == covers

    def test_reading_down_keeps_equality_and_hash(self):
        for L in self.lattices:
            twin = FiniteLattice(L.size, L.up, L.meet_table, L.join_table, L.labels)
            before = hash(L)
            L.down
            assert hash(L) == before == hash(twin)
            assert L == twin and twin == L


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


def _mutated(L, rng):
    """L with one to three random up bits flipped or table cells overwritten;
    no construction check runs, so the object may violate anything."""
    n = L.size
    up = list(L.up)
    meet = [list(row) for row in L.meet_table]
    join = [list(row) for row in L.join_table]
    for _ in range(rng.randint(1, 3)):
        i, j, kind = rng.randrange(n), rng.randrange(n), rng.randrange(3)
        if kind == 0:
            up[i] ^= 1 << j
        else:
            (meet if kind == 1 else join)[i][j] = rng.randrange(n)
    return FiniteLattice(n, tuple(up), tuple(map(tuple, meet)), tuple(map(tuple, join)))


class TestValidateLattice:
    def test_equals_oracle_on_intact_and_mutated(self):
        rng = random.Random(9)
        bases = small_lattices(6)
        bases += [relabeled(L, rng) for L in bases]
        cases = list(bases)
        while len(cases) < len(bases) + 10_000:
            cases.append(_mutated(rng.choice(bases), rng))
        invalid = 0
        for L in cases:
            expected = oracle_lattice_problems(L)
            got = validate_lattice(L)
            assert got == [p for p in expected if not p.startswith(DERIVED_LAWS)], L
            assert bool(got) == bool(expected), L
            invalid += bool(got)
        assert invalid > 5000

    def test_missing_meet_stored_as_none_is_reported(self):
        # 0, 1 < 2 with no meet of 0 and 1: a table holding None there agrees
        # with the down-set lookup but names no element
        meet = ((0, None, 0), (None, 1, 1), (0, 1, 2))
        join = ((0, 2, 2), (2, 1, 2), (2, 2, 2))
        broken = FiniteLattice(3, (0b101, 0b110, 0b100), meet, join)
        assert validate_lattice(broken) == [
            "meet table wrong at (0, 1)", "meet table wrong at (1, 0)",
        ]

    def test_boolean_7_is_quadratic(self):
        L = boolean_lattice(7)
        start = time.perf_counter()
        assert validate_lattice(L) == []
        assert time.perf_counter() - start < 0.3


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
