import json
import pathlib
import random

import pytest
from hypothesis import given, strategies as st

from finlat.eqrel import (
    all_partitions,
    discrete_eq,
    eq_stats,
    from_class_ids,
    kernel_of,
    meet_eq,
    restrict_eq,
    trivial_eq,
)
from finlat.errors import EmptySubset, InvalidParameter, SizeLimit
from finlat.lattice import DegenerateParameterWarning, chain_lattice, m_lattice
from finlat.ranked import verify_rank_axioms
from finlat.reps import (
    FAMILY_NOTE,
    Representation,
    ThresholdRankContext,
    canonical_for,
    check_ranked_rep,
    cpp_certificate_json,
    family_closure_check,
    is_0cpp,
    is_ncpp,
    is_representation,
    m3_base_rep,
    pairs_b2_rep,
    power_rep,
    relabel_rep,
    rep_from_json,
    rep_to_json,
    reps_isomorphic,
    restrict_rep,
    verify_pseudo_rep,
)

from oracles import blocks_set, oracle_first_isomorphism, oracle_ncpp, oracle_ncpp_certificate

DATA = pathlib.Path(__file__).parent / "data"


def chain2_rep(ground: int) -> Representation:
    return Representation(chain_lattice(2), ground, (trivial_eq(ground), discrete_eq(ground)))


class TestPseudoRep:
    def test_m3_base_valid(self):
        assert verify_pseudo_rep(m3_base_rep()).valid

    def test_m3_base_images(self):
        R = m3_base_rep()
        assert R.alpha[1].classes() == ((0,), (1, 2))
        assert R.alpha[2].classes() == ((0, 2), (1,))
        assert R.alpha[3].classes() == ((0, 1), (2,))

    def test_swapped_boundaries_invalid(self):
        R = m3_base_rep()
        swapped = Representation(
            R.lattice, 3, (R.alpha[4],) + R.alpha[1:4] + (R.alpha[0],)
        )
        report = verify_pseudo_rep(swapped)
        assert not report.valid
        laws = {law for law, _ in report.violations}
        assert {"bottom_not_trivial", "top_not_discrete"} <= laws

    def test_pairs_valid(self):
        assert verify_pseudo_rep(pairs_b2_rep(4)).valid

    def test_pairs_meet_is_discrete(self):
        R = pairs_b2_rep(4)
        assert meet_eq(R.alpha[1], R.alpha[2]).is_discrete


class TestInjectivity:
    def test_pairs_b2_3(self):
        assert is_representation(pairs_b2_rep(3)).injective

    def test_collapse_detected(self):
        R = m3_base_rep()
        collapsed = Representation(R.lattice, 3, (R.alpha[0],) + (R.alpha[0],) + R.alpha[2:])
        verdict = is_representation(collapsed)
        assert not verdict.injective and verdict.witness == (0, 1)

    def test_power_injective(self):
        assert is_representation(power_rep(m3_base_rep(), 2)).injective


class TestRestrict:
    def test_full_ground_identity(self):
        R = pairs_b2_rep(4)
        assert restrict_rep(R, range(R.ground_size)) == R

    def test_first_coordinate_zero(self):
        R = pairs_b2_rep(4)
        sub = [i for i, (x, y) in enumerate(R.point_decode) if x == 0]
        restricted = restrict_rep(R, sub)
        assert restricted.alpha[1].is_trivial
        assert not is_representation(restricted).injective

    def test_single_point_degenerate(self):
        R = pairs_b2_rep(4)
        restricted = restrict_rep(R, [0])
        assert restricted.alpha[0] == restricted.alpha[3]

    def test_empty_rejected(self):
        with pytest.raises(EmptySubset):
            restrict_rep(m3_base_rep(), [])

    def test_restriction_always_pseudo(self):
        from itertools import combinations

        R = pairs_b2_rep(3)
        for k in range(1, 4):
            for Y in combinations(range(3), k):
                assert verify_pseudo_rep(restrict_rep(R, Y)).valid


class TestIsomorphism:
    def test_self_identity(self):
        R = m3_base_rep()
        assert reps_isomorphic(R, R) == (0, 1, 2)

    def test_relabel_found(self):
        R = pairs_b2_rep(3)
        perm = (2, 0, 1)
        f = reps_isomorphic(R, relabel_rep(R, perm))
        assert f is not None
        # verify the bijection honours every image relation
        S = relabel_rep(R, perm)
        for r in range(R.lattice.size):
            for x in range(3):
                for y in range(3):
                    assert R.alpha[r].relates(x, y) == S.alpha[r].relates(f[x], f[y])

    def test_relabel_exhaustive_small_ground(self):
        from itertools import permutations

        R = pairs_b2_rep(3)
        for perm in permutations(range(3)):
            assert reps_isomorphic(R, relabel_rep(R, perm)) is not None

    def test_coordinate_swap_is_isomorphic(self):
        # swapping the two projection kernels is itself a ground relabeling
        # (reverse both coordinates), so an isomorphism must be found
        R = pairs_b2_rep(4)
        swapped = Representation(
            R.lattice, R.ground_size, (R.alpha[0], R.alpha[2], R.alpha[1], R.alpha[3])
        )
        f = reps_isomorphic(R, swapped)
        assert f is not None
        for r in range(4):
            for x in range(6):
                for y in range(6):
                    assert R.alpha[r].relates(x, y) == swapped.alpha[r].relates(f[x], f[y])

    def test_distinct_class_sizes_rejected(self):
        a = chain2_rep(3)
        b = Representation(
            chain_lattice(2), 3, (from_class_ids((0, 0, 1)), discrete_eq(3))
        )
        assert reps_isomorphic(a, b) is None

    def test_lattice_mismatch(self):
        with pytest.raises(InvalidParameter):
            reps_isomorphic(m3_base_rep(), pairs_b2_rep(3))

    def test_equals_oracle_on_seeded_grounds(self):
        # seeded restrictions to at most 6 points, each against a seeded
        # relabelling and against another restriction of the same size
        def related(rep):
            return lambda x, y: tuple(rel.relates(x, y) for rel in rep.alpha)

        rng = random.Random(5)
        for R in (pairs_b2_rep(4), pairs_b2_rep(5), power_rep(m3_base_rep(), 2)):
            for _ in range(25):
                size = rng.randint(1, 6)
                S = restrict_rep(R, rng.sample(range(R.ground_size), size))
                U = restrict_rep(R, rng.sample(range(R.ground_size), size))
                perm = list(range(size))
                rng.shuffle(perm)
                for A, B in ((S, relabel_rep(S, perm)), (S, U), (U, S)):
                    want = oracle_first_isomorphism(size, related(A), related(B), range(size))
                    assert reps_isomorphic(A, B) == want


class TestCanonicalFor:
    def test_boundaries(self):
        R = pairs_b2_rep(4)
        assert canonical_for(trivial_eq(6), R) == 0
        assert canonical_for(discrete_eq(6), R) == 3

    def test_projection_kernel(self):
        R = pairs_b2_rep(4)
        p1 = kernel_of([x for x, _ in R.point_decode])
        assert canonical_for(p1, R) == 1

    def test_round_trip_all_elements(self):
        for R in [m3_base_rep(), pairs_b2_rep(4), power_rep(m3_base_rep(), 2)]:
            for r in range(R.lattice.size):
                assert canonical_for(R.alpha[r], R) == r

    def test_none_when_absent(self):
        R = pairs_b2_rep(4)
        assert canonical_for(from_class_ids((0,) * 5 + (1,)), R) is None


class TestZeroCpp:
    def test_m3_base(self):
        verdict = is_0cpp(m3_base_rep())
        assert not verdict.holds and verdict.witness == 1

    def test_power_two(self):
        assert is_0cpp(power_rep(m3_base_rep(), 2)).holds

    def test_pairs_b2_3(self):
        verdict = is_0cpp(pairs_b2_rep(3))
        assert not verdict.holds and verdict.witness == 1


class TestNcpp:
    def test_depth0_delegates(self):
        assert is_ncpp(m3_base_rep(), 0).holds is False
        assert is_ncpp(power_rep(m3_base_rep(), 2), 0).holds is True

    def test_one_point_ground(self):
        R = restrict_rep(pairs_b2_rep(4), [0])
        assert is_ncpp(R, 0).holds

    def test_budget(self):
        with pytest.raises(SizeLimit):
            is_ncpp(pairs_b2_rep(5), 1)  # ground 10

    def test_chain_rep_depth1_threshold(self):
        # on 4 points some two-class partition has no good subset; on 5 every
        # partition has either a big block or three blocks
        assert not is_ncpp(chain2_rep(4), 1).holds
        assert is_ncpp(chain2_rep(5), 1).holds

    def test_certificate_reverifies(self):
        R = chain2_rep(5)
        verdict = is_ncpp(R, 1)
        assert verdict.holds
        thetas = [c.theta for c in verdict.certificate]
        assert thetas == list(all_partitions(5))
        for choice in verdict.certificate:
            restricted = restrict_rep(R, choice.subset)
            assert is_representation(restricted).injective
            assert is_0cpp(restricted).holds
            assert canonical_for(restrict_eq(choice.theta, choice.subset), restricted) is not None

    def test_depth_beyond_the_recursion_limit(self):
        # (n+1)-CPP implies n-CPP, so failing at depth 2 means failing at
        # every greater depth; deciding that must not recurse once per level
        R = chain2_rep(5)
        assert not is_ncpp(R, 2).holds
        assert not is_ncpp(R, 1500).holds

    def test_failure_carries_theta(self):
        verdict = is_ncpp(chain2_rep(4), 1)
        assert not verdict.holds and verdict.witness_theta is not None

    def test_agrees_with_oracle_small(self):
        corpus = [
            m3_base_rep(),
            pairs_b2_rep(3),
            chain2_rep(3),
            chain2_rep(4),
            chain2_rep(5),
            power_rep(m3_base_rep(), 1),
        ]
        for R in corpus:
            for depth in range(3):
                assert is_ncpp(R, depth).holds == oracle_ncpp(R, depth)

    def test_certificate_json(self):
        data = cpp_certificate_json(is_ncpp(chain2_rep(5), 1))
        text = json.dumps(data)
        assert json.loads(text)["holds"] is True

    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_certificates_equal_oracle(self, depth):
        # the c06 corpus plus two seeded relabelings of pairs_b2_rep(4);
        # partitions are matched by their classes, since the library and the
        # oracle enumerate them in different orders
        B4 = pairs_b2_rep(4)
        corpus = [
            m3_base_rep(), power_rep(m3_base_rep(), 1), pairs_b2_rep(3), B4,
            restrict_rep(B4, [0, 1, 2, 3, 4]), restrict_rep(B4, [1, 2, 4, 5]), restrict_rep(B4, [0, 1, 2]),
        ] + [chain2_rep(ground) for ground in (3, 4, 5, 6)]
        c3 = chain_lattice(3)
        for ground in (4, 5, 6):
            corpus += [Representation(c3, ground, (trivial_eq(ground), mid, discrete_eq(ground)))
                       for mid in all_partitions(ground)]
        for seed in (1, 2):
            perm = list(range(B4.ground_size))
            random.Random(seed).shuffle(perm)
            corpus.append(relabel_rep(B4, perm))
        outcomes = set()
        for R in corpus:
            verdict = is_ncpp(R, depth)
            order = [blocks_set(theta) for theta in all_partitions(R.ground_size)]
            if verdict.holds:
                want = dict(oracle_ncpp_certificate(R, depth))
                assert len(want) == len(order) and set(want) == set(order)
                assert [blocks_set(c.theta) for c in verdict.certificate] == order
                assert {blocks_set(c.theta): c.subset for c in verdict.certificate} == want
            else:
                # the witness is the first partition, in the library's order,
                # that the oracle finds no subset for; read the oracle only
                # as far as that prefix needs
                witness = blocks_set(verdict.witness_theta)
                needed = set(order[: order.index(witness) + 1])
                want = {}
                for theta, subset in oracle_ncpp_certificate(R, depth):
                    want[theta] = subset
                    if needed <= want.keys():
                        break
                assert want[witness] is None
                assert all(want[theta] is not None for theta in needed - {witness})
                assert verdict.certificate == ()
            outcomes.add(verdict.holds)
        assert outcomes == ({True, False} if depth == 1 else {False})


class TestConcreteReps:
    def test_pairs_ground_size(self):
        assert pairs_b2_rep(4).ground_size == 6
        assert eq_stats(pairs_b2_rep(4).alpha[1]).class_size_multiset == (3, 2, 1)

    def test_pairs_degenerate_warning(self):
        with pytest.warns(DegenerateParameterWarning):
            R = pairs_b2_rep(2)
        assert R.ground_size == 1

    def test_pairs_parameter(self):
        with pytest.raises(InvalidParameter):
            pairs_b2_rep(1)

    def test_power_counts(self):
        R = m3_base_rep()
        base = [rel.num_classes for rel in R.alpha]
        for m in range(1, 4):
            P = power_rep(R, m)
            assert P.ground_size == 3**m
            assert [rel.num_classes for rel in P.alpha] == [c**m for c in base]

    def test_power_counts_generic(self):
        R = pairs_b2_rep(3)
        base = [rel.num_classes for rel in R.alpha]
        P = power_rep(R, 2)
        assert [rel.num_classes for rel in P.alpha] == [c**2 for c in base]
        assert verify_pseudo_rep(P).valid

    def test_power_one_isomorphic(self):
        R = m3_base_rep()
        assert reps_isomorphic(R, power_rep(R, 1)) is not None

    def test_power_budget(self):
        with pytest.raises(SizeLimit):
            power_rep(m3_base_rep(), 9)


class TestRankedRep:
    def test_bound_validation(self):
        with pytest.raises(InvalidParameter):
            ThresholdRankContext(0)

    def test_constant_top_with_big_bound(self):
        for m in (1, 2):
            P = power_rep(m3_base_rep(), m)
            rho = (P.lattice.top,) * P.lattice.size
            assert verify_rank_axioms(P.lattice, rho).valid
            verdict = check_ranked_rep(P, rho, ThresholdRankContext(3**m))
            assert verdict.holds

    def test_constant_top_with_small_bound_fails(self):
        P = power_rep(m3_base_rep(), 2)
        rho = (P.lattice.top,) * P.lattice.size
        verdict = check_ranked_rep(P, rho, ThresholdRankContext(2))
        assert not verdict.holds and verdict.reason == "split exceeds bound"

    def test_mixed_rank_on_restricted_pairs(self):
        # restrict the pairs representation to first coordinate < m; the rank
        # with rankset {a, top} is compatible exactly at bound m
        n, m = 8, 3
        R = pairs_b2_rep(n)
        sub = [i for i, (x, _) in enumerate(R.point_decode) if x < m]
        RY = restrict_rep(R, sub)
        rho = (1, 1, 3, 3)  # rho(0) = rho(a) = a, rho(b) = rho(top) = top
        assert verify_rank_axioms(RY.lattice, rho).valid
        assert check_ranked_rep(RY, rho, ThresholdRankContext(m)).holds
        assert not check_ranked_rep(RY, rho, ThresholdRankContext(m - 1)).holds

    def test_constant_top_false_when_rank_disagrees(self):
        # with the identity-ish rank on chain(2), the trivial class must not
        # split boundedly into singletons when the ground is bigger than B
        R = chain2_rep(5)
        rho = (0, 1)
        assert verify_rank_axioms(R.lattice, rho).valid
        verdict = check_ranked_rep(R, rho, ThresholdRankContext(10))
        assert not verdict.holds and verdict.reason == "bound not required by rank"


class TestFamilyClosure:
    def test_m3_base_closure_without_0cpp(self):
        report = family_closure_check([m3_base_rep()])
        assert report.nonempty
        assert not report.all_0cpp and report.not_0cpp_members == (0,)
        assert report.closure_holds  # every partition of 3 points is an image
        assert not report.correct

    def test_chain_family_fails_at_smallest_ground(self):
        family = [chain2_rep(5), chain2_rep(4), chain2_rep(3)]
        report = family_closure_check(family)
        assert report.all_0cpp  # grounds 3..5 have no two-class image
        assert not report.closure_holds
        member, theta = report.closure_failure
        assert theta.num_classes == 2
        assert not report.correct

    def test_empty_family(self):
        report = family_closure_check([])
        assert not report.nonempty and not report.correct

    def test_mixed_lattices_rejected(self):
        with pytest.raises(InvalidParameter):
            family_closure_check([m3_base_rep(), chain2_rep(3)])

    # Pinned reports as (all_0cpp, not_0cpp_members, closure_holds,
    # closure_failure as (member, theta class ids), correct); every family
    # is nonempty.
    PINNED = {
        "m3_base": (False, (0,), True, None, False),
        "pairs3": (False, (0,), False, (0, (0, 1, 0)), False),
        "chain3_small": (False, (0, 1), False, (0, (0, 0, 1)), False),
        "chain2_rep4": (True, (), False, (0, (0, 0, 0, 1)), False),
        "chain2_rep5": (True, (), False, (0, (0, 0, 0, 0, 1)), False),
        "m3_base_rep": (False, (0,), True, None, False),
        "pairs_b2_4": (True, (), False, (0, (0, 0, 0, 0, 0, 1)), False),
        "m3_mixed": (False, (0, 1), False, (1, (0, 0, 0, 1)), False),
        "m3_iso": (False, (0, 1), True, None, False),
        "m3_base:relabeled": (False, (0,), True, None, False),
        "pairs3:relabeled": (False, (0,), False, (0, (0, 1, 1)), False),
        "chain3_small:relabeled": (False, (0, 1), False, (0, (0, 1, 0)), False),
        "chain2_rep4:relabeled": (True, (), False, (0, (0, 0, 0, 1)), False),
        "chain2_rep5:relabeled": (True, (), False, (0, (0, 0, 0, 0, 1)), False),
        "m3_base_rep:relabeled": (False, (0,), True, None, False),
        "pairs_b2_4:relabeled": (True, (), False, (0, (0, 0, 0, 0, 0, 1)), False),
        "m3_mixed:relabeled": (False, (0, 1), False, (1, (0, 0, 1, 0)), False),
        "m3_iso:relabeled": (False, (0, 1), True, None, False),
    }

    @staticmethod
    def families() -> dict:
        def rep(lat, ids_list):
            return Representation(lat, len(ids_list[0]), tuple(from_class_ids(ids) for ids in ids_list))

        c3, m3 = chain_lattice(3), m_lattice(3)
        families = {
            "m3_base": [m3_base_rep()],
            "pairs3": [pairs_b2_rep(3)],
            "chain3_small": [rep(c3, [(0, 0, 0), (0, 1, 1), (0, 1, 2)]),
                             rep(c3, [(0,) * 4, (0, 0, 1, 1), (0, 1, 2, 3)])],
        }
        for path in sorted(DATA.glob("*.json")):
            data = json.loads(path.read_text())
            if isinstance(data, dict) and "alpha" in data:
                families[path.stem] = [rep_from_json(data)]
        # m3_base closes by itself, the second member does not
        families["m3_mixed"] = [m3_base_rep(), rep(m3, [(0,) * 4, (0, 0, 1, 0), (0,) * 4, (0, 0, 1, 0), (0, 1, 2, 3)])]
        # closes only because restrictions match members up to relabeling
        families["m3_iso"] = [relabel_rep(m3_base_rep(), [0, 2, 1]),
                              rep(m3, [(0,) * 4, (0, 1, 0, 2), (0, 1, 1, 1), (0, 1, 2, 0), (0, 1, 2, 3)])]
        for name in list(families):
            relabeled = []
            for i, R in enumerate(families[name]):
                perm = list(range(R.ground_size))
                random.Random(i + 7).shuffle(perm)
                relabeled.append(relabel_rep(R, perm))
            families[name + ":relabeled"] = relabeled
        return families

    def test_reports_pinned(self):
        got = {}
        for name, family in self.families().items():
            report = family_closure_check(family)
            assert report.nonempty and report.note == FAMILY_NOTE
            failure = report.closure_failure
            got[name] = (report.all_0cpp, report.not_0cpp_members, report.closure_holds,
                         failure and (failure[0], failure[1].class_id), report.correct)
        assert got == self.PINNED


class TestSerialization:
    def test_round_trip(self):
        for R in [m3_base_rep(), pairs_b2_rep(4), power_rep(m3_base_rep(), 2)]:
            data = json.loads(json.dumps(rep_to_json(R)))
            again = rep_from_json(data)
            assert again == R

    def test_decode_round_trip(self):
        R = pairs_b2_rep(3)
        again = rep_from_json(json.loads(json.dumps(rep_to_json(R))))
        assert again.point_decode == R.point_decode

    def test_missing_alpha(self):
        data = rep_to_json(m3_base_rep())
        del data["alpha"]["2"]
        with pytest.raises(InvalidParameter):
            rep_from_json(data)

    def test_missing_ground(self):
        data = rep_to_json(m3_base_rep())
        del data["ground"]
        with pytest.raises(InvalidParameter):
            rep_from_json(data)

    def test_lattice_budget(self):
        data = rep_to_json(m3_base_rep())
        assert rep_from_json(data, max_size=5) == m3_base_rep()
        with pytest.raises(SizeLimit):
            rep_from_json(data, max_size=4)


@given(st.permutations(list(range(6))))
def test_relabel_always_isomorphic(perm):
    R = pairs_b2_rep(4)
    assert reps_isomorphic(R, relabel_rep(R, tuple(perm))) is not None


@given(st.integers(min_value=3, max_value=6), st.data())
def test_restriction_pseudo_property(n, data):
    R = pairs_b2_rep(n)
    subset = data.draw(
        st.sets(st.integers(min_value=0, max_value=R.ground_size - 1), min_size=1)
    )
    assert verify_pseudo_rep(restrict_rep(R, subset)).valid
