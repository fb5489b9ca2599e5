import hashlib
import random
import time

import pytest
from hypothesis import given, strategies as st

from finlat.eqrel import bell_number, restricted_growth_strings
from finlat.errors import InvalidParameter, SizeLimit, SubsetTooSmall
from finlat.ramsey import (
    Crt2Survey,
    canonical_form_on,
    crt2_survey,
    find_canonical_subset,
    kernel_at,
    pair_function,
    pair_index,
    pair_list,
    summarize_form,
    survey_csv,
)

from oracles import oracle_crt2_rows


def fn_from(n, f):
    return pair_function(n, [f(x, y) for x, y in pair_list(n)])


class TestPairFunction:
    def test_pair_index_round_trip(self):
        for n in (3, 5, 7):
            for i, (x, y) in enumerate(pair_list(n)):
                assert pair_index(n, x, y) == i

    def test_kernel_only(self):
        a = fn_from(4, lambda x, y: x)
        b = fn_from(4, lambda x, y: 100 + 7 * x)
        assert a.kernel == b.kernel

    def test_table_size_enforced(self):
        with pytest.raises(InvalidParameter):
            pair_function(4, [0, 1, 2])


class TestCanonicalForms:
    def test_constant(self):
        f = fn_from(5, lambda x, y: 9)
        assert "constant" in canonical_form_on(f, [0, 1, 2, 3, 4])

    def test_first_coordinate_exact(self):
        f = fn_from(4, lambda x, y: x)
        assert canonical_form_on(f, [0, 1, 2, 3]) == frozenset({"first_coordinate"})

    def test_second_coordinate(self):
        f = fn_from(4, lambda x, y: y)
        assert canonical_form_on(f, [0, 1, 2, 3]) == frozenset({"second_coordinate"})

    def test_one_to_one(self):
        f = fn_from(4, lambda x, y: 10 * x + y)
        assert canonical_form_on(f, [0, 1, 2, 3]) == frozenset({"one_to_one"})

    def test_two_points_all_forms(self):
        f = fn_from(4, lambda x, y: x * y)
        assert canonical_form_on(f, [1, 3]) == frozenset(
            {"constant", "one_to_one", "first_coordinate", "second_coordinate"}
        )

    def test_too_small(self):
        f = fn_from(4, lambda x, y: x)
        with pytest.raises(SubsetTooSmall):
            canonical_form_on(f, [2])

    def test_summary_precedence(self):
        assert summarize_form(frozenset({"one_to_one", "constant"})) == "constant"
        assert summarize_form(frozenset()) is None

    def test_hereditary_explicit(self):
        f = fn_from(6, lambda x, y: x)
        forms = canonical_form_on(f, [0, 2, 4, 5])
        for sub in ([0, 2], [2, 4, 5], [0, 4, 5]):
            assert forms <= canonical_form_on(f, sub)


class TestFindSubset:
    def test_injective_prefix(self):
        f = fn_from(6, lambda x, y: 10 * x + y)
        assert find_canonical_subset(f, 4) == (0, 1, 2, 3)

    def test_constant_prefix(self):
        f = fn_from(6, lambda x, y: 1)
        assert find_canonical_subset(f, 3) == (0, 1, 2)

    def test_sum_function(self):
        # x + y is injective on any triple, so the least triple wins
        f = fn_from(5, lambda x, y: x + y)
        assert find_canonical_subset(f, 3) == (0, 1, 2)

    def test_k_too_small(self):
        f = fn_from(5, lambda x, y: x)
        with pytest.raises(InvalidParameter):
            find_canonical_subset(f, 2)

    def test_k_exceeds_n(self):
        f = fn_from(4, lambda x, y: x)
        assert find_canonical_subset(f, 5) is None

    def test_budget(self):
        f = fn_from(12, lambda x, y: x)
        with pytest.raises(SizeLimit):
            find_canonical_subset(f, 6, max_candidates=10)

    def test_round_trip(self):
        f = fn_from(5, lambda x, y: (x * y) % 3)
        X = find_canonical_subset(f, 3)
        if X is not None:
            assert canonical_form_on(f, X)

    def test_lexicographically_least_against_brute_force(self):
        from itertools import combinations

        rng = random.Random(11)
        for _ in range(200):
            n = rng.choice([5, 6])
            f = pair_function(n, [rng.randrange(3) for _ in pair_list(n)])
            brute = next(
                (X for X in combinations(range(n), 3) if canonical_form_on(f, X)), None
            )
            assert find_canonical_subset(f, 3) == brute


class TestSurvey:
    def test_n3_exact(self):
        s = crt2_survey(3, 3)
        assert (s.total, s.admitting) == (5, 4)
        assert s.failing == (2,)  # the kernel 0,1,0: outer pairs agree, middle differs
        bad = kernel_at(3, 2)
        assert bad.kernel.class_id == (0, 1, 0)
        assert find_canonical_subset(bad, 3) is None

    def test_n4_all_admit(self):
        s = crt2_survey(4, 3)
        assert s.total == 203
        assert s.admitting == 203 and not s.failing

    def test_rows_reverify(self):
        s = crt2_survey(4, 3)
        for row in s.rows[:50]:
            f = kernel_at(4, row.kernel_id)
            if row.admits_canonical:
                forms = canonical_form_on(f, row.witness)
                assert forms and summarize_form(forms) == row.form

    def test_budget(self):
        with pytest.raises(SizeLimit) as exc:
            crt2_survey(6, 3)  # Bell(15) kernels
        assert exc.value.actual == 1_382_958_545  # computed, below the 2^(m-1) bound

    def test_budget_refuses_by_bound_without_counting(self):
        # B(m) >= 2^(m-1) > limit once m - 1 reaches the limit's bit length
        limit = 200_000
        m = limit.bit_length() + 1
        assert bell_number(m) > limit
        n = next(n for n in range(2, 10) if n * (n - 1) // 2 >= m)
        with pytest.raises(SizeLimit) as exc:
            crt2_survey(n, 3, max_kernels=limit)
        assert (exc.value.actual, exc.value.limit) == (f"B({n * (n - 1) // 2})", limit)
        with pytest.raises(SizeLimit) as exc:
            crt2_survey(200, 3)
        assert exc.value.actual == "B(19900)"

    @pytest.mark.parametrize("n", [-3, 0, 1])
    def test_fewer_than_two_points_refused(self, n):
        with pytest.raises(InvalidParameter, match="n >= 2"):
            crt2_survey(n, 3)

    @pytest.mark.parametrize("n,k", [(3, 3), (4, 3), (4, 4)])
    def test_rows_equal_oracle(self, n, k):
        s = crt2_survey(n, k)
        rows = oracle_crt2_rows(n, k)
        assert [(r.kernel_id, r.admits_canonical, r.witness, r.form) for r in s.rows] == rows
        assert s.total == len(rows)
        assert s.failing == tuple(r[0] for r in rows if not r[1])
        assert s.admitting == s.total - len(s.failing)

    # sha256 of survey_csv at n = 5, taken from the exhaustive per-kernel scan
    @pytest.mark.parametrize("k,digest", [
        (3, "e8a47c56eb84dfe5e1db998f01b1782b5c4f53b380b49cb424acf4f5844a0fd0"),
        (4, "628b9e516f008692f9a7ce721bfc6d8ae517f2de7dab130decad02cac89321f4"),
        (5, "4cf8f506276d74c360308ade8e7e4d70c6985251937d5f4a701fd64447074206"),
    ])
    def test_n5_survey_pinned(self, k, digest):
        assert hashlib.sha256(survey_csv(crt2_survey(5, k)).encode()).hexdigest() == digest

    def test_csv_shape(self):
        s = crt2_survey(3, 3)
        lines = survey_csv(s).strip().splitlines()
        assert lines[0] == "kernel_id,admits_canonical,witness_subset,form"
        assert len(lines) == 6
        assert lines[3] == "2,false,,"


class TestKernelAt:
    def test_unranks_survey_order_n4(self):
        for kernel_id, vec in enumerate(restricted_growth_strings(6)):
            f = kernel_at(4, kernel_id)
            assert f.kernel.class_id == vec and f.values == vec

    def test_seeded_ids_n5_match_survey_rows(self):
        vecs = list(restricted_growth_strings(10))
        rows = crt2_survey(5, 3).rows
        for kernel_id in random.Random(3).sample(range(len(vecs)), 200) + [0, len(vecs) - 1]:
            f = kernel_at(5, kernel_id)
            assert f.kernel.class_id == vecs[kernel_id]
            assert find_canonical_subset(f, 3) == rows[kernel_id].witness

    def test_negative_id_refused_at_once(self):
        start = time.perf_counter()
        with pytest.raises(InvalidParameter, match="out of range"):
            kernel_at(6, -1)
        assert time.perf_counter() - start < 0.1

    def test_id_past_end_refused(self):
        with pytest.raises(InvalidParameter, match="out of range"):
            kernel_at(4, 203)

    def test_unranks_n6(self):
        assert kernel_at(6, 0).kernel.class_id == (0,) * 15
        assert kernel_at(6, bell_number(15) - 1).kernel.class_id == tuple(range(15))
        with pytest.raises(InvalidParameter, match="out of range"):
            kernel_at(6, bell_number(15))

    def test_refusals(self):
        with pytest.raises(SizeLimit) as exc:
            kernel_at(7, 0)  # B(21) >= 2^20 survey positions
        assert (exc.value.actual, exc.value.limit) == ("B(21)", 200_000)
        with pytest.raises(InvalidParameter, match="n >= 2"):
            kernel_at(1, 0)


class TestRecodingInvariance:
    def test_seeded_random_kernels(self):
        rng = random.Random(20240817)
        for _ in range(300):
            n = rng.choice([4, 5])
            values = [rng.randrange(4) for _ in pair_list(n)]
            f = pair_function(n, values)
            # injective recoding of the value alphabet
            alphabet = sorted(set(values))
            shuffled = alphabet[:]
            rng.shuffle(shuffled)
            recode = dict(zip(alphabet, shuffled))
            g = pair_function(n, [100 + 3 * recode[v] for v in values])
            X = [0, 1, 2] if n == 4 else [0, 2, 3, 4]
            assert canonical_form_on(f, X) == canonical_form_on(g, X)
            assert find_canonical_subset(f, 3) == find_canonical_subset(g, 3)


@given(st.integers(min_value=4, max_value=6), st.data())
def test_hereditary_property(n, data):
    values = data.draw(
        st.lists(
            st.integers(min_value=0, max_value=3),
            min_size=n * (n - 1) // 2,
            max_size=n * (n - 1) // 2,
        )
    )
    f = pair_function(n, values)
    X = sorted(data.draw(st.sets(st.integers(min_value=0, max_value=n - 1), min_size=3)))
    Y = sorted(data.draw(st.sets(st.sampled_from(X), min_size=2)))
    assert canonical_form_on(f, X) <= canonical_form_on(f, Y)
