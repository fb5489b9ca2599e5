import random
from itertools import product as iproduct

import pytest

from finlat.errors import InvalidParameter, SizeLimit
from finlat.lattice import boolean_lattice, chain_lattice, m_lattice, pentagon
from finlat.ranked import (
    RANK_FLAG_EXTERNAL_N5_EXCLUSION,
    check_blass,
    check_gaifman,
    enumerate_ranks,
    rank_report,
    ranked_lattice,
    verify_rank_axioms,
)

from oracles import count_chains_through_top, enumerate_labeled_lattices, oracle_ranks, relabeled


class TestAxioms:
    def test_constant_top_always_valid(self):
        for L in [m_lattice(3), pentagon(), boolean_lattice(2)]:
            rho = (L.top,) * L.size
            assert verify_rank_axioms(L, rho).valid

    def test_identity_on_chain_valid(self):
        L = chain_lattice(4)
        assert verify_rank_axioms(L, tuple(range(4))).valid

    def test_identity_on_m3_breaks_comparability(self):
        L = m_lattice(3)
        report = verify_rank_axioms(L, tuple(range(5)))
        assert not report.valid
        assert (3, (1, 2)) in report.violations

    def test_below_self_rejected(self):
        L = chain_lattice(3)
        report = verify_rank_axioms(L, (0, 0, 2))
        assert not report.valid
        assert any(axiom == 1 for axiom, _ in report.violations)

    def test_total_map_required(self):
        with pytest.raises(InvalidParameter):
            verify_rank_axioms(chain_lattice(2), (0,))

    def test_factory(self):
        R = ranked_lattice(chain_lattice(3), (0, 1, 2))
        assert R.rankset == (0, 1, 2)
        with pytest.raises(InvalidParameter):
            ranked_lattice(m_lattice(3), tuple(range(5)))

    def test_rankset_is_chain_with_top(self):
        for L in [pentagon(), boolean_lattice(2)]:
            for R in enumerate_ranks(L, {"axioms"}):
                rs = R.rankset
                assert L.top in rs
                for i in range(len(rs) - 1):
                    assert L.le(rs[i], rs[i + 1])


class TestBlass:
    def test_chain_identity(self):
        R = ranked_lattice(chain_lattice(4), (0, 1, 2, 3))
        assert check_blass(R).holds

    def test_m3_hypothetical_rank(self):
        # rho(0) = c, middles a and b both ranked top
        L = m_lattice(3)
        R = ranked_lattice(L, (3, 4, 4, 3, 4))
        verdict = check_blass(R)
        assert not verdict.holds and verdict.witness == (1, 2)

    def test_injective_rank_on_chain(self):
        R = ranked_lattice(chain_lattice(5), (0, 1, 2, 3, 4))
        assert check_blass(R).holds


class TestGaifman:
    def test_pentagon_fixed_c_fails(self):
        L = pentagon()
        # rankset {c, 1}: rho(0) = c, everything else pushed to the top
        R = ranked_lattice(L, (3, 4, 4, 3, 4))
        verdict = check_gaifman(R)
        assert not verdict.holds and verdict.witness == (1, 2, 3)

    def test_pentagon_any_extension_with_fixed_c_fails(self):
        L = pentagon()
        R = ranked_lattice(L, (0, 4, 4, 3, 4))  # rankset {0, c, 1}
        assert not check_gaifman(R).holds

    def test_constant_top_on_boolean2(self):
        L = boolean_lattice(2)
        R = ranked_lattice(L, (3, 3, 3, 3))
        assert check_gaifman(R).holds

    def test_chains_always_pass(self):
        for k in range(1, 7):
            L = chain_lattice(k)
            for R in enumerate_ranks(L, {"axioms"}):
                assert check_blass(R).holds
                assert check_gaifman(R).holds


class TestEnumeration:
    def test_chain2_two_maps(self):
        ranks = enumerate_ranks(chain_lattice(2), {"axioms"})
        assert [r.rho for r in ranks] == [(0, 1), (1, 1)]

    def test_lexicographic_and_validated(self):
        ranks = enumerate_ranks(pentagon(), {"axioms"})
        rhos = [r.rho for r in ranks]
        assert rhos == sorted(rhos)
        for r in ranks:
            assert verify_rank_axioms(r.lattice, r.rho).valid

    def test_matches_raw_filter_on_boolean2(self):
        from itertools import product as iproduct

        L = boolean_lattice(2)
        raw = []
        for rho in iproduct(range(4), repeat=4):
            if verify_rank_axioms(L, rho).valid:
                R = ranked_lattice(L, rho)
                if check_blass(R).holds and check_gaifman(R).holds:
                    raw.append(rho)
        fast = [r.rho for r in enumerate_ranks(L, {"axioms", "blass", "gaifman"})]
        assert fast == raw

    def test_matches_raw_filter_under_any_numbering(self):
        # rank order is lexicographic in rho, so it depends on the numbering;
        # compare on relabelings
        rng = random.Random(2)
        checks = [{"axioms"}, {"axioms", "blass"}, {"axioms", "blass", "gaifman"}]
        for n in range(1, 6):
            for L0 in enumerate_labeled_lattices(n):
                for L in (relabeled(L0, rng), relabeled(L0, rng)):
                    ranks = [ranked_lattice(L, rho) for rho in iproduct(range(n), repeat=n)
                             if verify_rank_axioms(L, rho).valid]
                    for require in checks:
                        raw = [R.rho for R in ranks
                               if ("blass" not in require or check_blass(R).holds)
                               and ("gaifman" not in require or check_gaifman(R).holds)]
                        assert [R.rho for R in enumerate_ranks(L, require)] == raw

    def test_equals_oracle_and_counts_chains_through_top(self):
        rng = random.Random(5)
        for n in range(1, 7):
            for L0 in enumerate_labeled_lattices(n):
                for L in (L0, relabeled(L0, rng), relabeled(L0, rng)):
                    rhos = [R.rho for R in enumerate_ranks(L, {"axioms"})]
                    assert rhos == oracle_ranks(L)
                    assert len(rhos) == count_chains_through_top(L)

    def test_chain8_edge_count(self):
        assert len(enumerate_ranks(chain_lattice(8), {"axioms", "blass", "gaifman"})) == 2 ** 7

    def test_m3_blass_forces_constant_top(self):
        ranks = enumerate_ranks(m_lattice(3), {"axioms", "blass"})
        assert [r.rho for r in ranks] == [(4, 4, 4, 4, 4)]
        assert all(r.rankset == (4,) for r in ranks)

    def test_budget(self):
        with pytest.raises(SizeLimit):
            enumerate_ranks(boolean_lattice(4), {"axioms"})

    def test_unknown_check_rejected(self):
        with pytest.raises(InvalidParameter):
            enumerate_ranks(chain_lattice(2), {"axioms", "mystery"})


class TestReport:
    def test_rows_have_contract_fields(self):
        L = boolean_lattice(2)
        rows = rank_report(L, enumerate_ranks(L, {"axioms"}))
        for row in rows:
            assert set(row) == {"rho", "rankset", "blass", "gaifman", "flags"}

    def test_pentagon_external_flag(self):
        L = pentagon()
        ranks = enumerate_ranks(L, {"axioms", "blass", "gaifman"})
        rows = rank_report(L, ranks)
        flagged = [row for row in rows if row["flags"]]
        assert len(flagged) == 1
        assert flagged[0]["rho"][0] == 2  # rank of the bottom is b
        assert flagged[0]["flags"] == [RANK_FLAG_EXTERNAL_N5_EXCLUSION]

    def test_no_flag_on_other_lattices(self):
        L = boolean_lattice(2)
        rows = rank_report(L, enumerate_ranks(L, {"axioms"}))
        assert all(not row["flags"] for row in rows)
