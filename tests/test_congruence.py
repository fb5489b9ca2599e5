import json
import random
from itertools import product

import pytest

from finlat.congruence import (
    FiniteAlgebra,
    Operation,
    algebra,
    algebra_from_json,
    algebra_to_json,
    all_congruences,
    congruence_lattice,
    cyclic_group_algebra,
    is_congruence,
    is_congruence_representation,
    klein_group_algebra,
    principal_congruence,
    search_algebra,
)
from finlat.eqrel import (
    all_partitions,
    bell_number,
    discrete_eq,
    from_class_ids,
    refines,
    trivial_eq,
)
from finlat.errors import GroundMismatch, InvalidParameter, SizeLimit
from finlat.lattice import (
    boolean_lattice,
    chain_lattice,
    lattice_isomorphism,
    m_lattice,
    pentagon,
    validate_lattice,
)

from oracles import blocks_set, oracle_congruences


def unary_algebra(size, *tables):
    return algebra(size, [(1, t) for t in tables])


def random_algebra(rng):
    """Carrier 2..5 with 0..3 operations of arity 0..3.  Half the operations
    respect a random partition (each result drawn from the class that the
    argument classes select), so that congruence lattices are not all trivial."""
    size = rng.randint(2, 5)
    ops = []
    for _ in range(rng.randint(0, 3)):
        arity = rng.randint(0, 3)
        cells = list(product(range(size), repeat=arity))
        if rng.random() < 0.5:
            cls = [rng.randrange(size) for _ in range(size)]
            blocks = {c: [x for x in range(size) if cls[x] == c] for c in sorted(set(cls))}
            image = {}
            table = []
            for args in cells:
                key = tuple(cls[a] for a in args)
                if key not in image:
                    image[key] = rng.choice(sorted(blocks))
                table.append(rng.choice(blocks[image[key]]))
        else:
            table = [rng.randrange(size) for _ in cells]
        ops.append((arity, table))
    return algebra(size, ops)


CORPUS = {
    "z4": cyclic_group_algebra(4),
    "z5": cyclic_group_algebra(5),
    "klein": klein_group_algebra(),
    "free3": algebra(3, []),
    "free4": algebra(4, []),
    "unary_swap": unary_algebra(4, (1, 0, 3, 2)),
    "min3": algebra(3, [(2, tuple(min(a, b) for a in range(3) for b in range(3)))]),
    "with_constant": algebra(3, [(0, (1,)), (1, (1, 2, 2))]),
}


class TestValidation:
    def test_table_length(self):
        with pytest.raises(InvalidParameter):
            algebra(3, [(2, [0] * 8)])

    def test_entry_range(self):
        with pytest.raises(InvalidParameter):
            algebra(2, [(1, (0, 5))])

    def test_apply(self):
        z4 = cyclic_group_algebra(4)
        assert z4.apply(0, (3, 2)) == 1


class TestIsCongruence:
    def test_equality_and_total_always(self):
        for A in CORPUS.values():
            assert is_congruence(discrete_eq(A.size), A).holds
            assert is_congruence(trivial_eq(A.size), A).holds

    def test_z4_parity(self):
        z4 = cyclic_group_algebra(4)
        assert is_congruence(from_class_ids((0, 1, 0, 1)), z4).holds

    def test_z4_blocks_fail(self):
        z4 = cyclic_group_algebra(4)
        verdict = is_congruence(from_class_ids((0, 0, 1, 1)), z4)
        assert not verdict.holds
        op, args, other = verdict.witness
        ids = (0, 0, 1, 1)
        assert all(ids[a] == ids[b] for a, b in zip(args, other))
        assert ids[z4.apply(op, args)] != ids[z4.apply(op, other)]

    def test_ground_mismatch(self):
        with pytest.raises(GroundMismatch):
            is_congruence(trivial_eq(3), cyclic_group_algebra(4))


class TestPrincipal:
    def test_reflexive_pair(self):
        z4 = cyclic_group_algebra(4)
        assert principal_congruence(z4, 2, 2).is_discrete

    def test_z4_examples(self):
        z4 = cyclic_group_algebra(4)
        assert principal_congruence(z4, 0, 2) == from_class_ids((0, 1, 0, 1))
        assert principal_congruence(z4, 0, 1).is_trivial

    def test_least_property_exhaustive(self):
        for A in CORPUS.values():
            if A.size > 5:
                continue
            congs = all_congruences(A)
            for a in range(A.size):
                for b in range(a + 1, A.size):
                    principal = principal_congruence(A, a, b)
                    assert is_congruence(principal, A).holds
                    for theta in congs:
                        if theta.relates(a, b):
                            assert refines(principal, theta)


class TestCongruenceLattice:
    def test_z4_three_chain(self):
        cg = congruence_lattice(cyclic_group_algebra(4))
        assert [t.class_id for t in cg.congruences] == [
            (0, 1, 2, 3),
            (0, 1, 0, 1),
            (0, 0, 0, 0),
        ]
        assert lattice_isomorphism(chain_lattice(3), cg.lattice) is not None

    def test_klein_is_diamond(self):
        cg = congruence_lattice(klein_group_algebra())
        assert cg.lattice.size == 5
        assert lattice_isomorphism(m_lattice(3), cg.lattice) is not None

    def test_no_ops_gives_all_partitions(self):
        cg = congruence_lattice(algebra(3, []))
        assert cg.lattice.size == bell_number(3) == 5

    def test_matches_bell_filter_oracle(self):
        for name, A in CORPUS.items():
            if A.size > 5:
                continue
            ours = {blocks_set(t) for t in all_congruences(A)}
            assert ours == oracle_congruences(A), name

    def test_lattice_validates_with_extremes(self):
        for A in CORPUS.values():
            cg = congruence_lattice(A)
            assert not validate_lattice(cg.lattice)
            assert cg.congruences[cg.lattice.bottom].is_discrete
            assert cg.congruences[cg.lattice.top].is_trivial
            for t in cg.congruences:
                assert is_congruence(t, A).holds

    @pytest.mark.parametrize("seed", range(4))
    def test_random_algebras_match_oracle(self, seed):
        rng = random.Random(seed)
        for _ in range(25):
            A = random_algebra(rng)
            congs = all_congruences(A)
            want = oracle_congruences(A)
            assert {blocks_set(t) for t in congs} == want and len(congs) == len(want)
            for a in range(A.size):
                for b in range(A.size):
                    got = blocks_set(principal_congruence(A, a, b))
                    assert got in want
                    # least: every block lies inside a block of each oracle
                    # congruence that relates a and b
                    for part in want:
                        if any(a in blk and b in blk for blk in part):
                            assert all(any(blk <= big for big in part) for blk in got)

    def test_carrier_budget(self):
        with pytest.raises(SizeLimit):
            congruence_lattice(algebra(6, []), max_carrier=5)

    def test_element_budget_refuses_early(self):
        # Bell(4) = 15 congruences; the closure stops at the eleventh
        with pytest.raises(SizeLimit) as info:
            all_congruences(algebra(4, []), max_elements=10)
        err = info.value
        assert (err.dimension, err.actual, err.limit) == ("congruences found", 11, 10)
        assert len(congruence_lattice(algebra(4, []), max_elements=15).congruences) == 15


class TestCongruenceRepresentation:
    def test_chain3_z4(self):
        assert is_congruence_representation(chain_lattice(3), cyclic_group_algebra(4)).holds

    def test_m3_klein(self):
        verdict = is_congruence_representation(m_lattice(3), klein_group_algebra())
        assert verdict.holds and verdict.isomorphism is not None

    def test_pentagon_z4_size_mismatch(self):
        assert not is_congruence_representation(pentagon(), cyclic_group_algebra(4)).holds


class TestSearch:
    def test_chain2_no_ops(self):
        result = search_algebra(chain_lattice(2))
        assert result.algebra == FiniteAlgebra(2, ())

    def test_m3_found(self):
        result = search_algebra(m_lattice(3))
        assert result.algebra is not None
        cg = congruence_lattice(result.algebra)
        assert lattice_isomorphism(m_lattice(3), cg.lattice) is not None

    def test_pentagon_not_on_three_elements(self):
        result = search_algebra(pentagon(), max_carrier=3)
        assert result.algebra is None and not result.exhausted_budget
        assert "not a proof" in result.note

    def test_budget_exhaustion_reported(self):
        result = search_algebra(pentagon(), max_carrier=4, max_candidates=50)
        assert result.algebra is None and result.exhausted_budget

    def test_dual_flag(self):
        # chains are self-dual, so both variants succeed
        plain = search_algebra(chain_lattice(3), max_unary_ops=1)
        dualled = search_algebra(chain_lattice(3), max_unary_ops=1, match_dual=True)
        assert plain.algebra is not None and dualled.algebra is not None


SEARCH_TARGETS = {
    "m(3)": m_lattice(3), "m(4)": m_lattice(4), "pentagon": pentagon(), "chain(2)": chain_lattice(2),
    "chain(3)": chain_lattice(3), "chain(4)": chain_lattice(4), "boolean(2)": boolean_lattice(2),
}
SEARCH_BUDGETS = {
    "default": {},
    "cand5000": {"max_candidates": 5000},
    "small": {"max_carrier": 3, "max_unary_ops": 1, "max_binary_ops": 1},
    "dual": {"match_dual": True, "max_carrier": 3},
}
# (candidates_tried, exhausted_budget, (size, [(arity, table)]) or None),
# recorded from the original depth-first walk
SEARCH_PINS = {
    "default": {
        "m(3)": (1, False, (3, [])),
        "m(4)": (69520, False, None),
        "pentagon": (1004, False, (4, [(1, (0, 0, 0, 0)), (1, (0, 0, 2, 2)), (1, (2, 3, 0, 1))])),
        "chain(2)": (1, False, (2, [])),
        "chain(3)": (5, False, (3, [(1, (0, 0, 0)), (1, (0, 0, 0)), (1, (0, 0, 1))])),
        "chain(4)": (435, False, (4, [(1, (0, 0, 0, 0)), (1, (0, 0, 0, 0)), (1, (0, 0, 1, 2))])),
        "boolean(2)": (5, False, (3, [(1, (0, 0, 0)), (1, (0, 0, 0)), (1, (0, 0, 2))])),
    },
    "cand5000": {
        "m(3)": (1, False, (3, [])),
        "m(4)": (5000, True, None),
        "pentagon": (1004, False, (4, [(1, (0, 0, 0, 0)), (1, (0, 0, 2, 2)), (1, (2, 3, 0, 1))])),
        "chain(2)": (1, False, (2, [])),
        "chain(3)": (5, False, (3, [(1, (0, 0, 0)), (1, (0, 0, 0)), (1, (0, 0, 1))])),
        "chain(4)": (435, False, (4, [(1, (0, 0, 0, 0)), (1, (0, 0, 0, 0)), (1, (0, 0, 1, 2))])),
        "boolean(2)": (5, False, (3, [(1, (0, 0, 0)), (1, (0, 0, 0)), (1, (0, 0, 2))])),
    },
    "small": {
        "m(3)": (1, False, (3, [])),
        "m(4)": (0, False, None),
        "pentagon": (30, False, None),
        "chain(2)": (1, False, (2, [])),
        "chain(3)": (4, False, (3, [(1, (0, 0, 0)), (2, (0, 0, 0, 0, 0, 0, 0, 0, 1))])),
        "chain(4)": (1371, False, None),
        "boolean(2)": (4, False, (3, [(1, (0, 0, 0)), (2, (0, 0, 0, 0, 0, 0, 0, 0, 2))])),
    },
    "dual": {
        "m(3)": (1, False, (3, [])),
        "m(4)": (0, False, None),
        "pentagon": (35, False, None),
        "chain(2)": (1, False, (2, [])),
        "chain(3)": (5, False, (3, [(1, (0, 0, 0)), (1, (0, 0, 0)), (1, (0, 0, 1))])),
        "chain(4)": (425, False, None),
        "boolean(2)": (5, False, (3, [(1, (0, 0, 0)), (1, (0, 0, 0)), (1, (0, 0, 2))])),
    },
}


@pytest.mark.parametrize("budget", sorted(SEARCH_BUDGETS))
def test_search_walk_pinned(budget):
    for name, L in SEARCH_TARGETS.items():
        tried, exhausted, found = SEARCH_PINS[budget][name]
        want = None if found is None else {
            "size": found[0], "ops": [{"arity": a, "table": list(t)} for a, t in found[1]]
        }
        result = search_algebra(L, **SEARCH_BUDGETS[budget])
        got = None if result.algebra is None else algebra_to_json(result.algebra)
        assert (result.candidates_tried, result.exhausted_budget, got) == (tried, exhausted, want), name


class TestJson:
    def test_round_trip(self):
        for A in CORPUS.values():
            data = json.loads(json.dumps(algebra_to_json(A)))
            assert algebra_from_json(data) == A

    def test_bad_input(self):
        with pytest.raises(InvalidParameter):
            algebra_from_json({"size": 2})
