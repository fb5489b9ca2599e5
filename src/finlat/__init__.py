"""finlat: finite lattice combinatorics.

Finite bounded lattices with validation and classification, rank functions
with the Blass and Gaifman admissibility conditions, equivalence-relation
representations with canonical partition property checks, finite canonical
Ramsey search on pair functions, congruence lattices of finite algebras,
and reasonableness of equivalenced lattices.  A JSON/DOT command-line front
end lives in finlat.cli.
"""

from .eqrel import (
    EquivalenceRelation,
    all_partitions,
    bell_number,
    discrete_eq,
    eq_stats,
    join_eq,
    kernel_of,
    meet_eq,
    restrict_eq,
    trivial_eq,
)
from .errors import (
    EmptySubset,
    FinlatError,
    GroundMismatch,
    InvalidParameter,
    NotALattice,
    NotAPartialOrder,
    ParseError,
    SizeLimit,
    SubsetTooSmall,
)
from .lattice import (
    EquivalencedLattice,
    FiniteLattice,
    LatticeEmbedding,
    birkhoff_oracle,
    boolean_lattice,
    build_lattice,
    chain_lattice,
    doubling_extension,
    dual,
    hexagon,
    is_distributive,
    lattice_isomorphism,
    m_lattice,
    pentagon,
    principal_ideal,
    product,
    standard_lattice,
    two_oplus,
)
from .ranked import (
    RankedLattice,
    check_blass,
    check_gaifman,
    enumerate_ranks,
    ranked_lattice,
    verify_rank_axioms,
)
from .reps import (
    Representation,
    ThresholdRankContext,
    canonical_for,
    check_ranked_rep,
    family_closure_check,
    is_0cpp,
    is_ncpp,
    is_representation,
    m3_base_rep,
    pairs_b2_rep,
    power_rep,
    reps_isomorphic,
    restrict_rep,
    verify_pseudo_rep,
)
from .ramsey import (
    PairFunction,
    canonical_form_on,
    crt2_survey,
    find_canonical_subset,
    pair_function,
)
from .congruence import (
    FiniteAlgebra,
    congruence_lattice,
    is_congruence,
    is_congruence_representation,
    principal_congruence,
    search_algebra,
)
from .diversity import is_reasonable

__version__ = "0.1.0"
