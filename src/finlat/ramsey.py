"""Finite canonical Ramsey analysis for functions on pairs.

A pair function assigns a value to every pair <x, y> with x < y < n.  On a
subset X it may match one of four canonical forms: constant, one-to-one,
determined by the first coordinate, or determined by the second.  On small
subsets several forms can coincide, so form checks return the full set of
matching forms; a single-form summary uses the precedence
constant > first_coordinate > second_coordinate > one_to_one.

Everything here is decided by direct exhaustion over subsets and over
kernel partitions of the pair set; results of the survey are descriptive
counts, not asserted thresholds.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Optional, Sequence

from .eqrel import EquivalenceRelation, bell_number, kernel_of, restricted_growth_strings
from .errors import InvalidParameter, SizeLimit, SubsetTooSmall

FORMS = ("constant", "first_coordinate", "second_coordinate", "one_to_one")

MAX_SUBSET_CANDIDATES = 2_000_000
MAX_SURVEY_KERNELS = 200_000


def pair_list(n: int) -> list[tuple[int, int]]:
    """All pairs (x, y) with x < y < n, in lexicographic order."""
    return [(x, y) for x in range(n) for y in range(x + 1, n)]


def pair_index(n: int, x: int, y: int) -> int:
    """Position of (x, y) in pair_list(n)."""
    if not 0 <= x < y < n:
        raise InvalidParameter(f"({x}, {y}) is not an increasing pair below {n}")
    return x * (2 * n - x - 1) // 2 + (y - x - 1)


@dataclass(frozen=True)
class PairFunction:
    """A function on the pairs of {0..n-1}, stored through its kernel.

    The kernel determines every form question; raw values are kept only for
    reporting and never consulted by the checks.
    """

    n: int
    kernel: EquivalenceRelation
    values: Optional[tuple] = field(default=None, compare=False)

    def __post_init__(self):
        expected = self.n * (self.n - 1) // 2
        if self.kernel.ground_size != expected:
            raise InvalidParameter(
                f"kernel covers {self.kernel.ground_size} pairs, expected {expected}"
            )

    def value_id(self, x: int, y: int) -> int:
        return self.kernel.class_id[pair_index(self.n, x, y)]


def pair_function(n: int, values: Sequence) -> PairFunction:
    """Build from a raw value table indexed by pair_list(n)."""
    if n < 2:
        raise InvalidParameter("a pair function needs n >= 2")
    return PairFunction(n, kernel_of(values), tuple(values))


def _forms_on(values: Sequence[int], firsts: Sequence[int], seconds: Sequence[int]) -> frozenset:
    matched = set()
    k = len(values)
    if len(set(values)) == 1:
        matched.add("constant")
    if len(set(values)) == k:
        matched.add("one_to_one")
    for name, coords in (("first_coordinate", firsts), ("second_coordinate", seconds)):
        ok = True
        for i in range(k):
            for j in range(i + 1, k):
                if (values[i] == values[j]) != (coords[i] == coords[j]):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            matched.add(name)
    return frozenset(matched)


def canonical_form_on(f: PairFunction, X: Sequence[int]) -> frozenset:
    """Every canonical form whose defining biconditional holds on the pairs of X.

    The empty set means f is not canonical on X.  With |X| = 2 there is a
    single pair and all four forms hold vacuously.
    """
    xs = sorted(set(X))
    if len(xs) < 2:
        raise SubsetTooSmall("canonical forms need at least two points")
    for p in xs:
        if not 0 <= p < f.n:
            raise InvalidParameter(f"point {p} outside base set of size {f.n}")
    pairs = [(x, y) for x, y in combinations(xs, 2)]
    values = [f.value_id(x, y) for x, y in pairs]
    return _forms_on(values, [x for x, _ in pairs], [y for _, y in pairs])


def summarize_form(forms: frozenset) -> Optional[str]:
    """Single-form summary by precedence, or None when no form matches."""
    for name in FORMS:
        if name in forms:
            return name
    return None


def find_canonical_subset(
    f: PairFunction, k: int, max_candidates: int = MAX_SUBSET_CANDIDATES
) -> Optional[tuple[int, ...]]:
    """Lexicographically least size-k subset on which f is canonical, or None."""
    if k < 3:
        raise InvalidParameter("subset size must be at least 3")
    if k > f.n:
        return None
    total = 1
    for i in range(k):
        total = total * (f.n - i) // (i + 1)
    if total > max_candidates:
        raise SizeLimit("canonical subset candidates", total, max_candidates)
    for X in combinations(range(f.n), k):
        if canonical_form_on(f, X):
            return X
    return None


@dataclass(frozen=True)
class Crt2Row:
    kernel_id: int
    admits_canonical: bool
    witness: Optional[tuple[int, ...]]
    form: Optional[str]


@dataclass(frozen=True)
class Crt2Survey:
    n: int
    k: int
    total: int
    admitting: int
    failing: tuple[int, ...]
    rows: tuple[Crt2Row, ...]


def crt2_survey(n: int, k: int, max_kernels: int = MAX_SURVEY_KERNELS) -> Crt2Survey:
    """Survey every kernel partition of the pair set of {0..n-1}.

    For each kernel, counts whether some size-k subset carries a canonical
    form; kernel ids follow the lexicographic order of canonical class-id
    vectors.  This measures the finite behavior, it does not assert any
    threshold.
    """
    if k < 3:
        raise InvalidParameter("subset size must be at least 3")
    num_pairs = n * (n - 1) // 2
    # B(m) >= 2^(m-1), so the Bell number need not be computed to see it is too large
    if num_pairs - 1 >= max_kernels.bit_length():
        raise SizeLimit("survey kernels", f"B({num_pairs})", max_kernels)
    kernels = bell_number(num_pairs)
    if kernels > max_kernels:
        raise SizeLimit("survey kernels", kernels, max_kernels)
    subsets = list(combinations(range(n), k))
    per_subset = []
    for X in subsets:
        pairs = [(x, y) for x, y in combinations(X, 2)]
        per_subset.append(
            (
                X,
                [pair_index(n, x, y) for x, y in pairs],
                [x for x, _ in pairs],
                [y for _, y in pairs],
            )
        )
    rows = []
    failing = []
    admitting = 0
    for kernel_id, vec in enumerate(restricted_growth_strings(num_pairs)):
        witness = None
        form = None
        for X, idxs, firsts, seconds in per_subset:
            forms = _forms_on([vec[i] for i in idxs], firsts, seconds)
            if forms:
                witness = X
                form = summarize_form(forms)
                break
        if witness is None:
            failing.append(kernel_id)
        else:
            admitting += 1
        rows.append(Crt2Row(kernel_id, witness is not None, witness, form))
    return Crt2Survey(n, k, kernels, admitting, tuple(failing), tuple(rows))


def survey_csv(survey: Crt2Survey) -> str:
    """CSV rows: kernel id, admits_canonical, witness subset, form."""
    lines = ["kernel_id,admits_canonical,witness_subset,form"]
    for row in survey.rows:
        witness = " ".join(str(p) for p in row.witness) if row.witness else ""
        lines.append(f"{row.kernel_id},{str(row.admits_canonical).lower()},{witness},{row.form or ''}")
    return "\n".join(lines) + "\n"


def kernel_at(n: int, kernel_id: int) -> PairFunction:
    """The pair function whose kernel sits at the given survey position."""
    num_pairs = n * (n - 1) // 2
    for i, vec in enumerate(restricted_growth_strings(num_pairs)):
        if i == kernel_id:
            return PairFunction(n, EquivalenceRelation(num_pairs, vec), vec)
    raise InvalidParameter(f"kernel id {kernel_id} out of range")
