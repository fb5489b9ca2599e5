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

from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import combinations, repeat
from typing import Optional, Sequence

from .eqrel import EquivalenceRelation, _canonical_ids, bell_number, kernel_of
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


def _form_kernels(k: int) -> tuple[tuple[int, ...], ...]:
    """Kernels of the forms' defining coordinates on the pairs of a k-set, in
    FORMS order: constant, first, second coordinate, the pair itself.

    A form holds on X iff the values on X's pairs, in lexicographic order,
    have the kernel of its coordinate; every k-set's pairs share these.
    """
    pairs = list(combinations(range(k), 2))
    coords = ([0] * len(pairs), [x for x, _ in pairs], [y for _, y in pairs], range(len(pairs)))
    return tuple(_canonical_ids(c) for c in coords)


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
    values = _canonical_ids([f.value_id(x, y) for x, y in combinations(xs, 2)])
    return frozenset(name for name, c in zip(FORMS, _form_kernels(len(xs))) if c == values)


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


@dataclass(frozen=True, slots=True)
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


def _survey_pairs(n: int, max_kernels: int) -> int:
    """Number of pairs of {0..n-1}; SizeLimit when a survey of their B(m)
    kernels is refused by max_kernels through B(m) >= 2^(m−1) alone, so that
    the Bell number need not be computed to see it is too large.
    """
    if n < 2:
        raise InvalidParameter("a pair function needs n >= 2")
    num_pairs = n * (n - 1) // 2
    if num_pairs - 1 >= max_kernels.bit_length():
        raise SizeLimit("survey kernels", f"B({num_pairs})", max_kernels)
    return num_pairs


def _completion_counts(num_pairs: int) -> list[list[int]]:
    """counts[r][b]: canonical class-id vectors of length num_pairs that
    complete a prefix using b classes with r more positions.

    T(0, b) = 1 and T(r, b) = b·T(r−1, b) + T(r−1, b+1): the next position
    reuses one of the b classes or opens a new one.  counts[m][0] = B(m).
    """
    counts = [[1] * (num_pairs + 1)]
    for r in range(1, num_pairs + 1):
        prev = counts[-1]
        counts.append([b * prev[b] + prev[b + 1] for b in range(num_pairs - r + 1)])
    return counts


def crt2_survey(n: int, k: int, max_kernels: int = MAX_SURVEY_KERNELS) -> Crt2Survey:
    """Survey every kernel partition of the pair set of {0..n-1}.

    For each kernel, reports the least size-k subset that carries a
    canonical form, and that form; kernel ids follow the lexicographic order
    of canonical class-id vectors.  The vectors are walked depth first by
    prefix, and the subsets are decided in order.  A subset fails on every
    completion once its assigned pairs, a prefix of its own pairs, match no
    form's kernel there, and holds a form once all its pairs match it; so
    the first subset not failing is the witness of every completion of a
    prefix that decides it: that contiguous range of kernel ids, of length
    T(remaining, classes) from the completion counts, is filled in one step,
    as is the range of a prefix on which every subset fails.  This measures
    the finite behavior, it does not assert any threshold.
    """
    if k < 3:
        raise InvalidParameter("subset size must be at least 3")
    num_pairs = _survey_pairs(n, max_kernels)
    # refused before the table, whose m²/2 entries could outgrow memory under a huge budget
    kernels = bell_number(num_pairs)
    if kernels > max_kernels:
        raise SizeLimit("survey kernels", kernels, max_kernels)
    counts = _completion_counts(num_pairs)
    form_kernels = _form_kernels(k)
    form_of: dict[tuple[int, ...], str] = {}
    for name, c in zip(FORMS, form_kernels):
        form_of.setdefault(c, name)
    # the kernel of a prefix of values is the prefix of their kernel
    viable = [{c[:j] for c in form_kernels} for j in range(len(form_kernels[0]) + 1)]
    # pair_index increases along combinations(X, 2), so X's assigned pairs come first
    subsets = [(X, [pair_index(n, x, y) for x, y in combinations(X, 2)]) for X in combinations(range(n), k)]
    rows: list[Crt2Row] = []
    failing: list[int] = []
    vec = [0] * num_pairs
    # depth first over prefixes: (length, classes used, first subset not yet
    # failing on every completion, first kernel id, value of the last position)
    stack = [(0, 0, 0, 0, 0)]
    while stack:
        depth, classes, s, start, value = stack.pop()
        if depth:
            vec[depth - 1] = value
        witness = form = None
        while s < len(subsets):
            X, idxs = subsets[s]
            assigned = bisect_left(idxs, depth)
            kernel = _canonical_ids([vec[i] for i in idxs[:assigned]])
            if kernel not in viable[assigned]:
                s += 1
                continue
            if assigned == len(idxs):
                witness, form = X, form_of[kernel]
            break
        if witness is None and s < len(subsets):
            left = counts[num_pairs - depth - 1]
            children = []
            for c in range(classes + 1):
                grown = max(classes, c + 1)
                children.append((depth + 1, grown, s, start, c))
                start += left[grown]
            stack.extend(reversed(children))
            continue
        ids = range(start, start + counts[num_pairs - depth][classes])
        if witness is None:
            failing.extend(ids)
        rows.extend(map(Crt2Row, ids, repeat(witness is not None), repeat(witness), repeat(form)))
    return Crt2Survey(n, k, kernels, kernels - len(failing), tuple(failing), tuple(rows))


def survey_csv(survey: Crt2Survey) -> str:
    """CSV rows: kernel id, admits_canonical, witness subset, form."""
    lines = ["kernel_id,admits_canonical,witness_subset,form"]
    for row in survey.rows:
        witness = " ".join(str(p) for p in row.witness) if row.witness else ""
        lines.append(f"{row.kernel_id},{str(row.admits_canonical).lower()},{witness},{row.form or ''}")
    return "\n".join(lines) + "\n"


def kernel_at(n: int, kernel_id: int) -> PairFunction:
    """The pair function whose kernel sits at the given survey position.

    The id is unranked through the survey's completion counts.  Their table
    has m²/2 entries for the m pairs, so n is refused where a survey under
    the default budget is refused by B(m) >= 2^(m−1) alone: n <= 6 is
    answered.
    """
    if kernel_id < 0:
        raise InvalidParameter(f"kernel id {kernel_id} out of range")
    num_pairs = _survey_pairs(n, MAX_SURVEY_KERNELS)
    counts = _completion_counts(num_pairs)
    if kernel_id >= counts[num_pairs][0]:
        raise InvalidParameter(f"kernel id {kernel_id} out of range")
    vec = []
    classes = 0
    rest = kernel_id
    for depth in range(num_pairs):
        # the first `classes` values each head a block of this size; the last opens a new class
        block = counts[num_pairs - depth - 1][classes]
        c = min(rest // block, classes)
        rest -= c * block
        vec.append(c)
        classes = max(classes, c + 1)
    vec = tuple(vec)
    return PairFunction(n, EquivalenceRelation(num_pairs, vec), vec)
