"""Quasi-independent sets, dissociated bases, meshes, and Sidon bounds.

A finite family of integer vectors is quasi-independent when the only
combination sum eps_j v_j = 0 with eps_j in {-1,0,1} is the trivial one.
Two checkers, an exhaustive scan of all 3^k sign patterns and a
meet-in-the-middle search, each return a verified witness pattern on
failure.  Both encode each vector as one integer sum_i v_i B^i,
B = 2 k max|v_i| + 1 (exact, because no coordinate of a combination
reaches B/2), divide the codes by their gcd (which keeps every relation),
and sum them exactly over the sign patterns in mixed-radix order (digits
-1, 0, +1, big-endian): as int64 arrays in the search of 17 or more
elements while k max|code| < 2^62, and otherwise as Python integers in
``_exact_matches``, which imports no numpy.  Each witness is the first
nontrivial relation in its checker's documented order.

The constructive part builds, level by level,

* the recursive {-1,0,1} matrices  A_{nu+1} = (A A I; A -A 0)  whose
  2^nu-dimensional columns are quasi-independent, with column count
  N_nu = 2^{nu-1} (2 + nu);
* a rapidly growing "dissociated" integer base (beta_j) admitting no
  bounded nontrivial relations, via the greedy rule
  beta_j = 1 + 2 sum_{i<j} B_i beta_i;
* their contraction: a quasi-independent subset of the integers whose
  block nu lands N_nu elements inside a k-generator unit mesh, beating
  (1/4) k log2 k for every k -- the mesh-intersection upper bound
  C k log(1+k) for Sidon sets is sharp up to the constant.

Certified Sidon-constant machinery: the union bound 3 sqrt(3) k sqrt(2k-1)
and a randomized lower-bound search whose certificate rests on the grid
sup-norm inflation 1/(1 - pi n / M) for degree-n polynomials on M nodes.

beta grows super-exponentially; the construction and both checkers are
exact: Python arbitrary precision, or int64 where no sum can leave it.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from typing import Iterable, Iterator, Sequence

from . import _lazynp as np
from .core import (INT64_LIMIT, PHASE_GENERATOR, CapError, Record, SignPattern, ValidationError,
                   _generator, _grid)

BRUTE_FORCE_CAP = 16
BRUTE_TABLE = 8  # codes per block of the exact walk, and the scan's table
MITM_HALF_CAP = 2_000_000
MESH_EXHAUSTIVE_CAP = 16
MESH_GENERATOR_CAP = 4096
SIDON_SET_CAP = 64
SIDON_GRID_BUDGET = 8_000_000
_SIDON_PEAKS = 64  # largest |p| nodes a trial move is checked on first


class IntVectorSet(Record):
    """Finite list of distinct nonzero integer vectors of a common dimension."""

    elements: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        elems = tuple(tuple(int(x) for x in v) for v in self.elements)
        object.__setattr__(self, "elements", elems)
        dims = {len(v) for v in elems}
        if len(dims) > 1:
            raise ValidationError("vectors must share a common dimension", "dimension")
        if dims and next(iter(dims)) < 1:
            raise ValidationError("dimension must be >= 1", "dimension")
        for i, v in enumerate(elems):
            if all(x == 0 for x in v):
                raise ValidationError(f"zero vector at position {i}", "zero", i)
        if len(set(elems)) != len(elems):
            raise ValidationError("elements must be pairwise distinct", "distinct")

    @classmethod
    def from_integers(cls, values: Iterable[int]) -> "IntVectorSet":
        return cls(tuple((int(v),) for v in values))

    @classmethod
    def from_vectors(cls, vectors: Iterable[Sequence[int]]) -> "IntVectorSet":
        return cls(tuple(tuple(v) for v in vectors))

    def __len__(self) -> int:
        return len(self.elements)

    @property
    def max_abs(self) -> int:
        return max((abs(x) for v in self.elements for x in v), default=0)


class QiCheckResult(Record):
    quasi_independent: bool
    witness: SignPattern | None


def _index_signs(index: int, k: int) -> list[int]:
    """The signs of pattern ``index`` in mixed-radix order."""
    signs = [0] * k
    for pos in range(k - 1, -1, -1):
        index, digit = divmod(index, 3)
        signs[pos] = digit - 1
    return signs


def _codes(vset: IntVectorSet) -> list[int]:
    """The exact codes sum_i v_i B^i of the module docstring, divided by their
    gcd: that keeps every relation."""
    base = 2 * len(vset) * vset.max_abs + 1
    codes = [sum(x * base ** i for i, x in enumerate(v)) for v in vset.elements]
    gcd = math.gcd(*codes)
    return [c // gcd for c in codes]


def _sign_sums(values: np.ndarray) -> np.ndarray:
    """Every {-1,0,1} combination of the int64 ``values`` in mixed-radix
    order, built level by level, S -> [S - v, S, S + v]."""
    sums = np.zeros(1, dtype=np.int64)
    for v in values:
        sums = (sums[:, None] + np.array([-v, 0, v])).reshape(-1)
    return sums


def _exact_sign_sums(codes: list[int]) -> list[int]:
    """``_sign_sums`` of the Python integers ``codes``, exact."""
    sums = [0]
    for v in codes:
        sums = [s + d for s in sums for d in (-v, 0, v)]
    return sums


def _exact_matches(walk: list[int], table: list[int]) -> Iterator[tuple[int, list[int]]]:
    """Each sign sum of ``walk`` that a sign sum of ``table`` cancels, as its
    index in mixed-radix order and the signs of the first table pattern that
    cancels it, in the order of the walk.

    ``reach`` holds every sign sum of the table, grown in place code by code
    (S -> S u (S - t) u (S + t)).  The walk comes in blocks, one per sum of
    all but the last ``BRUTE_TABLE`` walk codes, and a block with no sum in
    ``reach`` is passed over by one ``isdisjoint``.  The first table pattern
    with a given sum is the first pattern of the table's first half whose
    remainder a second-half pattern sums to, followed by the first such one.
    """
    reach = {0}
    for t in table:
        sums = list(reach)
        reach.update(map(operator.add, sums, itertools.repeat(t)),
                     map(operator.sub, sums, itertools.repeat(t)))
    half = len(table) // 2
    lead, trail = _exact_sign_sums(table[:half]), _exact_sign_sums(table[half:])
    first = dict(zip(reversed(trail), reversed(range(len(trail)))))  # each sum's first index
    split = max(len(walk) - BRUTE_TABLE, 0)
    block = _exact_sign_sums(walk[split:])
    for outer, offset in enumerate(_exact_sign_sums(walk[:split])):
        if reach.isdisjoint(map(operator.add, block, itertools.repeat(offset))):
            continue
        for inner, s in enumerate(block):
            need = -offset - s
            if need in reach:
                index = next(i * len(trail) + first[need - a]
                             for i, a in enumerate(lead) if need - a in first)
                yield outer * len(block) + inner, _index_signs(index, len(table))


def _verdict(vset: IntVectorSet, candidates: Iterable[list[int]]) -> QiCheckResult:
    """The first candidate (list of signs) whose pattern is a nontrivial
    relation, checked exactly with ``SignPattern.apply`` and led by +1.
    Both checkers sum exactly, so every candidate is a relation and only the
    trivial pattern fails: neither hands over more than two candidates."""
    for signs in candidates:
        pattern = SignPattern.from_signs(signs)
        if not pattern.is_trivial and not any(pattern.apply(vset.elements)):
            if pattern.entries[0][1] == -1:
                # a witness and its negation are interchangeable; lead with +1
                pattern = SignPattern(tuple((j, -e) for j, e in pattern.entries))
            return QiCheckResult(False, pattern)
    return QiCheckResult(True, None)


def qi_check_bruteforce(vset: IntVectorSet) -> QiCheckResult:
    """Exhaustive scan of all 3^k sign patterns, first witness in scan order.

    Capped at 16 elements (3^16 patterns); larger sets are directed to the
    meet-in-the-middle checker.  ``_exact_matches`` walks the sums of the
    leading k - 8 codes over a table of the last min(k, ``BRUTE_TABLE``):
    each walked sum has one candidate, the first table pattern cancelling
    it.  Only the trivial pattern can fail ``_verdict``, and only when no
    relation among the last codes comes before it.
    """
    k = len(vset)
    if k > BRUTE_FORCE_CAP:
        raise CapError(
            f"brute force capped at {BRUTE_FORCE_CAP} elements, got {k}; "
            "use qi_check_mitm")
    codes = _codes(vset)
    outer = max(k - BRUTE_TABLE, 0)
    return _verdict(vset, (_index_signs(walked, outer) + signs for walked, signs
                           in _exact_matches(codes[:outer], codes[outer:])))


def qi_check_mitm(vset: IntVectorSet) -> QiCheckResult:
    """Meet-in-the-middle check: the first-half sign sums matched against
    the second-half ones, exactly.

    Refused once the first ceil(k/2) codes have more than ``MITM_HALF_CAP``
    sign sums.  On 17 or more codes with k max|code| < 2^62 the sums are
    int64 arrays: a sorted copy of the first-half sums finds the second-half
    sums that some first-half sum cancels, and a scan of the first half gives
    each one's first pattern.  Otherwise (up to ``BRUTE_FORCE_CAP`` = 16
    elements, with no numpy, or beyond int64) ``_exact_matches`` walks the
    second-half sums of Python integers over a table of the first half.  The
    witness is the first second-half pattern (in mixed-radix order) with a
    nontrivial match, combined with the first first-half pattern matching it;
    the first zero-sum first-half pattern is nontrivial whenever one is (of a
    relation and its negation, the one led by -1 precedes the trivial
    pattern), so each second-half pattern has one candidate.
    """
    k = len(vset)
    k_a = (k + 1) // 2
    k_b = k - k_a
    if 3 ** k_a > MITM_HALF_CAP:
        raise CapError(f"memory budget exceeded: half enumeration needs 3^{k_a} entries, "
                       f"cap is {MITM_HALF_CAP}")
    codes = _codes(vset)
    if k <= BRUTE_FORCE_CAP or k * max(map(abs, codes), default=0) >= INT64_LIMIT:
        matches = _exact_matches(codes[k_a:], codes[:k_a])
    else:
        sums_a = _sign_sums(np.array(codes[:k_a], dtype=np.int64))
        need = _sign_sums(-np.array(codes[k_a:], dtype=np.int64))
        keys = np.sort(sums_a)
        hits = np.flatnonzero(keys[np.minimum(np.searchsorted(keys, need), keys.size - 1)] == need)
        matches = ((int(b), _index_signs(int(np.argmax(sums_a == need[b])), k_a)) for b in hits)
    return _verdict(vset, (signs + _index_signs(walked, k_b) for walked, signs in matches))


# ---------------------------------------------------------------------------
# the recursive construction
# ---------------------------------------------------------------------------


def closed_form_column_count(nu: int) -> int:
    """N_nu = 2^{nu-1} (2 + nu)."""
    return 2 ** (nu - 1) * (2 + nu)


class QiMatrix(Record):
    """Level-nu matrix with 2^nu rows, N_nu quasi-independent columns in {-1,0,1}."""

    nu: int
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        expected_rows = 2 ** self.nu
        expected_cols = closed_form_column_count(self.nu)
        if len(self.rows) != expected_rows:
            raise ValidationError(
                f"level {self.nu} needs {expected_rows} rows, got {len(self.rows)}",
                "shape")
        if any(len(r) != expected_cols for r in self.rows):
            raise ValidationError(
                f"level {self.nu} needs {expected_cols} columns", "shape")

    @property
    def column_count(self) -> int:
        return len(self.rows[0])

    def columns(self) -> list[tuple[int, ...]]:
        return [tuple(r[c] for r in self.rows) for c in range(self.column_count)]

    def to_array(self) -> np.ndarray:
        return np.array(self.rows, dtype=np.int64)


def _check_level(what: str, nu: int, cap: int) -> None:
    """A level below 1 is a bad argument; one above ``cap`` is refused."""
    if not 1 <= nu <= cap:
        message = f"{what} level must lie in [1, {cap}], got {nu}"
        raise ValidationError(message, "level", nu) if nu < 1 else CapError(message)


def build_qi_matrix(nu: int) -> QiMatrix:
    """Recursive doubling from A_1 = (1 1 1; 1 -1 0):

        A_{nu+1} = (A_nu  A_nu  I; A_nu  -A_nu  0).

    Column counts satisfy N_{nu+1} = 2 N_nu + 2^nu with N_1 = 3, i.e. the
    closed form 2^{nu-1}(2+nu).
    """
    _check_level("matrix", nu, 8)
    rows = ((1, 1, 1), (1, -1, 0))
    for _ in range(2, nu + 1):
        n = len(rows)
        eye = [(0,) * i + (1,) + (0,) * (n - 1 - i) for i in range(n)]
        rows = (*(r + r + e for r, e in zip(rows, eye)),
                *(r + tuple(-x for x in r) + (0,) * n for r in rows))
    return QiMatrix(nu, rows)


class DissociatedBase(Record):
    """Greedy base beta_j = 1 + 2 sum_{i<j} B_i beta_i (1-indexed j).

    The per-index bounds are B_1 = 3 and B_j = N_nu for 2^nu <= j < 2^{nu+1};
    any relation sum n_j beta_j = 0 with |n_j| <= B_j is trivial because the
    top term strictly dominates everything below it.
    """

    beta: tuple[int, ...]
    bounds: tuple[int, ...]
    nu_max: int

    def value(self, j: int) -> int:
        """beta_j for 1-indexed j."""
        return self.beta[j - 1]

    def bound(self, j: int) -> int:
        return self.bounds[j - 1]

    def block(self, nu: int) -> tuple[int, ...]:
        """(beta_{2^nu}, ..., beta_{2^{nu+1}-1}) -- the 2^nu generators of level nu."""
        if not 1 <= nu <= self.nu_max:
            raise ValidationError(f"block level must lie in [1, {self.nu_max}]",
                                  "level", nu)
        return tuple(self.beta[j - 1] for j in range(2 ** nu, 2 ** (nu + 1)))


def _index_bound(j: int) -> int:
    if j == 1:
        return 3
    return closed_form_column_count(j.bit_length() - 1)


def build_dissociated_base(nu_max: int) -> DissociatedBase:
    _check_level("base", nu_max, 8)
    top = 2 ** (nu_max + 1) - 1
    beta: list[int] = []
    bounds: list[int] = []
    weighted = 0  # sum_{i<j} B_i beta_i, exact
    for j in range(1, top + 1):
        b = _index_bound(j)
        val = 1 + 2 * weighted
        beta.append(val)
        bounds.append(b)
        weighted += b * val
    return DissociatedBase(tuple(beta), tuple(bounds), nu_max)


class LambdaSet(Record):
    """Block-major contraction of the level matrices onto the integers.

    Block nu contributes the N_nu values (beta-block of level nu) @ A_nu,
    one per column; the concatenation over nu = 1..nu_max is quasi-
    independent because every {-1,0,1}-combination rewrites as a
    base relation within the per-index bounds.
    """

    gamma: tuple[int, ...]
    blocks: tuple[tuple[int, int], ...]  # half-open index ranges, level nu = position+1
    base: DissociatedBase

    def block_values(self, nu: int) -> tuple[int, ...]:
        lo, hi = self.blocks[nu - 1]
        return self.gamma[lo:hi]

    def prefix(self, nu: int) -> tuple[int, ...]:
        return self.gamma[: self.blocks[nu - 1][1]]

    def __len__(self) -> int:
        return len(self.gamma)


def build_lambda(nu_max: int) -> LambdaSet:
    _check_level("lambda", nu_max, 6)
    base = build_dissociated_base(nu_max)
    gamma: list[int] = []
    blocks: list[tuple[int, int]] = []
    for nu in range(1, nu_max + 1):
        block = base.block(nu)
        matrix = build_qi_matrix(nu)
        start = len(gamma)
        for col in matrix.columns():
            gamma.append(sum(b * e for b, e in zip(block, col)))
        blocks.append((start, len(gamma)))
    if len(set(gamma)) != len(gamma) or any(g == 0 for g in gamma):
        raise AssertionError("contracted set must be nonzero and distinct")
    return LambdaSet(tuple(gamma), tuple(blocks), base)


# ---------------------------------------------------------------------------
# meshes
# ---------------------------------------------------------------------------


class Mesh(Record):
    """Integer combinations sum n_j gamma_j with |n_j| <= bounds_j."""

    generators: tuple[int, ...]
    bounds: tuple[int, ...]

    def __post_init__(self):
        gens = tuple(int(g) for g in self.generators)
        bnds = tuple(int(b) for b in self.bounds)
        object.__setattr__(self, "generators", gens)
        object.__setattr__(self, "bounds", bnds)
        if not gens:
            raise ValidationError("mesh needs at least one generator", "generators")
        if len(gens) != len(bnds):
            raise ValidationError("generators and bounds length mismatch", "length")
        if any(g == 0 for g in gens):
            raise ValidationError("mesh generators must be nonzero", "zero")
        if len(set(gens)) != len(gens):
            raise ValidationError("mesh generators must be distinct", "distinct")
        if any(b < 1 for b in bnds):
            raise ValidationError("bounds must be >= 1", "bounds")

    @classmethod
    def unit_box(cls, generators: Iterable[int]) -> "Mesh":
        gens = tuple(int(g) for g in generators)
        return cls(gens, (1,) * len(gens))

    @classmethod
    def padded_unit_box(cls, generators, k: int, elements) -> "Mesh":
        """The unit box on ``generators`` padded to k generators with scale * 3^i,
        scale = 4 (sum |g| + max |x| + 1) over the generators g and the elements x:
        too large to represent any new element, after ``_check_padding`` refuses k."""
        cls._check_padding(len(generators), k)
        scale = 4 * (sum(map(abs, generators)) + max(map(abs, elements)) + 1)
        return cls.unit_box([*generators, *(scale * 3 ** i for i in range(k - len(generators)))])

    @staticmethod
    def _check_padding(n: int, k: int) -> None:  # before any element is read
        if k < n:
            raise ValidationError(f"--k must be >= the block size {n}", "arguments")
        if k > MESH_GENERATOR_CAP:
            raise CapError(f"mesh padded to k={k} generators; the cap is {MESH_GENERATOR_CAP}")

    @property
    def k(self) -> int:
        return len(self.generators)

    @functools.cached_property
    def _reach_table(self) -> tuple[list[tuple[int, int]], list[int]]:
        """The (|g|, bound) pairs, descending by |g|, and the maximal reach
        sum bound * |g| of the pairs after each."""
        pairs = sorted(((abs(g), b) for g, b in zip(self.generators, self.bounds)),
                       reverse=True)
        reaches = list(itertools.accumulate((g * b for g, b in reversed(pairs)), initial=0))
        return pairs, reaches[-2::-1]

    def is_dissociated(self) -> bool:
        """Growth test making bounded representations unique: sorted by
        absolute value, each |g| must exceed twice the maximal reach of
        everything below it."""
        return all(g > 2 * reach for (g, _), reach in zip(*self._reach_table))


class MeshIntersection(Record):
    count: int
    members: tuple[int, ...]


def _greedy_member(x: int, pairs: list[tuple[int, int]],
                   reaches: list[int]) -> bool:
    # pairs: (|g|, bound) descending by |g|; reaches[i] = max reach below i.
    # Dissociation gives |g| > 2 * reach, so the only digit that can work is
    # the nearest integer to x / g.
    for i, (g, bound) in enumerate(pairs):
        if x == 0:
            return True
        q, r = divmod(x, g)
        if 2 * r >= g:
            q += 1
        if abs(q) > bound or abs(x - q * g) > reaches[i]:
            return False
        x -= q * g
    return x == 0


def _dfs_member(x: int, pairs: list[tuple[int, int]],
                reaches: list[int], i: int = 0) -> bool:
    if i == len(pairs):
        return x == 0
    g, bound = pairs[i]
    if abs(x) > reaches[i] + g * bound:
        return False
    for n in range(-bound, bound + 1):
        if _dfs_member(x - n * g, pairs, reaches, i + 1):
            return True
    return False


def mesh_intersection(elements, mesh: Mesh) -> MeshIntersection:
    """Count (and list) the elements representable inside the mesh box.

    Dissociated generators admit a greedy digit extraction (the bounded
    representation is unique, so each digit is forced); otherwise the box
    is searched exhaustively, which is capped at 16 generators.
    """
    if isinstance(elements, LambdaSet):
        values = list(elements.gamma)
    else:
        values = [int(x) for x in elements]
    pairs, reaches = mesh._reach_table
    dissociated = mesh.is_dissociated()
    if not dissociated and mesh.k > MESH_EXHAUSTIVE_CAP:
        raise CapError(
            f"ambiguous representations: non-dissociated generators with "
            f"k={mesh.k} > {MESH_EXHAUSTIVE_CAP} cannot be searched exhaustively")
    member = _greedy_member if dissociated else _dfs_member
    members = tuple(x for x in values if member(x, pairs, reaches))
    return MeshIntersection(len(members), members)


class MeshBoundRecord(Record):
    k: int
    count: int
    quarter_bound: float
    passed: bool


class MeshBoundReport(Record):
    nu: int
    expected_count: int
    records: tuple[MeshBoundRecord, ...]
    half_bound: float
    half_passed: bool

    @property
    def all_passed(self) -> bool:
        return self.half_passed and all(r.passed for r in self.records)


def verify_mesh_bound(nu: int, lam: LambdaSet | None = None) -> MeshBoundReport:
    """For every k in [2^nu, 2^{nu+1}): pad the level-nu generator block to k
    generators and check the intersection count N_nu against (1/4) k log2 k,
    and against (1/2) k log2 k at k = 2^nu.

    The padding generators (``Mesh.padded_unit_box``) cannot produce new
    members, so the same intersection is exhibited at every k in the range.
    """
    _check_level("mesh bound", nu, 6)
    if lam is None:
        lam = build_lambda(nu)
    gens = lam.base.block(nu)
    records = []
    expected = closed_form_column_count(nu)
    half_bound = 0.5 * 2 ** nu * math.log2(2 ** nu)
    half_passed = False
    for k in range(2 ** nu, 2 ** (nu + 1)):
        mesh = Mesh.padded_unit_box(gens, k, lam.gamma)
        count = mesh_intersection(lam, mesh).count
        quarter = 0.25 * k * math.log2(k)
        records.append(MeshBoundRecord(k, count, quarter, count >= quarter))
        if k == 2 ** nu:
            half_passed = count > half_bound
        if count != expected:
            raise AssertionError(
                f"level {nu} mesh at k={k} holds {count} members, expected {expected}")
    return MeshBoundReport(nu, expected, tuple(records), half_bound, half_passed)


# ---------------------------------------------------------------------------
# Sidon constants
# ---------------------------------------------------------------------------


def sidon_union_bound(k: int) -> float:
    """Upper bound 3 sqrt(3) k sqrt(2k-1) for a union of k quasi-independent
    sets (about 5.196 at k = 1; the sharper known single-set constant is
    4.27)."""
    k = int(k)
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}", "count")
    try:
        bound = 3.0 * math.sqrt(3.0) * k * math.sqrt(2.0 * k - 1.0)
    except OverflowError:  # k itself is beyond float64
        bound = math.inf
    if not math.isfinite(bound):
        raise CapError(f"the union bound for k = {k} is beyond float64")
    return bound


class SidonEstimate(Record):
    """Certified lower bound for the Sidon constant of a finite set.

    ``grid_ratio`` is the best observed sum |c| / (grid max); the certified
    ``lower_bound`` divides it by the inflation factor 1/(1 - pi n / M)
    that converts a grid maximum into a true sup-norm bound for degree-n
    polynomials.
    """

    lower_bound: float
    grid_ratio: float
    coefficients: tuple[complex, ...]
    frequencies: tuple[int, ...]
    grid_size: int
    degree: int
    factor: float
    trials: int
    seed: int
    generator: str = PHASE_GENERATOR


def sidon_lower_estimate(frequencies: Iterable[int], trials: int = 200,
                         seed: int = 0,
                         grid_size: int | None = None) -> SidonEstimate:
    """Randomized search for coefficients maximizing sum |c| / sup |p|.

    Unimodular random phases plus cyclic coordinate refinement; only the
    certification of the reported bound is contractual, never optimality.
    The running maximum is nondecreasing in ``trials`` for a fixed seed.
    A trial move is first evaluated at the 64 nodes of largest |p| and
    rejected there if one of them reaches gmax (1 + 1e-12), since the full
    pass would then find no lower maximum; only the other moves get the
    full pass, so every decision and the result are those of the full pass.
    """
    if trials < 1:
        raise ValidationError(f"trials must be >= 1, got {trials}", "trials")
    freqs = tuple(int(v) for v in frequencies)
    if not freqs:
        raise ValidationError("frequency set is empty", "frequencies")
    if len(set(freqs)) != len(freqs):
        raise ValidationError("frequencies must be distinct", "distinct")
    k = len(freqs)
    if k > SIDON_SET_CAP:
        raise CapError(f"estimator capped at {SIDON_SET_CAP} frequencies, got {k}")
    degree = max(abs(v) for v in freqs)
    if degree < 1:
        raise ValidationError("need a nonzero frequency", "degree")
    m_grid = grid_size if grid_size is not None else max(64 * degree, 1024)
    pi_num, pi_den = math.pi.as_integer_ratio()  # exact: degree may be beyond float64
    if m_grid * pi_den <= pi_num * degree:
        raise ValidationError(
            f"grid size {m_grid} refused: must exceed pi * degree for certification, "
            f"degree = {degree}", "grid")
    if k * m_grid > SIDON_GRID_BUDGET:
        raise CapError(
            f"grid budget exceeded: {k} frequencies x {m_grid} nodes > "
            f"{SIDON_GRID_BUDGET}")
    if trials * k * m_grid > 200 * SIDON_GRID_BUDGET:  # the default trials at the budget
        raise CapError(
            f"search budget exceeded: {trials} trials x {k} frequencies x {m_grid} nodes > "
            f"{200 * SIDON_GRID_BUDGET}")
    rng = _generator(seed)
    t = _grid(m_grid)
    basis = np.exp(1j * np.outer(np.array(freqs, dtype=float), t))
    best_ratio = 0.0
    best_c = np.ones(k, dtype=complex)
    deltas = (math.pi / 4, -math.pi / 4, math.pi / 16, -math.pi / 16)
    p_try, g = np.empty(m_grid, dtype=complex), np.empty(m_grid)
    n_peaks = min(_SIDON_PEAKS, m_grid)
    for _ in range(int(trials)):
        c = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, k))
        p = c @ basis
        gmax = float(np.max(np.abs(p, out=g)))
        peaks = np.argpartition(g, -n_peaks)[-n_peaks:]
        for _sweep in range(2):
            for j in range(k):
                for d in deltas:
                    cj = c[j] * complex(math.cos(d), math.sin(d))
                    step = cj - c[j]
                    # a move reaching gmax at a current peak cannot lower the max
                    # (the margin covers rounding): skip the full pass
                    if np.max(np.abs(p[peaks] + step * basis[j, peaks])) >= gmax * (1 + 1e-12):
                        continue
                    np.add(p, np.multiply(step, basis[j], out=p_try), out=p_try)
                    g_try = float(np.max(np.abs(p_try, out=g)))
                    if g_try < gmax:
                        gmax, p, p_try = g_try, p_try, p
                        peaks = np.argpartition(g, -n_peaks)[-n_peaks:]
                        c = c.copy()
                        c[j] = cj
        ratio = k / gmax
        if ratio > best_ratio:
            best_ratio = ratio
            best_c = c
    factor = 1.0 / (1.0 - math.pi * degree / m_grid)
    return SidonEstimate(best_ratio / factor, best_ratio,
                         tuple(map(complex, best_c)), freqs, m_grid, degree,
                         factor, int(trials), int(seed))
