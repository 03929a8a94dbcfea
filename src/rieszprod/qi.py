"""Quasi-independent sets, dissociated bases, meshes, and Sidon bounds.

A finite family of integer vectors is quasi-independent when the only
combination sum eps_j v_j = 0 with eps_j in {-1,0,1} is the trivial one.
Two checkers are provided: an exhaustive scan over all 3^k sign patterns
and a meet-in-the-middle search, each returning a verified witness pattern
on failure.  Both encode each vector as one integer sum_i v_i B^i,
B = 2 k max|v_i| + 1 (exact, because no coordinate of a combination
reaches B/2), divide the codes by their gcd and reduce them modulo the
prime p = 2^57 - 13, so that sums of up to 16 residues stay in int64.
Both build their sign sums level by level, S -> [S - v, S, S + v], in
mixed-radix order (digits -1, 0, +1, big-endian).  The scan compares sums
with one another, the search sorts the first-half sums and looks up the
negated second-half sums.  A residue match is only a candidate: each is
checked exactly in the checker's witness order, and past
QI_FALSE_MATCH_CAP failed candidates the check is refused.  The search's
witness is the first second-half pattern with a nontrivial match,
combined with the first first-half pattern matching it (both in that
order).

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

beta grows super-exponentially; the construction is exact Python
arbitrary precision, and the checkers' int64 sums are residues whose
matches are verified with exact integers.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

from .core import CapError, Record, SignPattern, ValidationError, _grid

BRUTE_FORCE_CAP = 16
MITM_CAP = 32
MITM_HALF_CAP = 2_000_000
QI_FALSE_MATCH_CAP = 10_000
MESH_EXHAUSTIVE_CAP = 16
MESH_GENERATOR_CAP = 4096
SIDON_SET_CAP = 64
SIDON_GRID_BUDGET = 8_000_000
_SIDON_PEAKS = 64  # largest |p| nodes a trial move is checked on first

# the checkers' prime: 16 p < 2^62, so sums of up to 16 residues stay in int64
RESIDUE_PRIME = 2 ** 57 - 13


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
    def dim(self) -> int:
        return len(self.elements[0]) if self.elements else 1

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


def _residues(vset: IntVectorSet) -> np.ndarray:
    """The codes sum_i v_i B^i of the module docstring modulo ``RESIDUE_PRIME``,
    divided first by their gcd: that keeps every relation, and leaves a
    code that p does not divide."""
    base = 2 * len(vset) * vset.max_abs + 1
    codes = [sum(x * base ** i for i, x in enumerate(v)) for v in vset.elements]
    gcd = math.gcd(*codes)
    return np.array([c // gcd % RESIDUE_PRIME for c in codes], dtype=np.int64)


def _sign_sums(values: np.ndarray) -> np.ndarray:
    """Every {-1,0,1} combination of the int64 ``values`` in mixed-radix
    order, built level by level, S -> [S - v, S, S + v]."""
    sums = np.zeros(1, dtype=np.int64)
    for v in values:
        sums = (sums[:, None] + np.array([-v, 0, v])).reshape(-1)
    return sums


def _verdict(vset: IntVectorSet, candidates: Iterable[list[int]]) -> QiCheckResult:
    """The first candidate (list of signs) whose pattern is a nontrivial
    relation, checked exactly with ``SignPattern.apply`` and led by +1; a
    residue match can be a false one, and the trivial pattern always fails.
    Past ``QI_FALSE_MATCH_CAP`` failed candidates the check is refused."""
    failed = 0
    for signs in candidates:
        pattern = SignPattern.from_signs(signs)
        if not pattern.is_trivial and not any(pattern.apply(vset.elements)):
            if pattern.entries[0][1] == -1:
                # a witness and its negation are interchangeable; lead with +1
                pattern = SignPattern(tuple((j, -e) for j, e in pattern.entries))
            return QiCheckResult(False, pattern)
        failed += 1
        if failed > QI_FALSE_MATCH_CAP:
            raise CapError(
                f"{failed} sign patterns matched modulo p = {RESIDUE_PRIME} but "
                f"not exactly; the false-match cap is {QI_FALSE_MATCH_CAP}")
    return QiCheckResult(True, None)


def qi_check_bruteforce(vset: IntVectorSet) -> QiCheckResult:
    """Exhaustive scan of all 3^k sign patterns, first witness in scan order.

    Capped at 16 elements (3^16 patterns); larger sets are directed to the
    meet-in-the-middle checker.  The sums of the last min(k, 12) residues
    are built once and reduced modulo p; each sum of the remaining leading
    residues is an offset, and the inner sums equal to -offset mod p are
    the candidates, verified exactly in scan order.
    """
    k = len(vset)
    if k > BRUTE_FORCE_CAP:
        raise CapError(
            f"brute force capped at {BRUTE_FORCE_CAP} elements, got {k}; "
            "use qi_check_mitm")
    residues = _residues(vset)
    outer = max(k - 12, 0)
    inner = _sign_sums(residues[outer:])
    np.remainder(inner, RESIDUE_PRIME, out=inner)

    def candidates():
        for out_idx, offset in enumerate(_sign_sums(residues[:outer])):
            for h in np.flatnonzero(inner == -offset % RESIDUE_PRIME):
                yield _index_signs(out_idx * inner.size + int(h), k)

    return _verdict(vset, candidates())


def qi_check_mitm(vset: IntVectorSet) -> QiCheckResult:
    """Meet-in-the-middle check: sorted half-pattern sums matched by search.

    The sign sums of the first ceil(k/2) residues and the negated sums of
    the last floor(k/2) are reduced modulo p and the first are sorted
    (stably); every equal pair is a candidate.  The witness is the first
    second-half pattern (in mixed-radix order) with a nontrivial exact
    match, combined with the first first-half pattern it matches exactly;
    a set is quasi-independent exactly when no candidate passes.
    """
    k = len(vset)
    if k > MITM_CAP:
        raise CapError(f"meet-in-the-middle capped at {MITM_CAP} elements, got {k}")
    k_a = (k + 1) // 2
    k_b = k - k_a
    if 3 ** k_a > MITM_HALF_CAP:
        raise CapError(
            f"memory budget exceeded: half enumeration needs 3^{k_a} = "
            f"{3 ** k_a} entries, cap is {MITM_HALF_CAP}")
    residues = _residues(vset)
    sums_a = _sign_sums(residues[:k_a])
    need = _sign_sums(-residues[k_a:])
    np.remainder(sums_a, RESIDUE_PRIME, out=sums_a)
    np.remainder(need, RESIDUE_PRIME, out=need)
    order = np.argsort(sums_a, kind="stable")
    sums_a = sums_a[order]
    lo = np.searchsorted(sums_a, need, "left")
    hi = np.searchsorted(sums_a, need, "right")

    def candidates():
        # the stable sort keeps first-half indices ascending within a residue
        for idx_b in np.flatnonzero(hi > lo):
            signs_b = _index_signs(int(idx_b), k_b)
            for pos in range(lo[idx_b], hi[idx_b]):
                yield _index_signs(int(order[pos]), k_a) + signs_b

    return _verdict(vset, candidates())


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
    a = np.array([[1, 1, 1], [1, -1, 0]], dtype=np.int64)
    for level in range(2, nu + 1):
        rows = a.shape[0]
        eye = np.eye(rows, dtype=np.int64)
        zero = np.zeros((rows, rows), dtype=np.int64)
        a = np.vstack((np.hstack((a, a, eye)), np.hstack((a, -a, zero))))
    return QiMatrix(nu, tuple(tuple(int(x) for x in row) for row in a))


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
        too large to represent any new element.  Callers refuse k > MESH_GENERATOR_CAP."""
        scale = 4 * (sum(map(abs, generators)) + max(map(abs, elements)) + 1)
        return cls.unit_box([*generators, *(scale * 3 ** i for i in range(k - len(generators)))])

    @property
    def k(self) -> int:
        return len(self.generators)

    def is_dissociated(self) -> bool:
        """Growth test making bounded representations unique: sorted by
        absolute value, each |g| must exceed twice the maximal reach of
        everything below it."""
        pairs = sorted((abs(g), b) for g, b in zip(self.generators, self.bounds))
        reach = 0
        for g, b in pairs:
            if g <= 2 * reach:
                return False
            reach += b * g
        return True


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
    pairs = sorted(((abs(g), b) for g, b in zip(mesh.generators, mesh.bounds)),
                   reverse=True)
    reaches = [0] * len(pairs)
    total = 0
    for i in range(len(pairs) - 1, -1, -1):
        reaches[i] = total
        total += pairs[i][0] * pairs[i][1]
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
    return 3.0 * math.sqrt(3.0) * k * math.sqrt(2.0 * k - 1.0)


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
    generator: str = "numpy-pcg64"


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
    if m_grid <= math.pi * degree:
        raise ValidationError(
            f"grid size {m_grid} refused: must exceed pi * degree = "
            f"{math.pi * degree:.1f} for certification", "grid")
    if k * m_grid > SIDON_GRID_BUDGET:
        raise CapError(
            f"grid budget exceeded: {k} frequencies x {m_grid} nodes > "
            f"{SIDON_GRID_BUDGET}")
    t = _grid(m_grid)
    basis = np.exp(1j * np.outer(np.array(freqs, dtype=float), t))
    rng = np.random.default_rng(seed)
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
