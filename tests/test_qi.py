"""Quasi-independence checkers, the recursive construction, meshes, Sidon.

The two checkers are each other's oracle: they share the integer codes,
the exact walk and the verification of candidates, but the scan tabulates
the trailing codes and walks the leading ones, and the search tabulates the
first half and walks the second, or, past 16 elements, sorts and searches
int64 half sums.
Both are also checked against plain enumerations in their documented
orders, and every negative verdict's witness is recombined and checked to
sum to zero.
Closed forms for the column counts and the base recurrence are verified
directly.
"""

import itertools
import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from rieszprod import (
    CapError,
    IntVectorSet,
    Mesh,
    QiCheckResult,
    SignPattern,
    ValidationError,
    build_dissociated_base,
    build_lambda,
    build_qi_matrix,
    closed_form_column_count,
    mesh_intersection,
    qi_check_bruteforce,
    qi_check_mitm,
    sidon_lower_estimate,
    sidon_union_bound,
    verify_mesh_bound,
)
from rieszprod import qi
from rieszprod.cli import main
from rieszprod.core import INT64_LIMIT
from rieszprod.qi import MESH_GENERATOR_CAP, MITM_HALF_CAP

# the prime modulo which an earlier search reduced its sums; sets built to
# match modulo P and never exactly stay as tests of the exact sums
P = 2 ** 57 - 13


def assert_witness_valid(vset, result):
    assert not result.quasi_independent
    combo = result.witness.apply(vset.elements)
    assert all(x == 0 for x in combo)
    assert not result.witness.is_trivial


# ---------------------------------------------------------------------------
# checkers
# ---------------------------------------------------------------------------


def test_bruteforce_small_examples():
    bad = IntVectorSet.from_integers([1, 2, 3])
    result = qi_check_bruteforce(bad)
    assert_witness_valid(bad, result)
    assert result.witness.signs(3) == (1, 1, -1)

    assert qi_check_bruteforce(IntVectorSet.from_integers([3, 4, 5])).quasi_independent

    powers = IntVectorSet.from_integers([2 ** j for j in range(11)])
    assert qi_check_bruteforce(powers).quasi_independent

    relation = IntVectorSet.from_integers([3, 4, 5, 12])
    result = qi_check_bruteforce(relation)
    assert result.witness.signs(4) == (1, 1, 1, -1)


def test_bruteforce_cap_directs_to_mitm():
    big = IntVectorSet.from_integers([10 ** 9 + j for j in range(17)])
    with pytest.raises(CapError, match="mitm"):
        qi_check_bruteforce(big)


def test_mitm_equals_bruteforce_on_random_sets():
    rng = np.random.default_rng(7)
    for trial in range(200):
        k = int(rng.integers(2, 13))
        values = set()
        while len(values) < k:
            values.add(int(rng.integers(1, 10 ** 6)))
        vset = IntVectorSet.from_integers(sorted(values))
        brute = qi_check_bruteforce(vset)
        mitm = qi_check_mitm(vset)
        assert brute.quasi_independent == mitm.quasi_independent
        if not brute.quasi_independent:
            assert_witness_valid(vset, brute)
            assert_witness_valid(vset, mitm)


def test_mitm_equals_bruteforce_on_vector_sets():
    rng = np.random.default_rng(9)
    for trial in range(50):
        k = int(rng.integers(2, 10))
        d = int(rng.integers(2, 5))
        vecs = set()
        while len(vecs) < k:
            v = tuple(int(x) for x in rng.integers(-3, 4, d))
            if any(v):
                vecs.add(v)
        vset = IntVectorSet.from_vectors(sorted(vecs))
        assert (qi_check_bruteforce(vset).quasi_independent
                == qi_check_mitm(vset).quasi_independent)


def test_checkers_handle_exact_big_integers():
    # values beyond int64: exact arithmetic must not wrap
    base = 2 ** 70
    dependent = IntVectorSet.from_integers([base, 2 * base, 3 * base])
    result = qi_check_bruteforce(dependent)
    assert_witness_valid(dependent, result)
    result = qi_check_mitm(dependent)
    assert_witness_valid(dependent, result)
    independent = IntVectorSet.from_integers([base + j for j in (0, 1, 3)])
    assert qi_check_bruteforce(independent).quasi_independent
    assert qi_check_mitm(independent).quasi_independent


def documented_witness(vectors):
    """The witness order qi_check_mitm documents, by plain enumeration: the
    first second-half pattern with a nontrivial zero-sum completion, then the
    first first-half pattern completing it (both halves in mixed-radix
    order, digits -1, 0, +1, big-endian), led by +1."""
    half = (len(vectors) + 1) // 2

    def patterns(part):
        rows = list(itertools.product((-1, 0, 1), repeat=len(part)))
        return [(row, [sum(e * v[i] for e, v in zip(row, part))
                       for i in range(len(vectors[0]))]) for row in rows]

    first = patterns(vectors[:half])
    for row_b, sum_b in patterns(vectors[half:]):
        for row_a, sum_a in first:
            signs = row_a + row_b
            if any(signs) and all(x == -y for x, y in zip(sum_a, sum_b)):
                lead = next(e for e in signs if e)
                return SignPattern.from_signs([lead * e for e in signs])
    return None


@st.composite
def vector_lists(draw):
    """Up to 8 distinct nonzero vectors of dimension 1 to 3, with small
    coordinates (many relations), coordinates beyond 2^62 or near it, or a
    mix, and sometimes a planted relation v_c = v_a +- v_b."""
    k = draw(st.integers(1, 8))
    dim = draw(st.integers(1, 3))
    small, huge = st.integers(-6, 6), st.integers(-2 ** 70, 2 ** 70)
    near = st.integers(2 ** 62 - 4, 2 ** 62 + 4)
    coords = draw(st.sampled_from([small, huge, near, st.one_of(small, huge, near)]))
    vectors = draw(st.lists(st.tuples(*[coords] * dim).filter(any),
                            min_size=k, max_size=k, unique=True))
    if k >= 3 and draw(st.booleans()):
        a, b, c = draw(st.permutations(range(k)))[:3]
        sign = draw(st.sampled_from((-1, 1)))
        planted = tuple(x + sign * y for x, y in zip(vectors[a], vectors[b]))
        if any(planted) and planted not in vectors:
            vectors[c] = planted
    return vectors


@settings(max_examples=200, deadline=None, derandomize=True)
@given(vector_lists())
@example([(1,), (2,), (3,), (50,), (70,)])  # a relation inside the first half
@example([(50,), (60,), (70,), (1,), (2,), (3,)])  # one inside the second half
@example([(1,), (2,), (3,), (10,), (20,), (30,)])  # three first-half matches
def test_mitm_witness_follows_documented_order(vectors):
    result = qi_check_mitm(IntVectorSet.from_vectors(vectors))
    expected = documented_witness(vectors)
    assert result.quasi_independent == (expected is None)
    assert result.witness == expected


def scan_order_witness(vectors):
    """The brute-force scan's witness by plain enumeration: the first
    nontrivial zero-sum pattern in mixed-radix order, led by +1."""
    for signs in itertools.product((-1, 0, 1), repeat=len(vectors)):
        combo = [sum(e * v[i] for e, v in zip(signs, vectors))
                 for i in range(len(vectors[0]))]
        if any(signs) and not any(combo):
            lead = next(e for e in signs if e)
            return SignPattern.from_signs([lead * e for e in signs])
    return None


@st.composite
def checker_sets(draw):
    """``vector_lists``, or a dominant set scaled beyond 2^62 and listed
    smallest first (each element exceeds twice the sum of those before it,
    so the only relation is a planted one)."""
    if draw(st.booleans()):
        return draw(vector_lists())
    k = draw(st.integers(1, 8))
    scale = draw(st.sampled_from([2 ** 60, 3 ** 40, 2 ** 70 + 1]))
    values, total = [], 0
    for _ in range(k):
        v = 2 * total + 1 + draw(st.integers(0, total // 4 + 1))
        values.append(v)
        total += v
    if k >= 3 and draw(st.booleans()):
        values[-1] = values[0] + values[1]
    return [(v * scale,) for v in values]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(checker_sets())
def test_checkers_agree_with_plain_enumeration(vectors):
    vset = IntVectorSet.from_vectors(vectors)
    brute, mitm = qi_check_bruteforce(vset), qi_check_mitm(vset)
    expected = scan_order_witness(vectors)
    assert brute.quasi_independent == mitm.quasi_independent == (expected is None)
    assert brute.witness == expected
    assert mitm.witness == documented_witness(vectors)


@st.composite
def straddling_sets(draw):
    """9 to 11 distinct nonzero vectors of dimension 1 or 2, with small
    coordinates (many relations) or coordinates beyond 2^62, and sometimes a
    planted relation v_c = v_a +- v_b across the scan's table boundary: a
    among the first k - 8 elements, which the scan walks, and c among the
    last 8, which it tabulates."""
    k = draw(st.integers(9, 11))
    dim = draw(st.integers(1, 2))
    coords = draw(st.sampled_from([st.integers(-40, 40), st.integers(-2 ** 70, 2 ** 70)]))
    vectors = draw(st.lists(st.tuples(*[coords] * dim).filter(any),
                            min_size=k, max_size=k, unique=True))
    if draw(st.booleans()):
        outer = k - qi.BRUTE_TABLE
        a = draw(st.integers(0, outer - 1))
        c = draw(st.integers(outer, k - 1))
        b = draw(st.sampled_from([j for j in range(k) if j not in (a, c)]))
        sign = draw(st.sampled_from((-1, 1)))
        planted = tuple(x + sign * y for x, y in zip(vectors[a], vectors[b]))
        if any(planted) and planted not in vectors:
            vectors[c] = planted
    return vectors


@settings(max_examples=40, deadline=None, derandomize=True)
@given(straddling_sets())
def test_brute_witness_across_the_table_boundary(vectors):
    result = qi_check_bruteforce(IntVectorSet.from_vectors(vectors))
    expected = scan_order_witness(vectors)
    assert result.quasi_independent == (expected is None)
    assert result.witness == expected


def test_codes_that_are_multiples_of_p():
    # codes that share the factor p = P: dividing by their gcd keeps every relation
    p = P
    independent = IntVectorSet.from_integers([p * 3 ** j for j in range(14)])
    dependent = IntVectorSet.from_vectors([(p, 2 * p), (3 * p, p), (4 * p, 3 * p)])
    for check in (qi_check_bruteforce, qi_check_mitm):
        assert check(independent).quasi_independent
        result = check(dependent)
        assert result.witness.signs(3) == (1, 1, -1)


@pytest.mark.parametrize("method", ["brute", "mitm"])
def test_checkers_answer_the_residue_crafted_set(capsys, method):
    # 1, p, 3p, 9p, ...: quasi-independent, but every pattern without the 1
    # sums to 0 modulo p = P, where residues matched falsely; both checkers sum
    # exact integers and answer
    p = P
    values = [1] + [p * 3 ** j for j in range(15)]
    start = time.perf_counter()
    code = main(["qi", "check", "--method", method,
                 "--values=" + ",".join(map(str, values))])
    elapsed = time.perf_counter() - start
    err = capsys.readouterr().err
    assert code == 0 and elapsed < 2
    assert "verdict: true" in err.splitlines()


def test_mitm_caps():
    # 26 elements: 3^13 first-half sums, within the half cap (int64 codes)
    assert qi_check_mitm(IntVectorSet.from_integers([3 ** j for j in range(26)])).quasi_independent
    for k in (27, 33):
        k_a = (k + 1) // 2
        with pytest.raises(CapError, match=rf"^memory budget exceeded: half enumeration needs "
                                           rf"3\^{k_a} entries, cap is {MITM_HALF_CAP}$"):
            qi_check_mitm(IntVectorSet.from_integers(range(1, k + 1)))


@pytest.mark.parametrize("values, expected", [
    ((), QiCheckResult(True, None)),
    ((5,), QiCheckResult(True, None)),
    ((2 ** 70,), QiCheckResult(True, None)),
    ((-3,), QiCheckResult(True, None)),
])
def test_checkers_on_zero_and_one_elements(values, expected):
    vset = IntVectorSet.from_integers(values)
    assert qi_check_mitm(vset) == qi_check_bruteforce(vset) == expected


def planted_powers(k, t, a, b, vector=False):
    """Elements 3^j (with a second coordinate (-1)^j (j + 1) when ``vector``),
    element t replaced by element a + element b: the only relation, up to
    sign, is v_t - v_a - v_b = 0, since no nontrivial sum c_j 3^j with
    |c_j| <= 2 vanishes.  Returns the vectors and that relation led by +1."""
    vectors = [(3 ** j, (-1) ** j * (j + 1)) if vector else (3 ** j,) for j in range(k)]
    vectors[t] = tuple(x + y for x, y in zip(vectors[a], vectors[b]))
    signs = [0] * k
    signs[t], signs[a], signs[b] = 1, -1, -1
    lead = signs[min(a, b, t)]
    return vectors, tuple(lead * e for e in signs)


# the scan walks the first k - 8 elements in an outer loop and tabulates the rest
@pytest.mark.parametrize("k, t, a, b, vector", [
    (16, 2, 0, 1, False),   # inside the outer block
    (14, 1, 0, 5, False),   # inside the outer block of 6
    (13, 10, 3, 7, False),  # across the outer/inner boundary
    (15, 4, 1, 13, True),   # across the boundary, 2-D vectors
    (16, 7, 0, 8, False),   # the last outer element and the first inner one
    (9, 0, 1, 8, False),    # one outer element
    (12, 3, 5, 4, True),    # the boundary at k - 8 = 4, 2-D vectors
    (10, 9, 0, 1, False),   # inner t, outer a and b
    (16, 15, 8, 14, True),  # inside the inner block at the cap, 2-D vectors
])
def test_brute_witness_with_outer_block(k, t, a, b, vector):
    vectors, relation = planted_powers(k, t, a, b, vector)
    vset = IntVectorSet.from_vectors(vectors)
    for check in (qi_check_bruteforce, qi_check_mitm):
        result = check(vset)
        assert not result.quasi_independent
        assert result.witness.signs(k) == relation


def exact_mitm_reference(vset):
    """The search's witness by exact sums in its order: for each second-half
    pattern in mixed-radix order, the first first-half pattern whose exact sum
    cancels it; the first nontrivial combination, led by +1."""
    vectors = vset.elements
    k_a = (len(vectors) + 1) // 2

    def sums(part):  # level by level, in mixed-radix order
        out = [(0,) * len(vectors[0])]
        for v in part:
            out = [tuple(x + e * y for x, y in zip(s, v)) for s in out for e in (-1, 0, 1)]
        return out

    first = {}
    for index, total in enumerate(sums(vectors[:k_a])):
        first.setdefault(total, index)
    for index_b, total in enumerate(sums(vectors[k_a:])):
        index_a = first.get(tuple(-x for x in total))
        if index_a is None:
            continue
        signs = qi._index_signs(index_a, k_a) + qi._index_signs(index_b, len(vectors) - k_a)
        if any(signs):
            lead = next(e for e in signs if e)
            return QiCheckResult(False, SignPattern.from_signs([lead * e for e in signs]))
    return QiCheckResult(True, None)


def false_matches_then(last):
    """3^j, j < 6, then (p + 1) 3^j, j < 5, then ``last`` (p = P): every
    second-half pattern of the (p + 1) 3^j matched one first-half pattern
    modulo p and none exactly, so a residue search met hundreds of hits
    before any witness of ``last``."""
    return [(3 ** j,) for j in range(6)] + [((P + 1) * 3 ** j,) for j in range(5)] + [(last,)]


@pytest.mark.parametrize("vectors", [
    planted_powers(24, 3, 14, 20)[0],
    planted_powers(21, 15, 2, 9)[0],
    planted_powers(17, 4, 1, 13, vector=True)[0],
    [(3 ** j,) for j in range(20)],
    [(2 ** 64 * 3 ** j + j,) for j in range(14)],
    [(2 ** 70,), (2 ** 71,), (3 * 2 ** 70,)] + [(5 ** j,) for j in range(10)],
    [(v,) for v in range(1, 25)],
    [(v, v * v) for v in range(1, 19)],
    false_matches_then(4),  # 1 + 3 - 4 = 0
    false_matches_then((P + 1) * 3 ** 5),  # quasi-independent
], ids=["planted-24", "planted-21", "planted-vectors", "powers-of-3", "beyond-int64",
        "beyond-int64-relation", "dense-1-24", "dense-vectors", "false-matches-then-relation",
        "false-matches"])
def test_mitm_witness_equals_the_exact_reference(vectors):
    vset = IntVectorSet.from_vectors(vectors)
    assert qi_check_mitm(vset) == exact_mitm_reference(vset)


def test_mitm_answers_the_crafted_false_match_set():
    # 3^j and (p + 1) 3^j, j < 13 (p = P): each of the 3^13 second-half
    # patterns matched one first-half pattern modulo p and none exactly, so a
    # residue search refused the set; exact sums answer it
    vset = IntVectorSet.from_integers([3 ** j for j in range(13)]
                                      + [(P + 1) * 3 ** j for j in range(13)])
    start = time.perf_counter()
    assert qi_check_mitm(vset) == QiCheckResult(True, None)
    assert time.perf_counter() - start < 6


@st.composite
def threshold_pairs(draw):
    """One relation structure at two scales, k max|code| just below 2^62 and
    just above: base values m^j (m = 2 (plants + 2), so no combination with
    coefficients below m/2 vanishes) times s, the first plus 1 (so the codes
    keep gcd 1), and planted elements v_a +- v_b of two base values.  The
    relations are those of the unscaled structure at every s divisible by m.
    17 to 20 elements, so that the search below the threshold sums int64
    arrays.  Returns the elements in a drawn order at both scales."""
    bases = draw(st.integers(7, 20))
    plants = draw(st.integers(max(qi.BRUTE_FORCE_CAP + 1 - bases, 0), min(10, 20 - bases)))
    m = 2 * (plants + 2)
    triples = draw(st.lists(st.tuples(st.integers(0, bases - 1), st.integers(0, bases - 1),
                                      st.sampled_from((-1, 1))).filter(lambda t: t[0] != t[1]),
                            min_size=plants, max_size=plants,
                            unique_by=lambda t: (min(t[:2]), max(t[:2])) if t[2] == 1 else t))
    order = draw(st.permutations(range(bases + len(triples))))

    def scaled(s):
        values = [s * m ** j for j in range(bases)]
        values[0] += 1
        values += [values[a] + e * values[b] for a, b, e in triples]
        return [values[i] for i in order]

    assume(len(set(scaled(m))) == len(order))
    k = len(order)
    low = k * max(map(abs, scaled(m)))
    step = k * max(map(abs, scaled(2 * m))) - low  # k max|v| at s = m t is low + (t - 1) step
    t = max((INT64_LIMIT - low) // step + 1, 1)
    while t > 1 and k * max(map(abs, scaled(m * t))) >= INT64_LIMIT:
        t -= 1
    below = scaled(m * t)
    while k * max(map(abs, scaled(m * t))) < INT64_LIMIT:
        t += 1
    return below, scaled(m * t)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(threshold_pairs())
def test_int64_and_exact_sums_agree_across_the_threshold(pair):
    results = []
    for values, int64 in zip(pair, (True, False)):
        vset = IntVectorSet.from_integers(values)
        k, codes = len(vset), qi._codes(vset)
        assume((k * max(map(abs, codes)) < INT64_LIMIT) == int64)
        results.append(qi_check_mitm(vset))
        if not results[-1].quasi_independent:
            assert_witness_valid(vset, results[-1])
    assert results[0] == results[1]


@st.composite
def int64_sets(draw):
    """17 to 20 distinct nonzero vectors of dimension 1 or 2 whose codes keep
    every sign sum in int64 (k max|code| < 2^62): small coordinates (many
    relations), large ones, or a mix, and sometimes a planted relation
    v_c = v_a +- v_b."""
    k = draw(st.integers(qi.BRUTE_FORCE_CAP + 1, 20))
    dim = draw(st.integers(1, 2))
    small = st.integers(-60, 60)
    large = st.integers(-2 ** 57, 2 ** 57) if dim == 1 else st.integers(-2 ** 25, 2 ** 25)
    coords = draw(st.sampled_from([small, large, st.one_of(small, large)]))
    vectors = draw(st.lists(st.tuples(*[coords] * dim).filter(any),
                            min_size=k, max_size=k, unique=True))
    if draw(st.booleans()):
        a, b, c = draw(st.permutations(range(k)))[:3]
        sign = draw(st.sampled_from((-1, 1)))
        planted = tuple(x + sign * y for x, y in zip(vectors[a], vectors[b]))
        if any(planted) and planted not in vectors:
            vectors[c] = planted
    vset = IntVectorSet.from_vectors(vectors)
    assume(k * max(map(abs, qi._codes(vset))) < INT64_LIMIT)
    return vset


@settings(max_examples=40, deadline=None, derandomize=True)
@given(int64_sets())
def test_int64_search_equals_the_exact_reference(vset):
    result = qi_check_mitm(vset)
    assert result == exact_mitm_reference(vset)
    if not result.quasi_independent:
        assert_witness_valid(vset, result)


def traced_peak_mb(func, *args):
    tracemalloc.start()
    try:
        func(*args)
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


def test_checkers_peak_memory():
    # the half cap: two int64 halves of 3^13 sums, built level by level
    halves = IntVectorSet.from_integers([3 ** j for j in range(26)])
    assert traced_peak_mb(qi_check_mitm, halves) < 128
    # the half cap beyond int64: one set of the 3^13 sign sums of the first
    # 13 codes, Python integers of 71 bits (145 MB traced)
    big = IntVectorSet.from_integers([2 ** 70 + 3 ** j for j in range(26)])
    assert traced_peak_mb(qi_check_mitm, big) < 192
    # a full scan of 3^16 patterns: two lists of 3^8 exact sums and one table
    dominant = IntVectorSet.from_integers([3 ** j for j in range(16)])
    assert traced_peak_mb(qi_check_bruteforce, dominant) < 4


def test_int_vector_set_invariants():
    with pytest.raises(ValidationError):
        IntVectorSet.from_integers([1, 0, 2])
    with pytest.raises(ValidationError):
        IntVectorSet.from_integers([5, 5])
    with pytest.raises(ValidationError):
        IntVectorSet.from_vectors([(1, 2), (1,)])


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------


def test_qi_matrix_level_one():
    m = build_qi_matrix(1)
    assert m.rows == ((1, 1, 1), (1, -1, 0))
    assert m.column_count == 3


def test_qi_matrix_shapes_and_counts():
    expected = {1: 3, 2: 8, 3: 20, 4: 48, 5: 112, 6: 256, 7: 576, 8: 1280}
    previous = 1  # level-0 count
    for nu in range(1, 9):
        count = closed_form_column_count(nu)
        assert count == expected[nu]
        assert count == 2 * previous + 2 ** (nu - 1)  # the recurrence
        previous = count
    m = build_qi_matrix(4)
    assert len(m.rows) == 16 and m.column_count == 48
    assert set(np.unique(m.to_array())) <= {-1, 0, 1}


@pytest.mark.parametrize("nu", range(1, 9))
def test_qi_matrix_equals_the_array_doubling(nu):
    """Every level against the doubling done with numpy's vstack and hstack."""
    a = np.array([[1, 1, 1], [1, -1, 0]], dtype=np.int64)
    for _ in range(2, nu + 1):
        n = a.shape[0]
        a = np.vstack((np.hstack((a, a, np.eye(n, dtype=np.int64))),
                       np.hstack((a, -a, np.zeros((n, n), dtype=np.int64)))))
    rows = build_qi_matrix(nu).rows
    assert rows == tuple(map(tuple, a.tolist()))
    assert all(type(x) is int for row in rows for x in row)


def test_qi_matrix_block_structure():
    m2 = build_qi_matrix(2).to_array()
    m1 = build_qi_matrix(1).to_array()
    assert np.array_equal(m2[:2, :3], m1)
    assert np.array_equal(m2[:2, 3:6], m1)
    assert np.array_equal(m2[:2, 6:8], np.eye(2, dtype=np.int64))
    assert np.array_equal(m2[2:, :3], m1)
    assert np.array_equal(m2[2:, 3:6], -m1)
    assert np.array_equal(m2[2:, 6:8], np.zeros((2, 2), dtype=np.int64))


def test_qi_matrix_columns_quasi_independent():
    for nu in (1, 2):
        vset = IntVectorSet.from_vectors(build_qi_matrix(nu).columns())
        assert qi_check_bruteforce(vset).quasi_independent
    vset3 = IntVectorSet.from_vectors(build_qi_matrix(3).columns())
    assert qi_check_mitm(vset3).quasi_independent


def test_dissociated_base_recurrence_and_bounds():
    base = build_dissociated_base(3)
    assert base.value(1) == 1 and base.value(2) == 7 and base.value(3) == 49
    assert base.bound(1) == 3 and base.bound(2) == 3 and base.bound(3) == 3
    assert base.bound(4) == 8 and base.bound(7) == 8
    assert base.bound(8) == 20 and base.bound(15) == 20
    for j in range(2, len(base.beta) + 1):
        expected = 1 + 2 * sum(base.bound(i) * base.value(i) for i in range(1, j))
        assert base.value(j) == expected
    assert all(b2 > b1 for b1, b2 in zip(base.beta, base.beta[1:]))


def test_dissociated_base_prefix_has_no_bounded_relation():
    base = build_dissociated_base(2)
    values = [base.value(j) for j in range(1, 7)]
    bounds = [base.bound(j) for j in range(1, 7)]
    # exhaustive scan over all bounded integer combinations
    combos = [np.arange(-b, b + 1, dtype=np.int64) for b in bounds]
    grids = np.meshgrid(*combos, indexing="ij")
    total = sum(g * v for g, v in zip(grids, values))
    zero_positions = np.argwhere(total == 0)
    assert len(zero_positions) == 1  # only the all-zero combination


def test_dissociated_base_grows_past_int64():
    base = build_dissociated_base(4)
    assert base.value(31) > 2 ** 63  # must not wrap


def test_lambda_blocks_and_first_block_values():
    lam = build_lambda(2)
    b2, b3 = lam.base.value(2), lam.base.value(3)
    assert lam.block_values(1) == (b2 + b3, b2 - b3, b2)
    assert len(lam.block_values(2)) == 8
    assert len(lam) == 11
    assert len(set(lam.gamma)) == 11
    assert all(g != 0 for g in lam.gamma)


def test_lambda_prefix_exhaustively_quasi_independent():
    lam = build_lambda(2)
    vset = IntVectorSet.from_integers(lam.gamma)
    assert qi_check_bruteforce(vset).quasi_independent


def test_lambda_level3_subsets_pass_mitm():
    lam = build_lambda(3)
    rng = np.random.default_rng(21)
    values = list(lam.gamma)
    for _ in range(3):
        subset = rng.choice(len(values), size=24, replace=False)
        vset = IntVectorSet.from_integers([values[i] for i in subset])
        assert qi_check_mitm(vset).quasi_independent


def test_lambda_block_sizes_match_column_counts():
    lam = build_lambda(4)
    for nu in range(1, 5):
        assert len(lam.block_values(nu)) == closed_form_column_count(nu)


# ---------------------------------------------------------------------------
# meshes
# ---------------------------------------------------------------------------


def test_mesh_block_intersection_is_exactly_column_count():
    lam = build_lambda(3)
    for nu in (1, 2, 3):
        mesh = Mesh.unit_box(lam.base.block(nu))
        result = mesh_intersection(lam, mesh)
        assert result.count == closed_form_column_count(nu)
        assert set(result.members) == set(lam.block_values(nu))


def reference_reach_table(mesh):
    """The (|g|, bound) pairs, descending, and the reach after each, by a loop."""
    pairs = sorted(((abs(g), b) for g, b in zip(mesh.generators, mesh.bounds)),
                   reverse=True)
    reaches = [0] * len(pairs)
    total = 0
    for i in range(len(pairs) - 1, -1, -1):
        reaches[i] = total
        total += pairs[i][0] * pairs[i][1]
    return pairs, reaches


def reference_is_dissociated(mesh) -> bool:
    """The growth test by a loop over the pairs in ascending order."""
    reach = 0
    for g, b in sorted((abs(g), b) for g, b in zip(mesh.generators, mesh.bounds)):
        if g <= 2 * reach:
            return False
        reach += b * g
    return True


# signed multiples of powers of 4: ties in |g| and growth near 2 * reach are common
GROWING = st.tuples(st.sampled_from([-1, 1]), st.integers(1, 3), st.integers(0, 10)).map(
    lambda t: t[0] * t[1] * 4 ** t[2])


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.lists(st.tuples(GROWING | st.integers(-50, 50).filter(bool), st.integers(1, 3)),
                min_size=1, max_size=10, unique_by=lambda pair: pair[0]))
@example([(5, 1), (-5, 2)])  # a tie in |g|
@example([(1, 1), (2, 1)])  # 2 = 2 * reach: not dissociated
@example([(1, 1), (-3, 1), (9, 1)])  # each |g| just above 2 * reach
def test_mesh_reach_table_matches_the_loops(entries):
    mesh = Mesh(*zip(*entries))
    assert mesh._reach_table == reference_reach_table(mesh)
    assert mesh.is_dissociated() == reference_is_dissociated(mesh)


def test_mesh_greedy_agrees_with_exhaustive():
    rng = np.random.default_rng(23)
    base = build_dissociated_base(2)
    gens = base.block(2)
    mesh = Mesh.unit_box(gens)
    assert mesh.is_dissociated()
    lam = build_lambda(2)
    probe = list(lam.gamma) + [int(x) for x in rng.integers(-10 ** 4, 10 ** 4, 50)]
    greedy = mesh_intersection(probe, mesh)
    # force the exhaustive path through a non-dissociated decoy mesh
    loose = Mesh(tuple(gens), (1,) * len(gens))
    exhaustive_members = []
    from rieszprod.qi import _dfs_member
    pairs, reaches = reference_reach_table(loose)
    for x in probe:
        if _dfs_member(x, pairs, reaches):
            exhaustive_members.append(x)
    assert list(greedy.members) == exhaustive_members


def test_mesh_empty_set_and_caps():
    mesh = Mesh.unit_box([3, 10, 40])
    assert mesh_intersection([], mesh).count == 0
    crowded = Mesh.unit_box(list(range(1, 18)))  # not dissociated, k = 17
    with pytest.raises(CapError):
        mesh_intersection([5], crowded)


class Unread:
    """Elements that fail the test when the padding reads them."""

    def __iter__(self):
        raise AssertionError("the elements were read")


def test_mesh_padding_is_refused_before_any_generator_is_formed():
    gens = (7, 49)
    with pytest.raises(CapError, match=f"k={MESH_GENERATOR_CAP + 1} generators; "
                                       f"the cap is {MESH_GENERATOR_CAP}"):
        Mesh.padded_unit_box(gens, MESH_GENERATOR_CAP + 1, Unread())
    with pytest.raises(ValidationError, match="--k must be >= the block size 2"):
        Mesh.padded_unit_box(gens, 1, Unread())
    assert Mesh.padded_unit_box(gens, MESH_GENERATOR_CAP, [5]).k == MESH_GENERATOR_CAP
    assert Mesh.padded_unit_box(gens, 2, [5]) == Mesh.unit_box(gens)


def test_mesh_non_dissociated_exhaustive_path():
    mesh = Mesh.unit_box([1, 2, 3])  # 1+2-3 = 0: not dissociated
    assert not mesh.is_dissociated()
    result = mesh_intersection([0, 1, 2, 3, 4, 5, 6, 7], mesh)
    assert result.members == (0, 1, 2, 3, 4, 5, 6)  # 7 > 1+2+3 unreachable


def test_mesh_bound_example_values():
    report = verify_mesh_bound(2)
    by_k = {r.k: r for r in report.records}
    assert by_k[4].count == 8
    assert by_k[4].count > 0.5 * 4 * math.log2(4)
    assert abs(by_k[5].quarter_bound - 0.25 * 5 * math.log2(5)) < 1e-12
    assert by_k[5].count == 8 and by_k[5].passed


def test_mesh_bound_all_levels():
    for nu in range(1, 7):
        report = verify_mesh_bound(nu)
        assert report.all_passed
        assert report.expected_count == closed_form_column_count(nu)
        ks = [r.k for r in report.records]
        assert ks == list(range(2 ** nu, 2 ** (nu + 1)))


# ---------------------------------------------------------------------------
# Sidon bounds
# ---------------------------------------------------------------------------


def test_sidon_union_bound_values():
    assert abs(sidon_union_bound(1) - 3 * math.sqrt(3)) < 1e-9
    assert abs(sidon_union_bound(2) - 18.0) < 1e-12
    values = [sidon_union_bound(k) for k in range(1, 8)]
    assert all(b2 > b1 for b1, b2 in zip(values, values[1:]))
    with pytest.raises(ValidationError):
        sidon_union_bound(0)


def test_sidon_estimate_singleton():
    estimate = sidon_lower_estimate([5], trials=3, seed=1)
    assert abs(estimate.grid_ratio - 1.0) < 1e-12  # |c e^{5it}| is constant
    assert estimate.lower_bound <= 1.0
    assert estimate.lower_bound == estimate.grid_ratio / estimate.factor
    assert estimate.factor >= 1.0
    assert estimate.grid_size > math.pi * estimate.degree


def test_sidon_estimate_quasi_independent_set_within_bounds():
    estimate = sidon_lower_estimate([1, 4, 16, 64], trials=40, seed=7)
    assert 1.0 <= estimate.lower_bound <= 3 * math.sqrt(3) + 1e-9


def test_sidon_estimate_nondecreasing_in_trials():
    few = sidon_lower_estimate([1, 4, 16, 64], trials=5, seed=3)
    more = sidon_lower_estimate([1, 4, 16, 64], trials=25, seed=3)
    assert more.lower_bound >= few.lower_bound


def test_sidon_estimate_deterministic():
    a = sidon_lower_estimate([3, 4, 5], trials=10, seed=11)
    b = sidon_lower_estimate([3, 4, 5], trials=10, seed=11)
    assert a == b
    assert a.generator == "numpy-pcg64"


def test_sidon_estimate_refuses_a_negative_seed():
    with pytest.raises(ValidationError, match="^seed must be >= 0, got -1$"):
        sidon_lower_estimate([3, 4, 5], trials=1, seed=-1)


def unpruned_sidon_search(freqs, trials, seed, m_grid):
    """The search loop without the peak rejection: every trial move gets a
    full pass over the grid."""
    k = len(freqs)
    t = 2.0 * math.pi * np.arange(m_grid) / m_grid
    basis = np.exp(1j * np.outer(np.array(freqs, dtype=float), t))
    rng = np.random.default_rng(seed)
    best_ratio, best_c = 0.0, np.ones(k, dtype=complex)
    for _ in range(trials):
        c = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, k))
        p = c @ basis
        gmax = float(np.max(np.abs(p)))
        for _sweep in range(2):
            for j in range(k):
                for d in (math.pi / 4, -math.pi / 4, math.pi / 16, -math.pi / 16):
                    cj = c[j] * complex(math.cos(d), math.sin(d))
                    p_try = p + (cj - c[j]) * basis[j]
                    g_try = float(np.max(np.abs(p_try)))
                    if g_try < gmax:
                        gmax, p = g_try, p_try
                        c = c.copy()
                        c[j] = cj
        if k / gmax > best_ratio:
            best_ratio, best_c = k / gmax, c
    return best_ratio, tuple(map(complex, best_c))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.lists(st.integers(-40, 40).filter(bool), min_size=1, max_size=6, unique=True),
       st.integers(1, 4), st.integers(0, 2 ** 31), st.sampled_from([None, 1, 2, 70]))
@example([5], 3, 1, None)  # a singleton: every node ties
@example([1, 2, 3], 2, 0, 2)  # a grid below the 64 peaks
def test_sidon_estimate_matches_unpruned_search(freqs, trials, seed, grid_factor):
    degree = max(map(abs, freqs))
    grid = None if grid_factor is None else math.floor(math.pi * degree) + grid_factor
    estimate = sidon_lower_estimate(freqs, trials=trials, seed=seed, grid_size=grid)
    assert (estimate.grid_ratio, estimate.coefficients) == unpruned_sidon_search(
        freqs, trials, seed, estimate.grid_size)


def test_sidon_estimate_refusals():
    with pytest.raises(ValidationError):
        sidon_lower_estimate([5], trials=1, seed=0, grid_size=15)  # <= pi n
    with pytest.raises(CapError):
        sidon_lower_estimate(list(range(1, 66)), trials=1, seed=0)
    with pytest.raises(ValidationError):
        sidon_lower_estimate([2, 2], trials=1, seed=0)
    with pytest.raises(ValidationError, match="trials must be >= 1, got 0"):
        sidon_lower_estimate([1, 3], trials=0, seed=0)


@pytest.mark.parametrize("build, name, cap", [
    (build_qi_matrix, "matrix", 8), (build_dissociated_base, "base", 8),
    (build_lambda, "lambda", 6), (verify_mesh_bound, "mesh bound", 6)])
def test_levels_below_one_are_bad_arguments_and_above_the_cap_refused(build, name, cap):
    for level in (0, -1):
        with pytest.raises(ValidationError, match=rf"{name} level must lie in \[1, {cap}\], "
                                                  rf"got {level}"):
            build(level)
    with pytest.raises(CapError, match=rf"{name} level must lie in \[1, {cap}\], "
                                       rf"got {cap + 1}"):
        build(cap + 1)
