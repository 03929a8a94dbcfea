"""Core expansion/evaluation tests.

The independent oracle here is brute-force enumeration of all sign
patterns: the expansion of a depth-n partial product is the aggregate of
3^(n+1) pattern contributions prod (r_j/2)^{|eps_j|} e^{i sum eps theta}
at frequency sum eps_j lambda_j.  Everything sparse is checked against it.
"""

import dataclasses
import itertools
import math
import pickle
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rieszprod import (
    CapError,
    CoefficientSequence,
    FrequencySequence,
    RegimeError,
    RieszSpec,
    SignPattern,
    SpectralBand,
    TrigPolynomial,
    ValidationError,
    convolve_products,
    eval_partial_product,
    expand_partial_product,
    fourier_coefficient,
    gram_centered_exponentials,
    randomize_phases,
    spectrum_bands,
    validate_spec,
)
from rieszprod import analysis, classify, cli, core, qi, specio
from rieszprod.core import Record, replace

TWO_PI = 2 * math.pi


def geometric_spec(base, count, r=1.0, theta=0.0, regime="lacunary3"):
    return RieszSpec(FrequencySequence.geometric(base, count),
                     CoefficientSequence.constant(r, theta, count), regime)


def random_spec(rng, count=6, base=4, regime="lacunary3", rmax=1.0):
    moduli = rng.uniform(0.0, rmax, count)
    phases = rng.uniform(0.0, TWO_PI, count)
    return RieszSpec(FrequencySequence.geometric(base, count),
                     CoefficientSequence(tuple(moduli), tuple(phases)), regime)


def oracle_expand(spec, n):
    """Exhaustive sign-pattern enumeration; independent of the sparse path."""
    out = {}
    lams = spec.freqs.values
    for eps in itertools.product((-1, 0, 1), repeat=n + 1):
        freq = sum(e * lams[j] for j, e in enumerate(eps))
        coef = 1.0 + 0j
        for j, e in enumerate(eps):
            if e == 1:
                coef *= spec.coefficient(j) / 2
            elif e == -1:
                coef *= spec.coefficient(j).conjugate() / 2
        out[freq] = out.get(freq, 0j) + coef
    return {m: c for m, c in out.items() if c != 0}


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def test_validate_accepts_lacunary3():
    spec = RieszSpec(FrequencySequence((1, 4, 16)),
                     CoefficientSequence.constant(1.0, 0.0, 3))
    assert validate_spec(spec) is spec
    assert spec.freqs.ratio_min == 4.0


def test_validate_rejects_ratio_below_three_unless_dyadic():
    freqs = FrequencySequence((1, 2, 4))
    coeffs = CoefficientSequence.constant(0.9, 0.0, 3)
    with pytest.raises(ValidationError) as err:
        validate_spec(RieszSpec(freqs, coeffs, "lacunary3"))
    assert err.value.condition == "lacunarity_ratio"
    assert err.value.index == 0
    validate_spec(RieszSpec(freqs, coeffs, "dyadic"))


def test_validate_rejects_modulus_above_one():
    with pytest.raises(ValidationError) as err:
        RieszSpec(FrequencySequence((1, 4)),
                  CoefficientSequence((1.2, 0.0), (0.0, 0.0)))
    assert err.value.condition == "modulus_bound"
    assert err.value.index == 0


def test_validate_dyadic_needs_powers_of_two_and_strict_modulus():
    with pytest.raises(ValidationError) as err:
        validate_spec(RieszSpec(FrequencySequence((1, 2, 5)),
                                CoefficientSequence.constant(0.5, 0.0, 3), "dyadic"))
    assert err.value.condition == "dyadic_frequencies"
    with pytest.raises(ValidationError) as err:
        validate_spec(RieszSpec(FrequencySequence((1, 2, 4)),
                                CoefficientSequence.constant(1.0, 0.0, 3), "dyadic"))
    assert err.value.condition == "dyadic_modulus"


VALID = RieszSpec(FrequencySequence((1, 4, 16)), CoefficientSequence.constant(0.5, 0.0, 3))


@pytest.mark.parametrize("changes, condition, index", [
    ({"coeffs": CoefficientSequence((0.5, 1.2, 0.5), (0.0,) * 3)}, "modulus_bound", 1),
    ({"freqs": FrequencySequence((1, 4, 11))}, "lacunarity_ratio", 1),
    ({"regime": "dyadic", "freqs": FrequencySequence((1, 2, 5))}, "dyadic_frequencies", 2),
    ({"regime": "dyadic", "freqs": FrequencySequence((1, 2, 4)),
      "coeffs": CoefficientSequence((0.5, 0.5, 1.0), (0.0,) * 3)}, "dyadic_modulus", 2),
])
def test_an_invalid_spec_cannot_be_built(changes, condition, index):
    fields = {"freqs": VALID.freqs, "coeffs": VALID.coeffs, "regime": VALID.regime, **changes}
    with pytest.raises(ValidationError) as built:
        RieszSpec(**fields)
    with pytest.raises(ValidationError) as replaced:
        replace(VALID, **changes)
    for err in (built.value, replaced.value):
        assert (err.condition, err.index) == (condition, index)


def test_randomize_phases_of_a_valid_spec_is_valid():
    dyadic = geometric_spec(2, 6, r=0.9, regime="dyadic")
    for spec in (VALID, dyadic, geometric_spec(3, 5)):
        rotated = randomize_phases(spec, 11)
        assert validate_spec(rotated) is rotated
        assert rotated.coeffs.moduli == spec.coeffs.moduli
        assert rotated.regime == spec.regime and rotated.phase_seed == 11


def test_frequency_sequence_invariants():
    with pytest.raises(ValidationError):
        FrequencySequence((4, 1))
    with pytest.raises(ValidationError):
        FrequencySequence((0, 4))
    fs = FrequencySequence.geometric(4, 5)
    assert fs.values == (1, 4, 16, 64, 256)
    assert fs.gap(2)  # 64 > 3 * 21
    assert fs.spectral_margin(2) == 64 - 21
    assert fs.is_geometric() == 4
    assert FrequencySequence((1, 5, 26)).is_geometric() is None


def test_coefficient_canonicalization():
    cs = CoefficientSequence((0.0, 0.5), (1.3, TWO_PI + 0.25))
    assert cs.phases[0] == 0.0  # zero modulus forces zero phase
    assert abs(cs.phases[1] - 0.25) < 1e-12
    assert cs.value(0) == 0j


@pytest.mark.parametrize("phase", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("r", [0.0, 0.5])
def test_coefficient_sequence_rejects_non_finite_phases(r, phase):
    with pytest.raises(ValidationError) as err:
        CoefficientSequence((0.5, r), (0.0, phase))
    assert (err.value.condition, err.value.index) == ("phase", 1)


# ---------------------------------------------------------------------------
# expansion
# ---------------------------------------------------------------------------


def test_expand_two_factor_example():
    spec = RieszSpec(FrequencySequence((1, 4)),
                     CoefficientSequence.constant(1.0, 0.0, 2))
    poly = expand_partial_product(spec, 1)
    expected = {0: 1.0, 1: 0.5, -1: 0.5, 4: 0.5, -4: 0.5,
                3: 0.25, -3: 0.25, 5: 0.25, -5: 0.25}
    assert set(poly.coefficients) == set(expected)
    for m, c in expected.items():
        assert poly.coefficient(m) == c


def test_expand_zero_coefficients_is_lebesgue():
    spec = geometric_spec(4, 5, r=0.0)
    poly = expand_partial_product(spec, 4)
    assert poly.coefficients == {0: 1.0 + 0j}


def test_expand_matches_oracle_on_random_specs():
    rng = np.random.default_rng(11)
    for _ in range(10):
        spec = random_spec(rng, count=5)
        n = int(rng.integers(0, 5))
        poly = expand_partial_product(spec, n)
        oracle = oracle_expand(spec, n)
        assert set(poly.coefficients) == set(oracle)
        for m, c in oracle.items():
            assert abs(poly.coefficient(m) - c) < 1e-14


def test_expand_top_frequency_coefficient_is_half_a():
    rng = np.random.default_rng(5)
    spec = random_spec(rng, count=6)
    poly = expand_partial_product(spec, 5)
    for j in range(6):
        expected = spec.coefficient(j) / 2
        assert abs(poly.coefficient(spec.freqs.values[j]) - expected) < 1e-15


def test_dyadic_expansion_aggregates_collisions():
    rng = np.random.default_rng(7)
    for count in (4, 8, 11):
        moduli = rng.uniform(0.0, 0.95, count)
        phases = rng.uniform(0.0, TWO_PI, count)
        spec = RieszSpec(FrequencySequence(tuple(2 ** j for j in range(count))),
                         CoefficientSequence(tuple(moduli), tuple(phases)), "dyadic")
        poly = expand_partial_product(spec, count - 1)
        oracle = oracle_expand(spec, count - 1)
        assert set(poly.coefficients) == set(oracle)
        for m, c in oracle.items():
            assert abs(poly.coefficient(m) - c) < 1e-13


@st.composite
def lacunary3_cases(draw):
    """A spec with integer frequencies of ratio >= 3, small ones and ones
    beyond 2^62, moduli including the endpoints 0 and 1 and any finite
    phases; and a depth <= 6."""
    count = draw(st.integers(1, 7))
    sizes = st.one_of(st.integers(0, 50), st.integers(2 ** 60, 2 ** 66))
    freqs = [1 + draw(sizes)]
    for _ in range(count - 1):
        freqs.append(3 * freqs[-1] + draw(sizes))
    moduli = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
    phases = st.floats(allow_nan=False, allow_infinity=False)
    spec = RieszSpec(FrequencySequence(tuple(freqs)),
                     CoefficientSequence(tuple(draw(moduli) for _ in range(count)),
                                         tuple(draw(phases) for _ in range(count))))
    return spec, draw(st.integers(0, count - 1))


# a_0 = (-1e-310, 0) after underflow: the product at lambda_0 + lambda_1 has
# real part -0.0 before it is stored, and the oracle stores 0.0
SIGNED_ZERO = (RieszSpec(FrequencySequence((1, 3)),
                         CoefficientSequence((1e-310, 0.6), (math.pi, math.pi / 2))), 1)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(lacunary3_cases())
@example(SIGNED_ZERO)
def test_expansion_and_bands_bit_exact_against_oracle(case):
    spec, n = case
    poly = expand_partial_product(spec, n)
    oracle = oracle_expand(spec, n)
    assert poly.coefficients == oracle
    # repr tells -0.0 from 0.0, so this pins every bit
    assert [repr(poly.coefficient(m)) for m in oracle] == [repr(c) for c in oracle.values()]

    # the support of P_n depends only on which a_j are 0; with unit moduli no
    # coefficient underflows to 0.0, as a product of subnormal a_j/2 can
    unit = CoefficientSequence(tuple(float(r > 0.0) for r in spec.coeffs.moduli),
                               spec.coeffs.phases)
    bands = spectrum_bands(spec, n)
    assert bands == grouped_bands(expand_partial_product(replace(spec, coeffs=unit), n),
                                  spec.freqs, n)
    if len(oracle) == 3 ** sum(r > 0.0 for r in spec.coeffs.moduli[: n + 1]):  # none did
        assert bands == grouped_bands(poly, spec.freqs, n)


def top_indices(freqs, n):
    """The top index j <= n with eps_j != 0 of every sign pattern, keyed by its
    frequency sum_j eps_j lambda_j, by exhaustive enumeration as in
    ``oracle_expand`` (at ratios >= 3 each frequency has one pattern)."""
    tops = {}
    for eps in itertools.product((-1, 0, 1), repeat=n + 1):
        signed = [j for j, e in enumerate(eps) if e]
        if signed:
            tops[sum(e * freqs.values[j] for j, e in enumerate(eps))] = signed[-1]
    return tops


def grouped_bands(poly, freqs, n):
    """The positive frequencies of ``poly``, the depth-n expansion, grouped by
    the top index of their representation, as (index, least, greatest, count)."""
    groups, tops = {}, top_indices(freqs, n)
    for m in poly.support():
        if m > 0:
            groups.setdefault(tops[m], []).append(m)
    return [SpectralBand(top, fs[0], fs[-1], len(fs)) for top, fs in sorted(groups.items())]


def frequency_dtype(spec, depth):
    return np.int64 if core._support_bound(spec, depth) < core.INT64_LIMIT else object


def unsorted_levels(spec, depth, values, step):
    """The levels of both array builders, each laid out as (F, F + lambda_j,
    F - lambda_j) with values (v, up, down) = (v, *step(j, v)), or skipped
    where step returns None; colliding (dyadic) frequencies are summed by
    np.unique and bincount in that order.  ``band_exact`` lays its levels out
    so; ``_expansion`` lays them out in ascending order, so its levels equal
    these argsorted."""
    lams = spec.freqs.values
    freqs = np.zeros(1, dtype=frequency_dtype(spec, depth))
    yield freqs, values
    for j in range(depth + 1):
        moved = step(j, values)
        if moved is not None:
            freqs = np.concatenate((freqs, freqs + lams[j], freqs - lams[j]))
            values = tuple(map(np.concatenate, zip(values, *moved)))
            if lams[j] <= 2 * spec.freqs.prefix_sum(j - 1):
                freqs, where = np.unique(freqs, return_inverse=True)
                values = tuple(np.bincount(where, v, freqs.size) for v in values)
        yield freqs, values


def argsorted_expansion(spec, n):
    """P_n built from unsorted levels, then put in order by a stable argsort."""
    def step(j, values):
        half = spec.coefficient(j) / 2
        if half == 0:
            return None
        return (core._times(*values, half.real, half.imag),
                core._times(*values, half.real, -half.imag))

    *_, (freqs, (re, im)) = unsorted_levels(spec, n, (np.ones(1), np.zeros(1)), step)
    order = np.argsort(freqs, kind="stable")
    return TrigPolynomial._from_parts(freqs[order], re[order] + 0.0, im[order] + 0.0)


def assert_same_bits(poly, reference):
    (ms, cs), (ref_ms, ref_cs) = poly.arrays(), reference.arrays()
    assert ms.dtype == ref_ms.dtype and ms.tolist() == ref_ms.tolist()
    # the bits of both parts of every coefficient, the signs of zeros included
    assert cs.view(np.int64).tolist() == ref_cs.view(np.int64).tolist()


@st.composite
def dyadic_cases(draw):
    """A dyadic spec (lambda_j = 2^j) with moduli in [0, 0.99], zeros among
    them, any finite phases; and a depth."""
    count = draw(st.integers(1, 12))
    moduli = st.one_of(st.just(0.0), st.floats(0.0, 0.99))
    phases = st.floats(allow_nan=False, allow_infinity=False)
    spec = RieszSpec(FrequencySequence.geometric(2, count),
                     CoefficientSequence(tuple(draw(moduli) for _ in range(count)),
                                         tuple(draw(phases) for _ in range(count))), "dyadic")
    return spec, draw(st.integers(0, count - 1))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.one_of(lacunary3_cases(), dyadic_cases()))
@example(SIGNED_ZERO)
def test_sorted_levels_equal_the_argsorted_expansion_bit_for_bit(case):
    spec, n = case
    assert_same_bits(expand_partial_product(spec, n), argsorted_expansion(spec, n))


def unsorted_band_terms(spec, alpha, n):
    """The band_exact terms 0..n, each band summed by np.sum over the squared
    spectrum of ``unsorted_levels``."""
    def step(j, values):
        if spec.coeffs.moduli[j] == 0.0:
            return None
        up = (values[0] * (spec.coeffs.moduli[j] ** 2 / 4.0),)
        return up, up

    terms = []
    for lam, r, (freqs, (w,)) in zip(spec.freqs.values[: n + 1], spec.coeffs.moduli,
                                     unsorted_levels(spec, n, (np.ones(1),), step)):
        terms.append(2.0 * (r ** 2 / 4.0) * float(
            np.sum(w * (lam + freqs).astype(float) ** (alpha - 1.0))) if r > 0.0 else 0.0)
    return terms


@settings(max_examples=100, deadline=None, derandomize=True)
@given(lacunary3_cases(), st.floats(0.01, 0.99))
def test_band_series_adds_each_band_in_the_unsorted_order(case, alpha):
    spec, n = case
    terms = analysis.alpha_energy_band_series(spec, alpha, n, "band_exact").terms
    assert [repr(t) for t in terms] == [repr(t) for t in unsorted_band_terms(spec, alpha, n)]


def deep_band_spec(freqs):
    """14 frequencies, moduli in [0, 1) with one of them 0, any phases."""
    rng = np.random.default_rng(31)
    moduli = rng.uniform(0.0, 1.0, 14)
    moduli[9] = 0.0
    return RieszSpec(FrequencySequence(tuple(freqs)),
                     CoefficientSequence(tuple(moduli), tuple(rng.uniform(0.0, TWO_PI, 14))))


@pytest.mark.parametrize("spec", [
    deep_band_spec(4 ** j for j in range(14)),
    # frequencies past 2^62: the levels hold exact Python integers
    deep_band_spec((2 ** 62 + 1) * 3 ** j for j in range(14)),
], ids=["base 4", "beyond int64"])
def test_band_series_at_the_cap_adds_each_band_in_the_unsorted_order(spec):
    n_max = core.MAX_EXPANSION_DEPTH + 1
    terms = analysis.alpha_energy_band_series(spec, 0.4, n_max, "band_exact").terms
    expected = unsorted_band_terms(spec, 0.4, n_max)
    assert len(terms) == n_max + 1
    assert [repr(t) for t in terms] == [repr(t) for t in expected]


def test_expansions_are_built_sorted_without_argsort(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("np.argsort was called")

    monkeypatch.setattr(np, "argsort", refuse)
    specs = [(geometric_spec(4, 9, r=0.7, theta=0.4), 8),
             (RieszSpec(FrequencySequence((1, 10, 2 ** 70, 2 ** 72)),
                        CoefficientSequence((0.5, 0.0, 1.0, 0.3), (0.1, 0.0, 2.0, 3.0))), 3),
             (random_spec(np.random.default_rng(23), count=9, base=2, regime="dyadic",
                          rmax=0.9), 8)]
    core._expansion.cache_clear()
    for spec, n in specs:
        ms, _ = expand_partial_product(spec, n).arrays()
        assert all(a < b for a, b in zip(ms.tolist(), ms.tolist()[1:]))


def test_the_expansion_cache_holds_two_expansions():
    spec = geometric_spec(4, 6, r=0.5)
    core._expansion.cache_clear()
    for n in (3, 4, 5, 4):
        expand_partial_product(spec, n)
    info = core._expansion.cache_info()
    assert (info.maxsize, info.currsize, info.hits, info.misses) == (2, 2, 1, 3)


@pytest.mark.parametrize("coefficients, real", [
    ({-3: 0.5 - 0.25j, 0: 1.0, 3: 0.5 + 0.25j}, True),
    ({-3: 0.5 + 0.25j, 0: 1.0, 3: 0.5 + 0.25j}, False),
    ({}, True),
], ids=["Hermitian", "not Hermitian", "empty"])
def test_real_valued_is_read_from_the_coefficients(coefficients, real):
    poly = TrigPolynomial(coefficients)
    assert poly.real_valued is real
    assert np.isrealobj(poly.evaluate(np.array([0.0, 1.0]))) is real


@pytest.mark.parametrize("freqs", [(1, 4, 16, 64), (1, 10, 2 ** 70, 2 ** 72)],
                         ids=["int64", "exact integers"])
def test_coefficient_reads_one_frequency_without_the_mapping(freqs):
    spec = RieszSpec(FrequencySequence(freqs), CoefficientSequence.constant(0.5, 0.3, 4))
    core._expansion.cache_clear()  # a cached expansion may have built its mapping
    poly = expand_partial_product(spec, 3)
    probes = [*poly.support(), 0, 2, -2, 86, -86, 2 ** 70, -2 ** 70, 2 ** 70 + 2, 2 ** 80]
    values = [poly.coefficient(m) for m in probes]
    assert poly._mapping is None
    assert [repr(v) for v in values] == [repr(poly.coefficients.get(m, 0j)) for m in probes]


def test_exact_integer_frequencies_beyond_int64():
    spec = RieszSpec(FrequencySequence((1, 10, 10 ** 20, 10 ** 24)),
                     CoefficientSequence.constant(0.5, 0.0, 4))
    poly = expand_partial_product(spec, 3)
    ms, cs = poly.arrays()
    assert ms.dtype == object and len(ms) == 81
    assert poly.degree == 10 ** 24 + 10 ** 20 + 11
    assert poly.coefficient(10 ** 24 - 10 ** 20) == 0.0625
    assert poly.real_valued
    with pytest.raises(CapError, match="2\\^62"):
        poly.evaluate(0.5)
    # below the limit the same product is stored in int64
    assert expand_partial_product(spec, 1).arrays()[0].dtype == np.int64


def test_evaluate_refuses_phases_reaching_2_52():
    poly = TrigPolynomial({-4: 0.25, 0: 1.0, 4: 0.25})
    below = math.nextafter(2.0 ** 50, 0.0)  # 4 * below < 2^52, compared exactly
    assert poly.evaluate(below) == pytest.approx(1.0 + 0.5 * math.cos(4 * below), abs=1e-12)
    for t in (2.0 ** 50, np.array([0.0, -2.0 ** 50])):
        with pytest.raises(CapError, match="degree 4 times max \\|t\\| = "
                           "1125899906842624.0 is >= 2\\^52"):
            poly.evaluate(t)
    with pytest.raises(ValidationError, match="points must be finite"):
        poly.evaluate(math.nan)


def test_frequencies_beyond_frequency_bits_are_refused():
    assert FrequencySequence.geometric(2, core.FREQUENCY_BITS).values[-1] \
        == 2 ** (core.FREQUENCY_BITS - 1)
    for base, count in [(2, core.FREQUENCY_BITS + 1), (4, 10 ** 30), (10 ** 1000, 5)]:
        with pytest.raises(CapError, match="the cap on a frequency"):
            FrequencySequence.geometric(base, count)  # refused before any power is formed
    with pytest.raises(CapError, match=f"index 1 has {core.FREQUENCY_BITS + 1} bits"):
        FrequencySequence((1, 2 ** core.FREQUENCY_BITS))


def test_evaluate_forms_its_terms_in_blocks():
    """3^9 terms at 100 points: 2 million terms e^{imt} (31 MB of complex128
    at once); in blocks the peak stays below four blocks' worth."""
    spec = randomize_phases(RieszSpec(FrequencySequence.geometric(3, 10),
                                      CoefficientSequence.constant(0.7, 0.0, 10)), 3)
    poly = expand_partial_product(spec, 8)
    ts = np.linspace(0.0, TWO_PI, 100)
    tracemalloc.start()
    try:
        values = poly.evaluate(ts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(poly.arrays()[0]) * ts.size > 7 * core.EVAL_ENTRIES
    assert peak < 4 * 16 * core.EVAL_ENTRIES
    direct = eval_partial_product(spec, 8, ts)
    assert np.max(np.abs(values - direct)) < 1e-9 * max(1.0, float(np.max(np.abs(direct))))


@pytest.mark.parametrize("entries", [1, 3, 64, 129, 200])
@pytest.mark.parametrize("points", [1, 2, 3, 5, 33])
def test_evaluate_in_blocks_matches_one_product(monkeypatch, entries, points):
    """Row blocks keep every value bit for bit while three rows fit in one;
    column blocks (more terms than EVAL_ENTRIES) sum the same terms."""
    rng = np.random.default_rng(entries * 100 + points)
    freqs = np.unique(rng.integers(-10 ** 6, 10 ** 6, 60))
    cs = rng.standard_normal(freqs.size) + 1j * rng.standard_normal(freqs.size)
    poly = TrigPolynomial(dict(zip(freqs.tolist(), cs.tolist())))
    ts = rng.uniform(-3.0, 3.0, points)
    whole = np.exp(1j * np.outer(ts, freqs)) @ cs
    monkeypatch.setattr(core, "EVAL_ENTRIES", entries)
    blocked = poly.evaluate(ts)
    if entries >= 3 * freqs.size:
        assert np.array_equal(blocked.view(np.int64), whole.view(np.int64))
    assert np.allclose(blocked, whole, rtol=1e-12, atol=1e-10)


def test_hermitian_symmetry_exact():
    rng = np.random.default_rng(13)
    spec = random_spec(rng, count=6)
    poly = expand_partial_product(spec, 5)
    assert poly.real_valued
    for m, c in poly.coefficients.items():
        assert poly.coefficient(-m) == c.conjugate()


def test_parseval_identity():
    rng = np.random.default_rng(17)
    for _ in range(5):
        spec = random_spec(rng, count=7)
        for n in range(7):
            poly = expand_partial_product(spec, n)
            total = sum((c * c.conjugate()).real for c in poly.coefficients.values())
            expected = math.prod(1 + spec.coeffs.moduli[j] ** 2 / 2
                                 for j in range(n + 1))
            assert abs(total - expected) < 1e-12


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def test_eval_trivial_values():
    assert eval_partial_product(geometric_spec(4, 3, r=0.0), 2, 1.234) == 1.0
    one = RieszSpec(FrequencySequence((1,)), CoefficientSequence.constant(1.0, 0.0, 1))
    assert abs(eval_partial_product(one, 0, math.pi)) < 1e-15
    two = RieszSpec(FrequencySequence((1, 4)), CoefficientSequence.constant(1.0, 0.0, 2))
    assert eval_partial_product(two, 1, 0.0) == 4.0


def test_eval_nonnegative_on_dense_grid():
    rng = np.random.default_rng(19)
    grid = np.linspace(0.0, TWO_PI, 100_000, endpoint=False)
    for _ in range(5):
        spec = random_spec(rng, count=6)
        values = eval_partial_product(spec, 5, grid)
        assert values.min() >= -1e-9


def factor_by_factor(spec, factors, t, start=1.0):
    """``start`` times the factors j in ``factors`` at the points t, each
    factor formed over the whole array."""
    out = np.full_like(t, start)
    for j in factors:
        r = spec.coeffs.moduli[j]
        if r:
            out *= 1.0 + r * np.cos(spec.freqs.values[j] * t + spec.coeffs.phases[j])
    return out


@pytest.mark.parametrize("parts", [1, 2, 3])
def test_split_factor_chains_match_whole_array_bit_for_bit(monkeypatch, parts):
    monkeypatch.setattr(core, "_cpus", lambda: parts)
    rng = np.random.default_rng(29)
    spec = random_spec(rng, count=7)
    ts = rng.uniform(-TWO_PI, TWO_PI, 3 * core.SPLIT_MIN + 11)
    ts[::5] = 0.0
    assert np.array_equal(eval_partial_product(spec, 6, ts).view(np.int64),
                          factor_by_factor(spec, range(7), ts).view(np.int64))
    # one ascending chain over a set of n, multiplied into ``out``'s values
    for ns in [(6,), (0, 6), (5, 1, 3, 3), (2, 3, 4), range(7)]:
        out = np.full_like(ts, 2.0)
        seen = []
        for n, values in core._partial_products(spec, ts, out, ns):
            assert values is out
            assert np.array_equal(out.view(np.int64),
                                  factor_by_factor(spec, range(n + 1), ts, 2.0).view(np.int64))
            seen.append(n)
        assert seen == sorted(set(ns))


@given(st.integers(1, core.GRID_BUDGET))
@example(20_000)
@example(131_072)
@example(699_048)
@settings(max_examples=25, deadline=None)
def test_grid_equals_the_textbook_nodes_bit_for_bit(size):
    expected = 2 * math.pi * np.arange(size) / size
    assert np.array_equal(core._grid(size).view(np.int64), expected.view(np.int64))


def test_grid_holds_one_array():
    size = 699_048
    tracemalloc.start()
    try:
        grid = core._grid(size)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert grid.nbytes <= peak < grid.nbytes + 64 * 1024


def test_split_parts_are_contiguous_and_at_least_split_min(monkeypatch):
    monkeypatch.setattr(core, "_cpus", lambda: 3)
    for size, bounds in [(core.SPLIT_MIN - 1, [(0, core.SPLIT_MIN - 1)]),
                         (2 * core.SPLIT_MIN + 1, [(0, core.SPLIT_MIN),
                                                   (core.SPLIT_MIN, 2 * core.SPLIT_MIN + 1)]),
                         (3 * core.SPLIT_MIN, [(i * core.SPLIT_MIN, (i + 1) * core.SPLIT_MIN)
                                               for i in range(3)])]:
        seen = []
        values = np.arange(size, dtype=float)
        core._split(lambda part: seen.append((int(part[0]), int(part[-1]) + 1)), values)
        assert sorted(seen) == bounds


class RecordingThread(threading.Thread):
    started = 0

    def start(self):
        RecordingThread.started += 1
        super().start()


def test_split_refuses_phases_before_any_thread_starts(monkeypatch):
    monkeypatch.setattr(core, "_cpus", lambda: 3)
    monkeypatch.setattr(core.threading, "Thread", RecordingThread)
    RecordingThread.started = 0
    # factor 2 reaches 10^15 * 2 pi > 2^52; factors 0 and 1 are fine
    spec = RieszSpec(FrequencySequence((1, 10, 10 ** 15)),
                     CoefficientSequence.constant(0.5, 0.0, 3))
    ts = np.linspace(0.0, TWO_PI, 3 * core.SPLIT_MIN)
    out = np.ones_like(ts)
    # the chain through max(n) is checked before its first segment runs
    with pytest.raises(CapError, match="factor 2"):
        next(core._partial_products(spec, ts, out, (0, 2)))
    with pytest.raises(ValidationError, match="n=3 out of range"):
        next(core._partial_products(spec, ts, out, (0, 3)))
    bad = ts.copy()
    bad[-1] = math.nan
    with pytest.raises(ValidationError, match="points must be finite, got nan"):
        next(core._partial_products(spec, bad, out, (0,)))
    assert RecordingThread.started == 0
    assert (out == 1.0).all()  # no factor ran
    for _ in core._partial_products(spec, ts, out, (0, 1)):
        pass
    assert RecordingThread.started == 4  # two segments of three parts


def test_an_exception_in_a_part_is_raised_in_the_caller(monkeypatch):
    monkeypatch.setattr(core, "_cpus", lambda: 3)
    values = np.arange(3 * core.SPLIT_MIN, dtype=float)
    ran, before = [], threading.active_count()

    def kernel(part):
        ran.append(int(part[0]))
        if part[0]:  # the parts that run in threads
            raise ZeroDivisionError(int(part[0]))

    with pytest.raises(ZeroDivisionError) as info:
        core._split(kernel, values)
    assert sorted(ran) == [0, core.SPLIT_MIN, 2 * core.SPLIT_MIN]  # every part ran
    assert info.value.args == (core.SPLIT_MIN,)  # the first failed part, in order
    assert threading.active_count() == before


def test_a_part_without_a_thread_runs_in_the_caller(monkeypatch):
    def refuse(self):
        raise RuntimeError("can't start new thread")

    monkeypatch.setattr(core, "_cpus", lambda: 3)
    monkeypatch.setattr(core.threading.Thread, "start", refuse)
    rng = np.random.default_rng(31)
    spec = random_spec(rng, count=5)
    ts = rng.uniform(0.0, TWO_PI, 3 * core.SPLIT_MIN)
    assert np.array_equal(eval_partial_product(spec, 4, ts),
                          factor_by_factor(spec, range(5), ts))


def test_cpus_follow_the_affinity_mask(monkeypatch):
    if hasattr(core.os, "sched_getaffinity"):
        assert core._cpus() == len(core.os.sched_getaffinity(0))
        monkeypatch.delattr(core.os, "sched_getaffinity")
    monkeypatch.setattr(core.os, "cpu_count", lambda: None)
    assert core._cpus() == 1


def test_eval_agrees_with_expansion_sum():
    rng = np.random.default_rng(23)
    spec = random_spec(rng, count=6)
    poly = expand_partial_product(spec, 5)
    ts = rng.uniform(0.0, TWO_PI, 1000)
    direct = eval_partial_product(spec, 5, ts)
    via_sum = poly.evaluate(ts)
    scale = max(1.0, float(np.max(np.abs(direct))))
    assert np.max(np.abs(direct - via_sum)) < 1e-9 * scale


# ---------------------------------------------------------------------------
# coefficients / bands / convolution
# ---------------------------------------------------------------------------


def test_fourier_coefficient_closed_forms():
    rng = np.random.default_rng(29)
    spec = random_spec(rng, count=7)
    lams = spec.freqs.values
    assert fourier_coefficient(spec, 0, 6).value == 1.0
    for j in range(7):
        fc = fourier_coefficient(spec, lams[j], 6)
        assert abs(fc.value - spec.coefficient(j) / 2) < 1e-15
    fc = fourier_coefficient(spec, lams[0] + lams[1], 6)
    assert abs(fc.value - spec.coefficient(0) * spec.coefficient(1) / 4) < 1e-15
    # unrepresentable frequency
    assert fourier_coefficient(spec, 2, 6).value == 0j


def test_fourier_coefficient_matches_expansion_everywhere():
    rng = np.random.default_rng(31)
    spec = random_spec(rng, count=6)
    poly = expand_partial_product(spec, 5)
    for m in list(poly.support()) + [2, 7, 1000, -11]:
        assert fourier_coefficient(spec, m, 5).value == poly.coefficient(m)


def test_fourier_coefficient_stability_rule():
    spec = geometric_spec(4, 8)
    lams = spec.freqs.values
    # lambda_3 = 64 is stable at depth 3: prefix 85, next 256 - 85 = 171 > 64
    assert fourier_coefficient(spec, lams[3], 3).stable
    # but a frequency beyond the prefix sum is not
    assert not fourier_coefficient(spec, 100, 3).stable
    # final-depth values are always stable
    assert fourier_coefficient(spec, 100, 7).stable


def test_fourier_coefficient_dyadic_matches_fft_and_flags_the_values_that_stay():
    # frequencies collide in the dyadic regime: the reference coefficients come
    # from an FFT of the product sampled above the Nyquist rate
    rng = np.random.default_rng(37)
    lams = tuple(2 ** j for j in range(6))
    spec = RieszSpec(FrequencySequence(lams),
                     CoefficientSequence(tuple(rng.uniform(0.2, 0.9, 6)),
                                         tuple(rng.uniform(0.0, TWO_PI, 6))), "dyadic")
    nodes = 256  # above twice the largest |m| read, 66
    t = TWO_PI * np.arange(nodes) / nodes
    density = np.ones(nodes)
    final = {m: fourier_coefficient(spec, m, 5).value for m in range(-66, 67)}
    for depth, lam in enumerate(lams):
        density *= 1.0 + (spec.coefficient(depth) * np.exp(1j * lam * t)).real
        reference = np.fft.fft(density) / nodes
        top = 2 * lam - 1  # the sum of lambda_0..lambda_depth
        for m in range(-top - 3, top + 4):
            fc = fourier_coefficient(spec, m, depth)
            assert abs(fc.value - reference[m % nodes]) < 1e-13, (depth, m)
            # the next frequency clears the prefix sum by 1: only m = 0 stays
            # before the final depth
            assert fc.stable == (m == 0 or depth == 5), (depth, m)
            if fc.stable:
                assert abs(fc.value - final[m]) < 1e-15, (depth, m)
            elif abs(m) <= top:
                # m = lambda_{depth+1} - (lambda_{depth+1} - m) gains patterns
                assert abs(fc.value - final[m]) > 1e-6, (depth, m)


@st.composite
def coefficient_cases(draw):
    """A lacunary3 spec (frequencies small and beyond 2^62) or a dyadic one,
    with zero moduli, phases 0, pi/2 and pi among others, a depth <= 8, and
    frequencies m of the support (sign-pattern sums) or up to 2 beyond it."""
    depth = draw(st.integers(0, 8))
    count = depth + 1 + draw(st.integers(0, 2))
    if draw(st.booleans()):
        regime, freqs = "dyadic", [2 ** j for j in range(count)]
        moduli = st.one_of(st.just(0.0), st.floats(0.0, 0.99))
    else:
        sizes = st.one_of(st.integers(0, 50), st.integers(2 ** 60, 2 ** 66))
        regime, freqs = "lacunary3", [1 + draw(sizes)]
        for _ in range(count - 1):
            freqs.append(3 * freqs[-1] + draw(sizes))
        moduli = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
    phases = st.one_of(st.sampled_from([0.0, math.pi / 2, math.pi]), st.floats(0.0, TWO_PI))
    spec = RieszSpec(FrequencySequence(tuple(freqs)),
                     CoefficientSequence(tuple(draw(moduli) for _ in range(count)),
                                         tuple(draw(phases) for _ in range(count))), regime)
    reach = core._support_bound(spec, depth)
    patterns = st.lists(st.sampled_from((-1, 0, 1)), min_size=depth + 1, max_size=depth + 1)
    sums = st.builds(lambda eps, shift: sum(map(lambda e, lam: e * lam, eps, freqs)) + shift,
                     patterns, st.integers(-2, 2))
    ms = draw(st.lists(sums | st.integers(-reach - 2, reach + 2) | st.sampled_from(
        [-reach - 2, -reach - 1, -reach, 0, reach, reach + 1, reach + 2]), min_size=1, max_size=12))
    return spec, depth, ms


@settings(max_examples=300, deadline=None, derandomize=True)
@given(coefficient_cases())
@example((SIGNED_ZERO[0], 1, [0, 1, 2, 3, 4, -4]))
def test_fourier_coefficient_is_the_expansion_bit_for_bit_in_both_regimes(case):
    spec, depth, ms = case
    poly = expand_partial_product(spec, depth)
    for m in ms:
        value, expected = fourier_coefficient(spec, m, depth).value, poly.coefficient(m)
        assert (repr(value.real), repr(value.imag)) == (repr(expected.real),
                                                       repr(expected.imag)), m


def test_coefficient_reads_at_one_depth_form_the_factors_once(monkeypatch):
    # the (lambda_j, a_j/2) with a_j != 0 and their reach are cached per
    # (spec, depth): 100 reads compute each a_j once
    spec, depth = geometric_spec(4, 12, r=0.5, theta=0.3), 8
    poly = expand_partial_product(spec, depth)
    coefficient, calls = RieszSpec.coefficient, []
    monkeypatch.setattr(RieszSpec, "coefficient",
                        lambda self, j: calls.append(j) or coefficient(self, j))
    core._walk_factors.cache_clear()
    ms = [lam + d for lam in spec.freqs.values[:10] for d in range(-5, 5)]
    assert len(ms) == 100
    for m in ms:
        assert fourier_coefficient(spec, m, depth).value == poly.coefficient(m), m
    assert calls == list(range(depth + 1))


def test_spectrum_bands_structure():
    spec = geometric_spec(4, 7)
    bands = spectrum_bands(spec, 2)
    assert [b.index for b in bands] == [0, 1, 2]
    assert bands == grouped_bands(expand_partial_product(spec, 2), spec.freqs, 2)
    b0, b1, b2 = bands
    assert b0 == SpectralBand(0, 1, 1, 1)
    assert b2.lo >= 16 - 5 and b2.hi <= 16 + 5
    assert 2 * 16 / 3 < b2.lo and b2.hi < 4 * 16 / 3
    # pairwise disjoint and ordered
    assert b0.hi < b1.lo and b1.hi < b2.lo


def test_spectrum_bands_inside_stated_interval_for_deep_products():
    spec = geometric_spec(4, 9)
    for band in spectrum_bands(spec, 6):
        n = band.index
        s = spec.freqs.prefix_sum(n - 1) if n else 0
        assert band.lo >= spec.freqs.values[n] - s
        assert band.hi <= spec.freqs.values[n] + s


def expansion_bands(spec, depth):
    """Bands as the expansion gives them: its positive frequencies in
    [lambda_n - S_{n-1}, lambda_n + S_{n-1}], S the sum of every lambda_j,
    j < n, whatever a_j, found by search in the sorted frequencies."""
    freqs, _ = expand_partial_product(spec, depth).arrays()
    positive = freqs[np.searchsorted(freqs, 0, side="right"):]
    bands, below = [], 0
    for n, lam in enumerate(spec.freqs.values[: depth + 1]):
        lo = int(np.searchsorted(positive, lam - below, side="left"))
        hi = int(np.searchsorted(positive, lam + below, side="right"))
        if hi > lo:
            bands.append(SpectralBand(n, int(positive[lo]), int(positive[hi - 1]), hi - lo))
        below += lam
    return bands


@st.composite
def deep_lacunary3_cases(draw):
    """A spec with ratios >= 3, frequencies small and beyond 2^62, zero moduli,
    and a depth up to the expansion cap.  Nonzero moduli are at least 2^-40,
    so that no coefficient of the expansion underflows to 0 (the test below
    covers one that does)."""
    depth = draw(st.sampled_from(range(core.MAX_EXPANSION_DEPTH + 1)))
    count = depth + 1 + draw(st.integers(0, 2))
    sizes = st.one_of(st.integers(0, 50), st.integers(2 ** 60, 2 ** 66))
    freqs = [1 + draw(sizes)]
    for _ in range(count - 1):
        freqs.append(3 * freqs[-1] + draw(sizes))
    moduli = st.one_of(st.just(0.0), st.just(1.0), st.floats(2.0 ** -40, 1.0))
    phases = st.floats(0.0, TWO_PI)
    spec = RieszSpec(FrequencySequence(tuple(freqs)),
                     CoefficientSequence(tuple(draw(moduli) for _ in range(count)),
                                         tuple(draw(phases) for _ in range(count))))
    return spec, depth


@settings(max_examples=60, deadline=None, derandomize=True)
@given(deep_lacunary3_cases())
@example((RieszSpec(FrequencySequence(tuple(2 ** 62 * 3 ** j for j in range(13))),
                    CoefficientSequence.constant(0.5, 1.0, 13)), 12))
@example((RieszSpec(FrequencySequence.geometric(4, 13),
                    CoefficientSequence((0.0, 0.9, 0.0, 0.0, 0.7, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
                                         0.0, 0.3), (0.0,) * 13)), 12))
def test_closed_form_bands_equal_the_expansion(case):
    spec, depth = case
    assert spectrum_bands(spec, depth) == expansion_bands(spec, depth)


def test_a_band_keeps_a_frequency_whose_coefficient_underflows():
    # a_0/2 = 2^-1075 rounds to 0.0, so the expansion drops lambda_0; the
    # measure's coefficient there is not 0, and band 0 holds it
    spec = RieszSpec(FrequencySequence((1, 3)), CoefficientSequence((5e-324, 0.5), (0.0, 0.0)))
    assert expand_partial_product(spec, 0).support() == (0,)
    assert expansion_bands(spec, 0) == []
    assert spectrum_bands(spec, 0) == [SpectralBand(0, 1, 1, 1)]
    assert spectrum_bands(spec, 1) == [SpectralBand(0, 1, 1, 1), SpectralBand(1, 2, 4, 3)]


def test_spectrum_bands_refuses_dyadic():
    spec = geometric_spec(2, 5, r=0.5, regime="dyadic")
    with pytest.raises(RegimeError):
        spectrum_bands(spec, 4)


def test_convolution_identity_and_formula():
    rng = np.random.default_rng(37)
    spec = random_spec(rng, count=5)
    poly = expand_partial_product(spec, 4)
    # the convolution identity is the point mass at 0: coefficient 1 everywhere
    dirac = TrigPolynomial({m: 1.0 for m in poly.support()})
    assert convolve_products(poly, dirac) == poly
    # convolving with Lebesgue flattens everything to Lebesgue
    assert convolve_products(poly, TrigPolynomial({0: 1.0})).coefficients == {0: 1.0 + 0j}

    ones = geometric_spec(4, 5)
    conv = convolve_products(expand_partial_product(ones, 4),
                             expand_partial_product(ones, 4))
    assert conv.coefficient(1) == 0.25  # (a0 b0 / 2) / 2


def test_convolution_theorem_exact():
    rng = np.random.default_rng(41)
    a, b = random_spec(rng, count=6), random_spec(rng, count=6)
    conv = convolve_products(expand_partial_product(a, 5),
                             expand_partial_product(b, 5))
    ab = RieszSpec(a.freqs, CoefficientSequence.from_complex(
        [a.coefficient(j) * b.coefficient(j) / 2 for j in range(6)]))
    direct = expand_partial_product(ab, 5)
    assert set(conv.coefficients) == set(direct.coefficients)
    for m, c in direct.coefficients.items():
        assert abs(conv.coefficient(m) - c) < 1e-12


def test_convolution_with_dilate_is_lebesgue():
    spec = geometric_spec(4, 6)
    dilated = RieszSpec(FrequencySequence(tuple(2 * 4 ** j for j in range(6))),
                        CoefficientSequence.constant(1.0, 0.0, 6))
    conv = convolve_products(expand_partial_product(spec, 5),
                             expand_partial_product(dilated, 5))
    assert conv.coefficients == {0: 1.0 + 0j}


# ---------------------------------------------------------------------------
# random phases
# ---------------------------------------------------------------------------


def test_randomize_phases_deterministic_and_modulus_preserving():
    rng = np.random.default_rng(43)
    spec = random_spec(rng, count=6)
    out1 = randomize_phases(spec, 99)
    out2 = randomize_phases(spec, 99)
    assert out1 == out2
    assert out1.coeffs.moduli == spec.coeffs.moduli
    assert out1.phase_seed == 99 and out1.phase_generator == "numpy-pcg64"
    assert randomize_phases(spec, 100) != out1


def test_randomize_phases_uniform_mean():
    spec = geometric_spec(4, 2, r=0.7, theta=0.0)
    draws = np.array([randomize_phases(spec, seed).coeffs.phases[0]
                      for seed in range(10_000)])
    # uniform on [0, 2pi): mean pi, sd of the mean = (2pi/sqrt(12))/100
    assert abs(draws.mean() - math.pi) < 3 * (TWO_PI / math.sqrt(12)) / 100


def test_randomize_keeps_zero_modulus_canonical():
    spec = RieszSpec(FrequencySequence((1, 4)),
                     CoefficientSequence((0.0, 0.5), (0.0, 1.0)))
    out = randomize_phases(spec, 3)
    assert out.coeffs.phases[0] == 0.0


# ---------------------------------------------------------------------------
# Gram system
# ---------------------------------------------------------------------------


def test_gram_examples():
    ones = geometric_spec(4, 7)
    assert gram_centered_exponentials(ones, 2, 2, 5) == 0.75
    assert gram_centered_exponentials(ones, 0, 3, 5) == 0j
    zero = geometric_spec(4, 7, r=0.0)
    assert gram_centered_exponentials(zero, 1, 1, 5) == 1.0


def test_gram_identity_exact_for_random_specs():
    rng = np.random.default_rng(47)
    for _ in range(5):
        spec = random_spec(rng, count=7)
        for j in range(5):
            for k in range(5):
                value = gram_centered_exponentials(spec, j, k, 5)
                if j == k:
                    a = spec.coefficient(j)
                    expected = 1.0 - (a * a.conjugate()).real / 4
                    assert abs(value - expected) < 1e-15
                else:
                    assert abs(value) < 1e-16


def test_gram_agrees_with_grid_quadrature():
    rng = np.random.default_rng(53)
    spec = random_spec(rng, count=6)
    depth = 5
    lams = spec.freqs.values
    degree = spec.freqs.prefix_sum(depth) + 2 * lams[depth]
    nodes = 2 * degree + 1
    grid = TWO_PI * np.arange(nodes) / nodes
    density = eval_partial_product(spec, depth, grid)
    for j, k in ((0, 0), (3, 3), (1, 4), (2, 0)):
        f_j = np.exp(1j * lams[j] * grid) - spec.coefficient(j).conjugate() / 2
        f_k = np.exp(1j * lams[k] * grid) - spec.coefficient(k).conjugate() / 2
        quad = np.mean(f_j * np.conj(f_k) * density)
        exact = gram_centered_exponentials(spec, j, k, depth)
        assert abs(quad - exact) < 1e-6


def test_gram_refuses_dyadic_and_bad_indices():
    dyadic = geometric_spec(2, 6, r=0.5, regime="dyadic")
    with pytest.raises(RegimeError):
        gram_centered_exponentials(dyadic, 0, 1, 4)
    # j, k <= depth is required; with it, stability is structurally guaranteed
    # in the lacunary3 regime (the margin above depth exceeds 1.5 lambda_depth)
    spec = RieszSpec(FrequencySequence((1, 3, 9, 27, 81)),
                     CoefficientSequence.constant(0.5, 0.0, 5))
    with pytest.raises(ValidationError):
        gram_centered_exponentials(spec, 4, 2, 3)
    assert gram_centered_exponentials(spec, 2, 2, 2) == 1 - 0.25 / 4


# ---------------------------------------------------------------------------
# sign patterns
# ---------------------------------------------------------------------------


def test_sign_pattern_frequency_and_apply():
    pattern = SignPattern.from_signs((1, 0, -1, 1))
    assert pattern.frequency((1, 4, 16, 64)) == 1 - 16 + 64
    assert pattern.apply(((1, 1), (2, 0), (0, 3), (5, 5))) == (6, 3)
    assert SignPattern.from_signs((0, 0)).is_trivial


def test_sign_pattern_rejects_bad_signs():
    with pytest.raises(ValidationError):
        SignPattern(((0, 2),))
    with pytest.raises(ValidationError):
        SignPattern(((0, 1), (0, -1)))


# one instance of every record class, built afresh on each call
RECORD_EXAMPLES = {
    core.FrequencySequence: lambda: core.FrequencySequence((1, 4)),
    core.CoefficientSequence: lambda: core.CoefficientSequence((0.5,), (1.0,)),
    core.RieszSpec: lambda: RieszSpec(VALID.freqs, VALID.coeffs),
    core.SignPattern: lambda: SignPattern(((0, 1), (2, -1))),
    core.SpectralBand: lambda: SpectralBand(1, 3, 5, (3, 5)),
    core.FourierCoefficient: lambda: core.FourierCoefficient(0.25j, True),
    analysis.EnergyReport: lambda: analysis.EnergyReport(0.5, "direct", (1.0,), (1.0,), (1,),
                                                         "undecided"),
    analysis.DimensionReport: lambda: analysis.DimensionReport(
        (1,), ((1, 0.5),), 0.25, 0.75, "quadrature", False, 0.25, 0.75),
    analysis.HolderSample: lambda: analysis.HolderSample(0.5, (0.1,), (1.0,), 1.0, ()),
    classify.SeriesEvidence: lambda: classify.SeriesEvidence("gap", (0.0, 1.0)),
    classify.TailDeclarations: lambda: classify.TailDeclarations(lacunarity="divergent"),
    classify.Verdict: lambda: classify.Verdict(classify.OUTCOME_UNKNOWN, None),
    classify.DivergenceWitness: lambda: classify.DivergenceWitness((1j,), (1.0,), (1.0,)),
    qi.IntVectorSet: lambda: qi.IntVectorSet.from_integers([1, 3]),
    qi.QiCheckResult: lambda: qi.QiCheckResult(False, SignPattern(((0, 1),))),
    qi.QiMatrix: lambda: qi.build_qi_matrix(1),
    qi.DissociatedBase: lambda: qi.build_dissociated_base(1),
    qi.LambdaSet: lambda: qi.build_lambda(1),
    qi.Mesh: lambda: qi.Mesh.unit_box([1, 3]),
    qi.MeshIntersection: lambda: qi.MeshIntersection(1, (3,)),
    qi.MeshBoundRecord: lambda: qi.MeshBoundRecord(2, 3, 0.5, True),
    qi.MeshBoundReport: lambda: qi.MeshBoundReport(1, 3, (), 1.0, True),
    qi.SidonEstimate: lambda: qi.SidonEstimate(1.0, 1.0, (1 + 0j,), (1,), 8, 1, 1.0, 1, 0),
    specio.Diagnostic: lambda: specio.Diagnostic("spec.regime", "unknown regime"),
}

MODULES = (core, analysis, classify, qi, specio, cli)


def package_classes():
    return [value for module in MODULES for value in vars(module).values()
            if isinstance(value, type) and value.__module__ == module.__name__]


def test_every_record_class_has_an_example_and_no_dataclass_remains():
    records = {cls for cls in package_classes() if cls is not Record and issubclass(cls, Record)}
    assert records == set(RECORD_EXAMPLES) and len(records) == 24
    methods = ("__init__", "__eq__", "__hash__", "__setattr__", "__delattr__", "__repr__")
    assert not [(cls, name) for cls in records for name in methods if name in vars(cls)]
    assert not [cls for cls in package_classes() if hasattr(cls, "__dataclass_fields__")]


@pytest.mark.parametrize("cls", RECORD_EXAMPLES, ids=lambda cls: cls.__name__)
def test_records_are_frozen_values_of_their_class(cls):
    first, second = RECORD_EXAMPLES[cls](), RECORD_EXAMPLES[cls]()
    assert type(first) is cls and first is not second
    assert first == second and hash(first) == hash(second)
    assert replace(first) == first
    for name in cls._fields:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(first, name, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(first, name)
    assert first == second
    others = [make() for other, make in RECORD_EXAMPLES.items() if other is not cls]
    assert all(first != other for other in others)


@pytest.mark.parametrize("cls", RECORD_EXAMPLES, ids=lambda cls: cls.__name__)
def test_record_hash_is_formed_once(monkeypatch, cls):
    first, second = RECORD_EXAMPLES[cls](), RECORD_EXAMPLES[cls]()
    reads = []
    field_values = core._field_values
    monkeypatch.setattr(core, "_field_values", lambda obj: reads.append(obj) or field_values(obj))
    assert hash(first) == hash(second)
    assert [obj for obj in reads if obj is first or obj is second] == [first, second]
    formed = len(reads)
    assert hash(first) == hash(second) and len(reads) == formed  # no field is read again
    # a pickle carries the fields, not the hash (a str hashes anew in each process)
    copy = pickle.loads(pickle.dumps(first))
    assert "_hash" not in vars(copy) and copy == first and hash(copy) == hash(first)


def test_records_of_different_classes_with_equal_fields_differ():
    class Twin(Record):
        path: str
        message: str

    diagnostic = specio.Diagnostic("spec.regime", "unknown regime")
    twin = Twin("spec.regime", "unknown regime")
    assert twin != diagnostic and diagnostic != twin
    assert twin == Twin(path="spec.regime", message="unknown regime")
    assert repr(diagnostic) == "Diagnostic(path='spec.regime', message='unknown regime')"


def test_record_arguments_and_defaults():
    assert classify.Verdict(classify.OUTCOME_UNKNOWN, None).evidence == ()
    spec = RieszSpec(coeffs=VALID.coeffs, freqs=VALID.freqs, phase_seed=3)
    assert (spec.regime, spec.phase_seed, spec.phase_generator) == ("lacunary3", 3, None)
    assert repr(core.FourierCoefficient(0.5, False)) == "FourierCoefficient(value=0.5, stable=False)"
    for args, kwargs in [((VALID.freqs,), {}), ((VALID.freqs, VALID.coeffs), {"freqs": VALID.freqs}),
                         ((VALID.freqs, VALID.coeffs), {"depth": 3}),
                         ((VALID.freqs, VALID.coeffs, "lacunary3", None, None, 0), {})]:
        with pytest.raises(TypeError):
            RieszSpec(*args, **kwargs)
    with pytest.raises(TypeError):
        replace(VALID, depth=3)


def test_replace_reruns_normalization():
    coeffs = core.CoefficientSequence((0.5, 0.5), (1.0, 2.0))
    assert replace(coeffs, phases=(-1.0, 0)).phases == (TWO_PI - 1.0, 0.0)
    assert replace(coeffs, moduli=(0.0, 0.5)).phases == (0.0, 2.0)
