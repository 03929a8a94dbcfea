"""Core expansion/evaluation tests.

The independent oracle here is brute-force enumeration of all sign
patterns: the expansion of a depth-n partial product is the aggregate of
3^(n+1) pattern contributions prod (r_j/2)^{|eps_j|} e^{i sum eps theta}
at frequency sum eps_j lambda_j.  Everything sparse is checked against it.
"""

import dataclasses
import itertools
import math
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
from rieszprod.core import Record, _representation, replace

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

    groups = {}
    for m in poly.support():
        if m > 0:
            top = _representation(spec.freqs, m, n).entries[-1][0]
            groups.setdefault(top, []).append(m)
    assert spectrum_bands(spec, n) == [SpectralBand(top, fs[0], fs[-1], tuple(fs))
                                       for top, fs in sorted(groups.items())]


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


def test_spectrum_bands_structure():
    spec = geometric_spec(4, 7)
    bands = spectrum_bands(spec, 2)
    assert [b.index for b in bands] == [0, 1, 2]
    b0, b1, b2 = bands
    assert b0.freqs == (1,)
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
