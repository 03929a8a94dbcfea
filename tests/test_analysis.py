"""Energy, kernel, interval, and dimension machinery.

Oracles: direct summation over the exact expansion (for the band energy
series), closed-form antiderivatives (for interval masses with a = 0),
Fejer-kernel combinations (for the plateau kernel), and cross-method
agreement between quadrature and seeded Monte Carlo for the log integral.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rieszprod import (
    CapError,
    CoefficientSequence,
    FrequencySequence,
    RegimeError,
    RieszSpec,
    SpectralGapError,
    ValidationError,
    alpha_energy_band_series,
    alpha_energy_direct,
    convolve_products,
    dimension_bounds,
    dimension_integral,
    energy_dimension_bound,
    eval_partial_product,
    expand_partial_product,
    holder_transfer_check,
    interval_masses,
    interval_measure,
    interval_upper_bound,
    local_holder,
    series_verdict,
    smooth_by_vp,
    vallee_poussin_kernel,
)
from rieszprod import analysis, core
from rieszprod.core import TrigPolynomial

TWO_PI = 2 * math.pi


def geometric_spec(base, count, r=1.0, theta=0.0, regime="lacunary3"):
    return RieszSpec(FrequencySequence.geometric(base, count),
                     CoefficientSequence.constant(r, theta, count), regime)


def random_spec(rng, count=6, base=4):
    return RieszSpec(
        FrequencySequence.geometric(base, count),
        CoefficientSequence(tuple(rng.uniform(0, 1, count)),
                            tuple(rng.uniform(0, TWO_PI, count))))


# ---------------------------------------------------------------------------
# energy
# ---------------------------------------------------------------------------


def test_series_verdict_rules():
    assert series_verdict([]) == "convergent"
    assert series_verdict([0.0] * 8) == "convergent"
    assert series_verdict([2.0 ** -k for k in range(10)]) == "convergent"
    assert series_verdict([1.1 ** k for k in range(10)]) == "divergent"
    assert series_verdict([1.0] * 10) == "undecided"
    assert series_verdict([1.0, 2.0]) == "undecided"  # too short to call


def test_energy_direct_trivial_cases():
    zero = expand_partial_product(geometric_spec(4, 4, r=0.0), 3)
    report = alpha_energy_direct(zero, 0.5, 1000)
    assert report.total == 0.0 and report.verdict == "convergent"

    single = TrigPolynomial({5: 0.5, -5: 0.5})
    report = alpha_energy_direct(single, 0.5, 10)
    assert abs(report.total - 2 * 0.25 * 5 ** (-0.5)) < 1e-15


def test_energy_direct_rejects_bad_alpha():
    poly = TrigPolynomial({1: 0.5, -1: 0.5})
    for alpha in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(ValidationError):
            alpha_energy_direct(poly, alpha, 10)


def test_energy_band_exact_matches_direct_summation():
    rng = np.random.default_rng(61)
    for alpha in (0.3, 0.6, 0.9):
        spec = random_spec(rng, count=7)
        n = 6
        band = alpha_energy_band_series(spec, alpha, n, "band_exact")
        poly = expand_partial_product(spec, n)
        direct = alpha_energy_direct(poly, alpha, poly.degree)
        assert np.all(np.diff(direct.partial_sums) >= 0)  # nondecreasing in cutoff
        # cumulative direct sums at the band edges equal the band partial sums
        for i, edge in enumerate(band.cutoffs):
            below = [ps for c, ps in zip(direct.cutoffs, direct.partial_sums)
                     if c <= edge]
            total_below = below[-1] if below else 0.0
            assert abs(total_below - band.partial_sums[i]) < 1e-10


def test_zero_coefficient_beyond_int64_keeps_int64_frequencies():
    # lambda_2 = 10^20 carries a_2 = 0: the expansion stays in int64, the
    # band series skips the band, and the float-phase readers still run
    spec = RieszSpec(FrequencySequence((1, 10, 10 ** 20)),
                     CoefficientSequence((0.5, 0.5, 0.0), (0.0, 0.0, 0.0)))
    poly = expand_partial_product(spec, 2)
    assert poly.arrays()[0].dtype == np.int64 and poly.degree == 11
    band = alpha_energy_band_series(spec, 0.5, 2, "band_exact")
    direct = alpha_energy_direct(poly, 0.5, poly.degree)
    assert band.terms[2] == 0.0 and band.cutoffs[2] == 10 ** 20 + 11
    assert abs(band.total - direct.total) <= 1e-12 * direct.total
    assert 0.0 < interval_measure(spec, 2, 0.5, 0.1) < 1.0


def test_energy_band_growth_rate_for_full_modulus():
    # exact band masses grow by (1+1/2) per band and the weight by 4^(alpha-1)
    spec = geometric_spec(4, 12)
    report = alpha_energy_band_series(spec, 0.9, 11, "band_exact")
    ratio = report.terms[-1] / report.terms[-2]
    assert abs(ratio - 4 ** (-0.1) * 1.5) < 0.02
    assert report.verdict == "divergent"


def test_energy_direct_partial_sums_grow_geometrically():
    # the same growth seen on the direct sum: cumulative values at the band
    # edges increase by a factor approaching 4^(-0.1) * 1.5 > 1
    spec = geometric_spec(4, 9)
    poly = expand_partial_product(spec, 8)
    report = alpha_energy_direct(poly, 0.9, poly.degree)
    edges = [spec.freqs.values[n] + spec.freqs.prefix_sum(n - 1)
             for n in range(1, 9)]
    at_edges = []
    for edge in edges:
        below = [ps for c, ps in zip(report.cutoffs, report.partial_sums)
                 if c <= edge]
        at_edges.append(below[-1])
    increments = np.diff(at_edges)
    growth = increments[-1] / increments[-2]
    assert abs(growth - 4 ** (-0.1) * 1.5) < 0.02
    assert growth > 1


def test_energy_band_paper_reproduces_threshold():
    for a in (0.25, 0.5, 1.0):
        alpha_star = 1 - math.log(1 + a * a) / math.log(4)
        spec = geometric_spec(4, 12, r=a)
        for k in range(-10, 11):
            alpha = alpha_star + k * 1e-3
            if not 0 < alpha < 1:
                continue
            verdict = alpha_energy_band_series(spec, alpha, 11, "band_paper").verdict
            if k < 0:
                assert verdict == "convergent", (a, alpha)
            elif k > 0:
                assert verdict == "divergent", (a, alpha)
            else:
                assert verdict == "undecided"


def test_energy_zero_coefficients_convergent_both_variants():
    spec = geometric_spec(4, 8, r=0.0)
    for variant in ("band_paper", "band_exact"):
        report = alpha_energy_band_series(spec, 0.5, 7, variant)
        assert report.total == 0.0 and report.verdict == "convergent"


def test_energy_band_requires_lacunary3():
    spec = geometric_spec(2, 6, r=0.5, regime="dyadic")
    with pytest.raises(RegimeError):
        alpha_energy_band_series(spec, 0.5, 5)


def test_energy_monotonicity_in_alpha():
    # convergent at alpha implies convergent at alpha' < alpha
    spec = geometric_spec(4, 12, r=0.8)
    verdicts = [alpha_energy_band_series(spec, a, 11, "band_exact").verdict
                for a in (0.2, 0.4, 0.6, 0.8)]
    seen_divergent = False
    for v in verdicts:
        if v == "divergent":
            seen_divergent = True
        elif seen_divergent:
            assert v != "convergent"


def test_energy_dimension_bound_closed_forms():
    assert energy_dimension_bound(geometric_spec(4, 8, r=0.0)) == 1.0
    ones = geometric_spec(4, 8)
    assert abs(energy_dimension_bound(ones, "band_paper") - 0.5) < 1e-12
    exact = energy_dimension_bound(ones, "band_exact")
    assert abs(exact - (1 - math.log(1.5) / math.log(4))) < 1e-12


def test_energy_dimension_bound_bisection_matches_closed_form():
    # perturb one modulus so the closed form is bypassed
    moduli = (0.5,) * 12
    wobble = (0.5,) * 11 + (0.5000001,)
    freqs = FrequencySequence.geometric(4, 12)
    closed = energy_dimension_bound(
        RieszSpec(freqs, CoefficientSequence(moduli, (0.0,) * 12)), "band_exact")
    bisected = energy_dimension_bound(
        RieszSpec(freqs, CoefficientSequence(wobble, (0.0,) * 12)), "band_exact")
    assert abs(closed - bisected) < 5e-3


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------


def test_vallee_poussin_coefficients():
    for p in (1, 4, 10):
        v = vallee_poussin_kernel(p)
        assert v.coefficient(0) == 1.0
        assert v.coefficient(p) == 1.0
        assert v.coefficient(2 * p) == 0j
        assert v.coefficient(2 * p + 3) == 0j
        if p % 2 == 0:
            assert v.coefficient(3 * p // 2) == 0.5
        assert v.real_valued


def test_vallee_poussin_is_fejer_combination():
    def fejer(n):
        return TrigPolynomial({m: 1 - abs(m) / n for m in range(-n, n + 1)})

    for p in (2, 5, 8):
        v = vallee_poussin_kernel(p)
        f_p, f_2p = fejer(p), fejer(2 * p)
        combo = {m: 2 * f_2p.coefficient(m) - f_p.coefficient(m)
                 for m in range(-2 * p, 2 * p + 1)}
        for m in range(-2 * p, 2 * p + 1):
            assert abs(v.coefficient(m) - combo[m]) < 1e-15


def test_smooth_by_vp_reproduces_partial_product():
    rng = np.random.default_rng(67)
    spec = random_spec(rng, count=6)
    n, depth = 2, 5
    grid = rng.uniform(0, TWO_PI, 200)
    smoothed = smooth_by_vp(spec, n, depth, grid)
    direct = eval_partial_product(spec, n, grid)
    assert np.max(np.abs(smoothed - direct)) < 1e-10


def test_smooth_by_vp_coefficientwise_identity_is_exact():
    rng = np.random.default_rng(71)
    spec = random_spec(rng, count=7)
    for n in (0, 1, 3):
        p = spec.freqs.prefix_sum(n)
        smoothed = convolve_products(vallee_poussin_kernel(p),
                                     expand_partial_product(spec, 6))
        assert smoothed == expand_partial_product(spec, n)


def test_smooth_by_vp_trivial_and_gap_failure():
    zero = geometric_spec(4, 6, r=0.0)
    assert abs(smooth_by_vp(zero, 1, 4, 0.7) - 1.0) < 1e-12
    triadic = geometric_spec(3, 6, r=0.5)
    with pytest.raises(SpectralGapError):
        smooth_by_vp(triadic, 1, 4, 0.0)  # 3^2 = 9 <= 3 * (1 + 3)


def test_smooth_by_vp_refuses_phases_reaching_2_52():
    spec = geometric_spec(4, 4, r=0.5)  # frequencies 1, 4, 16, 64
    t = 2.0 ** 50
    # the order-1 product has degree 5, and 5 * 2^50 >= 2^52
    for read in (lambda: smooth_by_vp(spec, 1, 3, t), lambda: eval_partial_product(spec, 3, t),
                 lambda: interval_measure(spec, 3, t, 0.1)):
        with pytest.raises(CapError, match="2\\^52"):
            read()
    # the order-0 product has degree 1: its phases at t are exact
    assert smooth_by_vp(spec, 0, 3, t) == pytest.approx(eval_partial_product(spec, 0, t),
                                                        abs=1e-12)


# ---------------------------------------------------------------------------
# interval measures
# ---------------------------------------------------------------------------


def test_interval_measure_total_mass_and_lebesgue():
    rng = np.random.default_rng(73)
    spec = random_spec(rng, count=6)
    assert abs(interval_measure(spec, 5, 0.3, math.pi) - 1.0) < 1e-12
    zero = geometric_spec(4, 6, r=0.0)
    for s in (0.1, 1.0, 2.5):
        assert abs(interval_measure(zero, 5, 1.2, s) - s / math.pi) < 1e-15


def test_interval_measure_additivity():
    rng = np.random.default_rng(79)
    spec = random_spec(rng, count=6)
    for _ in range(20):
        t = float(rng.uniform(0, TWO_PI))
        s = float(rng.uniform(1e-3, math.pi / 2))
        left = interval_measure(spec, 5, t - s / 2, s / 2)
        right = interval_measure(spec, 5, t + s / 2, s / 2)
        whole = interval_measure(spec, 5, t, s)
        assert abs(left + right - whole) < 1e-12


def test_interval_measure_agrees_with_quadrature():
    rng = np.random.default_rng(83)
    spec = random_spec(rng, count=5)
    t, s = 1.1, 0.4
    grid = np.linspace(t - s, t + s, 200_001)
    values = eval_partial_product(spec, 4, grid)
    trapezoid = float(np.sum((values[1:] + values[:-1]) / 2 * np.diff(grid)))
    assert abs(interval_measure(spec, 4, t, s) - trapezoid / TWO_PI) < 1e-8


def test_interval_upper_bound_closed_form_for_lebesgue():
    spec = geometric_spec(4, 7, r=0.0)
    t, s = 0.9, 0.2
    bound = interval_upper_bound(spec, 2, 6, t, s)
    expected = s / math.pi + sum(
        4.0 / spec.freqs.spectral_margin(j) for j in range(2, 6))
    assert abs(bound - expected) < 1e-12
    # full circle, one tail term
    spec0 = geometric_spec(4, 7, r=0.0)
    full = interval_upper_bound(spec0, 5, 6, 0.0, math.pi)
    assert abs(full - (1.0 + 4.0 / spec0.freqs.spectral_margin(5))) < 1e-12


def test_interval_upper_bound_dominates_measure():
    rng = np.random.default_rng(89)
    spec = random_spec(rng, count=7)
    for _ in range(100):
        t = float(rng.uniform(0, TWO_PI))
        s = float(np.exp(rng.uniform(math.log(1e-3), math.log(math.pi))))
        measure = interval_measure(spec, 6, t, s)
        bound = interval_upper_bound(spec, 2, 6, t, s)
        assert bound >= measure - 1e-12


def two_expansion_upper_bound(spec, N, J_max, t, s):
    """The interval bound with P_j expanded on its own and scattered into a
    copy of P_{j+1} by frequency."""
    total = interval_measure(spec, N, t, s)
    for j in range(N, J_max):
        nu = spec.freqs.spectral_margin(j)
        mj, cj = expand_partial_product(spec, j).arrays()
        ms, cs = expand_partial_product(spec, j + 1).arrays()
        cs = cs.copy()
        cs[np.searchsorted(ms, mj)] += cj
        weights = 1.0 / (nu + np.abs(ms).astype(float))
        for x in (t + s, t - s):
            total += float(np.sum((cs * np.exp(1j * ms.astype(float) * x)).real * weights))
    return total


@st.composite
def lacunary3_specs(draw):
    """Specs of 2 to 7 factors with ratios 3 to 5, some moduli 0, random phases."""
    count = draw(st.integers(2, 7))
    freqs = [1]
    for ratio in draw(st.lists(st.integers(3, 5), min_size=count - 1, max_size=count - 1)):
        freqs.append(freqs[-1] * ratio)
    moduli = draw(st.lists(st.just(0.0) | st.floats(0.0, 1.0), min_size=count, max_size=count))
    phases = draw(st.lists(st.floats(0.0, TWO_PI, exclude_max=True),
                           min_size=count, max_size=count))
    return RieszSpec(FrequencySequence(tuple(freqs)),
                     CoefficientSequence(tuple(moduli),
                                         tuple(p if r else 0.0 for r, p in zip(moduli, phases))))


@settings(max_examples=200, deadline=None)
@given(spec=lacunary3_specs(), data=st.data(), t=st.floats(-10.0, 10.0),
       s=st.floats(0.0, math.pi, exclude_min=True))
def test_interval_upper_bound_equals_two_expansions_bit_for_bit(spec, data, t, s):
    J_max = data.draw(st.integers(1, spec.last_index), label="J_max")
    N = data.draw(st.integers(0, J_max - 1), label="N")
    expected = two_expansion_upper_bound(spec, N, J_max, t, s)
    assert interval_upper_bound(spec, N, J_max, t, s).hex() == expected.hex()


def test_interval_upper_bound_rejects_bad_ranges():
    spec = geometric_spec(4, 6)
    with pytest.raises(ValidationError):
        interval_upper_bound(spec, 4, 4, 0.0, 0.1)
    with pytest.raises(ValidationError):
        interval_measure(spec, 4, 0.0, 0.0)


@pytest.mark.parametrize("t", [math.inf, math.nan])
def test_interval_readers_reject_non_finite_points(t):
    spec = geometric_spec(4, 6)
    with pytest.raises(ValidationError, match="finite"):
        interval_measure(spec, 4, t, 0.1)
    with pytest.raises(ValidationError, match="finite"):
        interval_upper_bound(spec, 1, 4, t, 0.1)


def reference_interval_measure(spec, depth, t, s):
    """The interval mass with its own complex exponential for every (t, s)."""
    ms, cs = expand_partial_product(spec, depth).arrays()
    m = ms[ms != 0].astype(float)
    terms = (cs[ms != 0] * np.exp(1j * m * t)).real * np.sin(m * s) / m
    return s / math.pi + float(np.sum(terms)) / math.pi


def test_interval_masses_match_per_scale_reference_bit_for_bit():
    rng = np.random.default_rng(311)
    spec = random_spec(rng, count=9)
    scales = [1.0, 0.5, 0.1, 0.02, 1e-3, math.pi]
    for t in (0.0, 1.3, -4.2, float(rng.uniform(0, TWO_PI))):
        mass = interval_masses(spec, 8, t)
        assert [mass(s) for s in scales] == [
            reference_interval_measure(spec, 8, t, s) for s in scales]
        assert [interval_measure(spec, 8, t, s) for s in scales] == [
            reference_interval_measure(spec, 8, t, s) for s in scales]
        with pytest.raises(ValidationError, match="s must lie"):
            mass(4.0)


def test_interval_masses_refuse_phases_before_any_work(monkeypatch):
    spec = geometric_spec(4, 8)
    mass = interval_masses(spec, 7, 2.0 ** 40)  # support bound 21,845: phases beyond 2^52
    monkeypatch.setattr("rieszprod.analysis.expand_partial_product", None)
    with pytest.raises(ValidationError, match="s must lie"):
        mass(4.0)
    with pytest.raises(CapError, match="interval_measure needs float64 phases"):
        mass(0.1)


# ---------------------------------------------------------------------------
# local exponents
# ---------------------------------------------------------------------------


def test_local_holder_ratios_match_per_scale_reference_bit_for_bit():
    rng = np.random.default_rng(313)
    spec = random_spec(rng, count=9)
    scales = [0.5, 0.2, 0.05, 0.01, 3e-3, 1e-3]
    for t in (0.0, 2.5, float(rng.uniform(0, TWO_PI))):
        sample = local_holder(spec, 8, t, scales)
        assert sample.scales == tuple(scales)
        assert sample.ratios == tuple(
            math.log(reference_interval_measure(spec, 8, t, s)) / math.log(s) for s in scales)


def test_local_holder_lebesgue_ratios_approach_one():
    spec = geometric_spec(4, 7, r=0.0)
    scales = [2.0 ** -k for k in range(2, 9)]
    sample = local_holder(spec, 6, 0.5, scales)
    assert not sample.excluded
    # ratio = 1 + log(1/pi)/log s -> 1 monotonically from above
    assert all(r > 1.0 for r in sample.ratios)
    assert sample.ratios[-1] < sample.ratios[0]
    assert abs(sample.ratios[-1] - 1.0) < 0.25


def test_local_holder_flags_scales_below_resolution():
    spec = geometric_spec(4, 5)
    sample = local_holder(spec, 4, 0.3, [0.25, 1e-5])
    assert sample.scales == (0.25,)
    assert sample.excluded and sample.excluded[0][0] == 1e-5


def test_local_holder_peak_scaling_below_one():
    spec = geometric_spec(4, 8)
    scales = [2.0 ** -k for k in range(4, 11)]
    sample = local_holder(spec, 7, 0.0, scales)
    assert sample.alpha_estimate < 1.0  # the density peaks at t = 0


def test_local_holder_samples_concentrate_above_energy_bound():
    spec = geometric_spec(4, 8)
    bound = energy_dimension_bound(spec, "band_exact")
    grid = TWO_PI * np.arange(2 ** 16) / 2 ** 16
    density = eval_partial_product(spec, 7, grid)
    cdf = np.cumsum(density)
    cdf /= cdf[-1]
    rng = np.random.default_rng(97)
    ts = grid[np.searchsorted(cdf, rng.random(40))]
    scales = [2.0 ** -k for k in range(5, 12)]
    estimates = [local_holder(spec, 7, float(t), scales).alpha_estimate for t in ts]
    median = float(np.median(estimates))
    assert bound - 0.15 <= median <= 1.1


# ---------------------------------------------------------------------------
# log integral and dimension bracket
# ---------------------------------------------------------------------------


def test_dimension_integral_zero_coefficients():
    spec = geometric_spec(4, 6, r=0.0)
    assert dimension_integral(spec, 1, 5) == 0.0


def test_dimension_integral_full_modulus_consistency():
    spec = geometric_spec(4, 9)
    values = {}
    for n in (1, 3, 5):
        quad = dimension_integral(spec, n, 8, "quadrature")
        mc = dimension_integral(spec, n, 8, "monte_carlo", seed=5, samples=400_000)
        values[n] = quad
        assert abs(quad - mc) < 3e-3
        assert quad <= 0.5 + 0.05  # log 2 / log 4 plus slack
    assert values[3] - values[5] < 0.05  # plateau


def test_dimension_integral_validates_depth():
    spec = geometric_spec(4, 6)
    with pytest.raises(ValidationError):
        dimension_integral(spec, 3, 4)  # depth < n + 3
    with pytest.raises(ValidationError):
        dimension_integral(RieszSpec(FrequencySequence((1, 4, 16, 64, 256)),
                                     CoefficientSequence.constant(0.5, 0.0, 5)),
                           0, 3)  # lambda_0 = 1 < 2


def test_dimension_bounds_trivial_and_ordering():
    zero = geometric_spec(4, 7, r=0.0)
    report = dimension_bounds(zero, range(1, 4), 6)
    assert report.lower == report.upper == 1.0
    rng = np.random.default_rng(101)
    spec = random_spec(rng, count=8)
    report = dimension_bounds(spec, range(1, 5), 7)
    assert report.lower <= report.upper
    assert 0.0 <= report.lower and report.upper <= 1.0


def reference_log_integral(spec, n, depth, method, seed, samples):
    """L_n by the per-n formula: its own grid, P_n, and P_depth continued
    from P_n factor by factor."""
    nodes = 8 * spec.freqs.prefix_sum(depth)
    grid = 2.0 * math.pi * np.arange(nodes) / nodes
    p_n = eval_partial_product(spec, n, grid)
    p_depth = p_n.copy()
    for j in range(n + 1, depth + 1):
        r = spec.coeffs.moduli[j]
        if r:
            p_depth *= 1.0 + r * np.cos(spec.freqs.values[j] * grid + spec.coeffs.phases[j])
    log_p = np.log(np.clip(p_n, 1e-30, None))
    norm = math.log(spec.freqs.values[n])
    if method == "quadrature":
        return float(np.mean(log_p * p_depth)) / norm
    cdf = np.cumsum(p_depth)
    cdf /= cdf[-1]
    idx = np.searchsorted(cdf, np.random.default_rng(seed).random(samples), side="left")
    return float(np.mean(log_p[idx])) / norm


@pytest.mark.parametrize("method", ["quadrature", "monte_carlo"])
def test_dimension_bounds_match_per_n_reference_bit_for_bit(method):
    rng = np.random.default_rng(303)
    spec = random_spec(rng, count=8)
    moduli = list(spec.coeffs.moduli)
    moduli[3] = 0.0  # a factor 1 between n and depth
    spec = RieszSpec(spec.freqs, CoefficientSequence(tuple(moduli), spec.coeffs.phases))
    # sample counts around the sorted blocks of SAMPLE_BLOCK = 2^16 keys
    for samples in (50_000, 1, 2 ** 16 - 1, 2 ** 16 + 1, 3 * 2 ** 16 + 7):
        report = dimension_bounds(spec, range(1, 5), 7, method, seed=11, samples=samples)
        assert report.l_values == tuple(
            (n, reference_log_integral(spec, n, 7, method, 11, samples)) for n in range(1, 5))
        if method == "quadrature":
            break


@pytest.mark.parametrize("method", ["quadrature", "monte_carlo"])
def test_dimension_integral_matches_per_n_reference_bit_for_bit(method):
    rng = np.random.default_rng(307)
    spec = random_spec(rng, count=9)
    for n in (1, 3, 5):
        assert dimension_integral(spec, n, 8, method, seed=7, samples=70_000) == (
            reference_log_integral(spec, n, 8, method, 7, 70_000))


@pytest.mark.parametrize("parts", [1, 2, 3])
@pytest.mark.parametrize("method", ["quadrature", "monte_carlo"])
def test_dimension_bounds_split_over_cpus_match_reference_bit_for_bit(monkeypatch, method,
                                                                      parts):
    monkeypatch.setattr(core, "_cpus", lambda: parts)
    spec = random_spec(np.random.default_rng(311), count=8)
    samples = 3 * analysis.SAMPLE_BLOCK + 7
    # grid nodes and samples both give every part at least SPLIT_MIN elements
    assert min(8 * spec.freqs.prefix_sum(7), samples) >= 3 * core.SPLIT_MIN
    report = dimension_bounds(spec, (4, 1, 2, 4), 7, method, seed=13, samples=samples)
    assert report.l_values == tuple(
        (n, reference_log_integral(spec, n, 7, method, 13, samples)) for n in (4, 1, 2, 4))


def test_dimension_bounds_refuse_the_smallest_clipped_n(monkeypatch):
    # with the log floor at 1e-6, P_1 clips below MAX_CLIPPED_FRACTION of the
    # nodes and P_2, P_3 above it
    monkeypatch.setattr(analysis, "LOG_CLIP", 1e-6)
    spec = geometric_spec(4, 7)
    nodes = 8 * spec.freqs.prefix_sum(6)
    grid = TWO_PI * np.arange(nodes) / nodes
    clipped = [int(np.count_nonzero(eval_partial_product(spec, n, grid) < 1e-6))
               for n in range(4)]
    assert clipped[1] < analysis.MAX_CLIPPED_FRACTION * nodes <= min(clipped[2:])
    with pytest.raises(ValidationError, match=f"^{clipped[2]} of {nodes} nodes clipped"):
        dimension_bounds(spec, (3, 1, 2), 6)


@pytest.mark.parametrize("parts", [1, 2, 3])
def test_inverse_cdf_in_parts_matches_searchsorted(monkeypatch, parts):
    monkeypatch.setattr(core, "_cpus", lambda: parts)
    rng = np.random.default_rng(17)
    cdf = np.cumsum(rng.random(5000))
    cdf /= cdf[-1]
    keys = rng.random(3 * analysis.SAMPLE_BLOCK + 5)
    keys[::97] = cdf[rng.integers(0, cdf.size, keys[::97].size)]  # ties search left
    keys[1] = keys[7] = 0.0
    expected = np.searchsorted(cdf, keys, side="left")
    idx = analysis._inverse_cdf(cdf, keys.copy())
    assert idx.dtype == np.int64 and np.array_equal(idx, expected)


# ---------------------------------------------------------------------------
# transfer constants
# ---------------------------------------------------------------------------


def test_holder_transfer_lebesgue_constants():
    spec = geometric_spec(4, 7, r=0.0)
    t_grid = TWO_PI * np.arange(16) / 16
    s_grid = [2.0 ** -k for k in range(2, 9)]
    c, c_prime = holder_transfer_check(spec, 1.0, range(2, 5), t_grid, s_grid, 6)
    assert abs(c - 1 / math.pi) < 1e-12
    assert abs(c_prime - 1.0) < 1e-12


def test_holder_transfer_ratio_stable_across_specs():
    rng = np.random.default_rng(103)
    t_grid = TWO_PI * np.arange(48) / 48
    s_grid = [2.0 ** -k for k in range(2, 11)]
    ratios = []
    for _ in range(10):
        spec = random_spec(rng, count=7)
        c, c_prime = holder_transfer_check(spec, 0.8, range(2, 6), t_grid,
                                           s_grid, 6)
        ratios.append(c_prime / c)
    assert max(ratios) / min(ratios) < 2.0


def test_holder_transfer_detects_infeasible_beta():
    spec = geometric_spec(4, 8, r=0.5)
    t_grid = TWO_PI * np.arange(16) / 16
    shallow = [2.0 ** -k for k in range(2, 5)]
    deep = [2.0 ** -k for k in range(2, 13)]
    c_shallow, _ = holder_transfer_check(spec, 1.5, range(2, 5), t_grid, shallow, 7)
    c_deep, _ = holder_transfer_check(spec, 1.5, range(2, 5), t_grid, deep, 7)
    assert c_deep > 4.0 * c_shallow  # beta > 1 cannot hold as s -> 0


def test_holder_transfer_constants_match_per_pair_and_per_n_references():
    rng = np.random.default_rng(109)
    spec = random_spec(rng, count=8)
    t_grid = rng.uniform(-TWO_PI, TWO_PI, 7).tolist()
    s_grid = [2.0 ** -k for k in range(1, 10)]
    n_range, beta = (5, 2, 7, 2), 0.7
    c, c_prime = holder_transfer_check(spec, beta, n_range, t_grid, s_grid, 6)
    assert c == max(interval_measure(spec, 6, t, s) / s ** beta
                    for t in t_grid for s in s_grid)
    assert c_prime == max(float(np.max(eval_partial_product(spec, n, np.array(t_grid))))
                          / spec.freqs.values[n] ** (1.0 - beta) for n in n_range)


@pytest.mark.parametrize("empty", ["n_range", "t_grid", "s_grid"])
def test_holder_transfer_names_an_empty_argument(empty):
    args = {"n_range": range(2, 5), "t_grid": [0.0, 1.0], "s_grid": [0.25], empty: []}
    with pytest.raises(ValidationError, match=f"^{empty} is empty$") as raised:
        holder_transfer_check(geometric_spec(4, 7, r=0.5), 0.8, depth=5, **args)
    assert raised.value.condition == empty


def test_holder_transfer_requires_strict_lacunarity():
    triadic = geometric_spec(3, 6, r=0.5)
    with pytest.raises(RegimeError):
        holder_transfer_check(triadic, 0.8, range(2, 4), [0.0], [0.25], 5)
