"""Classification criteria, series evidence, and the divergence witness.

Oracles: harmonic and geometric partial sums in closed form, the
antiderivative of the radial metric factor, and the Abel-Dini bounds
computed directly from the running sums.
"""

import math
import re

import numpy as np
import pytest

from rieszprod import (
    CapError,
    CoefficientSequence,
    FrequencySequence,
    RieszSpec,
    TailDeclarations,
    ValidationError,
    build_divergence_witness,
    centered_series_partial_sums,
    classify_pair,
    disc_metric_distance,
    eval_partial_product,
    series_gap_l2,
    series_gap_weighted,
)

TWO_PI = 2 * math.pi


def spec_over(freqs, values):
    return RieszSpec(freqs, CoefficientSequence.from_complex(values))


def harmonic_pair(count):
    """|a_j - b_j| = 1/sqrt(j+1): the l2 gap series is harmonic."""
    a = [0.0] * count
    b = [1 / math.sqrt(j + 1) for j in range(count)]
    return a, b


# ---------------------------------------------------------------------------
# series evidence
# ---------------------------------------------------------------------------


def test_series_l2_zero_for_equal_sequences():
    cs = CoefficientSequence.constant(0.5, 0.3, 10)
    ev = series_gap_l2(cs, cs, 10)
    assert ev.partial_sums == (0.0,) * 10


def test_series_l2_harmonic_partial_sums():
    a, b = harmonic_pair(500)
    ev = series_gap_l2(CoefficientSequence.from_complex(a),
                       CoefficientSequence.from_complex(b), 500,
                       declared_tail="divergent")
    harmonic = np.cumsum([1.0 / (j + 1) for j in range(500)])
    assert np.max(np.abs(np.array(ev.partial_sums) - harmonic)) < 1e-10
    assert ev.declared_tail == "divergent"
    assert ev.numeric_trend > 0


def test_series_l2_geometric_limit():
    a = [0.0] * 40
    b = [2.0 ** -j for j in range(40)]
    ev = series_gap_l2(CoefficientSequence.from_complex(a),
                       CoefficientSequence.from_complex(b), 40)
    assert abs(ev.partial_sums[-1] - 4.0 / 3.0) < 1e-10


def test_series_weighted_with_half_moduli():
    count = 40
    a = [0.5] * count
    b = [0.5 + 2.0 ** -j for j in range(count)]  # gap 2^-j, weight 1/(1-0.5) = 2
    ev = series_gap_weighted(CoefficientSequence.from_complex(a),
                             CoefficientSequence.from_complex(b), count)
    assert abs(ev.partial_sums[-1] - 2 * 4.0 / 3.0) < 1e-10


def test_series_weighted_rejects_unit_modulus():
    a = [0.5] * 6 + [1.0] + [0.5] * 3
    b = [0.4] * 10
    with pytest.raises(ValidationError) as err:
        series_gap_weighted(CoefficientSequence.from_complex(a),
                            CoefficientSequence.from_complex(b), 10)
    assert err.value.index == 6


def test_series_evidence_requires_monotone_sums():
    with pytest.raises(ValidationError):
        from rieszprod import SeriesEvidence
        SeriesEvidence("bad", (1.0, 0.5))


# ---------------------------------------------------------------------------
# disc metric
# ---------------------------------------------------------------------------


def test_disc_metric_basic_values():
    assert disc_metric_distance(0.3 + 0.4j, 0.3 + 0.4j) == 0.0
    # radial path from r=1 to r=0 at fixed phase: (4/3) (1-r)^{3/4} swept fully
    assert abs(disc_metric_distance(1.0, 0.0) - 4.0 / 3.0) < 1e-12


def test_disc_metric_symmetry_random():
    rng = np.random.default_rng(11)
    for _ in range(1000):
        za = rng.uniform(0, 1) * np.exp(1j * rng.uniform(0, TWO_PI))
        zb = rng.uniform(0, 1) * np.exp(1j * rng.uniform(0, TWO_PI))
        assert disc_metric_distance(za, zb) == disc_metric_distance(zb, za)


def test_disc_metric_angular_shortest_arc():
    a = 0.5 * np.exp(1j * 0.1)
    b = 0.5 * np.exp(1j * (TWO_PI - 0.1))
    assert abs(disc_metric_distance(a, b) - 0.2) < 1e-12


def test_disc_metric_rejects_modulus_above_one():
    with pytest.raises(ValidationError):
        disc_metric_distance(1.5, 0.2)


# ---------------------------------------------------------------------------
# classifier
# ---------------------------------------------------------------------------


def test_classify_equal_sequences_trivially_equivalent():
    freqs = FrequencySequence.geometric(4, 8)
    spec = spec_over(freqs, [0.5 * np.exp(1j * j) for j in range(8)])
    verdict = classify_pair(spec, spec)
    assert verdict.outcome == "equivalent"
    assert verdict.criterion == "trivial_equal"


def test_classify_divergent_l2_gap_is_singular():
    freqs = FrequencySequence.geometric(4, 64)
    a, b = harmonic_pair(64)
    verdict = classify_pair(spec_over(freqs, a), spec_over(freqs, b),
                            TailDeclarations(l2_gap="divergent"))
    assert verdict.outcome == "mutually_singular"
    assert verdict.criterion == "l2_gap_divergent"
    assert dict(verdict.evidence)["l2_gap"].declared_tail == "divergent"


def test_classify_equal_moduli_convergent_gap_is_equivalent():
    freqs = FrequencySequence.geometric(4, 32)
    a = [0.5] * 32
    b = [0.5 * np.exp(1j * 2.0 ** -j) for j in range(32)]
    verdict = classify_pair(spec_over(freqs, a), spec_over(freqs, b),
                            TailDeclarations(l2_gap="convergent"))
    assert verdict.outcome == "equivalent"
    assert verdict.criterion == "equal_moduli_l2_gap_convergent"


def test_classify_weighted_gap_on_ratio4_frequencies():
    freqs = FrequencySequence.geometric(4, 32)
    a = [0.5] * 32
    b = [0.5 + 4.0 ** -j * 0.1 for j in range(32)]  # moduli differ
    tails = TailDeclarations(l2_gap="convergent", weighted_gap_ab="convergent")
    verdict = classify_pair(spec_over(freqs, a), spec_over(freqs, b), tails)
    assert verdict.outcome == "equivalent"
    assert verdict.criterion == "weighted_l2_gap_convergent"


def test_classify_weighted_gap_requires_ratio4_frequencies():
    freqs = FrequencySequence.geometric(5, 32)
    a = [0.5] * 32
    b = [0.5 + 4.0 ** -j * 0.1 for j in range(32)]
    tails = TailDeclarations(l2_gap="convergent", weighted_gap_ab="convergent")
    verdict = classify_pair(spec_over(freqs, a), spec_over(freqs, b), tails)
    assert verdict.outcome == "unknown"


def test_classify_disc_metric_rule_needs_super_lacunarity():
    # lambda_j = 4^(j^2): ratios 4^(2j+1), sum (lambda_j/lambda_{j+1})^2 < inf
    values = tuple(4 ** (j * j) for j in range(6))
    freqs = FrequencySequence(values)
    a = [0.3] * 6
    b = [0.3 + 0.01 * 2.0 ** -j for j in range(6)]
    tails = TailDeclarations(l2_gap="convergent", disc_metric_gap="convergent",
                             lacunarity="convergent")
    verdict = classify_pair(spec_over(freqs, a), spec_over(freqs, b), tails)
    assert verdict.outcome == "equivalent"
    assert verdict.criterion == "disc_metric_gap_convergent"
    # without the lacunarity declaration the rule must not fire
    tails2 = TailDeclarations(l2_gap="convergent", disc_metric_gap="convergent")
    assert classify_pair(spec_over(freqs, a), spec_over(freqs, b),
                         tails2).outcome == "unknown"


def test_classify_unknown_without_declarations():
    freqs = FrequencySequence.geometric(4, 16)
    a, b = harmonic_pair(16)
    verdict = classify_pair(spec_over(freqs, a), spec_over(freqs, b))
    assert verdict.outcome == "unknown"
    assert verdict.criterion is None


def test_classify_symmetric_in_the_pair():
    freqs = FrequencySequence.geometric(4, 24)
    rng = np.random.default_rng(13)
    a = [0.5 * np.exp(1j * x) for x in rng.uniform(0, TWO_PI, 24)]
    b = [0.5 * np.exp(1j * x) for x in rng.uniform(0, TWO_PI, 24)]
    for tails in (TailDeclarations(l2_gap="divergent"),
                  TailDeclarations(l2_gap="convergent")):
        va = classify_pair(spec_over(freqs, a), spec_over(freqs, b), tails)
        vb = classify_pair(spec_over(freqs, b), spec_over(freqs, a), tails)
        assert va.outcome == vb.outcome and va.criterion == vb.criterion


def test_classify_weighted_fires_in_either_orientation():
    freqs = FrequencySequence.geometric(4, 16)
    a = [0.99] * 16        # weights blow up on the a side
    b = [0.5 + 4.0 ** -j * 0.01 for j in range(16)]
    tails = TailDeclarations(weighted_gap_ba="convergent")
    for first, second in ((a, b), (b, a)):
        verdict = classify_pair(spec_over(freqs, first), spec_over(freqs, second),
                                tails)
        assert verdict.criterion == "weighted_l2_gap_convergent"


def test_classify_rejects_mismatched_frequencies():
    a = spec_over(FrequencySequence.geometric(4, 6), [0.5] * 6)
    b = spec_over(FrequencySequence.geometric(5, 6), [0.5] * 6)
    with pytest.raises(ValidationError):
        classify_pair(a, b)


def test_classify_deterministic():
    freqs = FrequencySequence.geometric(4, 16)
    a, b = harmonic_pair(16)
    tails = TailDeclarations(l2_gap="divergent")
    first = classify_pair(spec_over(freqs, a), spec_over(freqs, b), tails)
    second = classify_pair(spec_over(freqs, a), spec_over(freqs, b), tails)
    assert first.outcome == second.outcome and first.criterion == second.criterion


# ---------------------------------------------------------------------------
# divergence witness
# ---------------------------------------------------------------------------


def test_witness_terms_nonnegative_and_l2_bounded():
    rng = np.random.default_rng(17)
    count = 200
    a = CoefficientSequence.from_complex(
        rng.uniform(0, 1, count) * np.exp(1j * rng.uniform(0, TWO_PI, count)))
    b = CoefficientSequence.from_complex(
        rng.uniform(0, 1, count) * np.exp(1j * rng.uniform(0, TWO_PI, count)))
    witness = build_divergence_witness(a, b, count)
    inner = np.array(witness.partial_inner)
    assert np.all(np.diff(inner) >= -1e-15)  # every term >= 0
    sigma0 = abs(a.value(0) - b.value(0)) ** 2
    assert witness.l2_norm_partial[-1] < 2.0 / sigma0 + 1e-12


def test_witness_abel_dini_divergence_for_harmonic_gap():
    count = 1_000_000
    gaps = 1.0 / np.sqrt(np.arange(1, count + 1))
    sigma = np.cumsum(gaps ** 2)
    inner = np.cumsum(gaps ** 2 / sigma)
    l2 = np.cumsum(gaps ** 2 / sigma ** 2)
    # monotone, grows by ~log log per decade, never stalls
    for lo, hi in ((10 ** 3, 10 ** 4), (10 ** 4, 10 ** 5), (10 ** 5, 10 ** 6)):
        assert inner[hi - 1] - inner[lo - 1] > 0.15
    assert l2[-1] < 2.0 / sigma[0]
    # the l2 trace is Cauchy at the analytic rate: tail past K is <= 1/sigma_K
    for k in (10 ** 3, 10 ** 4, 10 ** 5):
        assert l2[-1] - l2[k - 1] <= 1.0 / sigma[k - 1] + 1e-15
    # the library path agrees with this oracle on a prefix
    a = CoefficientSequence.from_complex([0.0] * 2000)
    b = CoefficientSequence.from_complex(gaps[:2000])
    witness = build_divergence_witness(a, b, 2000)
    assert abs(witness.partial_inner[-1] - inner[1999]) < 1e-9
    assert abs(witness.l2_norm_partial[-1] - l2[1999]) < 1e-9


def test_witness_rejects_identical_sequences():
    cs = CoefficientSequence.constant(0.4, 0.1, 8)
    with pytest.raises(ValidationError):
        build_divergence_witness(cs, cs, 8)


def test_witness_leading_zero_gaps_contribute_nothing():
    a = CoefficientSequence.from_complex([0.5, 0.5, 0.5, 0.7])
    b = CoefficientSequence.from_complex([0.5, 0.5, 0.2, 0.1])
    witness = build_divergence_witness(a, b, 4)
    assert witness.c[0] == 0j and witness.c[1] == 0j
    assert witness.partial_inner[1] == 0.0


def test_centered_series_separate_at_common_point_for_singular_pairs():
    # demonstration harness: for singular pairs the two centered series built
    # from the same witness c cannot both settle at any point -- their
    # partial sums differ by exactly half the inner-product trace, which
    # grows without stalling
    rng = np.random.default_rng(19)
    count = 25  # the most base-4 frequencies with phases lambda_j*t below 2^52 for t < 2pi
    freqs = FrequencySequence.geometric(4, count)
    for trial in range(10):
        phases = rng.uniform(0, TWO_PI, count)
        gaps = 1.0 / np.sqrt(np.arange(1, count + 1))
        a_vals = (gaps / 2) * np.exp(1j * phases)
        b_vals = -a_vals  # |a_j - b_j| = 1/sqrt(j+1)
        spec_a = spec_over(freqs, a_vals)
        spec_b = spec_over(freqs, b_vals)
        witness = build_divergence_witness(spec_a.coeffs, spec_b.coeffs, count)
        t = float(rng.uniform(0, TWO_PI))
        sums_a = centered_series_partial_sums(spec_a, witness.c, t)
        sums_b = centered_series_partial_sums(spec_b, witness.c, t)
        separation = np.abs((sums_b - sums_a).real)
        inner = np.array(witness.partial_inner)
        assert np.max(np.abs(separation - inner / 2)) < 1e-10
        assert separation[-1] > separation[len(separation) // 10] + 0.1


def test_centered_series_partial_sums_shape():
    freqs = FrequencySequence.geometric(4, 8)
    spec = spec_over(freqs, [0.5] * 8)
    sums = centered_series_partial_sums(spec, [0.1] * 8, 0.7)
    assert sums.shape == (8,)
    explicit = sum(0.1 * (np.exp(1j * 4 ** j * 0.7) - 0.25) for j in range(8))
    assert abs(sums[-1] - explicit) < 1e-12


def test_centered_series_refuses_phases_that_eval_refuses():
    spec = spec_over(FrequencySequence((1, 10 ** 20)), [0.5, 0.5])
    refusal = f"factor 1 has lambda_j = {10 ** 20} and max |t| = 1.0"
    with pytest.raises(CapError, match=re.escape(refusal)):
        centered_series_partial_sums(spec, [0.1, 0.1], 1.0)
    with pytest.raises(CapError):
        eval_partial_product(spec, 1, 1.0)
    assert centered_series_partial_sums(spec, [0.1], 1.0).shape == (1,)  # lambda_0 * t is fine


def test_centered_series_refuses_frequencies_beyond_float64():
    spec = spec_over(FrequencySequence((1, 10 ** 400)), [0.5, 0.5])
    refusal = f"factor 1 has lambda_j = {10 ** 400} and max |t| = 0.0"
    with pytest.raises(CapError, match=re.escape(refusal)):
        centered_series_partial_sums(spec, [0.1, 0.1], 0.0)


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
def test_centered_series_rejects_a_non_finite_point(t):
    spec = spec_over(FrequencySequence.geometric(4, 3), [0.5] * 3)
    with pytest.raises(ValidationError, match="points must be finite"):
        centered_series_partial_sums(spec, [0.1], t)


def test_centered_series_rejects_more_terms_than_frequencies():
    spec = spec_over(FrequencySequence.geometric(4, 3), [0.5] * 3)
    with pytest.raises(ValidationError, match="c has 4 terms but the spec only 3 frequencies"):
        centered_series_partial_sums(spec, [0.1] * 4, 0.5)
