"""Mutual singularity vs equivalence of two Riesz product measures.

For coefficient sequences a and b over the same lacunary frequency set the
implemented criteria are:

* divergence of sum |a_j - b_j|^2          ->  mutually singular;
* (geometric ratio-4 frequencies) convergence of the weighted series
  sum |a_j - b_j|^2 / (1 - |a_j|)          ->  equivalent;
* equal moduli |a_j| = |b_j| plus convergence of sum |a_j - b_j|^2
                                           ->  equivalent;
* convergence of sum d(a_j, b_j)^2 in the disc metric
  ds^2 = dtheta^2 + (1-r)^{-1/2} dr^2 together with super-lacunarity
  sum (lambda_j / lambda_{j+1})^2 < inf    ->  equivalent.

Numerical partial sums alone never certify a tail: the caller declares the
tail behavior of each rule-generated series, and only declared tails fire a
verdict.  Soundness over convenience.

The divergence witness of the singularity proof is constructed explicitly:
c_j = (a_j - b_j) / sigma_j with sigma_j the running sum of |a_i - b_i|^2
gives nonnegative inner-product terms whose partial sums diverge while
sum |c_j|^2 stays finite.
"""

from __future__ import annotations

import itertools
import math
import sys

from . import _lazynp as np
from .core import (
    LACUNARY3,
    CapError,
    CoefficientSequence,
    Record,
    RegimeError,
    RieszSpec,
    ValidationError,
    _refuse_factor_phases,
)

TAIL_DIVERGENT = "divergent"
TAIL_CONVERGENT = "convergent"
TAIL_UNKNOWN = "unknown"
TAILS = (TAIL_DIVERGENT, TAIL_CONVERGENT, TAIL_UNKNOWN)

OUTCOME_SINGULAR = "mutually_singular"
OUTCOME_EQUIVALENT = "equivalent"
OUTCOME_UNKNOWN = "unknown"

CRITERION_TRIVIAL = "trivial_equal"
CRITERION_L2_DIVERGENT = "l2_gap_divergent"
CRITERION_WEIGHTED = "weighted_l2_gap_convergent"
CRITERION_EQUAL_MODULI = "equal_moduli_l2_gap_convergent"
CRITERION_DISC_METRIC = "disc_metric_gap_convergent"


class SeriesEvidence(Record):
    """Partial sums of a nonnegative series plus the declared tail behavior."""

    name: str
    partial_sums: tuple[float, ...]
    declared_tail: str = TAIL_UNKNOWN

    def __post_init__(self):
        if self.declared_tail not in TAILS:
            raise ValidationError(f"unknown tail declaration {self.declared_tail!r}",
                                  "tail")
        sums = tuple(float(x) for x in self.partial_sums)
        for i in range(len(sums) - 1):
            if sums[i + 1] < sums[i] - 1e-15:
                raise ValidationError("partial sums must be nondecreasing", "monotone", i)
        object.__setattr__(self, "partial_sums", sums)

    @property
    def numeric_trend(self) -> float:
        """Mean per-term increment over the last decade of indices."""
        n = len(self.partial_sums)
        if n < 2:
            return 0.0
        k = max(0, n // 10 - 1)
        span = (n - 1) - k
        if span <= 0:
            k, span = 0, n - 1
        return (self.partial_sums[-1] - self.partial_sums[k]) / span


class TailDeclarations(Record):
    """Caller-supplied tail behavior for the rule-generated series."""

    l2_gap: str = TAIL_UNKNOWN
    weighted_gap_ab: str = TAIL_UNKNOWN
    weighted_gap_ba: str = TAIL_UNKNOWN
    disc_metric_gap: str = TAIL_UNKNOWN
    lacunarity: str = TAIL_UNKNOWN

    def __post_init__(self):
        for name in self._fields:
            if getattr(self, name) not in TAILS:
                raise ValidationError(
                    f"unknown tail declaration for {name}: {getattr(self, name)!r}",
                    "tail")


class Verdict(Record):
    outcome: str
    criterion: str | None
    evidence: tuple[tuple[str, SeriesEvidence], ...] = ()

    def __post_init__(self):
        if (self.outcome == OUTCOME_UNKNOWN) != (self.criterion is None):
            raise ValidationError(
                "outcome is unknown exactly when no criterion fired", "verdict")


class DivergenceWitness(Record):
    """The explicit sequence driving the singularity proof."""

    c: tuple[complex, ...]
    partial_inner: tuple[float, ...]
    l2_norm_partial: tuple[float, ...]


def _check_lengths(a: CoefficientSequence, b: CoefficientSequence,
                   terms: int) -> int:
    if len(a) != len(b):
        raise ValidationError(
            f"coefficient sequences differ in length: {len(a)} vs {len(b)}",
            "length")
    if terms < 1:
        raise ValidationError(f"terms must be >= 1, got {terms}", "length")
    if terms > len(a):
        raise ValidationError(
            f"requested {terms} terms but sequences have {len(a)}", "length")
    return terms


def series_gap_l2(a: CoefficientSequence, b: CoefficientSequence,
                  terms: int, declared_tail: str = TAIL_UNKNOWN) -> SeriesEvidence:
    """Partial sums of |a_j - b_j|^2."""
    terms = _check_lengths(a, b, terms)
    gaps = (abs(a.value(j) - b.value(j)) ** 2 for j in range(terms))
    return SeriesEvidence("l2_gap", tuple(itertools.accumulate(gaps)), declared_tail)


def series_gap_weighted(a: CoefficientSequence, b: CoefficientSequence,
                        terms: int,
                        declared_tail: str = TAIL_UNKNOWN) -> SeriesEvidence:
    """Partial sums of |a_j - b_j|^2 / (1 - |a_j|); needs every |a_j| < 1."""
    terms = _check_lengths(a, b, terms)
    for j in range(terms):
        if a.moduli[j] >= 1.0:
            raise ValidationError(
                f"weighted gap series undefined: |a_j| = 1 at index {j}",
                "unit_modulus", j)
    vals = (abs(a.value(j) - b.value(j)) ** 2 / (1.0 - a.moduli[j]) for j in range(terms))
    return SeriesEvidence("weighted_gap", tuple(itertools.accumulate(vals)), declared_tail)


def disc_metric_distance(a: complex, b: complex) -> float:
    """Coordinate-path length between disc points under the metric
    ds^2 = dtheta^2 + (1-r)^{-1/2} dr^2.

    Shortest angular difference (phases canonicalized to 0 at r = 0) plus
    the radial antiderivative (4/3) |(1-r_a)^{3/4} - (1-r_b)^{3/4}|; within
    a bounded factor of the geodesic, which is all the convergence of
    sum d^2 can see.
    """
    a, b = complex(a), complex(b)
    ra, rb = abs(a), abs(b)
    if ra > 1.0 + 1e-12 or rb > 1.0 + 1e-12:
        raise ValidationError(f"moduli must be <= 1, got {ra}, {rb}", "modulus")
    ra, rb = min(ra, 1.0), min(rb, 1.0)
    tha = math.atan2(a.imag, a.real) % (2 * math.pi) if ra > 0 else 0.0
    thb = math.atan2(b.imag, b.real) % (2 * math.pi) if rb > 0 else 0.0
    dth = abs(tha - thb)
    dth = min(dth, 2 * math.pi - dth)
    radial = (4.0 / 3.0) * abs((1.0 - ra) ** 0.75 - (1.0 - rb) ** 0.75)
    return dth + radial


def _series_disc_metric(a: CoefficientSequence, b: CoefficientSequence,
                        terms: int, declared_tail: str) -> SeriesEvidence:
    vals = (disc_metric_distance(a.value(j), b.value(j)) ** 2 for j in range(terms))
    return SeriesEvidence("disc_metric_gap", tuple(itertools.accumulate(vals)), declared_tail)


def _series_lacunarity(freqs, terms: int, declared_tail: str) -> SeriesEvidence:
    vals = ((freqs.values[j] / freqs.values[j + 1]) ** 2
            for j in range(min(terms, len(freqs) - 1)))
    return SeriesEvidence("lacunarity", tuple(itertools.accumulate(vals)), declared_tail)


def _is_ratio4_geometric(freqs) -> bool:
    return freqs.is_geometric() == 4 and freqs.values[0] == 1


def classify_pair(spec_a: RieszSpec, spec_b: RieszSpec,
                  tails: TailDeclarations | None = None) -> Verdict:
    """Fire the first applicable criterion on a pair sharing frequencies.

    Order: identical coefficients; divergent l2 gap (singular); ratio-4
    geometric frequencies with a convergent weighted gap in either
    orientation (equivalent); equal moduli with a convergent l2 gap
    (equivalent); convergent disc-metric gap with declared super-lacunarity
    (equivalent).  Tail declarations drive every series verdict; numeric
    trends alone never fire a rule.
    """
    tails = tails or TailDeclarations()
    if spec_a.regime != LACUNARY3 or spec_b.regime != LACUNARY3:
        raise RegimeError("classification requires the lacunary3 regime", "regime")
    if spec_a.freqs != spec_b.freqs:
        raise ValidationError("specs must share the same frequency sequence",
                              "frequencies")
    a, b = spec_a.coeffs, spec_b.coeffs
    terms = len(a)
    evidence: list[tuple[str, SeriesEvidence]] = []

    if a == b:
        return Verdict(OUTCOME_EQUIVALENT, CRITERION_TRIVIAL)

    l2 = series_gap_l2(a, b, terms, tails.l2_gap)
    evidence.append(("l2_gap", l2))
    if tails.l2_gap == TAIL_DIVERGENT:
        return Verdict(OUTCOME_SINGULAR, CRITERION_L2_DIVERGENT, tuple(evidence))

    if _is_ratio4_geometric(spec_a.freqs):
        for first, second, tail, tag in (
                (a, b, tails.weighted_gap_ab, "weighted_gap_ab"),
                (b, a, tails.weighted_gap_ba, "weighted_gap_ba")):
            if tail != TAIL_CONVERGENT:
                continue
            weighted = series_gap_weighted(first, second, terms, tail)
            evidence.append((tag, weighted))
            return Verdict(OUTCOME_EQUIVALENT, CRITERION_WEIGHTED, tuple(evidence))

    if a.moduli == b.moduli and tails.l2_gap == TAIL_CONVERGENT:
        return Verdict(OUTCOME_EQUIVALENT, CRITERION_EQUAL_MODULI, tuple(evidence))

    if (tails.disc_metric_gap == TAIL_CONVERGENT
            and tails.lacunarity == TAIL_CONVERGENT):
        evidence.append(("disc_metric_gap",
                         _series_disc_metric(a, b, terms, tails.disc_metric_gap)))
        evidence.append(("lacunarity",
                         _series_lacunarity(spec_a.freqs, terms, tails.lacunarity)))
        return Verdict(OUTCOME_EQUIVALENT, CRITERION_DISC_METRIC, tuple(evidence))

    return Verdict(OUTCOME_UNKNOWN, None, tuple(evidence))


def build_divergence_witness(a: CoefficientSequence, b: CoefficientSequence,
                             terms: int) -> DivergenceWitness:
    """c_j = (a_j - b_j) / sigma_j with sigma_j = sum_{i<=j} |a_i - b_i|^2.

    Then c_j (conj(a_j) - conj(b_j)) = |a_j - b_j|^2 / sigma_j >= 0, the
    inner-product series inherits divergence from the defining series, and
    sum |c_j|^2 <= 2 / sigma_0' (first nonzero sigma) stays finite.
    Leading identical coefficients contribute c_j = 0.  A first nonzero gap
    whose square is not a normal float64 (subnormal or 0) is refused: c_j
    would be inexact, infinite in l2 or 0.
    """
    terms = _check_lengths(a, b, terms)
    gaps = [a.value(j) - b.value(j) for j in range(terms)]
    if all(g == 0 for g in gaps):
        raise ValidationError(
            "sequences are identical: no divergence witness exists", "identical")
    c: list[complex] = []
    inner: list[float] = []
    l2: list[float] = []
    sigma = 0.0
    inner_total = 0.0
    l2_total = 0.0
    for j, g in enumerate(gaps):
        sigma += (g * g.conjugate()).real
        if g != 0 and sigma < sys.float_info.min:
            raise CapError(
                f"divergence witness at j = {j}: |a_j - b_j| = {abs(g)!r} gives sigma_j = "
                f"{sigma!r}, below float64's normal range (sigma_j = sum_(i<=j) |a_i - b_i|^2)")
        if sigma == 0.0:
            cj = 0j
        else:
            cj = g / sigma
        c.append(cj)
        inner_total += (cj * g.conjugate()).real
        l2_total += (cj * cj.conjugate()).real
        inner.append(inner_total)
        l2.append(l2_total)
    return DivergenceWitness(tuple(c), tuple(inner), tuple(l2))


def centered_series_partial_sums(spec: RieszSpec, c, t: float) -> np.ndarray:
    """Partial sums at the point t of sum_j c_j (e^{i lambda_j t} - conj(a_j)/2).

    Demonstration harness for the singularity mechanism: for a singular
    pair the two series built from the same c but the two coefficient
    sequences cannot both converge at any point, and the real parts of
    their partial sums separate without bound.
    """
    c = np.asarray([complex(x) for x in c])
    n = len(c)
    if n > len(spec.freqs):
        raise ValidationError(
            f"c has {n} terms but the spec only {len(spec.freqs)} frequencies", "c")
    _refuse_factor_phases(spec, range(n), abs(float(t)))
    lams = np.array(spec.freqs.values[:n], dtype=float)
    avals = np.array([spec.coefficient(j) for j in range(n)])
    terms = c * (np.exp(1j * lams * t) - avals.conjugate() / 2.0)
    return np.cumsum(terms)
