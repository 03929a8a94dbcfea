"""Dimension-related analysis of Riesz product measures.

Three independent routes to dimension information are implemented:

* the alpha-energy criterion  sum |c_n|^2 |n|^{alpha-1} < infinity, both as a
  direct sum over the expansion and as a band series (the coarse printed
  form and the exact Plancherel band masses are both exposed);
* the normalized logarithmic integral  (1/log lambda_n) int log P_n dmu,
  whose limsup/liminf bracket the Hausdorff dimensions of sets the measure
  charges (estimated to finite n by quadrature or seeded Monte Carlo);
* interval measures mu([t-s, t+s]) with an explicit Fourier-side upper
  bound, kernel smoothing identities, and local Holder exponents.

Everything works on the finite partial products; which truncation depth
feeds each estimate is an explicit argument, never a hidden global.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys

from . import _lazynp as np
from .core import (
    LACUNARY3,
    MAX_EXPANSION_DEPTH,
    CapError,
    Record,
    RegimeError,
    RieszSpec,
    SpectralGapError,
    TrigPolynomial,
    ValidationError,
    _check_depth,
    _check_grid,
    _frequency_dtype,
    _generator,
    _grid,
    _partial_products,
    _require_float_phases,
    _split,
    _support_bound,
    convolve_products,
    expand_partial_product,
)

VERDICT_CONVERGENT = "convergent"
VERDICT_DIVERGENT = "divergent"
VERDICT_UNDECIDED = "undecided"

RATIO_TOLERANCE = 1e-3
RATIO_WINDOW = 5

LOG_CLIP = 1e-30
MAX_CLIPPED_FRACTION = 1e-3
SAMPLE_BLOCK = 2 ** 16  # Monte Carlo keys searched per sorted block


class EnergyReport(Record):
    """Partial sums of an alpha-energy series and the verdict they support.

    ``terms`` and ``partial_sums`` are aligned with ``cutoffs``: for the
    direct variant the cutoffs are the distinct absolute frequencies, for
    the band variants the upper edge of each band.  The verdict follows the
    ratio rule described in ``series_verdict`` (never a false certificate).
    """

    alpha: float
    variant: str
    terms: tuple[float, ...]
    partial_sums: tuple[float, ...]
    cutoffs: tuple[int, ...]
    verdict: str
    rule: str = f"ratio of last {RATIO_WINDOW} terms vs 1, tolerance {RATIO_TOLERANCE}"

    @property
    def total(self) -> float:
        return self.partial_sums[-1] if self.partial_sums else 0.0


class DimensionReport(Record):
    """Finite-n proxies for the dimension bracket 1 - limsup/liminf L_n."""

    n_range: tuple[int, ...]
    l_values: tuple[tuple[int, float], ...]
    lower: float
    upper: float
    method: str
    clamped: bool
    lower_raw: float
    upper_raw: float


class HolderSample(Record):
    """log mu([t-s,t+s]) / log s over a ladder of admissible scales."""

    t: float
    scales: tuple[float, ...]
    ratios: tuple[float, ...]
    alpha_estimate: float
    excluded: tuple[tuple[float, str], ...]


def series_verdict(terms) -> str:
    """Ratio-test verdict on the tail of a nonnegative series.

    Looks at consecutive ratios over the last ``RATIO_WINDOW`` computed
    terms: all below 1 - ``RATIO_TOLERANCE`` is convergent, all above
    1 + ``RATIO_TOLERANCE`` is divergent, anything else (including too few
    terms) is undecided.  An identically zero tail is convergent.
    """
    terms = [float(t) for t in terms]
    if not terms:
        return VERDICT_CONVERGENT
    tail = terms[-RATIO_WINDOW:]
    if all(t == 0.0 for t in tail):
        return VERDICT_CONVERGENT
    if len(tail) < RATIO_WINDOW or any(t == 0.0 for t in tail):
        return VERDICT_UNDECIDED
    ratios = [tail[i + 1] / tail[i] for i in range(len(tail) - 1)]
    if all(r <= 1.0 - RATIO_TOLERANCE for r in ratios):
        return VERDICT_CONVERGENT
    if all(r >= 1.0 + RATIO_TOLERANCE for r in ratios):
        return VERDICT_DIVERGENT
    return VERDICT_UNDECIDED


def _check_alpha(alpha: float) -> None:
    if not 0.0 < alpha < 1.0:
        raise ValidationError(f"alpha must lie in (0,1), got {alpha}", "alpha")


def alpha_energy_direct(poly: TrigPolynomial, alpha: float,
                        cutoff: int) -> EnergyReport:
    """sum_{0<|m|<=cutoff} |c_m|^2 |m|^{alpha-1}, traced per distinct |m|."""
    _check_alpha(alpha)
    ms, cs = poly.arrays()
    am = np.abs(ms)
    keep = (am != 0) & (am <= cutoff)
    # |c|^2 as Python's (c * conj(c)).real rounds it, summed over +-m
    cutoffs, where = np.unique(am[keep], return_inverse=True)
    weights = np.bincount(where, weights=(cs.real * cs.real + cs.imag * cs.imag)[keep],
                          minlength=cutoffs.size)
    cutoffs = tuple(cutoffs.tolist())
    if cutoffs and cutoffs[-1] > sys.float_info.max:
        raise CapError(f"the energy weight |m|^(alpha-1) needs |m| in float64; "
                       f"|m| reaches {cutoffs[-1]}")
    terms = tuple(w * m ** (alpha - 1.0) for w, m in zip(weights.tolist(), cutoffs))
    return EnergyReport(alpha, "direct", terms, tuple(itertools.accumulate(terms)),
                        cutoffs, series_verdict(terms))


def _check_band(n: int, lam: int, top: int) -> None:
    """Refuse band n, whose energy weights f^(alpha-1) take frequencies f up
    to ``top``, once ``top`` is beyond float64."""
    if top > sys.float_info.max:
        raise CapError(f"the energy weights of band n={n} need frequencies in float64; "
                       f"lambda_n = {lam} and they reach {top}")


def alpha_energy_band_series(spec: RieszSpec, alpha: float, n_max: int,
                             variant: str = "band_exact") -> EnergyReport:
    """Band-by-band alpha-energy series for a lacunary3 spec.

    variant "band_paper": the coarse band masses
    term_n = lambda_n^{alpha-1} |a_n|^2 prod_{j<n} (1+|a_j|^2), i.e. the
    telescoped differences of prod (1+|a_j|^2); the ratio test reproduces
    the classical threshold q^{alpha-1}(1+a^2) < 1 for geometric
    frequencies and constant modulus, and an identically zero coefficient
    sequence gives the zero series.

    variant "band_exact": the exact energy contribution of band n,
    2 (r_n^2/4) sum_f w_f (lambda_n + f)^{alpha-1} over the squared spectrum
    w of the depth-(n-1) product; this matches the direct sum over the
    expansion termwise.
    """
    _check_alpha(alpha)
    if spec.regime != LACUNARY3:
        raise RegimeError("band series require the lacunary3 regime", "regime")
    _check_depth(spec, n_max, "n_max")
    if not math.isfinite(spec.freqs.ratio_max):
        raise ValidationError("band series need a finite ratio_max", "ratio_max")
    lams = spec.freqs.values
    moduli = spec.coeffs.moduli
    terms: list[float] = []
    cutoffs: list[int] = []
    if variant == "band_paper":
        prod = 1.0  # prod_{j<n} (1 + |a_j|^2)
        for n in range(n_max + 1):
            term = 0.0  # for a zero modulus; lambda_n may lie beyond float64 then
            if moduli[n] > 0.0:
                _check_band(n, lams[n], lams[n])
                term = lams[n] ** (alpha - 1.0) * moduli[n] ** 2 * prod
            terms.append(term)
            cutoffs.append(lams[n] + (spec.freqs.prefix_sum(n - 1) if n else 0))
            prod *= 1.0 + moduli[n] ** 2
    elif variant == "band_exact":
        if n_max > MAX_EXPANSION_DEPTH + 1:
            raise CapError(
                f"band_exact at n_max={n_max} needs the depth-{n_max - 1} spectrum "
                f"(3^{n_max} points); cap is n_max={MAX_EXPANSION_DEPTH + 1}")

        # the squared spectrum w of the depth-(n-1) product, laid out (F, F +
        # lambda_j, F - lambda_j) as np.sum adds a band
        freqs = np.zeros(1, dtype=_frequency_dtype(_support_bound(spec, n_max)))
        w = np.ones(1)
        for n in range(n_max + 1):
            cutoffs.append(lams[n] + (int(freqs.max()) if n else 0))
            term = 0.0  # for a zero modulus; lambda_n may not fit in int64 then
            if moduli[n] > 0.0:
                _check_band(n, lams[n], cutoffs[-1])
                q = moduli[n] ** 2 / 4.0
                term = 2.0 * q * float(
                    np.sum(w * (lams[n] + freqs).astype(float) ** (alpha - 1.0)))
                if n < n_max:
                    freqs = np.concatenate((freqs, freqs + lams[n], freqs - lams[n]))
                    w = np.concatenate((w, *(w * q,) * 2))  # w * q unnamed: a lower peak
            terms.append(term)
    else:
        raise ValidationError(f"unknown variant {variant!r}", "variant")
    return EnergyReport(alpha, variant, tuple(terms), tuple(itertools.accumulate(terms)),
                        tuple(cutoffs), series_verdict(terms))


def energy_dimension_bound(spec: RieszSpec, variant: str = "band_exact") -> float:
    """Dimension lower bound from the alpha-energy criterion.

    For geometric frequencies of ratio q and constant modulus r the
    threshold is closed form: 1 - log(1+r^2)/log q for the band_paper
    weights and 1 - log(1+r^2/2)/log q for the exact band masses.  For
    anything else the supremum of certifiably convergent alpha is located
    by bisection to 1e-4 on the verdicts of the band series up to
    n = min(last index, 12).
    """
    if variant not in ("band_paper", "band_exact"):
        raise ValidationError(f"unknown variant {variant!r}", "variant")
    q = spec.freqs.is_geometric()
    moduli = set(spec.coeffs.moduli)
    if q is not None and len(moduli) == 1:
        r = next(iter(moduli))
        if r == 0.0:
            return 1.0
        bump = 1.0 + r * r if variant == "band_paper" else 1.0 + r * r / 2.0
        return 1.0 - math.log(bump) / math.log(q)
    n_max = min(spec.last_index, 12)
    lo, hi = 1e-4, 1.0 - 1e-4

    def convergent(alpha: float) -> bool:
        report = alpha_energy_band_series(spec, alpha, n_max, variant)
        return report.verdict == VERDICT_CONVERGENT

    if not convergent(lo):
        return 0.0
    if convergent(hi):
        return 1.0
    while hi - lo > 1e-4:
        mid = 0.5 * (lo + hi)
        if convergent(mid):
            lo = mid
        else:
            hi = mid
    return lo


def vallee_poussin_kernel(plateau: int) -> TrigPolynomial:
    """Kernel with coefficient 1 on [-p, p], linear ramp to 0 at 2p.

    Equals 2 F_{2p} - F_p for Fejer kernels with coefficients (1 - |m|/n);
    mean value 1; reproduces any polynomial with spectrum inside [-p, p]
    under convolution.
    """
    p = int(plateau)
    if p < 1:
        raise ValidationError(f"plateau must be >= 1, got {p}", "plateau")
    return TrigPolynomial({m: complex(min(1.0, (2 * p - abs(m)) / p))
                           for m in range(-2 * p, 2 * p + 1)})


def smooth_by_vp(spec: RieszSpec, n: int, depth: int, t):
    """Convolve the depth-truncated product with the plateau-p kernel,
    p = sum_{i<=n} lambda_i, and evaluate at t.

    Requires the spectral gap lambda_{n+1} > 3p: then the kernel passes the
    first n+1 bands untouched and annihilates everything above, so the
    result equals the order-n partial product exactly, coefficient by
    coefficient.  Refused when the gap fails (the identity is not
    guaranteed there).
    """
    if spec.regime != LACUNARY3:
        raise RegimeError("kernel smoothing requires the lacunary3 regime", "regime")
    if not 0 <= n < depth <= spec.last_index:
        raise ValidationError(
            f"need 0 <= n < depth <= {spec.last_index}, got n={n}, depth={depth}",
            "index")
    p = spec.freqs.prefix_sum(n)
    if not spec.freqs.gap(n):
        raise SpectralGapError(
            f"gap predicate fails at n={n}: lambda_{n + 1}={spec.freqs.values[n + 1]}"
            f" must exceed 3 * {p}; the smoothing identity is not guaranteed",
            "spectral_gap", n)
    smoothed = convolve_products(vallee_poussin_kernel(p),
                                 expand_partial_product(spec, depth))
    return smoothed.evaluate(t)


@functools.lru_cache(maxsize=2)  # the mass's P_depth and the bound's P_N
def _centered(spec: RieszSpec, depth: int, t: float):
    """The nonzero frequencies m of P_depth as floats and Re(c_m e^{imt}):
    formed once per center for all the scales of ``interval_measure``."""
    ms, cs = expand_partial_product(spec, depth).arrays()
    nz = ms != 0
    m = ms[nz].astype(float)
    return m, (cs[nz] * np.exp(1j * m * t)).real


def interval_measure(spec: RieszSpec, depth: int, t: float, s: float) -> float:
    """Exact mass of [t-s, t+s] under the depth-truncated density
    (normalized so the full circle has mass 1).

    Termwise antiderivative of the sparse expansion:
    s/pi + (1/pi) sum_{m>0} Re(c_m e^{imt}) 2 sin(ms)/m ... folded over +-m.
    """
    if not 0.0 < s <= math.pi:
        raise ValidationError(f"s must lie in (0, pi], got {s}", "scale")
    _require_float_phases(spec, depth, "interval_measure", max(abs(t), s))
    m, a = _centered(spec, depth, t)  # an empty sum adds 0.0: the mass is then s/pi
    return s / math.pi + float(np.sum(a * np.sin(m * s) / m)) / math.pi


def interval_upper_bound(spec: RieszSpec, N: int, J_max: int, t: float,
                         s: float) -> float:
    """Fourier-side upper bound for the interval mass:

        int_{t-s}^{t+s} P_N  +  sum_{N<=j<J_max} (Q_j(t+s) + Q_j(t-s)),

    where Q_j convolves P_{j+1}+P_j with the positive kernel of coefficients
    1/(nu_j + |m|) and nu_j = lambda_{j+1} - sum_{i<=j} lambda_i is the
    guaranteed margin below every frequency that enters after depth j.
    Dominates the depth-J_max interval mass.
    """
    if spec.regime != LACUNARY3:
        raise RegimeError("the interval bound requires the lacunary3 regime", "regime")
    if not 0 <= N < J_max <= spec.last_index:
        raise ValidationError(
            f"need 0 <= N < J_max <= {spec.last_index}, got N={N}, J_max={J_max}",
            "index")
    if not 0.0 < s <= math.pi:
        raise ValidationError(f"s must lie in (0, pi], got {s}", "scale")
    _require_float_phases(spec, J_max, "interval_upper_bound", abs(t) + s)
    total = interval_measure(spec, N, t, s)
    ms, cs = expand_partial_product(spec, J_max).arrays()
    bounds = [_support_bound(spec, j) for j in range(J_max + 1)]
    lo, hi = np.searchsorted(ms, [-b for b in bounds]), np.searchsorted(ms, bounds, "right")

    def tail_terms(x):  # [Q_j(x) for N <= j < J_max] from one e^{imx} over P_{J_max}
        e, terms = np.exp(1j * ms.astype(float) * x), []
        for j in range(N, J_max):  # P_{j+1} is [a, d) of P_{J_max}, P_j its middle [b, c)
            a, b, c, d = lo[j + 1], lo[j], hi[j], hi[j + 1]
            c_sum = cs[a:d].copy()  # P_{j+1} + P_j, bit for bit in the lacunary3 regime,
            c_sum[b - a:c - a] += cs[b:c]  # where nu_j > 1.5 lambda_j > 0
            weights = 1.0 / (spec.freqs.spectral_margin(j) + np.abs(ms[a:d]).astype(float))
            terms.append(float(np.sum((c_sum * e[a:d]).real * weights)))
        return terms

    for plus, minus in zip(tail_terms(t + s), tail_terms(t - s)):  # j outer, t+s first
        total = total + plus + minus
    return total


def local_holder(spec: RieszSpec, depth: int, t: float,
                 scales) -> HolderSample:
    """Local scaling exponents log mu([t-s,t+s]) / log s along a scale ladder.

    Scales below the resolution of the truncation (s < 10/lambda_depth), at
    or above 1, or with vanishing measure are flagged and excluded.  The
    exponent estimate is the minimum over the three smallest admissible
    scales, a finite proxy for the liminf.
    """
    _check_depth(spec, depth)
    if not math.isfinite(t):
        raise ValidationError(f"t must be finite, got {t}", "t")
    scales = [float(s) for s in scales]
    if any(b >= a for a, b in zip(scales, scales[1:])):
        raise ValidationError("scales must be strictly decreasing", "scales")
    _require_float_phases(spec, depth, "local_holder", abs(t))
    # an exact quotient: lambda_depth may lie beyond float64 when r_depth = 0
    resolution = 10 / spec.freqs.values[depth]
    admissible: list[float] = []
    ratios: list[float] = []
    excluded: list[tuple[float, str]] = []
    for s in scales:
        if s < resolution:
            excluded.append((s, "below resolution of the truncation"))
            continue
        if not 0.0 < s < 1.0:
            excluded.append((s, "needs 0 < s < 1 for a meaningful log ratio"))
            continue
        m = interval_measure(spec, depth, t, s)
        if m <= 0.0:
            excluded.append((s, "measure vanished numerically"))
            continue
        admissible.append(s)
        ratios.append(math.log(m) / math.log(s))
    if not admissible:
        raise ValidationError("no admissible scales remain", "scales")
    # the admissible scales keep the ladder's decreasing order: the smallest come last
    return HolderSample(float(t), tuple(admissible), tuple(ratios),
                        float(min(ratios[-3:])), tuple(excluded))


def dimension_integral(spec: RieszSpec, n: int, depth: int,
                       method: str = "quadrature", seed: int = 0,
                       samples: int = 200_000) -> float:
    """(1/log lambda_n) int log P_n dmu, with mu proxied by the depth
    truncation: the single-n case of ``dimension_bounds``.

    quadrature: uniform grid with 8x the truncation degree in nodes (exact
    for the density part; the log factor is smooth away from isolated
    zeros).  monte_carlo: inverse-CDF sampling of the same grid density,
    seeded and deterministic.  Grid nodes where P_n < 1e-30 contribute the
    clipped log; more than 0.1% clipped nodes invalidates the quadrature
    and raises.
    """
    return dimension_bounds(spec, (n,), depth, method, seed, samples).l_values[0][1]


def dimension_bounds(spec: RieszSpec, n_range, depth: int,
                     method: str = "quadrature", seed: int = 0,
                     samples: int = 200_000) -> DimensionReport:
    """Finite-n dimension bracket: lower = 1 - max L_n, upper = 1 - min L_n,
    with L_n as in ``dimension_integral``.

    The arguments of every n are checked first, as each n is read; the grid,
    P_depth and the Monte Carlo samples are then built once and shared by
    every n, and one factor chain takes P_n for the distinct n in ascending
    order (the smallest n over the clipping cap is the one refused).  These are
    proxies for the limsup/liminf bracket, labelled as such; both ends are
    clamped to [0, 1] with the clamping recorded.
    """
    _check_depth(spec, depth)
    checked = []
    for n in map(int, n_range):
        _check_depth(spec, n, "n")
        if spec.freqs.values[n] < 2:
            raise ValidationError(
                f"lambda_n must be >= 2 for the normalization, got {spec.freqs.values[n]}",
                "normalization", n)
        if depth < n + 3:
            raise ValidationError(
                f"depth must be >= n + 3 for a faithful measure proxy, got "
                f"n={n}, depth={depth}", "depth")
        checked.append(n)
    if not checked:
        raise ValidationError("n_range is empty", "n_range")
    n_range = tuple(checked)
    if method not in ("quadrature", "monte_carlo"):
        raise ValidationError(f"unknown method {method!r}", "method")
    if samples < 1:
        raise ValidationError(f"samples must be >= 1, got {samples}", "samples")
    if method == "monte_carlo":
        _check_grid(samples, "Monte Carlo sampling")
        rng = _generator(seed)
    nodes = 8 * spec.freqs.prefix_sum(depth)
    _check_grid(nodes, f"the quadrature grid at depth {depth}")
    grid = _grid(nodes)
    monte_carlo = method == "monte_carlo"
    # Monte Carlo: P_depth becomes the CDF in place, then holds log P_n at
    # every sample, so its buffer has room for both
    buffer = np.ones(max(nodes, samples) if monte_carlo else nodes)
    _, p_depth = next(_partial_products(spec, grid, buffer[:nodes], (depth,)))
    if monte_carlo:
        cdf = np.cumsum(p_depth, out=p_depth)
        cdf /= cdf[-1]
        idx = _inverse_cdf(cdf, rng.random(int(samples)))
        log_p = buffer[:samples]
    else:
        log_p = np.empty_like(grid)

    def weighted_log(p_n, log_p, p_depth):  # quadrature: log P_n times P_depth, nodewise
        np.log(np.maximum(p_n, LOG_CLIP, out=log_p), out=log_p)
        log_p *= p_depth

    def sampled_log(idx, log_p):  # Monte Carlo: log P_n at the sampled nodes
        np.take(p_n, idx, out=log_p, mode="clip")  # "raise" would buffer the output
        np.log(np.maximum(log_p, LOG_CLIP, out=log_p), out=log_p)

    means = {}
    for n, p_n in _partial_products(spec, grid, np.ones_like(grid), n_range):
        clipped = int(np.count_nonzero(p_n < LOG_CLIP))
        if clipped / grid.size >= MAX_CLIPPED_FRACTION:
            raise ValidationError(
                f"{clipped} of {grid.size} nodes clipped at the log floor; "
                "quadrature invalid at this depth", "clipping")
        # the parts fill log_p; the mean sums it whole, in one order
        if monte_carlo:
            _split(sampled_log, idx, log_p)
        else:
            _split(weighted_log, p_n, log_p, p_depth)
        means[n] = float(np.mean(log_p))
    ls = [means[n] / math.log(spec.freqs.values[n]) for n in n_range]
    lower_raw = 1.0 - max(ls)
    upper_raw = 1.0 - min(ls)
    lower = min(max(lower_raw, 0.0), 1.0)
    upper = min(max(upper_raw, 0.0), 1.0)
    return DimensionReport(n_range, tuple(zip(n_range, ls)), lower, upper, method,
                           clamped=(lower != lower_raw or upper != upper_raw),
                           lower_raw=lower_raw, upper_raw=upper_raw)


def _inverse_cdf(cdf: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """``np.searchsorted(cdf, keys, side="left")`` as int64, written over the
    float64 ``keys`` (one array of samples instead of two).  Each ``_split``
    part takes its keys one block of ``SAMPLE_BLOCK`` at a time, searches
    them in sorted order and scatters the indices back over the block: a
    left search depends only on its key, so the indices are the same, and
    sorted keys walk the table in order instead of at random."""
    idx = keys.view(np.int64)

    def search(keys, idx):
        for lo in range(0, keys.size, SAMPLE_BLOCK):
            block = keys[lo:lo + SAMPLE_BLOCK]
            order = np.argsort(block)
            found = np.searchsorted(cdf, block[order], side="left")
            idx[lo:lo + block.size][order] = found  # the block is read by now

    _split(search, keys, idx)
    return idx


def holder_transfer_check(spec: RieszSpec, beta: float, n_range,
                          t_grid, s_grid, depth: int) -> tuple[float, float]:
    """Empirical constants of the two-way transfer between interval decay
    and partial-product growth.

    C  = max over (t, s) of mu([t-s, t+s]) / s^beta,
    C' = max over (n, t) of P_n(t) / lambda_n^{1-beta}.

    If intervals decay like s^beta then partial products grow at most like
    lambda_n^{1-beta}, and conversely (with the decaying power s^{+beta} on
    the interval side); the ratio C'/C depends only on the frequency
    sequence, so it can be tracked across specs.  Requires strict
    lacunarity ratio_min > 3 with ratio_max finite.
    """
    if spec.regime != LACUNARY3 or not (spec.freqs.ratio_min > 3.0
                                        and math.isfinite(spec.freqs.ratio_max)):
        raise RegimeError(
            "transfer constants need 3 < ratio_min and finite ratio_max",
            "regime")
    n_range = tuple(n_range)
    t_grid, s_grid = [float(t) for t in t_grid], [float(s) for s in s_grid]
    for name, values in (("n_range", n_range), ("t_grid", t_grid), ("s_grid", s_grid)):
        if not values:
            raise ValidationError(f"{name} is empty", name)
    big_c = max(interval_measure(spec, depth, t, s) / s ** beta
                for t in t_grid for s in s_grid)
    t_arr = np.asarray(t_grid, dtype=float)
    return big_c, max(float(np.max(p_n)) / spec.freqs.values[n] ** (1.0 - beta)
                      for n, p_n in _partial_products(spec, t_arr, np.ones_like(t_arr), n_range))
