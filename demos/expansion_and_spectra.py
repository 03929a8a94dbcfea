#!/usr/bin/env python3
"""Walk through the exact Fourier-side machinery on a classical example.

Frequencies 4^j with coefficients a_j = 1 reproduce the textbook picture:
coefficient 1/2 at each 4^j, disjoint spectral bands around each scale, a
Parseval product in closed form, and a plateau kernel that reproduces any
truncation below a spectral gap.
"""

import numpy as np

from rieszprod import (
    CoefficientSequence,
    FrequencySequence,
    RieszSpec,
    convolve_products,
    eval_partial_product,
    expand_partial_product,
    fourier_coefficient,
    gram_centered_exponentials,
    randomize_phases,
    smooth_by_vp,
    spectrum_bands,
    vallee_poussin_kernel,
)

spec = RieszSpec(FrequencySequence.geometric(4, 9),
                 CoefficientSequence.constant(1.0, 0.0, 9))

print("=" * 64)
print("expansion of the depth-2 partial product (frequencies 1, 4, 16)")
print("=" * 64)
poly = expand_partial_product(spec, 2)
for m in poly.support():
    if m >= 0:
        c = poly.coefficient(m)
        print(f"  frequency {m:3d}: {c.real:+.4f}")
print(f"  mean value (mass): {poly.coefficient(0).real}")

print()
print("spectral bands at depth 4 (each nested in ]2/3 4^n, 4/3 4^n[):")
for band in spectrum_bands(spec, 4):
    lo_bound = 2 * 4 ** band.index / 3
    hi_bound = 4 * 4 ** band.index / 3
    print(f"  band {band.index}: [{band.lo}, {band.hi}]  in  "
          f"]{lo_bound:.1f}, {hi_bound:.1f}[  ({band.count} frequencies)")

print()
print("selected coefficients (with stability under deeper truncation):")
for m in (1, 5, 21, 64, 2, 100):
    fc = fourier_coefficient(spec, m, 6)
    print(f"  c({m:3d}) = {fc.value.real:+.6f}   stable={fc.stable}")

print()
print("Parseval: sum |c|^2 vs prod (1 + |a_j|^2/2)")
for n in (2, 4, 6):
    poly = expand_partial_product(spec, n)
    total = sum(abs(c) ** 2 for c in poly.coefficients.values())
    product = 1.5 ** (n + 1)
    print(f"  n={n}: {total:.12f} vs {product:.12f}")

print()
print("convolution is coefficientwise: the dilate t -> 2t has disjoint")
print("spectrum, so convolving with it flattens everything to Lebesgue:")
dilated = RieszSpec(FrequencySequence(tuple(2 * 4 ** j for j in range(9))),
                    CoefficientSequence.constant(1.0, 0.0, 9))
flat = convolve_products(expand_partial_product(spec, 6),
                         expand_partial_product(dilated, 6))
print(f"  surviving coefficients: {dict(flat.coefficients)}")

print()
print("plateau kernel reproduction: smoothing the depth-6 product with the")
print("plateau-21 kernel returns the depth-2 product exactly")
kernel = vallee_poussin_kernel(spec.freqs.prefix_sum(2))
reproduced = convolve_products(kernel, expand_partial_product(spec, 6))
print(f"  coefficient dictionaries equal: "
      f"{reproduced == expand_partial_product(spec, 2)}")
ts = np.linspace(0, 2 * np.pi, 5)
print(f"  pointwise at a few t: {np.round(smooth_by_vp(spec, 2, 6, ts), 6)}")
print(f"           direct eval: {np.round(eval_partial_product(spec, 2, ts), 6)}")

print()
print("the centered exponentials are orthogonal with norms 1 - |a_j|^2/4:")
for j, k in ((1, 1), (3, 3), (1, 3)):
    value = gram_centered_exponentials(spec, j, k, 6)
    print(f"  <f_{j}, f_{k}> = {value.real:+.4f}{value.imag:+.4f}i")

print()
print("random phases (seeded, moduli unchanged):")
rot = randomize_phases(spec, seed=7)
print(f"  seed=7, generator={rot.phase_generator}")
print(f"  first three phases: {np.round(rot.coeffs.phases[:3], 4)}")
print(f"  same seed reproduces: {randomize_phases(spec, 7) == rot}")
