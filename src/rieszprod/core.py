"""Exact Fourier-side representation of Riesz products on the circle.

A Riesz product is the (formal) infinite product

    prod_j (1 + Re(a_j e^{i lambda_j t})),    |a_j| <= 1,

over an increasing integer frequency sequence (lambda_j).  When successive
ratios are >= 3 ("lacunary3" regime) the partial products expand without
interference: every nonzero frequency has a unique representation
sum_j eps_j lambda_j with eps_j in {-1,0,1}, and the coefficient there is
prod_{eps_j=1} a_j/2 * prod_{eps_j=-1} conj(a_j)/2.  The partial products
are nonnegative with mean value 1, so they are densities of probability
measures; everything downstream (classification, dimension estimates) is
computed from these expansions: ``TrigPolynomial`` values holding sorted
integer frequencies (int64 below 2^62, exact Python integers above) and
their complex coefficients, built level by level by ``_levels``.

The "dyadic" regime (lambda_j = 2^j with sup |a_j| < 1) is also supported
for expansion and pointwise evaluation; there colliding sign patterns are
merged at every level and the band/Gram machinery refuses to run.

All types are immutable values; all operations are pure functions.
"""

from __future__ import annotations

import functools
import math
import os
import sys
import threading
from dataclasses import FrozenInstanceError
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

import numpy as np

LACUNARY3 = "lacunary3"
DYADIC = "dyadic"
REGIMES = (LACUNARY3, DYADIC)

PHASE_GENERATOR = "numpy-pcg64"

# an expansion through factor n is two arrays of up to 3^(n+1) entries
# (531,441 at the cap)
MAX_EXPANSION_DEPTH = 12

# frequency arrays are int64 while every |m| (for an expansion: the sum of the
# frequencies with a nonzero coefficient) is below this, exact Python ints above
INT64_LIMIT = 2 ** 62

# a float64 phase lambda*t at or above this carries no fractional digit
PHASE_LIMIT = 2 ** 52

# bits of a frequency: a geometric rule holds at most about this many terms,
# and a sum of frequencies still has far fewer than the 4,300 digits that
# ``str`` writes
FREQUENCY_BITS = 4096

# grid nodes, Monte Carlo samples or evaluation points one call may hold
# (699,048 quadrature nodes at base 4 and depth 8 fit)
GRID_BUDGET = 2 ** 21

TWO_PI = 2.0 * math.pi

# an elementwise kernel runs in parts (``_split``) only where each part gets at
# least this many elements; below it a thread costs more than its part saves
SPLIT_MIN = 1 << 15

# entries of e^{imt} that ``TrigPolynomial.evaluate`` forms at once (4 MB of
# complex128): points and frequencies are taken in blocks of at most this many
EVAL_ENTRIES = 1 << 18


class ValidationError(ValueError):
    """A spec or argument violates one of the structural conditions.

    ``condition`` names the violated rule (e.g. "modulus_bound",
    "lacunarity_ratio"); ``index`` locates it when meaningful.
    """

    def __init__(self, message: str, condition: str = "", index: int | None = None):
        super().__init__(message)
        self.condition = condition
        self.index = index


class RegimeError(ValidationError):
    """Operation not defined for the spec's regime."""


class StabilityError(ValidationError):
    """Requested coefficient is not stable at the given depth."""


class SpectralGapError(ValidationError):
    """The spectral-gap predicate required by a kernel identity fails."""


class CapError(RuntimeError):
    """A size/resource cap was exceeded; the request is refused, not wrong."""


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------


class Record:
    """An immutable value, as ``@dataclass(frozen=True)`` makes one: a record's
    fields are its own annotations, in order, given by position or keyword, with
    its class attributes as defaults; ``__post_init__`` runs last (it may set
    fields through ``object.__setattr__``); equality and hashing go by the fields
    within one class.  Subclasses inherit the methods: none generates code."""

    def __init_subclass__(cls):
        cls._fields = tuple(cls.__annotations__)
        cls._defaults = {name: vars(cls)[name] for name in cls._fields if name in vars(cls)}

    def __init__(self, *args, **kwargs):
        cls, names = type(self), self._fields
        if len(args) > len(names) or not kwargs.keys() <= set(names[len(args):]):
            raise TypeError(f"{cls.__name__}() takes the fields {names}, got {len(args)} "
                            f"positional and the keywords {sorted(kwargs)}")
        values = {**cls._defaults, **dict(zip(names, args)), **kwargs}
        if len(values) < len(names):
            missing = [name for name in names if name not in values]
            raise TypeError(f"{cls.__name__}() is missing the fields {missing}")
        self.__dict__.update(values)
        self.__post_init__()

    def __post_init__(self):
        """Check or normalise the fields once they are set (subclasses override)."""

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return _field_values(self) == _field_values(other)

    def __hash__(self):
        return hash(_field_values(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value
                           in zip(self._fields, _field_values(self)))
        return f"{type(self).__qualname__}({fields})"


def _field_values(obj) -> tuple:
    return tuple(getattr(obj, name) for name in obj._fields)


def replace(obj, **changes):
    """A copy of the record ``obj`` with ``changes``; its ``__post_init__`` runs again."""
    return type(obj)(**{**dict(zip(obj._fields, _field_values(obj))), **changes})


class FrequencySequence(Record):
    """Strictly increasing positive integer frequencies lambda_0 < ... < lambda_J."""

    values: tuple[int, ...]

    def __post_init__(self):
        vals = tuple(int(v) for v in self.values)
        object.__setattr__(self, "values", vals)
        if not vals:
            raise ValidationError("frequency sequence is empty", "frequencies")
        for j, v in enumerate(vals):
            if v < 1:
                raise ValidationError(
                    f"frequency at index {j} is {v}, must be >= 1",
                    "positivity", j)
        for j in range(len(vals) - 1):
            if vals[j + 1] <= vals[j]:
                raise ValidationError(
                    f"frequencies must be strictly increasing, violated at index {j + 1}",
                    "monotonicity", j + 1)
        if vals[-1].bit_length() > FREQUENCY_BITS:
            raise CapError(f"frequency at index {len(vals) - 1} has {vals[-1].bit_length()} "
                           f"bits, beyond the cap of {FREQUENCY_BITS}")

    @classmethod
    def geometric(cls, base: int, count: int) -> "FrequencySequence":
        """lambda_j = base**j for j = 0..count-1."""
        if base < 2:
            raise ValidationError(f"geometric base must be >= 2, got {base}", "base")
        if count < 1:
            raise ValidationError(f"count must be >= 1, got {count}", "count")
        if (count - 1) * (base.bit_length() - 1) >= FREQUENCY_BITS:
            raise CapError(f"{count} powers of a {base.bit_length()}-bit base reach beyond "
                           f"{FREQUENCY_BITS} bits, the cap on a frequency")
        return cls(tuple(base ** j for j in range(count)))

    def __len__(self) -> int:
        return len(self.values)

    @property
    def last_index(self) -> int:
        return len(self.values) - 1

    def _ratios(self):
        for lo, hi in zip(self.values, self.values[1:]):
            try:
                yield hi / lo
            except OverflowError:  # the quotient is beyond float64
                yield math.inf

    @property
    def ratio_min(self) -> float:
        return min(self._ratios(), default=math.inf)

    @property
    def ratio_max(self) -> float:
        return max(self._ratios(), default=1.0)

    def prefix_sum(self, n: int) -> int:
        """sum_{i<=n} lambda_i (exact integer)."""
        return sum(self.values[: n + 1])

    def gap(self, n: int) -> bool:
        """True iff lambda_{n+1} > 3 * sum_{i<=n} lambda_i.

        Under this predicate the frequency bands up to n are separated from
        everything above by more than the bandwidth itself, which is what
        the kernel-smoothing identity needs.
        """
        if n + 1 > self.last_index:
            raise ValidationError(
                f"gap({n}) needs frequency index {n + 1}, sequence ends at {self.last_index}",
                "index", n)
        return self.values[n + 1] > 3 * self.prefix_sum(n)

    def spectral_margin(self, j: int) -> int:
        """lambda_{j+1} - sum_{i<=j} lambda_i: every frequency introduced
        after depth j exceeds this."""
        if j + 1 > self.last_index:
            raise ValidationError(
                f"spectral_margin({j}) needs frequency index {j + 1}",
                "index", j)
        return self.values[j + 1] - self.prefix_sum(j)

    def is_geometric(self) -> int | None:
        """The common integer ratio if lambda_j = lambda_0 * q^j, else None."""
        vals = self.values
        if len(vals) < 2 or vals[1] % vals[0]:
            return None
        q = vals[1] // vals[0]  # >= 2, the values being increasing
        return q if all(b == a * q for a, b in zip(vals, vals[1:])) else None


def _canonical_phase(r: float, theta: float) -> float:
    if r == 0.0:
        return 0.0
    theta = math.fmod(theta, TWO_PI)
    if theta < 0.0:
        theta += TWO_PI
    return theta


class CoefficientSequence(Record):
    """Complex coefficients a_j stored as moduli r_j >= 0 and phases in [0, 2pi).

    Canonical form: r_j = 0 forces theta_j = 0, so coefficient equality is
    well defined.  Moduli and phases must be finite.  The modulus bound
    r_j <= 1 is a *spec* condition checked by ``validate_spec``: a sequence
    with r_j > 1 can be built, a ``RieszSpec`` holding one cannot.
    """

    moduli: tuple[float, ...]
    phases: tuple[float, ...]

    def __post_init__(self):
        r = tuple(float(x) for x in self.moduli)
        th = tuple(float(x) for x in self.phases)
        if len(r) != len(th):
            raise ValidationError("moduli and phases length mismatch", "length")
        for j, (x, phase) in enumerate(zip(r, th)):
            if not math.isfinite(x) or x < 0.0:
                raise ValidationError(f"modulus at index {j} is {x}, must be finite and >= 0",
                                      "modulus", j)
            if not math.isfinite(phase):
                raise ValidationError(f"phase at index {j} is {phase}, must be finite",
                                      "phase", j)
        th = tuple(_canonical_phase(r[j], th[j]) for j in range(len(r)))
        object.__setattr__(self, "moduli", r)
        object.__setattr__(self, "phases", th)

    @classmethod
    def from_complex(cls, values: Iterable[complex]) -> "CoefficientSequence":
        vals = [complex(v) for v in values]
        return cls(tuple(abs(v) for v in vals),
                   tuple(math.atan2(v.imag, v.real) if v != 0 else 0.0 for v in vals))

    @classmethod
    def constant(cls, r: float, theta: float, count: int) -> "CoefficientSequence":
        return cls((r,) * count, (theta,) * count)

    def __len__(self) -> int:
        return len(self.moduli)

    def value(self, j: int) -> complex:
        r = self.moduli[j]
        if r == 0.0:
            return 0j
        return r * complex(math.cos(self.phases[j]), math.sin(self.phases[j]))

    def values(self) -> tuple[complex, ...]:
        return tuple(self.value(j) for j in range(len(self)))

    @property
    def sup_modulus(self) -> float:
        return max(self.moduli) if self.moduli else 0.0


class RieszSpec(Record):
    """Frequencies plus coefficients plus the regime they are meant for, valid by
    construction: building one (also by ``replace``) runs ``validate_spec``."""

    freqs: FrequencySequence
    coeffs: CoefficientSequence
    regime: str = LACUNARY3
    phase_seed: int | None = None
    phase_generator: str | None = None

    def __post_init__(self):
        if self.regime not in REGIMES:
            raise ValidationError(f"unknown regime {self.regime!r}", "regime")
        if len(self.freqs) != len(self.coeffs):
            raise ValidationError(
                f"{len(self.freqs)} frequencies but {len(self.coeffs)} coefficients",
                "length")
        validate_spec(self)

    @property
    def last_index(self) -> int:
        return self.freqs.last_index

    def coefficient(self, j: int) -> complex:
        return self.coeffs.value(j)


def validate_spec(spec: RieszSpec) -> RieszSpec:
    """Check the structural conditions of the spec's regime and return it
    (every ``RieszSpec`` runs this when it is built).

    lacunary3: lambda_{j+1}/lambda_j >= 3 for all j, and every |a_j| <= 1.
    dyadic:    lambda_j = 2^j exactly, and sup |a_j| < 1 strictly.

    Raises ValidationError naming the violated condition and index.
    """
    for j, r in enumerate(spec.coeffs.moduli):
        if r > 1.0:
            raise ValidationError(
                f"modulus bound |a_j| <= 1 violated at index {j}: {r}",
                "modulus_bound", j)
    vals = spec.freqs.values
    if spec.regime == LACUNARY3:
        for j in range(len(vals) - 1):
            if vals[j + 1] < 3 * vals[j]:
                raise ValidationError(
                    f"lacunarity ratio lambda_(j+1)/lambda_j >= 3 violated at index {j}: "
                    f"{vals[j + 1]}/{vals[j]} = {vals[j + 1] / vals[j]:.4g}"
                    " (declare the dyadic regime if lambda_j = 2^j was intended)",
                    "lacunarity_ratio", j)
    else:
        for j, v in enumerate(vals):
            if v != 2 ** j:
                raise ValidationError(
                    f"dyadic regime requires lambda_j = 2^j, violated at index {j}: {v}",
                    "dyadic_frequencies", j)
        if spec.coeffs.sup_modulus >= 1.0:
            j = spec.coeffs.moduli.index(spec.coeffs.sup_modulus)
            raise ValidationError(
                f"dyadic regime requires sup |a_j| < 1, violated at index {j}: "
                f"{spec.coeffs.sup_modulus}",
                "dyadic_modulus", j)
    return spec


class SignPattern(Record):
    """Finite map j -> eps_j in {-1,+1} (zeros omitted)."""

    entries: tuple[tuple[int, int], ...]

    def __post_init__(self):
        ent = tuple(sorted((int(j), int(e)) for j, e in self.entries))
        for j, e in ent:
            if e not in (-1, 1):
                raise ValidationError(f"sign at index {j} is {e}, must be -1 or +1",
                                      "sign", j)
        if len({j for j, _ in ent}) != len(ent):
            raise ValidationError("duplicate index in sign pattern", "sign")
        object.__setattr__(self, "entries", ent)

    @classmethod
    def from_signs(cls, signs: Sequence[int]) -> "SignPattern":
        return cls(tuple((j, int(e)) for j, e in enumerate(signs) if e != 0))

    def signs(self, length: int) -> tuple[int, ...]:
        out = [0] * length
        for j, e in self.entries:
            out[j] = e
        return tuple(out)

    @property
    def is_trivial(self) -> bool:
        return not self.entries

    def frequency(self, freqs: Sequence[int]) -> int:
        """sum_j eps_j * freqs[j], exact."""
        return sum(e * freqs[j] for j, e in self.entries)

    def apply(self, vectors: Sequence[Sequence[int]]) -> tuple[int, ...]:
        """Componentwise sum_j eps_j * vectors[j]."""
        dim = len(vectors[0]) if vectors else 0
        out = [0] * dim
        for j, e in self.entries:
            v = vectors[j]
            for i in range(dim):
                out[i] += e * v[i]
        return tuple(out)


def _frequency_dtype(bound: int):
    return np.int64 if bound < INT64_LIMIT else object


class TrigPolynomial:
    """Finite sum_m c_m e^{imt} as two read-only arrays (``arrays()``):
    strictly increasing integer frequencies, int64 when every |m| is below
    2^62 and exact Python integers otherwise, and their complex128
    coefficients, exact zeros pruned.  ``coefficients`` is a mapping built
    once on first use.  ``real_valued`` flags Hermitian symmetry
    c_{-m} = conj(c_m); evaluation then returns real values.
    """

    def __init__(self, coefficients: Mapping[int, complex]):
        pruned = {int(m): complex(c) for m, c in coefficients.items() if c != 0}
        freqs = sorted(pruned)
        self._adopt(np.array(freqs, dtype=_frequency_dtype(max(map(abs, freqs), default=0))),
                    np.array([pruned[m] for m in freqs], dtype=np.complex128))

    @classmethod
    def _from_parts(cls, freqs, re, im) -> "TrigPolynomial":
        """Sorted distinct ``freqs`` with coefficients re + i im, zeros dropped."""
        keep = (re != 0.0) | (im != 0.0)
        poly = cls.__new__(cls)
        poly._adopt(freqs[keep], np.column_stack((re[keep], im[keep])).view(np.complex128)[:, 0])
        return poly

    def _adopt(self, freqs: np.ndarray, coeffs: np.ndarray) -> None:
        freqs.flags.writeable = coeffs.flags.writeable = False
        self._freqs, self._coeffs, self._mapping = freqs, coeffs, None
        self._real_valued = bool(np.array_equal(freqs, -freqs[::-1])
                                 and np.array_equal(coeffs, coeffs[::-1].conj()))

    @property
    def real_valued(self) -> bool:
        return self._real_valued

    @property
    def coefficients(self) -> Mapping[int, complex]:
        if self._mapping is None:
            self._mapping = MappingProxyType(
                dict(zip(self._freqs.tolist(), self._coeffs.tolist())))
        return self._mapping

    def __eq__(self, other) -> bool:
        return (isinstance(other, TrigPolynomial)
                and np.array_equal(self._freqs, other._freqs)
                and np.array_equal(self._coeffs, other._coeffs))

    def coefficient(self, m: int) -> complex:
        return self.coefficients.get(m, 0j)

    @property
    def degree(self) -> int:
        return int(max(-self._freqs[0], self._freqs[-1])) if self._freqs.size else 0

    def support(self) -> tuple[int, ...]:
        return tuple(self._freqs.tolist())

    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        return self._freqs, self._coeffs

    def evaluate(self, t):
        """sum_m c_m e^{imt}; real array/scalar when Hermitian, formed in blocks
        of at most EVAL_ENTRIES terms e^{imt}.  Refused for exact-integer
        frequencies, whose float64 phases m*t mean nothing, and once the
        degree times max |t| reaches 2^52."""
        if self._freqs.dtype == object:
            raise CapError(f"evaluation needs float64 phases m*t; frequencies reach "
                           f"{self.degree} >= 2^62")
        tt = np.atleast_1d(np.asarray(t, dtype=float))
        reach = _reach(tt)
        if _phase_limit_reached(self.degree, reach):
            raise CapError(f"evaluation needs float64 phases m*t below 2^52; the degree "
                           f"{self.degree} times max |t| = {reach!r} is >= 2^52")
        # equal row blocks, so that no block has one row while three fit in
        # one: numpy sums a single row another way than several
        width = min(self._freqs.size, EVAL_ENTRIES) or 1
        blocks = -(-tt.size // (EVAL_ENTRIES // width))
        bounds = [tt.size * i // blocks for i in range(blocks + 1)]
        out = np.empty(tt.size, dtype=np.complex128)
        for lo, hi in zip(bounds, bounds[1:]):
            for a in range(0, max(self._freqs.size, 1), width):
                block = np.exp(1j * np.outer(tt[lo:hi], self._freqs[a:a + width])) \
                    @ self._coeffs[a:a + width]
                if a:
                    out[lo:hi] += block
                else:  # assigned, not added to zeros: a -0.0 part keeps its sign
                    out[lo:hi] = block
        if self._real_valued:
            out = out.real
        if np.isscalar(t) or np.ndim(t) == 0:
            return out[0]
        return out


class SpectralBand(Record):
    """Positive frequencies of the expansion whose top participating index is n."""

    index: int
    lo: int
    hi: int
    freqs: tuple[int, ...]


class FourierCoefficient(Record):
    value: complex
    stable: bool


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def _check_depth(spec: RieszSpec, n: int, name: str = "depth") -> None:
    if not 0 <= n <= spec.last_index:
        raise ValidationError(
            f"{name}={n} out of range [0, {spec.last_index}]", "index", n)


def _check_grid(size: int, what: str) -> None:
    if size > GRID_BUDGET:
        raise CapError(f"{what} needs {size} points; the grid budget is {GRID_BUDGET}")


def _support_bound(spec: RieszSpec, depth: int) -> int:
    """Sum of the frequencies through ``depth`` with a nonzero coefficient:
    every frequency of the depth expansion lies within it."""
    return sum(lam for lam, r in zip(spec.freqs.values[: depth + 1], spec.coeffs.moduli)
               if r > 0.0)


def _reach(t: np.ndarray) -> float:
    """max |t| (0.0 for no points) from two reductions, without a full-size |t|."""
    return float(np.max(np.abs((t.min(initial=0.0), t.max(initial=0.0)))))


def _phase_limit_reached(bound: int, reach: float) -> bool:
    """bound * reach >= 2^52, compared exactly; a non-finite reach is a ValidationError."""
    if not math.isfinite(reach):
        raise ValidationError(f"points must be finite, got {reach}", "points")
    num, den = float(reach).as_integer_ratio()
    return bound * num >= PHASE_LIMIT * den


def _refuse_factor_phases(spec: RieszSpec, js, reach: float) -> None:
    """Refuse the factors j of ``js`` whose float64 phases lambda_j*t, |t| <= reach,
    reach 2^52 or whose lambda_j exceeds float64; a non-finite reach is a
    ValidationError even when ``js`` is empty."""
    _phase_limit_reached(0, reach)
    for j in js:
        lam = spec.freqs.values[j]
        if lam > sys.float_info.max or _phase_limit_reached(lam, reach):
            raise CapError(
                f"evaluation needs float64 phases lambda_j*t below 2^52; factor {j} has "
                f"lambda_j = {lam} and max |t| = {reach!r}")


def _require_float_phases(spec: RieszSpec, depth: int, reader: str, reach: float) -> None:
    """Refuse a reader that forms float64 phases m*t, |t| <= reach, from an
    expansion with exact-integer frequencies or with phases reaching 2^52,
    where float64 keeps no fractional digit."""
    bound = _support_bound(spec, depth)
    if bound >= INT64_LIMIT:
        raise CapError(
            f"{reader} needs float64 phases m*t, but the frequencies with a nonzero "
            f"coefficient through depth {depth} have prefix sum {bound} >= 2^62")
    if _phase_limit_reached(bound, reach):
        raise CapError(
            f"{reader} needs float64 phases m*t below 2^52, but the support bound "
            f"{bound} through depth {depth} times the reach {reach!r} of the points is >= 2^52")


def _levels(spec: RieszSpec, depth: int, values: tuple, blocks):
    """Yield (freqs, values) for the constant 1, then after each factor j <=
    depth: the blocks at m, m + lambda_j, m - lambda_j, concatenated, with
    values (float arrays) from ``blocks(j, values)`` -> (up, down), or None
    for a factor 1.  Equal frequencies are summed only where they can meet
    (lambda_j at most twice the prefix sum below it: the dyadic regime).
    Frequencies are int64 while ``_support_bound(spec, depth)`` < 2^62."""
    lams = spec.freqs.values
    freqs = np.zeros(1, dtype=_frequency_dtype(_support_bound(spec, depth)))
    yield freqs, values
    for j in range(depth + 1):
        level = blocks(j, values)
        if level is not None:
            freqs = np.concatenate((freqs, freqs + lams[j], freqs - lams[j]))
            values = tuple(map(np.concatenate, zip(values, *level)))
            if lams[j] <= 2 * spec.freqs.prefix_sum(j - 1):
                freqs, where = np.unique(freqs, return_inverse=True)
                # bincount adds in index order from 0.0, as a dict would
                values = tuple(np.bincount(where, v, freqs.size) for v in values)
        yield freqs, values


def _times(ar, ai, br, bi):
    """Real and imaginary parts of (ar + i ai)(br + i bi), rounded as
    Python's complex product (numpy's complex multiply may fuse)."""
    return ar * br - ai * bi, ar * bi + ai * br


@functools.lru_cache(maxsize=16)
def _expansion(spec: RieszSpec, n: int) -> TrigPolynomial:
    if n > MAX_EXPANSION_DEPTH:
        raise CapError(
            f"expansion to depth {n} needs up to 3^{n + 1} terms; cap is "
            f"depth {MAX_EXPANSION_DEPTH}")

    def blocks(j, values):
        a = spec.coefficient(j)
        if a == 0:
            return None
        half = a / 2
        return _times(*values, half.real, half.imag), _times(*values, half.real, -half.imag)

    for freqs, (re, im) in _levels(spec, n, (np.ones(1), np.zeros(1)), blocks):
        pass
    order = np.argsort(freqs, kind="stable")
    # adding 0.0 turns -0.0 into 0.0, as accumulating from 0j does
    return TrigPolynomial._from_parts(freqs[order], re[order] + 0.0, im[order] + 0.0)


def expand_partial_product(spec: RieszSpec, n: int) -> TrigPolynomial:
    """Exact sparse expansion of the partial product through factor n.

    One ``_levels`` level per three-term factor 1 + (a_j/2) e^{i lambda_j t}
    + (conj(a_j)/2) e^{-i lambda_j t}.  In the lacunary3 regime no
    frequencies collide; in the dyadic regime colliding sign patterns
    aggregate.  The mean value (coefficient at 0) is 1.
    """
    _check_depth(spec, n, "n")
    return _expansion(spec, n)


def eval_partial_product(spec: RieszSpec, n: int, t):
    """Pointwise value prod_{j<=n} (1 + r_j cos(lambda_j t + theta_j)).

    Evaluated factor by factor (never via the expansion) so nonnegativity
    is preserved numerically.  Accepts scalars or arrays of finite points;
    refused once a phase lambda_j*t of a factor with r_j > 0 reaches 2^52,
    where float64 keeps no fractional digit.
    """
    tt = np.atleast_1d(np.asarray(t, dtype=float))
    _, out = next(_partial_products(spec, tt, np.ones_like(tt), (n,)))
    return float(out[0]) if np.ndim(t) == 0 else out


def _cpus() -> int:
    """The CPUs this process may run on: its affinity mask (``taskset``)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return os.cpu_count() or 1


def _parts(size: int, least: int) -> list[int]:
    """The bounds of one contiguous part of [0, size) per CPU of ``_cpus``
    while each part holds at least ``least`` elements: part i is
    [bounds[i], bounds[i + 1]), and there is always one part."""
    parts = max(1, min(_cpus(), size // least))
    return [size * i // parts for i in range(parts + 1)]


def _split(kernel, *arrays) -> None:
    """``kernel`` on the ``_parts`` of ``arrays`` (all of one length) that
    hold at least SPLIT_MIN elements, the first part here and each other one
    in a thread of its own (numpy's elementwise loops release the GIL).  The
    kernel must be elementwise and allocate nothing large: each value then
    depends on its position only, never on the parts.  An exception in a
    part is re-raised here once every part has ended."""
    bounds = _parts(len(arrays[0]), SPLIT_MIN)
    errors = [None] * (len(bounds) - 1)

    def run(i):
        try:
            kernel(*(a[bounds[i]:bounds[i + 1]] for a in arrays))
        except BaseException as err:
            errors[i] = err

    started = []
    for i in range(1, len(errors)):
        thread = threading.Thread(target=run, args=(i,))
        try:
            thread.start()
        except RuntimeError:  # no thread to be had: its part runs here
            run(i)
        else:
            started.append(thread)
    run(0)
    for thread in started:
        thread.join()
    for err in errors:
        if err is not None:
            raise err


def _grid(size: int) -> np.ndarray:
    """The uniform nodes 2 pi k / size, k < size, formed in one array: bit for
    bit ``2 * pi * arange(size) / size`` without its two temporaries."""
    nodes = np.arange(size, dtype=float)
    nodes *= TWO_PI
    nodes /= size
    return nodes


def _partial_products(spec: RieszSpec, t: np.ndarray, out: np.ndarray, ns):
    """Yield (n, out) for the distinct n of ``ns`` ascending, ``out`` then holding
    its entry values times P_n at the points ``t``: one factor chain (r_j = 0
    skipped) whose segments run in place through ``_split``, each part forming
    its factors in its part of one scratch array.  Bad n, non-finite points and
    phases lambda_j*t >= 2^52 through max(ns) are refused before any factor
    runs."""
    ns = sorted(set(ns))
    for n in ns:
        _check_depth(spec, n, "n")
    reach = _reach(t)
    active = [j for j in range(max(ns, default=-1) + 1) if spec.coeffs.moduli[j] != 0.0]
    _refuse_factor_phases(spec, active, reach)

    def kernel(t, out, factor):
        for lam, phase, r in segment:
            np.multiply(lam, t, out=factor)
            factor += phase
            np.cos(factor, out=factor)
            factor *= r
            factor += 1.0
            out *= factor

    scratch, done = np.empty_like(t), 0
    for n in ns:
        segment = [(spec.freqs.values[j], spec.coeffs.phases[j], spec.coeffs.moduli[j])
                   for j in active if done <= j <= n]
        if segment:
            _split(kernel, t, out, scratch)
        done = n + 1
        yield n, out


def _representation(freqs: FrequencySequence, m: int, depth: int) -> SignPattern | None:
    """The unique pattern with sum eps_j lambda_j = m using indices <= depth.

    Valid in the lacunary3 regime only: the intervals
    [lambda_j - S_{j-1}, lambda_j + S_{j-1}] are pairwise disjoint, so the
    top index of any representation is forced and the residual recurses.
    """
    vals = freqs.values
    prefix = [0]
    for v in vals:
        prefix.append(prefix[-1] + v)  # prefix[j+1] = sum_{i<=j} lambda_i
    entries = []
    x = m
    j = depth
    while x != 0:
        ax = abs(x)
        top = None
        while j >= 0:
            if vals[j] - prefix[j] <= ax <= vals[j] + prefix[j]:
                top = j
                break
            if vals[j] + prefix[j] < ax:
                return None  # above every reachable window
            j -= 1
        if top is None:
            return None
        e = 1 if x > 0 else -1
        entries.append((top, e))
        x -= e * vals[top]
        j = top - 1
    return SignPattern(tuple(entries))


def _pattern_coefficient(spec: RieszSpec, pattern: SignPattern) -> complex:
    c = 1.0 + 0j
    for j, e in pattern.entries:  # ascending index, matching expansion order
        a = spec.coefficient(j)
        c = c * (a / 2 if e == 1 else a.conjugate() / 2)
    return c


def _stable_at(spec: RieszSpec, m: int, depth: int) -> bool:
    if depth >= spec.last_index:
        return True
    s = spec.freqs.prefix_sum(depth)
    return abs(m) <= s and spec.freqs.values[depth + 1] - s > abs(m)


def fourier_coefficient(spec: RieszSpec, m: int, depth: int) -> FourierCoefficient:
    """Coefficient of e^{imt} in the depth-truncated expansion, with a
    stability flag.

    ``stable`` means the value can no longer change when further factors are
    appended: |m| <= sum_{i<=depth} lambda_i and the next frequency clears
    that sum by more than |m| (always true at the final index).
    """
    _check_depth(spec, depth, "depth")
    stable = _stable_at(spec, m, depth)
    if spec.regime == DYADIC:
        value = _expansion(spec, depth).coefficient(m)
        return FourierCoefficient(value, stable)
    pattern = _representation(spec.freqs, m, depth)
    if pattern is None:
        return FourierCoefficient(0j, stable)
    value = _pattern_coefficient(spec, pattern)
    return FourierCoefficient(value, stable)


def spectrum_bands(spec: RieszSpec, depth: int) -> list[SpectralBand]:
    """Positive expansion frequencies grouped by highest participating index.

    Band n sits inside [lambda_n - S_{n-1}, lambda_n + S_{n-1}]; successive
    bands are disjoint in the lacunary3 regime (dyadic is refused, since
    interference destroys the grouping).
    """
    if spec.regime != LACUNARY3:
        raise RegimeError("spectrum bands are only defined in the lacunary3 regime",
                          "regime")
    _check_depth(spec, depth, "depth")
    freqs, _ = _expansion(spec, depth).arrays()
    positive = freqs[np.searchsorted(freqs, 0, side="right"):]
    bands = []
    below = 0  # S_{n-1}
    for n, lam in enumerate(spec.freqs.values[: depth + 1]):
        lo = np.searchsorted(positive, lam - below, side="left")
        hi = np.searchsorted(positive, lam + below, side="right")
        members = positive[lo:hi].tolist()
        if members:
            bands.append(SpectralBand(n, members[0], members[-1], tuple(members)))
        below += lam
    return bands


def convolve_products(p: TrigPolynomial, q: TrigPolynomial) -> TrigPolynomial:
    """Convolution of the underlying measures: pointwise coefficient product."""
    pm, pc = p.arrays()
    qm, qc = q.arrays()
    at = np.searchsorted(qm, pm)  # pm[i] is in qm iff it sits at qm[at[i]]
    common = at < qm.size
    common[common] = qm[at[common]] == pm[common]
    a, b = pc[common], qc[at[common]]
    return TrigPolynomial._from_parts(pm[common], *_times(a.real, a.imag, b.real, b.imag))


def randomize_phases(spec: RieszSpec, seed: int) -> RieszSpec:
    """Rotate each phase by an independent uniform angle on [0, 2pi).

    Deterministic for a fixed seed; moduli are unchanged.  The seed and
    generator name are carried on the returned spec for reproducibility.
    """
    rng = np.random.default_rng(seed)
    omega = rng.uniform(0.0, TWO_PI, len(spec.coeffs))
    new_phases = tuple(
        (spec.coeffs.phases[j] + float(omega[j])) % TWO_PI
        for j in range(len(spec.coeffs))
    )
    coeffs = CoefficientSequence(spec.coeffs.moduli, new_phases)
    return replace(spec, coeffs=coeffs, phase_seed=seed,
                   phase_generator=PHASE_GENERATOR)


def gram_centered_exponentials(spec: RieszSpec, j: int, k: int, depth: int) -> complex:
    """Inner product in L^2 of the measure of the centered exponentials
    f_j = e^{i lambda_j t} - conj(a_j)/2.

    Computed exactly in coefficient algebra: with c_m the expansion
    coefficients, int e^{imt} dmu = c_{-m}, so

        <f_j, f_k> = c_{lambda_k - lambda_j} - (a_k/2) c_{-lambda_j}
                     - (conj(a_j)/2) c_{lambda_k} + conj(a_j) a_k / 4 * c_0.

    Equals delta_{jk} (1 - |a_j|^2/4): the family is orthogonal with norms
    bounded between two positive constants.
    """
    if spec.regime != LACUNARY3:
        raise RegimeError("the Gram system requires the lacunary3 regime", "regime")
    _check_depth(spec, depth, "depth")
    if not (0 <= j <= depth and 0 <= k <= depth):
        raise ValidationError(f"indices j={j}, k={k} must lie in [0, depth={depth}]",
                              "index")
    lam_j = spec.freqs.values[j]
    lam_k = spec.freqs.values[k]
    needed = (lam_k - lam_j, -lam_j, lam_k, 0)
    coeffs = {}
    for m in needed:
        fc = fourier_coefficient(spec, m, depth)
        if not fc.stable:
            raise StabilityError(
                f"coefficient at frequency {m} is not stable at depth {depth}; "
                "increase depth", "stability")
        coeffs[m] = fc.value
    a_j = spec.coefficient(j)
    a_k = spec.coefficient(k)
    return (coeffs[lam_k - lam_j]
            - (a_k / 2) * coeffs[-lam_j]
            - (a_j.conjugate() / 2) * coeffs[lam_k]
            + (a_j.conjugate() * a_k / 4) * coeffs[0])
