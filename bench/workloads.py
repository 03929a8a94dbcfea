"""Seeded inputs, job lists and correctness oracles of the three workloads.

A workload is a fixed list of ``riesz`` jobs over spec and CSV files that
this module writes into a work directory.  The seed chooses values only
(phases, moduli, evaluation points, scale ladders, Λ subsets, planted
relations, the Monte Carlo and Sidon seeds); depths, frequency sequences,
grid sizes, set lengths and trial counts are constants here, so every seed
asks the program for the same amount of work.

Every job writes its report with ``--out out/<job>.csv``.  Its oracle reads
that report (and, for cross-checks, the reports of earlier jobs in the same
pass) and raises ``CheckFailed`` when the output is wrong.  Each oracle holds
for every seed, because the expected values follow from how the inputs were
built, not from a stored answer.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

TWO_PI = 2.0 * math.pi
INT64_SAFE = 2 ** 62


class CheckFailed(Exception):
    """A job's output failed its correctness oracle."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass(frozen=True)
class Job:
    name: str
    argv: tuple[str, ...]          # arguments after `riesz`
    check: Callable[[Path], None]  # called with the work directory


@dataclass(frozen=True)
class Workload:
    jobs: tuple[Job, ...]
    first_spec: str                # timed by setup_s with a cold `validate`


# ---------------------------------------------------------------------------
# files
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Spec:
    path: str                      # relative to the work directory
    freqs: tuple[int, ...]
    moduli: tuple[float, ...]
    phases: tuple[float, ...]
    regime: str = "lacunary3"

    def coefficient(self, j: int) -> complex:
        return self.moduli[j] * complex(math.cos(self.phases[j]),
                                        math.sin(self.phases[j]))

    def write(self, work: Path) -> None:
        doc = {
            "frequencies": {"rule": "explicit", "values": list(self.freqs)},
            "coefficients": {"explicit": [
                {"r": r, "theta": t} for r, t in zip(self.moduli, self.phases)]},
            "regime": self.regime,
        }
        (work / self.path).write_text(json.dumps(doc) + "\n", encoding="utf-8")


def random_spec(rng: random.Random, work: Path, path: str, freqs, r_lo: float,
                r_hi: float, regime: str = "lacunary3") -> Spec:
    count = len(freqs)
    spec = Spec(path, tuple(freqs),
                tuple(rng.uniform(r_lo, r_hi) for _ in range(count)),
                tuple(rng.uniform(0.0, TWO_PI) for _ in range(count)), regime)
    spec.write(work)
    return spec


def read_report(path: Path) -> tuple[dict, list[str], list[list[str]]]:
    """Config, header and rows of a CSV report."""
    with open(path, encoding="utf-8", newline="") as fh:
        first = fh.readline()
        expect(first.startswith("# config: "), f"{path.name}: no config line")
        reader = csv.reader(fh)
        header = next(reader)
        rows = list(reader)
    return json.loads(first[len("# config: "):]), header, rows


def read_coefficients(path: Path) -> dict[int, complex]:
    _, header, rows = read_report(path)
    expect(header == ["frequency", "re", "im"], f"{path.name}: header {header}")
    return {int(m): complex(float(re), float(im)) for m, re, im in rows}


def ints_csv(values) -> str:
    return ",".join(str(v) for v in values)


def floats_csv(values) -> str:
    return ",".join(repr(float(v)) for v in values)


# ---------------------------------------------------------------------------
# shared oracles
# ---------------------------------------------------------------------------


def check_expansion(coeffs: dict[int, complex], parseval: float, terms: int,
                    what: str, tolerance: float = 1e-12) -> None:
    """c_0 = 1, Hermitian symmetry, term count and Parseval within tolerance."""
    expect(len(coeffs) == terms, f"{what}: {len(coeffs)} terms, expected {terms}")
    expect(abs(coeffs.get(0, 0j) - 1.0) <= 1e-12, f"{what}: c_0 != 1")
    for m, c in coeffs.items():
        expect(abs(coeffs.get(-m, 0j) - c.conjugate()) <= 1e-12,
               f"{what}: c_{-m} != conj(c_{m})")
    total = math.fsum(abs(c) ** 2 for c in coeffs.values())
    expect(abs(total - parseval) <= tolerance,
           f"{what}: Parseval sum {total!r} != {parseval!r}")


def energy_total(path: Path) -> float:
    _, _, rows = read_report(path)
    return float(rows[-1][1])


def qi_result(path: Path) -> tuple[bool, list[int] | None]:
    _, header, rows = read_report(path)
    expect(header == ["quasi_independent", "witness"], f"{path.name}: header {header}")
    verdict, witness = rows[0]
    expect(verdict in ("true", "false"), f"{path.name}: verdict {verdict!r}")
    if verdict == "true":
        expect(witness == "", f"{path.name}: witness on a true verdict")
        return True, None
    return False, [int(x) for x in witness.split(",")]


def check_qi(work: Path, name: str, values, expected: bool,
             agree_with: str | None = None) -> None:
    """Expected verdict; a witness must be nontrivial and sum to zero in
    exact integers; the verdict must agree with another checker's."""
    verdict, witness = qi_result(work / "out" / f"{name}.csv")
    expect(verdict == expected, f"{name}: verdict {verdict}, expected {expected}")
    if witness is not None:
        expect(len(witness) == len(values), f"{name}: witness length")
        expect(all(e in (-1, 0, 1) for e in witness), f"{name}: witness signs")
        expect(any(witness), f"{name}: trivial witness")
        expect(sum(e * v for e, v in zip(witness, values)) == 0,
               f"{name}: witness does not sum to zero")
    if agree_with is not None:
        other, _ = qi_result(work / "out" / f"{agree_with}.csv")
        expect(other == verdict, f"{name}: disagrees with {agree_with}")


# ---------------------------------------------------------------------------
# spectral: bound by the expansion
# ---------------------------------------------------------------------------


def spectral(seed: int, work: Path, run_cli) -> Workload:
    rng = random.Random(f"spectral:{seed}")
    l3 = random_spec(rng, work, "in/l3.json", [3 ** j for j in range(11)], 0.3, 1.0)
    l3b = random_spec(rng, work, "in/l3b.json", l3.freqs, 0.3, 1.0)
    dyadic = random_spec(rng, work, "in/dyadic.json", [2 ** j for j in range(13)],
                         0.2, 0.9, "dyadic")
    g4 = random_spec(rng, work, "in/g4.json", [4 ** j for j in range(11)], 0.3, 0.9)
    alpha = rng.uniform(0.3, 0.9)
    interval_t = [rng.uniform(0.0, TWO_PI) for _ in range(2)]
    interval_s = [rng.uniform(0.02, 0.3)]
    holder_t = rng.uniform(0.0, TWO_PI)
    top = rng.uniform(0.3, 0.6)
    ladder = [top * 2.0 ** -i for i in range(9)]

    def out(name: str) -> Path:
        return work / "out" / f"{name}.csv"

    def check_coeffs_l3(_work):
        coeffs = read_coefficients(out("coeffs_l3"))
        parseval = math.prod(1 + r * r / 2 for r in l3.moduli)
        check_expansion(coeffs, parseval, 3 ** 11, "coeffs_l3")
        for j, lam in enumerate(l3.freqs):
            expect(abs(coeffs[lam] - l3.coefficient(j) / 2) <= 1e-12,
                   f"coeffs_l3: c at lambda_{j} != a_{j}/2")

    # frequencies collide in the dyadic regime: the reference coefficients
    # come from an FFT of the product sampled above the Nyquist rate
    nodes = 2 ** 15
    t = TWO_PI * np.arange(nodes) / nodes
    density = np.ones(nodes)
    for lam, r, th in zip(dyadic.freqs, dyadic.moduli, dyadic.phases):
        density *= 1.0 + r * np.cos(lam * t + th)
    dyadic_ref = np.fft.fft(density) / nodes
    dyadic_parseval = float(np.mean(density ** 2))

    # sums of distinct subsets of 2^0..2^12 with signs reach every integer
    # in [-degree, degree], so every one of those frequencies is a term
    degree = sum(dyadic.freqs)

    def check_coeffs_dyadic(_work):
        coeffs = read_coefficients(out("coeffs_dyadic"))
        # colliding terms are summed in floating point: a relative tolerance
        check_expansion(coeffs, dyadic_parseval, 2 * degree + 1, "coeffs_dyadic",
                        1e-12 * dyadic_parseval)
        expect(max(abs(m) for m in coeffs) == degree, "coeffs_dyadic: degree")
        worst = max(abs(coeffs.get(m, 0j) - dyadic_ref[m % nodes])
                    for m in range(-degree, degree + 1))
        expect(worst <= 1e-12, f"coeffs_dyadic: FFT mismatch {worst!r}")

    def check_spectrum(_work):
        _, _, rows = read_report(out("spectrum_l3"))
        expect(len(rows) == 10, f"spectrum_l3: {len(rows)} bands")
        for n, row in enumerate(rows):
            below = sum(l3.freqs[:n])
            expected = [n, l3.freqs[n] - below, l3.freqs[n] + below, 3 ** n]
            expect([int(x) for x in row] == expected,
                   f"spectrum_l3: band {n} is {row}, expected {expected}")

    def check_convolve(_work):
        coeffs = read_coefficients(out("convolve"))
        parseval = math.prod(1 + (r * s) ** 2 / 8
                             for r, s in zip(l3.moduli[:10], l3b.moduli[:10]))
        check_expansion(coeffs, parseval, 3 ** 10, "convolve")

    def check_energy(_work):
        direct = energy_total(out("energy_direct"))
        exact = energy_total(out("energy_band_exact"))
        expect(abs(direct - exact) <= 1e-10,
               f"energy: direct {direct!r} vs band_exact {exact!r}")

    def check_interval(_work):
        _, _, rows = read_report(out("interval"))
        expect(len(rows) == len(interval_t) * len(interval_s), "interval: rows")
        for row in rows:
            measure, bound = float(row[2]), float(row[3])
            expect(0.0 <= measure <= 1.0 + 1e-12, f"interval: measure {measure!r}")
            expect(measure <= bound + 1e-12,
                   f"interval: measure {measure!r} above bound {bound!r}")

    def check_holder(_work):
        config, _, rows = read_report(out("holder"))
        expect(len(rows) == len(ladder), f"holder: {len(rows)} admissible scales")
        ratios = [float(row[2]) for row in rows]
        expect(all(math.isfinite(x) and x >= 0.0 for x in ratios),
               f"holder: ratios {ratios}")
        expect(config["alpha_estimate"] == min(ratios[-3:]), "holder: estimate")

    d = "out/"
    jobs = (
        Job("coeffs_l3", ("coeffs", "--spec", l3.path, "--depth", "10",
                          "--out", d + "coeffs_l3.csv"), check_coeffs_l3),
        Job("coeffs_dyadic", ("coeffs", "--spec", dyadic.path, "--depth", "12",
                              "--out", d + "coeffs_dyadic.csv"), check_coeffs_dyadic),
        Job("spectrum_l3", ("spectrum", "--spec", l3.path, "--depth", "9",
                            "--out", d + "spectrum_l3.csv"), check_spectrum),
        Job("convolve", ("convolve", "--spec-a", l3.path, "--spec-b", l3b.path,
                         "--depth", "9", "--out", d + "convolve.csv"), check_convolve),
        Job("energy_direct", ("energy", "--spec", l3.path, "--alpha", repr(alpha),
                              "--variant", "direct", "--n-max", "9",
                              "--out", d + "energy_direct.csv"), lambda _w: None),
        Job("energy_band_exact", ("energy", "--spec", l3.path, "--alpha", repr(alpha),
                                  "--variant", "band_exact", "--n-max", "9",
                                  "--out", d + "energy_band_exact.csv"), check_energy),
        Job("interval", ("interval", "--spec", g4.path, "--depth", "10",
                         "--t", floats_csv(interval_t), "--s", floats_csv(interval_s),
                         "--n", "2", "--out", d + "interval.csv"), check_interval),
        Job("holder", ("holder", "--spec", g4.path, "--depth", "10",
                       "--t", repr(holder_t), "--scales", floats_csv(ladder),
                       "--out", d + "holder.csv"), check_holder),
    )
    return Workload(jobs, l3.path)


# ---------------------------------------------------------------------------
# grid: bound by pointwise and grid work; never expands
# ---------------------------------------------------------------------------


def band_exact_reference(spec: Spec, alpha: float, n_max: int) -> float:
    """sum_{m != 0} |c_m|^2 |m|^(alpha-1) of the depth-n_max product,
    summed band by band over the squared spectrum."""
    freqs = np.zeros(1)
    weights = np.ones(1)
    total = 0.0
    for n in range(n_max + 1):
        lam, q = spec.freqs[n], spec.moduli[n] ** 2 / 4.0
        total += 2.0 * q * float(np.sum(weights * (lam + freqs) ** (alpha - 1.0)))
        freqs = np.concatenate((freqs, freqs + lam, freqs - lam))
        weights = np.concatenate((weights, weights * q, weights * q))
    return total


def grid(seed: int, work: Path, run_cli) -> Workload:
    rng = random.Random(f"grid:{seed}")
    g4 = random_spec(rng, work, "in/g4.json", [4 ** j for j in range(13)], 0.3, 0.9)
    pair_freqs = [4 ** j for j in range(32)]
    pair_a = random_spec(rng, work, "in/pair_a.json", pair_freqs, 0.2, 0.9)
    # b: every phase turned by at least 0.5, so |a_j - b_j|^2 is not summable
    turns = [rng.uniform(0.5, 1.0) for _ in pair_freqs]
    pair_b = Spec("in/pair_b.json", pair_a.freqs, pair_a.moduli,
                  tuple((p + x) % TWO_PI for p, x in zip(pair_a.phases, turns)))
    pair_b.write(work)
    # c: same moduli, phases turned by 2^-j u, so the l2 gap converges
    tilt = rng.uniform(0.1, 1.0)
    pair_c = Spec("in/pair_c.json", pair_a.freqs, pair_a.moduli,
                  tuple((p + tilt * 2.0 ** -j) % TWO_PI
                        for j, p in enumerate(pair_a.phases)))
    pair_c.write(work)
    (work / "in/tails_divergent.json").write_text('{"l2_gap": "divergent"}\n')
    (work / "in/tails_convergent.json").write_text('{"l2_gap": "convergent"}\n')
    alpha = rng.uniform(0.3, 0.9)
    mc_seed = rng.randrange(2 ** 31)
    gram_pairs = ((2, 2), (1, 4))
    points = 20_000

    def out(name: str) -> Path:
        return work / "out" / f"{name}.csv"

    def check_eval(_work):
        _, _, rows = read_report(out("eval"))
        expect(len(rows) == points, f"eval: {len(rows)} points")
        t = TWO_PI * np.arange(points) / points
        ref = np.ones(points)
        for j in range(9):
            ref *= 1.0 + g4.moduli[j] * np.cos(g4.freqs[j] * t + g4.phases[j])
        got = np.array([float(row[1]) for row in rows])
        expect(bool(np.all(got >= 0.0)), "eval: negative value")
        worst = float(np.max(np.abs(got - ref) / (1.0 + ref)))
        expect(worst <= 1e-12, f"eval: mismatch {worst!r} against numpy product")

    def check_dim(_work):
        quad = read_report(out("dim_quadrature"))[2]
        mc = read_report(out("dim_monte_carlo"))[2]
        expect([r[0] for r in quad] == [r[0] for r in mc] == list("12345"),
               "dim: n values")
        worst = max(abs(float(a[1]) - float(b[1])) for a, b in zip(quad, mc))
        expect(worst <= 3e-3, f"dim: quadrature vs Monte Carlo differ by {worst!r}")

    band_ref = band_exact_reference(g4, alpha, 12)

    def check_band_exact(_work):
        total = energy_total(out("energy_band_exact"))
        expect(abs(total - band_ref) <= 1e-10,
               f"energy_band_exact: total {total!r}, reference {band_ref!r}")

    def check_band_paper(_work):
        _, _, rows = read_report(out("energy_band_paper"))
        prod, partial = 1.0, 0.0
        for n, row in enumerate(rows):
            partial += g4.freqs[n] ** (alpha - 1.0) * g4.moduli[n] ** 2 * prod
            prod *= 1.0 + g4.moduli[n] ** 2
            expect(abs(float(row[1]) - partial) <= 1e-12 * partial,
                   f"energy_band_paper: partial sum {n}")
        expect(len(rows) == 13, "energy_band_paper: rows")

    def check_gram(j, k):
        def check(_work):
            _, _, rows = read_report(out(f"gram_{j}_{k}"))
            value = complex(float(rows[0][2]), float(rows[0][3]))
            expected = 1.0 - g4.moduli[j] ** 2 / 4.0 if j == k else 0.0
            expect(abs(value - expected) <= 1e-12, f"gram_{j}_{k}: {value!r}")
        return check

    def check_classify(name, outcome, criterion):
        def check(_work):
            config, _, _ = read_report(out(name))
            got = (config.get("outcome"), config.get("criterion"))
            expect(got == (outcome, criterion), f"{name}: verdict {got}")
        return check

    def check_witness(_work):
        _, _, rows = read_report(out("witness"))
        expect(len(rows) == len(pair_freqs), "witness: rows")
        sigma = inner = 0.0
        for j, row in enumerate(rows):
            gap = pair_a.coefficient(j) - pair_b.coefficient(j)
            sigma += (gap * gap.conjugate()).real
            c = gap / sigma
            inner += (c * gap.conjugate()).real
            got = complex(float(row[1]), float(row[2]))
            expect(abs(got - c) <= 1e-12, f"witness: c_{j}")
            expect(abs(float(row[3]) - inner) <= 1e-12 * max(1.0, inner),
                   f"witness: inner partial sum {j}")
            if j:
                expect(float(row[3]) >= float(rows[j - 1][3]),
                       "witness: inner partial sums decrease")

    d = "out/"
    energy = ("energy", "--spec", g4.path, "--alpha", repr(alpha), "--n-max", "12")
    dim = ("dim", "--spec", g4.path, "--n-min", "1", "--n-max", "5", "--depth", "8")
    jobs = [
        Job("eval", ("eval", "--spec", g4.path, "--depth", "8", "--grid", str(points),
                     "--out", d + "eval.csv"), check_eval),
        Job("dim_quadrature", dim + ("--out", d + "dim_quadrature.csv"),
            lambda _w: None),
        Job("dim_monte_carlo", dim + ("--method", "monte_carlo",
                                      "--seed", str(mc_seed), "--samples", "1000000",
                                      "--out", d + "dim_monte_carlo.csv"), check_dim),
        Job("energy_band_exact", energy + ("--variant", "band_exact",
                                           "--out", d + "energy_band_exact.csv"),
            check_band_exact),
        Job("energy_band_paper", energy + ("--variant", "band_paper",
                                           "--out", d + "energy_band_paper.csv"),
            check_band_paper),
    ]
    jobs += [Job(f"gram_{j}_{k}", ("gram", "--spec", g4.path, "--j", str(j),
                                    "--k", str(k), "--depth", "6",
                                    "--out", d + f"gram_{j}_{k}.csv"), check_gram(j, k))
             for j, k in gram_pairs]
    jobs += [
        Job("classify_singular",
            ("classify", "--spec-a", pair_a.path, "--spec-b", pair_b.path,
             "--tails", "in/tails_divergent.json", "--out", d + "classify_singular.csv"),
            check_classify("classify_singular", "mutually_singular",
                           "l2_gap_divergent")),
        Job("classify_equivalent",
            ("classify", "--spec-a", pair_a.path, "--spec-b", pair_c.path,
             "--tails", "in/tails_convergent.json",
             "--out", d + "classify_equivalent.csv"),
            check_classify("classify_equivalent", "equivalent",
                           "equal_moduli_l2_gap_convergent")),
        Job("witness", ("witness", "--spec-a", pair_a.path, "--spec-b", pair_b.path,
                        "--terms", str(len(pair_freqs)), "--out", d + "witness.csv"),
            check_witness),
    ]
    return Workload(tuple(jobs), g4.path)


# ---------------------------------------------------------------------------
# combinatorial: bound by the quasi-independence checkers
# ---------------------------------------------------------------------------


def dominant(rng: random.Random, k: int, scale: int = 1) -> list[int]:
    """Each element exceeds twice the sum of those before it, so no
    {-1,0,1} relation exists: the set is quasi-independent."""
    values, total = [], 0
    for _ in range(k):
        v = 2 * total + 1 + rng.randint(0, max(total // 4, 1))
        values.append(v * scale)
        total += v
    return values


def planted(rng: random.Random, k: int, a: int, b: int, p: int) -> list[int]:
    """Dominant except v_p = v_a + v_b.  Twice-the-sum growth keeps
    +-(e_a + e_b - e_p) the only relation, so the checkers' scans stop at
    the same pattern for every seed."""
    values, total = [], 0
    for j in range(k):
        if j == p:
            v = values[a] + values[b]
        else:
            v = 2 * total + 1 + rng.randint(0, max(total // 4, 1))
        values.append(v)
        total += v
    return values


def combinatorial(seed: int, work: Path, run_cli) -> Workload:
    rng = random.Random(f"combinatorial:{seed}")
    int64_qi = dominant(rng, 16)
    exact_qi = dominant(rng, 12, scale=2 ** 60)
    early = planted(rng, 16, 0, 1, 2)
    late = planted(rng, 24, 3, 14, 20)
    sidon_set = dominant(rng, 8)
    sidon_seed = rng.randrange(2 ** 31)
    # no job reads a spec; this one exists for the cold `validate` of setup_s
    setup_spec = random_spec(rng, work, "in/setup.json", [4 ** j for j in range(8)],
                             0.3, 0.9)

    # the Λ prefix comes from the program itself, built before timing starts
    run_cli(("qi", "lambda", "--nu", "3", "--out", "in/lambda3.csv"))
    prefix = [int(row[2]) for row in read_report(work / "in/lambda3.csv")[2]]
    expect(len(prefix) == 31, f"Λ prefix has {len(prefix)} elements, expected 31")
    # at least one element beyond int64 range forces the exact path
    wide = [i for i, v in enumerate(prefix) if abs(v) * 11 >= INT64_SAFE]
    first = rng.choice(wide)
    rest = rng.sample([i for i in range(31) if i != first], 21)
    lambda_subset = [prefix[i] for i in sorted([first] + rest)]

    assert max(int64_qi) * 16 < INT64_SAFE and max(late) * 24 < INT64_SAFE
    assert max(sidon_set) * math.pi < 131_072

    def qi_job(name, method, values, expected, agree_with=None):
        return Job(name, ("qi", "check", "--method", method,
                          "--values=" + ints_csv(values), "--out", f"out/{name}.csv"),
                   lambda w: check_qi(w, name, values, expected, agree_with))

    lambda_sizes = (3, 8, 20, 48)

    def check_lambda(w):
        _, _, rows = read_report(w / "out/lambda.csv")
        expect(len(rows) == sum(lambda_sizes), f"lambda: {len(rows)} elements")
        expect([int(r[2]) for r in rows[:31]] == prefix, "lambda: prefix changed")

    def check_mesh(w):
        config, _, rows = read_report(w / "out/mesh.csv")
        gamma = {int(r[2]) for r in read_report(w / "out/lambda.csv")[2]}
        expect(config.get("count") == 20 and len(rows) == 20,
               f"mesh: count {config.get('count')}, expected N_3 = 20")
        expect(all(int(r[0]) in gamma for r in rows), "mesh: member not in Λ")

    def check_sidon(w):
        bound = float(read_report(w / "out/sidon_bound.csv")[2][0][1])
        expect(abs(bound - 3 * math.sqrt(3)) <= 1e-9, f"sidon bound: {bound!r}")
        lower = float(read_report(w / "out/sidon_estimate.csv")[2][0][0])
        expect(0.0 < lower <= bound, f"sidon estimate: {lower!r} vs bound {bound!r}")

    jobs = (
        qi_job("brute_int64_qi", "brute", int64_qi, True),
        qi_job("mitm_int64_qi", "mitm", int64_qi, True, "brute_int64_qi"),
        qi_job("brute_exact_qi", "brute", exact_qi, True),
        qi_job("mitm_exact_qi", "mitm", exact_qi, True, "brute_exact_qi"),
        qi_job("brute_early_witness", "brute", early, False),
        qi_job("mitm_early_witness", "mitm", early, False, "brute_early_witness"),
        qi_job("mitm_lambda_subset", "mitm", lambda_subset, True),
        qi_job("mitm_planted", "mitm", late, False),
        Job("lambda", ("qi", "lambda", "--nu", "4", "--out", "out/lambda.csv"),
            check_lambda),
        Job("mesh", ("mesh", "count", "--lambda", "out/lambda.csv", "--block", "3",
                     "--k", "12", "--out", "out/mesh.csv"), check_mesh),
        Job("sidon_bound", ("sidon", "bound", "--k", "1",
                            "--out", "out/sidon_bound.csv"), lambda _w: None),
        Job("sidon_estimate", ("sidon", "estimate", "--set=" + ints_csv(sidon_set),
                               "--trials", "10", "--grid", "131072",
                               "--seed", str(sidon_seed),
                               "--out", "out/sidon_estimate.csv"), check_sidon),
    )
    return Workload(jobs, setup_spec.path)


def grid_combinatorial(seed: int, work: Path, run_cli) -> Workload:
    """Both job lists in one pass.  Neither expands, so together they are the
    workload that bypasses the expansion engine, while the separate lists
    stay available for traced runs that split grid work from qi work."""
    first = grid(seed, work, run_cli)
    second = combinatorial(seed, work, run_cli)
    return Workload(first.jobs + second.jobs, first.first_spec)


WORKLOADS = {"spectral": spectral, "grid_combinatorial": grid_combinatorial,
             "grid": grid, "combinatorial": combinatorial}
