"""Batch front door: spec files in, deterministic CSV/JSON reports out.

One module operation per invocation.  Exit codes partition the outcomes:
0 success, 2 validation error (bad file, bad argument, unknown command),
3 cap or resource refusal.  Identical config and seed produce byte-identical
reports; --threads is a parallelism hint only and never changes results.
"""

from __future__ import annotations

import argparse
import math
import sys

from . import analysis, classify, qi
from .core import (
    CapError,
    ValidationError,
    eval_partial_product,
    expand_partial_product,
    gram_centered_exponentials,
    convolve_products,
    spectrum_bands,
)
from .specio import (
    Diagnostic,
    SpecFileError,
    load_spec,
    load_tails,
    schema_validate,
    write_report,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_CAP = 3

STOCHASTIC_COMMANDS = {("sidon", "estimate")}


def _comma_ints(text: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",") if x.strip() != ""]
    except ValueError:
        raise ValidationError(f"expected comma-separated integers, got {text!r}",
                              "arguments")


def _comma_floats(text: str) -> list[float]:
    try:
        return [float(x) for x in text.split(",") if x.strip() != ""]
    except ValueError:
        raise ValidationError(f"expected comma-separated numbers, got {text!r}",
                              "arguments")


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", help="output file (default: stdout)")
    common.add_argument("--format", choices=("csv", "json"), default="csv")
    common.add_argument("--seed", type=int, default=None,
                        help="seed for stochastic commands (mandatory there)")
    common.add_argument("--threads", type=int, default=1,
                        help="parallelism hint; never changes results")

    parser = argparse.ArgumentParser(
        prog="riesz",
        description="Riesz products: expansion, classification, dimension, "
                    "quasi-independent sets")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("coeffs", parents=[common],
                       help="expansion coefficients of a partial product")
    p.add_argument("--spec", required=True)
    p.add_argument("--depth", type=int, required=True)

    p = sub.add_parser("eval", parents=[common], help="pointwise evaluation")
    p.add_argument("--spec", required=True)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--t", help="comma-separated points")
    p.add_argument("--grid", type=int, help="number of uniform grid points")

    p = sub.add_parser("spectrum", parents=[common], help="spectral bands")
    p.add_argument("--spec", required=True)
    p.add_argument("--depth", type=int, required=True)

    p = sub.add_parser("convolve", parents=[common],
                       help="Fourier-side convolution of two partial products")
    p.add_argument("--spec-a", required=True)
    p.add_argument("--spec-b", required=True)
    p.add_argument("--depth", type=int, required=True)

    p = sub.add_parser("gram", parents=[common],
                       help="inner product of centered exponentials")
    p.add_argument("--spec", required=True)
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--depth", type=int, required=True)

    p = sub.add_parser("energy", parents=[common], help="alpha-energy series")
    p.add_argument("--spec", required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--variant", choices=("direct", "band_paper", "band_exact"),
                   default="band_exact")
    p.add_argument("--n-max", type=int, default=None)
    p.add_argument("--cutoff", type=int, default=None,
                   help="frequency cutoff for the direct variant")

    p = sub.add_parser("dim", parents=[common], help="dimension bracket")
    p.add_argument("--spec", required=True)
    p.add_argument("--n-min", type=int, required=True)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--method", choices=("quadrature", "monte_carlo"),
                   default="quadrature")
    p.add_argument("--samples", type=int, default=200_000)

    p = sub.add_parser("interval", parents=[common],
                       help="interval mass and its Fourier-side upper bound")
    p.add_argument("--spec", required=True)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--t", required=True, help="comma-separated centers")
    p.add_argument("--s", required=True, help="comma-separated half-widths")
    p.add_argument("--n", type=int, default=0, help="truncation order of the bound")

    p = sub.add_parser("holder", parents=[common], help="local scaling exponents")
    p.add_argument("--spec", required=True)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--scales", required=True, help="comma-separated scales")

    p = sub.add_parser("classify", parents=[common],
                       help="mutual singularity vs equivalence")
    p.add_argument("--spec-a", required=True)
    p.add_argument("--spec-b", required=True)
    p.add_argument("--tails", help="JSON file of declared tail behaviors")

    p = sub.add_parser("witness", parents=[common],
                       help="divergence witness sequence for a singular pair")
    p.add_argument("--spec-a", required=True)
    p.add_argument("--spec-b", required=True)
    p.add_argument("--terms", type=int, default=None)

    p = sub.add_parser("qi", parents=[common], help="quasi-independence tools")
    p.add_argument("mode", choices=("check", "build", "lambda"))
    p.add_argument("--values", help="comma-separated integers (check)")
    p.add_argument("--method", choices=("auto", "brute", "mitm"), default="auto")
    p.add_argument("--nu", type=int, help="construction level (build / lambda)")
    p.add_argument("--emit", help="alias for --out")

    p = sub.add_parser("mesh", parents=[common], help="mesh intersection counts")
    p.add_argument("mode", choices=("count",))
    p.add_argument("--lambda", dest="lambda_csv", required=True,
                   help="CSV of set elements (gamma column or last column)")
    p.add_argument("--block", type=int, required=True,
                   help="generator block level")
    p.add_argument("--k", type=int, default=None,
                   help="pad the generator block to k generators")

    p = sub.add_parser("sidon", parents=[common], help="Sidon constant bounds")
    p.add_argument("mode", choices=("bound", "estimate"))
    p.add_argument("--k", type=int, help="number of quasi-independent pieces (bound)")
    p.add_argument("--set", dest="values", help="comma-separated frequencies (estimate)")
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--grid", type=int, default=None)

    p = sub.add_parser("validate", parents=[common], help="spec file diagnostics")
    p.add_argument("--spec", required=True)

    return parser


def _config(args, **extra) -> dict:
    cfg = {k: v for k, v in sorted(vars(args).items()) if v is not None}
    cfg.update({k: v for k, v in extra.items() if v is not None})
    return cfg


def _emit(args, header, rows, config) -> None:
    out = getattr(args, "out", None) or getattr(args, "emit", None)
    text = write_report(out, args.format, header, rows, config)
    if not out:
        sys.stdout.write(text)


def _require_seed(args) -> int:
    if args.seed is None:
        raise ValidationError("--seed is mandatory for stochastic commands", "seed")
    return args.seed


def _complex_rows(poly) -> list[tuple]:
    ms, cs = poly.arrays()
    return list(zip(ms.tolist(), cs.real.tolist(), cs.imag.tolist()))


def run(args) -> int:
    cmd = args.command
    if cmd == "validate":
        diagnostics = schema_validate(args.spec)
        rows = [[d.path, d.message] for d in diagnostics]
        _emit(args, ["path", "message"], rows, _config(args))
        return EXIT_OK if not diagnostics else EXIT_VALIDATION

    if cmd == "coeffs":
        poly = expand_partial_product(load_spec(args.spec), args.depth)
        _emit(args, ["frequency", "re", "im"], _complex_rows(poly), _config(args))
        return EXIT_OK

    if cmd == "eval":
        spec = load_spec(args.spec)
        if args.grid:
            ts = [2 * math.pi * i / args.grid for i in range(args.grid)]
        elif args.t:
            ts = _comma_floats(args.t)
        else:
            raise ValidationError("eval needs --t or --grid", "arguments")
        rows = [[t, eval_partial_product(spec, args.depth, t)] for t in ts]
        _emit(args, ["t", "value"], rows, _config(args))
        return EXIT_OK

    if cmd == "spectrum":
        bands = spectrum_bands(load_spec(args.spec), args.depth)
        rows = [[b.index, b.lo, b.hi, len(b.freqs)] for b in bands]
        _emit(args, ["band", "min_freq", "max_freq", "count"], rows, _config(args))
        return EXIT_OK

    if cmd == "convolve":
        pa = expand_partial_product(load_spec(args.spec_a), args.depth)
        pb = expand_partial_product(load_spec(args.spec_b), args.depth)
        _emit(args, ["frequency", "re", "im"],
              _complex_rows(convolve_products(pa, pb)), _config(args))
        return EXIT_OK

    if cmd == "gram":
        value = gram_centered_exponentials(load_spec(args.spec), args.j, args.k,
                                           args.depth)
        _emit(args, ["j", "k", "re", "im"],
              [[args.j, args.k, value.real, value.imag]], _config(args))
        return EXIT_OK

    if cmd == "energy":
        spec = load_spec(args.spec)
        if args.variant == "direct":
            depth = args.n_max if args.n_max is not None else spec.last_index
            poly = expand_partial_product(spec, depth)
            cutoff = args.cutoff if args.cutoff is not None else poly.degree
            report = analysis.alpha_energy_direct(poly, args.alpha, cutoff)
        else:
            n_max = args.n_max if args.n_max is not None else spec.last_index
            report = analysis.alpha_energy_band_series(spec, args.alpha, n_max,
                                                       args.variant)
        rows = [[report.alpha, ps, report.verdict] for ps in report.partial_sums]
        _emit(args, ["alpha", "partial_sum", "verdict"], rows,
              _config(args, variant=report.variant))
        return EXIT_OK

    if cmd == "dim":
        spec = load_spec(args.spec)
        seed = _require_seed(args) if args.method == "monte_carlo" else 0
        report = analysis.dimension_bounds(
            spec, range(args.n_min, args.n_max + 1), args.depth,
            method=args.method, seed=seed, samples=args.samples)
        rows = [[n, l] for n, l in report.l_values]
        _emit(args, ["n", "L_n"], rows,
              _config(args, lower=report.lower, upper=report.upper,
                      generator="numpy-pcg64" if args.method == "monte_carlo" else None))
        print(f"dimension bracket: [{report.lower!r}, {report.upper!r}]",
              file=sys.stderr)
        return EXIT_OK

    if cmd == "interval":
        spec = load_spec(args.spec)
        rows = []
        for t in _comma_floats(args.t):
            for s in _comma_floats(args.s):
                measure = analysis.interval_measure(spec, args.depth, t, s)
                bound = analysis.interval_upper_bound(spec, args.n, args.depth, t, s)
                rows.append([t, s, measure, bound])
        _emit(args, ["t", "s", "measure", "bound"], rows, _config(args))
        return EXIT_OK

    if cmd == "holder":
        spec = load_spec(args.spec)
        sample = analysis.local_holder(spec, args.depth, args.t,
                                       _comma_floats(args.scales))
        rows = [[sample.t, s, r] for s, r in zip(sample.scales, sample.ratios)]
        _emit(args, ["t", "s", "ratio"], rows,
              _config(args, alpha_estimate=sample.alpha_estimate,
                      excluded=len(sample.excluded)))
        return EXIT_OK

    if cmd == "classify":
        spec_a, spec_b = load_spec(args.spec_a), load_spec(args.spec_b)
        tails = load_tails(args.tails) if args.tails else None
        verdict = classify.classify_pair(spec_a, spec_b, tails)
        print(f"verdict: {verdict.outcome} criterion: {verdict.criterion}")
        rows = [[name, i, ps]
                for name, ev in verdict.evidence
                for i, ps in enumerate(ev.partial_sums)]
        _emit(args, ["series", "index", "partial_sum"], rows,
              _config(args, outcome=verdict.outcome, criterion=verdict.criterion))
        return EXIT_OK

    if cmd == "witness":
        spec_a, spec_b = load_spec(args.spec_a), load_spec(args.spec_b)
        terms = args.terms if args.terms is not None else len(spec_a.coeffs)
        witness = classify.build_divergence_witness(spec_a.coeffs, spec_b.coeffs,
                                                    terms)
        rows = [[j, witness.c[j].real, witness.c[j].imag,
                 witness.partial_inner[j], witness.l2_norm_partial[j]]
                for j in range(len(witness.c))]
        _emit(args, ["j", "c_re", "c_im", "partial_inner", "l2_partial"], rows,
              _config(args))
        return EXIT_OK

    if cmd == "qi":
        return _run_qi(args)
    if cmd == "mesh":
        return _run_mesh(args)
    if cmd == "sidon":
        return _run_sidon(args)
    raise ValidationError(f"unknown command {cmd!r}", "command")


def _run_qi(args) -> int:
    if args.mode == "check":
        if not args.values:
            raise ValidationError("qi check needs --values", "arguments")
        vset = qi.IntVectorSet.from_integers(_comma_ints(args.values))
        if args.method == "brute":
            result = qi.qi_check_bruteforce(vset)
        elif args.method == "mitm":
            result = qi.qi_check_mitm(vset)
        else:
            result = (qi.qi_check_bruteforce(vset) if len(vset) <= qi.BRUTE_FORCE_CAP
                      else qi.qi_check_mitm(vset))
        witness = ""
        if result.witness is not None:
            witness = ",".join(str(s) for s in result.witness.signs(len(vset)))
        print(f"verdict: {str(result.quasi_independent).lower()}")
        if witness:
            print(f"witness: {witness}")
        _emit(args, ["quasi_independent", "witness"],
              [[result.quasi_independent, witness]], _config(args))
        return EXIT_OK
    if args.mode == "build":
        if args.nu is None:
            raise ValidationError("qi build needs --nu", "arguments")
        matrix = qi.build_qi_matrix(args.nu)
        header = ["col"] + [f"r{i}" for i in range(2 ** args.nu)]
        rows = [[c] + list(col) for c, col in enumerate(matrix.columns())]
        _emit(args, header, rows, _config(args, column_count=matrix.column_count))
        return EXIT_OK
    if args.mode == "lambda":
        if args.nu is None:
            raise ValidationError("qi lambda needs --nu", "arguments")
        lam = qi.build_lambda(args.nu)
        rows = []
        for nu in range(1, args.nu + 1):
            lo, hi = lam.blocks[nu - 1]
            rows.extend([ell, nu, lam.gamma[ell]] for ell in range(lo, hi))
        _emit(args, ["ell", "block", "gamma"], rows, _config(args))
        return EXIT_OK
    raise ValidationError(f"unknown qi mode {args.mode!r}", "command")


def _read_elements_csv(path) -> list[int]:
    """Set elements from a CSV: last column of each row, header line skipped."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = [ln.strip() for ln in fh if ln.strip() and not ln.startswith("#")]
    except OSError as err:
        raise SpecFileError([Diagnostic(str(path), f"unreadable file: {err}")])
    values = []
    for ln in lines:
        field = ln.split(",")[-1].strip()
        try:
            values.append(int(field))
        except ValueError:
            continue  # header or non-numeric row
    return values


def _run_mesh(args) -> int:
    elements = _read_elements_csv(args.lambda_csv)
    base = qi.build_dissociated_base(args.block)
    gens = list(base.block(args.block))
    if args.k is not None:
        if args.k < len(gens):
            raise ValidationError(
                f"--k must be >= the block size {len(gens)}", "arguments")
        scale = 4 * (sum(gens) + max((abs(x) for x in elements), default=1) + 1)
        gens += [scale * 3 ** i for i in range(args.k - len(gens))]
    result = qi.mesh_intersection(elements, qi.Mesh.unit_box(gens))
    print(f"count: {result.count}")
    _emit(args, ["member"], [[m] for m in result.members],
          _config(args, count=result.count))
    return EXIT_OK


def _run_sidon(args) -> int:
    if args.mode == "bound":
        if args.k is None:
            raise ValidationError("sidon bound needs --k", "arguments")
        value = qi.sidon_union_bound(args.k)
        print(f"bound: {value!r}")
        _emit(args, ["k", "bound"], [[args.k, value]], _config(args))
        return EXIT_OK
    if not args.values:
        raise ValidationError("sidon estimate needs --set", "arguments")
    seed = _require_seed(args)
    estimate = qi.sidon_lower_estimate(_comma_ints(args.values),
                                       trials=args.trials, seed=seed,
                                       grid_size=args.grid)
    print(f"certified lower bound: {estimate.lower_bound!r}")
    _emit(args, ["lower_bound", "grid_ratio", "grid_size", "degree", "factor"],
          [[estimate.lower_bound, estimate.grid_ratio, estimate.grid_size,
            estimate.degree, estimate.factor]],
          _config(args, generator=estimate.generator))
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return run(args)
    except CapError as err:
        print(f"refused: {err}", file=sys.stderr)
        return EXIT_CAP
    except SpecFileError as err:
        for d in err.diagnostics:
            print(f"invalid: {d}", file=sys.stderr)
        return EXIT_VALIDATION
    except ValidationError as err:
        print(f"invalid: {err}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as err:
        print(f"invalid: {err}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
