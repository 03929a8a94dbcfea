"""Batch front door: spec files in, deterministic CSV/JSON reports out.

One module operation per invocation.  Exit codes partition the outcomes:
0 success, 2 validation error (bad file, bad argument, unknown command),
3 cap or resource refusal.  Identical config and seed produce byte-identical
reports, whatever the CPUs the process may use; --threads is accepted for old
command lines and ignored.  ``COMMANDS`` holds one handler per (command, mode);
a handler writes nothing, and ``run`` writes its report, then its note on stderr.
numpy is imported by the first name a command reads from ``np`` (the
``_lazynp`` module's hook); the integer and ``complex`` commands never import it.
"""

from __future__ import annotations

import argparse
import importlib.util
import math
import os
import sys
from typing import NamedTuple

from . import _lazynp as np
from .core import (
    PHASE_GENERATOR,
    CapError,
    ValidationError,
    _check_grid,
    _grid,
    eval_partial_product,
    expand_partial_product,
    gram_centered_exponentials,
    convolve_products,
    spectrum_bands,
)
from .specio import (
    SpecFileError,
    load_elements,
    load_spec,
    load_tails,
    schema_validate,
    write_report,
)


def _deferred(layer: str):
    """The layer ``rieszprod.<layer>``, compiled and run on its first attribute
    access (``importlib.util.LazyLoader``), so a command pays only for the
    layers it uses.  The module is registered in ``sys.modules`` and on the
    package as an import would do it; one already imported is kept."""
    name = f"{__package__}.{layer}"
    module = sys.modules.get(name)
    if module is None:
        spec = importlib.util.find_spec(name)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        setattr(sys.modules[__package__], layer, module)
    return module


analysis, classify, qi = map(_deferred, ("analysis", "classify", "qi"))

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_CAP = 3


def _comma_ints(text: str) -> list[int]:
    try:
        values = [int(x) for x in text.split(",") if x.strip() != ""]
    except ValueError:
        values = []
    if not values:
        raise ValidationError(f"expected comma-separated integers, got {text!r}", "arguments")
    return values


def _comma_floats(text: str) -> list[float]:
    try:
        values = [float(x) for x in text.split(",") if x.strip() != ""]
    except ValueError:
        values = []
    if not values or not all(map(math.isfinite, values)):
        raise ValidationError(f"expected finite numbers, got {text!r}", "arguments")
    return values


class _Parser(argparse.ArgumentParser):
    """Refuses a command line (unknown command or option, missing or malformed
    argument) with one ``invalid:`` line and exit 2, as every diagnostic; its
    subparsers are of this class too."""

    def error(self, message: str):
        _diagnose("invalid", message)
        sys.exit(EXIT_VALIDATION)


def _parent(*flags, required=True, **kwargs) -> argparse.ArgumentParser:
    parent = argparse.ArgumentParser(add_help=False)
    for flag in flags:
        parent.add_argument(flag, required=required, **kwargs)
    return parent


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", help="output file (default: stdout)")
    common.add_argument("--format", choices=("csv", "json"), default="csv")
    common.add_argument("--threads", type=int, default=1,
                        help="accepted for old command lines and ignored")
    spec, depth = _parent("--spec"), _parent("--depth", type=int)
    seed = _parent("--seed", type=int, required=False, help="mandatory in the stochastic mode")
    pair = _parent("--spec-a", "--spec-b")

    parser = _Parser(prog="riesz", description="Riesz products: expansion, "
                     "classification, dimension, quasi-independent sets")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, help: str, *parents) -> argparse.ArgumentParser:
        return sub.add_parser(name, parents=[common, *parents], help=help)

    command("coeffs", "expansion coefficients of a partial product", spec, depth)

    p = command("eval", "pointwise evaluation", spec, depth)
    points = p.add_mutually_exclusive_group()
    points.add_argument("--t", help="comma-separated points")
    points.add_argument("--grid", type=int, help="number of uniform grid points")

    command("spectrum", "spectral bands", spec, depth)
    command("convolve", "Fourier-side convolution of two partial products", pair, depth)

    p = command("gram", "inner product of centered exponentials", spec, depth)
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--k", type=int, required=True)

    p = command("energy", "alpha-energy series", spec)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--variant", choices=("direct", "band_paper", "band_exact"),
                   default="band_exact")
    p.add_argument("--n-max", type=int, default=None)
    p.add_argument("--cutoff", type=int, default=None,
                   help="frequency cutoff for the direct variant")

    p = command("dim", "dimension bracket", spec, depth, seed)
    p.add_argument("--n-min", type=int, required=True)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--method", choices=("quadrature", "monte_carlo"), default="quadrature")
    p.add_argument("--samples", type=int, default=200_000)

    p = command("interval", "interval mass and its Fourier-side upper bound", spec, depth)
    p.add_argument("--t", required=True, help="comma-separated centers")
    p.add_argument("--s", required=True, help="comma-separated half-widths")
    p.add_argument("--n", type=int, default=0, help="truncation order of the bound")

    p = command("holder", "local scaling exponents", spec, depth)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--scales", required=True, help="comma-separated scales")

    p = command("classify", "mutual singularity vs equivalence", pair)
    p.add_argument("--tails", help="JSON file of declared tail behaviors")

    p = command("witness", "divergence witness sequence for a singular pair", pair)
    p.add_argument("--terms", type=int, default=None)

    p = command("qi", "quasi-independence tools")
    p.add_argument("mode", choices=("check", "build", "lambda"))
    p.add_argument("--values", help="comma-separated integers (check)")
    p.add_argument("--method", choices=("auto", "brute", "mitm"), default="auto")
    p.add_argument("--nu", type=int, help="construction level (build / lambda)")

    p = command("mesh", "mesh intersection counts")
    p.add_argument("mode", choices=("count",))
    p.add_argument("--lambda", dest="lambda_csv", required=True,
                   help="CSV of set elements (gamma column or last column)")
    p.add_argument("--block", type=int, required=True, help="generator block level")
    p.add_argument("--k", type=int, default=None, help="pad the generator block to k generators")

    p = command("sidon", "Sidon constant bounds", seed)
    p.add_argument("mode", choices=("bound", "estimate"))
    p.add_argument("--k", type=int, help="number of quasi-independent pieces (bound)")
    p.add_argument("--set", dest="values", help="comma-separated frequencies (estimate)")
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--grid", type=int, default=None)

    command("validate", "spec file diagnostics", spec)
    return parser


class Report(NamedTuple):
    """A handler's table (one column per header name), config extras, note."""

    header: list[str]
    columns: list
    extras: dict = {}
    note: str | None = None


def _require_seed(args) -> int:
    if args.seed is None:
        raise ValidationError("--seed is mandatory for stochastic commands", "seed")
    return args.seed


def _needs(args, dest: str, flag: str):
    """The value of an option that the command's mode requires."""
    value = getattr(args, dest)
    if value in (None, ""):
        raise ValidationError(f"{args.command} {args.mode} needs {flag}", "arguments")
    return value


def _validate(args) -> Report:
    diagnostics = schema_validate(args.spec)
    if diagnostics:  # one invalid: line each, as a command that loads the spec writes them
        raise SpecFileError(diagnostics)
    return Report(["path", "message"], [])


def _coeffs(args) -> Report:
    ms, cs = expand_partial_product(load_spec(args.spec), args.depth).arrays()
    return Report(["frequency", "re", "im"], [ms, cs.real, cs.imag])


def _eval(args) -> Report:
    spec = load_spec(args.spec)
    if args.grid is not None:
        if args.grid < 1:
            raise ValidationError(f"--grid must be >= 1, got {args.grid}", "arguments")
        _check_grid(args.grid, "the evaluation grid")
        ts = _grid(args.grid)
    elif args.t:
        ts = np.array(_comma_floats(args.t))
    else:
        raise ValidationError("eval needs --t or --grid", "arguments")
    return Report(["t", "value"], [ts, eval_partial_product(spec, args.depth, ts)])


def _spectrum(args) -> Report:
    bands = spectrum_bands(load_spec(args.spec), args.depth)
    return Report(["band", "min_freq", "max_freq", "count"],
                  list(zip(*[(b.index, b.lo, b.hi, b.count) for b in bands])))


def _convolve(args) -> Report:
    pa = expand_partial_product(load_spec(args.spec_a), args.depth)
    pb = expand_partial_product(load_spec(args.spec_b), args.depth)
    ms, cs = convolve_products(pa, pb).arrays()
    return Report(["frequency", "re", "im"], [ms, cs.real, cs.imag])


def _gram(args) -> Report:
    value = gram_centered_exponentials(load_spec(args.spec), args.j, args.k, args.depth)
    return Report(["j", "k", "re", "im"], [[args.j], [args.k], [value.real], [value.imag]])


def _energy(args) -> Report:
    spec = load_spec(args.spec)
    n_max = args.n_max if args.n_max is not None else spec.last_index
    if args.variant == "direct":
        if args.cutoff is not None and args.cutoff < 1:
            raise ValidationError(f"--cutoff must be >= 1, got {args.cutoff}", "arguments")
        poly = expand_partial_product(spec, n_max)
        cutoff = args.cutoff if args.cutoff is not None else poly.degree
        report = analysis.alpha_energy_direct(poly, args.alpha, cutoff)
    else:
        report = analysis.alpha_energy_band_series(spec, args.alpha, n_max, args.variant)
    n = len(report.partial_sums)
    return Report(["alpha", "partial_sum", "verdict"], [[report.alpha] * n, report.partial_sums,
                  [report.verdict] * n], {"variant": report.variant})


def _dim(args) -> Report:
    spec = load_spec(args.spec)
    monte_carlo = args.method == "monte_carlo"
    report = analysis.dimension_bounds(
        spec, range(args.n_min, args.n_max + 1), args.depth, method=args.method,
        seed=_require_seed(args) if monte_carlo else 0, samples=args.samples)
    return Report(["n", "L_n"], list(zip(*report.l_values)),
                  {"lower": report.lower, "upper": report.upper,
                   "generator": PHASE_GENERATOR if monte_carlo else None},
                  note=f"dimension bracket: [{report.lower!r}, {report.upper!r}]")


def _interval(args) -> Report:
    spec = load_spec(args.spec)
    ts, ss = _comma_floats(args.t), _comma_floats(args.s)
    _check_grid(len(ts) * len(ss), "the interval table")
    pairs = [(t, s) for t in ts for s in ss]
    values = [(analysis.interval_measure(spec, args.depth, t, s),
               analysis.interval_upper_bound(spec, args.n, args.depth, t, s)) for t, s in pairs]
    return Report(["t", "s", "measure", "bound"], [*zip(*pairs), *zip(*values)])


def _holder(args) -> Report:
    sample = analysis.local_holder(load_spec(args.spec), args.depth, args.t,
                                   _comma_floats(args.scales))
    return Report(["t", "s", "ratio"], [[sample.t] * len(sample.scales), sample.scales,
                                        sample.ratios],
                  {"alpha_estimate": sample.alpha_estimate, "excluded": len(sample.excluded)})


def _classify(args) -> Report:
    spec_a, spec_b = load_spec(args.spec_a), load_spec(args.spec_b)
    tails = load_tails(args.tails) if args.tails else None
    verdict = classify.classify_pair(spec_a, spec_b, tails)
    return Report(["series", "index", "partial_sum"],
                  list(zip(*[(name, i, ps) for name, ev in verdict.evidence
                             for i, ps in enumerate(ev.partial_sums)])),
                  {"outcome": verdict.outcome, "criterion": verdict.criterion},
                  note=f"verdict: {verdict.outcome} criterion: {verdict.criterion}")


def _witness(args) -> Report:
    spec_a, spec_b = load_spec(args.spec_a), load_spec(args.spec_b)
    terms = args.terms if args.terms is not None else len(spec_a.coeffs)
    witness = classify.build_divergence_witness(spec_a.coeffs, spec_b.coeffs, terms)
    return Report(["j", "c_re", "c_im", "partial_inner", "l2_partial"],
                  [range(len(witness.c)), [c.real for c in witness.c],
                   [c.imag for c in witness.c], witness.partial_inner, witness.l2_norm_partial])


def _qi_check(args) -> Report:
    vset = qi.IntVectorSet.from_integers(_comma_ints(_needs(args, "values", "--values")))
    brute = args.method == "brute" or (args.method == "auto"
                                       and len(vset) <= qi.BRUTE_FORCE_CAP)
    result = qi.qi_check_bruteforce(vset) if brute else qi.qi_check_mitm(vset)
    signs = result.witness.signs(len(vset)) if result.witness is not None else ()
    witness = ",".join(map(str, signs))
    return Report(["quasi_independent", "witness"], [[result.quasi_independent], [witness]],
                  note=f"verdict: {str(result.quasi_independent).lower()}"
                  + (f"\nwitness: {witness}" if witness else ""))


def _qi_build(args) -> Report:
    m = qi.build_qi_matrix(_needs(args, "nu", "--nu"))
    return Report(["col", *(f"r{i}" for i in range(len(m.rows)))],
                  [range(m.column_count), *m.rows], {"column_count": m.column_count})


def _qi_lambda(args) -> Report:
    lam = qi.build_lambda(_needs(args, "nu", "--nu"))
    return Report(["ell", "block", "gamma"], list(zip(*[
        (ell, nu, lam.gamma[ell]) for nu, block in enumerate(lam.blocks, 1)
        for ell in range(*block)])))


def _mesh_count(args) -> Report:
    gens = qi.build_dissociated_base(args.block).block(args.block)
    k = len(gens) if args.k is None else args.k
    qi.Mesh._check_padding(len(gens), k)  # before the elements are read
    elements = load_elements(args.lambda_csv)
    result = qi.mesh_intersection(elements, qi.Mesh.padded_unit_box(gens, k, elements))
    return Report(["member"], [result.members], {"count": result.count},
                  note=f"count: {result.count}")


def _sidon_bound(args) -> Report:
    value = qi.sidon_union_bound(_needs(args, "k", "--k"))
    return Report(["k", "bound"], [[args.k], [value]], note=f"bound: {value!r}")


def _sidon_estimate(args) -> Report:
    estimate = qi.sidon_lower_estimate(_comma_ints(_needs(args, "values", "--set")),
                                       trials=args.trials, seed=_require_seed(args),
                                       grid_size=args.grid)
    return Report(["lower_bound", "grid_ratio", "grid_size", "degree", "factor"],
                  [[estimate.lower_bound], [estimate.grid_ratio], [estimate.grid_size],
                   [estimate.degree], [estimate.factor]], {"generator": estimate.generator},
                  note=f"certified lower bound: {estimate.lower_bound!r}")


# (command, mode) -> handler; a command without modes has mode None
COMMANDS = {
    ("coeffs", None): _coeffs, ("eval", None): _eval, ("spectrum", None): _spectrum,
    ("convolve", None): _convolve, ("gram", None): _gram, ("energy", None): _energy,
    ("dim", None): _dim, ("interval", None): _interval, ("holder", None): _holder,
    ("classify", None): _classify, ("witness", None): _witness,
    ("qi", "check"): _qi_check, ("qi", "build"): _qi_build, ("qi", "lambda"): _qi_lambda,
    ("mesh", "count"): _mesh_count,
    ("sidon", "bound"): _sidon_bound, ("sidon", "estimate"): _sidon_estimate,
    ("validate", None): _validate,
}


def run(args) -> int:
    report = COMMANDS[args.command, getattr(args, "mode", None)](args)
    config = {k: v for k, v in sorted(vars(args).items()) if v is not None}
    config.update({k: v for k, v in report.extras.items() if v is not None})
    write_report(args.out, args.format, report.header, report.columns, config)
    if report.note is not None:
        _to_stderr(report.note)
    return EXIT_OK


# the characters that ``str.splitlines`` breaks at, each to its ``repr`` escape
LINE_BREAKS = {ord(c): repr(c)[1:-1] for c in "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"}


def _diagnose(kind: str, message) -> None:
    """One ``kind: message`` line on stderr, the line breaks of ``message`` (an
    argument or a file name may hold one) escaped as ``repr`` escapes them."""
    _to_stderr(f"{kind}: {str(message).translate(LINE_BREAKS)}")


def _to_stderr(line: str) -> None:
    """``line`` on stderr, flushed; a closed, missing or full stderr loses it,
    so that the exit code alone tells the outcome."""
    try:
        if sys.stderr is not None:  # None when the process started without fd 2
            print(line, file=sys.stderr, flush=True)
    except (OSError, ValueError):  # ValueError: the stream object was closed
        pass


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return run(args)
    except CapError as err:
        _diagnose("refused", err)
        return EXIT_CAP
    except SpecFileError as err:
        for d in err.diagnostics:
            _diagnose("invalid", d)
        return EXIT_VALIDATION
    except (ValidationError, OSError) as err:
        _diagnose("invalid", err)
        return EXIT_VALIDATION


def console_main() -> None:
    """``main`` as a process of its own: flush stdout, then leave by
    ``os._exit``, which skips the interpreter's teardown (module finalization,
    about 35 ms).  Argparse's ``SystemExit`` and uncaught exceptions take the
    normal exit."""
    code = main()
    try:
        if sys.stdout is not None:
            sys.stdout.flush()
    except OSError as err:
        if code == EXIT_OK:  # any other code has printed its diagnostic
            _diagnose("invalid", err)
            code = EXIT_VALIDATION
    os._exit(code)


if __name__ == "__main__":
    console_main()
