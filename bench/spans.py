"""In-memory spans around the public functions of the rieszprod modules.

``Tracer.install`` wraps every public function of each layer module (the
functions a module defines whose names do not start with ``_``) and puts
the wrapper in the defining module and in every ``rieszprod`` namespace
that imported the original.  Each call records one span: name, start, end,
parent span, job id and, for the functions in ``SIZERS``, the problem size
read from its arguments and return value.  ``uninstall`` puts the originals
back, so untraced passes run the unmodified program.

A layer's self time is the time its spans cover minus the time their
direct children cover; a function's busy time is the time covered by its
outermost spans, children included.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from collections import defaultdict

LAYERS = ("cli", "specio", "core", "analysis", "classify", "qi")
INT64_SAFE = 2 ** 62


def _arg(args, kwargs, pos: int, name: str, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _nonzero_prefix(spec, n: int) -> int:
    return sum(1 for r in spec.coeffs.moduli[: n + 1] if r > 0.0)


def _band_series_terms(args, kwargs, result):
    spec, n_max = args[0], _arg(args, kwargs, 2, "n_max")
    if _arg(args, kwargs, 3, "variant", "band_exact") != "band_exact":
        return {"terms": n_max + 1}
    # the squared spectrum triples after each band with a nonzero modulus
    return {"terms": sum(3 ** _nonzero_prefix(spec, n - 1) if n else 1
                         for n in range(n_max + 1))}


def _upper_bound_terms(args, kwargs, result):
    spec, n, j_max = args[0], _arg(args, kwargs, 1, "N"), _arg(args, kwargs, 2, "J_max")
    # supp P_j lies inside supp P_{j+1}, which has 3^(nonzero moduli) terms
    return {"support_terms": sum(3 ** _nonzero_prefix(spec, j + 1)
                                 for j in range(n, j_max))}


def _scan_index(signs) -> int:
    index = 0
    for e in signs:
        index = 3 * index + e + 1
    return index


def _brute_sizes(args, kwargs, result):
    vset = _arg(args, kwargs, 0, "vset")
    k = len(vset)
    patterns = 3 ** k
    if result.witness is not None:
        signs = result.witness.signs(k)
        # the scan stops at whichever of the witness and its negation comes first
        patterns = min(_scan_index(signs), _scan_index([-e for e in signs])) + 1
    return {"patterns": patterns, "exact": int(vset.max_abs * k >= INT64_SAFE),
            "witness": int(result.witness is not None)}


def _mitm_sizes(args, kwargs, result):
    vset = _arg(args, kwargs, 0, "vset")
    k = len(vset)
    k_a = (k + 1) // 2
    return {"half_entries": 3 ** k_a + 3 ** (k - k_a),
            "exact": int(vset.max_abs * k_a >= INT64_SAFE),
            "witness": int(result.witness is not None)}


def _sidon_sizes(args, kwargs, result):
    # per trial: one k x M product, then 2 sweeps x k x 4 trial updates of M nodes
    k = len(result.frequencies)
    return {"node_evals": result.trials * 9 * k * result.grid_size}


def _elements(args, kwargs, result):
    elements = _arg(args, kwargs, 0, "elements")
    return {"elements": len(getattr(elements, "gamma", elements))}


# Problem sizes per function.  Sizes marked computed in COMPUTED are derived
# from the arguments by the algorithm's known cost, not observed.
SIZERS = {
    "core.expand_partial_product":
        lambda a, kw, r: {"terms": len(r.coefficients)},
    "core.eval_partial_product":
        lambda a, kw, r: {"points": int(getattr(_arg(a, kw, 2, "t"), "size", 1))},
    "analysis.dimension_integral":
        lambda a, kw, r: {"grid_nodes": 8 * a[0].freqs.prefix_sum(_arg(a, kw, 2, "depth"))},
    "analysis.alpha_energy_band_series": _band_series_terms,
    "analysis.interval_upper_bound": _upper_bound_terms,
    "classify.build_divergence_witness":
        lambda a, kw, r: {"terms": _arg(a, kw, 2, "terms")},
    "qi.qi_check_bruteforce": _brute_sizes,
    "qi.qi_check_mitm": _mitm_sizes,
    "qi.mesh_intersection": _elements,
    "qi.sidon_lower_estimate": _sidon_sizes,
    "specio.write_report":
        lambda a, kw, r: {"bytes": len(r.encode("utf-8"))},
}
COMPUTED = {
    "analysis.dimension_integral.grid_nodes",
    "analysis.alpha_energy_band_series.terms",
    "analysis.interval_upper_bound.support_terms",
    "qi.qi_check_bruteforce.patterns",
    "qi.qi_check_mitm.half_entries",
    "qi.sidon_lower_estimate.node_evals",
}


class Tracer:
    """Records spans while installed; ``spans`` survives ``uninstall``."""

    def __init__(self):
        # span: [name, start, end, parent index, job id, sizes or None]
        self.spans: list[list] = []
        self.job: str | None = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        sizer = SIZERS.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            record = [name, clock(), 0.0, stack[-1] if stack else -1, self.job, None]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if sizer is not None:
                record[5] = sizer(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "rieszprod" or key.startswith("rieszprod."))]
        for layer in LAYERS:
            module = sys.modules[f"rieszprod.{layer}"]
            for attr, fn in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                wrapper = self._wrap(f"{layer}.{attr}", fn)
                for namespace in modules:
                    for key, value in list(vars(namespace).items()):
                        if value is fn:
                            self._patched.append((namespace, key, fn))
                            setattr(namespace, key, wrapper)

    def uninstall(self) -> None:
        for namespace, key, fn in reversed(self._patched):
            setattr(namespace, key, fn)
        self._patched.clear()

    def write(self, path, origin: float) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, job, sizes in self.spans:
                fh.write(json.dumps({"name": name, "start": start - origin,
                                     "end": end - origin, "parent": parent,
                                     "job": job, "sizes": sizes}) + "\n")


def summarize(spans: list[list], lo: int = 0, hi: int | None = None) -> dict[str, float]:
    """Over spans[lo:hi]: self_s per layer; calls, busy_s and summed sizes
    per function."""
    hi = len(spans) if hi is None else hi
    out: dict[str, float] = defaultdict(float)
    child_time: dict[int, float] = defaultdict(float)
    for name, start, end, parent, _job, _sizes in spans[lo:hi]:
        if parent >= 0:
            child_time[parent] += end - start
    for i in range(lo, hi):
        name, start, end, parent, _job, sizes = spans[i]
        out[name.split(".")[0] + ".self_s"] += end - start - child_time[i]
        out[name + ".calls"] += 1
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            out[name + ".busy_s"] += end - start
        for key, value in (sizes or {}).items():
            out[f"{name}.{key}"] += value
    return dict(out)
