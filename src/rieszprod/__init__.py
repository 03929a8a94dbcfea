"""Riesz products on the circle: exact sparse Fourier expansion,
singularity/equivalence classification, dimension estimates, and
quasi-independent set combinatorics.

The public names below are loaded on first use (PEP 562), so ``import
rieszprod`` imports neither numpy nor a layer; ``rieszprod.cli`` runs its
first lines before numpy loads.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "core": (
        "DYADIC", "LACUNARY3", "CapError", "CoefficientSequence", "FourierCoefficient",
        "FrequencySequence", "RegimeError", "RieszSpec", "SignPattern", "SpectralBand",
        "SpectralGapError", "StabilityError", "TrigPolynomial", "ValidationError",
        "convolve_products", "eval_partial_product", "expand_partial_product",
        "fourier_coefficient", "gram_centered_exponentials", "randomize_phases",
        "spectrum_bands", "validate_spec"),
    "analysis": (
        "DimensionReport", "EnergyReport", "HolderSample", "alpha_energy_band_series",
        "alpha_energy_direct", "dimension_bounds", "dimension_integral",
        "energy_dimension_bound", "holder_transfer_check", "interval_masses",
        "interval_measure", "interval_upper_bound", "local_holder", "series_verdict",
        "smooth_by_vp", "vallee_poussin_kernel"),
    "classify": (
        "DivergenceWitness", "SeriesEvidence", "TailDeclarations", "Verdict",
        "build_divergence_witness", "centered_series_partial_sums", "classify_pair",
        "disc_metric_distance", "series_gap_l2", "series_gap_weighted"),
    "qi": (
        "DissociatedBase", "IntVectorSet", "LambdaSet", "Mesh", "MeshBoundReport",
        "MeshIntersection", "QiCheckResult", "QiMatrix", "SidonEstimate",
        "build_dissociated_base", "build_lambda", "build_qi_matrix",
        "closed_form_column_count", "mesh_intersection", "qi_check_bruteforce",
        "qi_check_mitm", "sidon_lower_estimate", "sidon_union_bound", "verify_mesh_bound"),
    "specio": ("Diagnostic", "SpecFileError", "load_spec", "schema_validate"),
}
_LAYER = {name: layer for layer, names in _EXPORTS.items() for name in names}
__all__ = [*_LAYER, "__version__"]


def __getattr__(name: str):
    layer = _LAYER.get(name)
    if layer is None:  # also how `from rieszprod import cli` finds a submodule
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{layer}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_LAYER})
