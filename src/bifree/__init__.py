"""Executable bi-free probability at desk scale.

Partition-lattice combinatorics, moment/cumulant transforms, additive
bi-free convolution and semigroups, Fock-space operator models,
and the bi-free Levy-Hincin correspondence, all checkable by exact
rational arithmetic or small-matrix numerics.

Names resolve on first use (PEP 562): ``import bifree`` loads no layer
module, ``bifree.<module>`` loads that module alone, and the first
exported name looked up loads every layer module and binds all the
exported names at once, so ``vars(bifree)`` is then whole.
"""

import importlib

__version__ = "0.1.0"

# every exported name, by the module that defines it
_EXPORTS = {
    "convolution": ("UncertifiedScaleWarning", "bifree_convolve", "free_convolve_marginal",
                    "semigroup_scale"),
    "cumulants": ("CumulantTable", "MomentTable", "cumulant_seq_to_moment_seq",
                  "cumulants_to_moments", "mobius_cumulant", "moment_seq_to_cumulant_seq",
                  "moments_to_cumulants", "verify_voiculescu_identity"),
    "errors": ("BifreeError", "CommutationError", "DegreeError", "OrderError",
               "RealizabilityError", "ShapeError", "SizeLimitError", "UnsupportedMeasureError"),
    "fock": ("FockModel", "check_commutation", "levy_marginal_model", "model_cumulants",
             "moment_table_from_model", "vacuum_moment"),
    "levy_hincin": ("CpsdReport", "FlatnessReport", "LevyHincinData", "LhValidation",
                    "check_cond_bounded", "check_cpsd", "extract_levy_measures",
                    "gns_reconstruct", "lh_to_cumulants", "validate_lh"),
    "limits": ("bifree_gaussian", "bifree_poisson", "compound_bifree_poisson",
               "compound_family", "poisson_family", "row_sum_moments",
               "triangular_limit_estimate"),
    "measures": ("DiscretePlanarMeasure", "moment_table", "point_mass"),
    "partitions": ("ChiMap", "Partition", "catalan", "enumerate_bnc", "enumerate_nc",
                   "is_noncrossing", "mobius_nc", "mobius_top", "sigma_chi"),
}
__all__ = [name for names in _EXPORTS.values() for name in names]
_MODULES = frozenset((*_EXPORTS, "cli", "scalars", "series"))


def __getattr__(name):
    # a submodule alone: `from . import scalars` looks it up here first
    if name in _MODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    for module, names in _EXPORTS.items():
        source = importlib.import_module(f"{__name__}.{module}")
        globals().update((key, getattr(source, key)) for key in names)
    return globals()[name]


def __dir__():
    return sorted({*globals(), *__all__})
