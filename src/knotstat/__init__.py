"""Statistical mechanics over the knot semigroup.

The package computes partition functions and convergence thresholds for
weighted sums over knots and their Grothendieck group, evaluates the
associated equilibrium (Gibbs/KMS-type) states, and provides the exact
algebraic substrate: the connected-sum semigroup with its multiplicative
weights, group-ring arithmetic over Q/Z with the sigma/alpha semigroup
actions, Wirtinger presentations with Fox-calculus Alexander polynomials,
and triangular knot-group representations at Alexander roots.

Modules
-------
catalog      knot tables (CSV) and the asymptotic multiplicity model
semigroup    knots under connected sum, formal differences, weights
partition    partition functions, thresholds, figure data
specfun      zeta/polylogarithm/Lerch evaluations and exact combinatorics
crossed      exact Q[Q/Z] arithmetic and semigroup-action normal forms
knotgroups   presentations, abelianization, Alexander polynomials, reps
kms          eigenvalue lists, arithmetic states, product states, witness
cli          the ``knotstat`` command-line entry point
"""

import importlib

__version__ = "0.1.0"

# Public names by home module.  Submodules load on first attribute access
# (PEP 562), so ``import knotstat`` stays cheap and numpy is imported only
# by the de Rham representations.
_EXPORTS = {
    "errors": (
        "KnotstatError", "DomainError", "DivergenceError", "CatalogError",
        "PresentationError",
    ),
    "catalog": (
        "Catalog", "KnotRecord", "MultiplicityModel", "builtin_catalog",
        "load_catalog", "count_weight",
    ),
    "semigroup": (
        "Knot", "GroupElement", "WeightFunction", "connected_sum", "weight_of",
        "f_weight", "act_on_weight", "parse_knot", "parse_group_element",
        "enumerate_knots", "enumerate_group_elements",
    ),
    "partition": (
        "SeriesResult", "ThresholdReport", "threshold_beta_plus",
        "threshold_beta_minus", "threshold_report", "crossover_x",
        "figure_f_grid", "figure_H_grid", "z_alternating", "z_grothendieck",
        "qstar_partition", "z_knots_times_n", "z_tau",
    ),
    "knotgroups": (
        "Presentation", "LaurentPoly", "braid_to_wirtinger",
        "builtin_presentation", "unknot_presentation", "amalgamate",
        "abelianization", "alexander_poly_fox", "alexander_from_seifert",
        "derham_solve", "derham_direct_sum", "DeRhamRep", "DirectSumRep",
        "load_presentation", "save_presentation", "format_presentation",
    ),
    "kms": (
        "EigenvalueList", "toeplitz_eigenlist", "gibbs_monomial", "AdelicUnit",
        "bc_high_temperature", "bc_low_temperature", "Monomial",
        "SupportedFunction", "psi_product_state", "psi_pushforward",
        "time_evolution_coefficient", "ratio_witness",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = (*_EXPORTS, "crossed", "specfun")

__all__ = ["__version__", *_HOME]


def __getattr__(name: str):
    if name in _SUBMODULES:  # binds knotstat.<name> as a side effect
        return importlib.import_module(f".{name}", __name__)
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
