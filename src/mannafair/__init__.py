"""Fair division of indivisible mixed manna with exact-rational certificates.

The public names below load on first access (PEP 562), so `import
mannafair` loads no submodule and each command of `mannafair.cli` loads
only the layers it runs.  A name is looked up in its module on every
access, so the package always shows the module's current binding.
"""

from importlib import import_module

__version__ = "0.1.0"

# module -> the names the package re-exports from it
_EXPORTS = {
    "core": (
        "Allocation",
        "Budget",
        "BudgetExceededError",
        "EfrCertificate",
        "EnvyGraph",
        "IncompleteCertificateError",
        "Instance",
        "Rational",
        "bundle_value",
        "build_envy_graph",
        "is_ef1",
        "is_envy_free",
        "is_envy_free_for",
        "validate_certificate",
    ),
    "oracles": (
        "EfrDecision",
        "decide_efr_k",
        "is_pareto_optimal_bruteforce",
        "min_efr_k",
        "solve_partition",
    ),
    "algorithms": (
        "conflict_aware_picking",
        "double_round_robin_ef1",
        "efr_n_minus_1",
        "extend_with_round_robin",
        "resolve_top_trading_cycles",
        "run_picking_rounds",
    ),
    "welfare": (
        "PerturbedInstance",
        "PerturbParams",
        "WeightVector",
        "check_nondegenerate",
        "compute_params",
        "demand_sets",
        "max_weighted_welfare",
        "perturb_nondegenerate",
        "po_certificate_lp",
    ),
    "fixed_n": ("build_f_ij", "reconstruct_I", "search_efr_po"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_HOME])


def __getattr__(name):
    if name in _EXPORTS:  # importing a submodule also binds it here
        return import_module(f"{__name__}.{name}")
    if name in _HOME:
        return getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
