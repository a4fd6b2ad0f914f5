"""Fair division of indivisible mixed manna with exact-rational certificates."""

from .core import (
    Allocation,
    Budget,
    BudgetExceededError,
    EfrCertificate,
    EnvyGraph,
    IncompleteCertificateError,
    Instance,
    Rational,
    bundle_value,
    build_envy_graph,
    is_ef1,
    is_envy_free,
    is_envy_free_for,
    validate_certificate,
)
from .oracles import (
    EfrDecision,
    decide_efr_k,
    is_pareto_optimal_bruteforce,
    min_efr_k,
    solve_partition,
)
from .algorithms import (
    conflict_aware_picking,
    double_round_robin_ef1,
    efr_n_minus_1,
    extend_with_round_robin,
    resolve_top_trading_cycles,
    run_picking_rounds,
)
from .welfare import (
    PerturbedInstance,
    PerturbParams,
    TieGraph,
    WeightVector,
    check_nondegenerate,
    compute_params,
    demand_sets,
    max_weighted_welfare,
    perturb_nondegenerate,
    po_certificate_lp,
)
from .fixed_n import build_f_ij, reconstruct_I, search_efr_po

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
