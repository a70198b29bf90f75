"""Solver toolkit for optimization with a budget on violated sample constraints.

The constraint counts, per sample, whether any component of a vector-valued
function is strictly positive; at most s of N samples may violate.  The
package provides the projection geometry of that set, stationarity checks,
a smoothing Newton solver, sample-size bounds for the underlying chance
constraint, and reference baselines.
"""
from .baselines import GridSpec, export_bip, grid_search
from .bounds import (
    dkw_sample_size,
    feasibility_confidence,
    feasibility_sample_size,
    monte_carlo_feasibility,
    s_lower_bound,
)
from .geometry import (
    CandidateSetFamily,
    ColumnPartition,
    candidate_sets,
    column_partition,
    fixed_point_check,
    is_candidate_set,
    normal_cone_member,
    project_step,
    step_norm,
    tangent_cone_member,
)
from .problems import (
    NormOptInstance,
    ProblemInstance,
    load_samples,
    make_counterexample,
    make_norm_opt,
    norm_opt_draw,
    save_samples,
)
from .solver import (
    IterationRecord,
    SolveResult,
    SolverAbort,
    SolverConfig,
    gamma_for,
    quadratic_rate_ratios,
    solve,
)
from .stationarity import (
    ActiveSet,
    PrimalDualPoint,
    StationarityReport,
    check_bkkt,
    check_kkt,
    check_tau_stationary,
    max_stationary_tau,
    stationarity_residual,
)

__version__ = "0.1.0"
