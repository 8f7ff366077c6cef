"""Augmented Lagrangian solver for continuous-time nonlinear programs.

Problems minimize an integral cost over trajectories on [0, T] subject to
pointwise equality and inequality constraints.  The solver discretizes time
on a uniform grid, solves penalized node subproblems with a spectral gradient
method, and terminates on asymptotic optimality residuals.
"""

__version__ = "0.1.0"

from .alm import (AlmConfig, IterationRecord, SolveReport, SolveStatus,
                  multiplier_update, penalty_update, safeguard_project, solve)
from .diagnostics import (Certificate, CertificateKind, ErrorMetrics,
                          infeasibility_report, solution_error,
                          sufficiency_certificate)
from .grid import (TimeGrid, Trajectory, make_uniform_grid, read_trajectory_csv,
                   write_trajectory_csv)
from .inner import InnerConfig, InnerResult, InnerStatus, solve_node, solve_subproblem
from .lagrangian import (MultiplierSet, Residuals, akkt_residuals,
                         feasibility_factor, feasibility_stationarity_residual)
from .problems import (Convexity, EvalBundle, EvaluationError,
                       MissingReferenceError, ProblemDefinition,
                       UnknownProblemError, builtin, builtin_names,
                       evaluate_all, pointwise, reference_solution)

__all__ = [
    "AlmConfig", "Certificate", "CertificateKind", "Convexity",
    "ErrorMetrics", "EvalBundle", "EvaluationError", "InnerConfig", "InnerResult",
    "InnerStatus", "IterationRecord", "MissingReferenceError", "MultiplierSet",
    "ProblemDefinition", "Residuals", "SolveReport", "SolveStatus", "TimeGrid",
    "Trajectory", "UnknownProblemError", "akkt_residuals", "builtin",
    "builtin_names", "evaluate_all", "feasibility_factor",
    "feasibility_stationarity_residual", "infeasibility_report", "make_uniform_grid",
    "multiplier_update", "penalty_update", "pointwise", "read_trajectory_csv",
    "reference_solution", "safeguard_project", "solution_error", "solve",
    "solve_node", "solve_subproblem", "sufficiency_certificate", "write_trajectory_csv",
]
