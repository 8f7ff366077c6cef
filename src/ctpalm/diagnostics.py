"""Post-solve analysis: optimality certificates, infeasibility verdicts,
and error metrics against closed-form references."""

from __future__ import annotations

import enum
from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np

from .grid import TimeGrid, Trajectory, _l1_quadrature
from .lagrangian import (Residuals, _check_bundle_rows, _row_dots, akkt_holds,
                         feasibility_stationarity_residual, violations)
from .problems import EvalBundle, ProblemDefinition, reference_solution

# Tolerances loose enough to absorb quadrature and inner-solver slack.
SUFFICIENCY_TOL = 1e-6
STATIONARITY_TOL = 1e-4


class CertificateKind(enum.Enum):
    AKKT_HOLDS = "AkktHolds"
    GLOBAL_OPTIMAL_BY_CONVEXITY = "GlobalOptimalByConvexity"
    NOT_APPLICABLE = "NotApplicable"
    HYPOTHESIS_VIOLATED = "HypothesisViolated"
    INFEASIBLE_BUT_THETA_STATIONARY = "InfeasibleButThetaStationary"
    INFEASIBLE_NOT_STATIONARY = "InfeasibleNotStationary"


@dataclass(frozen=True)
class Certificate:
    kind: CertificateKind
    evidence: dict = field(default_factory=dict)

    def as_json_obj(self) -> dict:
        return {"kind": self.kind.value, "evidence": dict(self.evidence)}


@dataclass(frozen=True)
class ErrorMetrics:
    sup_error: float
    l1_error: float
    masked_nodes: tuple
    # The reference sampled at the nodes, for plotting; not a metric.
    reference: Optional[Trajectory] = field(default=None, compare=False, repr=False)

    def as_json_obj(self) -> dict:
        return {"sup_error": self.sup_error, "l1_error": self.l1_error,
                "masked_nodes": list(self.masked_nodes)}


def sufficiency_certificate(problem: ProblemDefinition, grid: TimeGrid,
                            bundle: EvalBundle, u: Trajectory, v: Trajectory) -> Certificate:
    """Convexity-based global-optimality check.

    Requires every convexity flag and a nonnegative multiplier/constraint
    pairing sum_i u_i h_i + sum_j v_j g_j >= -SUFFICIENCY_TOL at every node.
    """
    _check_bundle_rows(grid, bundle)
    if not problem.convexity.all_hold():
        return Certificate(CertificateKind.NOT_APPLICABLE,
                           {"convexity": asdict(problem.convexity)})
    pairing = _row_dots(u.values, bundle.h) + _row_dots(v.values, bundle.g)
    worst_node = int(np.argmin(pairing))
    worst = min(0.0, float(pairing[worst_node]))
    if worst >= -SUFFICIENCY_TOL:
        return Certificate(CertificateKind.GLOBAL_OPTIMAL_BY_CONVEXITY,
                           {"min_pairing_sum": worst, "tol": SUFFICIENCY_TOL})
    return Certificate(CertificateKind.HYPOTHESIS_VIOLATED,
                       {"min_pairing_sum": worst, "tol": SUFFICIENCY_TOL,
                        "worst_node": worst_node,
                        "worst_time": float(grid.nodes[worst_node])})


def infeasibility_report(grid: TimeGrid, bundle: EvalBundle,
                         feas_tol: float) -> Optional[Certificate]:
    """Classify an infeasible trajectory; None when its violation is within feas_tol.

    An infeasible point whose squared-violation gradient vanishes is the
    expected limit of the method on problems with no feasible point at all.
    """
    _check_bundle_rows(grid, bundle)
    violation = max(violations(bundle))
    if violation <= feas_tol:
        return None
    residual = feasibility_stationarity_residual(grid, bundle)
    evidence = {"max_violation": violation, "feas_tol": feas_tol,
                "stationarity_residual": residual, "stat_tol": STATIONARITY_TOL}
    if residual <= STATIONARITY_TOL:
        return Certificate(CertificateKind.INFEASIBLE_BUT_THETA_STATIONARY, evidence)
    return Certificate(CertificateKind.INFEASIBLE_NOT_STATIONARY, evidence)


def certify(problem: ProblemDefinition, grid: TimeGrid, bundle: EvalBundle,
            u: Trajectory, v: Trajectory, residuals: Residuals,
            eps_stop: float) -> dict:
    """The akkt, sufficiency and infeasibility verdicts on one evaluated iterate.

    A point that passes the stopping test gets the akkt certificate and, since
    the test includes feasibility within eps_stop, the convexity-based
    sufficiency check.  Any other point gets the infeasibility report, which
    is None when its violation is within eps_stop.
    """
    certs = {"akkt": None, "sufficiency": None, "infeasibility": None}
    if akkt_holds(residuals, eps_stop):
        certs["akkt"] = Certificate(CertificateKind.AKKT_HOLDS, {
            **asdict(residuals), "eps_stop": eps_stop})
        certs["sufficiency"] = sufficiency_certificate(problem, grid, bundle, u, v)
    else:
        certs["infeasibility"] = infeasibility_report(grid, bundle, eps_stop)
    return certs


def solution_error(grid: TimeGrid, x: Trajectory,
                   problem: ProblemDefinition) -> ErrorMetrics:
    """Sup and integrated-l1 distance between x and the reference at the nodes.

    Nodes strictly within one grid spacing of an instant listed in
    `problem.reference_discontinuities` are masked: excluded from the sup and
    zeroed in the quadrature.  Those instants are where the optimal solution
    is not unique (a jump in the reference is one such case), so distance to
    the reference there says nothing about optimality.  The sampled reference
    is kept on the result, for plotting; MissingReferenceError when the
    problem has none, ValueError when x's dim is not the problem's n.
    """
    if x.dim != problem.n:
        raise ValueError(f"x has dim {x.dim}, problem expects n={problem.n}")
    reference = Trajectory(grid, np.array([reference_solution(problem, t)
                                           for t in grid.nodes]))
    diffs = np.abs(x.values - reference.values)
    h = grid.spacing
    masked = np.zeros(grid.num_nodes, dtype=bool)
    for d in problem.reference_discontinuities:
        masked |= np.abs(grid.nodes - d) < h * (1.0 - 1e-9)
    diffs[masked] = 0.0
    return ErrorMetrics(sup_error=float(diffs.max()), l1_error=_l1_quadrature(diffs, h),
                        masked_nodes=tuple(np.flatnonzero(masked).tolist()),
                        reference=reference)
