"""Faber polynomials of Joukowski airfoils: construction, zeros, and the
numerics of their limit behavior."""

from .conformal import (
    AirfoilParams, BranchedValue, Sheet, arc_candidates, boundary_samples,
    params_from, phi, phi_b, phi_b_inverse, psi, uvw, uvw4,
)
from .errors import (
    BranchError, CaseError, ConvergenceError, DeficitError, DomainError,
    FaberError, MismatchError, ParameterError, PoleError, ResolutionError,
    SingularityError,
)
from .faber import (
    FaberEvaluator, PolyCoeffs, chebyshev_T, faber_closed, faber_coeffs_mp,
    faber_oracle, faber_shifted, horner, residual, scaled_residual,
)
from .limitsets import (
    ArcA, CaseClass, CaseTag, LoopArc, SegmentArc, arc_A, arc_z_of_u, classify,
    intersection_ib, loop_points, polyline_min_dist, segment_points, u_lower,
)
from .measures import (
    MomentVector, PredictedMeasure, WeakStarDistances,
    classify_zeros, closed_moment_mp, default_test_points, equilibrium_moments,
    potential_check, predicted, predicted_moments, pullback_density,
    quadrature_gate, quadrature_residuals, report, ullman_density,
    weak_star_distance,
)
from .rootfind import (
    CrossCheckReport, Method, SeedPlan, ZeroSet, compute_zeros, cross_check,
    roots_seeded, roots_simultaneous, seed_plan,
)

__version__ = "0.1.0"

__all__ = [
    "AirfoilParams", "ArcA", "BranchedValue", "BranchError", "CaseClass",
    "CaseError", "CaseTag", "ConvergenceError", "CrossCheckReport",
    "DeficitError", "DomainError", "FaberError",
    "FaberEvaluator", "LoopArc", "Method", "MismatchError", "MomentVector",
    "ParameterError", "PolyCoeffs", "PoleError", "PredictedMeasure",
    "ResolutionError", "SeedPlan", "SegmentArc", "Sheet", "SingularityError",
    "WeakStarDistances", "ZeroSet", "arc_A", "arc_candidates", "arc_z_of_u",
    "boundary_samples", "chebyshev_T", "classify", "classify_zeros", "closed_moment_mp", "compute_zeros", "cross_check",
    "default_test_points", "equilibrium_moments", "faber_closed",
    "faber_coeffs_mp", "faber_oracle", "faber_shifted", "horner",
    "intersection_ib", "loop_points", "params_from", "phi", "phi_b",
    "phi_b_inverse", "polyline_min_dist", "potential_check", "predicted",
    "predicted_moments", "psi", "pullback_density", "quadrature_gate",
    "quadrature_residuals", "report", "residual", "roots_seeded",
    "roots_simultaneous", "scaled_residual", "seed_plan", "segment_points",
    "u_lower", "ullman_density", "uvw", "uvw4", "weak_star_distance",
]
