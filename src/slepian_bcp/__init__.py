"""Boundary crossing probabilities for (q,d)-Slepian processes.

The package computes P(W_t > g(t) for some t in [q, d]) for the moving-
window Gaussian process W with covariance (1 - lag/q)^+ and piecewise-affine
boundaries g, via exact bridge decompositions evaluated by deterministic
quadrature or conditioned Monte Carlo, cross-validated by an independent
path-simulation oracle.
"""

from .boundary import (AffinePiece, PiecewiseAffineBoundary, affine_boundary,
                       approximate, boundary_from_dict, boundary_to_dict,
                       constant_boundary, dump_boundary, load_boundary)
from .bridge import (BridgeSpec, hitting_density_double,
                     hitting_density_single, noncross_affine_product,
                     noncross_constant)
from .engine import (Estimate, Partition, StudyRow, bcp_montecarlo,
                     bcp_quadrature, convergence_study, bcp_integrand)
from .errors import (DomainError, NotPositiveDefiniteError,
                     QuadratureNonConvergenceError, SlepianError)
from .numerics import GaussianStream, cholesky, gaussian_stream
from .oracle import (SimConfig, dump_paths, empirical_bcp,
                     empirical_bridge_noncross, empirical_covariance,
                     simulate_paths)
from .process import (GaussianVectorSpec, ProcessParams, conditional_density,
                      covariance, covariance_matrix, fdd_density,
                      fdd_log_density, pair_density, rescale)

__version__ = "0.1.0"

__all__ = [
    "AffinePiece", "BridgeSpec", "DomainError",
    "Estimate", "GaussianStream", "GaussianVectorSpec",
    "NotPositiveDefiniteError", "Partition", "PiecewiseAffineBoundary",
    "ProcessParams", "QuadratureNonConvergenceError",
    "SimConfig", "SlepianError", "StudyRow", "affine_boundary",
    "approximate", "bcp_montecarlo", "bcp_quadrature", "boundary_from_dict",
    "boundary_to_dict", "cholesky", "conditional_density",
    "constant_boundary", "convergence_study", "covariance",
    "covariance_matrix", "dump_boundary", "dump_paths", "empirical_bcp",
    "empirical_bridge_noncross", "empirical_covariance", "fdd_density",
    "fdd_log_density", "gaussian_stream", "hitting_density_double",
    "hitting_density_single", "load_boundary",
    "noncross_affine_product", "noncross_constant",
    "pair_density", "rescale", "simulate_paths", "bcp_integrand",
]
