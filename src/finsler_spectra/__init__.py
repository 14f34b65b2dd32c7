"""Eigenvalues of the anisotropic p-Laplacian on rasterized planar domains."""

from .norms import (
    NormSpec,
    check_duality,
    euclidean,
    eval_norm,
    grad_norm,
    lq_norm,
    polar,
    polar_eval,
    weighted_quadratic,
    wulff_measure,
)
from .geometry import (
    DomainGrid,
    ShapeSpec,
    components,
    euclidean_disk,
    measure,
    rasterize,
    rectangle,
    scale_domain,
    shape,
    wulff,
)
from .fem import ScalarField, Triangulation, energy_gradient, energy_p, mass_gradient, mass_p, triangle_gradients, triangulate
from .distance import DistanceField, PackingResult, distance_transform, inradius, sup_rayleigh, two_wulff_radius
from .eigensolve import (
    BipartitionResult,
    ConvergenceError,
    EigenResult,
    SolverOptions,
    nodal_domains,
    rayleigh_quotient,
    solve_lambda1,
    solve_lambda2,
    solve_linear_p2,
)
from .experiments import ExperimentConfig, Report, emit_report, run

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
