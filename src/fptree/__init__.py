"""Explicit full-projection backward schemes for monotone FBSDEs.

Backward stochastic dynamics with a driver that is one-sided Lipschitz
(monotone) and of polynomial growth in y are discretized on a
recombining trinomial lattice, where every conditional expectation is
an exact three-point sum.  The package provides the explicit and
implicit base schemes, the full-projection scheme (explicit step
composed with a shrinking radial truncation, stable without implicit
solves), independent reference oracles, and monitors for the size,
stability, and contraction inequalities the schemes are supposed to
satisfy.
"""

from .analysis import (
    contraction_check,
    convergence_study,
    fd_comparison,
    minmax_processes,
    one_step_checks,
    sup_norm_check,
)
from .forward import build_lattice, dump_lattice
from .grids import (
    WEIGHTS,
    ConfigurationError,
    SpatialGrid,
    TimeGrid,
    TruncationConfig,
    default_alpha,
    gaussian_moment_exact,
    grid_project,
    grid_project_index,
    increment_radius,
    increments,
    moment_exact,
    truncate,
    truncation_radius,
    weight_values,
)
from .model import (
    DriverSpec,
    ModelSpec,
    constant_b_sigma,
    constant_g,
    experiment1_model,
    experiment2_model,
    linear_model,
    lipschitz_clamp_g,
    make_constant_model,
    poly_driver,
    quadratic_g,
    validate_model,
)
from .oracle import fd_solve, linear_solution, proxy_reference
from .schemes import SchemeConfig, SolverError, run_backward
from .treeval import chain_law, l2_norms

__version__ = "0.1.0"
