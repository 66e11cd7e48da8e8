"""Simulation and statistical verification toolkit for reflecting
diffusions coupled to an inert boundary-driven drift.

Modules
-------
geometry
    Domains (interval, ball, box, ellipsoid) and the smoothed
    boundary distance with certified comparability constants.
coefficients
    Diffusion data sigma/A/rho, the divergence-form drift, conormal and
    inert coupling fields, and the regularized wall potential.
skorokhod
    Discrete constrained-path solver: per-step reflection along an
    inward push field, and the normal-push transform of a whole driving
    path with its local time.
simulate
    Ensemble integrators for the reflected, reweighted-driftless, and
    gradient (smooth wall) families, one chunked numpy kernel per family
    for every domain and coefficient set.
stationary
    The candidate product stationary law, its normalizers, marginals and
    sampler, the extended generator, and quadrature residual checks.
analysis
    Ensemble statistics against the stationary law: effective sample
    sizes, KS/moment/independence/angular tests, and the smooth-wall
    sweep against exact laws.
"""

__version__ = "0.1.0"

from .coefficients import (
    CoefficientError,
    CoefficientSet,
    Potential,
    PotentialOverflowError,
    make_coefficients,
)
from .geometry import (
    Ball,
    Box,
    Domain,
    Ellipsoid,
    GeometryError,
    Interval,
    SmoothDistance,
    make_domain,
)
from .simulate import SimConfig, TrajectoryBatch, run_ensemble
from .analysis import (
    TestReport,
    angular_uniformity,
    batch_means_error,
    effective_sample_size,
    independence_test,
    k_moment_tests,
    ks_uniformity,
    read_trajectory_csv,
    weak_convergence_sweep,
    write_histogram_csv,
    write_report_csv,
)
from .stationary import (
    BumpTestFunction,
    StationaryMeasure,
    bump_basis,
    generator_apply,
    marginal_cdf_grid,
    sample_stationary,
    stationarity_residual,
    write_residual_report,
)
from .skorokhod import (
    ConstrainedPath,
    DrivingPath,
    SkorokhodError,
    measure_refinement_order,
    read_path_csv,
    reflect_step,
    solve_skorokhod,
    write_path_csv,
)

__all__ = [
    "Ball",
    "Box",
    "BumpTestFunction",
    "CoefficientError",
    "CoefficientSet",
    "ConstrainedPath",
    "Domain",
    "DrivingPath",
    "Ellipsoid",
    "GeometryError",
    "Interval",
    "Potential",
    "PotentialOverflowError",
    "SimConfig",
    "SkorokhodError",
    "SmoothDistance",
    "StationaryMeasure",
    "TestReport",
    "TrajectoryBatch",
    "angular_uniformity",
    "batch_means_error",
    "bump_basis",
    "effective_sample_size",
    "generator_apply",
    "independence_test",
    "k_moment_tests",
    "ks_uniformity",
    "make_coefficients",
    "make_domain",
    "marginal_cdf_grid",
    "measure_refinement_order",
    "read_path_csv",
    "read_trajectory_csv",
    "reflect_step",
    "run_ensemble",
    "sample_stationary",
    "solve_skorokhod",
    "stationarity_residual",
    "weak_convergence_sweep",
    "write_histogram_csv",
    "write_path_csv",
    "write_report_csv",
]
