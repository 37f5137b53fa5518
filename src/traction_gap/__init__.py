"""Load compatibility, rotation kernels, and energy-gap certification for
pure-traction elasticity on cylinder and ball presets."""

import os as _os

# One BLAS thread unless the caller chose otherwise.  Every system is factored
# in parity blocks of at most 196 rows, where a second OpenBLAS thread does not
# pay: with two threads some 30- to 40-row eigh calls stall, for 5 to 30 ms
# against at most 0.5 ms on one thread (2 cores).  OpenBLAS reads these
# variables once, when numpy loads, so this precedes every numpy import.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    _os.environ.setdefault(_var, "1")

__version__ = "0.1.0"

from ._kernels import active_backend
from .energy import (
    density,
    density_gradient,
    quadratic_form,
    strain,
)
from .galerkin import (
    GalerkinSpace,
    SolveResult,
    SolverError,
    StiffnessSystem,
    assemble,
    build_space,
    divergence_free,
    solve_quadratic,
)
from .geometry import Domain, QuadratureRule, volume_quadrature
from .limits import (
    ExplicitSolution,
    GapReport,
    explicit_minimizers,
    gap_report,
    min_limit,
    min_linear,
    nonuniqueness_check,
    rotated_no_gap_check,
    verify_explicit,
)
from .loads import (
    KernelReport,
    LoadSpec,
    RigidPart,
    classify_moments,
    compatibility_report,
    default_rules,
    factor_forces,
    placement_moments,
    reversed_compatibility_witness,
    rigid_projection,
)
from .profiles import (
    axial_displacement_profile,
    radial_displacement_profile,
    radial_ode_residual,
)
from .rotations import (
    coercivity_profile,
    exp_so3,
    nearest_rotation,
    rotation_about_z,
)
from .scaled import (
    ConvergenceRow,
    convergence_study,
    minimize_scaled,
    nonlinear_context,
    scaled_energy,
)

__all__ = [name for name in dir() if not name.startswith("_")]
