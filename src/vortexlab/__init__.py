"""vortexlab: a spectral laboratory for inviscid flow geometry.

Simulates the 3D incompressible momentum equations and the 2D buoyant
transport system on a periodic box, computes strain / pressure-Hessian /
direction-field diagnostics, verifies their kinematic identities as
machine-checkable residuals, and monitors blow-up criterion functionals
and type-I conditions as time series.
"""

from .grid import GridSpec
from .fields import (
    ScalarField,
    VectorField,
    solve_pressure,
)
from .diagnostics import direction_quantities, diag_field
from .identities import make_samples, run_identity_suite
from .solver import (
    StepperConfig,
    initial_condition,
    kinetic_energy,
)
from .tracers import SpectralSampler, dynamical_residuals, growth_bound_check
from .criteria import (
    criterion_functional,
    type_one_monitor,
    bkm_integral,
    gronwall_bound,
    gronwall_oracle,
)
from .pipeline import RunConfig, load_config, run

__version__ = "0.1.0"
