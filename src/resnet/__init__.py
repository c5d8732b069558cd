"""Discrete potential theory on weighted graphs.

Energy kernels, monopoles, harmonic decompositions, Gauss-Green boundary
terms over exhaustions, and transience classification of the associated
random walk, with closed-form oracles for the built-in network families.
"""

__version__ = "0.1.0"

from .errors import (ConfigurationError, DomainError, GreenUndefinedError,
                     IncompatibleSourceError, NumericalError,
                     PreconditionError, ResnetError, UnsupportedModelError,
                     WindowError)
from .gaussgreen import (GaussGreenReport, balanced_check, boundary_sum,
                         ell2_converse_check, gauss_green,
                         harmonic_boundary_representation,
                         two_sum_identity_check)
from .kernels import (KernelElement, ResistanceValue, dirac_expansion_check,
                      effective_resistance, energy_kernel, fin_part,
                      green_kernel, harm_part, monopole, wired_monopole)
from .models import (ModelSpec, build, load_network, log_increment_function,
                     oracle_h, oracle_residuals, oracle_v, oracle_w_o)
from .network import (ExhaustionPlan, Network, VertexFunction,
                      doubling_exhaustion, make_exhaustion)
from .operators import EnergyValue, energy, laplacian_apply
from .randomwalk import (EscapeTrace, McEstimate, WalkConfig,
                         escape_probability, green_estimate,
                         hitting_probability)
from .solver import FREE, WIRED, SolveReport, solve_poisson
from .transience import (GroundedProjection, TransienceVerdict, classify,
                         grounded_parameter_sweep, grounded_projection_of_one,
                         harm_dimension_probe)

__all__ = [name for name in dir() if not name.startswith("_")]
