"""Numerical library for 1-D periodic nonlocal semilinear equations
L_K u = f(u): multiplier symbols, nonlocal energies, periodic symmetric
decreasing rearrangement, constrained variational minimization, and circle
half-Laplacian identities.
"""

from .errors import (DegenerateFitError, DivergenceError, DomainError,
                     GridMismatchError, HypothesisViolationError,
                     IntegrationError, NonlocError, ProjectionError,
                     StepSizeError, UnsupportedKernelError)
from .grids import PeriodicFunction, PeriodicGrid, decay_exponent
from .kernels import (CompactKernel, CustomKernel, DelaunayKernel,
                      FractionalKernel, Kernel, LaplaceKernel, SineTailKernel,
                      WrappedKernel, classify_kernel, frac_lap_constant,
                      heat_kernel_phi, indicator_kernel, kernel_from_spec,
                      laplace_measure_of, wrap_kernel)
from .operator import (SymbolTable, apply_pv, apply_pv_grid, apply_spectral,
                       bilinear_fourier, symbol_from_values, symbol_of_kernel)
from .energy import (EnergyReport, Nonlinearity, benjamin_ono_type,
                     constraint_value, double_well, energy,
                     polynomial_nonlinearity, potential_integral,
                     power_constraint, seminorm_sq_fourier,
                     seminorm_sq_offdiag, seminorm_sq_realspace)
from .rearrange import (RearrangementReport, detect_translate,
                        polya_szego_check, rearrange_periodic,
                        riesz_circle_check)
from .minimize import (MinimizeConfig, MinimizeResult, SymmetryDiagnostics,
                       max_principle_probe, minimize, project_constraint,
                       symmetry_diagnostics)
from .analysis import (RegularityVerdict, bootstrap_exponents,
                       moser_scalar_check, regularity_verdict)
from .circle_dtn import (circle_grid, dtn_multiplier, dtn_poisson,
                         energy_identity_check, half_lap_pv_circle,
                         wrapped_identity_check)

__version__ = "0.1.0"
