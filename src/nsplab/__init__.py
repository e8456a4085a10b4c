"""Pseudo-spectral laboratory for viscous, self-attracting compressible
flow around doped steady states: steady solves, exact linear mode
semigroups with whole-space decay curves, and nonlinear perturbation
evolution with energy and weighted-decay diagnostics."""

from .spectral import (Field, Grid, MeanZeroError, dealias, divergence,
                       frac_derivative, gn_interpolation_check, grad_norm,
                       gradient, inverse_laplacian, laplacian, lp_norm,
                       poisson_gradient, sobolev_norm)
from .arrayio import read_field, write_field
from .thermo import (FluidParams, GammaLaw, PressureLaw, TabulatedLaw,
                     remainder)
from .steady import (DopingProfile, SteadySolveError, SteadyState,
                     cosine_doping, doping_from_name, flat_doping,
                     gaussian_bump_doping, solve_steady, verify_steady)
from .semigroup import (FitResult, LinearDecayQuery, ModeSymbol,
                        QuadratureError, decay_curve, evolve_full_symbol,
                        expm2, fit_exponent, initial_profile,
                        mode_exponential, shared_exponentials,
                        split_evolve_mode)
from .evolution import (DiagnosticsConfig, EnergyReport, EvolutionError,
                        Integrator, PerturbationState, default_dt, evolve,
                        random_smooth_state, rhs_nonlinear,
                        single_mode_state, zero_state)
from .config import ConfigError, ExperimentConfig
from .pipeline import (DecayReport, HypothesisError, run_decay_query,
                       run_pipeline, target_exponent)

__version__ = "0.1.0"
