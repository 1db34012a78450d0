"""visclab: numerical laboratory for vanishing-viscosity approximations of
scalar conservation laws on bounded domains."""

__version__ = "0.1.0"

from .domain import (EntropyPair, Field, FieldTrajectory, FluxSpec, Grid,
                     ViscositySpec, make_entropy_pair, make_flux,
                     make_viscosity)
from .config import ScenarioConfig, build_scenario, render_config
from .mollify import InitialData, MollifierKernel, make_kernel, \
    make_initial_data, mollify
from .norms import SpaceTimeField, h_minus_one_norm, measure_norm
from .viscous import StepError, integrate, stable_dt
from .reference import solve_reference
from .convergence import ConvergenceReport, RateFit, fit_rate, l1_distance
from .compactness import (YoungHistogramSet, decompose_production,
                          dirac_concentration, div_curl_test,
                          time_derivative_l1, young_histograms)
from .harness import build_runtime, run_ladder, solve_member, verify_run
