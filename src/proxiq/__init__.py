"""Composite optimization with inexact first-order oracles of tunable degree."""

from .oracle import (CertificationReport, ExactOracle, HolderOracle, MinibatchOracle,
                     NoisyGradientOracle, Oracle, OracleCertificate, SaddleOracle, SaddleProblem,
                     ShiftedPointOracle, certify_oracle, holder_smoothing_constant, majorize_amgm,
                     spectral_norm)
from .problems import (HolderPowerProblem, LogSumProblem, QuadraticProblem,
                       generate_holder_instance, generate_logsum_instance,
                       generate_quadratic_instance, sample_l1_ball)
from .prox import ProxFunction, project_l1_ball
from .rates import (CURVE_KINDS, bound_convex_ergodic, bound_fast_convex,
                    bound_nonconvex_const, bound_nonconvex_horizon, holder_delta_opt,
                    rho_opt_fast, rho_opt_horizon, sample_curve)
from .solver import (AdaptiveState, DivergenceError, RunTrace, ScheduleConfig,
                     adaptive_prox_gradient, fast_prox_gradient, prox_gradient)

__version__ = "0.1.0"
