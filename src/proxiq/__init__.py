"""Composite optimization with inexact first-order oracles of tunable degree."""

from .oracle import (CertificationReport, ExactOracle, HolderFunction, HolderOracle,
                     MinibatchOracle, NoisyGradientOracle, NonFiniteAnswer, OracleCertificate,
                     OracleEval, SaddleOracle, SaddleProblem, ShiftedPointOracle, bounded_noise,
                     certify_oracle, eval_holder, eval_minibatch, eval_noisy_gradient,
                     eval_saddle, eval_shifted_point, holder_smoothing_coefficient,
                     holder_smoothing_constant, majorize_amgm, spectral_norm)
from .problems import (HolderPowerProblem, LogSumProblem, QuadraticProblem,
                       generate_holder_instance, generate_logsum_instance,
                       generate_quadratic_instance, load_logsum_instance, sample_l1_ball,
                       save_logsum_instance)
from .prox import (ProxFunction, implied_subgradient, project_l1_ball, prox_apply,
                   soft_threshold)
from .rates import (BoundCurve, CURVE_KINDS, bound_convex_ergodic, bound_fast_convex,
                    bound_nonconvex_const, bound_nonconvex_horizon,
                    bound_nonconvex_schedule, fast_delta_exponent, holder_delta_opt,
                    nonconvex_plateau, rho_opt_fast, rho_opt_horizon, sample_curve)
from .solver import (AdaptiveState, DivergenceError, RunTrace, ScheduleConfig,
                     adaptive_prox_gradient, ergodic_average, fast_prox_gradient,
                     prox_gradient, stationarity_gap, theta_next)

__version__ = "0.1.0"
