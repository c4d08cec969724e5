"""Quasi-stationary analysis and discounted control of absorbed
branching chains on the nonnegative integers.

The pieces, bottom up: rate expressions (expressions), model objects
and standing-assumption checks (models, modelfile), the truncated
generator (generator), the quasi-stationary triple and transient
solves (qsd), discounted values and policy iteration (hjb), exact
simulation and Monte Carlo estimators (simulate, policies), extremal
rates and frontier scaling (asymptotics), and a command line (cli).
"""

from .asymptotics import (EnumerationResult, LimitCheck, RateOptimum,
                          SpotCheck, brute_force_control_opt,
                          corollary_spot_check, limit_theorem_check,
                          optimize_extinction_rate)
from .errors import (AllControlsInfeasibleError, CapExceededError,
                     EnvelopeViolationError, ExpressionSyntaxError,
                     HypothesisFailureWarning, InfeasibleBetaError,
                     InfiniteVarianceWarning, LowConfidenceWarning,
                     MathematicalRefusal, ModelError, NonConvergenceError,
                     PolicyIterationError, QsdctlError, SimulationError,
                     SolverError, ThresholdNotFoundError,
                     UnknownIdentifierError, ZeroSurvivorsError)
from .expressions import RateExpr, parse_rate_expression
from .generator import (TruncatedGenerator, build_generator,
                        enumerate_markov_controls)
from .hjb import (PolicyIterationTrace, TransversalityCheck, ValueSolution,
                  evaluate_policy, hjb_residual, improve_policy,
                  policy_iteration, verify_transversality)
from .models import (Action, ControlSet, HypothesisConstants,
                     HypothesisReport, MarkovControl, ModelSpec, ProgenyDist,
                     validate_hypotheses)
from .modelfile import (list_builtin, load_builtin, load_model, parse_model,
                        resolve_model)
from .qsd import (ConditionalEvolution, ConvergenceDiagnostics,
                  LyapunovThreshold, QsdSolution, TruncationSweep,
                  conditional_evolution, eta_limit_check, lyapunov_threshold,
                  solve_qsd, survival_profile, total_variation,
                  truncation_sweep)
from .simulate import (EmpiricalLaw, History, HistoryPolicy,
                       MonteCarloEstimate, SimConfig, Trajectory,
                       discounted_survival_integral, estimate_conditional_law,
                       estimate_cost, estimate_survival, simulate_markov,
                       simulate_thinning)

__version__ = "0.1.0"
