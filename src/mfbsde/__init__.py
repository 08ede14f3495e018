"""Monte Carlo solvers and a-priori certificates for mean-field quadratic
backward stochastic differential equations.

The package is organised in layers:

* :mod:`mfbsde.core` — time grids, Brownian ensembles, process containers.
* :mod:`mfbsde.dsl` — the small expression language for driver generators
  and terminal conditions.
* :mod:`mfbsde.scenario` — validated problem descriptions plus the built-in
  example families.
* :mod:`mfbsde.certificates` — the constant chain (window width, fixed-point
  ball radius, growth envelope) computed in one pass over logarithms.
* :mod:`mfbsde.regression`/:mod:`mfbsde.solver` — the least-squares backward
  solver for a single BSDE sweep.
* :mod:`mfbsde.meanfield` — frozen-mean fixed points, window stitching,
  global Picard iteration, split and vector-valued solvers.
* :mod:`mfbsde.diagnostics` — path norms, the BMO estimate, envelope checks,
  run reports.
"""

__version__ = "0.1.0"

from .core import (
    MeanCurve,
    PathEnsemble,
    ProcessGrid,
    TimeGrid,
    Window,
    build_grid,
    ensemble_mean,
    simulate_brownian,
)
from .dsl import GeneratorExpr, evaluate, evaluate_terminal, parse, to_text
from .errors import (
    DimensionError,
    EvalDomainError,
    FixedPointError,
    FixtureMissing,
    InfeasibleCertificate,
    InvalidInput,
    MaxIterations,
    MFBSDEError,
    NonContraction,
    ParseError,
    RegressionError,
    StepDivergence,
    WindowTooWide,
)
from .scenario import (
    FORM_GLOBAL_ODE,
    FORM_QUAD_GROWTH,
    FORM_SPLIT_LIPSCHITZ,
    FORM_SPLIT_QUADRATIC,
    ScenarioSpec,
    example_21,
    example_22,
    example_41,
    linear_scenario,
)
from .certificates import Certificate, ConstantChain, build_chain, certify, ode_bound
from .solver import BackwardSolver, SolverConfig
from .meanfield import (
    FixedPointTrace,
    SolveResult,
    global_solve,
    multidim_solve,
    picard_global,
    shift_fixed_point,
)
from .config import load_config

__all__ = [
    "__version__",
    # core
    "TimeGrid", "Window", "PathEnsemble", "ProcessGrid", "MeanCurve",
    "build_grid", "simulate_brownian", "ensemble_mean",
    # dsl
    "GeneratorExpr", "parse", "to_text", "evaluate", "evaluate_terminal",
    # scenarios
    "ScenarioSpec", "example_21", "example_22", "example_41",
    "linear_scenario", "FORM_QUAD_GROWTH", "FORM_GLOBAL_ODE",
    "FORM_SPLIT_QUADRATIC", "FORM_SPLIT_LIPSCHITZ",
    # certificates
    "ConstantChain", "Certificate", "build_chain", "certify", "ode_bound",
    # solvers
    "SolverConfig", "BackwardSolver",
    "FixedPointTrace", "SolveResult",
    "global_solve", "picard_global",
    "shift_fixed_point", "multidim_solve",
    # config
    "load_config",
    # errors
    "MFBSDEError", "InvalidInput", "ParseError", "DimensionError",
    "WindowTooWide", "EvalDomainError", "RegressionError", "StepDivergence",
    "FixedPointError", "NonContraction", "MaxIterations",
    "InfeasibleCertificate", "FixtureMissing",
]
