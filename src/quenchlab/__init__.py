"""quenchlab: a finite-difference laboratory for coupled singular reaction-diffusion systems.

The package studies pairs of heat equations whose reaction terms blow up as the
unknowns approach the level 1 (touchdown / quenching systems of MEMS type):
steady states by monotone iteration, the pull-in region in the two forcing
parameters and its boundary curve, linearized stability, time integration with
quench detection, and certified post-checks (quench-time bounds, decay rates).
"""

from .errors import (
    ConfigError,
    EigenConvergenceError,
    IndefiniteOperatorError,
    InsufficientDecayError,
    QuenchlabError,
    SolverBreakdownError,
    StepRangeError,
)
from .grid import (
    DiscreteOperator,
    Grid,
    gradient_inner,
    integrate,
    interval,
    principal_laplacian_eigenpair,
    rectangle,
    solve_poisson,
)
from .model import (
    InitialData,
    Model,
    Nonlinearity,
    ParamPoint,
    Profile,
    validate_hypotheses,
)
from .stationary import (
    CriticalCurve,
    CurveSample,
    InLambda,
    NotInLambda,
    StationarySolution,
    Undetermined,
    analytic_nonexistence_bound,
    mass_bound_check,
    monotone_minimal_solution,
    second_solution_search,
    trace_critical_curve,
)
from .spectra import (
    EigenPair,
    LinearizedOperator,
    assemble_linearization,
    principal_eigenpair,
)
from .evolution import (
    QuenchEvent,
    StepperConfig,
    TerminalStatus,
    Trajectory,
    lyapunov_energy,
    simulate,
    step,
)
from .certificates import (
    CaseReport,
    QuenchBound,
    QuenchCheck,
    RateCertificate,
    classify_case,
    quench_time_bound,
    rate_certificate,
    verify_quench_bound,
)

__version__ = "0.1.0"
