"""renewlim: simulation and numerical verification of absolute-moment
convergence for renewal counting processes and subordinator first-passage
times, with exact stable-limit constants and independent cross-checks."""

import os

# Walks run in parallel over replications (RL_THREADS), so a BLAS worker
# pool only spins on a core they need.  OpenBLAS reads this once, when numpy
# loads it, so it must be set before the first submodule imports numpy; a
# value the user has set wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .distributions import (
    Deterministic,
    Exponential,
    Interarrival,
    LimitCase,
    Pareto,
    StableParams,
    Uniform,
    parse_interarrival,
)
from .errors import (
    CaseMismatchError,
    ConfigError,
    DomainError,
    InvariantError,
    NoBracketError,
    ParameterMismatchError,
    RenewlimError,
    SpecParseError,
    ToleranceNotMetError,
)
from .limits import (
    limit_constant,
    stable_abs_moment,
    stable_abs_moment_mc,
    stable_abs_moment_quadrature,
)
from .montecarlo import MCEstimate, replication_rng, stream_base, thread_count
from .oracle import exact_abs_deviation_poisson
from .renewal import (
    ConvergenceRow,
    RenewalEstimates,
    RenewalObservation,
    convergence_table,
    renewal_estimates,
    simulate_renewal,
)
from .scaling import (
    Constant,
    LogPower,
    LogShifted,
    SlowlyVarying,
    parse_slowly_varying,
    solve_c,
)
from .subordinator import (
    CompoundPoisson,
    GammaSubordinator,
    Subordinator,
    mc_passage,
    parse_subordinator,
)

__version__ = "0.1.0"
