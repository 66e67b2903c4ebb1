"""Shot-noise-aware benchmarks for variational quantum optimization of Ising chains."""

from .ansatz import FAMILY_QAOA, FAMILY_VQE, AnsatzSpec, init_linear_schedule, init_random, prepare_state
from .errors import CapacityError, DomainError, IntegrityError, SchemaError, VqoptError
from .estimator import CVAR25, MEAN, CostKind, SampleSet, cvar_cost, exact_cost, mean_cost
from .experiment import (
    DepthSweepResult,
    InitSpec,
    OptimalCalls,
    ProblemSpec,
    ScalingFit,
    SweepResult,
    depth_sweep,
    fit_scaling,
    load_result,
    optimal_calls,
    random_search_baseline,
    runtime_bound,
    save_result,
    success_sweep,
    wilson_interval,
)
from .ising import (
    DISORDERED,
    FERROMAGNETIC,
    GroundTruth,
    IsingInstance,
    brute_force_minimum,
    energy,
    energy_table,
    make_disordered,
    make_ferromagnetic,
)
from .optimizer import (
    GradientDescentConfig,
    HillClimbConfig,
    RunTrace,
    TrustRegionConfig,
    run,
    step_gradient_descent,
    step_hill_climb,
)
from .simulator import GateOp, NoiseModel, StateVector, init_plus, init_zero, sample_shots

__version__ = "0.1.0"
