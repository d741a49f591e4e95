"""Finite volume solver for scalar hyperbolic balance laws on a black hole
exterior, with a method-of-characteristics oracle, steady-state generator,
and discrete entropy / maximum-principle diagnostics."""

from .characteristics import (
    CharPath,
    CharState,
    FhatTable,
    build_fhat_table,
    exterior_invariant,
    fhat_inverse,
    h_prime_interior,
    interior_invariant,
    steady_profile,
    trace_exterior,
    trace_interior,
)
from .entropy import (
    EntropyLedger,
    cell_entropy_residuals,
    convex_decomposition_check,
    numerical_entropy_flux,
)
from .errors import (
    CflError,
    ConfigError,
    ContractError,
    DomainError,
    HorizonFVError,
    NumericsError,
    PresetError,
    RangeError,
    StepSizeError,
    UnsupportedModelError,
)
from .geometry import Background, RadialMesh, build_uniform_mesh, max_timestep
from .harness import (
    ConvergenceResult,
    FuzzReport,
    Preset,
    exact_solution_by_shooting,
    fuzz_invariants,
    presets,
    self_convergence,
    steady_drift_detail,
)
from .model import (
    DEFAULT_KRUZHKOV_LEVELS,
    FluxModel,
    StructureReport,
    burgers_model,
    check_structure,
    polynomial_model,
)
from .scheme import (
    NumericalFlux,
    RunResult,
    StateVector,
    StepReport,
    convex_coefficients,
    numerical_flux,
    project_initial,
    run,
    step,
)

__version__ = "0.1.0"
