"""mesorate: quantum rate equations for single-electron-transistor
monitored quantum-dot transport, with stationary solving, fixed-step time
evolution, closed-form cross-checks and sweep tooling."""

from .model import (
    DIAGONAL,
    IM_COHERENCE,
    RE_COHERENCE,
    EnergyConfig,
    Generator,
    IndexMap,
    RateSet,
    StateVector,
    VariableIndex,
    basis_state,
    pack,
    state_violation_magnitude,
    validate_state,
)
from .builders import (
    DOUBLE_DOT_BARE,
    DOUBLE_DOT_SET,
    GENERALIZED_DOUBLE_DOT_SET,
    REDUCED_DOUBLE_DOT,
    SCENARIOS,
    SINGLE_DOT_SET,
    BlockingConfig,
    build_double_dot_bare,
    build_double_dot_set,
    build_generalized_double_dot_set,
    build_reduced_double_dot,
    build_scenario,
    build_single_dot_set,
    index_double_dot,
    index_double_dot_set,
    index_single_dot_set,
    scenario_table,
)
from .solver import (
    DegenerateSteadyState,
    NoConvergence,
    StepTooLarge,
    Trajectory,
    default_step,
    evolve,
    relaxation_check,
    steady_state,
    steady_states,
)
from .observables import CurrentWeights, current, delta_detector_current, weights_for
from .analytic import (
    EtaFactor,
    amplification_ratio,
    double_dot_current_bare,
    double_dot_current_measured,
    single_dot_current,
)
from .experiments import (
    REGIME_BLIND,
    REGIME_EXTRAPOLATED,
    REGIME_RESOLVING,
    RegimeSelector,
    SweepRow,
    SweepSpec,
    run_fermi_sweep,
    run_sweep,
)
from .config import ConfigError, RunConfig, RunOptions, load_config, parse_config, parse_grid, render_config
from .output import write_csv, write_svg, write_timeseries_csv
from .cli import cli_main

__version__ = "0.1.0"
