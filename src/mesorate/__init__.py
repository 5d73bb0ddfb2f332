"""mesorate: quantum rate equations for single-electron-transistor
monitored quantum-dot transport, with stationary solving, fixed-step time
evolution, closed-form cross-checks and sweep tooling."""

from .model import (
    DIAGONAL,
    IM_COHERENCE,
    RE_COHERENCE,
    Generator,
    IndexMap,
    RateSet,
    StateVector,
    VariableIndex,
    basis_state,
    pack,
    validate_state,
)
from .builders import (
    DOUBLE_DOT_BARE,
    DOUBLE_DOT_SET,
    GENERALIZED_DOUBLE_DOT_SET,
    REDUCED_DOUBLE_DOT,
    REGIMES,
    SCENARIOS,
    SINGLE_DOT_SET,
    BlockingConfig,
    scenario_table,
)
from .solver import (
    DegenerateSteadyState,
    ResidualTooLarge,
    StepTooLarge,
    Trajectory,
    default_step,
    evolve,
    steady_state,
    steady_states,
)
from .analytic import bare_current, dephased_current, single_dot_current
from .experiments import SweepTable, run_fermi_sweep, run_sweep
from .config import ConfigError, RunConfig, load_config, parse_config, parse_grid
from .output import write_csv, write_svg, write_timeseries_csv
from .cli import cli_main

__version__ = "0.1.0"
