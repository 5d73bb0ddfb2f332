"""mesorate: quantum rate equations for single-electron-transistor
monitored quantum-dot transport, with stationary solving, fixed-step time
evolution, closed-form cross-checks and sweep tooling.

The package is a lazy namespace: each public name below loads the module
that defines it on first use, and so does each submodule named as an
attribute (mesorate.solver), so `import mesorate` alone loads no
submodule and not numpy.
"""

import importlib

__version__ = "0.1.0"

# each public name, by the module that defines it
_EXPORTS = {
    "model": ("DIAGONAL", "IM_COHERENCE", "RE_COHERENCE", "Generator", "IndexMap", "RateSet",
              "StateVector", "VariableIndex", "basis_state", "pack", "validate_state"),
    "builders": ("DOUBLE_DOT_BARE", "DOUBLE_DOT_SET", "GENERALIZED_DOUBLE_DOT_SET",
                 "REDUCED_DOUBLE_DOT", "REGIMES", "SCENARIOS", "SINGLE_DOT_SET",
                 "BlockingConfig", "scenario_table"),
    "solver": ("DegenerateSteadyState", "ResidualTooLarge", "StepTooLarge", "Trajectory",
               "default_step", "evolve", "steady_state", "steady_states"),
    "analytic": ("bare_current", "dephased_current", "single_dot_current"),
    "experiments": ("SweepTable", "run_fermi_sweep", "run_sweep"),
    "config": ("ConfigError", "RunConfig", "load_config", "parse_config", "parse_grid"),
    "output": ("write_csv", "write_svg", "write_timeseries_csv"),
    "cli": ("cli_main",),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset(_EXPORTS) | {"acceptance", "observables"}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    if name in _MODULE_OF:
        value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
        globals()[name] = value
        return value
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
