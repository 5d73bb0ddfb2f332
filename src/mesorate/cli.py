"""Command-line interface.

The config file sets the model and the run values dt, t_final and
blocking, the flags the swept parameter, the grid, the output format and
steady's tolerance; no value has a second setter.

Exit codes: 0 success, 1 usage error, 2 configuration error, 3 numerical
failure, 4 validation failure.  cli_main maps a command's failure to its
code in one place, by class, with one stderr line: a degenerate model, a
refused RK4 run, a LinAlgError or any ArithmeticError (a stationary
residual over its bound included) is a numerical failure ("numerical
failure: ..."); any other ValueError, a ConfigError or a refused sweep
point included, a configuration error ("config error: ..."); an OSError
exits 2 too ("i/o error: ...").  So one refusal reads the same from
every command, and steady prints nothing before its state, outputs and
violations are all computed.

The module imports what every command uses; a command imports what only
it uses when it runs (acceptance for validate, experiments for sweep and
fig3, output for the commands that write a file), so a command's start-up
loads no module it does not run.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

import numpy as np

from . import builders, observables
from .config import ConfigError, load_config, parse_grid
from .model import basis_state, fixed_columns, validate_state
from .solver import DegenerateSteadyState, StepTooLarge, evolve_blocks, steady_state

_USAGE_ERROR, _CONFIG_ERROR, _NUMERICAL_ERROR, _VALIDATION_ERROR = 1, 2, 3, 4
# a LinAlgError is a ValueError, so these are caught before any ValueError;
# ArithmeticError covers ResidualTooLarge
_NUMERICAL_FAILURES = (DegenerateSteadyState, StepTooLarge, np.linalg.LinAlgError,
                       ArithmeticError)


# built on the first call, not at import; parse_args keeps no state in the
# parser, so every call can share it
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mesorate",
        description="Stationary currents and time evolution of detector-monitored quantum dots")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, writes_file=True):
        p.add_argument("--config", required=True, help="path to a key = value config file")
        if writes_file:
            p.add_argument("--out", required=True, help="output file path")

    p = sub.add_parser("steady", help="print stationary occupations and currents")
    add_common(p, writes_file=False)
    p.add_argument("--tol", type=float, default=1e-9,
                   help="state-validation tolerance, a finite number >= 0 (default 1e-9)")

    p = sub.add_parser("evolve", help="write a time-series CSV from a point mass on state a")
    add_common(p)

    p = sub.add_parser("sweep", help="scan one rate parameter and write the table")
    add_common(p)
    p.add_argument("--param", required=True, help="RateSet field to sweep")
    p.add_argument("--grid", required=True, help="start:stop:count with optional log/lin suffix")
    p.add_argument("--format", choices=("csv", "svg"), default="csv")

    p = sub.add_parser("fig3", help="current versus detector Fermi level (two-plateau step)")
    add_common(p)
    p.add_argument("--grid", required=True, help="Fermi-level grid, start:stop:count[log|lin]")
    p.add_argument("--format", choices=("csv", "svg"), default="csv")

    sub.add_parser("validate", help="run the full numeric-vs-analytic validation suite")
    return parser


def _cmd_steady(args) -> int:
    cfg = load_config(args.config)
    # a NaN tolerance would pass every check in validate_state
    if not (math.isfinite(args.tol) and args.tol >= 0.0):
        raise ConfigError(f"--tol must be a finite number >= 0, got {args.tol!r}")
    table = builders.scenario_table(cfg.scenario, cfg.blocking)
    x = steady_state(table.generator(cfg.rates))
    outputs = observables.stationary_outputs(table, fixed_columns(cfg.rates), x.values[np.newaxis])
    violations = validate_state(x, args.tol)

    print(f"scenario: {cfg.scenario}")
    print("occupations:")
    # + 0.0 folds negative zeros into plain zeros for display
    for label in x.index.diagonal_labels:
        print(f"  {label:3s} = {x.occupation(label) + 0.0:.12g}")
    for pair in x.index.coherence_pairs:
        c = x.coherence(pair)
        print(f"  Re[{pair[0]},{pair[1]}] = {c.real + 0.0:.12g}   "
              f"Im[{pair[0]},{pair[1]}] = {c.imag + 0.0:.12g}")
    for name, column in outputs.items():
        print(f"{name} = {column[0] + 0.0:.12g}")
    for v in violations:
        print(f"warning: {v}", file=sys.stderr)
    return 0


def _cmd_evolve(args) -> int:
    from . import output
    cfg = load_config(args.config)
    if cfg.t_final is None:
        raise ConfigError("evolve needs t_final in [run]")
    table = builders.scenario_table(cfg.scenario, cfg.blocking)
    g = table.generator(cfg.rates)
    w = table.weights(cfg.rates)
    x0 = basis_state(g.index, g.index.diagonal_labels[0])
    n_samples, blocks = evolve_blocks(g, x0, cfg.t_final, cfg.dt)
    output.write_timeseries_blocks(g.index, blocks, args.out, w["system"], w["detector"] or None)
    print(f"wrote {n_samples} samples to {args.out}")
    return 0


def _write_table(table, args, x_label: str) -> None:
    from . import output
    if args.format == "svg":
        output.write_svg(table, args.out, x_label=x_label)
    else:
        output.write_csv(table, args.out)
    print(f"wrote {len(table)} rows to {args.out}")
    failed = [k for k, message in enumerate(table.message) if message is not None]
    if failed:
        print(f"warning: {len(failed)} of {len(table)} rows are NaN; the first, at {x_label} = "
              f"{table['param'][failed[0]].item()!r}: {table.message[failed[0]]}", file=sys.stderr)


def _cmd_sweep(args) -> int:
    from .experiments import run_sweep
    cfg = load_config(args.config)
    table = run_sweep(cfg.scenario, cfg.rates, args.param, parse_grid(args.grid), cfg.blocking)
    _write_table(table, args, x_label=args.param)
    return 0


def _cmd_fig3(args) -> int:
    from .experiments import run_fermi_sweep
    cfg = load_config(args.config)
    if cfg.scenario != builders.GENERALIZED_DOUBLE_DOT_SET:
        raise ConfigError("fig3 needs scenario generalized_double_dot_set")
    if cfg.E0 is None:
        raise ConfigError("fig3 needs an [energies] section")
    table = run_fermi_sweep(cfg.rates, cfg.E0, parse_grid(args.grid))
    _write_table(table, args, x_label="detector Fermi level")
    return 0


def _cmd_validate(_args) -> int:
    from . import acceptance
    results = acceptance.run_all()
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"criterion {r.number}: {status}  {r.title}  [{r.detail}]")
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} criteria passed")
    return 0 if not failed else _VALIDATION_ERROR


_COMMANDS = {
    "steady": _cmd_steady,
    "evolve": _cmd_evolve,
    "sweep": _cmd_sweep,
    "fig3": _cmd_fig3,
    "validate": _cmd_validate,
}


def _join_grid_values(argv: list[str]) -> list[str]:
    """Fold `--grid -3:3:13` into `--grid=-3:3:13` so grids starting at a
    negative value survive option parsing."""
    out = []
    skip = False
    for i, arg in enumerate(argv):
        if skip:
            skip = False
            continue
        if arg == "--grid" and i + 1 < len(argv) and argv[i + 1].startswith("-") \
                and ":" in argv[i + 1]:
            out.append(f"--grid={argv[i + 1]}")
            skip = True
        else:
            out.append(arg)
    return out


def cli_main(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(_join_grid_values(list(argv)))
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else _USAGE_ERROR
    try:
        return _COMMANDS[args.command](args)
    except _NUMERICAL_FAILURES as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return _NUMERICAL_ERROR
    except ValueError as exc:       # a ConfigError included
        print(f"config error: {exc}", file=sys.stderr)
        return _CONFIG_ERROR
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return _CONFIG_ERROR


def main() -> None:
    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
