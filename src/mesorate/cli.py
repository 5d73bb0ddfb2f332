"""Command-line interface.

Exit codes: 0 success, 1 usage error, 2 configuration error, 3 numerical
failure (degenerate model or no convergence), 4 validation failure.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from . import acceptance, builders, observables, output
from .config import ConfigError, RunConfig, load_config, parse_grid
from .experiments import SweepSpec, run_fermi_sweep, run_sweep
from .model import basis_state, validate_state
from .solver import DegenerateSteadyState, NoConvergence, StepTooLarge, evolve, steady_state

_USAGE_ERROR, _CONFIG_ERROR, _NUMERICAL_ERROR, _VALIDATION_ERROR = 1, 2, 3, 4


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
    p.add_argument("--tol", type=float, default=None,
                   help="state-validation tolerance (default 1e-9 or MESORATE_TOL)")

    p = sub.add_parser("evolve", help="write a time-series CSV from a point mass on state a")
    add_common(p)

    p = sub.add_parser("sweep", help="scan one rate parameter and write the table")
    add_common(p)
    p.add_argument("--param", help="RateSet field to sweep")
    p.add_argument("--grid", help="start:stop:count with optional log/lin suffix")
    p.add_argument("--format", choices=("csv", "svg"), default=None)

    p = sub.add_parser("fig3", help="current versus detector Fermi level (two-plateau step)")
    add_common(p)
    p.add_argument("--grid", help="Fermi-level grid, start:stop:count[log|lin]")
    p.add_argument("--format", choices=("csv", "svg"), default=None)

    sub.add_parser("validate", help="run the full numeric-vs-analytic validation suite")
    return parser


def _default_tol(args) -> float:
    # a NaN tolerance would pass every check in validate_state
    tol, source = args.tol, "--tol"
    if tol is None:
        env = os.environ.get("MESORATE_TOL")
        if not env:
            return 1e-9
        try:
            tol, source = float(env), "MESORATE_TOL"
        except ValueError:
            raise ConfigError(f"MESORATE_TOL is not a number: {env!r}") from None
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ConfigError(f"{source} must be a finite number >= 0, got {tol!r}")
    return tol


def _pick(flag_value, config_value, name: str, required: bool = True):
    value = flag_value if flag_value is not None else config_value
    if value is None and required:
        raise ConfigError(f"{name} must be given on the command line or in [run]")
    return value


def _generator_for(cfg: RunConfig):
    blocking = cfg.blocking_config()
    return builders.build_scenario(cfg.scenario, cfg.rates, blocking), blocking


def _cmd_steady(args) -> int:
    cfg = load_config(args.config)
    tol = _default_tol(args)
    g, blocking = _generator_for(cfg)
    x = steady_state(g)
    w = observables.weights_for(cfg.scenario, cfg.rates, blocking)

    print(f"scenario: {cfg.scenario}")
    print("occupations:")
    for label in x.index.diagonal_labels:
        print(f"  {label:3s} = {x.occupation(label):.12g}")
    for pair in x.index.coherence_pairs:
        c = x.coherence(pair)
        # + 0.0 folds negative zeros into plain zeros for display
        print(f"  Re[{pair[0]},{pair[1]}] = {c.real + 0.0:.12g}   "
              f"Im[{pair[0]},{pair[1]}] = {c.imag + 0.0:.12g}")
    i_s = observables.current(x, w.system)
    print(f"I_S = {i_s:.12g}")
    if w.detector:
        i_d = observables.current(x, w.detector)
        print(f"I_D = {i_d:.12g}")
        print(f"Delta_I_D = {observables.delta_detector_current(cfg.rates, i_d):.12g}")
    violations = validate_state(x, tol)
    for v in violations:
        print(f"warning: {v}", file=sys.stderr)
    return 0


def _cmd_evolve(args) -> int:
    cfg = load_config(args.config)
    if cfg.run.t_final is None:
        raise ConfigError("evolve needs t_final in [run]")
    g, blocking = _generator_for(cfg)
    w = observables.weights_for(cfg.scenario, cfg.rates, blocking)
    x0 = basis_state(g.index, g.index.diagonal_labels[0])
    traj = evolve(g, x0, cfg.run.t_final, cfg.run.dt)
    output.write_timeseries_csv(traj, args.out, w.system, w.detector or None)
    print(f"wrote {len(traj.times)} samples to {args.out}")
    return 0


def _write_table(rows, args, cfg: RunConfig, x_label: str) -> None:
    fmt = _pick(args.format, cfg.run.format, "format", required=False) or "csv"
    if fmt == "svg":
        output.write_svg(rows, args.out, x_label=x_label, y_label="I_S [e*rate]")
    else:
        output.write_csv(rows, args.out)
    print(f"wrote {len(rows)} rows to {args.out}")


def _cmd_sweep(args) -> int:
    cfg = load_config(args.config)
    param = _pick(args.param, cfg.run.param, "--param")
    grid_spec = _pick(args.grid, cfg.run.grid, "--grid")
    grid = parse_grid(grid_spec)
    try:
        spec = SweepSpec(cfg.scenario, cfg.rates, param, tuple(grid), cfg.blocking_config())
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    rows = run_sweep(spec)
    _write_table(rows, args, cfg, x_label=param)
    return 0


def _cmd_fig3(args) -> int:
    cfg = load_config(args.config)
    if cfg.scenario != builders.GENERALIZED_DOUBLE_DOT_SET:
        raise ConfigError("fig3 needs scenario generalized_double_dot_set")
    if cfg.energy is None:
        raise ConfigError("fig3 needs an [energies] section")
    grid_spec = _pick(args.grid, cfg.run.grid, "--grid")
    grid = parse_grid(grid_spec)
    try:
        rows = run_fermi_sweep(cfg.rates, cfg.energy, grid)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    _write_table(rows, args, cfg, x_label="detector Fermi level")
    return 0


def _cmd_validate(_args) -> int:
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
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return _CONFIG_ERROR
    except (DegenerateSteadyState, NoConvergence, StepTooLarge) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return _NUMERICAL_ERROR
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _CONFIG_ERROR
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return _CONFIG_ERROR


def main() -> None:
    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
