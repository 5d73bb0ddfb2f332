"""Flat key = value run configuration.

Four sections: [scenario] names the model, [rates] carries the physical
parameters, [energies] the detector level E0 (read by fig3 only; a
section without it is rejected) and [run] the run values dt, t_final and
blocking; an unknown key is rejected.  The swept parameter, the grid and
the output format are set by command-line flags only (parse_grid turns a
--grid spec into the float64 array both sweeps take), and the RK4 step
cap, trace budget and rank tolerance are constants of the solver, not
settings, as is the grid cap MAX_GRID_POINTS here.  The format is
deliberately flat so golden configs diff cleanly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import builders
from .model import RATE_FIELDS, RateSet


class ConfigError(ValueError):
    """Configuration problem; carries the 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


# most points one --grid may ask for: each is a generator of the stack
# solved at once, 800 bytes for a 10x10 one, so the cap holds a stack to
# 80 MB and a count far above it is refused before anything is allocated
MAX_GRID_POINTS = 100_000

_RUN_FLOAT_KEYS = ("dt", "t_final")
_RUN_STR_KEYS = ("blocking",)
_SECTIONS = ("scenario", "rates", "energies", "run")


@dataclass(frozen=True)
class RunOptions:
    """Run values from the [run] section; None means unset."""

    dt: float | None = None
    t_final: float | None = None
    blocking: str | None = None


@dataclass(frozen=True)
class RunConfig:
    scenario: str
    rates: RateSet
    E0: float | None        # the [energies] detector level; None without the section
    run: RunOptions

    def blocking_config(self) -> builders.BlockingConfig | None:
        """The [run] blocking regime, resolving when unset; None for a
        scenario that fixes its own."""
        if self.scenario != builders.GENERALIZED_DOUBLE_DOT_SET:
            return None
        return builders.REGIMES[self.run.blocking or "resolving"]


def required_rates(scenario: str) -> tuple[str, ...]:
    """[rates] keys a scenario needs: each width its channel table reads
    (unprimed; alike under every blocking), dephasing, Omega if coherent."""
    generalized = scenario == builders.GENERALIZED_DOUBLE_DOT_SET
    table = builders.scenario_table(scenario,
                                    builders.REGIMES["resolving"] if generalized else None)
    needed = {ch.rate.removesuffix("_p") for ch in table.channels} | set(table.dephasing)
    if table.coherences:
        needed.add("Omega")
    return tuple(key for key in RATE_FIELDS if key in needed)


def _parse_float(token: str, key: str, line: int) -> float:
    try:
        value = float(token)
    except ValueError:
        raise ConfigError(f"malformed number for {key}: {token!r}", line) from None
    if not math.isfinite(value):
        raise ConfigError(f"{key} must be finite, got {token!r}", line)
    return value


def parse_config(text: str) -> RunConfig:
    """Parse and validate a configuration file's text."""
    sections: dict[str, dict[str, tuple[str, int]]] = {s: {} for s in _SECTIONS}
    opened: set[str] = set()
    current: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name not in _SECTIONS:
                raise ConfigError(f"unknown section [{name}]", lineno)
            current = name
            opened.add(name)
            continue
        if "=" not in line:
            raise ConfigError(f"expected key = value, got {line!r}", lineno)
        if current is None:
            raise ConfigError("key outside any section", lineno)
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key in sections[current]:
            raise ConfigError(f"duplicate key {key} in section [{current}]", lineno)
        sections[current][key] = (value, lineno)

    # [scenario]
    for key, (_, lineno) in sections["scenario"].items():
        if key != "name":
            raise ConfigError(f"unknown key {key} in section [scenario]", lineno)
    if "name" not in sections["scenario"]:
        raise ConfigError("missing required key name in section [scenario]")
    scenario, scen_line = sections["scenario"]["name"]
    if scenario not in builders.SCENARIOS:
        raise ConfigError(f"unknown scenario {scenario!r}", scen_line)

    # [rates]
    rate_kwargs: dict[str, float] = {}
    for key, (token, lineno) in sections["rates"].items():
        if key not in RATE_FIELDS:
            raise ConfigError(f"unknown key {key} in section [rates]", lineno)
        rate_kwargs[key] = _parse_float(token, key, lineno)
    for key in required_rates(scenario):
        if key not in rate_kwargs:
            raise ConfigError(f"missing required key {key} for scenario {scenario}")
    try:
        rates = RateSet(**rate_kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    # [energies]
    E0 = None
    for key, (token, lineno) in sections["energies"].items():
        if key != "E0":
            raise ConfigError(f"unknown key {key} in section [energies]", lineno)
        E0 = _parse_float(token, key, lineno)
    if E0 is None and "energies" in opened:
        raise ConfigError("missing required key E0 in section [energies]")

    # [run]
    run_kwargs: dict[str, object] = {}
    for key, (token, lineno) in sections["run"].items():
        if key in _RUN_FLOAT_KEYS:
            run_kwargs[key] = _parse_float(token, key, lineno)
        elif key in _RUN_STR_KEYS:
            run_kwargs[key] = token
        else:
            raise ConfigError(f"unknown key {key} in section [run]", lineno)
    run = RunOptions(**run_kwargs)
    if run.blocking is not None and run.blocking not in builders.REGIMES:
        raise ConfigError(f"blocking must be one of {sorted(builders.REGIMES)}, "
                          f"got {run.blocking!r}")
    if run.blocking is not None and scenario != builders.GENERALIZED_DOUBLE_DOT_SET:
        raise ConfigError(f"blocking applies to {builders.GENERALIZED_DOUBLE_DOT_SET} only, "
                          f"not to {scenario}, which fixes its own")
    if run.dt is not None and run.dt <= 0.0:
        raise ConfigError("dt must be positive")
    if run.t_final is not None and run.t_final <= 0.0:
        raise ConfigError("t_final must be positive")

    return RunConfig(scenario=scenario, rates=rates, E0=E0, run=run)


def load_config(path: str) -> RunConfig:
    try:
        with open(path, encoding="utf-8-sig") as fh:    # drops a leading byte-order mark
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text)


def parse_grid(spec: str) -> np.ndarray:
    """Grid spec start:stop:count with an optional log/lin suffix, as the
    float64 array the sweeps take.

    '1:1e4:4log' gives four log-spaced points from 1 to 1e4; the default
    spacing is linear.  A count above MAX_GRID_POINTS is refused.
    """
    parts = spec.split(":")
    if len(parts) != 3:
        raise ConfigError(f"grid spec must be start:stop:count, got {spec!r}")
    start_s, stop_s, count_s = (p.strip() for p in parts)
    spacing = "lin"
    for suffix in ("log", "lin"):
        if count_s.endswith(suffix):
            spacing = suffix
            count_s = count_s[: -len(suffix)]
            break
    try:
        start, stop, count = float(start_s), float(stop_s), int(count_s)
    except ValueError:
        raise ConfigError(f"malformed grid spec {spec!r}") from None
    if count < 1:
        raise ConfigError("grid count must be >= 1")
    if count > MAX_GRID_POINTS:
        raise ConfigError(f"grid count {count} exceeds the cap of {MAX_GRID_POINTS} points")
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise ConfigError("grid endpoints must be finite")
    if spacing == "log":
        if start <= 0.0 or stop <= 0.0:
            raise ConfigError("log grids need positive endpoints")
        return np.geomspace(start, stop, count)
    if not math.isfinite(stop - start):
        raise ConfigError(f"grid span {stop!r} - {start!r} overflows the float range")
    return np.linspace(start, stop, count)
