"""Flat key = value run configuration.

Four sections: [scenario] names the model, [rates] carries the physical
parameters, [energies] the detector level E0 (read by fig3 only) and
[run] the command options dt, t_final, param, grid, format and blocking;
an unknown key is rejected.  The RK4 step cap and trace budget are
constants of the solver, not settings.  The format is deliberately flat
so golden configs diff cleanly; render_config writes a canonical form
that parse_config reads back unchanged.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from . import builders
from .model import RATE_FIELDS, EnergyConfig, RateSet


class ConfigError(ValueError):
    """Configuration problem; carries the 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


_ENERGY_KEYS = tuple(f.name for f in dataclasses.fields(EnergyConfig))
_RUN_FLOAT_KEYS = ("dt", "t_final")
_RUN_STR_KEYS = ("param", "grid", "format", "blocking")
_SECTIONS = ("scenario", "rates", "energies", "run")

BLOCKING_NAMES = {
    "blind": builders.BlockingConfig.blocked_on_either_dot,
    "resolving": builders.BlockingConfig.blocked_on_second_dot,
    "open": builders.BlockingConfig.unrestricted,
}


@dataclass(frozen=True)
class RunOptions:
    """Command options from the [run] section; None means unset."""

    dt: float | None = None
    t_final: float | None = None
    param: str | None = None
    grid: str | None = None
    format: str | None = None
    blocking: str | None = None


@dataclass(frozen=True)
class RunConfig:
    scenario: str
    rates: RateSet
    energy: EnergyConfig | None
    run: RunOptions

    def blocking_config(self) -> builders.BlockingConfig:
        name = self.run.blocking or "resolving"
        return BLOCKING_NAMES[name]()


def required_rates(scenario: str) -> tuple[str, ...]:
    """[rates] keys a scenario needs: each width its channel table reads
    (unprimed; alike under every blocking), dephasing, Omega if coherent."""
    table = builders.scenario_table(scenario, BLOCKING_NAMES["resolving"]())
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
    energy = None
    if sections["energies"]:
        energy_kwargs: dict[str, float] = {}
        for key, (token, lineno) in sections["energies"].items():
            if key not in _ENERGY_KEYS:
                raise ConfigError(f"unknown key {key} in section [energies]", lineno)
            energy_kwargs[key] = _parse_float(token, key, lineno)
        try:
            energy = EnergyConfig(**energy_kwargs)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

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
    if run.format is not None and run.format not in ("csv", "svg"):
        raise ConfigError(f"format must be csv or svg, got {run.format!r}")
    if run.blocking is not None and run.blocking not in BLOCKING_NAMES:
        raise ConfigError(f"blocking must be one of {sorted(BLOCKING_NAMES)}, got {run.blocking!r}")
    if run.dt is not None and run.dt <= 0.0:
        raise ConfigError("dt must be positive")
    if run.t_final is not None and run.t_final <= 0.0:
        raise ConfigError("t_final must be positive")

    return RunConfig(scenario=scenario, rates=rates, energy=energy, run=run)


def load_config(path: str) -> RunConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text)


def render_config(cfg: RunConfig) -> str:
    """Canonical text form; parse_config(render_config(c)) == c."""
    lines = ["[scenario]", f"name = {cfg.scenario}", "", "[rates]"]
    for key in RATE_FIELDS:
        lines.append(f"{key} = {getattr(cfg.rates, key)!r}")
    if cfg.energy is not None:
        lines.append("")
        lines.append("[energies]")
        for key in _ENERGY_KEYS:
            lines.append(f"{key} = {getattr(cfg.energy, key)!r}")
    run_items = [(k, getattr(cfg.run, k)) for k in _RUN_FLOAT_KEYS + _RUN_STR_KEYS]
    run_items = [(k, v) for k, v in run_items if v is not None]
    if run_items:
        lines.append("")
        lines.append("[run]")
        for key, value in run_items:
            lines.append(f"{key} = {value!r}" if isinstance(value, float) else f"{key} = {value}")
    return "\n".join(lines) + "\n"


def parse_grid(spec: str) -> list[float]:
    """Grid spec start:stop:count with an optional log/lin suffix.

    '1:1e4:4log' gives four log-spaced points from 1 to 1e4; the default
    spacing is linear.
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
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise ConfigError("grid endpoints must be finite")
    if spacing == "log":
        if start <= 0.0 or stop <= 0.0:
            raise ConfigError("log grids need positive endpoints")
        return [float(v) for v in np.geomspace(start, stop, count)]
    return [float(v) for v in np.linspace(start, stop, count)]
