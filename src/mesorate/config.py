"""Flat key = value run configuration.

Four sections: [scenario] names the model, [rates] carries the physical
parameters, [energies] the detector level E0 (read by fig3 only; a
section without it is rejected) and [run] the run values dt, t_final and
blocking.  One table names each section's keys; any other key is
rejected.  The swept parameter, the grid and the output format are set by
command-line flags only (parse_grid turns a --grid spec into the float64
array both sweeps take), and the RK4 step cap, trace budget and rank
tolerance are constants of the solver, not settings, as is the grid cap
MAX_GRID_POINTS here.  The format is deliberately flat so golden configs
diff cleanly.
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

# each section's keys; name and blocking are text, every other value a float
_SECTION_KEYS = {"scenario": ("name",), "rates": RATE_FIELDS, "energies": ("E0",),
                 "run": ("dt", "t_final", "blocking")}


@dataclass(frozen=True)
class RunConfig:
    """What the commands read: the model, the [energies] level and the [run]
    values, None where unset; blocking is the effective regime, [run]
    blocking's (resolving when unset) on generalized_double_dot_set, None
    on every scenario that fixes its own."""

    scenario: str
    rates: RateSet
    E0: float | None
    dt: float | None
    t_final: float | None
    blocking: builders.BlockingConfig | None


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
    sections: dict[str, dict[str, tuple[str, int]]] = {s: {} for s in _SECTION_KEYS}
    opened: set[str] = set()
    current: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name not in _SECTION_KEYS:
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

    def read(section: str) -> dict[str, object]:     # each key checked and read in file order
        values: dict[str, object] = {}
        for key, (token, lineno) in sections[section].items():
            if key not in _SECTION_KEYS[section]:
                raise ConfigError(f"unknown key {key} in section [{section}]", lineno)
            values[key] = token if key in ("name", "blocking") else _parse_float(token, key, lineno)
        return values

    if "name" not in read("scenario"):
        raise ConfigError("missing required key name in section [scenario]")
    scenario, scen_line = sections["scenario"]["name"]
    if scenario not in builders.SCENARIOS:
        raise ConfigError(f"unknown scenario {scenario!r}", scen_line)

    rate_kwargs = read("rates")
    for key in required_rates(scenario):
        if key not in rate_kwargs:
            raise ConfigError(f"missing required key {key} for scenario {scenario}")
    try:
        rates = RateSet(**rate_kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    E0 = read("energies").get("E0")
    if E0 is None and "energies" in opened:
        raise ConfigError("missing required key E0 in section [energies]")

    run = read("run")
    blocking, dt, t_final = run.get("blocking"), run.get("dt"), run.get("t_final")
    if blocking is not None and blocking not in builders.REGIMES:
        raise ConfigError(f"blocking must be one of {sorted(builders.REGIMES)}, "
                          f"got {blocking!r}")
    if blocking is not None and scenario != builders.GENERALIZED_DOUBLE_DOT_SET:
        raise ConfigError(f"blocking applies to {builders.GENERALIZED_DOUBLE_DOT_SET} only, "
                          f"not to {scenario}, which fixes its own")
    if dt is not None and dt <= 0.0:
        raise ConfigError("dt must be positive")
    if t_final is not None and t_final <= 0.0:
        raise ConfigError("t_final must be positive")

    if scenario == builders.GENERALIZED_DOUBLE_DOT_SET:
        blocking = builders.REGIMES[blocking or "resolving"]
    return RunConfig(scenario, rates, E0, dt, t_final, blocking)


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
