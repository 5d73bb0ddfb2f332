"""Workload inputs, generated from the seed.

Each workload is one `mesorate` CLI command.  The seed shifts the sweep
grids by a fraction of one grid step (in log space) and the evolve
collector width by up to 10%, so different seeds give different inputs of
the same size and the same physics.  `validate` takes no input; its
checks are seeded inside the package, so every seed runs the same suite.

`quick` shrinks every input tenfold (grid points, RK4 steps) for the
self-test; it is never used for measurements.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass

NAMES = ("sweep", "sweep_stiff", "evolve", "validate")

# the README monitored config; gamma_R is the swept (or, for evolve, seeded) width
_MONITORED_RATES = {"gamma_L": 1.0, "gamma_R": 1e4, "Gamma_L": 1.0, "Gamma_R": 1.0,
                    "Omega": 1.0, "U1": 1.0, "U2": 2.0}
# the stiff regime of ROADMAP item 4
_STIFF_RATES = {"gamma_L": 1.0, "gamma_R": 1.0, "Gamma_L": 1e-3, "Gamma_R": 1e-3,
                "Omega": 1e-3, "U1": 0.0, "U2": 0.0}


@dataclass(frozen=True)
class Workload:
    name: str
    rates: dict          # RateSet fields of the config
    grid: str | None     # --grid spec for sweeps
    dt: float | None = None
    t_final: float | None = None

    def config_text(self) -> str:
        lines = ["[scenario]", "name = double_dot_set", "", "[rates]"]
        lines += [f"{k} = {v!r}" for k, v in self.rates.items()]
        if self.t_final is not None:
            lines += ["", "[run]", f"dt = {self.dt!r}", f"t_final = {self.t_final!r}"]
        return "\n".join(lines) + "\n"

    def argv(self, config_path: str | None, out_path: str | None) -> list[str]:
        if self.name == "validate":
            return ["validate"]
        if self.name == "evolve":
            return ["evolve", "--config", config_path, "--out", out_path]
        return ["sweep", "--config", config_path, "--param", "gamma_R",
                "--grid", self.grid, "--out", out_path]

    @property
    def writes_file(self) -> bool:
        return self.name != "validate"


def _log_grid(decades: float, count: int, shift: float) -> str:
    """count log-spaced points over `decades` decades from 1, shifted up
    by `shift` (0 <= shift < 1) of one grid step."""
    offset = 10.0 ** (shift * decades / (count - 1))
    return f"{offset!r}:{offset * 10.0 ** decades!r}:{count}log"


def make(name: str, seed: int, quick: bool = False) -> Workload:
    if name not in NAMES:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
    u = random.Random(f"{name}:{seed}").random()
    scale = 10 if quick else 1
    if name == "sweep":
        return Workload(name, dict(_MONITORED_RATES), _log_grid(4.0, 1000 // scale, u))
    if name == "sweep_stiff":
        return Workload(name, dict(_STIFF_RATES), _log_grid(12.0, 1000 // scale, u))
    if name == "evolve":
        rates = dict(_MONITORED_RATES, gamma_R=3.0 * (1.0 + 0.1 * u))
        return Workload(name, rates, None, dt=0.02 * scale, t_final=500.0)
    return Workload(name, {}, None)


def write_config(workload: Workload, directory: str) -> str | None:
    """Config file for the workload in `directory`; None for validate."""
    if workload.name == "validate":
        return None
    path = os.path.join(directory, f"{workload.name}.cfg")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(workload.config_text())
    return path
