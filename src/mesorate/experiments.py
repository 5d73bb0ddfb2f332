"""Parameter sweeps over the stationary solutions.

Rows are evaluated in grid order and every quantity is a pure function of
the sweep specification, so repeated runs serialize to identical bytes.
A grid point whose model is disconnected is reported as a row of NaNs
with the error message attached instead of aborting the sweep.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Sequence

from . import analytic, builders, observables
from .model import EnergyConfig, RateSet, state_violation_magnitude
from .solver import DegenerateSteadyState, steady_state

REGIME_BLIND = "blind"            # entry shut for either dot: no which-dot information
REGIME_RESOLVING = "resolving"    # entry shut only for the second dot
REGIME_EXTRAPOLATED = "extrapolated"  # entry open for both dots; untested territory

_SWEEPABLE = tuple(f.name for f in dataclasses.fields(RateSet))


@dataclass(frozen=True)
class SweepSpec:
    """One-parameter scan of a scenario around a base RateSet."""

    scenario: str
    base: RateSet
    parameter: str
    grid: tuple[float, ...]
    blocking: builders.BlockingConfig | None = None

    def __post_init__(self):
        if self.scenario not in builders.SCENARIOS:
            raise ValueError(f"unknown scenario {self.scenario!r}")
        if self.parameter not in _SWEEPABLE:
            raise ValueError(f"parameter {self.parameter!r} is not a RateSet field")
        grid = tuple(float(v) for v in self.grid)
        if not grid:
            raise ValueError("grid must not be empty")
        if not all(math.isfinite(v) for v in grid):
            raise ValueError("grid values must be finite")
        object.__setattr__(self, "grid", grid)


@dataclass(frozen=True)
class SweepRow:
    """One grid point of a sweep; NaN marks undefined or failed entries."""

    param: float
    I_S_numeric: float
    I_S_analytic: float
    I_D: float
    Delta_I_D: float
    max_violation: float
    occupations: dict[str, float] = dataclasses.field(default_factory=dict)
    regime: str | None = None
    error: str | None = None


def _analytic_reference(scenario: str, r: RateSet) -> float:
    """Closed-form system current where one is defined; NaN otherwise."""
    try:
        if scenario == builders.SINGLE_DOT_SET:
            return analytic.single_dot_current(r.Gamma_L, r.Gamma_R)
        if scenario == builders.DOUBLE_DOT_BARE:
            return analytic.double_dot_current_bare(r)
        if scenario in (builders.REDUCED_DOUBLE_DOT, builders.DOUBLE_DOT_SET):
            # for the full detector model this is the fast-detector limit value
            return analytic.double_dot_current_measured(r)
    except ValueError:
        return math.nan
    return math.nan


def _evaluate_point(scenario: str, r: RateSet,
                    blocking: builders.BlockingConfig | None,
                    analytic_value: float | None = None,
                    regime: str | None = None) -> SweepRow:
    reference = _analytic_reference(scenario, r) if analytic_value is None else analytic_value
    try:
        g = builders.build_scenario(scenario, r, blocking)
        x = steady_state(g)
    except DegenerateSteadyState as exc:
        return SweepRow(math.nan, math.nan, reference, math.nan, math.nan, math.nan,
                        regime=regime, error=str(exc))
    w = observables.weights_for(scenario, r, blocking)
    i_s = observables.current(x, w.system)
    if w.detector:
        i_d = observables.current(x, w.detector)
        delta = observables.delta_detector_current(r, i_d)
    else:
        i_d = math.nan
        delta = math.nan
    return SweepRow(math.nan, i_s, reference, i_d, delta,
                    state_violation_magnitude(x),
                    occupations={lab: x.occupation(lab) for lab in x.index.diagonal_labels},
                    regime=regime)


def run_sweep(spec: SweepSpec) -> list[SweepRow]:
    """Stationary currents along the grid, one row per grid point."""
    rows = []
    for value in spec.grid:
        r = spec.base.replacing(spec.parameter, value)
        row = _evaluate_point(spec.scenario, r, spec.blocking)
        rows.append(dataclasses.replace(row, param=value))
    return rows


@dataclass(frozen=True)
class RegimeSelector:
    """Maps the left detector Fermi level to a blocking configuration.

    Below E0 + U1 the detector entry is shut no matter which dot is
    occupied; between E0 + U1 and E0 + U2 only the second dot shuts it.
    Boundaries are half-open upward: a Fermi level exactly at a threshold
    belongs to the regime above it.
    """

    E0: float
    U1: float
    U2: float

    def __post_init__(self):
        if self.U2 < self.U1:
            raise ValueError("U2 must be >= U1 (second dot closer to the detector)")

    @classmethod
    def from_parts(cls, energy: EnergyConfig, rates: RateSet) -> "RegimeSelector":
        return cls(energy.E0, rates.U1, rates.U2)

    @property
    def threshold_resolving(self) -> float:
        return self.E0 + self.U1

    @property
    def threshold_extrapolated(self) -> float:
        return self.E0 + self.U2

    def classify(self, fermi_level: float) -> tuple[str, builders.BlockingConfig]:
        if fermi_level >= self.threshold_extrapolated:
            return REGIME_EXTRAPOLATED, builders.BlockingConfig.unrestricted()
        if fermi_level >= self.threshold_resolving:
            return REGIME_RESOLVING, builders.BlockingConfig.blocked_on_second_dot()
        return REGIME_BLIND, builders.BlockingConfig.blocked_on_either_dot()


def run_fermi_sweep(base: RateSet, energy: EnergyConfig, grid: Sequence[float],
                    allow_extrapolation: bool = False) -> list[SweepRow]:
    """Stationary current of the monitored coupled dots versus the left
    detector Fermi level.

    Each grid point selects its blocking configuration through the
    RegimeSelector and runs the generalized builder.  The reference column
    holds the fast-detector plateau value of the regime: the bare current
    below E0 + U1, the dephased one above.  Points outside the resonance
    window (at or below E0) are rejected; points at or above E0 + U2 are
    rejected unless extrapolation is explicitly allowed.
    """
    selector = RegimeSelector.from_parts(energy, base)
    grid = [float(v) for v in grid]
    if not grid:
        raise ValueError("grid must not be empty")
    for v in grid:
        if not v > energy.E0:
            raise ValueError(f"Fermi level {v!r} is not above the detector level E0 = {energy.E0!r}")
        if v >= selector.threshold_extrapolated and not allow_extrapolation:
            raise ValueError(
                f"Fermi level {v!r} reaches E0 + U2 = {selector.threshold_extrapolated!r}; "
                "that territory is extrapolated and must be enabled explicitly")

    rows = []
    for v in grid:
        regime, blocking = selector.classify(v)
        if regime == REGIME_BLIND:
            reference = _analytic_reference(builders.DOUBLE_DOT_BARE, base)
        elif regime == REGIME_RESOLVING:
            reference = _analytic_reference(builders.REDUCED_DOUBLE_DOT, base)
        else:
            reference = math.nan
        row = _evaluate_point(builders.GENERALIZED_DOUBLE_DOT_SET, base, blocking,
                              analytic_value=reference, regime=regime)
        rows.append(dataclasses.replace(row, param=v))
    return rows
