"""Parameter sweeps over the stationary solutions.

The generators of a whole grid are assembled as one stack and solved by
one steady_states call, which gives every point exactly the bits of its
own steady_state solve.  Every quantity is a pure function of the sweep
specification, so repeated runs serialize to identical bytes.  A grid
point whose model is disconnected is reported as a row of NaNs with the
error message attached instead of aborting the sweep; any other error is
raised, the one the first failing point in grid order would raise.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import NamedTuple, Sequence

from . import analytic, builders, observables
from .model import RATE_FIELDS, EnergyConfig, RateSet, StateVector, state_violation_magnitude
from .solver import DegenerateSteadyState, steady_states

REGIME_BLIND = "blind"            # entry shut for either dot: no which-dot information
REGIME_RESOLVING = "resolving"    # entry shut only for the second dot
REGIME_EXTRAPOLATED = "extrapolated"  # entry open for both dots; untested territory


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
        if self.parameter not in RATE_FIELDS:
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


class _Point(NamedTuple):
    """A grid point ready for the stationary solve: quantities are its
    channel table's cell quantities."""

    param: float
    rates: RateSet
    blocking: builders.BlockingConfig | None
    reference: float
    regime: str | None
    quantities: array


def _solved_rows(scenario: str, points: list[_Point],
                 failure: Exception | None = None) -> list[SweepRow]:
    """Rows of the points in grid order, their generators solved as one
    stack per blocking configuration.

    A DegenerateSteadyState point becomes a row of NaNs carrying the
    message; any other error is raised, the first in grid order, with
    failure (raised by the point after the last one given) coming last.
    """
    solved = [None] * len(points)
    for blocking in dict.fromkeys(p.blocking for p in points):
        members = [k for k, p in enumerate(points) if p.blocking == blocking]
        table = builders.scenario_table(scenario, blocking)
        values, errors = steady_states(table.stack([points[k].quantities for k in members]),
                                       table.index)
        for k, v, err in zip(members, values, errors):
            solved[k] = (v, table.index, err)

    rows = []
    for p, (v, index, err) in zip(points, solved):
        if isinstance(err, DegenerateSteadyState):
            rows.append(SweepRow(p.param, math.nan, p.reference, math.nan, math.nan, math.nan,
                                 regime=p.regime, error=str(err)))
            continue
        if err is not None:
            raise err
        x = StateVector(v, index)
        w = observables.weights_for(scenario, p.rates, p.blocking)
        i_s = observables.current(x, w.system)
        if w.detector:
            i_d = observables.current(x, w.detector)
            delta = observables.delta_detector_current(p.rates, i_d)
        else:
            i_d = math.nan
            delta = math.nan
        rows.append(SweepRow(p.param, i_s, p.reference, i_d, delta,
                             state_violation_magnitude(x), regime=p.regime))
    if failure is not None:
        raise failure
    return rows


def run_sweep(spec: SweepSpec) -> list[SweepRow]:
    """Stationary currents along the grid, one row per grid point."""
    points = []
    for value in spec.grid:
        try:
            r = spec.base.replacing(spec.parameter, value)
            reference = _analytic_reference(spec.scenario, r)
            table = builders.scenario_table(spec.scenario, spec.blocking)
            points.append(_Point(value, r, spec.blocking, reference, None, table.quantities(r)))
        except (ValueError, ArithmeticError) as exc:  # raised once the points before it are solved
            return _solved_rows(spec.scenario, points, exc)
    return _solved_rows(spec.scenario, points)


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

    points = []
    for v in grid:
        regime, blocking = selector.classify(v)
        try:
            if regime == REGIME_BLIND:
                reference = _analytic_reference(builders.DOUBLE_DOT_BARE, base)
            elif regime == REGIME_RESOLVING:
                reference = _analytic_reference(builders.REDUCED_DOUBLE_DOT, base)
            else:
                reference = math.nan
            table = builders.scenario_table(builders.GENERALIZED_DOUBLE_DOT_SET, blocking)
            points.append(_Point(v, base, blocking, reference, regime, table.quantities(base)))
        except (ValueError, ArithmeticError) as exc:  # raised once the points before it are solved
            return _solved_rows(builders.GENERALIZED_DOUBLE_DOT_SET, points, exc)
    return _solved_rows(builders.GENERALIZED_DOUBLE_DOT_SET, points)
