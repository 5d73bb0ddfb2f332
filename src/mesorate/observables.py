"""Currents from state vectors: each collector current is the sum of the
occupations of the states whose adjacent dot is filled, weighted by the
partial width into that collector."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

from . import builders
from .analytic import single_dot_current
from .model import RateSet, StateVector

_RESOLVING = builders.BlockingConfig.blocked_on_second_dot()


@dataclass(frozen=True)
class CurrentWeights:
    """Diagonal-slot weight maps for the detector and system collectors.

    detector_return is a diagnostic: the rate at which blocked detector
    electrons leave back into the left reservoir.  It is not part of any
    validated current balance.
    """

    detector: Mapping[str, float]
    system: Mapping[str, float]
    detector_return: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self):
        for name in ("detector", "system", "detector_return"):
            weights = dict(getattr(self, name))
            for label, w in weights.items():
                if not (w >= 0.0):
                    raise ValueError(f"{name} weight for {label!r} must be >= 0, got {w!r}")
            object.__setattr__(self, name, weights)


def weights_for(scenario: str, r: RateSet,
                blocking: "builders.BlockingConfig | None" = None) -> CurrentWeights:
    """Collector weight maps of a scenario, read from its channel table;
    blocking (default: entry blocked by the second dot) only changes the
    generalized scenario's backflow diagnostic."""
    return CurrentWeights(**builders.scenario_table(scenario, blocking or _RESOLVING).weights(r))


def current(x: StateVector, weights: Mapping[str, float]) -> float:
    """Weighted occupation sum, in units of e times a rate."""
    try:
        return math.fsum(x.occupation(label) * w for label, w in weights.items())
    except KeyError as exc:
        raise ValueError(f"weight refers to a slot missing from the state: {exc}") from exc


def delta_detector_current(r: RateSet, detector_current: float) -> float:
    """Drop of the detector current relative to the no-measurement value.

    The reference is always the bare resonant detector current built from
    the unprimed detector widths.
    """
    return single_dot_current(r.gamma_L, r.gamma_R) - detector_current
