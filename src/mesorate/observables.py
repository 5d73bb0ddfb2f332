"""Currents from state vectors: each collector current is the sum of the
occupations of the states whose adjacent dot is filled, weighted by the
partial width into that collector.  currents and detector_drops read every
row of an (N, dim) array of states at once; current and
delta_detector_current are their one-row cases."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from . import builders
from .analytic import single_dot_current
from .model import IndexMap, RateColumns, RateSet, StateVector, fixed_columns

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
    """Weighted occupation sum of one state: the one-row case of currents."""
    return currents(x.index, weights, x.values[np.newaxis])[0]


def delta_detector_current(r: RateSet, detector_current: float) -> float:
    """Drop of the detector current relative to the no-measurement value:
    the one-row case of detector_drops.

    The reference is always the bare resonant detector current built from
    the unprimed detector widths.
    """
    return detector_drops(fixed_columns(r), [detector_current])[0]


def currents(index: IndexMap, weights: Mapping, values: np.ndarray) -> list[float]:
    """Weighted occupation sum of every row of values, shape (N, dim), in
    units of e times a rate; a weight is a float or a column of N
    (ChannelTable.weight_columns).

    Each occupation-times-width product is one exact elementwise multiply;
    the sum keeps its per-row fsum, which numpy's add would not match in
    the sign of a zero sum or where the sum leaves the float range.
    """
    try:
        slots = [index.diagonal(label) for label in weights]
    except KeyError as exc:
        raise ValueError(f"weight refers to a slot missing from the state: {exc}") from exc
    if not weights:
        return [0.0] * len(values)
    with np.errstate(over="ignore", invalid="ignore"):
        products = [(values[:, slot] * w).tolist() for slot, w in zip(slots, weights.values())]
    return list(map(math.fsum, zip(*products)))


def detector_drops(columns: RateColumns, detector_currents: list[float]) -> list[float]:
    """Drop of each row's detector current below the bare resonant
    detector current of its unprimed detector widths, which is evaluated
    once unless a detector width is an array column."""
    gamma_l, gamma_r = columns["gamma_L"], columns["gamma_R"]
    n = len(detector_currents)
    if isinstance(gamma_l, np.ndarray) or isinstance(gamma_r, np.ndarray):
        bare = list(map(single_dot_current, np.broadcast_to(gamma_l, n).tolist(),
                        np.broadcast_to(gamma_r, n).tolist()))
    else:
        bare = [single_dot_current(gamma_l, gamma_r)] * n
    return [b - i for b, i in zip(bare, detector_currents)]
