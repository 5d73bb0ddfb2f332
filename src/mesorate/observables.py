"""Currents from stationary or sampled states: each collector current is
the sum of the occupations of the states whose adjacent dot is filled,
weighted by the partial width into that collector, as the scenario's
channel table gives it (ChannelTable.weight_columns, or weights at one
RateSet).  currents and detector_drops read every row of an (N, dim)
array of states at once; one state is the one-row case.  The sweeps,
the steady command and the validation suite read the stationary outputs
through stationary_outputs alone."""

from __future__ import annotations

import math
from typing import Mapping

import numpy as np

from .analytic import single_dot_current
from .builders import ChannelTable
from .model import IndexMap, RateColumns


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
    detector current of its unprimed detector widths."""
    n = len(detector_currents)
    bare = map(single_dot_current, np.broadcast_to(columns["gamma_L"], n).tolist(),
               np.broadcast_to(columns["gamma_R"], n).tolist())
    return [b - i for b, i in zip(bare, detector_currents)]


def stationary_outputs(table: ChannelTable, columns: RateColumns, values: np.ndarray) -> dict:
    """Name -> column of the stationary outputs of every row of values,
    shape (N, dim), at its row of the rate columns: I_S, then, only when
    the table has a detector collector, I_D and Delta_I_D.  They are read
    in that order, so a call on one row raises that point's first error."""
    weights = table.weight_columns(columns)
    outputs = {"I_S": currents(table.index, weights["system"], values)}
    if weights["detector"]:
        outputs["I_D"] = currents(table.index, weights["detector"], values)
        outputs["Delta_I_D"] = detector_drops(columns, outputs["I_D"])
    return outputs
