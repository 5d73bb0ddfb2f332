"""Parameter sweeps over the stationary solutions.

Both sweeps take plain arguments and convert their grid once, to one
float64 array, refusing anything but a non-empty one-dimensional sequence.
A sweep stays columnar from the swept RateSet field to its SweepTable.  The
grid is one array column of the rate columns (model.sweep_columns), every
other field a float of the base RateSet, which is validated once.  One
ChannelTable.stack call checks the rows, a non-finite value being a row
the RateSet rule refuses like a negative width, evaluates the quantities
as an (N, n_quantities) array and scatters the rows before the first
refused one into their generators; one steady_states call solves the
stack, and the currents, Delta_I_D and the violation magnitude are read
from the (N, dim) array of solutions.  Each value has the bits the point
gives alone through RateSet, generator, steady_state and a one-row
stationary_outputs and violation_magnitudes: elementwise IEEE arithmetic
where that is exactly the scalar operation, a per-row fsum or ** where
numpy's add or square would differ in a last bit or in the sign of a
zero.  The closed-form reference column stays scalar Python per row, fed
the row's field values; it is NaN where the form is undefined or its
arithmetic fails (an overflow, a division by an underflowed zero).  Every
quantity is a pure function of the sweep's arguments, so repeated runs
serialize to identical bytes.

The points of a Fermi-level sweep differ only in their regime, so each
regime is one generator: it is solved once, and one fancy index gives
every point its regime's row before the grid fills the param column.

A grid point whose model is disconnected is reported as a row of NaNs
with the error message attached instead of aborting the sweep; any other
error is raised, the one the first failing point in grid order raises
alone: the channel table's stack reports the first row it refuses
together with that row's error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from typing import Sequence

import numpy as np

from . import analytic, builders, observables
from .model import (RATE_FIELDS, RateColumns, RateSet, _Owned, fixed_columns, read_only,
                    sweep_columns, take_rows, violation_magnitudes)
from .solver import DegenerateSteadyState, steady_states


SWEEP_HEADER = ("param", "I_S_numeric", "I_S_analytic", "I_D", "Delta_I_D", "max_violation")


@dataclass(frozen=True)
class SweepTable:
    """A sweep's points in grid order as columns: one read-only (N, 6) array
    of values, read by SWEEP_HEADER name, NaN where undefined or failed; each
    point's regime (None for run_sweep) and message (None or its error).
    values is copied by model.read_only, so no caller's array is aliased;
    the sweeps hand over their own arrays, which no caller has seen,
    through model._Owned."""

    values: np.ndarray
    regime: tuple[str, ...] | None
    message: tuple[str | None, ...]

    def __post_init__(self):
        v = read_only(self.values)
        if v.ndim != 2 or v.shape[1] != len(SWEEP_HEADER):
            raise ValueError(f"values must have shape (N, {len(SWEEP_HEADER)}), got {v.shape}")
        for name in ("regime", "message"):
            column = getattr(self, name)
            if column is not None and len(column) != len(v):
                raise ValueError(f"{name} must have {len(v)} entries, got {len(column)}")
        object.__setattr__(self, "values", v)

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, name: str) -> np.ndarray:
        return self.values[:, SWEEP_HEADER.index(name)]


# closed-form system current of each scenario with one, and the RateSet
# fields it reads, in argument order; for the full detector model the
# dephased form is the fast-detector limit value
_DEPHASED = (analytic.dephased_current, ("Gamma_L", "Gamma_R", "Omega", "epsilon", "gamma_L"))
_CLOSED_FORMS = {
    builders.SINGLE_DOT_SET: (analytic.single_dot_current, ("Gamma_L", "Gamma_R")),
    builders.DOUBLE_DOT_BARE: (analytic.bare_current, ("Gamma_L", "Gamma_R", "Omega", "epsilon")),
    builders.REDUCED_DOUBLE_DOT: _DEPHASED,
    builders.DOUBLE_DOT_SET: _DEPHASED,
}


def _closed_form(form, args) -> float:
    try:
        return form(*args)
    except (ValueError, ArithmeticError):   # undefined, or its arithmetic fails
        return math.nan


def _analytic_reference(scenario: str | None, columns: RateColumns, n: int) -> list[float]:
    """Closed-form system current of each of n rows, scalar Python fed the
    row's field values (evaluated once when none is an array column); NaN
    where the scenario has none or it is undefined or not representable."""
    if scenario not in _CLOSED_FORMS:
        return [math.nan] * n
    form, names = _CLOSED_FORMS[scenario]
    args = [columns[name] for name in names]
    if any(isinstance(a, np.ndarray) for a in args):
        return [_closed_form(form, row) for row in
                zip(*[a.tolist() if isinstance(a, np.ndarray) else repeat(a, n) for a in args])]
    return [_closed_form(form, args)] * n


def _grid_array(grid) -> np.ndarray:
    """grid as one float64 array; a non-empty 1-D sequence of numbers or a ValueError."""
    try:
        values = np.array(grid, dtype=float)
    except (TypeError, ValueError) as exc:     # a set, a generator, ragged, not numbers
        raise ValueError(f"grid must be a one-dimensional sequence of numbers: {exc}") from None
    if values.ndim != 1:
        raise ValueError(f"grid must be a one-dimensional sequence of numbers, "
                         f"got {values.ndim}-D")
    if not values.size:
        raise ValueError("grid must not be empty")
    return values


def _solved_rows(table: builders.ChannelTable, columns: RateColumns, matrices: np.ndarray,
                 params, references: list[float],
                 failure: Exception | None = None) -> SweepTable:
    """The points in grid order, one generator matrix and one row of the
    columns per point, the matrices solved as one stack.

    A DegenerateSteadyState point becomes a row of NaNs carrying the
    message; any other error is raised, the first in grid order, with
    failure (raised by the point after the last one given) coming last.
    """
    n = len(params)
    values, errors = steady_states(matrices, table.index)
    raised = next((k for k, err in enumerate(errors)
                   if err is not None and not isinstance(err, DegenerateSteadyState)), n)

    outputs = np.full((4, n), math.nan)     # I_S, I_D, Delta_I_D, max_violation

    def read(rows: list[int]) -> None:     # in the order a point alone reads them
        stationary = observables.stationary_outputs(table, take_rows(columns, rows), values[rows])
        outputs[:len(stationary), rows] = list(stationary.values())
        outputs[3, rows] = violation_magnitudes(table.index, values[rows])

    ok = [k for k, err in enumerate(errors[:raised]) if err is None]
    try:
        if ok:
            read(ok)
    except (ValueError, ArithmeticError):
        # raise the error of the first point in grid order, on its own
        for k in ok:
            read([k])
        raise
    if raised < n:
        raise errors[raised]
    if failure is not None:
        raise failure
    result = np.column_stack((params, outputs[0], references, *outputs[1:]))
    return SweepTable(_Owned(result), None,
                      tuple(None if err is None else str(err) for err in errors))


def run_sweep(scenario: str, base: RateSet, parameter: str, grid: Sequence[float],
              blocking: builders.BlockingConfig | None = None) -> SweepTable:
    """Stationary currents of scenario along the grid, one row per grid
    point, each point being base.replacing(parameter, value).

    An unknown scenario or a blocking it does not take is refused first,
    then an unknown parameter, then a grid that is not a non-empty
    one-dimensional sequence.  The grid is then one array column of the
    rate columns: checked, assembled and solved as arrays, its rows
    refused, solved or degenerate exactly as each point alone would be.
    """
    table = builders.scenario_table(scenario, blocking)
    if parameter not in RATE_FIELDS:
        raise ValueError(f"parameter {parameter!r} is not a RateSet field")
    values = _grid_array(grid)
    columns = sweep_columns(base, parameter, values)
    matrices, first, error = table.stack(columns, len(values))
    if not first:
        raise error
    columns = take_rows(columns, slice(first))
    return _solved_rows(table, columns, matrices, values[:first],
                        _analytic_reference(scenario, columns, first), failure=error)


# the scenario whose closed form is the fast-detector plateau of a regime
_PLATEAU = {"blind": builders.DOUBLE_DOT_BARE, "resolving": builders.REDUCED_DOUBLE_DOT}


def run_fermi_sweep(base: RateSet, E0: float, grid: Sequence[float]) -> SweepTable:
    """Stationary current of the monitored coupled dots versus the left
    detector Fermi level, E0 being the detector level.

    Each grid point selects its regime of builders.REGIMES and runs the
    generalized scenario under it: blind below E0 + U1, resolving from
    there, a threshold belonging to the regime above it.  U2 < U1 is
    refused, as are points at or below E0 and points at or above E0 + U2:
    the open regime there is extrapolated, reachable only as a sweep with
    [run] blocking = open.  The reference column holds the fast-detector
    plateau value of the regime: the bare current when blind, the
    dephased one when resolving.

    Every point of a regime shares its rates, so each regime present is
    solved once, a one-member stack, in the order of its first point, and
    each point takes its regime's row; the first error in grid order is
    that of the first failing regime.
    """
    E0 = float(E0)
    if not math.isfinite(E0):
        raise ValueError("E0 must be finite")
    if base.U2 < base.U1:
        raise ValueError("U2 must be >= U1 (second dot closer to the detector)")
    threshold_resolving, threshold_open = E0 + base.U1, E0 + base.U2
    levels = _grid_array(grid)
    # the grid is checked at once; the first refused level raises alone
    for v in levels[~(levels > E0) | (levels >= threshold_open)][:1].tolist():
        if not v > E0:
            raise ValueError(f"Fermi level {v!r} is not above the detector level E0 = {E0!r}")
        raise ValueError(
            f"Fermi level {v!r} reaches E0 + U2 = {threshold_open!r}; that territory is "
            "extrapolated, reachable only as a sweep with [run] blocking = open")

    names = ("blind", "resolving")
    codes = (levels >= threshold_resolving).astype(np.intp).tolist()     # indices into names
    columns = fixed_columns(base)
    rows, messages = np.empty((len(names), len(SWEEP_HEADER))), [None] * len(names)
    for code in dict.fromkeys(codes):     # in the order of first appearance
        table = builders.scenario_table(builders.GENERALIZED_DOUBLE_DOT_SET,
                                        builders.REGIMES[names[code]])
        reference = _analytic_reference(_PLATEAU[names[code]], columns, 1)
        solved = _solved_rows(table, columns, table.generator(base).matrix[np.newaxis],
                              levels[:1], reference)
        rows[code], messages[code] = solved.values[0], solved.message[0]
    values = rows[codes]     # each point takes its regime's row, then its own level
    values[:, 0] = levels
    return SweepTable(_Owned(values), tuple(map(names.__getitem__, codes)),
                      tuple(map(messages.__getitem__, codes)))
