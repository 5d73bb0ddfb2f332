"""An exact rational oracle for the stationary engine.

solver.steady_states solves, for each generator G, the square system
A x = e_0, where A is G with its first row (the balance row of the first
diagonal slot) replaced by the normalization: ones on the diagonal
slots, zeros on the coherences.  exact_solution solves the same system
over the rationals: every float entry is exactly a Fraction, Gaussian
elimination on Fractions makes no rounding, and float(Fraction) rounds
each component once, to nearest.  It is the correctly rounded answer for
the bits the engine was given, at any rate spread, and checks the engine
alone; assembly keeps its own check (criterion 7).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping

import numpy as np


def exact_solution(matrix: np.ndarray, n_diag: int) -> list[Fraction] | None:
    """The exact solution of the engine's constrained system for the
    generator matrix, or None where that system is singular."""
    n = len(matrix)
    rows = [[Fraction(v) for v in row] for row in np.asarray(matrix, dtype=float).tolist()]
    if n:
        rows[0] = [Fraction(1)] * n_diag + [Fraction(0)] * (n - n_diag)
    for row, b in zip(rows, [1] + [0] * (n - 1)):
        row.append(Fraction(b))
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col]), None)
        if pivot is None:
            return None
        rows[col], rows[pivot] = rows[pivot], rows[col]
        top = rows[col]
        # generators are sparse; the pivot column of the rows below is not
        # cleared, as neither the pivot search nor back substitution reads it
        nonzero = [k for k in range(col + 1, n + 1) if top[k]]
        for row in rows[col + 1:]:
            if row[col]:
                factor = row[col] / top[col]
                for k in nonzero:
                    row[k] -= factor * top[k]
    x = [Fraction(0)] * n
    for col in reversed(range(n)):
        row = rows[col]
        x[col] = (row[n] - sum(row[k] * x[k] for k in range(col + 1, n))) / row[col]
    return x


def exact_current(index, weights: Mapping[str, float], solution: list[Fraction]) -> float:
    """The weighted occupation sum of the exact solution, rounded once."""
    return float(sum(Fraction(w) * solution[index.diagonal(label)]
                     for label, w in weights.items()))
