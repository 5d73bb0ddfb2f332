"""Shared data model: tunneling rates, variable indexing, packed state
vectors and the real generator matrices driving dx/dt = G x.

Conventions used throughout the package: e = 1 and hbar = 1, so every
width, hopping amplitude and detuning is expressed in one common
inverse-time / energy unit, and currents come out in units of e times a
rate.  Coherences (off-diagonal density-matrix elements) are stored as
separate real and imaginary slots so that all linear algebra stays real;
the i*detuning rotation then acts as the 2x2 block [[0, -eps], [eps, 0]]
on the (Re, Im) pair.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

DIAGONAL = "diag"
RE_COHERENCE = "re"
IM_COHERENCE = "im"

_WIDTH_FIELDS = (
    "gamma_L", "gamma_R", "gamma_L_p", "gamma_R_p",
    "Gamma_L", "Gamma_R", "Gamma_L_p", "Gamma_R_p",
)
_ENERGY_FIELDS = ("Omega", "epsilon", "U", "U1", "U2")

# unprimed width -> its detector-occupied (primed) counterpart
_PRIMED_TWIN = {
    "gamma_L": "gamma_L_p",
    "gamma_R": "gamma_R_p",
    "Gamma_L": "Gamma_L_p",
    "Gamma_R": "Gamma_R_p",
}


@dataclass(frozen=True)
class RateSet:
    """All model parameters of one transport scenario.

    Lower-case gamma widths belong to the detector dot, upper-case Gamma
    widths to the measured system; the ``_p`` (primed) variants apply when
    the detector and the measured system are occupied together.  Primed
    widths left unset default to their unprimed values, which is the
    equal-amplitudes assumption used by the coupled-dot scenarios.

    Omega is the inter-dot hopping amplitude, epsilon the level detuning
    between the two system dots, and U/U1/U2 are the Coulomb shifts that
    decide whether the detector entry channel is blocked.
    """

    gamma_L: float = 0.0
    gamma_R: float = 0.0
    Gamma_L: float = 0.0
    Gamma_R: float = 0.0
    gamma_L_p: float | None = None
    gamma_R_p: float | None = None
    Gamma_L_p: float | None = None
    Gamma_R_p: float | None = None
    Omega: float = 0.0
    epsilon: float = 0.0
    U: float = 0.0
    U1: float = 0.0
    U2: float = 0.0

    def __post_init__(self):
        for name, twin in _PRIMED_TWIN.items():
            if getattr(self, twin) is None:
                object.__setattr__(self, twin, float(getattr(self, name)))
        for name in _WIDTH_FIELDS + _ENERGY_FIELDS:
            value = float(getattr(self, name))
            object.__setattr__(self, name, value)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        for name in _WIDTH_FIELDS:
            if getattr(self, name) < 0.0:
                raise ValueError(f"width {name} must be >= 0, got {getattr(self, name)}")

    @property
    def is_equal_amplitudes(self) -> bool:
        """True when every primed width equals its unprimed counterpart."""
        return all(getattr(self, t) == getattr(self, u) for u, t in _PRIMED_TWIN.items())

    def replacing(self, name: str, value: float) -> "RateSet":
        """Copy with one field changed.

        When an unprimed width is changed and its primed twin matched the
        old value, the twin follows, so equal-amplitude parameter sets stay
        equal-amplitude under sweeps.
        """
        if name not in {f.name for f in dataclasses.fields(self)}:
            raise ValueError(f"unknown RateSet field {name!r}")
        kwargs = {name: value}
        twin = _PRIMED_TWIN.get(name)
        if twin is not None and getattr(self, twin) == getattr(self, name):
            kwargs[twin] = value
        return dataclasses.replace(self, **kwargs)


@dataclass(frozen=True)
class EnergyConfig:
    """Level positions and reservoir Fermi levels.

    Only used to select the detector blocking regime; the rate equations
    themselves carry the energies through the widths and detunings.  Both
    resonant levels must sit inside their bias windows.
    """

    E0: float = 0.0
    E1: float = 0.0
    E2: float = 0.0
    EFL_det: float = 1.0
    EFR_det: float = -1.0
    EFL_sys: float = 1.0
    EFR_sys: float = -1.0

    def __post_init__(self):
        for f in dataclasses.fields(self):
            v = float(getattr(self, f.name))
            object.__setattr__(self, f.name, v)
            if not math.isfinite(v):
                raise ValueError(f"{f.name} must be finite")
        if not self.EFL_det > self.E0 > self.EFR_det:
            raise ValueError("detector level E0 must lie between the detector Fermi levels")
        if not self.EFL_sys > self.E1 > self.EFR_sys:
            raise ValueError("system level E1 must lie between the system Fermi levels")


@dataclass(frozen=True)
class VariableIndex:
    """One slot of the packed real vector.

    kind is DIAGONAL (states holds one label), RE_COHERENCE or
    IM_COHERENCE (states holds the ordered pair of coupled labels).
    """

    kind: str
    states: tuple[str, ...]
    position: int

    def __post_init__(self):
        if self.kind == DIAGONAL:
            if len(self.states) != 1:
                raise ValueError("diagonal slot needs exactly one state label")
        elif self.kind in (RE_COHERENCE, IM_COHERENCE):
            if len(self.states) != 2:
                raise ValueError("coherence slot needs a state pair")
        else:
            raise ValueError(f"unknown slot kind {self.kind!r}")


class IndexMap:
    """Canonical slot layout: diagonal slots first, then (Re, Im) pairs."""

    def __init__(self, diagonals, coherence_pairs=()):
        entries = []
        for label in diagonals:
            entries.append(VariableIndex(DIAGONAL, (label,), len(entries)))
        for pair in coherence_pairs:
            entries.append(VariableIndex(RE_COHERENCE, tuple(pair), len(entries)))
            entries.append(VariableIndex(IM_COHERENCE, tuple(pair), len(entries)))
        self.entries = tuple(entries)
        self._diag = {e.states[0]: e.position for e in entries if e.kind == DIAGONAL}
        self._re = {e.states: e.position for e in entries if e.kind == RE_COHERENCE}
        self._im = {e.states: e.position for e in entries if e.kind == IM_COHERENCE}
        if len(self._diag) != len(diagonals):
            raise ValueError("duplicate diagonal label")
        if len(self._re) != len(tuple(coherence_pairs)):
            raise ValueError("duplicate coherence pair")

    def __len__(self):
        return len(self.entries)

    def __eq__(self, other):
        return isinstance(other, IndexMap) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        return f"IndexMap(diagonals={self.diagonal_labels}, pairs={self.coherence_pairs})"

    @property
    def diagonal_labels(self) -> tuple[str, ...]:
        return tuple(self._diag)

    @property
    def diagonal_positions(self) -> tuple[int, ...]:
        return tuple(self._diag.values())

    @property
    def coherence_pairs(self) -> tuple[tuple[str, str], ...]:
        return tuple(self._re)

    def diagonal(self, label: str) -> int:
        try:
            return self._diag[label]
        except KeyError:
            raise KeyError(f"no diagonal slot for state {label!r}") from None

    def coherence(self, pair) -> tuple[int, int]:
        """Positions of the (Re, Im) slots of one coherence pair."""
        pair = tuple(pair)
        try:
            return self._re[pair], self._im[pair]
        except KeyError:
            raise KeyError(f"no coherence slot for pair {pair!r}") from None


@dataclass(frozen=True)
class StateVector:
    """Packed density-matrix vector; diagonal entries are probabilities."""

    values: np.ndarray
    index: IndexMap

    def __post_init__(self):
        arr = np.array(self.values, dtype=float, copy=True)
        if arr.shape != (len(self.index),):
            raise ValueError(f"expected {len(self.index)} slots, got shape {arr.shape}")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    def trace(self) -> float:
        return math.fsum(self.values[p] for p in self.index.diagonal_positions)

    def occupation(self, label: str) -> float:
        return float(self.values[self.index.diagonal(label)])

    def coherence(self, pair) -> complex:
        re, im = self.index.coherence(pair)
        return complex(self.values[re], self.values[im])


@dataclass(frozen=True)
class Generator:
    """Real square matrix G of an autonomous linear system dx/dt = G x."""

    matrix: np.ndarray
    index: IndexMap
    label: str

    def __post_init__(self):
        m = np.array(self.matrix, dtype=float, copy=True)
        n = len(self.index)
        if m.shape != (n, n):
            raise ValueError(f"generator must be {n}x{n}, got {m.shape}")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return len(self.index)

    def norm_inf(self) -> float:
        return float(np.abs(self.matrix).sum(axis=1).max()) if self.dim else 0.0


def trace_defect(g: Generator) -> float:
    """Largest column sum of G over diagonal rows.

    Probability flow conservation makes the all-ones row over diagonal
    slots (zero over coherence slots) a left null vector, so this is 0 up
    to rounding for every well-formed generator.
    """
    left = np.zeros(g.dim)
    left[list(g.index.diagonal_positions)] = 1.0
    return float(np.abs(left @ g.matrix).max())


def pack(index: IndexMap, occupations: Mapping[str, float],
         coherences: Mapping[tuple, complex] | None = None,
         tol: float = 1e-12) -> StateVector:
    """Assemble a StateVector from occupation and coherence maps.

    Labels missing from the maps default to zero; unknown labels and
    occupation sums away from 1 (beyond tol) are rejected.
    """
    values = np.zeros(len(index))
    for label, p in occupations.items():
        values[index.diagonal(label)] = float(p)
    for pair, c in (coherences or {}).items():
        re, im = index.coherence(pair)
        c = complex(c)
        values[re] = c.real
        values[im] = c.imag
    total = math.fsum(float(p) for p in occupations.values())
    if abs(total - 1.0) > tol:
        raise ValueError(f"occupations sum to {total!r}, expected 1 within {tol:g}")
    return StateVector(values, index)


def unpack(x: StateVector):
    """Inverse of pack: (occupations, coherences) with every slot listed."""
    occ = {label: x.occupation(label) for label in x.index.diagonal_labels}
    coh = {pair: x.coherence(pair) for pair in x.index.coherence_pairs}
    return occ, coh


def basis_state(index: IndexMap, label: str) -> StateVector:
    """Point mass on one diagonal state."""
    return pack(index, {label: 1.0})


def _invariants(x: StateVector):
    """Raw invariant quantities: the trace, each (label, occupation) and
    each coherence block (pair, |sigma|^2, p*q), its occupations clamped
    to zero so a reported negative occupation does not double-report."""
    occupations = [(label, x.occupation(label)) for label in x.index.diagonal_labels]
    blocks = []
    for pair in x.index.coherence_pairs:
        bound = max(x.occupation(pair[0]), 0.0) * max(x.occupation(pair[1]), 0.0)
        blocks.append((pair, abs(x.coherence(pair)) ** 2, bound))
    return x.trace(), occupations, blocks


def validate_state(x: StateVector, tol: float = 1e-9) -> list[str]:
    """Report-only invariant check; empty list means the state is valid.

    Checks probability normalization, diagonal bounds [0, 1] and the
    positivity of each 2x2 coherence block, |sigma_pq|^2 <= p*q.
    """
    total, occupations, blocks = _invariants(x)
    violations = []
    if abs(total - 1.0) > tol:
        violations.append(f"normalization: diagonal sum {total!r} differs from 1 by {abs(total - 1.0):.3e}")
    for label, p in occupations:
        if p < -tol:
            violations.append(f"negativity: occupation of {label} is {p:.3e}")
        if p > 1.0 + tol:
            violations.append(f"overflow: occupation of {label} is {p:.3e} > 1")
    for pair, sigma2, bound in blocks:
        if sigma2 > bound + tol:
            violations.append(
                f"coherence block {pair[0]},{pair[1]}: |sigma|^2 = {sigma2:.3e} exceeds {bound:.3e}")
    return violations


def state_violation_magnitude(x: StateVector) -> float:
    """Largest raw invariant violation of a state, 0.0 when clean."""
    total, occupations, blocks = _invariants(x)
    worst = abs(total - 1.0)
    for _, p in occupations:
        worst = max(worst, -p, p - 1.0)
    for _, sigma2, bound in blocks:
        worst = max(worst, sigma2 - bound)
    return max(worst, 0.0)
