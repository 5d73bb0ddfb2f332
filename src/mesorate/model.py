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

PACK_TOL = 1e-12        # how far pack lets the occupations sum away from 1

# unprimed width -> its detector-occupied (primed) counterpart
_PRIMED_TWIN = {name: f"{name}_p" for name in ("gamma_L", "gamma_R", "Gamma_L", "Gamma_R")}
_WIDTH_FIELDS = (*_PRIMED_TWIN, *_PRIMED_TWIN.values())


@dataclass(frozen=True)
class RateSet:
    """All model parameters of one transport scenario.

    Lower-case gamma widths belong to the detector dot, upper-case Gamma
    widths to the measured system; the ``_p`` (primed) variants apply when
    the detector and the measured system are occupied together.  Primed
    widths left unset default to their unprimed values, which is the
    equal-amplitudes assumption used by the coupled-dot scenarios.

    Omega is the inter-dot hopping amplitude, epsilon the level detuning
    between the two system dots, and U1/U2 are the Coulomb shifts of the
    two dots by a detector electron, which decide whether the detector
    entry channel is blocked.
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
    U1: float = 0.0
    U2: float = 0.0

    def __post_init__(self):
        for name, twin in _PRIMED_TWIN.items():
            if getattr(self, twin) is None:
                object.__setattr__(self, twin, getattr(self, name))
        for name in RATE_FIELDS:
            object.__setattr__(self, name, float(getattr(self, name)))
        _, error = refused_rows(fixed_columns(self), 1)
        if error is not None:
            raise error

    @property
    def is_equal_amplitudes(self) -> bool:
        """True when every primed width equals its unprimed counterpart:
        the one-row case of equal_amplitude_rows."""
        return equal_amplitude_rows(fixed_columns(self))

    def swept_fields(self, name: str) -> tuple[str, ...]:
        """The fields a change of name sets: name itself and, when name is
        an unprimed width whose primed twin matches it, the twin too, so
        equal-amplitude parameter sets stay equal-amplitude under sweeps.
        """
        if name not in RATE_FIELDS:
            raise ValueError(f"unknown RateSet field {name!r}")
        twin = _PRIMED_TWIN.get(name)
        if twin is not None and getattr(self, twin) == getattr(self, name):
            return name, twin
        return (name,)

    def replacing(self, name: str, value: float) -> "RateSet":
        """Copy with the swept_fields of name set to value."""
        return dataclasses.replace(self, **dict.fromkeys(self.swept_fields(name), value))


# the sweepable parameters and [rates] config keys, in declaration order
RATE_FIELDS = tuple(f.name for f in dataclasses.fields(RateSet))

# N rate sets as columns, the layout of a sweep: each RateSet field maps to
# a float that every row shares or to an (N,) array holding one value per row
RateColumns = Mapping[str, "float | np.ndarray"]


def fixed_columns(r: RateSet) -> dict:
    """r as rate columns: every field its float."""
    return {f: getattr(r, f) for f in RATE_FIELDS}


def sweep_columns(base: RateSet, name: str, values: np.ndarray) -> dict:
    """The rate sets base.replacing(name, v) for v in values, as columns:
    the swept_fields of name hold the array values, every other field its
    float in base."""
    return {**fixed_columns(base), **dict.fromkeys(base.swept_fields(name), values)}


def refused_rows(columns: RateColumns, n: int) -> tuple[int, ValueError | None]:
    """The first of n rows of rate columns that the RateSet rule refuses
    (n if none) and that row's ValueError (None if none): its first
    non-finite field in RATE_FIELDS order, else its first negative width,
    unprimed before primed."""
    bad = np.zeros(n, dtype=bool)
    for name, v in columns.items():
        if isinstance(v, np.ndarray):
            bad |= ~np.isfinite(v) | (v < 0.0 if name in _WIDTH_FIELDS else False)
    # a float column is in every row, so row 0 is the first refused when one
    # breaks the rule; else it is the first row an array column breaks it in
    for first in [0, *np.flatnonzero(bad)[:1].tolist()] if n else []:
        row = {name: float(v[first] if isinstance(v, np.ndarray) else v)
               for name, v in columns.items()}
        for name in RATE_FIELDS:
            if not math.isfinite(row[name]):
                return first, ValueError(f"{name} must be finite, got {row[name]!r}")
        for name in _WIDTH_FIELDS:
            if row[name] < 0.0:
                return first, ValueError(f"width {name} must be >= 0, got {row[name]}")
    return n, None


def equal_amplitude_rows(columns: RateColumns):
    """Whether each row's primed widths equal its unprimed ones: a bool
    when no twin pair holds an array column, else a mask."""
    equal = True
    for name, twin in _PRIMED_TWIN.items():
        equal = equal & (columns[name] == columns[twin])
    return equal


def take_rows(columns: RateColumns, rows) -> dict:
    """The columns of the rows selected by an index, index array or slice."""
    return {f: v[rows] if isinstance(v, np.ndarray) else v for f, v in columns.items()}


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
        diagonals, coherence_pairs = tuple(diagonals), tuple(map(tuple, coherence_pairs))
        entries = []
        for label in diagonals:
            entries.append(VariableIndex(DIAGONAL, (label,), len(entries)))
        for pair in coherence_pairs:
            entries.append(VariableIndex(RE_COHERENCE, pair, len(entries)))
            entries.append(VariableIndex(IM_COHERENCE, pair, len(entries)))
        self.entries = tuple(entries)
        self._diag = {e.states[0]: e.position for e in entries if e.kind == DIAGONAL}
        self._re = {e.states: e.position for e in entries if e.kind == RE_COHERENCE}
        self._im = {e.states: e.position for e in entries if e.kind == IM_COHERENCE}
        if len(self._diag) != len(diagonals):
            raise ValueError("duplicate diagonal label")
        if len(self._re) != len(coherence_pairs):
            raise ValueError("duplicate coherence pair")
        for pair in coherence_pairs:
            if pair[0] == pair[1]:
                raise ValueError(f"coherence pair {pair!r} joins a state with itself")
            if pair[::-1] in self._re:
                raise ValueError(f"coherence pair {pair!r} is also given as {pair[::-1]!r}")
            if not self._diag.keys() >= set(pair):
                raise ValueError(f"coherence pair {pair!r} names a state with no diagonal slot")

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


class _Owned:
    """An array the package made and never exposed, for read_only to take
    without a copy.  Only evolve and the two sweeps wrap their arrays in
    it; every other construction copies."""

    __slots__ = ("array",)

    def __init__(self, array: np.ndarray):
        self.array = array


def read_only(a) -> np.ndarray:
    """a as a read-only float64 array of its own: a copy, so no caller
    keeps a way to write to it, or, for an _Owned float64 array, that
    array made read-only."""
    a = a.array if isinstance(a, _Owned) else np.array(a, dtype=float, copy=True)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class StateVector:
    """Packed density-matrix vector; diagonal entries are probabilities."""

    values: np.ndarray
    index: IndexMap

    def __post_init__(self):
        arr = read_only(self.values)
        if arr.shape != (len(self.index),):
            raise ValueError(f"expected {len(self.index)} slots, got shape {arr.shape}")
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
        m = read_only(self.matrix)
        n = len(self.index)
        if m.shape != (n, n):
            raise ValueError(f"generator must be {n}x{n}, got {m.shape}")
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return len(self.index)


def pack(index: IndexMap, occupations: Mapping[str, float],
         coherences: Mapping[tuple, complex] | None = None) -> StateVector:
    """Assemble a StateVector from occupation and coherence maps.

    Labels missing from the maps default to zero; unknown labels and
    occupation sums away from 1 (beyond PACK_TOL) are rejected.
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
    if not abs(total - 1.0) <= PACK_TOL:       # NaN compares False, so it is refused too
        raise ValueError(f"occupations sum to {total!r}, expected 1 within {PACK_TOL:g}")
    return StateVector(values, index)


def basis_state(index: IndexMap, label: str) -> StateVector:
    """Point mass on one diagonal state."""
    return pack(index, {label: 1.0})


def _invariant_columns(index: IndexMap, values: np.ndarray):
    """The trace (N,), occupations (N, n_diagonal), and per coherence pair
    |sigma|^2 and its bound p*q (N, n_pairs) of every row of values, with
    the bits Python gives one row: a per-row fsum trace; |sigma| is libm
    hypot as in abs(complex(re, im)), raising as abs does on overflow, and
    is squared by Python's ** (libm pow, which can differ in the last bit
    from x*x and raises on overflow); p and q clamp to >= 0 as max(p, 0.0)
    does, keeping -0.0 and NaN.  A row raises its first pair's error."""
    occupations = values[:, list(index.diagonal_positions)]
    trace = np.array(list(map(math.fsum, occupations.tolist())))
    sigma2, bound = np.empty((2, len(values), len(index.coherence_pairs)))
    with np.errstate(over="ignore", invalid="ignore"):
        clamped = np.where(occupations < 0.0, 0.0, occupations)     # diagonal slots come first
        for j, pair in enumerate(index.coherence_pairs):
            re, im = values[:, index.coherence(pair)].T
            size = np.hypot(re, im)
            if not np.all(np.isfinite(size) | ~np.isfinite(re) | ~np.isfinite(im)):
                raise OverflowError("absolute value too large")
            sigma2[:, j] = [h ** 2 for h in size.tolist()]
            bound[:, j] = clamped[:, index.diagonal(pair[0])] * clamped[:, index.diagonal(pair[1])]
    return trace, occupations, sigma2, bound


def validate_state(x: StateVector, tol: float = 1e-9) -> list[str]:
    """Report-only invariant check; empty list means the state is valid.

    Checks probability normalization, diagonal bounds [0, 1] and the
    positivity of each 2x2 coherence block, |sigma_pq|^2 <= p*q.
    """
    trace, occupations, sigma2, bound = _invariant_columns(x.index, x.values[np.newaxis])
    total = trace.tolist()[0]
    violations = []
    if not abs(total - 1.0) <= tol:            # NaN compares False, so it is reported too
        violations.append(f"normalization: diagonal sum {total!r} differs from 1 by {abs(total - 1.0):.3e}")
    for label, p in zip(x.index.diagonal_labels, occupations[0].tolist()):
        if p < -tol:
            violations.append(f"negativity: occupation of {label} is {p:.3e}")
        if p > 1.0 + tol:
            violations.append(f"overflow: occupation of {label} is {p:.3e} > 1")
    for pair, s2, b in zip(x.index.coherence_pairs, sigma2[0].tolist(), bound[0].tolist()):
        if not s2 <= b + tol:
            violations.append(
                f"coherence block {pair[0]},{pair[1]}: |sigma|^2 = {s2:.3e} exceeds {b:.3e}")
    return violations


def violation_magnitudes(index: IndexMap, values: np.ndarray) -> np.ndarray:
    """Largest raw invariant violation of every row of values, shape
    (N, dim), 0.0 for a clean row: the largest of |trace - 1|, each
    occupation's distance below 0 or above 1, and each coherence block's
    |sigma|^2 - p*q, with p and q clamped to >= 0.

    Any NaN invariant, an inf - inf excess included, makes its row NaN,
    and a zero result is +0.0 (the final + 0.0).
    """
    trace, p, sigma2, bound = _invariant_columns(index, values)
    with np.errstate(invalid="ignore"):     # inf - inf
        worst = np.maximum(np.abs(trace - 1.0),
                           np.maximum(-p, p - 1.0).max(axis=1, initial=-math.inf))
        for excess in (sigma2 - bound).T:
            worst = np.maximum(worst, excess)
    worst = worst + 0.0
    return worst
