"""Closed-form stationary currents, kept free of any builder code so the
numeric pipeline can be cross-checked against an independent path."""

from __future__ import annotations

from dataclasses import dataclass

from .model import RateSet


def single_dot_current(width_left: float, width_right: float) -> float:
    """Resonant dc current through one level: wL*wR / (wL + wR)."""
    if width_left < 0.0 or width_right < 0.0:
        raise ValueError("widths must be >= 0")
    total = width_left + width_right
    if total == 0.0:
        raise ValueError("both widths are zero; the current is undefined")
    return width_left * width_right / total


def double_dot_current_bare(r: RateSet) -> float:
    """Stationary hopping current of the bare coupled dots: bare_current
    at the widths, hopping and detuning of r."""
    return bare_current(r.Gamma_L, r.Gamma_R, r.Omega, r.epsilon)


def double_dot_current_measured(r: RateSet) -> float:
    """Stationary coupled-dot current under fast-detector dephasing:
    dephased_current at the widths, hopping and detuning of r."""
    return dephased_current(r.Gamma_L, r.Gamma_R, r.Omega, r.epsilon, r.gamma_L)


def bare_current(Gamma_L: float, Gamma_R: float, Omega: float, epsilon: float) -> float:
    """Stationary hopping current of the bare coupled dots.

    Gamma_R * Omega^2 / (eps^2 + Gamma_R^2/4 + Omega^2 (2 + Gamma_R/Gamma_L)).
    Zero hopping short-circuits the formula to 0; the Gamma_L -> 0 pole is
    rejected.
    """
    if Omega == 0.0:
        return 0.0
    if Gamma_L <= 0.0:
        raise ValueError("Gamma_L must be positive when Omega is nonzero")
    om2 = Omega ** 2
    return Gamma_R * om2 / (epsilon ** 2 + Gamma_R ** 2 / 4.0 + om2 * (2.0 + Gamma_R / Gamma_L))


def dephased_current(Gamma_L: float, Gamma_R: float, Omega: float, epsilon: float,
                     gamma_L: float) -> float:
    """Stationary coupled-dot current under fast-detector dephasing.

    eta = 1 + gamma_L/Gamma_R stretches the coherence-decay term and
    shrinks the detuning term:
    Gamma_R * Omega^2 / (eps^2/eta + eta Gamma_R^2/4 + Omega^2 (2 + Gamma_R/Gamma_L)).
    """
    if Gamma_R <= 0.0:
        raise ValueError("Gamma_R must be positive (eta undefined otherwise)")
    if Omega == 0.0:
        return 0.0
    if Gamma_L <= 0.0:
        raise ValueError("Gamma_L must be positive when Omega is nonzero")
    eta = 1.0 + gamma_L / Gamma_R
    om2 = Omega ** 2
    return Gamma_R * om2 / (
        epsilon ** 2 / eta + eta * Gamma_R ** 2 / 4.0 + om2 * (2.0 + Gamma_R / Gamma_L))


def amplification_ratio(r: RateSet) -> float:
    """Detector-current drop per unit of system current, gamma_L/Gamma_R.

    Above 1 the detector amplifies: a small system current shows up as a
    larger variation of the detector current.
    """
    if r.Gamma_R <= 0.0:
        raise ValueError("Gamma_R must be positive")
    return r.gamma_L / r.Gamma_R


@dataclass(frozen=True)
class EtaFactor:
    """Dephasing stretch factor eta = 1 + gamma_L/Gamma_R."""

    eta: float

    def __post_init__(self):
        if not self.eta >= 1.0:
            raise ValueError(f"eta must be >= 1, got {self.eta!r}")

    @classmethod
    def from_rates(cls, r: RateSet) -> "EtaFactor":
        if r.Gamma_R <= 0.0:
            raise ValueError("Gamma_R must be positive")
        return cls(1.0 + r.gamma_L / r.Gamma_R)
