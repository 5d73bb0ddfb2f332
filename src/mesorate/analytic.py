"""Closed-form stationary currents, kept free of any builder code so the
numeric pipeline can be cross-checked against an independent path."""

from __future__ import annotations


def single_dot_current(width_left: float, width_right: float) -> float:
    """Resonant dc current through one level: wL*wR / (wL + wR)."""
    if width_left < 0.0 or width_right < 0.0:
        raise ValueError("widths must be >= 0")
    total = width_left + width_right
    if total == 0.0:
        raise ValueError("both widths are zero; the current is undefined")
    return width_left * width_right / total


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
    stretch = eta(gamma_L, Gamma_R)
    if Omega == 0.0:
        return 0.0
    if Gamma_L <= 0.0:
        raise ValueError("Gamma_L must be positive when Omega is nonzero")
    om2 = Omega ** 2
    return Gamma_R * om2 / (
        epsilon ** 2 / stretch + stretch * Gamma_R ** 2 / 4.0 + om2 * (2.0 + Gamma_R / Gamma_L))


def eta(gamma_L: float, Gamma_R: float) -> float:
    """Dephasing stretch factor eta = 1 + gamma_L/Gamma_R."""
    if Gamma_R <= 0.0:
        raise ValueError("Gamma_R must be positive (eta undefined otherwise)")
    return 1.0 + gamma_L / Gamma_R


def amplification_ratio(gamma_L: float, Gamma_R: float) -> float:
    """Detector-current drop per unit of system current, gamma_L/Gamma_R.

    Above 1 the detector amplifies: a small system current shows up as a
    larger variation of the detector current.
    """
    if Gamma_R <= 0.0:
        raise ValueError("Gamma_R must be positive")
    return gamma_L / Gamma_R
