"""Stationary states and time evolution of dx/dt = G x.

The stationary state is found directly: one redundant balance row of G
is replaced by the probability normalization and the resulting square
system is solved by LU with partial pivoting, then polished with
extended-precision iterative refinement.  That keeps the stiff detector
limits (collector width four orders above the emitter width) out of the
integrator entirely.  Time evolution is fixed-step classical RK4 with a
guarded default step.  For a constant generator one RK4 step is exactly
the matrix polynomial P = I + hG + (hG)^2/2 + (hG)^3/6 + (hG)^4/24, so P
is built once per run and each step is one product P x written into a
row of one (n_samples, dim) array; the trace is still checked after every
step.  No adaptivity, no matrix exponentials, so reruns are
bit-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import Generator, IndexMap, StateVector, basis_state


class DegenerateSteadyState(RuntimeError):
    """The generator's null space has more than one direction."""


class NoConvergence(RuntimeError):
    """Relaxation toward the stationary state was not observed in time."""


class StepTooLarge(RuntimeError):
    """An integration step moved the trace beyond the per-step budget."""


@dataclass(frozen=True)
class Trajectory:
    """Sampled linear evolution: row k of the read-only (n_samples, dim)
    array values is the state at times[k], in the slot layout of index.

    times and values are copied unless they are float arrays that own
    their data and are already read-only (as evolve hands over its own),
    so a caller's writable array is never aliased."""

    times: np.ndarray
    values: np.ndarray
    index: IndexMap

    def __post_init__(self):
        t = _read_only(self.times)
        if np.any(np.diff(t) <= 0.0):
            raise ValueError("times must be strictly increasing")
        v = _read_only(self.values)
        if v.shape != (len(t), len(self.index)):
            raise ValueError(f"values must have shape {(len(t), len(self.index))}, got {v.shape}")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", v)

    @property
    def final(self) -> StateVector:
        return StateVector(self.values[-1], self.index)


def _read_only(a) -> np.ndarray:
    if (isinstance(a, np.ndarray) and a.dtype == np.float64 and a.base is None
            and not a.flags.writeable):
        return a
    a = np.array(a, dtype=float, copy=True)
    a.setflags(write=False)
    return a


def default_step(g: Generator) -> float:
    """Stability-guarded step, 0.1 over the largest matrix entry."""
    m = float(np.abs(g.matrix).max(initial=0.0))
    return 0.1 / m if m > 0.0 else math.inf


def steady_state(g: Generator, rank_tol: float = 1e-10) -> StateVector:
    """Stationary state: G x = 0 with the diagonal slots summing to 1.

    rank_tol is relative to the largest singular value and flags
    disconnected models whose null space is more than one-dimensional.
    The returned vector satisfies ||G x||_inf <= 1e-12 ||G||_inf.
    """
    G = g.matrix
    n = g.dim
    singulars = np.linalg.svd(G, compute_uv=False)
    largest = float(singulars[0]) if n else 0.0
    if largest == 0.0:
        raise DegenerateSteadyState("zero generator: every state is stationary")
    null_dim = int(np.count_nonzero(singulars <= rank_tol * largest))
    if null_dim > 1:
        raise DegenerateSteadyState(
            f"{null_dim}-dimensional null space: the model is disconnected")
    if null_dim == 0:
        raise ValueError("generator has no stationary direction; it does not conserve trace")

    # Any single balance row of a diagonal slot is linearly dependent on the
    # others (their sum is the zero row), so replacing the first one keeps
    # all information and makes the system square and nonsingular.
    A = G.copy()
    A[0, :] = 0.0
    A[0, list(g.index.diagonal_positions)] = 1.0
    rhs = np.zeros(n)
    rhs[0] = 1.0
    try:
        x = np.linalg.solve(A, rhs)
    except np.linalg.LinAlgError as exc:
        raise DegenerateSteadyState(f"constrained stationary system is singular: {exc}") from exc

    # Iterative refinement with the residual accumulated in extended
    # precision: recovers the tiny occupations (collector width >> emitter
    # width leaves primed states at ~1e-12) to full relative accuracy.
    A_ld = A.astype(np.longdouble)
    rhs_ld = rhs.astype(np.longdouble)
    for _ in range(3):
        residual = rhs_ld - A_ld @ x.astype(np.longdouble)
        x = x + np.linalg.solve(A, residual.astype(float))

    norm = g.norm_inf()
    defect = float(np.abs(G @ x).max())
    if defect > 1e-12 * norm:
        raise ArithmeticError(
            f"stationary residual {defect:.3e} exceeds 1e-12 * ||G||_inf = {1e-12 * norm:.3e}")
    return StateVector(x, g.index)


def _rk4_propagator(G: np.ndarray, h: float) -> np.ndarray:
    """P = I + hG + (hG)^2/2 + (hG)^3/6 + (hG)^4/24, in Horner form: the
    classical RK4 step of dx/dt = G x is x -> P x."""
    eye = np.eye(len(G))
    hG = h * G
    return eye + hG @ (eye + (hG / 2.0) @ (eye + (hG / 3.0) @ (eye + hG / 4.0)))


def evolve(g: Generator, x0: StateVector, t_final: float, dt: float | None = None,
           trace_budget_per_step: float = 1e-8, max_steps: int = 1_000_000) -> Trajectory:
    """Fixed-step RK4 trajectory from x0 over [0, t_final].

    The step is t_final divided into equal pieces no longer than dt
    (default: the stability guard 0.1/max|G|), so the last sample lands
    exactly on t_final.  The RK4 step of the constant generator is built
    once as the propagator P and each step is the one product P x, which
    agrees with the stage-wise step to rounding.

    The trace is checked after every step, not once on P: a per-step trace
    drift beyond trace_budget_per_step (or a NaN) raises StepTooLarge, so
    a run whose step is unstable stops where it blows up.  A well-formed
    generator keeps the drift at rounding level.

    max_steps bounds runaway runs: a widely spread rate set drives the
    guard step to t_final/dt in the millions, and the stationary question
    behind such runs belongs to steady_state, not the integrator.
    """
    if x0.index != g.index:
        raise ValueError("initial state uses a different slot layout than the generator")
    if t_final <= 0.0:
        raise ValueError("t_final must be positive")
    if dt is None:
        dt = default_step(g)
        if not math.isfinite(dt):
            dt = t_final
    if dt <= 0.0:
        raise ValueError("dt must be positive")

    n_steps = max(1, math.ceil(t_final / dt - 1e-9))
    if n_steps > max_steps:
        raise ValueError(
            f"t_final/dt asks for {n_steps} steps (cap {max_steps}); raise dt, shorten "
            "t_final, or use steady_state for the stationary answer")
    h = t_final / n_steps
    P = _rk4_propagator(g.matrix, h)
    # IndexMap puts the diagonal slots first
    n_diag = len(g.index.diagonal_positions)

    values = np.empty((n_steps + 1, g.dim))
    x = values[0] = x0.values
    trace = math.fsum(x[:n_diag].tolist())
    for k in range(1, n_steps + 1):
        x = values[k] = P @ x
        trace_next = math.fsum(x[:n_diag].tolist())
        drift = abs(trace_next - trace)
        if not drift <= trace_budget_per_step:
            raise StepTooLarge(
                f"trace moved by {drift:.3e} in one step of {h:.3e}; shrink dt")
        trace = trace_next
    times = np.arange(n_steps + 1) * h
    times.setflags(write=False)
    values.setflags(write=False)
    return Trajectory(times, values, g.index)


def relaxation_check(g: Generator, tol: float, horizon_cap: float | None = None,
                     start_label: str | None = None) -> float:
    """Earliest sampled time at which the evolution is within tol of the
    stationary state (sup norm), starting from a point mass on the first
    diagonal slot.

    The search doubles its horizon until the tolerance is met; beyond
    horizon_cap (default 1e4 over the largest matrix entry) it raises
    NoConvergence.  Degenerate generators have nothing to relax to and
    also raise NoConvergence.
    """
    try:
        target = steady_state(g)
    except DegenerateSteadyState as exc:
        raise NoConvergence(f"no unique stationary state: {exc}") from exc

    label = start_label if start_label is not None else g.index.diagonal_labels[0]
    x0 = basis_state(g.index, label)
    scale = float(np.abs(g.matrix).max(initial=0.0))
    horizon = 1.0 / scale
    if horizon_cap is None:
        horizon_cap = 1e4 / scale

    while horizon <= horizon_cap:
        traj = evolve(g, x0, horizon)
        gaps = np.abs(traj.values - target.values).max(axis=1)
        hits = np.nonzero(gaps < tol)[0]
        if hits.size:
            return float(traj.times[hits[0]])
        horizon *= 2.0
    raise NoConvergence(
        f"not within {tol:g} of the stationary state by t = {horizon_cap:g}")
