"""Stationary states and time evolution of dx/dt = G x.

The stationary state is found directly: one redundant balance row of G
is replaced by the probability normalization and the resulting square
system is solved by LU with partial pivoting, then polished with
extended-precision iterative refinement.  That keeps the stiff detector
limits (collector width four orders above the emitter width) out of the
integrator entirely.  One engine, steady_states, solves a whole stack of
generators (N, dim, dim): each LAPACK step (the SVD rank test, the LU
solve, each refinement solve) is one call on the stack, every check runs
per generator, and a generator that fails gets its own error without
failing the others.  steady_state is its one-generator case, so a sweep
and a single solve share every line and every bit.

Time evolution is fixed-step classical RK4 with a guarded default step.
For a constant generator one RK4 step is exactly the matrix polynomial
P = I + hG + (hG)^2/2 + (hG)^3/6 + (hG)^4/24, so P is built once per run
and each step is one product P x written into a row of one
(n_samples, dim) array; the trace is still checked after every step.  The
trace budget and the step cap are the constants TRACE_BUDGET_PER_STEP and
MAX_STEPS.  No adaptivity, no matrix exponentials, so reruns are
bit-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import Generator, IndexMap, StateVector, basis_state


TRACE_BUDGET_PER_STEP = 1e-8   # largest trace drift one evolve step may make
MAX_STEPS = 1_000_000          # most steps one evolve run may take


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
        if not np.all(t[1:] > t[:-1]):     # NaN compares False, so it fails too
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


def steady_states(matrices: np.ndarray, index: IndexMap,
                  rank_tol: float = 1e-10) -> tuple[np.ndarray, list[Exception | None]]:
    """Stationary states of a stack of generators sharing one slot layout.

    matrices has shape (N, dim, dim).  Returns the (N, dim) array of
    solutions and one entry per generator: None where it was solved, else
    the exception steady_state raises for that generator alone, whose row
    of the array is then NaN.  Every check runs per generator; each LAPACK
    step is one call on the whole stack: one SVD, then the LU solve and
    its three refinement solves.
    """
    G = np.asarray(matrices, dtype=float)
    n_points, n = len(G), len(index)
    errors: list[Exception | None] = [None] * n_points

    try:
        singulars = np.linalg.svd(G, compute_uv=False)
    except np.linalg.LinAlgError:
        # some member did not converge: it fails alone, the others go on
        singulars = np.full((n_points, n), np.nan)
        for k, s in enumerate(_each_member(np.linalg.svd, G, compute_uv=False)):
            if isinstance(s, np.linalg.LinAlgError):
                errors[k] = s
            else:
                singulars[k] = s
    largest = singulars[:, 0] if n else np.zeros(n_points)
    null_dims = (singulars <= rank_tol * largest[:, np.newaxis]).sum(axis=1)
    ok = []
    for k, (top, null_dim) in enumerate(zip(largest.tolist(), null_dims.tolist())):
        if errors[k] is not None:
            pass
        elif top == 0.0:
            errors[k] = DegenerateSteadyState("zero generator: every state is stationary")
        elif null_dim > 1:
            errors[k] = DegenerateSteadyState(
                f"{null_dim}-dimensional null space: the model is disconnected")
        elif null_dim == 0:
            errors[k] = ValueError(
                "generator has no stationary direction; it does not conserve trace")
        else:
            ok.append(k)

    # Any single balance row of a diagonal slot is linearly dependent on the
    # others (their sum is the zero row), so replacing the first one keeps
    # all information and makes the system square and nonsingular.
    # IndexMap puts the diagonal slots first.  A is the only copy of the
    # stack kept: its replaced row is saved and put back for the residual
    # check, so a stack the caller does not hold is freed here.
    A = G.copy() if len(ok) == n_points else G[ok]
    del G, matrices
    row0 = A[:, 0, :].copy()
    A[:, 0, :] = 0.0
    A[:, 0, :len(index.diagonal_positions)] = 1.0
    rhs = np.zeros((len(ok), n, 1))
    rhs[:, 0] = 1.0
    try:
        x = np.linalg.solve(A, rhs)
    except np.linalg.LinAlgError:
        solved = _each_member(np.linalg.solve, A, rhs)
        keep = []
        for j, res in enumerate(solved):
            if isinstance(res, np.linalg.LinAlgError):
                err = DegenerateSteadyState(f"constrained stationary system is singular: {res}")
                err.__cause__ = res
                errors[ok[j]] = err
            else:
                keep.append(j)
        ok, A, row0, rhs = [ok[j] for j in keep], A[keep], row0[keep], rhs[keep]
        x = np.linalg.solve(A, rhs)

    # Iterative refinement with the residual accumulated in extended
    # precision: recovers the tiny occupations (collector width >> emitter
    # width leaves primed states at ~1e-12) to full relative accuracy.
    for _ in range(3):
        x = x + np.linalg.solve(A, _extended_residual(A, x, rhs))

    A[:, 0, :] = row0               # the generators of the ok members again
    defects = np.abs(A @ x).max(axis=(1, 2))
    norms = np.abs(A, out=A).sum(axis=2).max(axis=1)
    values = np.full((n_points, n), np.nan)
    values[ok] = x[:, :, 0]
    for k, defect, norm in zip(ok, defects.tolist(), norms.tolist()):
        if defect > 1e-12 * norm:
            errors[k] = ArithmeticError(
                f"stationary residual {defect:.3e} exceeds 1e-12 * ||G||_inf = "
                f"{1e-12 * norm:.3e}")
            values[k] = np.nan
    return values, errors


# members per extended-precision block: the longdouble copy of the stack
# is made a block at a time, so it stays small next to the stack itself
_EXTENDED_BLOCK = 64


def _extended_residual(A: np.ndarray, x: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """rhs - A x evaluated in longdouble and rounded to float, member by
    member exactly as on the whole stack."""
    out = np.empty_like(x)
    for lo in range(0, len(A), _EXTENDED_BLOCK):
        block = slice(lo, lo + _EXTENDED_BLOCK)
        out[block] = (rhs[block].astype(np.longdouble)
                      - A[block].astype(np.longdouble) @ x[block].astype(np.longdouble))
    return out


def _each_member(fn, stack, *args, **kwargs) -> list:
    """fn on each member of the stack (and of the stacked args): its result,
    or the LinAlgError it raised."""
    out = []
    for k in range(len(stack)):
        try:
            out.append(fn(stack[k], *(a[k] for a in args), **kwargs))
        except np.linalg.LinAlgError as exc:
            out.append(exc)
    return out


def steady_state(g: Generator, rank_tol: float = 1e-10) -> StateVector:
    """Stationary state: G x = 0 with the diagonal slots summing to 1.

    The one-generator case of steady_states.  rank_tol is relative to the
    largest singular value and flags disconnected models whose null space
    is more than one-dimensional.  The returned vector satisfies
    ||G x||_inf <= 1e-12 ||G||_inf.
    """
    values, errors = steady_states(g.matrix[np.newaxis], g.index, rank_tol)
    if errors[0] is not None:
        raise errors[0]
    return StateVector(values[0], g.index)


def _rk4_propagator(G: np.ndarray, h: float) -> np.ndarray:
    """P = I + hG + (hG)^2/2 + (hG)^3/6 + (hG)^4/24, in Horner form: the
    classical RK4 step of dx/dt = G x is x -> P x."""
    eye = np.eye(len(G))
    hG = h * G
    return eye + hG @ (eye + (hG / 2.0) @ (eye + (hG / 3.0) @ (eye + hG / 4.0)))


def evolve(g: Generator, x0: StateVector, t_final: float, dt: float | None = None) -> Trajectory:
    """Fixed-step RK4 trajectory from x0 over [0, t_final].

    The step is t_final divided into equal pieces no longer than dt
    (default: the stability guard 0.1/max|G|), so the last sample lands
    exactly on t_final.  The RK4 step of the constant generator is built
    once as the propagator P and each step is the one product P x, which
    agrees with the stage-wise step to rounding.

    The trace is checked after every step, not once on P: a per-step trace
    drift beyond TRACE_BUDGET_PER_STEP (or a NaN) raises StepTooLarge, so
    a run whose step is unstable stops where it blows up.  A well-formed
    generator keeps the drift at rounding level.

    MAX_STEPS bounds runaway runs: a widely spread rate set drives the
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
    if n_steps > MAX_STEPS:
        raise ValueError(
            f"t_final/dt asks for {n_steps} steps (cap {MAX_STEPS}); raise dt, shorten "
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
        if not drift <= TRACE_BUDGET_PER_STEP:
            raise StepTooLarge(
                f"trace moved by {drift:.3e} in one step of {h:.3e}; shrink dt")
        trace = trace_next
    times = np.arange(n_steps + 1) * h
    times.setflags(write=False)
    values.setflags(write=False)
    return Trajectory(times, values, g.index)


def relaxation_check(g: Generator, tol: float, horizon_cap: float | None = None) -> float:
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

    x0 = basis_state(g.index, g.index.diagonal_labels[0])
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
