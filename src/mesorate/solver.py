"""Stationary states and time evolution of dx/dt = G x.

The stationary state is found directly: one redundant balance row of G
is replaced by the probability normalization and the resulting square
system is solved by LU with partial pivoting, then polished with up to
three passes of extended-precision iterative refinement.  That keeps the
stiff detector limits (collector width four orders above the emitter
width) out of the integrator entirely.  One engine, steady_states, solves
a whole stack of generators (N, dim, dim): the LU solve is one LAPACK
call on the stack, each refinement pass one call per block of members (a
block stops after a pass that leaves its bits unchanged), every check
runs per generator, and a generator that fails gets its own error without
failing the others.  steady_state is its one-generator case, so a sweep
and a single solve share every line and every bit.  The rank test before
the solve takes its verdict from a cheap proof where that holds and from
one SVD call on the rest of the stack; the two never disagree
(_proven_unique).  A one-member stack goes straight to the SVD.  A stack
of at least 2 * _PART_MIN members is split into contiguous parts, at
most one per CPU this process may run on, solved in threads (numpy's
LAPACK and matmul loops release the GIL) that are joined before the call
returns.  The split cannot change a bit, since nothing a member gets
depends on the other members of its stack: the proof settles a member
only where the SVD gives its verdict, the SVD, the LU solve, each
refinement solve and the residual check run per member, and a refinement
block's exit is bit-neutral.

Time evolution is fixed-step classical RK4 with a guarded default step.
For a constant generator one RK4 step is exactly the matrix polynomial
P = I + hG + (hG)^2/2 + (hG)^3/6 + (hG)^4/24, so P is built once per run
(a P that overflows is refused before the first step) and each step is
one product P x written in place into its row.  One generator,
evolve_blocks, steps a run: it yields the samples in blocks of _BLOCK
rows from one reused buffer, so a run holds one block, not its samples;
evolve gathers the blocks into one (n_samples, dim) array and the
time-series writer streams them.  The loop steps one block at a time, and
the trace of every step of a block is checked after it by the rank
test's rule: a numpy screen with a proven rounding bound clears the steps
before the first one that could be over budget, and math.fsum walks the
rest in step order, so a run fails at the step, and with the message,
that checking each step as it is made would give.  As in refinement, a
bit-fixed point ends the loop: once a step returns its input bit for bit,
every later step would repeat it, so after the block whose last two
samples agree, the remaining samples are that row instead of steps.  The
trace budget, the step cap and the rank test's tolerance are the
constants TRACE_BUDGET_PER_STEP, MAX_STEPS and RANK_TOL.  No adaptivity,
no matrix exponentials, so reruns are bit-identical.
"""

from __future__ import annotations

import contextvars
import math
import os
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .model import Generator, IndexMap, StateVector, _Owned, read_only


TRACE_BUDGET_PER_STEP = 1e-8   # largest trace drift one evolve step may make
MAX_STEPS = 1_000_000          # most steps one evolve run may take
RANK_TOL = 1e-10               # singular values at or below RANK_TOL * sigma_max count as null
_EXTENDED_BLOCK = 64           # members per refinement block and per rank-test proof block
_PART_MIN = 256                # fewest members per part of a split stack (see steady_states)
_BLOCK = 1024                  # samples per block of evolve_blocks and of the time-series writer


class DegenerateSteadyState(RuntimeError):
    """The generator's null space has more than one direction."""


class StepTooLarge(RuntimeError):
    """An integration step moved the trace beyond the per-step budget."""


class ResidualTooLarge(ArithmeticError):
    """A solved stationary state leaves a residual beyond 1e-12 ||G||_inf."""


@dataclass(frozen=True)
class Trajectory:
    """Sampled linear evolution: row k of the read-only (n_samples, dim)
    array values is the state at times[k], in the slot layout of index.
    times and values are copied by model.read_only, so no caller's array
    is aliased; evolve hands over its own, which no caller has seen,
    through model._Owned."""

    times: np.ndarray
    values: np.ndarray
    index: IndexMap

    def __post_init__(self):
        t = read_only(self.times)
        if not np.all(t[1:] > t[:-1]):     # NaN compares False, so it fails too
            raise ValueError("times must be strictly increasing")
        v = read_only(self.values)
        if v.shape != (len(t), len(self.index)):
            raise ValueError(f"values must have shape {(len(t), len(self.index))}, got {v.shape}")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", v)

    @property
    def final(self) -> StateVector:
        return StateVector(self.values[-1], self.index)

    def blocks(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """The samples as evolve_blocks yields them: (times, values) views
        of _BLOCK rows at a time."""
        for lo in range(0, len(self.times), _BLOCK):
            yield self.times[lo:lo + _BLOCK], self.values[lo:lo + _BLOCK]


def default_step(g: Generator) -> float:
    """Stability-guarded step, 0.1 over the largest matrix entry."""
    m = float(np.abs(g.matrix).max(initial=0.0))
    return 0.1 / m if m > 0.0 else math.inf


def steady_states(matrices: np.ndarray,
                  index: IndexMap) -> tuple[np.ndarray, list[Exception | None]]:
    """Stationary states of a stack of generators sharing one slot layout.

    matrices has shape (N, dim, dim), dim = len(index) (any other shape
    raises ValueError).  Returns the (N, dim) array of solutions and one
    entry per generator: None where it was solved, else the exception
    steady_state raises for that generator alone, whose row of the array is
    then NaN.  Every check runs per generator; the LU solve is one call on
    the whole stack (one per member when a member is singular), and each of
    up to three refinement passes one call per block of _EXTENDED_BLOCK
    members: a block stops after any pass that leaves its bits unchanged.
    The rank test's proof (_proven_unique) runs per block too, and one SVD
    call decides the members it leaves; a one-member stack goes straight to
    the SVD.

    A stack of at least 2 * _PART_MIN members is split into
    min(CPUs, N // _PART_MIN) contiguous parts (CPUs being those this
    process may run on), each solved as a stack of its own: the caller's
    thread solves the first, a thread pool made for this call each other
    one, in a copy of the caller's context (so its np.errstate holds
    there), and every thread is joined before the call returns.  numpy's
    LAPACK and matmul loops release the GIL, so the parts run on as many
    CPUs.  The split cannot change a bit: nothing a member gets depends on
    the other members of its stack.  The proof settles a member only where
    the SVD gives the same verdict; the SVD, the LU solve (and its
    per-member fallback), each refinement solve and the residual check run
    per member; and a member that a pass leaves unchanged gets the same
    bits from every later pass, so where a refinement block starts does
    not matter.  An exception a part raises, rather than returns for a
    member, is raised here, the first in stack order, once every thread is
    joined.  Two parts break even with one near 100 members each
    (measured on a 2-CPU Xeon); at _PART_MIN = 256, validate's stacks of
    at most 200 members stay whole, which splitting them into 100-member
    parts made 16% slower in process.
    """
    G = np.asarray(matrices, dtype=float)
    n = len(index)
    if G.shape[1:] != (n, n):
        raise ValueError(f"generator stack must have shape (N, {n}, {n}), got {G.shape}")
    parts = max(1, min(_cpus(), len(G) // _PART_MIN))
    if parts == 1:
        return _steady_part(G, index)
    from concurrent.futures import ThreadPoolExecutor     # here: it imports logging
    edges = [len(G) * j // parts for j in range(parts + 1)]
    # leaving the with block joins every thread, the first part raising or not
    with ThreadPoolExecutor(parts - 1) as pool:
        futures = [pool.submit(contextvars.copy_context().run, _steady_part,
                               G[edges[j]:edges[j + 1]], index) for j in range(1, parts)]
        first = _steady_part(G[:edges[1]], index)
    outcomes = [first] + [f.result() for f in futures]
    return (np.concatenate([values for values, _ in outcomes]),
            [err for _, errors in outcomes for err in errors])


def _cpus() -> int:
    """How many CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:          # no affinity mask on this platform
        return os.cpu_count() or 1


def _steady_part(G: np.ndarray, index: IndexMap) -> tuple[np.ndarray, list[Exception | None]]:
    """steady_states on one stack, in the calling thread."""
    n_points, n = len(G), len(index)
    errors: list[Exception | None] = [None] * n_points

    # the proof pays off on a stack, not on one member, and needs a slot
    proven = _proven_unique(G, len(index.diagonal_positions)) if n_points > 1 and n > 0 else 0
    tail = G[proven:]
    try:
        singulars = np.linalg.svd(tail, compute_uv=False) if len(tail) else np.empty((0, n))
    except np.linalg.LinAlgError:
        # some member did not converge: it fails alone, the others go on
        singulars = np.full((len(tail), n), np.nan)
        for k, s in enumerate(_each_member(np.linalg.svd, tail, compute_uv=False)):
            if isinstance(s, np.linalg.LinAlgError):
                errors[proven + k] = s
            else:
                singulars[k] = s
    largest = singulars.max(axis=1, initial=0.0)
    null_dims = (singulars <= RANK_TOL * largest[:, np.newaxis]).sum(axis=1)
    ok = list(range(proven))
    for k, (top, null_dim) in enumerate(zip(largest.tolist(), null_dims.tolist()), proven):
        if errors[k] is not None:
            pass
        elif top == 0.0:
            errors[k] = DegenerateSteadyState("zero generator: every state is stationary")
        elif null_dim > 1:
            errors[k] = DegenerateSteadyState(
                f"{null_dim}-dimensional numerical null space "
                "(singular values <= RANK_TOL * sigma_max)")
        elif null_dim == 0:
            errors[k] = ValueError(
                "generator has no stationary direction; it does not conserve trace")
        else:
            ok.append(k)
    if not ok:                      # a zero-slot stack always ends here
        return np.full((n_points, n), np.nan), errors

    # Any single balance row of a diagonal slot is linearly dependent on the
    # others (their sum is the zero row), so replacing the first one keeps
    # all information and makes the system square and nonsingular.
    # IndexMap puts the diagonal slots first.  A is the only copy of the
    # stack made: its replaced row is saved and put back for the residual
    # check.
    A = G.copy() if len(ok) == n_points else G[ok]
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
        # each member's own solve has the bits of the stacked one
        x = np.array([solved[j] for j in keep]).reshape(rhs.shape)

    # Iterative refinement with the residual accumulated in extended
    # precision: recovers the tiny occupations (collector width >> emitter
    # width leaves primed states at ~1e-12) to full relative accuracy.  It
    # runs a block of members at a time, so the longdouble copy of the
    # stack is made once per block and stays small next to the stack.  At
    # most three passes; a pass that returns the block's bits unchanged
    # ends the block, since every later pass would return them again.
    for lo in range(0, len(A), _EXTENDED_BLOCK):
        block = slice(lo, lo + _EXTENDED_BLOCK)
        A_ext, rhs_ext = A[block].astype(np.longdouble), rhs[block].astype(np.longdouble)
        for _ in range(3):
            residual = (rhs_ext - A_ext @ x[block].astype(np.longdouble)).astype(float)
            refined = x[block] + np.linalg.solve(A[block], residual)
            if refined.tobytes() == x[block].tobytes():
                break
            x[block] = refined

    A[:, 0, :] = row0               # the generators of the ok members again
    defects = np.abs(A @ x).max(axis=(1, 2))
    norms = np.abs(A, out=A).sum(axis=2).max(axis=1)
    values = np.full((n_points, n), np.nan)
    values[ok] = x[:, :, 0]
    for k, defect, norm in zip(ok, defects.tolist(), norms.tolist()):
        if defect > 1e-12 * norm:
            errors[k] = ResidualTooLarge(
                f"stationary residual {defect:.3e} exceeds 1e-12 * ||G||_inf = "
                f"{1e-12 * norm:.3e}")
            values[k] = np.nan
    return values, errors


def _proven_unique(G: np.ndarray, n_diag: int) -> int:
    """How many leading members of the stack the SVD rank test would find a
    one-dimensional null space in, proven a block of _EXTENDED_BLOCK at a
    time up to the first block that defeats the proof.  With A the solve's
    constrained matrix and s = max(||A||_F^2, ||G||_F^2), a member is proven
    when it is finite and nonzero, when its diagonal-slot column sums 1_d^T G
    (0 when G keeps the trace) have norm <= 1e-2 RANK_TOL ||G||_F / sqrt(dim),
    so sigma_min(G) <= 1e-2 RANK_TOL sigma_max(G) and the SVD counts one,
    and when A^T A - 1e-12 s I has a Cholesky factor: then
    sigma_min(A)^2 >= 1e-12 s up to about 1e-14 s of rounding (s >= n_diag,
    from A's row of ones, keeps the shift clear of underflow), and as G
    differs from A in one row, interlacing puts its second-smallest singular
    value at >= sigma_min(A) >= 1e-6 sigma_max(G): the SVD counts no second
    one.  Both margins are hundreds of times the SVD's rounding
    (dim eps sigma_max)."""
    n = G.shape[-1]
    for lo in range(0, len(G), _EXTENDED_BLOCK):
        g = G[lo:lo + _EXTENDED_BLOCK]
        a = g.copy()                    # the block's constrained matrix
        a[:, 0, :] = 0.0
        a[:, 0, :n_diag] = 1.0
        with np.errstate(over="ignore", invalid="ignore"):
            g2 = np.einsum("kij,kij->k", g, g)
            leak = np.linalg.norm(np.einsum("kij->kj", g[:, :n_diag]), axis=1)
            gram = a.transpose(0, 2, 1).copy() @ a      # contiguous: 3x faster than the view
            s = np.maximum(np.einsum("kii->k", gram), g2)
            gram.reshape(len(g), n * n)[:, ::n + 1] -= (1e-12 * s)[:, np.newaxis]
            if not (np.isfinite(gram).all() and (g2 > 0.0).all()
                    and (leak <= 1e-2 * RANK_TOL * np.sqrt(g2 / n)).all()):
                return lo
        try:
            np.linalg.cholesky(gram)
        except np.linalg.LinAlgError:
            return lo
    return len(G)


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


def steady_state(g: Generator) -> StateVector:
    """Stationary state: G x = 0 with the diagonal slots summing to 1.

    The one-generator case of steady_states.  A numerical null space of
    more than one dimension, singular values at or below RANK_TOL times the
    largest, raises DegenerateSteadyState; the model need not be
    disconnected, as in a stiff one whose rates spread past 1/RANK_TOL.
    The returned vector satisfies
    ||G x||_inf <= 1e-12 ||G||_inf; a state that misses it raises
    ResidualTooLarge.
    """
    values, errors = steady_states(g.matrix[np.newaxis], g.index)
    if errors[0] is not None:
        raise errors[0]
    return StateVector(values[0], g.index)


def _rk4_propagator(G: np.ndarray, h: float) -> np.ndarray:
    """P = I + hG + (hG)^2/2 + (hG)^3/6 + (hG)^4/24, in Horner form: the
    classical RK4 step of dx/dt = G x is x -> P x."""
    eye = np.eye(len(G))
    hG = h * G
    return eye + hG @ (eye + (hG / 2.0) @ (eye + (hG / 3.0) @ (eye + hG / 4.0)))


def _check_traces(diagonals: np.ndarray, h: float) -> None:
    """Raise StepTooLarge at the first step whose trace drift exceeds
    TRACE_BUDGET_PER_STEP.  diagonals holds the diagonal slots of a run of
    samples, each row one step on from the row before; the message is
    that of checking each step as it is made, with math.fsum traces.

    The run, at least 2 rows, is first screened with one numpy row sum.  A
    sum of m terms, in any order, is within about (m - 1) u sum|d| of the
    exact sum (u the unit roundoff) and fsum within u |sum d|, so a row's
    fsum trace is within m u sum|d| of its numpy sum, and a step's fsum
    drift within the drift of its numpy sums plus 2 m u sum|d|, the larger
    sum|d| of the step's two rows.  Each row's sum|d| is one product with
    a vector of ones, a sum of terms of one sign and so within about
    (m - 1) u of it, relative.  A step where that is at most half the
    budget (the other half covers the screen's own rounding and the terms
    of order u^2) cannot fail: the steps before the first other one (near
    or over the budget, a NaN, an inf) are cleared, and from that one on
    the steps are walked in order with math.fsum.
    """
    sums = diagonals.sum(axis=1)
    sizes = np.abs(diagonals).dot(np.ones(diagonals.shape[1]))    # sum|d| of each row
    # 2 m u sum|d|, with 2u = 2**-52 the machine epsilon
    slack = diagonals.shape[1] * 2.0 ** -52 * np.maximum(sizes[:-1], sizes[1:])
    cleared = np.abs(sums[1:] - sums[:-1]) <= TRACE_BUDGET_PER_STEP / 2 - slack
    start = int(cleared.argmin())                   # the first step not cleared
    if cleared[start]:
        return
    rows = diagonals[start:].tolist()
    trace = math.fsum(rows[0])
    for diagonal in rows[1:]:
        trace_next = math.fsum(diagonal)
        drift = abs(trace_next - trace)
        if not drift <= TRACE_BUDGET_PER_STEP:
            raise StepTooLarge(
                f"trace moved by {drift:.3e} in one step of {h:.3e}; shrink dt")
        trace = trace_next


def evolve_blocks(g: Generator, x0: StateVector, t_final: float,
                  dt: float | None = None) -> tuple[int, Iterator[tuple[np.ndarray, np.ndarray]]]:
    """The fixed-step RK4 run of evolve as a stream: the number of samples
    and an iterator over them as (times, values) blocks of at most _BLOCK
    rows, in order.  Every argument check, the step cap and the refusal of
    an overflowing propagator raise here, before the first step; a step
    over the trace budget raises from the iterator, before the block that
    holds it is yielded.  A block's arrays are read-only views that are
    only valid until the next block is asked for: the values of one
    (_BLOCK + 1, dim) buffer, reused for every block, whose row 0 holds the
    sample before the block.  The last sample's time is t_final itself.
    See evolve for the step, the checks and the fixed-point exit; after a
    fixed point the remaining blocks are broadcast views of its row.
    """
    if x0.index != g.index:
        raise ValueError("initial state uses a different slot layout than the generator")
    if not t_final > 0.0:           # NaN compares False, so it is refused too
        raise ValueError("t_final must be positive")
    if dt is None:
        dt = default_step(g)
        if not math.isfinite(dt):
            dt = t_final
    if not dt > 0.0:
        raise ValueError("dt must be positive")

    steps = t_final / dt - 1e-9
    if not steps <= MAX_STEPS:      # refused before ceil, which fails on inf and NaN
        count = math.ceil(steps) if math.isfinite(steps) else steps
        raise ValueError(
            f"t_final/dt asks for {count} steps (cap {MAX_STEPS}); raise dt, shorten "
            "t_final, or use steady_state for the stationary answer")
    n_steps = max(1, math.ceil(steps))
    h = t_final / n_steps
    with np.errstate(over="ignore", invalid="ignore"):
        P = _rk4_propagator(g.matrix, h)
    if not np.isfinite(P).all():
        raise StepTooLarge(f"the RK4 propagator of a step of {h:.3e} overflows; shrink dt")
    # IndexMap puts the diagonal slots first
    n_diag = len(g.index.diagonal_positions)
    return n_steps + 1, _stepped_blocks(P, x0.values, t_final, n_steps, n_diag)


def _stepped_blocks(P: np.ndarray, x0: np.ndarray, t_final: float, n_steps: int,
                    n_diag: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The blocks of evolve_blocks.  Sample s of the block starting at
    sample base lies in row s - base + 1 of the buffer, and row 0 holds the
    sample before the block; the first block has none, so its steps start
    from x0, in row 1."""
    h = t_final / n_steps
    n_samples = n_steps + 1
    buffer = np.empty((min(_BLOCK, n_samples) + 1, len(x0)))
    buffer[1] = x0
    step = P.dot                    # np.dot(P, x, out=row) without the dispatcher
    lo = 1                          # the row a block steps from: x0's, then row 0
    for base in range(0, n_samples, _BLOCK):
        size = min(_BLOCK, n_samples - base)
        rows = buffer[lo:size + 1]  # at least 2: x0 and a step, or row 0 and a sample
        # rows past a step over budget are never yielded, so they may
        # overflow, here and in the check's screen
        with np.errstate(over="ignore", invalid="ignore"):
            x = rows[0]
            for row in rows[1:]:
                x = step(x, row)
            _check_traces(rows[:, :n_diag], h)
        values = buffer[1:size + 1]
        values.flags.writeable = False
        yield _times(base, size, t_final, n_steps), values
        if rows[-1].tobytes() == rows[-2].tobytes():
            break
        buffer[0] = rows[-1]
        lo = 0
    # after a fixed point, the blocks left are broadcast views of its row
    for base in range(base + _BLOCK, n_samples, _BLOCK):
        size = min(_BLOCK, n_samples - base)
        yield _times(base, size, t_final, n_steps), np.broadcast_to(rows[-1], (size, len(x0)))


def _times(base: int, size: int, t_final: float, n_steps: int) -> np.ndarray:
    """The times of the size samples from sample base: sample k at
    k * (t_final / n_steps), except sample n_steps, at t_final itself (as
    np.linspace puts its last point), since n_steps * h may round off it."""
    times = np.arange(base, base + size) * (t_final / n_steps)
    if base + size > n_steps:
        times[-1] = t_final
    return times


def evolve(g: Generator, x0: StateVector, t_final: float, dt: float | None = None) -> Trajectory:
    """Fixed-step RK4 trajectory from x0 over [0, t_final]: the blocks of
    evolve_blocks gathered into one (n_samples, dim) array.

    The step h is t_final divided into equal pieces no longer than dt
    (default: the stability guard 0.1/max|G|); sample k lies at k * h, and
    the last sample exactly on t_final, as in np.linspace, where n_steps * h
    may round to a neighbour of t_final.  The RK4 step of the constant
    generator is built once as the propagator P and each step is the one
    product P x, which agrees with the stage-wise step to rounding; a P that is not finite
    (the polynomial overflowed) raises StepTooLarge before the first step.

    The trace of every step is checked, not once on P: a per-step trace
    drift beyond TRACE_BUDGET_PER_STEP (or a NaN) raises StepTooLarge, so a
    run whose step is unstable stops where it blows up.  A well-formed
    generator keeps the drift at rounding level.  Each product is written in
    place into its row, a block of _BLOCK samples at a time, and the
    traces of a block's steps are checked after it (_check_traces): a numpy
    row sum of the diagonal slots, with a proven bound on its rounding and
    on fsum's, clears the steps before the first one whose drift could reach
    the budget, and math.fsum walks the rest in step order.  So the first
    step over budget raises, with the message checking each step as it is
    made would give, and the rows stepped past it, which may have overflowed
    without a warning, are discarded.

    A step that returns its input bit for bit (its trace checked) found a
    fixed point of P in floating point: every later step would compute
    the same product from the same bits, with a trace drift of exactly 0,
    so the remaining samples are that row and the loop stops.  The
    samples are those of stepping to the end.  The last two samples of a
    block are compared after it: a fixed point persists, so it is found at
    the end of its block, after at most _BLOCK - 1 steps more than reached
    it, at the cost of one compare per block rather than per step.

    MAX_STEPS bounds runaway runs: a widely spread rate set drives the
    guard step to t_final/dt in the millions, and the stationary question
    behind such runs belongs to steady_state, not the integrator.
    """
    n_samples, blocks = evolve_blocks(g, x0, t_final, dt)
    times, values = np.empty(n_samples), np.empty((n_samples, g.dim))
    lo = 0
    for block_times, block_values in blocks:
        hi = lo + len(block_times)
        times[lo:hi], values[lo:hi] = block_times, block_values
        lo = hi
    return Trajectory(_Owned(times), _Owned(values), g.index)
