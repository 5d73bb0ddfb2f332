import collections
import math
import sys
import threading
import warnings

import numpy as np
import pytest

from exact import exact_solution
from mesorate import (
    GENERALIZED_DOUBLE_DOT_SET,
    REGIMES,
    DegenerateSteadyState,
    Generator,
    IndexMap,
    RateSet,
    StateVector,
    StepTooLarge,
    Trajectory,
    basis_state,
    default_step,
    evolve,
    pack,
    run_sweep,
    scenario_table,
    steady_state,
    steady_states,
    validate_state,
)
from mesorate import experiments, solver
from mesorate.acceptance import _suite_evolve_runs
from mesorate.solver import ResidualTooLarge
from test_bit_identity import CONFIGS, SETS, config_id

ALL_ONES_SINGLE = RateSet(gamma_L=1, gamma_R=1, Gamma_L=1, Gamma_R=1)
RABI = RateSet(Omega=1.0)
# the README config with a slower detector (gamma_R = 1e4 exceeds the step cap)
README_SLOW = RateSet(gamma_L=1.0, gamma_R=3.0, Gamma_L=1.0, Gamma_R=1.0, Omega=1.0,
                      epsilon=0.0, U1=1.0, U2=2.0)


def _rk4_step(G, x, h):
    """Stage-wise classical RK4: the reference for the propagator evolve uses."""
    k1 = G @ x
    k2 = G @ (x + 0.5 * h * k1)
    k3 = G @ (x + 0.5 * h * k2)
    k4 = G @ (x + h * k3)
    return x + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)



def _steady_state_reference(g):
    """The one-generator solver that preceded the stacked engine: the
    reference steady_states must match bit for bit, errors included.  Its
    rank tolerance is its own literal, not solver.RANK_TOL."""
    G = g.matrix
    n = g.dim
    singulars = np.linalg.svd(G, compute_uv=False)
    largest = float(singulars[0]) if n else 0.0
    if largest == 0.0:
        raise DegenerateSteadyState("zero generator: every state is stationary")
    null_dim = int(np.count_nonzero(singulars <= 1e-10 * largest))
    if null_dim > 1:
        raise DegenerateSteadyState(
            f"{null_dim}-dimensional numerical null space "
            "(singular values <= RANK_TOL * sigma_max)")
    if null_dim == 0:
        raise ValueError("generator has no stationary direction; it does not conserve trace")
    A = G.copy()
    A[0, :] = 0.0
    A[0, list(g.index.diagonal_positions)] = 1.0
    rhs = np.zeros(n)
    rhs[0] = 1.0
    try:
        x = np.linalg.solve(A, rhs)
    except np.linalg.LinAlgError as exc:
        raise DegenerateSteadyState(f"constrained stationary system is singular: {exc}") from exc
    A_ld = A.astype(np.longdouble)
    rhs_ld = rhs.astype(np.longdouble)
    for _ in range(3):
        residual = rhs_ld - A_ld @ x.astype(np.longdouble)
        x = x + np.linalg.solve(A, residual.astype(float))
    norm = float(np.abs(G).sum(axis=1).max())
    defect = float(np.abs(G @ x).max())
    if defect > 1e-12 * norm:
        raise ResidualTooLarge(
            f"stationary residual {defect:.3e} exceeds 1e-12 * ||G||_inf = {1e-12 * norm:.3e}")
    return StateVector(x, g.index)


def assert_stack_matches_reference(gens):
    """One stacked call against the reference per generator: the bytes of
    every solution, the type and message of every error.  Returns the
    number of failing points."""
    values, errors = steady_states(np.stack([g.matrix for g in gens]), gens[0].index)
    assert values.shape == (len(gens), gens[0].dim) and len(errors) == len(gens)
    failed = 0
    for g, v, err in zip(gens, values, errors):
        try:
            expected = _steady_state_reference(g)
        except Exception as exc:
            failed += 1
            assert (type(err), str(err)) == (type(exc), str(exc))
            assert np.isnan(v).all()
        else:
            assert err is None
            assert v.tobytes() == expected.values.tobytes()
    return failed


class TestSteadyState:
    def test_all_ones_single_dot(self):
        x = steady_state(scenario_table("single_dot_set").generator(ALL_ONES_SINGLE))
        assert np.allclose(x.values, np.array([5, 7, 3, 1]) / 16, rtol=0, atol=1e-14)

    def test_against_exact_rational_elimination(self):
        from fractions import Fraction as F

        # dyadic rates are exact in binary floating point, so the float
        # generator carries exactly the rational matrix the oracle sees
        cases = [
            ALL_ONES_SINGLE,
            RateSet(gamma_L=F(1, 2), gamma_R=F(3, 4), gamma_L_p=F(1, 4),
                    gamma_R_p=F(5, 2), Gamma_L=F(7, 8), Gamma_R=F(3, 2),
                    Gamma_L_p=F(1, 8), Gamma_R_p=F(9, 4)),
            RateSet(gamma_L=2, gamma_R=16, Gamma_L=F(1, 4), Gamma_R=F(1, 2)),
        ]
        for r in cases:
            g = scenario_table("single_dot_set").generator(r)
            expected = exact_solution(g.matrix, len(g.index.diagonal_positions))
            x = steady_state(g)
            for got, want in zip(x.values, expected):
                assert got == pytest.approx(float(want), rel=1e-13, abs=1e-15)
        # the frozen all-ones value comes out of the oracle too
        g = scenario_table("single_dot_set").generator(ALL_ONES_SINGLE)
        oracle = exact_solution(g.matrix, len(g.index.diagonal_positions))
        assert oracle == [F(5, 16), F(7, 16), F(3, 16), F(1, 16)]

    def test_absorbing_state_without_hopping(self):
        g = scenario_table("double_dot_bare").generator(
            RateSet(Gamma_L=1, Gamma_R=1, epsilon=0.7))
        x = steady_state(g)
        expected = np.zeros(5)
        expected[1] = 1.0
        assert np.allclose(x.values, expected, atol=1e-14)

    def test_zero_generator_degenerate(self):
        with pytest.raises(DegenerateSteadyState, match="zero generator"):
            steady_state(scenario_table("double_dot_bare").generator(RateSet()))

    def test_undamped_oscillator_degenerate(self):
        with pytest.raises(DegenerateSteadyState, match="null space"):
            steady_state(scenario_table("double_dot_bare").generator(RABI))

    def test_residual_bound(self):
        rng = np.random.default_rng(29)
        for _ in range(30):
            widths = 10.0 ** rng.uniform(-2, 2, size=4)
            r = RateSet(gamma_L=float(widths[0]), gamma_R=float(widths[1]),
                        Gamma_L=float(widths[2]), Gamma_R=float(widths[3]),
                        Omega=float(10.0 ** rng.uniform(-2, 2)),
                        epsilon=float(rng.uniform(-10, 10)), U1=1.0, U2=2.0)
            g = scenario_table("double_dot_set").generator(r)
            x = steady_state(g)
            assert float(np.abs(g.matrix @ x.values).max()) <= 1e-12 * float(np.abs(g.matrix).sum(axis=1).max())
            assert x.trace() == pytest.approx(1.0, abs=1e-12)
            assert validate_state(x, 1e-9) == []

    def test_stiff_detector_limit(self):
        # collector width four decades above the emitter width: exactly the
        # case the direct solver exists for
        r = RateSet(gamma_L=1.0, gamma_R=1e4, Gamma_L=1.0, Gamma_R=1.0, Omega=1.0,
                    U1=1.0, U2=2.0)
        x = steady_state(scenario_table("double_dot_set").generator(r))
        assert validate_state(x, 1e-9) == []


# the zero generator and two disconnected models, solved in the same stack
# as the valid points
FAILING_SETS = (RateSet(), RateSet(gamma_R=1.0), RateSet(Omega=1.0))


class TestStackedEngine:
    @pytest.mark.parametrize("group", sorted(SETS))
    @pytest.mark.parametrize("scenario,blocking", CONFIGS,
                             ids=[config_id(*c) for c in CONFIGS])
    def test_one_stack_matches_one_point_reference(self, scenario, blocking, group):
        sets = SETS[group][:3] + FAILING_SETS + SETS[group][3:]
        gens = []
        for r in sets:
            try:
                gens.append(scenario_table(scenario, blocking).generator(r))
            except ValueError:      # the equal-amplitude guard
                pass
        failed = assert_stack_matches_reference(gens)
        assert failed >= len(FAILING_SETS)
        if group == "golden_and_random":
            assert len(gens) - failed >= 20     # solved points share the stack

    def test_stack_across_refinement_blocks(self):
        # refinement runs solver._EXTENDED_BLOCK members at a time; a stack
        # past two block edges is solved as if each member were alone
        n = 2 * solver._EXTENDED_BLOCK + 1
        gens = [scenario_table("double_dot_set").generator(README_SLOW.replacing("gamma_R", v))
                for v in np.geomspace(1.0, 1e6, n).tolist()]
        assert assert_stack_matches_reference(gens) == 0

    @pytest.mark.parametrize("shape,scenario", [
        ((3, 4, 5), "single_dot_set"),      # not square
        ((0, 4), "single_dot_set"),         # no stack axis, even empty
        ((2, 4, 4), "double_dot_set"),      # square, but not the layout's 10 slots
        ((4, 4), "single_dot_set"),         # one generator without its stack axis
    ])
    def test_a_stack_of_the_wrong_shape_is_refused(self, shape, scenario, monkeypatch):
        # refused before any work: not reported per member as physics, and
        # not left to numpy's own shape errors
        def no_work(*args, **kwargs):
            raise AssertionError("a malformed stack reached the engine")

        monkeypatch.setattr(solver, "_steady_part", no_work)
        index = scenario_table(scenario).index
        n = len(index)
        message = f"generator stack must have shape (N, {n}, {n}), got {shape}"
        with pytest.raises(ValueError) as info:
            steady_states(np.ones(shape), index)
        assert str(info.value) == message

    def test_an_empty_stack_solves_to_no_rows(self):
        index = scenario_table("double_dot_set").index
        values, errors = steady_states(np.zeros((0, len(index), len(index))), index)
        assert values.shape == (0, len(index))
        assert errors == []

    def test_failing_members_fail_alone(self, monkeypatch):
        # a singular constrained system (null vector with zero trace), no
        # stationary direction, a residual beyond the bound and the zero
        # generator, between valid generators: each fails with its own
        # error and the valid ones are solved as if alone
        index = IndexMap(("a", "b"))
        matrices = ([[-1.0, 1.0], [1.0, -1.0]], [[-1.0, -1.0], [1.0, 1.0]],
                    [[-1.0, 0.0], [0.0, -1.0]], [[-1e-11, 0.0], [0.0, -1.0]],
                    [[0.0, 0.0], [0.0, 0.0]], [[-1.0, 2.0], [1.0, -2.0]])
        gens = [Generator(np.array(m), index, "synthetic") for m in matrices]
        assert assert_stack_matches_reference(gens) == 4
        shapes = []
        solve = np.linalg.solve

        def spy(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return solve(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "solve", spy)
        _, errors = steady_states(np.stack([g.matrix for g in gens]), index)
        assert [type(e).__name__ for e in errors] == [
            "NoneType", "DegenerateSteadyState", "ValueError", "ResidualTooLarge",
            "DegenerateSteadyState", "NoneType"]
        assert isinstance(errors[3], ArithmeticError)     # the residual backstop
        assert str(errors[1]) == "constrained stationary system is singular: Singular matrix"
        assert isinstance(errors[1].__cause__, np.linalg.LinAlgError)
        # the stacked LU fails on member 1, so each of the four members the
        # rank test keeps is solved alone, and their own solutions start the
        # refinement (two passes, the second leaving the bits unchanged):
        # the stack is not solved again
        assert shapes == [(4, 2, 2)] + [(2, 2)] * 4 + [(3, 2, 2)] * 2
        # when every kept member is singular, none is left to refine
        assert assert_stack_matches_reference([gens[1], gens[4], gens[1]]) == 3


# the uniqueness proof that spares the SVD: the stiff rates of
# tests/test_experiments.py::TestStiffRegime, swept to 1e12, and the README
# sweep config, swept to 1e4; each scenario with a closed form sweeps the
# width that test sweeps, the generalized scenario under every regime too
STIFF_BASE = RateSet(gamma_L=1.0, gamma_R=1.0, Gamma_L=1e-3, Gamma_R=1e-3, Omega=1e-3,
                     U1=0.0, U2=0.0)
README_SWEEP = README_SLOW.replacing("gamma_R", 1e4)
SWEPT = {"double_dot_bare": "Gamma_R", "reduced_double_dot": "gamma_L"}    # else gamma_R
PROOF_CONFIGS = [(s, None) for s in sorted(experiments._CLOSED_FORMS)] + [
    (GENERALIZED_DOUBLE_DOT_SET, REGIMES[name]) for name in REGIMES]
BLOCK = solver._EXTENDED_BLOCK


def _grid_stack(scenario, blocking, base, top, n=1000):
    table = scenario_table(scenario, blocking)
    param = SWEPT.get(scenario, "gamma_R")
    rates = [base.replacing(param, v) for v in np.geomspace(1.0, top, n).tolist()]
    return np.stack([table.generator(r).matrix for r in rates]), table.index


@pytest.fixture
def one_part(monkeypatch):
    """steady_states solves every stack in the caller's thread, as on one
    CPU: the spies below read the engine's calls in their order, which
    parts run in threads would interleave, and the number of parts would
    follow the machine's CPU count."""
    monkeypatch.setattr(solver, "_cpus", lambda: 1)


@pytest.fixture
def svd_stacks(monkeypatch, one_part):
    """The length of every stack np.linalg.svd is called on (the reference
    solver calls it on single matrices, which are not recorded)."""
    lengths = []
    svd = np.linalg.svd

    def spy(a, *args, **kwargs):
        if np.ndim(a) == 3:
            lengths.append(len(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    return lengths


@pytest.fixture
def proof_stacks(monkeypatch, one_part):
    """The length of every stack steady_states runs the uniqueness proof on."""
    lengths = []
    proven_unique = solver._proven_unique

    def spy(G, *args):
        lengths.append(len(G))
        return proven_unique(G, *args)

    monkeypatch.setattr(solver, "_proven_unique", spy)
    return lengths


class TestUniquenessProof:
    """steady_states takes the rank test's verdict from solver._proven_unique
    for the leading blocks it proves, and from the SVD for the rest."""

    @pytest.mark.parametrize("base,top", [(STIFF_BASE, 1e12), (README_SWEEP, 1e4)],
                             ids=["stiff", "sweep"])
    @pytest.mark.parametrize("scenario,blocking", PROOF_CONFIGS,
                             ids=[config_id(*c) for c in PROOF_CONFIGS])
    def test_a_proven_member_has_a_one_dimensional_null_space(self, scenario, blocking,
                                                              base, top):
        G, index = _grid_stack(scenario, blocking, base, top)
        n_diag = len(index.diagonal_positions)
        singulars = np.linalg.svd(G, compute_uv=False)
        null_dims = (singulars <= solver.RANK_TOL * singulars[:, :1]).sum(axis=1)
        proven = np.array([solver._proven_unique(G[k:k + 1], n_diag)
                           for k in range(len(G))], dtype=bool)
        assert null_dims[proven].tolist() == [1] * int(proven.sum())
        # a block holds when each of its members does, and the stack's
        # proof stops at the first block that does not
        first = len(G) if proven.all() else int(np.argmin(proven))
        expected = len(G) if proven.all() else first - first % BLOCK
        assert solver._proven_unique(G, n_diag) == expected

    def test_the_readme_sweep_never_reaches_the_svd(self, monkeypatch):
        def no_svd(*args, **kwargs):
            raise AssertionError("np.linalg.svd was called")

        monkeypatch.setattr(np.linalg, "svd", no_svd)
        grid = tuple(np.geomspace(1.0, 1e4, 1000).tolist())
        table = run_sweep("double_dot_set", README_SWEEP, "gamma_R", grid)
        assert len(table) == 1000 and table.message == (None,) * 1000

    @pytest.mark.parametrize("scenario,blocking", CONFIGS,
                             ids=[config_id(*c) for c in CONFIGS])
    def test_rates_near_underflow_keep_the_verdicts(self, scenario, blocking):
        # at rates of 2^-535 (about 1e-161), scaled exactly, the Gram
        # products of G fall below the smallest normal float; the proof's
        # shift stays at the scale of its row of ones, so a disconnected
        # member still reaches the SVD
        table = scenario_table(scenario, blocking)
        gens = []
        for r in SETS["golden_and_random"][:3] + FAILING_SETS:
            try:
                g = table.generator(r)
            except ValueError:      # the equal-amplitude guard
                continue
            gens.append(Generator(np.ldexp(g.matrix, -535), g.index, g.label))
        assert assert_stack_matches_reference(gens) >= len(FAILING_SETS)

    def test_members_at_the_rank_line_are_left_to_the_svd(self):
        # one population pair and one coherence whose parts decay at rates
        # 1 and delta: singular values 2, 1, delta and 0, and a Gram matrix
        # of the constrained matrix, diag(2, 2, 1, delta^2), that rounds to
        # nothing.  The column-sum bound holds, so the Cholesky factorization
        # alone decides, and its shift settles no member: the SVD finds two
        # null directions where delta is just below RANK_TOL * sigma_max and
        # one where it is just above
        index = IndexMap(("a", "b"), [("a", "b")])
        line = solver.RANK_TOL * 2.0
        deltas = ([line * (1 - k / 1000) for k in range(1, 65)]
                  + [line * (1 + k / 1000) for k in range(1, 65)])
        gens = [Generator(np.array([[-1.0, 1.0, 0.0, 0.0], [1.0, -1.0, 0.0, 0.0],
                                    [0.0, 0.0, -1.0, 0.0], [0.0, 0.0, 0.0, -delta]]),
                          index, "synthetic") for delta in deltas]
        G = np.stack([g.matrix for g in gens])
        singulars = np.linalg.svd(G, compute_uv=False)
        null_dims = (singulars <= solver.RANK_TOL * singulars[:, :1]).sum(axis=1)
        assert null_dims.tolist() == [2] * 64 + [1] * 64
        assert [solver._proven_unique(g[np.newaxis], 2) for g in G] == [0] * 128
        assert solver._proven_unique(G, 2) == 0
        assert assert_stack_matches_reference(gens) == 64

    def test_a_tiny_dense_disconnected_generator_is_disconnected(self):
        block = np.array([[-1.0, 2.0, 3.0], [0.5, -2.0, 1.0], [0.5, 0.0, -4.0]])
        matrix = np.ldexp(np.kron(np.eye(2), block), -535)
        g = Generator(matrix, IndexMap(tuple("abcdef")), "synthetic")
        assert assert_stack_matches_reference([g]) == 1
        with pytest.raises(DegenerateSteadyState, match="^2-dimensional numerical null space"):
            steady_state(g)


def _edge_stack(size, first_unproven):
    """double_dot_set generators the proof settles, up to first_unproven;
    from there on, members it cannot settle (one the SVD solves, one it calls
    disconnected) in turn with ones it can."""
    table = scenario_table("double_dot_set")
    provable = [table.generator(README_SWEEP.replacing("gamma_R", v))
                for v in np.geomspace(1.0, 1e4, size).tolist()]
    unprovable = [table.generator(STIFF_BASE.replacing("gamma_R", v)) for v in (1e4, 1e12)]
    n_diag = len(table.index.diagonal_positions)
    for g in unprovable:
        assert solver._proven_unique(g.matrix[np.newaxis], n_diag) == 0
    return [provable[k] if k < first_unproven or (k - first_unproven) % 3 == 2
            else unprovable[(k - first_unproven) % 3] for k in range(size)]


class TestProofEdges:
    """Each stack matches the one-point reference, bytes and errors."""

    @pytest.mark.parametrize("size,first_unproven", [
        (size, first) for size in (63, 64, 65, 129) for first in (0, 63, 64, 128)
        if first < size] + [(129, 129)])
    def test_the_svd_takes_the_stack_from_the_first_unproven_block(
            self, size, first_unproven, svd_stacks, proof_stacks):
        gens = _edge_stack(size, first_unproven)
        proof_stacks.clear()            # _edge_stack runs the proof on two members
        failed = assert_stack_matches_reference(gens)
        assert failed == (size - first_unproven + 1) // 3
        assert proof_stacks == [size]
        proven = size if first_unproven == size else first_unproven - first_unproven % BLOCK
        assert svd_stacks == ([size - proven] if proven < size else [])

    @pytest.mark.parametrize("kind", ["nan", "huge", "zero", "leaky"])
    def test_a_member_the_proof_cannot_settle_in_block_0(self, kind, svd_stacks):
        # a NaN entry, entries whose squares overflow, the zero generator and
        # one that loses trace (no stationary direction): the SVD decides
        # every member, and no RuntimeWarning escapes
        gens = _edge_stack(129, 129)
        g = gens[5]
        matrix = {"nan": np.where(g.matrix != 0.0, g.matrix, np.nan),
                  "huge": 1e200 * g.matrix, "zero": np.zeros_like(g.matrix),
                  "leaky": g.matrix - 1e-3 * np.eye(g.dim)}[kind]
        gens[5] = Generator(matrix, g.index, kind)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            failed = assert_stack_matches_reference(gens)
        assert failed == (kind != "huge")
        assert svd_stacks == [129]

    def test_the_one_slot_zero_generator_is_not_proven(self):
        # its constrained matrix is [[1]]: only ||G||_F > 0 keeps it from
        # being proven, and keeps its message
        g = Generator(np.zeros((1, 1)), IndexMap(("a",)), "zero")
        assert assert_stack_matches_reference([g]) == 1

    def test_a_zero_slot_generator_is_the_zero_generator(self):
        # no slot to normalize: like the reference, every member of a
        # zero-slot stack, alone or not, fails as the zero generator
        g = Generator(np.zeros((0, 0)), IndexMap(()), "empty")
        assert assert_stack_matches_reference([g]) == 1
        assert assert_stack_matches_reference([g] * 3) == 3
        with pytest.raises(DegenerateSteadyState, match="^zero generator"):
            steady_state(g)

    def test_steady_state_never_runs_the_proof(self, monkeypatch, svd_stacks):
        # on one member the proof costs more than the SVD it would spare,
        # so a one-member stack goes straight to the SVD
        def no_cholesky(*args, **kwargs):
            raise AssertionError("np.linalg.cholesky was called")

        monkeypatch.setattr(np.linalg, "cholesky", no_cholesky)
        table = scenario_table("double_dot_set")
        for r in (README_SWEEP, STIFF_BASE.replacing("gamma_R", 1e4), README_SLOW):
            steady_state(table.generator(r))
        for r in FAILING_SETS:
            with pytest.raises(DegenerateSteadyState):
                steady_state(table.generator(r))
        assert svd_stacks == [1] * (3 + len(FAILING_SETS))

    def test_an_svd_failure_lands_on_its_own_member(self, monkeypatch):
        # the SVD runs on the members from 64 on; its stack call fails, and
        # of its one-member calls, the one on member 102
        gens = _edge_stack(129, 64)
        target = gens[102].matrix
        svd = np.linalg.svd

        def failing(a, *args, **kwargs):
            if np.ndim(a) == 3 or np.array_equal(a, target):
                raise np.linalg.LinAlgError("SVD did not converge")
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", failing)
        assert assert_stack_matches_reference(gens) == 22 + 1
        _, errors = steady_states(np.stack([g.matrix for g in gens]), gens[0].index)
        assert isinstance(errors[102], np.linalg.LinAlgError)
        assert errors[102 - 64] is None


@pytest.fixture
def solve_stacks(monkeypatch, one_part):
    """Every stack np.linalg.solve is called on, copied, in call order (the
    reference solver calls it on single matrices, which are not recorded)."""
    stacks = []
    solve = np.linalg.solve

    def spy(a, *args, **kwargs):
        if np.ndim(a) == 3:
            stacks.append(np.array(a))
        return solve(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "solve", spy)
    return stacks


def _passes(G, stacks):
    """How many refinement solves each member of G took part in: stacks
    are the engine's solve calls, the LU first.  A constrained matrix
    keeps rows 1: of its generator, which tell the members apart."""
    keys = [g[1:].tobytes() for g in G]
    assert len(set(keys)) == len(keys)
    taken = collections.Counter(a[1:].tobytes() for stack in stacks[1:] for a in stack)
    return np.array([taken[k] for k in keys])


def _alternating_stack():
    """README-sweep blocks of 64 in turn with stiff ones; from stiff member
    558 on the rank test fails them, so later blocks mix the two kinds.
    Returns the stack, its slot layout and which members are stiff."""
    sweep, index = _grid_stack("double_dot_set", None, README_SWEEP, 1e4)
    stiff, _ = _grid_stack("double_dot_set", None, STIFF_BASE, 1e12)
    chunks = [c for lo in range(0, len(sweep), BLOCK)
              for c in (sweep[lo:lo + BLOCK], stiff[lo:lo + BLOCK])]
    is_stiff = np.concatenate([np.full(len(c), k % 2 == 1) for k, c in enumerate(chunks)])
    return np.concatenate(chunks), index, is_stiff


class TestRefinementExit:
    """A refinement block stops after a pass that leaves its bits
    unchanged; the solutions are those of three passes (the reference)."""

    def test_the_readme_sweep_spares_most_third_passes(self, solve_stacks):
        G, index = _grid_stack("double_dot_set", None, README_SWEEP, 1e4)
        _, errors = steady_states(G, index)
        assert errors == [None] * len(G)
        lu, *refinement = solve_stacks
        assert len(lu) == len(G)
        # three passes would be 3 * len(G) members
        assert sum(len(stack) for stack in refinement) <= 2 * len(G) + 2 * BLOCK
        assert set(_passes(G, solve_stacks).tolist()) == {2, 3}

    def test_stiff_blocks_take_every_pass(self, solve_stacks):
        G, index, is_stiff = _alternating_stack()
        gens = [Generator(g, index, "alternating") for g in G]
        assert assert_stack_matches_reference(gens) == 442
        passes = _passes(G, solve_stacks)
        assert set(passes[is_stiff].tolist()) == {0, 3}        # failed or refined thrice
        assert (passes[is_stiff] == 3).sum() == is_stiff.sum() - 442
        # a README member takes pass 3 only beside a stiff member or one of
        # the few members that pass 2 moves
        assert set(passes[~is_stiff].tolist()) == {2, 3}
        assert (passes[~is_stiff] == 3).sum() <= 3 * BLOCK

    def test_a_bit_fixed_lu_answer_takes_one_pass(self, solve_stacks):
        # the LU solve already gives the exact state [5, 7, 3, 1]/16, so
        # pass 1 leaves its bits unchanged and the block stops there
        g = scenario_table("single_dot_set").generator(ALL_ONES_SINGLE)
        values, errors = steady_states(g.matrix[np.newaxis], g.index)
        assert errors == [None]
        assert values[0].tobytes() == (np.array([5.0, 7.0, 3.0, 1.0]) / 16).tobytes()
        assert len(solve_stacks) == 2                   # the LU and one pass


@pytest.fixture
def part_stacks(monkeypatch):
    """The length of every part steady_states solves, in call order."""
    lengths = []
    steady_part = solver._steady_part

    def spy(G, *args):
        lengths.append(len(G))
        return steady_part(G, *args)

    monkeypatch.setattr(solver, "_steady_part", spy)
    return lengths


def _split_inputs(name):
    """The README sweep, the stiff sweep to gamma_R = 1e12 (failing from
    member 558 on), the alternating stack (failing from member 1134 on)
    and the stiff sweep shuffled, which fails members in every part."""
    if name == "alternating":
        G, index, _ = _alternating_stack()
        return G, index
    base, top = {"sweep": (README_SWEEP, 1e4)}.get(name, (STIFF_BASE, 1e12))
    G, index = _grid_stack("double_dot_set", None, base, top)
    if name == "shuffled":
        G = G[np.random.default_rng(0).permutation(len(G))]
    return G, index


class TestStackSplit:
    """A large stack is solved in contiguous parts, one per thread; the
    parts are forced here through solver._cpus, not taken from the
    machine."""

    @pytest.mark.parametrize("cpus", [2, 3])
    @pytest.mark.parametrize("name", ["sweep", "stiff", "alternating", "shuffled"])
    def test_parts_give_the_one_part_bytes(self, name, cpus, monkeypatch, part_stacks):
        G, index = _split_inputs(name)
        monkeypatch.setattr(solver, "_cpus", lambda: 1)
        values, errors = steady_states(G, index)
        assert part_stacks == [len(G)]
        part_stacks.clear()
        monkeypatch.setattr(solver, "_cpus", lambda: cpus)
        split_values, split_errors = steady_states(G, index)
        assert sorted(part_stacks) == sorted(len(G) * (j + 1) // cpus - len(G) * j // cpus
                                             for j in range(cpus))
        assert split_values.tobytes() == values.tobytes()
        assert ([(type(e), str(e)) for e in split_errors]
                == [(type(e), str(e)) for e in errors])
        edges = [len(G) * j // cpus for j in range(1, cpus)]
        failing = {int(np.searchsorted(edges, k, side="right"))
                   for k, e in enumerate(errors) if e is not None}
        if name == "sweep":
            assert failing == set()
        elif name == "shuffled":
            assert failing == set(range(cpus))

    def test_more_parts_than_cores_with_frequent_switches(self, monkeypatch):
        # seven parts, more than most test machines have cores, with the
        # interpreter switching threads every 10 us
        G, index = _split_inputs("alternating")
        monkeypatch.setattr(solver, "_cpus", lambda: 1)
        values, errors = steady_states(G, index)
        monkeypatch.setattr(solver, "_cpus", lambda: 7)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            split_values, split_errors = steady_states(G, index)
        finally:
            sys.setswitchinterval(interval)
        assert split_values.tobytes() == values.tobytes()
        assert ([(type(e), str(e)) for e in split_errors]
                == [(type(e), str(e)) for e in errors])

    @pytest.mark.parametrize("size,cpus,parts", [
        (2 * solver._PART_MIN - 1, 8, [2 * solver._PART_MIN - 1]),
        (2 * solver._PART_MIN, 8, [solver._PART_MIN] * 2),
        (1000, 8, [333, 333, 334]),
        (1000, 1, [1000]),
    ])
    def test_the_part_count(self, size, cpus, parts, monkeypatch, part_stacks):
        G, index = _grid_stack("double_dot_set", None, README_SWEEP, 1e4, n=size)
        monkeypatch.setattr(solver, "_cpus", lambda: cpus)
        steady_states(G, index)
        assert sorted(part_stacks) == parts

    def test_a_worker_part_keeps_the_callers_errstate(self, monkeypatch):
        seen = []
        proven_unique = solver._proven_unique

        def spy(G, *args):
            seen.append((threading.current_thread() is threading.main_thread(), np.geterr()))
            return proven_unique(G, *args)

        monkeypatch.setattr(solver, "_proven_unique", spy)
        monkeypatch.setattr(solver, "_cpus", lambda: 2)
        G, index = _split_inputs("sweep")
        with np.errstate(all="raise"):
            steady_states(G, index)
        assert sorted(main for main, _ in seen) == [False, True]
        raising = {"divide": "raise", "over": "raise", "under": "raise", "invalid": "raise"}
        assert [errs for _, errs in seen] == [raising, raising]

    @pytest.mark.parametrize("failing", [{1}, {2}, {1, 2}, {0, 2}])
    def test_a_raising_part_propagates_and_no_thread_outlives_the_call(
            self, failing, monkeypatch):
        G, index = _split_inputs("sweep")
        starts = [0, 333, 666]
        steady_part = solver._steady_part
        workers = []

        def raising(part, *args):
            if threading.current_thread() is not threading.main_thread():
                workers.append(threading.current_thread())
            start = next(lo for lo in starts if part[0].tobytes() == G[lo].tobytes())
            if starts.index(start) in failing:
                raise RuntimeError(f"part at {start}")
            return steady_part(part, *args)

        monkeypatch.setattr(solver, "_steady_part", raising)
        monkeypatch.setattr(solver, "_cpus", lambda: 3)
        before = set(threading.enumerate())
        with pytest.raises(RuntimeError, match=f"^part at {starts[min(failing)]}$"):
            steady_states(G, index)
        assert len(workers) == 2
        assert not any(t.is_alive() for t in workers)
        assert set(threading.enumerate()) == before


class TestEvolve:
    def test_short_time_decay_slope(self):
        g = scenario_table("single_dot_set").generator(ALL_ONES_SINGLE)
        t = 1e-3
        traj = evolve(g, basis_state(g.index, "a"), t, dt=1e-4)
        slope = (1.0 - traj.final.occupation("a")) / t
        # sigma_aa(t) = 1 - (gamma_L + Gamma_L) t + O(t^2)
        assert slope == pytest.approx(2.0, abs=5e-3)

    def test_rabi_oscillation_closed_form(self):
        g = scenario_table("double_dot_bare").generator(RABI)
        x0 = pack(g.index, {"b": 1.0})
        traj = evolve(g, x0, 6.0, dt=0.01)
        _, im = g.index.coherence(("b", "c"))
        np.testing.assert_allclose(traj.values[:, g.index.diagonal("b")],
                                   np.cos(traj.times) ** 2, rtol=0, atol=1e-7)
        np.testing.assert_allclose(traj.values[:, im], np.sin(2 * traj.times) / 2.0,
                                   rtol=0, atol=1e-7)

    def test_fourth_order_convergence(self):
        g = scenario_table("double_dot_bare").generator(RABI)
        x0 = pack(g.index, {"b": 1.0})
        exact = math.cos(2.0) ** 2

        def err(dt):
            return abs(evolve(g, x0, 2.0, dt).final.occupation("b") - exact)

        assert err(0.02) / err(0.01) >= 15.0

    def test_long_time_limit_is_steady_state(self):
        for g in (scenario_table("single_dot_set").generator(ALL_ONES_SINGLE),
                  scenario_table("double_dot_bare").generator(
                      RateSet(Gamma_L=1, Gamma_R=1, Omega=1)),
                  scenario_table("double_dot_set").generator(
                      RateSet(gamma_L=1, gamma_R=2, Gamma_L=1, Gamma_R=1, Omega=1, U1=1, U2=2))):
            target = steady_state(g)
            traj = evolve(g, basis_state(g.index, "a"), 50.0)
            assert float(np.abs(traj.final.values - target.values).max()) < 1e-6

    def test_trace_and_positivity_preserved(self):
        g = scenario_table("double_dot_set").generator(
            RateSet(gamma_L=1, gamma_R=3, Gamma_L=1, Gamma_R=1, Omega=1, epsilon=0.5, U1=1, U2=2))
        traj = evolve(g, basis_state(g.index, "a"), 30.0)
        drift = abs(traj.final.trace() - 1.0) / 30.0
        assert drift < 1e-9
        diag = list(g.index.diagonal_positions)
        assert traj.values[:, diag].min() > -1e-6

    def test_zero_generator_takes_one_step(self):
        # no entry bounds the step, so the default step is the whole run
        index = IndexMap(("a", "b"))
        g = Generator(np.zeros((2, 2)), index, "zero")
        x0 = basis_state(index, "a")
        traj = evolve(g, x0, 2.5)
        assert traj.times.tolist() == [0.0, 2.5]
        assert traj.values.tolist() == [[1.0, 0.0], [1.0, 0.0]]

    def test_default_step_guard(self):
        g = scenario_table("single_dot_set").generator(ALL_ONES_SINGLE)
        assert default_step(g) == pytest.approx(0.1 / 3.0)

    # the "monitored coupled dots" run is the README config at gamma_R = 3
    @pytest.mark.parametrize("case", _suite_evolve_runs(), ids=lambda c: c[0])
    def test_matches_stage_wise_rk4(self, case):
        _, g, x0, t_final, dt = case
        traj = evolve(g, x0, t_final, dt)
        h = t_final / (len(traj.times) - 1)
        x = x0.values
        worst = 0.0
        for sample in traj.values[1:]:
            x = _rk4_step(g.matrix, x, h)
            worst = max(worst, float(np.abs(sample - x).max()))
        assert worst <= 1e-13

    def test_step_too_large_on_conserving_generator(self):
        # trace-conserving, but dt = 2 is outside RK4's stability region:
        # the trace check stops the run once the growing mode shows, at the
        # step and with the message of checking each step as it is made
        g = scenario_table("double_dot_set").generator(README_SLOW)
        x0 = basis_state(g.index, "a")
        with pytest.raises(StepTooLarge) as info:
            evolve(g, x0, 2000.0, dt=2.0)
        assert str(info.value) == "trace moved by 2.375e-07 in one step of 2.000e+00; shrink dt"
        assert str(info.value) == _first_failing_step(g, x0, 2000.0, 2.0)

    def test_step_too_large_on_leaky_generator(self):
        leaky = Generator(np.array([[-1.0]]), IndexMap(("a",)), "leaky")
        x0 = basis_state(leaky.index, "a")
        with pytest.raises(StepTooLarge) as info:
            evolve(leaky, x0, 1.0, dt=0.5)
        assert str(info.value) == "trace moved by 3.932e-01 in one step of 5.000e-01; shrink dt"
        assert str(info.value) == _first_failing_step(leaky, x0, 1.0, 0.5)

    # a 1x1 leaky generator whose every step moves the trace by between half
    # the budget and the budget: the screen cannot clear a step of it, so
    # the step-by-step walk decides, and passes it
    def test_a_drift_between_half_the_budget_and_the_budget_passes(self):
        leaky = Generator(np.array([[-0.75e-8]]), IndexMap(("a",)), "leaky")
        x0 = basis_state(leaky.index, "a")
        traj = evolve(leaky, x0, 100.0, 1.0)
        assert _first_failing_step(leaky, x0, 100.0, 1.0) is None
        plain = _plain_steps(leaky, x0, 100.0, 1.0)
        drifts = np.abs(np.diff(plain[:, 0]))
        assert (drifts > solver.TRACE_BUDGET_PER_STEP / 2).all()
        assert (drifts <= solver.TRACE_BUDGET_PER_STEP).all()
        assert traj.values.tobytes() == plain.tobytes()

    def test_a_drift_just_over_the_budget_fails_at_step_1(self):
        leaky = Generator(np.array([[-1.01e-8]]), IndexMap(("a",)), "leaky")
        x0 = basis_state(leaky.index, "a")
        with pytest.raises(StepTooLarge) as info:
            evolve(leaky, x0, 100.0, 1.0)
        assert str(info.value) == "trace moved by 1.010e-08 in one step of 1.000e+00; shrink dt"
        assert str(info.value) == _first_failing_step(leaky, x0, 100.0, 1.0)

    def test_a_failure_after_a_screened_slice(self, monkeypatch):
        # slot b grows from a 3e-30 seed at 5% a step: the first step over
        # budget is step 992, in block 0, whose steps before it the screen
        # clears (drift below 3e-9 up to step 965): only the steps from the
        # first one near the budget are walked, fewer than 256 fsum traces
        g = Generator(np.array([[0.0, 0.0], [3e-30, 0.05]]), IndexMap(("a", "b")), "growing")
        x0 = basis_state(g.index, "a")
        walked = _count_fsum(monkeypatch)
        with pytest.raises(StepTooLarge) as info:
            evolve(g, x0, 2000.0, 1.0)
        assert len(walked) < 256
        monkeypatch.undo()
        assert str(info.value) == "trace moved by 1.017e-08 in one step of 1.000e+00; shrink dt"
        assert str(info.value) == _first_failing_step(g, x0, 2000.0, 1.0)

    def test_a_blow_up_mid_block(self, monkeypatch):
        # a shift chain a -> b -> ... -> h -> a, exact except e -> f and
        # f -> g, which multiply by 1e300: step 5 is the first over budget,
        # and steps 6 and 7 of its block overflow, then turn 0 * inf into NaN
        labels = tuple("abcdefgh")
        g = Generator(np.zeros((8, 8)), IndexMap(labels), "chain")
        shift = np.roll(np.eye(8), 1, axis=0)
        shift[5, 4] = shift[6, 5] = 1e300
        monkeypatch.setattr(solver, "_rk4_propagator", lambda G, h: shift)
        x0 = basis_state(g.index, "a")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(StepTooLarge) as info:
                evolve(g, x0, 20.0, 1.0)
        message = "trace moved by 1.000e+300 in one step of 1.000e+00; shrink dt"
        assert str(info.value) == message
        assert _first_failing_step(g, x0, 20.0, 1.0) == message

    # the shortest inputs the check gets: 2 rows, from a one-step run (x0,
    # then the step) or a last block of one sample (the sample before it,
    # then it), and 3, from a two-step run; the screen clears a drift of a
    # quarter of the budget with no fsum trace, and leaves the others to
    # the walk, with the outcome and message of checking each step as it
    # is made
    @pytest.mark.parametrize("n_rows", [2, 3])
    @pytest.mark.parametrize("rate", [0.25e-8, 0.75e-8, 1.01e-8])
    def test_the_check_of_a_short_block(self, monkeypatch, n_rows, rate):
        leaky = Generator(np.array([[-rate]]), IndexMap(("a",)), "leaky")
        x0 = basis_state(leaky.index, "a")
        diagonals = _plain_steps(leaky, x0, n_rows - 1.0, 1.0)
        assert diagonals.shape == (n_rows, 1)
        walked = _count_fsum(monkeypatch)
        outcome = _check_outcome(diagonals, 1.0)
        assert (len(walked) == 0) == (rate < 0.5e-8)
        monkeypatch.undo()
        assert outcome == _first_failing_step(leaky, x0, n_rows - 1.0, 1.0)
        assert (outcome is None) == (rate < 1e-8)

    def test_the_screen_at_its_rounding_margin(self):
        # slots near 1e8 that cancel: each row's numpy sum rounds 1e8 + t to
        # a multiple of 2^-26, so the numpy traces never move while the fsum
        # traces move by just over the budget at step 3; the screen's slack
        # n^2 u max|d| clears none of it, and the walk fails that step
        traces = [1.0 - 0.505e-8] * 3 + [1.0 + 0.505e-8]
        diagonals = np.array([[1e8, t, -1e8] for t in traces])
        sums = diagonals.sum(axis=1)
        assert (sums == sums[0]).all()
        assert (np.abs(sums - traces) > solver.TRACE_BUDGET_PER_STEP / 2).all()
        assert 1e-8 < traces[-1] - traces[0] < 1.02e-8
        outcome = _check_outcome(diagonals, 1.0)
        assert outcome == _first_failing_drift(diagonals, 1.0)
        assert outcome == "trace moved by 1.010e-08 in one step of 1.000e+00; shrink dt"

    @pytest.mark.parametrize("n_rows", [2, 3])
    def test_a_nan_in_a_short_block(self, n_rows):
        diagonals = np.full((n_rows, 2), 0.5)
        diagonals[-1, 1] = np.nan
        outcome = _check_outcome(diagonals, 1.0)
        assert outcome == _first_failing_drift(diagonals, 1.0)
        assert outcome == "trace moved by nan in one step of 1.000e+00; shrink dt"

    def test_an_overflowing_propagator_is_refused_before_stepping(self):
        # hG is finite, but its fourth power overflows: P is refused as a
        # step too large, without a warning, before a step makes a NaN trace
        g = scenario_table("double_dot_set").generator(README_SLOW.replacing("gamma_R", 1e80))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(StepTooLarge) as info:
                evolve(g, basis_state(g.index, "a"), 1.0, 0.02)
        assert str(info.value) == (
            "the RK4 propagator of a step of 2.000e-02 overflows; shrink dt")

    def test_rejects_mismatched_layout(self):
        g = scenario_table("single_dot_set").generator(ALL_ONES_SINGLE)
        other = basis_state(scenario_table("double_dot_bare").index, "a")
        with pytest.raises(ValueError, match="layout"):
            evolve(g, other, 1.0)

    def test_rejects_bad_steps(self):
        g = scenario_table("single_dot_set").generator(ALL_ONES_SINGLE)
        x0 = basis_state(g.index, "a")
        with pytest.raises(ValueError):
            evolve(g, x0, -1.0)
        with pytest.raises(ValueError):
            evolve(g, x0, 1.0, dt=0.0)

    def test_nan_t_final_is_not_positive(self):
        g = scenario_table("single_dot_set").generator(ALL_ONES_SINGLE)
        with pytest.raises(ValueError, match="^t_final must be positive$"):
            evolve(g, basis_state(g.index, "a"), math.nan)

    def test_nan_dt_is_not_positive(self):
        g = scenario_table("single_dot_set").generator(ALL_ONES_SINGLE)
        with pytest.raises(ValueError, match="^dt must be positive$"):
            evolve(g, basis_state(g.index, "a"), 1.0, dt=math.nan)

    def test_step_cap_fails_fast_on_stiff_runs(self, monkeypatch):
        # widely spread rates push the guard step into millions of steps;
        # the integrator refuses instead of building a huge trajectory
        g = scenario_table("double_dot_set").generator(
            RateSet(gamma_L=1, gamma_R=1e4, Gamma_L=1, Gamma_R=1, Omega=1, U1=1, U2=2))
        with pytest.raises(ValueError, match="cap 1000000"):
            evolve(g, basis_state(g.index, "a"), 30.0)
        # the cap is the module constant MAX_STEPS, and a run of exactly
        # that many steps is allowed
        monkeypatch.setattr(solver, "MAX_STEPS", 100)
        small = scenario_table("single_dot_set").generator(ALL_ONES_SINGLE)
        with pytest.raises(ValueError, match="asks for 102 steps"):
            evolve(small, basis_state(small.index, "a"), 1.0, dt=0.0099)
        traj = evolve(small, basis_state(small.index, "a"), 1.0, dt=0.01)
        assert len(traj.times) == 101

    def test_step_cap_refuses_an_infinite_step_count(self):
        # t_final/dt overflows to inf: the cap refuses it before the count
        # is rounded to an integer, which would raise an OverflowError
        g = scenario_table("single_dot_set").generator(ALL_ONES_SINGLE)
        with pytest.raises(ValueError, match=r"asks for inf steps \(cap 1000000\)"):
            evolve(g, basis_state(g.index, "a"), 1e308, 5e-324)

    def test_endpoint_lands_exactly_on_t_final(self):
        g = scenario_table("single_dot_set").generator(ALL_ONES_SINGLE)
        traj = evolve(g, basis_state(g.index, "a"), 1.0, dt=0.3)
        assert traj.times[-1] == 1.0
        assert len(traj.times) == 5  # 4 equal steps of 0.25

    @pytest.mark.parametrize("t_final,dt,n_steps", [(0.9, 0.3, 3), (0.7, 0.02, 35)])
    def test_endpoint_is_t_final_where_n_steps_h_rounds_off_it(self, t_final, dt, n_steps):
        # 3 * (0.9 / 3) and 35 * (0.7 / 35) each round to a neighbour of
        # t_final; the samples before the last stay at k * h
        h = t_final / n_steps
        assert n_steps * h != t_final
        g = scenario_table("single_dot_set").generator(ALL_ONES_SINGLE)
        traj = evolve(g, basis_state(g.index, "a"), t_final, dt)
        assert traj.times.tolist() == [k * h for k in range(n_steps)] + [t_final]

    def test_endpoint_is_t_final_in_a_broadcast_block(self):
        # the zero generator repeats x0 at once, so blocks 1 and 2 of these
        # 2859 samples are broadcast; 2858 * (2000.3 / 2858) != 2000.3
        g = scenario_table("double_dot_bare").generator(RateSet())
        n_samples, blocks = solver.evolve_blocks(g, basis_state(g.index, "b"), 2000.3, 0.7)
        blocks = [(times.copy(), values) for times, values in blocks]
        h = 2000.3 / (n_samples - 1)
        assert n_samples == 2859 and (n_samples - 1) * h != 2000.3
        assert blocks[-1][1].strides[0] == 0
        times = np.concatenate([t for t, _ in blocks])
        assert times.tolist() == [k * h for k in range(n_samples - 1)] + [2000.3]


class TestTrajectory:
    def test_times_strictly_increasing_enforced(self):
        g = scenario_table("single_dot_set").generator(ALL_ONES_SINGLE)
        x = basis_state(g.index, "a")
        with pytest.raises(ValueError, match="strictly increasing"):
            Trajectory(np.array([0.0, 0.0]), np.stack([x.values, x.values]), g.index)

    @pytest.mark.parametrize("times", [[0.0, math.nan, 2.0], [0.0, 1.0, 1.0, 2.0],
                                       [math.nan, 1.0], [0.0, 2.0, 1.0]])
    def test_nan_and_repeated_times_rejected(self, times):
        g = scenario_table("single_dot_set").generator(ALL_ONES_SINGLE)
        values = np.zeros((len(times), g.dim))
        with pytest.raises(ValueError, match="strictly increasing"):
            Trajectory(np.array(times), values, g.index)

    def test_values_shape_enforced(self):
        g = scenario_table("single_dot_set").generator(ALL_ONES_SINGLE)
        x = basis_state(g.index, "a")
        with pytest.raises(ValueError, match="shape"):
            Trajectory(np.array([0.0, 1.0]), np.stack([x.values] * 3), g.index)
        with pytest.raises(ValueError, match="shape"):
            Trajectory(np.array([0.0, 1.0]), np.stack([x.values] * 2)[:, :-1], g.index)
        with pytest.raises(ValueError, match="shape"):
            Trajectory(np.array([0.0]), x.values, g.index)

    def test_values_read_only(self):
        g = scenario_table("single_dot_set").generator(ALL_ONES_SINGLE)
        traj = evolve(g, basis_state(g.index, "a"), 1.0)
        assert traj.values.shape == (len(traj.times), g.dim)
        with pytest.raises(ValueError):
            traj.values[0, 0] = 0.5
        np.testing.assert_array_equal(traj.final.values, traj.values[-1])

    def test_caller_array_not_aliased(self):
        g = scenario_table("single_dot_set").generator(ALL_ONES_SINGLE)
        x = basis_state(g.index, "a")
        times = np.array([0.0, 1.0])
        values = np.stack([x.values, x.values])
        traj = Trajectory(times, values, g.index)
        times[1] = 2.0
        values[1, 0] = 0.5
        np.testing.assert_array_equal(traj.times, [0.0, 1.0])
        np.testing.assert_array_equal(traj.values, np.stack([x.values, x.values]))
        assert not traj.values.flags.writeable

    def test_the_owner_of_a_read_only_array_cannot_write_through_it(self):
        # the owner of a read-only array may turn writes back on; the
        # trajectory's samples must not change
        times, values = np.array([0.0, 1.0]), np.zeros((2, 1))
        for a in (times, values):
            a.setflags(write=False)
        traj = Trajectory(times, values, IndexMap(("a",)))
        for a in (times, values):
            a.setflags(write=True)
        times[1], values[0, 0] = 5.0, 5.0
        assert traj.times.tolist() == [0.0, 1.0] and traj.values.tolist() == [[0.0], [0.0]]

    def test_states_validate_along_the_way(self):
        g = scenario_table("single_dot_set").generator(ALL_ONES_SINGLE)
        traj = evolve(g, basis_state(g.index, "a"), 10.0)
        for sample in traj.values[:: len(traj.times) // 10]:
            assert validate_state(StateVector(sample, g.index), 1e-6) == []



def _plain_samples(g, x0, t_final, dt):
    """evolve's step h and its samples as an iterator: x0, then one P @ x
    per sample read, to the end with no exit."""
    n_steps = max(1, math.ceil(t_final / dt - 1e-9))
    h = t_final / n_steps
    P = solver._rk4_propagator(g.matrix, h)

    def samples():
        x = x0.values
        yield x
        for _ in range(n_steps):
            x = P @ x
            yield x

    return h, samples()


def _plain_steps(g, x0, t_final, dt):
    """evolve's samples by stepping to the end: P x on every row, no exit."""
    return np.array(list(_plain_samples(g, x0, t_final, dt)[1]))


def _first_failing_step(g, x0, t_final, dt):
    """The StepTooLarge message of plain stepping that checks each step's
    trace drift as it is made and stops at the first over budget, or None."""
    n_diag = len(g.index.diagonal_positions)
    h, samples = _plain_samples(g, x0, t_final, dt)
    return _first_failing_drift((x[:n_diag] for x in samples), h)


def _first_failing_drift(diagonals, h):
    """The StepTooLarge message of walking rows of diagonal slots, each
    one step of h on from the row before, in order with math.fsum traces,
    stopping at the first drift over budget, or None."""
    diagonals = iter(diagonals)
    trace = math.fsum(next(diagonals).tolist())
    for diagonal in diagonals:
        trace_next = math.fsum(diagonal.tolist())
        drift = abs(trace_next - trace)
        if not drift <= solver.TRACE_BUDGET_PER_STEP:
            return f"trace moved by {drift:.3e} in one step of {h:.3e}; shrink dt"
        trace = trace_next
    return None


def _count_fsum(monkeypatch):
    """A list that grows by one for each math.fsum trace the check takes."""
    walked = []
    fsum = math.fsum
    monkeypatch.setattr(solver.math, "fsum", lambda xs: walked.append(xs) or fsum(xs))
    return walked


def _check_outcome(diagonals, h):
    """The StepTooLarge message _check_traces raises on diagonals, or None."""
    try:
        solver._check_traces(diagonals, h)
    except StepTooLarge as error:
        return str(error)
    return None


def _first_fixed_point(values):
    """The first row index with the bytes of the row before, or None."""
    bits = values.view(np.uint64)
    hits = np.flatnonzero((bits[1:] == bits[:-1]).all(axis=1))
    return int(hits[0]) + 1 if hits.size else None


# long runs that outlast their relaxation: the perfbench evolve input
# (README rates, gamma_R = 3 and as each of seeds 1-3 moves it, dt = 0.02,
# t_final = 500) and the other scenarios at gamma_R = 3
LONG_RUNS = [("double_dot_set", gamma_R) for gamma_R in
             (3.0, 3.109375871403054, 3.0758556529899987)] + [
    (s, 3.0) for s in ("single_dot_set", "double_dot_bare", "reduced_double_dot")]
# seed 2's input falls into a cycle of 226 samples, not onto a fixed point,
# so evolve steps it to the end
CYCLING_RUN = ("double_dot_set", 3.2028859394138767)


class TestFixedPointExit:
    """Once a step returns its input bit for bit, evolve fills the
    remaining rows with it; the samples are those of stepping to the end."""

    @pytest.mark.parametrize("scenario,gamma_R", LONG_RUNS + [CYCLING_RUN])
    def test_samples_are_those_of_plain_stepping(self, scenario, gamma_R):
        g = scenario_table(scenario).generator(README_SLOW.replacing("gamma_R", gamma_R))
        x0 = basis_state(g.index, "a")
        values = evolve(g, x0, 500.0, 0.02).values
        assert values.tobytes() == _plain_steps(g, x0, 500.0, 0.02).tobytes()
        if (scenario, gamma_R) != CYCLING_RUN:
            # a fixed point well before the end, so the run took the exit
            assert _first_fixed_point(values) < len(values) // 2

    def test_fixed_point_at_the_first_step(self):
        # the zero generator: P = I, so the first step repeats x0
        g = scenario_table("double_dot_bare").generator(RateSet())
        x0 = basis_state(g.index, "b")
        traj = evolve(g, x0, 10.0, 0.5)
        assert len(traj.times) == 21
        assert traj.values.tobytes() == np.tile(x0.values, (21, 1)).tobytes()

    @pytest.mark.parametrize("period", [2, 3, 5])
    def test_a_cycle_is_not_a_fixed_point(self, period, monkeypatch):
        # a propagator that permutes the slots cyclically, exactly and
        # keeping the trace: the samples cycle through the basis states and
        # no step returns its input
        labels = tuple("abcde"[:period])
        g = Generator(np.zeros((period, period)), IndexMap(labels), "cyclic")
        shift = np.roll(np.eye(period), 1, axis=0)
        monkeypatch.setattr(solver, "_rk4_propagator", lambda G, h: shift)
        traj = evolve(g, basis_state(g.index, "a"), 100.0, 1.0)
        assert traj.values.tobytes() == np.eye(period)[np.arange(101) % period].tobytes()

    def test_product_bits_independent_of_the_input_address(self):
        # the exit assumes P @ x depends on the bits of x alone, not on
        # where x lies in memory: copies at every 8-byte offset agree
        rng = np.random.default_rng(11)
        for dim in range(3, 17):
            P = rng.normal(size=(dim, dim))
            x = rng.normal(size=dim)
            buffer = np.empty(dim + 8)
            products = set()
            for offset in range(8):
                y = buffer[offset:offset + dim]
                y[:] = x
                products.add((P @ y).tobytes())
            assert products == {(P @ x).tobytes()}

    def test_product_bits_independent_of_the_output_address(self):
        # evolve writes each product into its row of the samples, with the
        # call it steps with: a row at every 8-byte offset gets the bits of P @ x
        rng = np.random.default_rng(12)
        for dim in range(3, 17):
            P = rng.normal(size=(dim, dim))
            x = rng.normal(size=dim)
            buffer = np.empty(dim + 8)
            products = set()
            for offset in range(8):
                row = buffer[offset:offset + dim]
                products.add(P.dot(x, row).tobytes())
            assert products == {(P @ x).tobytes()}


def _counted_steps(monkeypatch, propagator=None):
    """A list that grows by one for each product P x a run makes; the
    run's P is propagator(G, h) (default: evolve's own)."""
    calls = []

    class Counted(np.ndarray):
        def dot(self, *args):
            calls.append(1)
            return np.ndarray.dot(self.view(np.ndarray), *args)

    make = propagator or solver._rk4_propagator
    monkeypatch.setattr(solver, "_rk4_propagator", lambda G, h: make(G, h).view(Counted))
    return calls


def _block_end(n_steps, fixed):
    """The steps evolve takes: to the last sample of the block that holds
    the first fixed-point sample (None: no fixed point), else every step."""
    if fixed is None:
        return n_steps
    return min(n_steps, (fixed // solver._BLOCK + 1) * solver._BLOCK - 1)


def _streamed(g, x0, t_final, dt):
    """The blocks of evolve_blocks, each copied before the next is asked
    for, and the sample count it gave."""
    n_samples, blocks = solver.evolve_blocks(g, x0, t_final, dt)
    copied = []
    for times, values in blocks:
        assert not values.flags.writeable and len(times) == len(values)
        copied.append((times.copy(), values.copy()))
    return n_samples, copied


def _halving_coherence(fixed):
    """A generator, its P and x0: P keeps the occupations and halves the
    coherence slot re_ab, which starts at 2**(fixed - 1076), so the first
    sample with the bits of the one before is sample fixed (0.5 * 2**-1074
    rounds to 0)."""
    index = IndexMap(("a", "b"), [("a", "b")])
    P = np.diag([1.0, 1.0, 0.5, 1.0])
    x0 = StateVector(np.array([1.0, 0.0, 2.0 ** (fixed - 1076), 0.0]), index)
    return Generator(np.zeros((4, 4)), index, "halving"), P, x0


class TestStream:
    """evolve_blocks yields evolve's samples, blocks of _BLOCK rows read
    from one buffer, with the steps and checks of evolve."""

    BLOCK = solver._BLOCK

    def check(self, monkeypatch, g, x0, t_final, dt, fixed, propagator=None):
        """Step the run once as a stream, counting its products, and check
        its blocks against evolve and plain stepping; return the count."""
        calls = _counted_steps(monkeypatch, propagator)
        n_samples, blocks = _streamed(g, x0, t_final, dt)
        steps = len(calls)
        assert steps == _block_end(n_samples - 1, fixed)
        traj = evolve(g, x0, t_final, dt)
        sizes = [len(t) for t, _ in blocks]
        assert sizes == [min(self.BLOCK, n_samples - lo) for lo in range(0, n_samples, self.BLOCK)]
        times = np.concatenate([t for t, _ in blocks])
        values = np.concatenate([v for _, v in blocks])
        assert times.tobytes() == traj.times.tobytes()
        assert values.tobytes() == traj.values.tobytes()
        if propagator is None:
            assert values.tobytes() == _plain_steps(g, x0, t_final, dt).tobytes()
        else:
            P = propagator(g.matrix, 1.0)
            plain = [x0.values]
            for _ in range(n_samples - 1):
                plain.append(P @ plain[-1])
            assert values.tobytes() == np.array(plain).tobytes()
        assert _first_fixed_point(values) == fixed
        return steps

    def test_a_fixed_point_mid_block(self, monkeypatch):
        # the fixed point is sample 2142, in block 2 (samples 2048-3071):
        # found at the end of that block, after 3071 steps
        g = scenario_table("double_dot_set").generator(README_SLOW)
        self.check(monkeypatch, g, basis_state(g.index, "a"), 500.0, 0.02, 2142)

    @pytest.mark.parametrize("fixed", [BLOCK - 1, BLOCK, BLOCK + 1])
    def test_a_fixed_point_at_a_block_edge(self, monkeypatch, fixed):
        # found at the end of the block that holds it: sample 1023 ends
        # block 0, after 1023 steps; 1024 and 1025 are in block 1, found
        # after 2047
        g, P, x0 = _halving_coherence(fixed)
        self.check(monkeypatch, g, x0, 3000.0, 1.0, fixed, lambda G, h: P)

    def test_a_fixed_point_in_a_last_block_of_one_sample(self, monkeypatch):
        # 1025 samples: block 1 is sample 1024 alone, so its check and its
        # compare read row 0, the last sample of block 0
        g, P, x0 = _halving_coherence(self.BLOCK)
        steps = self.check(monkeypatch, g, x0, 1024.0, 1.0, self.BLOCK, lambda G, h: P)
        assert steps == 1024

    def test_a_late_fixed_point(self, monkeypatch):
        # sample 2000 of 3001, found at the end of block 1 after 2047 steps
        g, P, x0 = _halving_coherence(2000)
        steps = self.check(monkeypatch, g, x0, 3000.0, 1.0, 2000, lambda G, h: P)
        assert steps == 2047

    def test_the_seed_2_cycle(self, monkeypatch):
        scenario, gamma_R = CYCLING_RUN
        g = scenario_table(scenario).generator(README_SLOW.replacing("gamma_R", gamma_R))
        self.check(monkeypatch, g, basis_state(g.index, "a"), 500.0, 0.02, None)

    def test_a_one_step_run(self, monkeypatch):
        g = scenario_table("double_dot_set").generator(README_SLOW)
        self.check(monkeypatch, g, basis_state(g.index, "a"), 0.5, 1.0, None)

    def test_the_zero_generator(self, monkeypatch):
        # P = I: the first step repeats x0, so the run steps to the end of
        # block 0 and broadcasts the rest
        g = scenario_table("double_dot_bare").generator(RateSet())
        self.check(monkeypatch, g, basis_state(g.index, "b"), 3000.0, 0.5, 1)

    def test_a_step_too_large_in_the_only_block(self):
        # step 484, in block 0 (all 963 samples): no block is yielded
        g = scenario_table("double_dot_set").generator(README_SLOW)
        x0 = basis_state(g.index, "a")
        n_samples, blocks = solver.evolve_blocks(g, x0, 500.0, 0.52)
        assert n_samples == 963
        with pytest.raises(StepTooLarge) as info:
            next(blocks)
        assert str(info.value) == "trace moved by 1.304e-08 in one step of 5.198e-01; shrink dt"
        assert str(info.value) == _first_failing_step(g, x0, 500.0, 0.52)

    def test_the_checks_run_before_the_first_block(self):
        g = scenario_table("double_dot_set").generator(README_SLOW)
        x0 = basis_state(g.index, "a")
        with pytest.raises(ValueError, match="^t_final must be positive$"):
            solver.evolve_blocks(g, x0, -1.0)
        with pytest.raises(ValueError, match="cap 1000000"):
            solver.evolve_blocks(g, x0, 1e7, 1.0)
        with pytest.raises(StepTooLarge, match="propagator"):
            solver.evolve_blocks(scenario_table("double_dot_set").generator(
                README_SLOW.replacing("gamma_R", 1e80)), x0, 1.0, 0.02)
