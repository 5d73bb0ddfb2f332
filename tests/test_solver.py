import math

import numpy as np
import pytest

from mesorate import (
    DegenerateSteadyState,
    Generator,
    IndexMap,
    NoConvergence,
    RateSet,
    StateVector,
    StepTooLarge,
    Trajectory,
    basis_state,
    build_double_dot_bare,
    build_double_dot_set,
    build_scenario,
    build_single_dot_set,
    default_step,
    evolve,
    pack,
    relaxation_check,
    steady_state,
    steady_states,
    validate_state,
)
from mesorate import solver
from mesorate.acceptance import _suite_evolve_runs
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



def _steady_state_reference(g, rank_tol=1e-10):
    """The one-generator solver that preceded the stacked engine: the
    reference steady_states must match bit for bit, errors included."""
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
    norm = g.norm_inf()
    defect = float(np.abs(G @ x).max())
    if defect > 1e-12 * norm:
        raise ArithmeticError(
            f"stationary residual {defect:.3e} exceeds 1e-12 * ||G||_inf = {1e-12 * norm:.3e}")
    return StateVector(x, g.index)


def assert_stack_matches_reference(gens, rank_tol=1e-10):
    """One stacked call against the reference per generator: the bytes of
    every solution, the type and message of every error.  Returns the
    number of failing points."""
    values, errors = steady_states(np.stack([g.matrix for g in gens]), gens[0].index, rank_tol)
    assert values.shape == (len(gens), gens[0].dim) and len(errors) == len(gens)
    failed = 0
    for g, v, err in zip(gens, values, errors):
        try:
            expected = _steady_state_reference(g, rank_tol)
        except Exception as exc:
            failed += 1
            assert (type(err), str(err)) == (type(exc), str(exc))
            assert np.isnan(v).all()
        else:
            assert err is None
            assert v.tobytes() == expected.values.tobytes()
    return failed


def rational_steady_state(matrix_rows):
    """Independent oracle: exact Gaussian elimination over rationals.

    Solves G x = 0 with the entries of x summing to 1, using
    fractions.Fraction throughout, so it shares no code or arithmetic with
    the floating-point solver under test.
    """
    from fractions import Fraction

    n = len(matrix_rows)
    # replace the first balance row (linearly dependent) by normalization
    aug = [[Fraction(1)] * n + [Fraction(1)]]
    for row in matrix_rows[1:]:
        aug.append([Fraction(v) for v in row] + [Fraction(0)])
    for col in range(n):
        pivot = next(k for k in range(col, n) if aug[k][col] != 0)
        aug[col], aug[pivot] = aug[pivot], aug[col]
        for k in range(n):
            if k != col and aug[k][col] != 0:
                factor = aug[k][col] / aug[col][col]
                aug[k] = [a - factor * b for a, b in zip(aug[k], aug[col])]
    return [aug[i][n] / aug[i][i] for i in range(n)]


class TestSteadyState:
    def test_all_ones_single_dot(self):
        x = steady_state(build_single_dot_set(ALL_ONES_SINGLE))
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
            g = build_single_dot_set(r)
            expected = rational_steady_state([[F(v) for v in row] for row in g.matrix])
            x = steady_state(g)
            for got, want in zip(x.values, expected):
                assert got == pytest.approx(float(want), rel=1e-13, abs=1e-15)
        # the frozen all-ones value comes out of the oracle too
        oracle = rational_steady_state(
            [[F(v) for v in row] for row in build_single_dot_set(ALL_ONES_SINGLE).matrix])
        assert oracle == [F(5, 16), F(7, 16), F(3, 16), F(1, 16)]

    def test_absorbing_state_without_hopping(self):
        g = build_double_dot_bare(RateSet(Gamma_L=1, Gamma_R=1, epsilon=0.7))
        x = steady_state(g)
        expected = np.zeros(5)
        expected[1] = 1.0
        assert np.allclose(x.values, expected, atol=1e-14)

    def test_zero_generator_degenerate(self):
        with pytest.raises(DegenerateSteadyState, match="zero generator"):
            steady_state(build_double_dot_bare(RateSet()))

    def test_undamped_oscillator_degenerate(self):
        with pytest.raises(DegenerateSteadyState, match="null space"):
            steady_state(build_double_dot_bare(RABI))

    def test_residual_bound(self):
        rng = np.random.default_rng(29)
        for _ in range(30):
            widths = 10.0 ** rng.uniform(-2, 2, size=4)
            r = RateSet(gamma_L=float(widths[0]), gamma_R=float(widths[1]),
                        Gamma_L=float(widths[2]), Gamma_R=float(widths[3]),
                        Omega=float(10.0 ** rng.uniform(-2, 2)),
                        epsilon=float(rng.uniform(-10, 10)), U1=1.0, U2=2.0)
            g = build_double_dot_set(r)
            x = steady_state(g)
            assert float(np.abs(g.matrix @ x.values).max()) <= 1e-12 * g.norm_inf()
            assert x.trace() == pytest.approx(1.0, abs=1e-12)
            assert validate_state(x, 1e-9) == []

    def test_stiff_detector_limit(self):
        # collector width four decades above the emitter width: exactly the
        # case the direct solver exists for
        r = RateSet(gamma_L=1.0, gamma_R=1e4, Gamma_L=1.0, Gamma_R=1.0, Omega=1.0,
                    U1=1.0, U2=2.0)
        x = steady_state(build_double_dot_set(r))
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
                gens.append(build_scenario(scenario, r, blocking))
            except ValueError:      # the equal-amplitude guard
                pass
        failed = assert_stack_matches_reference(gens)
        assert failed >= len(FAILING_SETS)
        if group == "golden_and_random":
            assert len(gens) - failed >= 20     # solved points share the stack

    def test_failing_members_fail_alone(self):
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
        _, errors = steady_states(np.stack([g.matrix for g in gens]), index)
        assert [type(e).__name__ for e in errors] == [
            "NoneType", "DegenerateSteadyState", "ValueError", "ArithmeticError",
            "DegenerateSteadyState", "NoneType"]
        assert str(errors[1]) == "constrained stationary system is singular: Singular matrix"
        assert isinstance(errors[1].__cause__, np.linalg.LinAlgError)

    def test_rank_tol_applies_per_point(self):
        r = RateSet(gamma_L=1.0, gamma_R=1e4, Gamma_L=1.0, Gamma_R=1.0, Omega=1.0,
                    U1=1.0, U2=2.0)
        gens = [build_double_dot_set(r.replacing("gamma_R", v)) for v in (1.0, 1e6, 1e12)]
        for rank_tol in (1e-10, 1e-14):
            assert_stack_matches_reference(gens, rank_tol)


class TestEvolve:
    def test_short_time_decay_slope(self):
        g = build_single_dot_set(ALL_ONES_SINGLE)
        t = 1e-3
        traj = evolve(g, basis_state(g.index, "a"), t, dt=1e-4)
        slope = (1.0 - traj.final.occupation("a")) / t
        # sigma_aa(t) = 1 - (gamma_L + Gamma_L) t + O(t^2)
        assert slope == pytest.approx(2.0, abs=5e-3)

    def test_rabi_oscillation_closed_form(self):
        g = build_double_dot_bare(RABI)
        x0 = pack(g.index, {"b": 1.0})
        traj = evolve(g, x0, 6.0, dt=0.01)
        _, im = g.index.coherence(("b", "c"))
        np.testing.assert_allclose(traj.values[:, g.index.diagonal("b")],
                                   np.cos(traj.times) ** 2, rtol=0, atol=1e-7)
        np.testing.assert_allclose(traj.values[:, im], np.sin(2 * traj.times) / 2.0,
                                   rtol=0, atol=1e-7)

    def test_fourth_order_convergence(self):
        g = build_double_dot_bare(RABI)
        x0 = pack(g.index, {"b": 1.0})
        exact = math.cos(2.0) ** 2

        def err(dt):
            return abs(evolve(g, x0, 2.0, dt).final.occupation("b") - exact)

        assert err(0.02) / err(0.01) >= 15.0

    def test_long_time_limit_is_steady_state(self):
        for g in (build_single_dot_set(ALL_ONES_SINGLE),
                  build_double_dot_bare(RateSet(Gamma_L=1, Gamma_R=1, Omega=1)),
                  build_double_dot_set(RateSet(gamma_L=1, gamma_R=2, Gamma_L=1,
                                               Gamma_R=1, Omega=1, U1=1, U2=2))):
            target = steady_state(g)
            traj = evolve(g, basis_state(g.index, "a"), 50.0)
            assert float(np.abs(traj.final.values - target.values).max()) < 1e-6

    def test_trace_and_positivity_preserved(self):
        g = build_double_dot_set(RateSet(gamma_L=1, gamma_R=3, Gamma_L=1, Gamma_R=1,
                                         Omega=1, epsilon=0.5, U1=1, U2=2))
        traj = evolve(g, basis_state(g.index, "a"), 30.0)
        drift = abs(traj.final.trace() - 1.0) / 30.0
        assert drift < 1e-9
        diag = list(g.index.diagonal_positions)
        assert traj.values[:, diag].min() > -1e-6

    def test_default_step_guard(self):
        g = build_single_dot_set(ALL_ONES_SINGLE)
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
        # the per-step guard stops the run once the growing mode shows
        g = build_double_dot_set(README_SLOW)
        with pytest.raises(StepTooLarge, match="shrink dt"):
            evolve(g, basis_state(g.index, "a"), 2000.0, dt=2.0)

    def test_step_too_large_on_leaky_generator(self):
        leaky = Generator(np.array([[-1.0]]), IndexMap(("a",)), "leaky")
        with pytest.raises(StepTooLarge):
            evolve(leaky, basis_state(leaky.index, "a"), 1.0, dt=0.5)

    def test_rejects_mismatched_layout(self):
        g = build_single_dot_set(ALL_ONES_SINGLE)
        other = basis_state(build_double_dot_bare(RABI).index, "a")
        with pytest.raises(ValueError, match="layout"):
            evolve(g, other, 1.0)

    def test_rejects_bad_steps(self):
        g = build_single_dot_set(ALL_ONES_SINGLE)
        x0 = basis_state(g.index, "a")
        with pytest.raises(ValueError):
            evolve(g, x0, -1.0)
        with pytest.raises(ValueError):
            evolve(g, x0, 1.0, dt=0.0)

    def test_step_cap_fails_fast_on_stiff_runs(self, monkeypatch):
        # widely spread rates push the guard step into millions of steps;
        # the integrator refuses instead of building a huge trajectory
        g = build_double_dot_set(RateSet(gamma_L=1, gamma_R=1e4, Gamma_L=1,
                                         Gamma_R=1, Omega=1, U1=1, U2=2))
        with pytest.raises(ValueError, match="cap 1000000"):
            evolve(g, basis_state(g.index, "a"), 30.0)
        # the cap is the module constant MAX_STEPS, and a run of exactly
        # that many steps is allowed
        monkeypatch.setattr(solver, "MAX_STEPS", 100)
        small = build_single_dot_set(ALL_ONES_SINGLE)
        with pytest.raises(ValueError, match="asks for 102 steps"):
            evolve(small, basis_state(small.index, "a"), 1.0, dt=0.0099)
        traj = evolve(small, basis_state(small.index, "a"), 1.0, dt=0.01)
        assert len(traj.times) == 101

    def test_endpoint_lands_exactly_on_t_final(self):
        g = build_single_dot_set(ALL_ONES_SINGLE)
        traj = evolve(g, basis_state(g.index, "a"), 1.0, dt=0.3)
        assert traj.times[-1] == 1.0
        assert len(traj.times) == 5  # 4 equal steps of 0.25


class TestTrajectory:
    def test_times_strictly_increasing_enforced(self):
        g = build_single_dot_set(ALL_ONES_SINGLE)
        x = basis_state(g.index, "a")
        with pytest.raises(ValueError, match="strictly increasing"):
            Trajectory(np.array([0.0, 0.0]), np.stack([x.values, x.values]), g.index)

    @pytest.mark.parametrize("times", [[0.0, math.nan, 2.0], [0.0, 1.0, 1.0, 2.0],
                                       [math.nan, 1.0], [0.0, 2.0, 1.0]])
    def test_nan_and_repeated_times_rejected(self, times):
        g = build_single_dot_set(ALL_ONES_SINGLE)
        values = np.zeros((len(times), g.dim))
        with pytest.raises(ValueError, match="strictly increasing"):
            Trajectory(np.array(times), values, g.index)

    def test_values_shape_enforced(self):
        g = build_single_dot_set(ALL_ONES_SINGLE)
        x = basis_state(g.index, "a")
        with pytest.raises(ValueError, match="shape"):
            Trajectory(np.array([0.0, 1.0]), np.stack([x.values] * 3), g.index)
        with pytest.raises(ValueError, match="shape"):
            Trajectory(np.array([0.0, 1.0]), np.stack([x.values] * 2)[:, :-1], g.index)
        with pytest.raises(ValueError, match="shape"):
            Trajectory(np.array([0.0]), x.values, g.index)

    def test_values_read_only(self):
        g = build_single_dot_set(ALL_ONES_SINGLE)
        traj = evolve(g, basis_state(g.index, "a"), 1.0)
        assert traj.values.shape == (len(traj.times), g.dim)
        with pytest.raises(ValueError):
            traj.values[0, 0] = 0.5
        np.testing.assert_array_equal(traj.final.values, traj.values[-1])

    def test_caller_array_not_aliased(self):
        g = build_single_dot_set(ALL_ONES_SINGLE)
        x = basis_state(g.index, "a")
        times = np.array([0.0, 1.0])
        values = np.stack([x.values, x.values])
        traj = Trajectory(times, values, g.index)
        times[1] = 2.0
        values[1, 0] = 0.5
        np.testing.assert_array_equal(traj.times, [0.0, 1.0])
        np.testing.assert_array_equal(traj.values, np.stack([x.values, x.values]))
        assert not traj.values.flags.writeable

    def test_states_validate_along_the_way(self):
        g = build_single_dot_set(ALL_ONES_SINGLE)
        traj = evolve(g, basis_state(g.index, "a"), 10.0)
        for sample in traj.values[:: len(traj.times) // 10]:
            assert validate_state(StateVector(sample, g.index), 1e-6) == []


class TestRelaxationCheck:
    def test_all_ones_relaxes_within_a_few_inverse_rates(self):
        g = build_single_dot_set(ALL_ONES_SINGLE)
        t = relaxation_check(g, 1e-6)
        assert 0.0 < t < 50.0
        traj = evolve(g, basis_state(g.index, "a"), t)
        target = steady_state(g)
        assert float(np.abs(traj.final.values - target.values).max()) < 1e-6

    def test_zero_generator_never_converges(self):
        with pytest.raises(NoConvergence):
            relaxation_check(build_double_dot_bare(RateSet()), 1e-6)

    def test_undamped_oscillation_never_converges(self):
        with pytest.raises(NoConvergence):
            relaxation_check(build_double_dot_bare(RABI), 1e-6)

    def test_horizon_cap_respected(self):
        g = build_single_dot_set(ALL_ONES_SINGLE)
        with pytest.raises(NoConvergence, match="by t"):
            relaxation_check(g, 1e-6, horizon_cap=0.5)
