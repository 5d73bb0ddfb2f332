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
    build_single_dot_set,
    default_step,
    evolve,
    pack,
    relaxation_check,
    steady_state,
    validate_state,
)

ALL_ONES_SINGLE = RateSet(gamma_L=1, gamma_R=1, Gamma_L=1, Gamma_R=1)
RABI = RateSet(Omega=1.0)


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

    def test_step_cap_fails_fast_on_stiff_runs(self):
        # widely spread rates push the guard step into millions of steps;
        # the integrator refuses instead of building a huge trajectory
        g = build_double_dot_set(RateSet(gamma_L=1, gamma_R=1e4, Gamma_L=1,
                                         Gamma_R=1, Omega=1, U1=1, U2=2))
        with pytest.raises(ValueError, match="cap"):
            evolve(g, basis_state(g.index, "a"), 30.0)
        # the cap is a parameter, not a hard limit
        small = build_single_dot_set(ALL_ONES_SINGLE)
        with pytest.raises(ValueError, match="cap"):
            evolve(small, basis_state(small.index, "a"), 1.0, dt=0.01, max_steps=10)
        traj = evolve(small, basis_state(small.index, "a"), 1.0, dt=0.01, max_steps=200)
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
