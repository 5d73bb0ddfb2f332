import numpy as np
import pytest

from mesorate import (
    DIAGONAL,
    REGIMES,
    BlockingConfig,
    RateSet,
    bare_current,
    scenario_table,
    steady_state,
)
from mesorate.acceptance import _hand_coded_double_dot_set
from mesorate.builders import build_generalized_double_dot_set
from test_observables import one_current, one_drop

# exactly representable rates so the transcribed matrices can be compared
# entry for entry with hand-written literals
POW2_SINGLE = RateSet(gamma_L=0.125, gamma_R=0.25, gamma_L_p=0.5, gamma_R_p=1.0,
                      Gamma_L=2.0, Gamma_R=4.0, Gamma_L_p=8.0, Gamma_R_p=16.0)
POW2_DOUBLE = RateSet(gamma_L=0.25, gamma_R=0.5, Gamma_L=2.0, Gamma_R=4.0,
                      Omega=1.0, epsilon=8.0, U1=16.0, U2=32.0)


def random_rate_sets(n, seed=11, equal_amplitudes=True):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        widths = 10.0 ** rng.uniform(-2, 2, size=8)
        kwargs = dict(gamma_L=widths[0], gamma_R=widths[1],
                      Gamma_L=widths[2], Gamma_R=widths[3])
        if not equal_amplitudes:
            kwargs.update(gamma_L_p=widths[4], gamma_R_p=widths[5],
                          Gamma_L_p=widths[6], Gamma_R_p=widths[7])
        out.append(RateSet(Omega=float(10.0 ** rng.uniform(-2, 2)),
                           epsilon=float(rng.uniform(-10, 10)),
                           U1=float(rng.uniform(0, 3)),
                           U2=float(rng.uniform(3, 6)),
                           **{k: float(v) for k, v in kwargs.items()}))
    return out


class TestSingleDotSet:
    def test_matrix_transcription(self):
        g = scenario_table("single_dot_set").generator(POW2_SINGLE)
        expected = np.array([
            [-2.125, 4.0, 0.25, 0.0],
            [2.0, -4.0, 0.0, 1.5],
            [0.125, 0.0, -8.25, 16.0],
            [0.0, 0.0, 8.0, -17.5],
        ])
        assert np.array_equal(g.matrix, expected)

    def test_layout_has_no_coherence_slots(self):
        g = scenario_table("single_dot_set").generator(POW2_SINGLE)
        assert all(e.kind == DIAGONAL for e in g.index.entries)
        assert g.index.diagonal_labels == ("a", "b", "a'", "b'")

    def test_all_ones_steady_state(self):
        r = RateSet(gamma_L=1, gamma_R=1, Gamma_L=1, Gamma_R=1)
        g = scenario_table("single_dot_set").generator(r)
        x = steady_state(g)
        assert np.allclose(x.values, np.array([5.0, 7.0, 3.0, 1.0]) / 16.0,
                           rtol=0, atol=1e-14)

    def test_detector_decoupled_when_gamma_L_zero(self):
        r = RateSet(gamma_L=0.0, gamma_R=2.0, Gamma_L=1.0, Gamma_R=3.0)
        x = steady_state(scenario_table("single_dot_set").generator(r))
        assert x.occupation("a'") == pytest.approx(0.0, abs=1e-15)
        assert x.occupation("b'") == pytest.approx(0.0, abs=1e-15)
        # the unprimed block is the bare single dot
        assert x.occupation("a") == pytest.approx(3.0 / 4.0, rel=1e-12)
        assert x.occupation("b") == pytest.approx(1.0 / 4.0, rel=1e-12)


class TestDoubleDotBare:
    def test_matrix_transcription(self):
        g = scenario_table("double_dot_bare").generator(POW2_DOUBLE)
        expected = np.array([
            [-2.0, 0.0, 4.0, 0.0, 0.0],
            [2.0, 0.0, 0.0, 0.0, -2.0],
            [0.0, 0.0, -4.0, 0.0, 2.0],
            [0.0, 0.0, 0.0, -2.0, -8.0],
            [0.0, 1.0, -1.0, 8.0, -2.0],
        ])
        assert np.array_equal(g.matrix, expected)

    def test_zero_hopping_is_absorbing(self):
        r = RateSet(Gamma_L=1.0, Gamma_R=1.0, epsilon=0.4)
        x = steady_state(scenario_table("double_dot_bare").generator(r))
        assert x.occupation("b") == pytest.approx(1.0, abs=1e-14)
        w = scenario_table("double_dot_bare").weights(r)
        assert one_current(x, w["system"]) == pytest.approx(0.0, abs=1e-14)

    def test_symmetric_point_current(self):
        r = RateSet(Gamma_L=1.0, Gamma_R=1.0, Omega=1.0)
        x = steady_state(scenario_table("double_dot_bare").generator(r))
        w = scenario_table("double_dot_bare").weights(r)
        assert one_current(x, w["system"]) == pytest.approx(1.0 / 3.25, rel=1e-12)

    def test_matches_closed_form_on_random_sets(self):
        for r in random_rate_sets(40, seed=3):
            x = steady_state(scenario_table("double_dot_bare").generator(r))
            w = scenario_table("double_dot_bare").weights(r)
            assert one_current(x, w["system"]) == pytest.approx(
                bare_current(r.Gamma_L, r.Gamma_R, r.Omega, r.epsilon), rel=1e-10)


class TestDoubleDotSet:
    def test_matrix_transcription(self):
        g = scenario_table("double_dot_set").generator(POW2_DOUBLE)
        expected = np.array([
            [-2.25, 0.5, 0, 0, 4, 0, 0, 0, 0, 0],
            [0.25, -2.5, 0, 0, 0, 4, 0, 0, 0, 0],
            [2, 0, -0.25, 0.5, 0, 0, 0, -2, 0, 0],
            [0, 2, 0.25, -0.5, 0, 0, 0, 0, 0, -2],
            [0, 0, 0, 0, -4, 0.75, 0, 2, 0, 0],
            [0, 0, 0, 0, 0, -4.75, 0, 0, 0, 2],
            [0, 0, 0, 0, 0, 0, -2.125, -8, 0.5, 0],
            [0, 0, 1, 0, -1, 0, 8, -2.125, 0, 0.5],
            [0, 0, 0, 0, 0, 0, 0, 0, -2.625, -24],
            [0, 0, 0, 1, 0, -1, 0, 0, 24, -2.625],
        ], dtype=float)
        assert np.array_equal(g.matrix, expected)

    def test_rejects_unequal_primed_widths(self):
        r = RateSet(gamma_L=1.0, gamma_R=1.0, Gamma_L=1.0, Gamma_R=1.0, Gamma_R_p=0.5,
                    Omega=1.0)
        with pytest.raises(ValueError, match="equal tunneling amplitudes"):
            scenario_table("double_dot_set").generator(r)
        with pytest.raises(ValueError, match="equal tunneling amplitudes"):
            scenario_table("generalized_double_dot_set", REGIMES["resolving"]).generator(r)

    def test_detector_decoupled_when_gamma_L_zero(self):
        r = RateSet(gamma_L=0.0, gamma_R=2.0, Gamma_L=1.0, Gamma_R=1.0,
                    Omega=0.8, epsilon=0.3, U1=1.0, U2=2.0)
        x = steady_state(scenario_table("double_dot_set").generator(r))
        for label in ("a'", "b'", "c'"):
            assert abs(x.occupation(label)) < 1e-14
        bare = steady_state(scenario_table("double_dot_bare").generator(r))
        for label in ("a", "b", "c"):
            assert x.occupation(label) == pytest.approx(bare.occupation(label), rel=1e-12)
        assert x.coherence(("b", "c")) == pytest.approx(bare.coherence(("b", "c")), rel=1e-12)

    def test_converges_to_reduced_model_with_shifted_detuning(self):
        # the primed-coherence rotation (U2 - U1) is the only finite-ratio
        # correction, so the error must fall monotonically with gamma_R
        base = RateSet(gamma_L=1.0, gamma_R=1.0, Gamma_L=1.0, Gamma_R=1.0,
                       Omega=1.0, U1=1.0, U2=2.0)
        w = scenario_table("double_dot_set").weights(base)
        errors = []
        for ratio in (1e2, 1e3, 1e4):
            r = base.replacing("gamma_R", ratio)
            full = one_current(steady_state(scenario_table("double_dot_set").generator(r)),
                               w["system"])
            reduced = one_current(steady_state(scenario_table("reduced_double_dot").generator(r)),
                                  scenario_table("reduced_double_dot").weights(r)["system"])
            errors.append(abs(full - reduced) / reduced)
        assert errors[0] > errors[1] > errors[2]
        assert errors[2] < 1e-2

    def test_equal_coulomb_shifts_still_dephase(self):
        # the current stays below the bare value whenever the detector
        # entry channel is open for one dot, even with U1 == U2; holds for
        # eps^2 < eta * Gamma_R^2 / 4 (far off resonance the dephasing
        # flips sign and raises the current instead, see the analytic tests)
        for eps in (0.0, 0.3, -0.5):
            r = RateSet(gamma_L=0.7, gamma_R=5.0, Gamma_L=1.0, Gamma_R=1.0,
                        Omega=1.0, epsilon=eps, U1=2.0, U2=2.0)
            i_s = one_current(steady_state(scenario_table("double_dot_set").generator(r)),
                              scenario_table("double_dot_set").weights(r)["system"])
            assert i_s < bare_current(r.Gamma_L, r.Gamma_R, r.Omega, r.epsilon)


class TestReducedDoubleDot:
    def test_no_detector_reduces_to_bare_exactly(self):
        for r in random_rate_sets(20, seed=5):
            r0 = r.replacing("gamma_L", 0.0)
            assert np.array_equal(scenario_table("reduced_double_dot").generator(r0).matrix,
                                  scenario_table("double_dot_bare").generator(r0).matrix)

    def test_only_coherence_decay_differs(self):
        r = RateSet(gamma_L=0.6, Gamma_L=1.0, Gamma_R=2.0, Omega=0.7, epsilon=0.2)
        bare = scenario_table("double_dot_bare").generator(r).matrix
        reduced = scenario_table("reduced_double_dot").generator(r).matrix
        diff = reduced - bare
        expected = np.zeros((5, 5))
        expected[3, 3] = -0.3
        expected[4, 4] = -0.3
        assert np.allclose(diff, expected, atol=1e-15)

    def test_symmetric_point_current(self):
        r = RateSet(gamma_L=1.0, Gamma_L=1.0, Gamma_R=1.0, Omega=1.0)
        x = steady_state(scenario_table("reduced_double_dot").generator(r))
        w = scenario_table("reduced_double_dot").weights(r)
        assert one_current(x, w["system"]) == pytest.approx(1.0 / 3.5, rel=1e-12)


class TestGeneralizedBuilder:
    def test_golden_equality_with_hand_coded(self):
        generalized = scenario_table("generalized_double_dot_set", REGIMES["resolving"])
        for r in random_rate_sets(40, seed=13) + [POW2_DOUBLE, RateSet()]:
            hand_coded = _hand_coded_double_dot_set(r).matrix
            assert np.array_equal(generalized.generator(r).matrix, hand_coded)
            assert np.array_equal(scenario_table("double_dot_set").generator(r).matrix, hand_coded)

    def test_blind_detector_leaves_current_undistorted(self):
        r = RateSet(gamma_L=1.0, gamma_R=1e4, Gamma_L=1.0, Gamma_R=1.0, Omega=1.0,
                    U1=1.0, U2=2.0)
        cfg = REGIMES["blind"]
        x = steady_state(scenario_table("generalized_double_dot_set", cfg).generator(r))
        w = scenario_table("generalized_double_dot_set", cfg).weights(r)
        i_s = one_current(x, w["system"])
        assert i_s == pytest.approx(0.3076923, rel=1e-2)
        i_d = one_current(x, w["detector"])
        assert abs(one_drop(r, i_d)) > 1e-3

    def test_blind_coherence_decay_has_no_entry_term(self):
        r = RateSet(gamma_L=0.7, gamma_R=2.0, Gamma_L=1.0, Gamma_R=3.0, Omega=1.0)
        g = scenario_table("generalized_double_dot_set", REGIMES["blind"]).generator(r)
        u, v = g.index.coherence(("b", "c"))
        assert g.matrix[u, u] == -r.Gamma_R / 2.0   # no gamma_L/2 here
        up, vp = g.index.coherence(("b'", "c'"))
        # both primed states are blocked: backflow joins the collector exit
        assert g.matrix[u, up] == r.gamma_R + r.gamma_L

    def test_step_monotonicity_in_gamma_L(self):
        blind = scenario_table("generalized_double_dot_set", REGIMES["blind"])
        resolving = scenario_table("generalized_double_dot_set", REGIMES["resolving"])
        for gamma_l in (0.0, 0.3, 1.0, 4.0):
            r = RateSet(gamma_L=gamma_l, gamma_R=1e4 * max(gamma_l, 1.0),
                        Gamma_L=1.0, Gamma_R=1.0, Omega=1.0, U1=1.0, U2=2.0)
            w = resolving.weights(r)
            i_blind = one_current(steady_state(blind.generator(r)), w["system"])
            i_resolving = one_current(steady_state(resolving.generator(r)), w["system"])
            if gamma_l == 0.0:
                assert i_blind == pytest.approx(i_resolving, rel=1e-12)
            else:
                assert i_blind > i_resolving


class TestTraceConservation:
    def test_all_builders_conserve_trace(self):
        sets = random_rate_sets(25, seed=17) + random_rate_sets(
            10, seed=19, equal_amplitudes=False) + [RateSet()]
        for r in sets:
            gens = [scenario_table(s).generator(r)
                    for s in ("single_dot_set", "double_dot_bare", "reduced_double_dot")]
            if r.is_equal_amplitudes:
                gens.append(scenario_table("double_dot_set").generator(r))
                for cfg in REGIMES.values():
                    gens.append(scenario_table("generalized_double_dot_set", cfg).generator(r))
            for g in gens:
                # the column sums over the diagonal slots: the all-ones row
                # over them is a left null vector of a trace-conserving G
                diag = list(g.index.diagonal_positions)
                scale = max(1.0, float(np.abs(g.matrix).max()))
                assert np.abs(g.matrix[diag].sum(axis=0)).max() <= 1e-12 * scale

    def test_zero_rates_give_zero_generator(self):
        assert not scenario_table("double_dot_set").generator(RateSet()).matrix.any()

    def test_reproducible_construction(self):
        r = random_rate_sets(1, seed=23)[0]
        assert np.array_equal(scenario_table("double_dot_set").generator(r).matrix,
                              scenario_table("double_dot_set").generator(r).matrix)


class TestDispatch:
    def test_generator_labels(self):
        r = RateSet(gamma_L=1, gamma_R=1, Gamma_L=1, Gamma_R=1, Omega=1)
        assert scenario_table("single_dot_set").generator(r).label == "single_dot_set"
        assert scenario_table("double_dot_bare").generator(r).label == "double_dot_bare"

    def test_generalized_needs_blocking(self):
        with pytest.raises(ValueError, match="BlockingConfig"):
            scenario_table("generalized_double_dot_set").generator(RateSet())

    def test_unknown_scenario(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            scenario_table("nope").generator(RateSet())

    @pytest.mark.parametrize("scenario", ["single_dot_set", "double_dot_bare",
                                          "reduced_double_dot", "double_dot_set"])
    def test_fixed_scenario_refuses_a_blocking(self, scenario):
        # a scenario that fixes its own blocking (or has no detector) is
        # refused a BlockingConfig instead of silently ignoring it
        for blocking in REGIMES.values():
            with pytest.raises(ValueError, match=f"{scenario} fixes its own blocking"):
                scenario_table(scenario, blocking)

    @pytest.mark.parametrize("scenario", ["single_dot_set", "double_dot_bare",
                                          "reduced_double_dot", "double_dot_set"])
    def test_fixed_scenario_is_compiled_once(self, scenario):
        # the one-argument call (validate) and an explicit None (the CLI)
        # reach the same table
        assert scenario_table(scenario) is scenario_table(scenario, None)


class TestRegimes:
    def test_each_regime_names_its_blocking(self):
        assert REGIMES == {"blind": BlockingConfig(True, True),
                           "resolving": BlockingConfig(False, True),
                           "open": BlockingConfig(False, False)}

    def test_benchmark_oracle_helpers(self):
        # build_generalized_double_dot_set and blocked_on_second_dot stay for
        # perfbench/oracle.py only; they are the table and the regime
        assert BlockingConfig.blocked_on_second_dot() is REGIMES["resolving"]
        for r in random_rate_sets(5, seed=29):
            for cfg in REGIMES.values():
                assert np.array_equal(build_generalized_double_dot_set(r, cfg).matrix,
                                      scenario_table("generalized_double_dot_set", cfg)
                                      .generator(r).matrix)
