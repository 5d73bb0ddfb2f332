
import itertools
import math

import numpy as np
import pytest

from mesorate import (
    BlockingConfig,
    CurrentWeights,
    RateSet,
    StateVector,
    build_double_dot_set,
    build_scenario,
    build_single_dot_set,
    current,
    delta_detector_current,
    index_single_dot_set,
    steady_state,
    weights_for,
)

ALL_ONES = RateSet(gamma_L=1, gamma_R=1, Gamma_L=1, Gamma_R=1)
STEADY_ALL_ONES = StateVector(np.array([5, 7, 3, 1]) / 16, index_single_dot_set())


class TestWeightsFor:
    def test_single_dot_detector_weights(self):
        w = weights_for("single_dot_set", ALL_ONES)
        assert w.detector == {"a'": 1.0, "b'": 1.0}
        assert w.system == {"b": 1.0, "b'": 1.0}

    def test_single_dot_primed_widths_used(self):
        r = RateSet(gamma_L=1, gamma_R=2, gamma_R_p=0.5, Gamma_L=1, Gamma_R=3,
                    Gamma_R_p=4)
        w = weights_for("single_dot_set", r)
        assert w.detector == {"a'": 2.0, "b'": 0.5}
        assert w.system == {"b": 3.0, "b'": 4.0}

    def test_bare_double_dot_single_collector_state(self):
        r = RateSet(Gamma_L=1, Gamma_R=2.5, Omega=1)
        w = weights_for("double_dot_bare", r)
        assert w.system == {"c": 2.5}
        assert w.detector == {}

    def test_monitored_double_dot_weights(self):
        r = RateSet(gamma_L=1, gamma_R=7, Gamma_L=1, Gamma_R=2, Omega=1)
        w = weights_for("double_dot_set", r)
        assert w.detector == {"a'": 7.0, "b'": 7.0, "c'": 7.0}
        assert w.system == {"c": 2.0, "c'": 2.0}
        assert w.detector_return == {"c'": 1.0}

    def test_generalized_backflow_diagnostic_follows_blocking(self):
        from mesorate import BlockingConfig
        r = RateSet(gamma_L=0.5, gamma_R=7, Gamma_L=1, Gamma_R=2, Omega=1)
        w = weights_for("generalized_double_dot_set", r,
                        BlockingConfig.blocked_on_either_dot())
        assert w.detector_return == {"b'": 0.5, "c'": 0.5}

    def test_unknown_scenario(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            weights_for("triple_dot", ALL_ONES)

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            CurrentWeights(detector={"a'": -1.0}, system={})


class TestCurrent:
    def test_system_current_of_all_ones_steady(self):
        w = weights_for("single_dot_set", ALL_ONES)
        assert current(STEADY_ALL_ONES, w.system) == 0.5

    def test_detector_current_of_all_ones_steady(self):
        w = weights_for("single_dot_set", ALL_ONES)
        assert current(STEADY_ALL_ONES, w.detector) == 0.25

    def test_zero_weights_give_zero(self):
        assert current(STEADY_ALL_ONES, {}) == 0.0

    def test_slot_mismatch(self):
        with pytest.raises(ValueError, match="missing"):
            current(STEADY_ALL_ONES, {"c'": 1.0})


class TestDeltaDetectorCurrent:
    def test_all_ones_value(self):
        assert delta_detector_current(ALL_ONES, 0.25) == 0.25

    def test_undisturbed_detector(self):
        assert delta_detector_current(ALL_ONES, 0.5) == 0.0

    def test_undefined_without_detector_widths(self):
        with pytest.raises(ValueError):
            delta_detector_current(RateSet(Gamma_L=1, Gamma_R=1), 0.1)

    def test_amplification_ratio_in_fast_detector_limit(self):
        r = RateSet(gamma_L=1.0, gamma_R=1e4, Gamma_L=1.0, Gamma_R=1.0, Omega=1.0,
                    U1=1.0, U2=2.0)
        x = steady_state(build_double_dot_set(r))
        w = weights_for("double_dot_set", r)
        i_s = current(x, w.system)
        i_d = current(x, w.detector)
        ratio = delta_detector_current(r, i_d) / i_s
        assert ratio == pytest.approx(r.gamma_L / r.Gamma_R, rel=1e-2)


FLUX_CONFIGS = [("single_dot_set", None), ("double_dot_bare", None),
                ("reduced_double_dot", None), ("double_dot_set", None)] + [
    ("generalized_double_dot_set", BlockingConfig(*flags))
    for flags in itertools.product((False, True), repeat=3)]


def flux_id(scenario, blocking):
    if blocking is None:
        return scenario
    flags = (blocking.blocked_when_dot1, blocking.blocked_when_dot2,
             blocking.backflow_when_blocked)
    return f"{scenario}:{''.join(str(int(f)) for f in flags)}"


class TestFluxBalance:
    @pytest.mark.parametrize("scenario,blocking", FLUX_CONFIGS,
                             ids=[flux_id(*c) for c in FLUX_CONFIGS])
    def test_detector_injection_matches_collector_outflow(self, scenario, blocking):
        # in the stationary state the net inflow from the left (entry minus
        # backflow) equals the collector outflow the weights report, for the
        # system and the detector alike; the fluxes are written out here per
        # scenario, independently of the channel tables
        if scenario == "single_dot_set":
            r = RateSet(gamma_L=0.8, gamma_R=2.0, gamma_L_p=0.3, gamma_R_p=1.5,
                        Gamma_L=1.1, Gamma_R=0.9, Gamma_L_p=0.7, Gamma_R_p=1.3)
        else:
            r = RateSet(gamma_L=0.8, gamma_R=2.0, Gamma_L=1.1, Gamma_R=0.9,
                        Omega=0.7, epsilon=0.3, U1=1.0, U2=2.0)
        x = steady_state(build_scenario(scenario, r, blocking))
        p = {label: x.occupation(label) for label in x.index.diagonal_labels}
        w = weights_for(scenario, r, blocking)
        if scenario == "single_dot_set":
            system_entry = r.Gamma_L * p["a"] + r.Gamma_L_p * p["a'"]
            detector_entry = r.gamma_L * p["a"] - r.gamma_L_p * p["b'"]
        elif scenario in ("double_dot_bare", "reduced_double_dot"):
            system_entry = r.Gamma_L * p["a"]
            detector_entry = 0.0
        else:
            cfg = blocking or BlockingConfig.blocked_on_second_dot()
            blocked = {"a": False, "b": cfg.blocked_when_dot1, "c": cfg.blocked_when_dot2}
            system_entry = r.Gamma_L * (p["a"] + p["a'"])
            detector_entry = r.gamma_L * math.fsum(
                p[s] if not blocked[s] else -p[s + "'"] * cfg.backflow_when_blocked
                for s in "abc")
        assert abs(system_entry - current(x, w.system)) < 1e-10
        assert abs(detector_entry - current(x, w.detector)) < 1e-10


class TestScaleInvariance:
    def test_currents_scale_linearly_with_all_rates(self):
        kappa = 4.0  # power of two: scaling the generator is exact
        r = RateSet(gamma_L=0.5, gamma_R=2.0, gamma_L_p=0.25, gamma_R_p=1.0,
                    Gamma_L=1.0, Gamma_R=0.75, Gamma_L_p=0.5, Gamma_R_p=1.5)
        scaled = RateSet(**{k: kappa * getattr(r, k) for k in
                            ("gamma_L", "gamma_R", "gamma_L_p", "gamma_R_p",
                             "Gamma_L", "Gamma_R", "Gamma_L_p", "Gamma_R_p")})
        x1 = steady_state(build_single_dot_set(r))
        x2 = steady_state(build_single_dot_set(scaled))
        w1 = weights_for("single_dot_set", r)
        w2 = weights_for("single_dot_set", scaled)
        i_s1, i_s2 = current(x1, w1.system), current(x2, w2.system)
        i_d1, i_d2 = current(x1, w1.detector), current(x2, w2.detector)
        assert i_s2 == pytest.approx(kappa * i_s1, rel=1e-13)
        assert i_d2 == pytest.approx(kappa * i_d1, rel=1e-13)
        ratio1 = delta_detector_current(r, i_d1) / i_s1
        ratio2 = delta_detector_current(scaled, i_d2) / i_s2
        assert ratio2 == pytest.approx(ratio1, rel=1e-12)

    def test_occupations_invariant_under_scaling(self):
        r = RateSet(gamma_L=0.5, gamma_R=2.0, Gamma_L=1.0, Gamma_R=0.75)
        scaled = RateSet(gamma_L=2.0, gamma_R=8.0, Gamma_L=4.0, Gamma_R=3.0)
        x1 = steady_state(build_single_dot_set(r))
        x2 = steady_state(build_single_dot_set(scaled))
        assert np.allclose(x1.values, x2.values, rtol=1e-13, atol=0)


class TestTimeResolvedCurrent:
    def test_transient_current_starts_at_zero_and_reaches_dc(self):
        from mesorate import StateVector, basis_state, evolve
        g = build_single_dot_set(ALL_ONES)
        w = weights_for("single_dot_set", ALL_ONES)
        traj = evolve(g, basis_state(g.index, "a"), 30.0)
        assert current(StateVector(traj.values[0], traj.index), w.system) == 0.0
        assert current(traj.final, w.system) == pytest.approx(0.5, abs=1e-8)
