import numpy as np
import pytest

from mesorate import bare_current, dephased_current, single_dot_current
from mesorate.analytic import amplification_ratio, eta


def random_sets(n, seed):
    """n random (Gamma_L, Gamma_R, Omega, epsilon, gamma_L), the argument
    order of dephased_current; the first four are bare_current's."""
    rng = np.random.default_rng(seed)
    for _ in range(n):
        w = 10.0 ** rng.uniform(-2, 2, size=3)
        yield (float(w[1]), float(w[2]), float(10.0 ** rng.uniform(-2, 2)),
               float(rng.uniform(-10, 10)), float(w[0]))


class TestSingleDotCurrent:
    def test_symmetric(self):
        assert single_dot_current(1.0, 1.0) == 0.5

    def test_asymmetric(self):
        assert single_dot_current(0.1, 10.0) == pytest.approx(0.0990099009900990, rel=1e-14)

    def test_blocked_emitter(self):
        assert single_dot_current(0.0, 5.0) == 0.0

    def test_both_zero_rejected(self):
        with pytest.raises(ValueError, match="undefined"):
            single_dot_current(0.0, 0.0)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            single_dot_current(-1.0, 1.0)


class TestBareCurrent:
    def test_symmetric_point(self):
        assert bare_current(1.0, 1.0, 1.0, 0.0) == pytest.approx(0.3076923076923077, rel=1e-15)

    def test_zero_hopping(self):
        assert bare_current(1.0, 1.0, 0.0, 0.0) == 0.0

    def test_detuning_suppresses_monotonically(self):
        values = [bare_current(1.0, 1.0, 1.0, e) for e in (0.0, 1.0, 5.0, 25.0, 125.0)]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert values[-1] < 1e-3

    def test_pole_rejected(self):
        with pytest.raises(ValueError, match="Gamma_L"):
            bare_current(0.0, 1.0, 1.0, 0.0)


class TestMeasuredCurrent:
    def test_no_detector_reduces_to_bare(self):
        for *bare_args, _ in random_sets(60, seed=41):
            assert dephased_current(*bare_args, 0.0) == pytest.approx(
                bare_current(*bare_args), rel=1e-14)

    def test_symmetric_point_with_unit_dephasing(self):
        assert dephased_current(1.0, 1.0, 1.0, 0.0, 1.0) == pytest.approx(1 / 3.5, rel=1e-15)

    def test_suppression_ratio_reaches_one_over_eta_for_small_hopping(self):
        # the 1/eta suppression needs the hopping small against the widths
        ratio = dephased_current(1.0, 1.0, 1e-3, 0.0, 10.0) / bare_current(1.0, 1.0, 1e-3, 0.0)
        assert ratio == pytest.approx(1.0 / eta(10.0, 1.0), rel=1e-4)

    def test_zero_system_collector_rejected(self):
        with pytest.raises(ValueError, match="Gamma_R"):
            dephased_current(1.0, 0.0, 1.0, 0.0, 1.0)

    def test_even_in_detuning(self):
        for g_l, g_r, omega, epsilon, gamma_l in random_sets(40, seed=43):
            plus = dephased_current(g_l, g_r, omega, epsilon, gamma_l)
            minus = dephased_current(g_l, g_r, omega, -epsilon, gamma_l)
            assert plus == minus
            assert bare_current(g_l, g_r, omega, epsilon) == bare_current(g_l, g_r, omega, -epsilon)

    def test_dephasing_only_suppresses_aligned_levels(self):
        for g_l, g_r, omega, _, gamma_l in random_sets(40, seed=47):
            measured = dephased_current(g_l, g_r, omega, 0.0, gamma_l)
            bare = bare_current(g_l, g_r, omega, 0.0)
            if gamma_l == 0.0:
                assert measured == bare
            else:
                assert measured < bare

    def test_dephasing_raises_current_far_off_resonance(self):
        # consequence of the detuning term shrinking by 1/eta
        assert dephased_current(1.0, 1.0, 1.0, 50.0, 5.0) > bare_current(1.0, 1.0, 1.0, 50.0)


class TestAmplification:
    def test_amplifier_regime(self):
        assert amplification_ratio(10.0, 0.1) == pytest.approx(100.0)

    def test_unity(self):
        assert amplification_ratio(0.3, 0.3) == 1.0

    def test_decoupled_detector(self):
        assert amplification_ratio(0.0, 1.0) == 0.0

    def test_zero_collector_rejected(self):
        with pytest.raises(ValueError):
            amplification_ratio(1.0, 0.0)


class TestEta:
    def test_stretch(self):
        assert eta(1.0, 1.0) == 2.0

    def test_no_detector_is_one(self):
        assert eta(0.0, 3.0) == 1.0

    def test_zero_collector_rejected(self):
        with pytest.raises(ValueError, match="Gamma_R"):
            eta(1.0, 0.0)
