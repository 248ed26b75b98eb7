import numpy as np
import pytest
from scipy.integrate import solve_ivp

from remsim.reaction import KineticParams, reactive_step

# 2.6e-3 L/h/m^2 in SI, 23 m^2/g in SI
K_SA = 2.6e-3 * 1e-3 / 3600.0
ALPHA_S = 2.3e4
PARAMS = KineticParams(k_sa=K_SA, specific_area=ALPHA_S, stoichiometry=0.85)


class TestRateCoefficient:
    def test_hand_value_per_hour(self):
        # K * (1 kg/m^3 iron) = 0.0598 1/h
        assert PARAMS.rate_coefficient * 3600.0 == pytest.approx(0.0598, rel=1e-3)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            KineticParams(-1.0, 1.0, 0.85)


class TestReactiveStep:
    def test_matches_ode_oracle(self):
        kk, x = PARAMS.rate_coefficient, 0.85
        c0, r0 = 1.1, 3.0

        def rhs(t, y):
            c, r = y
            return [-kk * r * c, -x * kk * r * c]

        # ~10 half-lives of the aqueous phase
        t_end = 10.0 * np.log(2.0) / (kk * (r0 - x * c0))
        ref = solve_ivp(rhs, (0.0, t_end), [c0, r0], rtol=1e-12, atol=1e-14)
        c1, r1 = reactive_step(np.array(c0), np.array(r0), PARAMS, t_end)
        assert c1 == pytest.approx(ref.y[0, -1], rel=1e-3)
        assert r1 == pytest.approx(ref.y[1, -1], rel=1e-6)

    def test_single_large_step_positivity(self):
        c1, r1 = reactive_step(np.array(1.27), np.array(5.0), PARAMS, 1e9)
        assert 0.0 <= c1 < 1e-12
        assert r1 == pytest.approx(5.0 - 0.85 * 1.27, rel=1e-9)

    def test_stoichiometric_ratio_exact(self):
        c0 = np.array([1.0, 0.5, 1.27])
        r0 = np.array([2.0, 3.0, 0.4])
        c1, r1 = reactive_step(c0, r0, PARAMS, 5e4)
        np.testing.assert_allclose((r0 - r1) / (c0 - c1), 0.85, rtol=1e-10)

    def test_zero_rate_is_bitwise_noop(self):
        p0 = KineticParams(0.0, ALPHA_S, 0.85)
        c = np.random.default_rng(0).uniform(0, 1.27, (5, 5))
        r = np.random.default_rng(1).uniform(0, 3, (5, 5))
        c1, r1 = reactive_step(c, r, p0, 3600.0)
        assert c1 is c and r1 is r

    def test_zero_dt_is_bitwise_noop(self):
        c = np.array([[0.3]])
        r = np.array([[1.0]])
        c1, r1 = reactive_step(c, r, PARAMS, 0.0)
        assert c1 is c and r1 is r

    def test_no_iron_freezes_contaminant(self):
        c1, r1 = reactive_step(np.array(0.9), np.array(0.0), PARAMS, 1e6)
        assert c1 == pytest.approx(0.9, rel=1e-12)
        assert r1 == 0.0

    def test_iron_exhaustion_leaves_residual_contaminant(self):
        c0, r0 = 2.0, 0.85  # iron can only consume 1.0 of contaminant
        c1, r1 = reactive_step(np.array(c0), np.array(r0), PARAMS, 1e10)
        assert r1 == pytest.approx(0.0, abs=1e-12)
        assert c1 == pytest.approx(c0 - r0 / 0.85, rel=1e-6)

    def test_balanced_branch(self):
        # rho0 = x c0 exactly: both vanish together, c follows 1/(1 + x K c0 t)
        c0 = 1.0
        r0 = 0.85 * c0
        dt = 1e6
        c1, r1 = reactive_step(np.array(c0), np.array(r0), PARAMS, dt)
        kk = PARAMS.rate_coefficient
        assert c1 == pytest.approx(c0 / (1.0 + 0.85 * kk * c0 * dt), rel=1e-12)
        assert r1 == pytest.approx(0.85 * float(c1), rel=1e-12)

    def test_monotone_decay(self):
        c, r = np.array(1.27), np.array(3.0)
        prev_c, prev_r = float(c), float(r)
        for _ in range(20):
            c, r = reactive_step(c, r, PARAMS, 3600.0)
            assert float(c) <= prev_c and float(r) <= prev_r
            prev_c, prev_r = float(c), float(r)

