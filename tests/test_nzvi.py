import numpy as np
import pytest

from remsim.flow import FlowField
from remsim.grid import build_grid
from remsim.nzvi import (
    CloggingParams,
    CmcParams,
    NzviParams,
    attachment_rate,
    clogging_update,
    cmc_viscosity,
    collector_diameter,
    deposit_step,
    deposition_rate,
    radius_of_influence,
    single_collector_efficiency,
)
from remsim.solute import TransportKernel, TransportParams

KB = 1.380649e-23

PARAMS = NzviParams(
    particle_diameter=1.4e-7,
    particle_density=6100.0,
    attachment_efficiency=0.02,
)


def reference_eta0(dp, dc, u, mu, rho_p, temp=293.0, hamaker=1e-20,
                   rho_f=1000.0, g=9.81, theta=0.4):
    """Independent transcription of the correlation for cross-checking."""
    gam = (1.0 - theta) ** (1.0 / 3.0)
    as_h = 2 * (1 - gam**5) / (2 - 3 * gam + 3 * gam**5 - 2 * gam**6)
    d_inf = KB * temp / (3 * np.pi * mu * dp)
    n_r = dp / dc
    n_pe = u * dc / d_inf
    n_vdw = hamaker / (KB * temp)
    n_a = n_vdw / (n_r * n_pe)
    n_g = dp**2 * (rho_p - rho_f) * g / (18 * mu * u)
    return (
        2.4 * as_h ** (1 / 3) * n_r**-0.081 * n_pe**-0.715 * n_vdw**0.052
        + 0.55 * as_h * n_r**1.675 * n_a**0.125
        + 0.22 * n_r**-0.24 * n_g**1.11 * n_vdw**0.053
    )


class TestCollectorDiameter:
    def test_hand_value(self):
        # sqrt(180 k (1-theta)^2 / theta^3) at k=1e-12, theta=0.4
        expected = np.sqrt(180.0 * 1e-12 * 0.36 / 0.064)
        assert collector_diameter(1e-12, 0.4) == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(3.1820e-5, rel=1e-4)

    def test_scales_with_sqrt_k(self):
        a = collector_diameter(1e-12, 0.4)
        b = collector_diameter(4e-12, 0.4)
        assert b == pytest.approx(2.0 * a, rel=1e-12)


class TestCollectorEfficiency:
    def test_matches_reference(self):
        for u in (1e-6, 1e-5, 1e-4, 1e-3):
            got = single_collector_efficiency(3.182e-5, 0.4, u, 0.0027, PARAMS)
            want = reference_eta0(1.4e-7, 3.182e-5, u, 0.0027, 6100.0)
            assert got == pytest.approx(min(want, 1.0), rel=1e-12)

    def test_decreases_with_velocity_in_diffusive_regime(self):
        us = np.logspace(-5, -3, 20)  # below ~1e-6 m/s eta clips at 1
        etas = [
            float(single_collector_efficiency(3.182e-5, 0.4, u, 0.001, PARAMS))
            for u in us
        ]
        assert all(a > b for a, b in zip(etas, etas[1:]))

    def test_clamped_to_unity_when_stagnant(self):
        eta = single_collector_efficiency(3.182e-5, 0.4, 0.0, 0.001, PARAMS)
        assert eta == 1.0

    def test_positive_everywhere(self):
        eta = single_collector_efficiency(
            np.full(4, 3.182e-5), np.full(4, 0.4),
            np.array([0.0, 1e-8, 1e-5, 1e-2]), 0.0027, PARAMS,
        )
        assert (eta > 0).all() and (eta <= 1.0).all()


class TestAttachment:
    def test_deposition_rate_hand_value(self):
        # 1.5 (1-theta) v alpha eta0 / dc
        got = deposition_rate(0.4, 1e-4, 0.1, 0.2, 3.182e-5)
        assert got == pytest.approx(1.5 * 0.6 * 1e-4 * 0.1 * 0.2 / 3.182e-5, rel=1e-12)

    def test_attachment_uses_pore_velocity(self):
        u, theta = 1e-4, 0.4
        eta = single_collector_efficiency(3.182e-5, theta, u, 0.0027, PARAMS)
        expected = 1.5 * (1 - theta) * (u / theta) * 0.02 * eta / 3.182e-5
        got = attachment_rate(3.182e-5, theta, u, 0.0027, PARAMS)
        assert got == pytest.approx(float(expected), rel=1e-12)

    def test_column_breakthrough_profile(self):
        # steady uniform column: c(x) = c0 exp(-katt x / v_pore), within 1%
        g = build_grid((5.0, 0.05), (0.05, 0.05))
        theta = np.ones((g.ny, g.nx))
        q = 1e-4
        flow = FlowField(
            pressure=np.zeros((g.ny, g.nx)),
            qx=np.full((g.ny, g.nx + 1), q),
            qy=np.zeros((g.ny + 1, g.nx)),
        )
        kernel = TransportKernel(g, theta, flow, TransportParams(0.0, 0.0), cfl=0.5)
        katt = 2e-5
        c = np.zeros((g.ny, g.nx))
        s = np.zeros_like(c)
        t, t_end = 0.0, 4e5
        while t < t_end:
            dt = min(kernel.stable_dt, t_end - t)
            c[0, 0] = 1.0
            c, _ = kernel.step(c, dt)
            c, s = deposit_step(c, s, katt, theta, dt)
            t += dt
        c[0, 0] = 1.0
        x = g.xc - g.xc[0]
        exact = np.exp(-katt * x / q)
        np.testing.assert_allclose(c[0], exact, rtol=0.01)

    def test_deposit_step_conserves_mass(self):
        c = np.array([[0.2, 0.05]])
        s = np.array([[0.0, 1.0]])
        theta = np.array([[0.4, 0.3]])
        c1, s1 = deposit_step(c, s, 1e-4, theta, 5e3)
        np.testing.assert_allclose(theta * c + s, theta * c1 + s1, rtol=1e-14)
        assert (c1 < c).all() and (s1 > s).all()

    def test_deposit_step_exact_exponential(self):
        c1, s1 = deposit_step(np.array(1.0), np.array(0.0), 2e-4, np.array(0.4), 1e4)
        assert c1 == pytest.approx(np.exp(-2.0), rel=1e-12)


class TestClogging:
    CLOG = CloggingParams(a0=4.99e3, ap=2.34e8, gamma=1.04e-3)

    def test_identity_at_zero_deposit(self):
        theta_m, k, a = clogging_update(
            np.array(0.0), 1e-12, 0.4, 4.99e3, self.CLOG, 6100.0
        )
        assert theta_m == 0.4 and k == 1e-12 and a == 4.99e3

    def test_hand_value(self):
        s = 3.14  # kg per m^3 bulk
        theta_m, k, a = clogging_update(np.array(s), 1e-12, 0.4, 4.99e3, self.CLOG, 6100.0)
        vol = s / 6100.0
        assert theta_m == pytest.approx(0.4 - vol, rel=1e-12)
        a_want = 4.99e3 + 2.34e8 * 1.04e-3 * vol
        assert a == pytest.approx(a_want, rel=1e-12)
        assert k == pytest.approx(
            1e-12 * ((0.4 - vol) / 0.4) ** 3 * (4.99e3 / a_want) ** 2, rel=1e-12
        )

    def test_monotone_decline(self):
        s = np.linspace(0.0, 50.0, 20)
        theta_m, k, _ = clogging_update(s, 1e-12, 0.4, 4.99e3, self.CLOG, 6100.0)
        assert (np.diff(k) < 0).all() and (np.diff(theta_m) < 0).all()

    def test_pore_space_exhaustion_raises(self):
        with pytest.raises(ValueError):
            clogging_update(np.array(3000.0), 1e-12, 0.4, 4.99e3, self.CLOG, 6100.0)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            CloggingParams(a0=0.0, ap=1.0, gamma=0.5)
        with pytest.raises(ValueError):
            CloggingParams(a0=1.0, ap=1.0, gamma=0.0)


class TestCmcViscosity:
    CMC = CmcParams(injected_concentration=3.0, injected_viscosity=0.0027)

    def test_endpoints(self):
        assert cmc_viscosity(0.0, self.CMC) == pytest.approx(1e-3, rel=1e-12)
        assert cmc_viscosity(3.0, self.CMC) == pytest.approx(2.7e-3, rel=1e-12)

    def test_log_linear_midpoint(self):
        assert cmc_viscosity(1.5, self.CMC) == pytest.approx(
            np.sqrt(1e-3 * 2.7e-3), rel=1e-12
        )

    def test_clipped_above_injected(self):
        assert cmc_viscosity(9.0, self.CMC) == pytest.approx(2.7e-3, rel=1e-12)


class TestRoi:
    def test_distance_to_farthest_cell(self):
        g = build_grid((10.0, 10.0), (0.5, 0.5))
        s = np.zeros((g.ny, g.nx))
        s[10, 10] = 1.0   # cell center (5.25, 5.25)
        s[10, 16] = 1.0   # cell center (8.25, 5.25)
        roi = radius_of_influence(s, g, screen=(5.25, 5.25), threshold_bulk=0.01)
        assert roi == pytest.approx(3.0, rel=1e-12)

    def test_zero_when_below_threshold(self):
        g = build_grid((2.0, 2.0), (0.5, 0.5))
        assert radius_of_influence(np.zeros((4, 4)), g, (1.0, 1.0), 0.01) == 0.0

    def test_layer_mask_restricts(self):
        g = build_grid((10.0, 10.0), (0.5, 0.5))
        s = np.zeros((g.ny, g.nx))
        s[2, 10] = 1.0
        s[18, 10] = 1.0
        upper = np.zeros_like(s, dtype=bool)
        upper[10:, :] = True
        roi = radius_of_influence(s, g, (5.25, 5.25), 0.01, layer_mask=upper)
        assert roi == pytest.approx(np.hypot(0.0, 9.25 - 5.25), rel=1e-12)


def test_nzvi_params_validation():
    with pytest.raises(ValueError):
        NzviParams(particle_diameter=0.0, particle_density=6100.0, attachment_efficiency=0.02)
    with pytest.raises(ValueError):
        NzviParams(particle_diameter=1e-7, particle_density=6100.0, attachment_efficiency=1.5)
