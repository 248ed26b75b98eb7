import numpy as np
import pytest
from scipy.special import erfc

from remsim.flow import FlowField
from remsim.grid import build_grid
from remsim.solute import (
    DissolutionParams,
    TransportKernel,
    TransportParams,
    dissolution_substep,
    probe,
)


def uniform_flow(grid, qx=0.0, qy=0.0):
    return FlowField(
        pressure=np.zeros((grid.ny, grid.nx)),
        qx=np.full((grid.ny, grid.nx + 1), qx),
        qy=np.full((grid.ny + 1, grid.nx), qy),
    )


def ogata_banks(x, t, v, d, c0=1.0):
    """Continuous-injection 1D advection-dispersion solution."""
    a = erfc((x - v * t) / (2.0 * np.sqrt(d * t)))
    b = np.exp(np.clip(v * x / d, -700, 700)) * erfc((x + v * t) / (2.0 * np.sqrt(d * t)))
    return 0.5 * c0 * (a + b)


class TestKernel:
    def test_ogata_banks_front(self):
        # 200-cell column, physical dispersion dominating the upwind error
        g = build_grid((20.0, 0.1), (0.1, 0.1))
        q, alpha, c0 = 1e-4, 0.5, 1.0
        theta = np.ones((g.ny, g.nx))
        flow = uniform_flow(g, qx=q)
        kernel = TransportKernel(g, theta, flow, TransportParams(0.0, alpha), cfl=0.5)
        c = np.zeros((g.ny, g.nx))
        t_end, t = 5.0e4, 0.0
        while t < t_end:
            dt = min(kernel.stable_dt, t_end - t)
            c[0, 0] = c0  # Dirichlet inlet at the first cell center
            c, _ = kernel.step(c, dt)
            t += dt
        c[0, 0] = c0
        x = g.xc - g.xc[0]
        exact = ogata_banks(x, t_end, q, alpha * q, c0)
        err = np.linalg.norm(c[0] - exact) / np.linalg.norm(exact)
        assert err <= 0.02

    def test_pure_diffusion_conserves_mass(self):
        g = build_grid((10.0, 10.0), (0.5, 0.5))
        theta = np.full((g.ny, g.nx), 0.3)
        flow = uniform_flow(g)
        kernel = TransportKernel(g, theta, flow, TransportParams(1e-7, 0.0))
        c = np.zeros((g.ny, g.nx))
        c[10, 10] = 5.0
        m0 = float((kernel.pv * c).sum())
        c, _ = kernel.step(c, 1e6)
        assert float((kernel.pv * c).sum()) == pytest.approx(m0, rel=1e-12)
        assert c.max() < 5.0 and c.min() >= 0.0

    def test_diffusion_spreads_symmetrically(self):
        g = build_grid((10.0, 10.0), (0.5, 0.5))
        theta = np.ones((g.ny, g.nx))
        kernel = TransportKernel(g, theta, uniform_flow(g), TransportParams(1e-7, 0.0))
        c = np.zeros((g.ny, g.nx))
        c[10, 10] = 1.0
        c, _ = kernel.step(c, 1e6)
        np.testing.assert_allclose(c[10, 9], c[10, 11], rtol=1e-12)
        np.testing.assert_allclose(c[9, 10], c[11, 10], rtol=1e-12)

    def test_advected_pulse_exports_mass(self):
        g = build_grid((10.0, 0.5), (0.5, 0.5))
        theta = np.ones((g.ny, g.nx))
        kernel = TransportKernel(g, theta, uniform_flow(g, qx=1e-4), TransportParams(0.0, 0.0))
        c = np.zeros((g.ny, g.nx))
        c[0, 2] = 3.0
        m0 = float((kernel.pv * c).sum())
        c, exported = kernel.step(c, 5e5)  # many pore volumes: everything washes out
        assert c.max() < 1e-10
        assert exported == pytest.approx(m0, rel=1e-9)

    def test_export_is_per_step(self):
        g = build_grid((10.0, 0.5), (0.5, 0.5))
        theta = np.ones((g.ny, g.nx))
        kernel = TransportKernel(g, theta, uniform_flow(g, qx=1e-4), TransportParams(0.0, 0.0))
        c = np.zeros((g.ny, g.nx))
        c[0, -1] = 3.0
        m0 = float((kernel.pv * c).sum())
        c, first = kernel.step(c, 2e3)
        c, second = kernel.step(c, 5e5)
        assert 0.0 < first < m0
        assert first + second == pytest.approx(m0, rel=1e-9)

    def test_well_injection_adds_mass(self):
        g = build_grid((5.0, 5.0), (0.5, 0.5))
        theta = np.full((g.ny, g.nx), 0.4)
        rate, conc, dt = 2e-5, 10.0, 1e4
        kernel = TransportKernel(
            g, theta, uniform_flow(g), TransportParams(0.0, 0.0),
            well_sources={(3, 4): rate},
        )
        c, _ = kernel.step(np.zeros((g.ny, g.nx)), dt, well_conc={(3, 4): conc})
        assert float((kernel.pv * c).sum()) == pytest.approx(rate * conc * dt, rel=1e-12)
        assert c[4, 3] > 0 and np.count_nonzero(c) == 1

    def test_extraction_well_removes_at_cell_concentration(self):
        g = build_grid((5.0, 5.0), (0.5, 0.5))
        theta = np.full((g.ny, g.nx), 0.4)
        kernel = TransportKernel(
            g, theta, uniform_flow(g), TransportParams(0.0, 0.0),
            well_sources={(3, 4): -2e-5},
        )
        c0 = np.full((g.ny, g.nx), 1.0)
        c, _ = kernel.step(c0.copy(), 1e3)
        assert c[4, 3] < 1.0
        assert np.count_nonzero(c < 1.0) == 1

    def test_negative_params_rejected(self):
        with pytest.raises(ValueError):
            TransportParams(-1e-9, 0.02)
        with pytest.raises(ValueError):
            TransportParams(1e-9, -0.02)


class TestDissolution:
    def test_relaxation_matches_ode(self):
        # dc/dt = Kl (Cs - c) in a sealed cell -> exponential approach
        p = DissolutionParams(kl=1200.0 / 86400.0, cs=1.27)
        c = np.array([[0.2]])
        sn = np.array([[0.5]])
        dt = 600.0
        c1, sn1 = dissolution_substep(c, sn, 1470.0, p, dt)
        exact = p.cs - (p.cs - 0.2) * np.exp(-p.kl * dt)
        assert c1[0, 0] == pytest.approx(exact, rel=1e-12)
        assert sn1[0, 0] == pytest.approx(0.5 - (exact - 0.2) / 1470.0, rel=1e-12)

    def test_exhaustion_clipped(self):
        p = DissolutionParams(kl=1e-2, cs=1.27)
        c = np.array([[0.0]])
        sn = np.array([[1e-7]])  # only 1.47e-4 kg/m^3 of NAPL available
        c1, sn1 = dissolution_substep(c, sn, 1470.0, p, 1e6)
        assert c1[0, 0] == pytest.approx(1e-7 * 1470.0, rel=1e-12)
        assert sn1[0, 0] == 0.0

    def test_no_napl_no_flux(self):
        p = DissolutionParams(kl=1e-2)
        c1, sn1 = dissolution_substep(
            np.array([[0.4]]), np.array([[0.0]]), 1470.0, p, 1e5
        )
        assert c1[0, 0] == 0.4 and sn1[0, 0] == 0.0

    def test_saturated_water_no_transfer(self):
        p = DissolutionParams(kl=1e-2, cs=1.27)
        c1, sn1 = dissolution_substep(
            np.array([[1.27]]), np.array([[0.3]]), 1470.0, p, 1e5
        )
        assert c1[0, 0] == pytest.approx(1.27, rel=1e-14)
        assert sn1[0, 0] == pytest.approx(0.3, rel=1e-14)

    def test_negative_kl_rejected(self):
        with pytest.raises(ValueError):
            DissolutionParams(kl=-1.0)


def test_probe_reads_cell():
    c = np.arange(12.0).reshape(3, 4)
    assert probe(c, (2, 1)) == 6.0
