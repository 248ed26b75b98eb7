import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from scipy.special import erfc

import remsim
from remsim.flow import FlowField, scatter_faces
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


class ReferenceKernel:
    """Face-by-face transport, the form the stencil kernel replaced: every
    sub-step takes the upwind value and dispersive difference at each face,
    scatters the face fluxes, then adds each open side and each well."""

    def __init__(self, grid, theta, flow, params, cfl=0.9, well_sources=None):
        self.pv = theta * grid.cell_volume
        self.well_sources = dict(well_sources or {})
        dx, dy = grid.dx, grid.dy
        self.fx = flow.qx * dy
        self.fy = flow.qy * dx
        self.gx = (params.diffusion + params.dispersivity * np.abs(flow.qx[:, 1:-1])) * dy / dx
        self.gy = (params.diffusion + params.dispersivity * np.abs(flow.qy[1:-1, :])) * dx / dy
        fxi, fyi = self.fx[:, 1:-1], self.fy[1:-1, :]
        out = scatter_faces(np.zeros_like(self.pv),
                            np.maximum(fxi, 0.0) + self.gx, np.maximum(-fxi, 0.0) + self.gx,
                            np.maximum(fyi, 0.0) + self.gy, np.maximum(-fyi, 0.0) + self.gy)
        out[:, 0] += np.maximum(-self.fx[:, 0], 0.0)
        out[:, -1] += np.maximum(self.fx[:, -1], 0.0)
        out[0, :] += np.maximum(-self.fy[0, :], 0.0)
        out[-1, :] += np.maximum(self.fy[-1, :], 0.0)
        for (i, j), rate in self.well_sources.items():
            if rate < 0:
                out[j, i] += -rate
        with np.errstate(divide="ignore"):
            self.stable_dt = float(cfl * np.where(out > 0, self.pv / out, np.inf).min())

    def step(self, c, dt, well_conc=None):
        n_sub = max(1, int(np.ceil(dt / self.stable_dt))) if np.isfinite(self.stable_dt) else 1
        exported = 0.0
        for _ in range(n_sub):
            c, exported = self._substep(c, dt / n_sub, well_conc or {}, exported)
        return c, exported

    def _substep(self, c, dt, well_conc, exported):
        fxi, fyi = self.fx[:, 1:-1], self.fy[1:-1, :]
        flux_x = dt * (fxi * np.where(fxi > 0, c[:, :-1], c[:, 1:])
                       - self.gx * (c[:, 1:] - c[:, :-1]))
        flux_y = dt * (fyi * np.where(fyi > 0, c[:-1, :], c[1:, :])
                       - self.gy * (c[1:, :] - c[:-1, :]))
        m = scatter_faces(self.pv * c, -flux_x, flux_x, -flux_y, flux_y)
        for f, col in ((self.fx[:, 0], 0), (-self.fx[:, -1], -1)):
            bflux = f * c[:, col]           # positive = into the domain
            m[:, col] += dt * bflux
            exported -= dt * float(bflux.sum())
        for f, row in ((self.fy[0, :], 0), (-self.fy[-1, :], -1)):
            bflux = f * c[row, :]
            m[row, :] += dt * bflux
            exported -= dt * float(bflux.sum())
        for (i, j), rate in self.well_sources.items():
            if rate > 0:
                m[j, i] += dt * rate * well_conc.get((i, j), 0.0)
            else:
                m[j, i] += dt * rate * c[j, i]
        return m / self.pv, exported


def random_case(nx, ny, seed, decades=1.0):
    """A grid of non-square cells with random porosity and a face flow of
    random sign and magnitude (log-uniform over ``decades``), with one
    injection and one extraction well.  The lower-left corner cell takes
    inflow through its west face and loses water through its south face,
    and its small porosity makes it set the kernel's time-step bound."""
    rng = np.random.default_rng(seed)
    g = build_grid((0.5 * nx, 0.25 * ny), (0.5, 0.25))
    theta = rng.uniform(0.2, 0.4, (ny, nx))
    theta[0, 0] = 0.01

    def face_flow(shape):
        return rng.choice([-1.0, 1.0], shape) * 1e-5 * 10.0 ** rng.uniform(-decades, 0.0, shape)

    flow = FlowField(np.zeros((ny, nx)), face_flow((ny, nx + 1)), face_flow((ny + 1, nx)))
    flow.qx[0, 0], flow.qy[0, 0] = 2e-5, -2e-5
    wells = {(nx - 2, 1): 3e-6, (1, ny - 2): -3e-6}
    return g, theta, flow, wells, rng


class TestStencil:
    params = TransportParams(1e-9, 0.1)

    @pytest.mark.parametrize("nx, ny", [(9, 6), (6, 9)])
    def test_matches_face_by_face_reference(self, nx, ny):
        g, theta, flow, wells, rng = random_case(nx, ny, seed=nx)
        for q in (flow.qx[:, 1:-1], flow.qx[:, [0, -1]], flow.qy[1:-1, :], flow.qy[[0, -1], :]):
            assert (q > 0).any() and (q < 0).any()
        kernel = TransportKernel(g, theta, flow, self.params, well_sources=wells)
        ref = ReferenceKernel(g, theta, flow, self.params, well_sources=wells)
        assert kernel.stable_dt == ref.stable_dt
        c = c_ref = rng.uniform(0.0, 2.0, (ny, nx))
        conc = {(nx - 2, 1): 5.0}
        for dt in (0.5 * ref.stable_dt, 2.5 * ref.stable_dt, 7.0 * ref.stable_dt):
            c, exported = kernel.step(c, dt, conc)
            c_ref, exported_ref = ref.step(c_ref, dt, conc)
            assert np.abs(c - c_ref).max() <= 1e-12 * np.abs(c_ref).max()
            assert abs(exported - exported_ref) <= 1e-12 * abs(exported_ref)

    def test_stencil_is_monotone(self):
        cfl = 0.9
        g, theta, flow, wells, rng = random_case(30, 20, seed=5, decades=4.0)
        theta[0, 0] = theta[0, 1]  # let a cell without boundary inflow set the bound
        kernel = TransportKernel(g, theta, flow, self.params, cfl=cfl, well_sources=wells)
        for w in (kernel.west, kernel.east, kernel.south, kernel.north):
            assert w.min() >= 0.0
        # the bound is sharp: one cell sits on it, to a few ulps of rounding
        lowest = (1.0 + kernel.stable_dt * kernel.diag).min()
        assert lowest >= 1.0 - cfl - 4 * np.finfo(float).eps
        assert lowest <= 1.0 - cfl + 1e-12
        c = rng.uniform(0.0, 1.0, theta.shape) * (rng.random(theta.shape) < 0.3)
        for _ in range(20):
            c, _ = kernel.step(c, kernel.stable_dt, {(28, 1): 1.0})
            assert c.min() >= 0.0


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

    def test_export_independent_of_blas_threads(self):
        # the export of 20 random fields on the 175 x 60 grid, computed in a
        # process with one BLAS thread and in one with two, agrees bit for bit
        code = textwrap.dedent("""
            import numpy as np
            from remsim.flow import FlowField
            from remsim.grid import build_grid
            from remsim.solute import TransportKernel, TransportParams
            g = build_grid((35.0, 12.0), (0.2, 0.2))
            rng = np.random.default_rng(0)
            flow = FlowField(np.zeros((g.ny, g.nx)), rng.uniform(1e-7, 1e-6, (g.ny, g.nx + 1)),
                             np.zeros((g.ny + 1, g.nx)))
            kernel = TransportKernel(g, np.full((g.ny, g.nx), 0.3), flow,
                                     TransportParams(1e-9, 0.1))
            for _ in range(20):
                print(kernel.step(rng.uniform(0.0, 1.0, (g.ny, g.nx)), 86400.0)[1].hex())
        """)
        src = str(Path(remsim.__file__).resolve().parents[1])
        exports = [
            subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                           env={**os.environ, "PYTHONPATH": src, "OMP_NUM_THREADS": threads,
                                "OPENBLAS_NUM_THREADS": threads}).stdout.split()
            for threads in ("1", "2")
        ]
        assert len(exports[0]) == 20
        assert exports[0] == exports[1]


def whole_grid_dissolution(c, sn, rho_n, params, dt):
    """The dissolution step evaluated on every cell, NAPL or not."""
    dc = np.where(sn > 0, (params.cs - c) * (-np.expm1(-params.kl * dt)), 0.0)
    dc = np.minimum(dc, np.maximum(sn, 0.0) * rho_n)
    return c + dc, sn - dc / rho_n


class TestDissolution:
    def test_matches_whole_grid_formula_bitwise(self):
        p = DissolutionParams(kl=1e-4, cs=1.27)
        rng = np.random.default_rng(2)
        c = rng.uniform(0.0, 1.27, (6, 9))
        sn = rng.uniform(0.0, 0.3, (6, 9))
        sn[0, :4] = 0.0            # no NAPL, one cell at -0.0
        c[0, 3] = -0.0
        sn[1, :3] = -1e-12         # rounding-level negative saturation
        c[2, :3] = p.cs            # saturated water
        sn[3, 0], c[3, 0] = 1e-9, 0.0  # the NAPL cap binds
        for order in ("C", "F"):
            ci, sni = np.array(c, order=order), np.array(sn, order=order)
            c1, sn1 = dissolution_substep(ci, sni, 1470.0, p, 1e5)
            c2, sn2 = whole_grid_dissolution(ci, sni, 1470.0, p, 1e5)
            assert c1.tobytes() == c2.tobytes() and sn1.tobytes() == sn2.tobytes(), order
            assert c1[3, 0] == 1e-9 * 1470.0
            # new arrays, the inputs untouched: snapshots keep references
            assert c1 is not ci and sn1 is not sni
            np.testing.assert_array_equal(ci, c)
            np.testing.assert_array_equal(sni, sn)

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
