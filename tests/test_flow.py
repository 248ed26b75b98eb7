import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg.lapack import dtbtrs

from remsim import flow
from remsim.flow import (
    FactorCache,
    SolverError,
    TpfaSystem,
    _harmonic,
    lateral_heads,
    scatter_faces,
    solve_pressure,
)
from remsim.grid import build_grid

RHO, G, MU = 1000.0, 9.81, 1e-3
CM_PER_DAY = 100.0 * 86400.0


def uniform(grid, k=1e-12):
    return np.full((grid.ny, grid.nx), k), np.full((grid.ny, grid.nx), MU)


def divergence(flow, dx: float, dy: float) -> np.ndarray:
    """Net volumetric outflow per cell (m^3/s per unit thickness)."""
    return (flow.qx[:, 1:] - flow.qx[:, :-1]) * dy + (flow.qy[1:, :] - flow.qy[:-1, :]) * dx


def mass_balance_error(flow, grid, well_sources: dict) -> float:
    """Relative closure of boundary + well fluxes against internal divergence."""
    div = divergence(flow, grid.dx, grid.dy)
    src = np.zeros_like(div)
    for (i, j), rate in well_sources.items():
        src[j, i] += rate
    influx = np.abs(flow.qx[:, 0]).sum() * grid.dy + np.abs(flow.qx[:, -1]).sum() * grid.dy
    influx += sum(abs(r) for r in well_sources.values())
    if influx == 0:
        return float(np.abs(div - src).max())
    return float(np.abs(div - src).max() / influx)


class TestDarcy:
    def test_uniform_gradient_velocity(self):
        # k rho g / mu * dh/L: hand value ~3.027 cm/day
        g = build_grid((35.0, 12.0), (0.2, 0.2))
        k, mu = uniform(g)
        flow = solve_pressure(g, k, mu, 1.0, 13.25, 12.0, rho=RHO, g=G)
        expected = 1e-12 * RHO * G / MU * 1.25 / 35.0
        vx, vy = flow.cell_velocity()
        np.testing.assert_allclose(vx, expected, rtol=1e-8)
        assert expected * CM_PER_DAY == pytest.approx(3.0274, abs=1e-3)
        np.testing.assert_allclose(vy, 0.0, atol=abs(expected) * 1e-8)

    def test_equal_heads_no_flow(self):
        g = build_grid((35.0, 12.0), (0.2, 0.2))
        k, mu = uniform(g)
        flow = solve_pressure(g, k, mu, 1.0, 12.0, 12.0, rho=RHO, g=G)
        assert np.abs(flow.qx).max() < 1e-15
        assert np.abs(flow.qy).max() < 1e-15

    def test_nonpositive_inputs_rejected(self):
        g = build_grid((1.0, 1.0), (0.5, 0.5))
        k, mu = uniform(g)
        k[0, 0] = 0.0
        with pytest.raises(ValueError):
            solve_pressure(g, k, mu, 1.0, 1.0, 0.0, rho=RHO, g=G)

    def test_mass_balance(self):
        g = build_grid((10.0, 5.0), (0.25, 0.25))
        rng = np.random.default_rng(3)
        k = 1e-12 * np.exp(rng.normal(0, 0.5, (g.ny, g.nx)))
        mu = np.full_like(k, MU)
        flow = solve_pressure(g, k, mu, 1.0, 6.0, 5.0, rho=RHO, g=G)
        assert mass_balance_error(flow, g, {}) < 1e-8

    def test_well_source_divergence(self):
        g = build_grid((10.0, 5.0), (0.25, 0.25))
        k, mu = uniform(g)
        wells = {(20, 10): 1e-5}
        flow = solve_pressure(g, k, mu, 1.0, 5.0, 5.0, rho=RHO, g=G, well_sources=wells)
        div = divergence(flow, g.dx, g.dy)
        assert div[10, 20] == pytest.approx(1e-5, rel=1e-8)
        assert mass_balance_error(flow, g, wells) < 1e-8

    def test_point_source_radial_decay(self):
        # injection into a large homogeneous grid: |q| ~ Q/(2 pi r), compare
        # away from boundaries at 5% tolerance
        g = build_grid((40.0, 40.0), (0.5, 0.5))
        k, mu = uniform(g)
        q_well = 1e-5
        flow = solve_pressure(g, k, mu, 1.0, 10.0, 10.0, rho=RHO, g=G,
                              well_sources={(40, 40): q_well})
        vx, vy = flow.cell_velocity()
        xv, yv = g.cell_centers()
        x0, y0 = g.xc[40], g.yc[40]
        r = np.hypot(xv - x0, yv - y0)
        vmag = np.hypot(vx, vy)
        ring = (r > 2.0) & (r < 4.0)  # boundary images grow past r ~ L/8
        np.testing.assert_allclose(
            vmag[ring], q_well / (2 * np.pi * r[ring]), rtol=0.05
        )

    def test_monotone_in_left_head(self):
        g = build_grid((10.0, 5.0), (0.5, 0.5))
        rng = np.random.default_rng(5)
        k = 1e-12 * np.exp(rng.normal(0, 0.5, (g.ny, g.nx)))
        mu = np.full_like(k, MU)
        qa = solve_pressure(g, k, mu, 1.0, 6.0, 5.0, rho=RHO, g=G).qx
        qb = solve_pressure(g, k, mu, 1.0, 7.0, 5.0, rho=RHO, g=G).qx
        assert (qb >= qa - 1e-18).all()

    def test_mobility_scale(self):
        g = build_grid((10.0, 5.0), (0.5, 0.5))
        k, mu = uniform(g)
        base = solve_pressure(g, k, mu, 1.0, 6.0, 5.0, rho=RHO, g=G)
        half = solve_pressure(g, k, mu, np.full_like(k, 0.5), 6.0, 5.0, rho=RHO, g=G)
        np.testing.assert_allclose(half.qx, 0.5 * base.qx, rtol=1e-10)


class TestLateralHeads:
    def test_hand_values(self):
        # 3 x 2 cells of 1 m: each boundary face is 0.5 m from its cell center
        g = build_grid((3.0, 2.0), (1.0, 1.0))
        lam = np.array([[1.0, 7.0, 3.0], [2.0, 7.0, 4.0]])
        d, b = lateral_heads(g, lam, 5.0, 4.0, RHO, G)
        np.testing.assert_array_equal(d, [[2.0, 0.0, 6.0], [4.0, 0.0, 8.0]])
        # rho g (head - y) at y = 0.5 m and 1.5 m
        np.testing.assert_allclose(b[:, 0], [2.0 * RHO * G * 4.5, 4.0 * RHO * G * 3.5], rtol=1e-15)
        np.testing.assert_allclose(b[:, 2], [6.0 * RHO * G * 3.5, 8.0 * RHO * G * 2.5], rtol=1e-15)
        assert (b[:, 1] == 0.0).all()

    def test_single_column_gets_both_sides(self):
        g = build_grid((1.0, 2.0), (1.0, 1.0))
        d, b = lateral_heads(g, np.ones((2, 1)), 5.0, 4.0, RHO, G)
        np.testing.assert_array_equal(d, [[4.0], [4.0]])
        np.testing.assert_allclose(b[:, 0], [2.0 * RHO * G * 8.0, 2.0 * RHO * G * 6.0], rtol=1e-15)


def orders(errors) -> np.ndarray:
    """Observed orders of errors on grids refined by two each time."""
    errors = np.asarray(errors)
    return np.log2(errors[:-1] / errors[1:])


class TestManufacturedSolution:
    """Spatial error bar of the pressure operator (Roache 1998; Salari &
    Knupp 2000): on a 2 m x 1 m box with k = exp(0.3 sin(x + y)), the source
    -div(k grad p) of p = (1 + x^2) cos(pi y) + x, no flow through top and
    bottom (dp/dy = 0 there) and p held on the sides half a cell from the
    side cells, as lateral_heads places them, give second order."""

    @staticmethod
    def errors(ny):
        g = build_grid((2.0, 1.0), (1.0 / ny, 1.0 / ny))
        x, y = g.cell_centers()
        k = np.exp(0.3 * np.sin(x + y))
        dk = 0.3 * np.cos(x + y) * k                    # dk/dx = dk/dy
        cos, sin = np.cos(np.pi * y), np.sin(np.pi * y)
        p = (1.0 + x**2) * cos + x
        p_x, p_xx = 2.0 * x * cos + 1.0, 2.0 * cos
        p_y, p_yy = -np.pi * (1.0 + x**2) * sin, -np.pi**2 * (1.0 + x**2) * cos
        source = -(dk * p_x + k * p_xx + dk * p_y + k * p_yy)
        d, _ = lateral_heads(g, k, 0.0, 0.0, 0.0, 0.0)
        sides = np.zeros_like(p)
        sides[:, 0], sides[:, -1] = np.cos(np.pi * g.yc), 5.0 * np.cos(np.pi * g.yc) + 2.0
        t_x = _harmonic(k[:, :-1], k[:, 1:]) * g.dy / g.dx
        t_y = _harmonic(k[:-1, :], k[1:, :]) * g.dx / g.dy
        system = TpfaSystem(t_x, t_y, np.zeros_like(t_x), np.zeros_like(t_y), d,
                            source * g.cell_volume + d * sides)
        e = system.solve() - p
        return np.abs(e).max(), np.sqrt((e**2).mean())

    def test_tpfa_second_order(self):
        # 20 x 10 ... 160 x 80 cells
        e_max, e_l2 = zip(*(self.errors(ny) for ny in (10, 20, 40, 80)))
        assert orders(e_max).min() >= 1.9, orders(e_max)
        assert orders(e_l2).min() >= 1.9, orders(e_l2)


def random_system(nx, ny, seed):
    """Heterogeneous transmissibilities, face fluxes and Dirichlet/source terms."""
    rng = np.random.default_rng(seed)
    t_x = np.exp(rng.normal(0.0, 1.0, (ny, nx - 1)))
    t_y = np.exp(rng.normal(0.0, 1.0, (ny - 1, nx)))
    k_x = rng.normal(0.0, 1.0, t_x.shape)
    k_y = rng.normal(0.0, 1.0, t_y.shape)
    d = np.zeros((ny, nx))
    d[:, 0] = np.exp(rng.normal(0.0, 1.0, ny))
    b = rng.normal(0.0, 1.0, (ny, nx))
    return t_x, t_y, k_x, k_y, d, b


def sparse_oracle(t_x, t_y, k_x, k_y, d, b):
    """The same system assembled face by face and solved with SuperLU."""
    ny, nx = d.shape
    a = sp.lil_matrix((nx * ny, nx * ny))
    rhs = b.ravel().copy()
    idx = np.arange(nx * ny).reshape(ny, nx)
    for owners, neighbors, ts, ks in ((idx[:, :-1], idx[:, 1:], t_x, k_x),
                                      (idx[:-1, :], idx[1:, :], t_y, k_y)):
        for o, nb, t, k in zip(owners.ravel(), neighbors.ravel(), ts.ravel(), ks.ravel()):
            a[o, o] += t
            a[nb, nb] += t
            a[o, nb] -= t
            a[nb, o] -= t
            rhs[o] += k
            rhs[nb] -= k
    a.setdiag(a.diagonal() + d.ravel())
    return spla.spsolve(a.tocsc(), rhs).reshape(ny, nx)


def columns(shape, lo, hi):
    """Cells of the outer-index columns [lo, hi) (x if nx > ny, else y)."""
    ny, nx = shape
    outer = np.arange(nx)[None, :] if nx > ny else np.arange(ny)[:, None]
    return np.broadcast_to((outer >= lo) & (outer < hi), shape)


def perturb(terms, lo, hi, seed):
    """``terms`` with new transmissibilities and Dirichlet terms on every face
    and cell touching the outer-index columns [lo, hi) and a new right-hand
    side on their cells; the right-hand side elsewhere is kept."""
    rng = np.random.default_rng(seed)
    t_x, t_y, k_x, k_y, d, b = (term.copy() for term in terms)
    cells = columns(d.shape, lo, hi)
    d[cells] += np.exp(rng.normal(0.0, 1.0, cells.sum()))
    faces_x = cells[:, :-1] | cells[:, 1:]
    t_x[faces_x] = np.exp(rng.normal(0.0, 1.0, faces_x.sum()))
    faces_y = cells[:-1, :] | cells[1:, :]
    t_y[faces_y] = np.exp(rng.normal(0.0, 1.0, faces_y.sum()))
    return t_x, t_y, k_x, k_y, d, np.where(cells, rng.normal(0.0, 1.0, b.shape), b)


# column ranges changed against the first system of each sequence (None: no
# change) and the full factorizations the sequence takes, its first included
REUSE_SEQUENCES = {
    "interior": ([(10, 14), (9, 16), (12, 13), None], 1),
    "left_end": ([(0, 5), (0, 3), (4, 6)], 1),
    "right_end": ([(25, 30), (27, 30), (20, 22)], 1),
    "no_change": ([None, None], 3),
    "every_column": ([(0, 30), (10, 12)], 2),
    "shrinks_after_growing": ([(12, 14), (8, 20), (13, 14)], 1),
}


class TestTpfaSystem:
    @pytest.mark.parametrize("nx, ny", [(30, 8), (8, 30)])
    @pytest.mark.parametrize("case", REUSE_SEQUENCES)
    def test_reuse_matches_one_shot_solve(self, nx, ny, case):
        changes, full = REUSE_SEQUENCES[case]
        base = random_system(nx, ny, seed=5)
        cache = FactorCache()
        TpfaSystem(*base).solve(cache)
        reference = base
        for step, cols in enumerate(changes):
            terms = reference if cols is None else perturb(reference, *cols, seed=step)
            p = TpfaSystem(*terms).solve(cache)
            expected = TpfaSystem(*terms).solve()
            assert np.abs(p - expected).max() <= 1e-12 * np.abs(expected).max(), (case, step)
            if cols == (0, 30):  # a full solve: the next changes count against it
                reference = terms
        assert cache.stats()["full"] == full
        assert cache.stats()["solves"] == len(changes) + 1

    def solve_sequence(self, cache, systems):
        """Solve each system with ``cache``, check it against a one-shot
        solve and return the strip sweeps each solve took."""
        sweeps = []
        for terms in systems:
            before = cache.stats()["strip_sweeps"]
            p = TpfaSystem(*terms).solve(cache)
            expected = TpfaSystem(*terms).solve()
            assert np.abs(p - expected).max() <= 1e-12 * np.abs(expected).max()
            sweeps.append(cache.stats()["strip_sweeps"] - before)
        return sweeps

    @pytest.mark.parametrize("nx, ny", [(30, 8), (8, 30)])
    def test_one_backward_sweep_per_strip(self, nx, ny):
        base = random_system(nx, ny, seed=5)
        # spans [9, 14] (two strips), [9, 29] (left strip only) and [0, 29],
        # a full solve
        steps = [(10, 14), (25, 30), None, (0, 2)]
        systems = [base] + [base if cols is None else perturb(base, *cols, seed=i)
                            for i, cols in enumerate(steps)]
        cache = FactorCache()
        assert self.solve_sequence(cache, systems) == [0, 2, 1, 1, 0]
        assert cache.stats()["full"] == 2

    @pytest.mark.parametrize("nx, ny", [(30, 8), (8, 30)])
    def test_rhs_change_in_one_strip_joins_the_span(self, nx, ny):
        base = random_system(nx, ny, seed=5)
        changed = perturb(base, 10, 14, seed=1)
        systems = [base, changed]
        for col in (3, 25):  # only the right-hand side of one column of a strip
            b = changed[5].copy()
            b[columns(b.shape, col, col + 1)] += 1.0
            systems.append(changed[:5] + (b,))
        cache = FactorCache()
        # spans [9, 14], [3, 14] and [3, 25]: one backward sweep per strip
        assert self.solve_sequence(cache, systems) == [0, 2, 2, 2]
        assert cache.span == (3, 25)
        assert cache.stats()["full"] == 1

    @pytest.mark.parametrize("nx, ny", [(30, 8), (8, 30)])
    def test_span_widens_right_then_left(self, nx, ny):
        base = random_system(nx, ny, seed=5)
        # spans [11, 14], then [11, 18] (right strip factored, then cut), then
        # [5, 18]; the right-hand side outside each span stays the reference's
        systems = [base] + [perturb(base, *cols, seed=i)
                            for i, cols in enumerate([(12, 14), (12, 18), (6, 14), (13, 14)])]
        cache = FactorCache()
        assert self.solve_sequence(cache, systems) == [0, 2, 2, 2, 2]
        assert cache.stats()["full"] == 1

    @pytest.mark.parametrize("reuse", [False, True])
    def test_failed_triangular_sweep_raises(self, reuse, monkeypatch):
        base = random_system(30, 8, seed=5)
        cache = FactorCache()
        systems = [base, perturb(base, 10, 14, seed=1)]
        if reuse:
            TpfaSystem(*systems.pop(0)).solve(cache)

        def singular(ab, b, **kwargs):
            return dtbtrs(ab, b, **kwargs)[0], 3

        monkeypatch.setattr(flow, "dtbtrs", singular)
        with pytest.raises(SolverError, match="triangular band solve failed"):
            TpfaSystem(*systems[0]).solve(cache)
        monkeypatch.undo()
        assert self.solve_sequence(cache, systems[:1]) == [2 if reuse else 0]

    def test_not_positive_definite_on_reuse(self):
        t_x, t_y, k_x, k_y, d, b = random_system(30, 8, seed=5)
        cache = FactorCache()
        TpfaSystem(t_x, t_y, k_x, k_y, d, b).solve(cache)
        # cell (x 15, y 3) loses every face: its row of the matrix is all zero
        t_x, t_y = t_x.copy(), t_y.copy()
        t_x[3, 14:16] = 0.0
        t_y[2:4, 15] = 0.0
        with pytest.raises(SolverError, match="positive definite"):
            TpfaSystem(t_x, t_y, k_x, k_y, d, b).solve(cache)
        assert cache.stats()["full"] == 1

    @pytest.mark.parametrize("nx, ny", [(12, 5), (5, 12), (1, 20)])
    def test_matches_sparse_oracle(self, nx, ny):
        terms = random_system(nx, ny, seed=nx * 100 + ny)
        system = TpfaSystem(*terms)
        p = system.solve()
        expected = sparse_oracle(*terms)
        assert p.shape == (ny, nx)
        assert np.abs(p - expected).max() <= 1e-12 * np.abs(expected).max()
        np.testing.assert_allclose(system.apply(p), system.rhs, atol=1e-12 * np.abs(system.rhs).max())

    def test_isolated_zero_transmissibility_cell(self):
        t_x, t_y, k_x, k_y, d, b = random_system(6, 4, seed=1)
        # cell (2, 3) loses every face: its row of the matrix is all zero
        t_x[2, 2:4] = 0.0
        t_y[1:3, 3] = 0.0
        with pytest.raises(SolverError, match="positive definite"):
            TpfaSystem(t_x, t_y, k_x, k_y, d, b).solve()

    def test_residual_gate(self, monkeypatch):
        g = build_grid((10.0, 5.0), (0.5, 0.5))
        rng = np.random.default_rng(7)
        k = 1e-12 * np.exp(rng.normal(0, 0.5, (g.ny, g.nx)))
        mu = np.full_like(k, MU)
        solve_pressure(g, k, mu, 1.0, 6.0, 5.0, rho=RHO, g=G)
        monkeypatch.setattr(flow, "RTOL", 0.0)
        with pytest.raises(SolverError, match="residual"):
            solve_pressure(g, k, mu, 1.0, 6.0, 5.0, rho=RHO, g=G)
        # every pressure solve is checked, the IMPES pressure step's included
        with pytest.raises(SolverError, match="residual"):
            TpfaSystem(*random_system(12, 5, seed=1)).solve()


def scatter_loop(out, x_lo, x_hi, y_lo, y_hi, axes=((0, 1), (1, 0)), sides=(0, 1)):
    """Face by face: every x-face adds to its lower (left) cell, then every
    x-face to its upper (right) cell, then the same for the y-faces; ``axes``
    and ``sides`` reorder the passes."""
    out = out.copy()
    values = {(0, 1): (x_lo, x_hi), (1, 0): (y_lo, y_hi)}
    for dj, di in axes:
        for side in sides:
            v = values[dj, di][side]
            for j, i in np.ndindex(v.shape):
                out[j + side * dj, i + side * di] += v[j, i]
    return out


class TestScatterFaces:
    def faces(self, nx=7, ny=5):
        rng = np.random.default_rng(11)
        x = [rng.normal(0.0, 1.0, (ny, nx - 1)) for _ in range(2)]
        y = [rng.normal(0.0, 1.0, (ny - 1, nx)) for _ in range(2)]
        return rng.normal(0.0, 1.0, (ny, nx)), *x, *y

    def test_matches_per_face_loop_bitwise(self):
        out, *faces = self.faces()
        expected = scatter_loop(out, *faces)
        result = scatter_faces(out, *faces)
        assert result is out
        np.testing.assert_array_equal(result, expected)

    def test_order_matters_on_these_values(self):
        # the checks above pin the order: other orders round differently here
        out, *faces = self.faces()
        expected = scatter_loop(out, *faces)
        for order in ({"axes": ((1, 0), (0, 1))}, {"sides": (1, 0)}):
            assert not np.array_equal(scatter_loop(out, *faces, **order), expected), order


class TestHydrostatic:
    """Equal lateral heads: the Darcy solve must return the hydrostatic state."""

    def test_pressure_profile(self):
        g = build_grid((35.0, 12.0), (0.2, 0.2))
        k, mu = uniform(g)
        flow = solve_pressure(g, k, mu, 1.0, 12.0, 12.0, rho=RHO, g=G)
        # p at the lowest cell center (y = 0.1): rho g (12 - 0.1)
        np.testing.assert_allclose(flow.pressure[0], RHO * G * 11.9, rtol=1e-10)
        np.testing.assert_allclose(flow.pressure[-1], RHO * G * 0.1, rtol=1e-8)
        assert RHO * G * 12.0 == pytest.approx(1.177e5, rel=1e-3)

    def test_head_shift_linearity(self):
        g = build_grid((35.0, 12.0), (0.2, 0.2))
        k, mu = uniform(g)
        a = solve_pressure(g, k, mu, 1.0, 12.0, 12.0, rho=RHO, g=G)
        b = solve_pressure(g, k, mu, 1.0, 13.0, 13.0, rho=RHO, g=G)
        np.testing.assert_allclose(b.pressure - a.pressure, RHO * G * 1.0, rtol=1e-8)
