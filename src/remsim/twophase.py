"""Stage 1: simultaneous water/TCE flow (IMPES) with Brooks-Corey closure.

Pressure is solved implicitly for the water phase with the capillary and
gravity contributions treated explicitly, through the banded-Cholesky TPFA
operator of :mod:`remsim.flow`; saturations are then advanced with
phase-potential-upwinded fluxes.  An entry-pressure interface rule
blocks NAPL from invading a finer layer until the upstream capillary
pressure exceeds the receiving layer's entry pressure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.ndimage as ndi

from .flow import FactorCache, SolverError, TpfaSystem, _harmonic
from .grid import MaterialMap


@dataclass(frozen=True)
class FluidProps:
    rho_w: float = 1000.0
    rho_n: float = 1470.0
    mu_w: float = 0.001
    mu_n: float = 0.0005
    solubility: float = 1.27
    g: float = 9.81

    def __post_init__(self) -> None:
        if min(self.rho_w, self.rho_n, self.mu_w, self.mu_n, self.g) <= 0:
            raise ValueError("fluid properties must be positive")


# ---------------------------------------------------------------------------
# Brooks-Corey closures
# ---------------------------------------------------------------------------

def effective_saturation(sw, swr, snr, clamp: float = 0.01):
    """Se = (Sw - Swr) / (1 - Swr - Snr), clamped to [clamp, 1]."""
    se = (sw - swr) / (1.0 - swr - snr)
    return np.clip(se, clamp, 1.0)


def capillary_pressure(se, pd, lam):
    """Brooks-Corey pc = pd * Se^(-1/lambda); pd = 0 disables capillarity."""
    se = np.asarray(se, dtype=float)
    return pd * se ** (-1.0 / np.asarray(lam, dtype=float))


def rel_perm(se, lam):
    """Brooks-Corey-Burdine relative permeabilities (krw, krn) on Se in [0,1]."""
    se = np.clip(np.asarray(se, dtype=float), 0.0, 1.0)
    lam = np.asarray(lam, dtype=float)
    krw = se ** ((2.0 + 3.0 * lam) / lam)
    krn = (1.0 - se) ** 2 * (1.0 - se ** ((2.0 + lam) / lam))
    return krw, krn


# ---------------------------------------------------------------------------
# State and boundary conditions
# ---------------------------------------------------------------------------

@dataclass
class TwoPhaseState:
    sw: np.ndarray
    sn: np.ndarray
    pw: np.ndarray
    clock: float = 0.0

    def copy(self) -> "TwoPhaseState":
        return TwoPhaseState(self.sw.copy(), self.sn.copy(), self.pw.copy(), self.clock)


@dataclass(frozen=True)
class TwoPhaseBC:
    """Lateral Dirichlet water heads; NAPL never crosses lateral boundaries.

    ``top_pressure`` switches the top boundary to Dirichlet water pressure
    (used by 1D column benchmarks); the default top/bottom are no-flow.
    ``napl_source`` is a volumetric NAPL source rate per cell volume (1/s).
    """

    head_left: float | None
    head_right: float | None
    top_pressure: np.ndarray | None = None
    napl_source: np.ndarray | None = None


@dataclass(frozen=True)
class Numerics:
    se_clamp: float = 0.01
    cfl: float = 0.5
    max_ds: float = 0.1        # target max saturation change per sub-step
    sat_tol: float = 1e-9


def hydrostatic_two_phase(grid, fluids: FluidProps, head: float) -> TwoPhaseState:
    _, yv = grid.cell_centers()
    return TwoPhaseState(
        sw=np.ones((grid.ny, grid.nx)),
        sn=np.zeros((grid.ny, grid.nx)),
        pw=fluids.rho_w * fluids.g * (head - yv),
    )


# ---------------------------------------------------------------------------
# Interface entry-pressure rule
# ---------------------------------------------------------------------------

def interface_block_mask(pd_up, pd_recv, pc_up, lith_up, lith_recv):
    """True where NAPL flux must be zeroed: different lithology, receiving
    cell finer (higher entry pressure) and upstream pc not yet above it."""
    return (lith_up != lith_recv) & (pd_recv > pd_up) & (pc_up <= pd_recv)


# ---------------------------------------------------------------------------
# IMPES stepping
# ---------------------------------------------------------------------------

class ImpesStepper:
    """Face permeabilities and audit state for repeated IMPES sub-steps on one
    grid.  Steppers given the same ``cache`` share pressure factors: the
    matrix does not depend on the NAPL source, only the right-hand side."""

    def __init__(
        self,
        grid,
        material: MaterialMap,
        fluids: FluidProps,
        bc: TwoPhaseBC,
        numerics: Numerics = Numerics(),
        cache: FactorCache | None = None,
    ):
        self.grid = grid
        self.material = material
        self.fluids = fluids
        self.bc = bc
        self.numerics = numerics
        self.cache = FactorCache() if cache is None else cache
        k = material.k
        self.kfx = _harmonic(k[:, :-1], k[:, 1:]) * grid.dy / grid.dx
        self.kfy = _harmonic(k[:-1, :], k[1:, :]) * grid.dx / grid.dy
        self.pore_vol = material.porosity * grid.cell_volume
        # running audit
        self.injected_mass = 0.0

    # -- closures ---------------------------------------------------------
    def closures(self, state: TwoPhaseState):
        m, num = self.material, self.numerics
        se_pc = effective_saturation(state.sw, m.swr, m.snr, num.se_clamp)
        se_kr = np.clip((state.sw - m.swr) / (1.0 - m.swr - m.snr), 0.0, 1.0)
        pc = capillary_pressure(se_pc, m.entry_pressure, m.bc_lambda)
        krw, krn = rel_perm(se_kr, m.bc_lambda)
        return pc, krw, krn

    def _face_quantities(self, state: TwoPhaseState, pc, krw, krn):
        """Upwinded face mobilities and known (capillary+gravity) potentials."""
        g, f, m = self.grid, self.fluids, self.material
        pn = state.pw + pc

        # x-faces ------------------------------------------------------
        dphi_w_x = state.pw[:, 1:] - state.pw[:, :-1]
        dphi_n_x = pn[:, 1:] - pn[:, :-1]
        up_w_x = dphi_w_x < 0  # True: owner (left cell) is upwind
        up_n_x = dphi_n_x < 0
        krw_fx = np.where(up_w_x, krw[:, :-1], krw[:, 1:])
        krn_fx = np.where(up_n_x, krn[:, :-1], krn[:, 1:])
        # entry-pressure rule, applied in the NAPL flow direction
        pd, lith = m.entry_pressure, m.lithology
        blocked_x = np.where(
            up_n_x,
            interface_block_mask(pd[:, :-1], pd[:, 1:], pc[:, :-1], lith[:, :-1], lith[:, 1:]),
            interface_block_mask(pd[:, 1:], pd[:, :-1], pc[:, 1:], lith[:, 1:], lith[:, :-1]),
        )
        krn_fx = np.where(blocked_x, 0.0, krn_fx)
        lw_x = self.kfx * krw_fx / f.mu_w
        ln_x = self.kfx * krn_fx / f.mu_n
        grav_w_x = np.zeros_like(lw_x)
        grav_n_x = pc[:, 1:] - pc[:, :-1]

        # y-faces ------------------------------------------------------
        dz = g.dy
        dphi_w_y = state.pw[1:, :] - state.pw[:-1, :] + f.rho_w * f.g * dz
        dphi_n_y = pn[1:, :] - pn[:-1, :] + f.rho_n * f.g * dz
        up_w_y = dphi_w_y < 0
        up_n_y = dphi_n_y < 0
        krw_fy = np.where(up_w_y, krw[:-1, :], krw[1:, :])
        krn_fy = np.where(up_n_y, krn[:-1, :], krn[1:, :])
        blocked_y = np.where(
            up_n_y,
            interface_block_mask(pd[:-1, :], pd[1:, :], pc[:-1, :], lith[:-1, :], lith[1:, :]),
            interface_block_mask(pd[1:, :], pd[:-1, :], pc[1:, :], lith[1:, :], lith[:-1, :]),
        )
        krn_fy = np.where(blocked_y, 0.0, krn_fy)
        lw_y = self.kfy * krw_fy / f.mu_w
        ln_y = self.kfy * krn_fy / f.mu_n
        grav_w_y = np.full_like(lw_y, f.rho_w * f.g * dz)
        grav_n_y = pc[1:, :] - pc[:-1, :] + f.rho_n * f.g * dz

        return (lw_x, ln_x, grav_w_x, grav_n_x), (lw_y, ln_y, grav_w_y, grav_n_y)

    def _solve_pressure(self, state, pc, krw, fx, fy):
        """Implicit total-velocity pressure solve; returns new pw."""
        g, f = self.grid, self.fluids
        lw_x, ln_x, gw_x, gn_x = fx
        lw_y, ln_y, gw_y, gn_y = fy

        d = np.zeros((g.ny, g.nx))
        b = np.zeros((g.ny, g.nx))
        any_dirichlet = False
        yc = g.yc
        for col, head in ((0, self.bc.head_left), (-1, self.bc.head_right)):
            if head is None:
                continue
            any_dirichlet = True
            lam_b = self.material.k[:, col] * krw[:, col] / f.mu_w * g.dy / (g.dx / 2.0)
            d[:, col] += lam_b
            b[:, col] += lam_b * (f.rho_w * f.g * (head - yc))
        if self.bc.top_pressure is not None:
            any_dirichlet = True
            lam_b = self.material.k[-1, :] * krw[-1, :] / f.mu_w * g.dx / (g.dy / 2.0)
            d[-1, :] += lam_b
            b[-1, :] += lam_b * self.bc.top_pressure
        if not any_dirichlet:
            raise SolverError("two-phase pressure system needs a Dirichlet boundary")

        if self.bc.napl_source is not None:
            b += self.bc.napl_source * g.cell_volume

        # face outflow o->nb: F = -t (p_nb - p_o) - known
        system = TpfaSystem(
            lw_x + ln_x, lw_y + ln_y,
            lw_x * gw_x + ln_x * gn_x, lw_y * gw_y + ln_y * gn_y,
            d, b,
        )
        p = system.solve(self.cache)
        if not np.isfinite(p).all():
            raise SolverError("two-phase pressure solve produced non-finite values")
        return p

    def _napl_fluxes(self, pw, fx, fy):
        """Per-face NAPL volumetric fluxes (m^3/s), positive owner->neighbor."""
        _, ln_x, _, gn_x = fx
        _, ln_y, _, gn_y = fy
        fn_x = -ln_x * ((pw[:, 1:] - pw[:, :-1]) + gn_x)
        fn_y = -ln_y * ((pw[1:, :] - pw[:-1, :]) + gn_y)
        return fn_x, fn_y

    def _stable_dt(self, state, pc, fn_x, fn_y, fx, fy):
        num = self.numerics
        m = self.material
        pv = self.pore_vol
        out = np.zeros_like(state.sn)
        out[:, :-1] += np.maximum(fn_x, 0.0)
        out[:, 1:] += np.maximum(-fn_x, 0.0)
        out[:-1, :] += np.maximum(fn_y, 0.0)
        out[1:, :] += np.maximum(-fn_y, 0.0)
        inflow = np.zeros_like(out)
        inflow[:, 1:] += np.maximum(fn_x, 0.0)
        inflow[:, :-1] += np.maximum(-fn_x, 0.0)
        inflow[1:, :] += np.maximum(fn_y, 0.0)
        inflow[:-1, :] += np.maximum(-fn_y, 0.0)
        if self.bc.napl_source is not None:
            inflow += self.bc.napl_source * self.grid.cell_volume

        with np.errstate(divide="ignore"):
            dt_adv = np.where(out > 0, num.max_ds * pv / out, np.inf).min()
            avail = np.maximum(1.0 - m.swr - state.sn, 0.02)
            dt_in = np.where(inflow > 0, num.cfl * avail * pv / inflow, np.inf).min()

        # explicit capillary-diffusion bound (Coats-type): the saturation
        # update feels the mixed fractional-flow mobility lw*ln/(lw+ln),
        # not ln alone -- inside pools the near-immobile water limits it
        lw_x, ln_x, _, _ = fx
        lw_y, ln_y, _, _ = fy
        se = effective_saturation(state.sw, m.swr, m.snr, num.se_clamp)
        dpc = (
            m.entry_pressure
            / m.bc_lambda
            * se ** (-1.0 / m.bc_lambda - 1.0)
            / (1.0 - m.swr - m.snr)
        )
        with np.errstate(invalid="ignore"):
            mix_x = np.where(lw_x + ln_x > 0, lw_x * ln_x / (lw_x + ln_x), 0.0)
            mix_y = np.where(lw_y + ln_y > 0, lw_y * ln_y / (lw_y + ln_y), 0.0)
        g_x = mix_x * np.maximum(dpc[:, :-1], dpc[:, 1:])
        g_y = mix_y * np.maximum(dpc[:-1, :], dpc[1:, :])
        cond = np.zeros_like(out)
        cond[:, :-1] += g_x
        cond[:, 1:] += g_x
        cond[:-1, :] += g_y
        cond[1:, :] += g_y
        with np.errstate(divide="ignore"):
            dt_cap = np.where(cond > 0, num.cfl * pv / cond, np.inf).min()

        return float(min(dt_adv, dt_in, dt_cap))

    def substep(self, state: TwoPhaseState, dt_target: float) -> float:
        """One IMPES sub-step of at most ``dt_target``; returns dt taken."""
        pc, krw, krn = self.closures(state)
        fx, fy = self._face_quantities(state, pc, krw, krn)
        pw = self._solve_pressure(state, pc, krw, fx, fy)
        fn_x, fn_y = self._napl_fluxes(pw, fx, fy)
        dt = min(dt_target, self._stable_dt(state, pc, fn_x, fn_y, fx, fy))

        # limit each cell's outgoing NAPL flux to its content (conservative:
        # both sides of a face see the same scaled flux)
        out = np.zeros_like(state.sn)
        out[:, :-1] += np.maximum(fn_x, 0.0)
        out[:, 1:] += np.maximum(-fn_x, 0.0)
        out[:-1, :] += np.maximum(fn_y, 0.0)
        out[1:, :] += np.maximum(-fn_y, 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            scale = np.where(out * dt > 0, np.minimum(1.0, state.sn * self.pore_vol / (out * dt)), 1.0)
        fn_x = fn_x * np.where(fn_x > 0, scale[:, :-1], scale[:, 1:])
        fn_y = fn_y * np.where(fn_y > 0, scale[:-1, :], scale[1:, :])

        div = np.zeros_like(state.sn)
        div[:, :-1] += fn_x
        div[:, 1:] -= fn_x
        div[:-1, :] += fn_y
        div[1:, :] -= fn_y
        dsn = -div * dt / self.pore_vol
        if self.bc.napl_source is not None:
            dsn += self.bc.napl_source * dt * self.grid.cell_volume / self.pore_vol
            self.injected_mass += float(
                np.sum(self.bc.napl_source) * self.grid.cell_volume * dt * self.fluids.rho_n
            )
        state.sn = state.sn + dsn
        tol = self.numerics.sat_tol
        if state.sn.min() < -10 * tol or state.sn.max() > 1.0 + 10 * tol:
            raise SolverError(
                f"saturation out of bounds: [{state.sn.min():.3e}, {state.sn.max():.3e}]"
            )
        # snap rounding-scale excursions back onto the physical bounds
        np.clip(state.sn, 0.0, 1.0, out=state.sn)
        state.sw = 1.0 - state.sn
        state.pw = pw
        state.clock += dt
        return dt

    def napl_mass(self, state: TwoPhaseState) -> float:
        return float(np.sum(self.pore_vol * state.sn) * self.fluids.rho_n)


def impes_step(
    state: TwoPhaseState,
    material: MaterialMap,
    fluids: FluidProps,
    bc: TwoPhaseBC,
    dt: float,
    numerics: Numerics = Numerics(),
    stepper: ImpesStepper | None = None,
) -> TwoPhaseState:
    """Advance ``state`` by ``dt``, sub-stepping as the CFL bound requires."""
    if stepper is None:
        stepper = ImpesStepper(material.grid, material, fluids, bc, numerics)
    out = state.copy()
    t_end = state.clock + dt
    while out.clock < t_end - 1e-9:
        stepper.substep(out, t_end - out.clock)
    return out


# ---------------------------------------------------------------------------
# Source-zone statistics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SourceZoneStats:
    total_mass: float
    upper_fraction: float
    lower_fraction: float
    pool_fraction: float
    ganglia_fraction: float
    pool_max_sn: tuple[float, ...]


def source_zone_stats(
    sn: np.ndarray,
    material: MaterialMap,
    grid,
    rho_n: float = 1470.0,
    pool_threshold: float = 0.3,
) -> SourceZoneStats:
    mass = material.porosity * sn * grid.cell_volume * rho_n
    total = float(mass.sum())
    if total == 0.0:
        return SourceZoneStats(0.0, 0.0, 0.0, 0.0, 0.0, ())
    upper = material.layer_mask(upper=True)
    pool = sn >= pool_threshold
    labels, n_pools = ndi.label(pool)
    pool_max = tuple(
        float(sn[labels == lab].max()) for lab in range(1, n_pools + 1)
    )
    return SourceZoneStats(
        total_mass=total,
        upper_fraction=float(mass[upper].sum() / total),
        lower_fraction=float(mass[~upper].sum() / total),
        pool_fraction=float(mass[pool].sum() / total),
        ganglia_fraction=float(mass[~pool].sum() / total),
        pool_max_sn=pool_max,
    )
