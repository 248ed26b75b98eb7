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

from .flow import (FACES, FactorCache, SolverError, TpfaSystem, _harmonic, lateral_heads,
                   scatter_faces)
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


@dataclass(frozen=True)
class TwoPhaseBC:
    """Lateral Dirichlet water heads (m) of :func:`remsim.flow.lateral_heads`;
    top and bottom are no-flow and NAPL never crosses a boundary.
    ``napl_source`` is a volumetric NAPL source rate per cell volume (1/s).
    """

    head_left: float
    head_right: float
    napl_source: np.ndarray | None = None


@dataclass(frozen=True)
class Numerics:
    se_clamp: float = 0.01
    cfl: float = 0.5


# target largest NAPL saturation change per sub-step (the advection bound)
MAX_DS = 0.1
# a sub-step snaps saturation excursions past [0, 1] up to 10 * SAT_TOL back
SAT_TOL = 1e-9


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

# the bounds on a sub-step's length, in the order that breaks ties
LIMITS = ("advection", "inflow", "capillary", "chunk_end")


class ImpesStepper:
    """Face permeabilities and audit state for repeated IMPES sub-steps on one
    grid.  Steppers given the same ``cache`` share pressure factors: the
    matrix does not depend on the NAPL source, only the right-hand side.
    ``limits`` counts the sub-steps each bound of :data:`LIMITS` has set."""

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
        self.limits = dict.fromkeys(LIMITS, 0)

    # -- closures ---------------------------------------------------------
    def closures(self, state: TwoPhaseState):
        m, num = self.material, self.numerics
        se_pc = effective_saturation(state.sw, m.swr, m.snr, num.se_clamp)
        se_kr = np.clip((state.sw - m.swr) / (1.0 - m.swr - m.snr), 0.0, 1.0)
        pc = capillary_pressure(se_pc, m.entry_pressure, m.bc_lambda)
        krw, krn = rel_perm(se_kr, m.bc_lambda)
        return pc, krw, krn

    def _face_quantities(self, state: TwoPhaseState, pc, krw, krn):
        """Upwinded face mobilities and known (capillary+gravity) potentials
        ``(lw, ln, grav_w, grav_n)`` of the x-faces and of the y-faces."""
        f, m = self.fluids, self.material
        pn = state.pw + pc
        pd, lith = m.entry_pressure, m.lithology
        faces = []
        for (lo, hi), kf, dz in zip(FACES, (self.kfx, self.kfy), (0.0, self.grid.dy)):
            up_w = state.pw[hi] - state.pw[lo] + f.rho_w * f.g * dz < 0  # True: lower cell upwind
            up_n = pn[hi] - pn[lo] + f.rho_n * f.g * dz < 0
            # entry-pressure rule, applied in the NAPL flow direction
            blocked = np.where(
                up_n,
                interface_block_mask(pd[lo], pd[hi], pc[lo], lith[lo], lith[hi]),
                interface_block_mask(pd[hi], pd[lo], pc[hi], lith[hi], lith[lo]),
            )
            krn_f = np.where(blocked, 0.0, np.where(up_n, krn[lo], krn[hi]))
            lw = kf * np.where(up_w, krw[lo], krw[hi]) / f.mu_w
            faces.append((lw, kf * krn_f / f.mu_n, np.full_like(lw, f.rho_w * f.g * dz),
                          pc[hi] - pc[lo] + f.rho_n * f.g * dz))
        return faces

    def _solve_pressure(self, krw, fx, fy):
        """Implicit total-velocity pressure solve; returns new pw."""
        g, f = self.grid, self.fluids
        lw_x, ln_x, gw_x, gn_x = fx
        lw_y, ln_y, gw_y, gn_y = fy
        d, b = lateral_heads(g, self.material.k * krw / f.mu_w, self.bc.head_left,
                             self.bc.head_right, f.rho_w, f.g)
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
        return [-ln * ((pw[hi] - pw[lo]) + gn) for (lo, hi), (_, ln, _, gn) in zip(FACES, (fx, fy))]

    def _stable_dt(self, state, out, fn_x, fn_y, fx, fy, dt_target):
        """Sub-step length from the NAPL outflow ``out`` of each cell, and the
        bound of :data:`LIMITS` that sets it (the first of equal bounds)."""
        num = self.numerics
        m = self.material
        pv = self.pore_vol
        inflow = scatter_faces(np.zeros_like(out), np.maximum(-fn_x, 0.0), np.maximum(fn_x, 0.0),
                               np.maximum(-fn_y, 0.0), np.maximum(fn_y, 0.0))
        if self.bc.napl_source is not None:
            inflow += self.bc.napl_source * self.grid.cell_volume

        with np.errstate(divide="ignore"):
            dt_adv = np.where(out > 0, MAX_DS * pv / out, np.inf).min()
            avail = np.maximum(1.0 - m.swr - state.sn, 0.02)
            dt_in = np.where(inflow > 0, num.cfl * avail * pv / inflow, np.inf).min()

        # explicit capillary-diffusion bound (Coats-type): the saturation
        # update feels the mixed fractional-flow mobility lw*ln/(lw+ln),
        # not ln alone -- inside pools the near-immobile water limits it
        se = effective_saturation(state.sw, m.swr, m.snr, num.se_clamp)
        dpc = (
            m.entry_pressure
            / m.bc_lambda
            * se ** (-1.0 / m.bc_lambda - 1.0)
            / (1.0 - m.swr - m.snr)
        )
        with np.errstate(invalid="ignore"):
            g_x, g_y = (np.where(lw + ln > 0, lw * ln / (lw + ln), 0.0)
                        * np.maximum(dpc[lo], dpc[hi])
                        for (lo, hi), (lw, ln, _, _) in zip(FACES, (fx, fy)))
        cond = scatter_faces(np.zeros_like(out), g_x, g_x, g_y, g_y)
        with np.errstate(divide="ignore"):
            dt_cap = np.where(cond > 0, num.cfl * pv / cond, np.inf).min()

        bounds = dict(zip(LIMITS, (dt_adv, dt_in, dt_cap, dt_target)))
        limit = min(bounds, key=bounds.get)
        return float(bounds[limit]), limit

    def substep(self, state: TwoPhaseState, dt_target: float) -> float:
        """One IMPES sub-step of at most ``dt_target``; returns dt taken."""
        pc, krw, krn = self.closures(state)
        fx, fy = self._face_quantities(state, pc, krw, krn)
        pw = self._solve_pressure(krw, fx, fy)
        fn_x, fn_y = self._napl_fluxes(pw, fx, fy)
        out = scatter_faces(np.zeros_like(state.sn), np.maximum(fn_x, 0.0), np.maximum(-fn_x, 0.0),
                            np.maximum(fn_y, 0.0), np.maximum(-fn_y, 0.0))
        dt, limit = self._stable_dt(state, out, fn_x, fn_y, fx, fy, dt_target)
        self.limits[limit] += 1

        # limit each cell's outgoing NAPL flux to its content (conservative:
        # both sides of a face see the same scaled flux)
        with np.errstate(divide="ignore", invalid="ignore"):
            scale = np.where(out * dt > 0, np.minimum(1.0, state.sn * self.pore_vol / (out * dt)), 1.0)
        fn_x, fn_y = (fn * np.where(fn > 0, scale[lo], scale[hi])
                      for (lo, hi), fn in zip(FACES, (fn_x, fn_y)))

        div = scatter_faces(np.zeros_like(state.sn), fn_x, -fn_x, fn_y, -fn_y)
        dsn = -div * dt / self.pore_vol
        if self.bc.napl_source is not None:
            dsn += self.bc.napl_source * dt * self.grid.cell_volume / self.pore_vol
            self.injected_mass += float(
                np.sum(self.bc.napl_source) * self.grid.cell_volume * dt * self.fluids.rho_n
            )
        state.sn = state.sn + dsn
        if state.sn.min() < -10 * SAT_TOL or state.sn.max() > 1.0 + 10 * SAT_TOL:
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
        return SourceZoneStats(0.0, 0.0, 0.0, 0.0, 0.0)
    upper = material.layer_mask(upper=True)
    pool = sn >= pool_threshold
    return SourceZoneStats(
        total_mass=total,
        upper_fraction=float(mass[upper].sum() / total),
        lower_fraction=float(mass[~upper].sum() / total),
        pool_fraction=float(mass[pool].sum() / total),
        ganglia_fraction=float(mass[~pool].sum() / total),
    )
