"""Stage 1: simultaneous water/TCE flow (IMPES) with Brooks-Corey closure.

Pressure is solved implicitly for the water phase with the capillary and
gravity contributions treated explicitly, through the banded-Cholesky TPFA
operator of :mod:`remsim.flow`; saturations are then advanced with
phase-potential-upwinded fluxes.  An entry-pressure interface rule
blocks NAPL from invading a finer layer until the upstream capillary
pressure exceeds the receiving layer's entry pressure.

A sub-step costs what the NAPL footprint costs: the closures, face terms,
stability bounds and saturation update cover only a window of grid columns
around the NAPL, one column wider on each side (:class:`ImpesStepper`).
Outside it every quantity is its NAPL-free value, so the pressure system,
still assembled on the whole grid, and every result are bit for bit those of
a whole-grid sub-step.

The water table sits at the top of the domain: both lateral boundaries hold
the water head at the grid height, so there is no ambient flow, and top and
bottom are no-flow.  NAPL never crosses a boundary; it enters only through
the release source that each sub-step is given.
"""

from __future__ import annotations

import numpy as np

from .config import RunConfig
from .flow import FACES, FactorCache, SolverError, _harmonic, lateral_heads, scatter_faces
from .grid import MaterialMap


# ---------------------------------------------------------------------------
# Brooks-Corey closures
# ---------------------------------------------------------------------------

def capillary_pressure(se, pd, lam):
    """Brooks-Corey pc = pd * Se^(-1/lambda); pd = 0 disables capillarity."""
    return pd * se ** (-1.0 / lam)


def rel_perm(se, lam):
    """Brooks-Corey-Burdine relative permeabilities (krw, krn) on Se in [0,1]."""
    se = np.clip(se, 0.0, 1.0)
    krw = se ** ((2.0 + 3.0 * lam) / lam)
    krn = (1.0 - se) ** 2 * (1.0 - se ** ((2.0 + lam) / lam))
    return krw, krn


def water_mobility(sn, material):
    """Water relative permeability at the water saturation ``1 - sn``, with
    trapped NAPL (mobility scale): the ``krw`` of :meth:`ImpesStepper.closures`
    floored at 1e-6, the water mobility of the stage 2-4 flow."""
    se = np.clip((1.0 - sn - material.swr) / (1.0 - material.swr - material.snr), 0.0, 1.0)
    krw, _ = rel_perm(se, material.bc_lambda)
    return np.maximum(krw, 1e-6)


# target largest NAPL saturation change per sub-step (the advection bound)
MAX_DS = 0.1
# safety factor of the inflow and capillary bounds
TWO_PHASE_CFL = 0.5
# least effective saturation the capillary pressure sees
SE_CLAMP = 0.01
# a sub-step snaps saturation excursions past [0, 1] up to 10 * SAT_TOL back
SAT_TOL = 1e-9


def hydrostatic_two_phase(grid, config: RunConfig) -> dict:
    """The fields ``sn`` and ``pw`` of NAPL-free water at rest under a water
    table at the top of the grid."""
    _, yv = grid.cell_centers()
    return {"sn": np.zeros((grid.ny, grid.nx)),
            "pw": config.rho_w * config.gravity * (grid.height - yv)}


# ---------------------------------------------------------------------------
# Interface entry-pressure rule
# ---------------------------------------------------------------------------

def interface_block_mask(pd_up, pd_recv, pc_up):
    """True where NAPL flux must be zeroed: receiving cell finer (higher
    entry pressure) and upstream pc not yet above it.  The rule is decided on
    entry pressures, which are set per lithology (:class:`MaterialMap`), so a
    higher receiving entry pressure is a change of lithology."""
    return (pd_recv > pd_up) & (pc_up <= pd_recv)


# ---------------------------------------------------------------------------
# IMPES stepping
# ---------------------------------------------------------------------------

# the bounds on a sub-step's length, in the order that breaks ties
LIMITS = ("advection", "inflow", "capillary", "chunk_end")


def _window_faces(cols: slice):
    """Index expressions of the x-faces and of the y-faces between the cells
    of the grid columns ``cols``."""
    return np.s_[:, cols.start:cols.stop - 1], np.s_[:, cols]


class ImpesStepper:
    """Face permeabilities and audit state for repeated IMPES sub-steps on
    ``material.grid``, with the fluid values of ``config``.  Each
    sub-step advances the ``sn`` and ``pw`` entries of a field state, a
    checkpoint's field dict; the water saturation is ``1 - sn``.  It is
    given the NAPL release source, a volumetric rate per cell volume (1/s),
    or ``None``; the source moves only the right-hand side of the pressure
    system, so the stepper's own :class:`FactorCache`, ``cache``, serves
    sub-steps with and without it.  ``limits`` counts the sub-steps each
    bound of :data:`LIMITS` has set; ``window_columns`` sums the width of
    each sub-step's window ``C`` and ``window_max`` is the widest.

    A sub-step works on a window of whole grid columns around the NAPL.  Let
    ``N`` be the columns holding NAPL (``sn != 0``) or fed by the sub-step's
    source.  The NAPL flux through a face is zero unless its upwind cell
    holds NAPL, so only the cells of ``C``, ``N`` widened by one column on
    each side and clipped to the grid, can change saturation in one
    sub-step; an empty ``N`` gives a one-column window.  The closures, face
    terms, NAPL fluxes, stability bounds and divergence are evaluated on the
    faces between ``C`` cells, and ``sn`` is updated on ``C``, each cell
    summing its faces in the same order as on the whole grid.  A cell
    outside ``N`` is NAPL-free (``sn = 0``, ``sw = 1``), so ``krw = 1``,
    ``krn = 0`` and ``pc = pd`` there.  Every face with a cell outside
    ``C`` lies between two such cells: it carries no NAPL flux and bounds
    nothing, and the pressure system, still assembled on the whole grid,
    takes its closed forms ``lw = kf / mu_w`` and ``ln = 0``, which equal
    the closures' ``kf * 1.0 / mu_w`` bit for bit.  Results are therefore
    those of a whole-grid sub-step, bit for bit.
    """

    def __init__(self, material: MaterialMap, config: RunConfig):
        grid = self.grid = material.grid
        self.material = material
        self.config = config
        self.cache = FactorCache()
        k = material.k
        self.kfx = _harmonic(k[:, :-1], k[:, 1:]) * grid.dy / grid.dx
        self.kfy = _harmonic(k[:-1, :], k[1:, :]) * grid.dx / grid.dy
        self.pore_vol = material.porosity * grid.cell_volume
        # running audit
        self.limits = dict.fromkeys(LIMITS, 0)
        self.window_columns = 0
        self.window_max = 0

    def _window(self, sn, source):
        """The columns ``C`` of a sub-step from ``sn`` and ``source``, as a
        slice."""
        held = (sn != 0).any(axis=0)
        if source is not None:
            held |= (source != 0).any(axis=0)
        napl = np.flatnonzero(held)
        if napl.size == 0:
            return slice(0, 1)
        first, stop = int(napl[0]), int(napl[-1]) + 1
        return slice(max(first - 1, 0), min(stop + 1, self.grid.nx))

    # -- closures ---------------------------------------------------------
    def closures(self, f: dict, cols: slice):
        """``(pc, dpc, krw, krn)`` of the field state ``f`` on the grid columns
        ``cols``, at the water saturation ``1 - sn``: ``dpc`` is -dpc/dSw, the
        slope the capillary bound feels.  The effective saturation, clipped to
        [0, 1], sets the relative permeabilities; the capillary terms see it
        no lower than :data:`SE_CLAMP`."""
        m = self.material
        sw = 1.0 - f["sn"][:, cols]
        swr, snr, pd, lam = (a[:, cols] for a in (m.swr, m.snr, m.entry_pressure, m.bc_lambda))
        se_kr = np.clip((sw - swr) / (1.0 - swr - snr), 0.0, 1.0)
        se_pc = np.maximum(se_kr, SE_CLAMP)
        pc = capillary_pressure(se_pc, pd, lam)
        dpc = pd / lam * se_pc ** (-1.0 / lam - 1.0) / (1.0 - swr - snr)
        krw, krn = rel_perm(se_kr, lam)
        return pc, dpc, krw, krn

    def _face_quantities(self, pw, pc, krw, krn, cols):
        """Upwinded face mobilities and known (capillary+gravity) potentials
        ``(lw, ln, grav_w, grav_n)`` of the x-faces and of the y-faces between
        the cells of the columns ``cols``, from their ``pw`` and closures."""
        c, m = self.config, self.material
        pn = pw + pc
        pd = m.entry_pressure[:, cols]
        x_faces, y_faces = _window_faces(cols)
        faces = []
        for (lo, hi), kf, dz in zip(FACES, (self.kfx[x_faces], self.kfy[y_faces]),
                                    (0.0, self.grid.dy)):
            up_w = pw[hi] - pw[lo] + c.rho_w * c.gravity * dz < 0  # True: lower cell upwind
            up_n = pn[hi] - pn[lo] + c.rho_n * c.gravity * dz < 0
            # entry-pressure rule, applied in the NAPL flow direction
            blocked = np.where(
                up_n,
                interface_block_mask(pd[lo], pd[hi], pc[lo]),
                interface_block_mask(pd[hi], pd[lo], pc[hi]),
            )
            krn_f = np.where(blocked, 0.0, np.where(up_n, krn[lo], krn[hi]))
            lw = kf * np.where(up_w, krw[lo], krw[hi]) / c.mu_w
            faces.append((lw, kf * krn_f / c.mu_n, c.rho_w * c.gravity * dz,
                          pc[hi] - pc[lo] + c.rho_n * c.gravity * dz))
        return faces

    def _solve_pressure(self, krw, fx, fy, cols, source):
        """Implicit total-velocity pressure solve on the whole grid, from the
        window's ``krw`` and face terms; returns new pw."""
        g, c, perm = self.grid, self.config, self.material.k
        lam = perm / c.mu_w
        lam[:, cols] = perm[:, cols] * krw / c.mu_w
        d, b = lateral_heads(g, lam, g.height, g.height, c.rho_w, c.gravity)
        if source is not None:
            b += source * g.cell_volume

        # face outflow o->nb: F = -t (p_nb - p_o) - known, with t = lw + ln
        # and known = lw grav_w + ln grav_n; NAPL-free outside the window
        t_x, t_y = self.kfx / c.mu_w, self.kfy / c.mu_w
        k_x, k_y = np.zeros_like(t_x), t_y * (c.rho_w * c.gravity * g.dy)
        for t, known, faces, (lw, ln, gw, gn) in zip((t_x, t_y), (k_x, k_y),
                                                     _window_faces(cols), (fx, fy)):
            t[faces] = lw + ln
            known[faces] = lw * gw + ln * gn
        return self.cache.solve(t_x, t_y, k_x, k_y, d, b)

    def _napl_fluxes(self, pw, fx, fy):
        """Per-face NAPL volumetric fluxes (m^3/s), positive owner->neighbor."""
        return [-ln * ((pw[hi] - pw[lo]) + gn) for (lo, hi), (_, ln, _, gn) in zip(FACES, (fx, fy))]

    def _stable_dt(self, sn, source, cols, out, fn_x, fn_y, fx, fy, dpc, dt_target):
        """Sub-step length from the NAPL outflow ``out`` of each cell of the
        columns ``cols``, and the bound of :data:`LIMITS` that sets it (the
        first of equal bounds)."""
        pv = self.pore_vol[:, cols]
        inflow = scatter_faces(np.zeros_like(out), np.maximum(-fn_x, 0.0), np.maximum(fn_x, 0.0),
                               np.maximum(-fn_y, 0.0), np.maximum(fn_y, 0.0))
        if source is not None:
            inflow += source[:, cols] * self.grid.cell_volume

        with np.errstate(divide="ignore"):
            dt_adv = np.where(out > 0, MAX_DS * pv / out, np.inf).min()
            avail = np.maximum(1.0 - self.material.swr[:, cols] - sn[:, cols], 0.02)
            dt_in = np.where(inflow > 0, TWO_PHASE_CFL * avail * pv / inflow, np.inf).min()

        # explicit capillary-diffusion bound (Coats-type): the saturation
        # update feels the mixed fractional-flow mobility lw*ln/(lw+ln),
        # not ln alone -- inside pools the near-immobile water limits it
        with np.errstate(invalid="ignore"):
            g_x, g_y = (np.where(lw + ln > 0, lw * ln / (lw + ln), 0.0)
                        * np.maximum(dpc[lo], dpc[hi])
                        for (lo, hi), (lw, ln, _, _) in zip(FACES, (fx, fy)))
        cond = scatter_faces(np.zeros_like(out), g_x, g_x, g_y, g_y)
        with np.errstate(divide="ignore"):
            dt_cap = np.where(cond > 0, TWO_PHASE_CFL * pv / cond, np.inf).min()

        bounds = dict(zip(LIMITS, (dt_adv, dt_in, dt_cap, dt_target)))
        limit = min(bounds, key=bounds.get)
        return float(bounds[limit]), limit

    def substep(self, f: dict, dt_target: float, source: np.ndarray | None = None) -> float:
        """One IMPES sub-step of at most ``dt_target`` under the NAPL release
        ``source`` (1/s per cell volume, or ``None``): replaces the ``sn`` and
        ``pw`` entries of the field state ``f`` and returns the dt taken."""
        cols = self._window(f["sn"], source)
        self.window_columns += cols.stop - cols.start
        self.window_max = max(self.window_max, cols.stop - cols.start)
        pc, dpc, krw, krn = self.closures(f, cols)
        fx, fy = self._face_quantities(f["pw"][:, cols], pc, krw, krn, cols)
        pw = self._solve_pressure(krw, fx, fy, cols, source)
        fn_x, fn_y = self._napl_fluxes(pw[:, cols], fx, fy)
        out = scatter_faces(np.zeros_like(pc), np.maximum(fn_x, 0.0), np.maximum(-fn_x, 0.0),
                            np.maximum(fn_y, 0.0), np.maximum(-fn_y, 0.0))
        dt, limit = self._stable_dt(f["sn"], source, cols, out, fn_x, fn_y, fx, fy, dpc, dt_target)
        self.limits[limit] += 1

        # limit each cell's outgoing NAPL flux to its content (conservative:
        # both sides of a face see the same scaled flux)
        sn, pv = f["sn"][:, cols], self.pore_vol[:, cols]
        with np.errstate(divide="ignore", invalid="ignore"):
            scale = np.where(out * dt > 0, np.minimum(1.0, sn * pv / (out * dt)), 1.0)
        fn_x, fn_y = (fn * np.where(fn > 0, scale[lo], scale[hi])
                      for (lo, hi), fn in zip(FACES, (fn_x, fn_y)))

        div = scatter_faces(np.zeros_like(pc), fn_x, -fn_x, fn_y, -fn_y)
        dsn = -div * dt / pv
        if source is not None:
            dsn += source[:, cols] * dt * self.grid.cell_volume / pv
        # outside C every cell keeps its saturation, 0
        sn_new = f["sn"].copy()
        changed = sn_new[:, cols]
        changed += dsn
        if changed.min() < -10 * SAT_TOL or changed.max() > 1.0 + 10 * SAT_TOL:
            raise SolverError(
                f"saturation out of bounds: [{sn_new.min():.3e}, {sn_new.max():.3e}]")
        # snap rounding-scale excursions back onto the physical bounds
        np.clip(changed, 0.0, 1.0, out=changed)
        f["sn"], f["pw"] = sn_new, pw
        return dt
