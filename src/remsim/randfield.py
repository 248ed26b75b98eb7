"""Seeded correlated log-normal permeability fields for the sand layers.

Gaussian fields are sampled by FFT circulant embedding of an exponential
covariance, then exponentiated around the layer's geometric-mean
permeability.  Clay cells keep their constant permeability.  The RNG is
Philox (counter based), so fields are bit-reproducible across platforms
for a fixed seed.  The variance and correlation length are checked where
the config is read (:meth:`~remsim.config.RunConfig._validate`).
"""

from __future__ import annotations

import numpy as np

from .grid import CLAY, Grid, MaterialMap


def _spectrum(grid: Grid, corr_length: float) -> np.ndarray:
    """Amplitudes ``sqrt(lambda / (m n))`` of the exponential covariance
    embedded on an (m, n) torus at least twice the domain in each direction."""
    m, n = 2 * grid.ny, 2 * grid.nx
    jy = np.minimum(np.arange(m), m - np.arange(m)) * grid.dy
    jx = np.minimum(np.arange(n), n - np.arange(n)) * grid.dx
    dist = np.hypot(jx[None, :], jy[:, None])
    cov = np.exp(-dist / corr_length)
    lam = np.fft.fft2(cov).real
    lam = np.maximum(lam, 0.0)  # clip small negative embedding eigenvalues
    return np.sqrt(lam / (m * n))


def _gaussian_field(grid: Grid, amplitude: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Standard (zero-mean, unit-variance) Gaussian field on the grid from the
    embedding's ``amplitude`` (:func:`_spectrum`)."""
    xi = rng.standard_normal(amplitude.shape) + 1j * rng.standard_normal(amplitude.shape)
    return np.fft.fft2(amplitude * xi).real[: grid.ny, : grid.nx]


def generate_log_normal_field(
    grid: Grid, material: MaterialMap, log_variance: float, correlation_length: float,
    seed: int,
) -> np.ndarray:
    """Per-cell permeability (m^2): correlated log-normal per sand layer.

    ln k is stationary Gaussian with variance ``log_variance``, exponential
    covariance of length ``correlation_length`` (m) and geometric mean equal
    to each layer's permeability; clay cells keep their constant value.
    """
    k = material.k.copy()
    sigma = np.sqrt(log_variance)
    amplitude = _spectrum(grid, correlation_length)
    for lid, props in material.props.items():
        if lid == CLAY:
            continue
        mask = material.lithology == lid
        if not mask.any():
            continue
        rng = np.random.Generator(np.random.Philox(key=[seed, lid]))
        z = _gaussian_field(grid, amplitude, rng)
        # condition each layer on its prescribed geometric mean: a finite
        # layer holds few correlation lengths, so the raw sample mean of
        # ln k wanders several percent between realizations
        zl = z[mask]
        k[mask] = props.permeability * np.exp(sigma * (zl - zl.mean()))
    return k
