"""Evaluation metrics: 1-D and sliced Wasserstein-2 distances, a uniformity
diagnostic, and factor-model covariance estimators."""

from __future__ import annotations

import numpy as np

from .model import (DataMatrix, DomainError, PosteriorChain, ShapeError, eta,
                    quantile_of_sorted)


def wasserstein2_1d(a: np.ndarray, b: np.ndarray) -> float:
    """Wasserstein-2 distance between equal-length empirical samples."""
    a = np.asarray(a, dtype=float).ravel()
    b = np.asarray(b, dtype=float).ravel()
    if a.size == 0 or b.size == 0:
        raise ValueError("samples must be non-empty")
    if a.size != b.size:
        raise ShapeError("samples must have equal length")
    diff = np.sort(a) - np.sort(b)
    return float(np.sqrt(np.mean(diff**2)))


def sliced_wasserstein_details(
    x: np.ndarray,
    y: np.ndarray,
    n_projections: int = 100,
    rng: np.random.Generator | int | None = 0,
):
    """Sliced Wasserstein-2 distance with per-projection values.

    Projects both point clouds onto random unit directions and averages the
    1-D distances. Unequal sample sizes are reduced to the common quantile
    grid of min(N1, N2) points. Returns (mean, standard error, values).
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.atleast_2d(np.asarray(y, dtype=float))
    if x.shape[1] != y.shape[1]:
        raise ShapeError("point clouds must share the feature dimension")
    if n_projections < 1:
        raise ValueError("need at least one projection")
    if x.shape[0] == 0 or y.shape[0] == 0:
        raise ValueError("point clouds must have at least one row")
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    p = x.shape[1]
    m = min(x.shape[0], y.shape[0])
    grid = (np.arange(m) + 0.5) / m
    values = np.empty(n_projections)
    for t in range(n_projections):
        direction = rng.standard_normal(p)
        direction /= np.linalg.norm(direction)
        px, py = x @ direction, y @ direction
        if x.shape[0] != y.shape[0]:
            px, py = (quantile_of_sorted(np.sort(px), grid),
                      quantile_of_sorted(np.sort(py), grid))
        values[t] = wasserstein2_1d(px, py)
    se = float(values.std(ddof=1) / np.sqrt(n_projections)) if n_projections > 1 else 0.0
    return float(values.mean()), se, values


def sliced_wasserstein(
    x: np.ndarray,
    y: np.ndarray,
    n_projections: int = 100,
    rng: np.random.Generator | int | None = 0,
) -> float:
    """Mean 1-D Wasserstein-2 distance over random unit-vector projections."""
    mean, _, _ = sliced_wasserstein_details(x, y, n_projections, rng)
    return mean


def ks_to_uniform(u_col: np.ndarray) -> float:
    """One-sample Kolmogorov-Smirnov statistic against U(0,1)."""
    u = np.sort(np.asarray(u_col, dtype=float).ravel())
    if np.any(u < 0) or np.any(u > 1):
        raise DomainError("entries must lie in [0,1]")
    n = u.size
    upper = np.max(np.arange(1, n + 1) / n - u)
    lower = np.max(u - np.arange(n) / n)
    return float(max(upper, lower))


def covariance_estimators(chain: PosteriorChain, data: DataMatrix):
    """Three covariance estimates of the observed features.

    Returns (empirical, loadings-based Lambda Lambda' + Sigma, bias-corrected
    Lambda cov(eta_hat) Lambda' + Sigma), each P x P.
    """
    empirical = np.cov(data.values, rowvar=False)
    lam_mean = chain.loadings.mean(axis=0)
    sig_mean = chain.residual_variances.mean(axis=0)
    naive = lam_mean @ lam_mean.T + np.diag(sig_mean)
    eta_mean = np.mean([eta(c, u, chain.assignment) for c, u in
                        zip(chain.spline_coefficients, chain.latent_locations)], axis=0)
    corrected = lam_mean @ np.cov(eta_mean, rowvar=False) @ lam_mean.T + np.diag(sig_mean)
    return empirical, naive, corrected
