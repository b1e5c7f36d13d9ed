"""Seeded synthetic-data generators and the posterior-predictive generator."""

from __future__ import annotations

import numpy as np

from .model import DataMatrix, PosteriorChain, eta

NOISE_SD = 0.1  # residual variance 0.01 throughout the synthetic settings


def gen_setting1(n: int, seed: int) -> DataMatrix:
    """Two independent non-Gaussian marginals: Beta(0.4,0.4) and Gamma(1,1)."""
    rng = np.random.default_rng(seed)
    z1 = rng.beta(0.4, 0.4, size=n)
    z2 = rng.gamma(1.0, 1.0, size=n)
    noise = rng.normal(0.0, NOISE_SD, size=(n, 2))
    return DataMatrix(np.column_stack([z1, z2]) + noise)


def gen_setting2(n: int, seed: int):
    """Gaussian linear two-factor model in 20 dimensions.

    Returns (data, true loadings 20x2, true factors n x 2). The loadings are a
    fixed function of the seed, drawn once before the factors.
    """
    rng = np.random.default_rng(seed)
    lam = rng.normal(size=(20, 2))
    eta = rng.normal(size=(n, 2))
    noise = rng.normal(0.0, NOISE_SD, size=(n, 20))
    return DataMatrix(eta @ lam.T + noise), lam, eta


def gen_setting3(n: int, seed: int, law: str = "uniform") -> DataMatrix:
    """Two independent latent curves in 10 dimensions.

    Mean is (2z1, 2z1^2, 2z2, 2z2^2, 0, ..., 0). ``law`` chooses the generator
    distribution: "uniform" for U(0,1) or "beta" for Beta(0.5,0.5).
    """
    rng = np.random.default_rng(seed)
    if law == "uniform":
        z = rng.uniform(size=(n, 2))
    elif law == "beta":
        z = rng.beta(0.5, 0.5, size=(n, 2))
    else:
        raise ValueError("law must be 'uniform' or 'beta'")
    mean = np.zeros((n, 10))
    mean[:, 0] = 2 * z[:, 0]
    mean[:, 1] = 2 * z[:, 0] ** 2
    mean[:, 2] = 2 * z[:, 1]
    mean[:, 3] = 2 * z[:, 1] ** 2
    return DataMatrix(mean + rng.normal(0.0, NOISE_SD, size=(n, 10)))


def gen_swiss_roll(n: int, seed: int):
    """A Swiss roll embedded in 10 dimensions; returns (data, u, v)."""
    rng = np.random.default_rng(seed)
    u = rng.uniform(size=n)
    v = rng.uniform(size=n)
    t = 3 * np.pi * u + 1.5 * np.pi
    mean = np.zeros((n, 10))
    mean[:, 4] = t * np.sin(t)
    mean[:, 5] = t * np.cos(t)
    mean[:, 6] = v
    return DataMatrix(mean + rng.normal(0.0, NOISE_SD, size=(n, 10))), u, v


def gen_hetero_clusters(n: int, seed: int, spacing: float = 10.0):
    """Five 20-dimensional Gaussian clusters with standard deviations 1..5.

    Cluster means are equally spaced along the first axis. Returns
    (data, labels) with labels balanced to within one point.
    """
    if n < 5:
        raise ValueError("need at least 5 points")
    rng = np.random.default_rng(seed)
    labels = np.arange(n) % 5
    rng.shuffle(labels)
    sds = (labels + 1).astype(float)
    means = np.zeros((n, 20))
    means[:, 0] = spacing * labels
    data = means + sds[:, None] * rng.standard_normal((n, 20))
    return DataMatrix(data), labels


def posterior_predictive_array(
    chain: PosteriorChain, n_new: int, rng: np.random.Generator | int
) -> np.ndarray:
    """Posterior-predictive draws as a plain n_new x P array (n_new may be 0)."""
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    p, k = chain.residual_variances.shape[1], chain.assignment.n_locations
    out = np.empty((n_new, p))
    idx = rng.integers(len(chain), size=n_new)
    u_new = rng.uniform(size=(n_new, k))
    noise = rng.standard_normal((n_new, p))
    for m in sorted(set(idx.tolist())):  # np.unique would load numpy.ma for its mask check
        rows = np.flatnonzero(idx == m)
        factors = eta(chain.spline_coefficients[m], u_new[rows], chain.assignment)
        out[rows] = factors @ chain.loadings[m].T + noise[rows] * np.sqrt(
            chain.residual_variances[m]
        )
    return out
