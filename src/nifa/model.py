"""Core domain types, piecewise-linear latent mappings, and the model log-likelihood.

The generative model is x_i = Lambda * eta_i + eps_i with eta_ih = g_h(u_{i,k_h}),
where each g_h is a piecewise-linear map on [0,1] and the latent locations u are
uniform on [0,1]. The H maps are held as one (L+1) x H coefficient matrix, row 0
the intercepts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class ShapeError(ValueError):
    """Array dimensions do not match the model."""


class DomainError(ValueError):
    """A value lies outside its mathematical domain."""


@dataclass(frozen=True)
class DataMatrix:
    """N x P observed data; rows are observations, columns are features."""

    values: np.ndarray
    feature_names: list[str] | None = None

    def __post_init__(self):
        vals = np.atleast_2d(np.asarray(self.values, dtype=float))
        if vals.ndim != 2:
            raise ShapeError("data must be a 2-d matrix")
        n, p = vals.shape
        if n < 2 or p < 1:
            raise ValueError(f"need at least 2 rows and 1 column, got {n}x{p}")
        if not np.all(np.isfinite(vals)):
            raise ValueError("data contains non-finite entries")
        if self.feature_names is not None and len(self.feature_names) != p:
            raise ShapeError("feature_names length does not match column count")
        object.__setattr__(self, "values", vals)

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]

    @property
    def n_features(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class FactorAssignment:
    """Surjective map h -> k_h from factors {1..H} onto latent locations {1..K}.

    Entries are 1-based; use ``zero_based`` for indexing arrays.
    """

    k_of_h: np.ndarray

    def __post_init__(self):
        k = np.asarray(self.k_of_h, dtype=int)
        if k.ndim != 1 or k.size < 1:
            raise ShapeError("k_of_h must be a non-empty 1-d integer vector")
        kmax = int(k.max())
        if k.min() < 1:
            raise ValueError("assignment entries must be in {1..K}")
        if set(np.unique(k)) != set(range(1, kmax + 1)):
            raise ValueError("assignment must be surjective onto {1..K}")
        if kmax > k.size:
            raise ValueError("K must not exceed H")
        object.__setattr__(self, "k_of_h", k)

    @property
    def n_factors(self) -> int:
        return self.k_of_h.size

    @property
    def n_locations(self) -> int:
        return int(self.k_of_h.max())

    @property
    def zero_based(self) -> np.ndarray:
        return self.k_of_h - 1

    @classmethod
    def round_robin(cls, n_factors: int, n_locations: int) -> "FactorAssignment":
        """Default assignment h -> ((h-1) mod K) + 1."""
        return cls(np.arange(n_factors) % n_locations + 1)


def spline_basis(u, n_pieces: int) -> np.ndarray:
    """Cumulative piecewise-linear basis clamp(u - s_{l-1}, 0, 1/L), knots at l/L.

    Accepts a scalar or 1-d array; returns shape (..., L).
    """
    u = np.asarray(u, dtype=float)
    knots = np.arange(n_pieces) / n_pieces
    return np.clip(u[..., None] - knots, 0.0, 1.0 / n_pieces)


def spline_design(u, n_pieces: int) -> np.ndarray:
    """Intercept-plus-clamp design [1, spline_basis(u, L)]; returns shape (..., L+1)."""
    return np.insert(spline_basis(u, n_pieces), 0, 1.0, axis=-1)


def rank_transform(x) -> np.ndarray:
    """Empirical ranks r/N of a 1-d array, r in {1..N}; ties keep their order."""
    x = np.asarray(x, dtype=float).ravel()
    ranks = np.empty(x.size)
    ranks[np.argsort(x, kind="stable")] = np.arange(1, x.size + 1)
    return ranks / x.size


def spline_piece(u, n_pieces: int) -> np.ndarray:
    """Index of the piece holding u, i.e. of the slope that is dg/du there.

    At a knot the right piece applies; u = 1 lies in the last piece.
    """
    u = np.asarray(u, dtype=float)
    return np.minimum((u * n_pieces).astype(int), n_pieces - 1)


# PiecewiseLinearMap, NiftyState and PosteriorChain.samples, which builds them,
# stay only because perfbench/ reads them; its next revision moves to the chain
# arrays and deletes them. The library itself works on the arrays.


@dataclass(frozen=True)
class PiecewiseLinearMap:
    """Continuous piecewise-linear function on [0,1] with evenly spaced knots.

    g(u) = intercept + sum_l slopes[l] * clamp(u - (l-1)/L, 0, 1/L).
    """

    intercept: float
    slopes: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.slopes, dtype=float).ravel()
        if s.size < 1 or not np.all(np.isfinite(s)):
            raise ValueError("slopes must be a non-empty finite vector")
        object.__setattr__(self, "intercept", float(self.intercept))
        object.__setattr__(self, "slopes", s)

    @property
    def n_pieces(self) -> int:
        return self.slopes.size

    def __call__(self, u):
        """Evaluate at u in [0,1] (scalar or array)."""
        arr = np.asarray(u, dtype=float)
        if np.any(arr < 0) or np.any(arr > 1):
            raise DomainError("spline argument must lie in [0,1]")
        val = self.intercept + spline_basis(arr, self.n_pieces) @ self.slopes
        return float(val) if np.isscalar(u) or arr.ndim == 0 else val


@dataclass(frozen=True)
class NiftyState:
    """One full parameter configuration of the factor model."""

    loadings: np.ndarray            # P x H
    splines: tuple                  # H PiecewiseLinearMap records
    latent_locations: np.ndarray    # N x K, entries in [0,1]
    residual_variances: np.ndarray  # length P, positive
    local_scales: np.ndarray        # P x H, positive
    global_scale: float             # positive
    assignment: FactorAssignment

    def __post_init__(self):
        lam = np.atleast_2d(np.asarray(self.loadings, dtype=float))
        u = np.atleast_2d(np.asarray(self.latent_locations, dtype=float))
        sig = np.asarray(self.residual_variances, dtype=float).ravel()
        gam = np.atleast_2d(np.asarray(self.local_scales, dtype=float))
        splines = tuple(self.splines)
        h = self.assignment.n_factors
        k = self.assignment.n_locations
        if lam.shape[1] != h or len(splines) != h or gam.shape != lam.shape:
            raise ShapeError("loadings/splines/local_scales inconsistent with assignment")
        if u.shape[1] != k:
            raise ShapeError("latent_locations column count must equal K")
        if lam.shape[0] != sig.size:
            raise ShapeError("residual_variances length must equal P")
        if np.any(sig <= 0) or np.any(gam <= 0) or self.global_scale <= 0:
            raise ValueError("variances and shrinkage scales must be positive")
        if np.any(u < 0) or np.any(u > 1):
            raise DomainError("latent locations must lie in [0,1]")
        object.__setattr__(self, "loadings", lam)
        object.__setattr__(self, "latent_locations", u)
        object.__setattr__(self, "residual_variances", sig)
        object.__setattr__(self, "local_scales", gam)
        object.__setattr__(self, "global_scale", float(self.global_scale))
        object.__setattr__(self, "splines", splines)


@dataclass(frozen=True)
class Hyperparameters:
    """All sampler hyperparameters and run controls."""

    nu: float = 1e3              # uniform-constraint strength
    sigma_a_sq: float = 1.0      # spline-coefficient prior scale
    a_sigma: float = 100.0       # inverse-Gamma shape for residual variances
    b_sigma: float = 1.0         # inverse-Gamma rate for residual variances
    L: int = 20                  # pieces per spline
    mala_step: float = 1e-4      # initial Langevin step size
    iterations: int = 10_000
    burn_in: int = 5_000
    thin: int = 10
    seed: int = 0

    def __post_init__(self):
        if self.nu < 0:
            raise ValueError("nu must be non-negative")
        if min(self.sigma_a_sq, self.a_sigma, self.b_sigma, self.mala_step) <= 0:
            raise ValueError("scale hyperparameters must be positive")
        if self.L < 1 or self.iterations < 1 or self.thin < 1:
            raise ValueError("L, iterations and thin must be positive")
        if not 0 <= self.burn_in < self.iterations:
            raise ValueError("burn_in must be smaller than iterations")


def eta(coefficients: np.ndarray, u: np.ndarray, assignment: FactorAssignment) -> np.ndarray:
    """Latent factors as an N x H matrix: eta[:, h] = g_h(u[:, k_h]).

    ``coefficients`` is the (L+1) x H spline coefficient matrix, row 0 the
    intercepts; the locations ``u`` (N x K) must lie in [0,1].
    """
    n_pieces = coefficients.shape[0] - 1
    k0 = assignment.zero_based
    out = np.empty((u.shape[0], k0.size))
    for h, k in enumerate(k0):
        out[:, h] = coefficients[0, h] + spline_basis(u[:, k], n_pieces) @ coefficients[1:, h]
    return out


def log_likelihood(mean: np.ndarray, residual_variances: np.ndarray, data: DataMatrix) -> float:
    """Gaussian log-likelihood of the data around the N x P model mean Lambda eta^T."""
    if mean.shape != data.values.shape:
        raise ShapeError("model mean shape does not match the data")
    resid = data.values - mean
    sig = residual_variances
    n = data.n_rows
    return float(
        -0.5 * n * np.sum(np.log(2 * np.pi * sig))
        - 0.5 * np.sum(resid**2 / sig)
    )
