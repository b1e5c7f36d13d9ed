"""Core domain types, piecewise-linear latent mappings, and the model log-likelihood.

The generative model is x_i = Lambda * eta_i + eps_i with eta_ih = g_h(u_{i,k_h}),
where each g_h is a piecewise-linear map on [0,1] and the latent locations u are
uniform on [0,1]. The H maps are held as one (L+1) x H coefficient matrix, row 0
the intercepts.

Every type that crosses a module or a run directory lives here: the data, the
factor assignment, both configurations (``Hyperparameters`` for the sampler,
``DiffusionConfig`` for pretraining), the ``AnchorSet`` that pretraining
produces, the ``PosteriorChain`` that the sampler produces and the
``DegenerateLoadingError`` that post-processing raises and the command line
maps to an exit code. Storage, simulation, metrics and post-processing
therefore import this module and no algorithm module; ``pretrain``,
``sampler`` and ``postprocess`` import the types they produce back, so their
old paths still work.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, fields
from functools import cached_property
from typing import get_args, get_type_hints

import numpy as np


class ShapeError(ValueError):
    """Array dimensions do not match the model."""


class DomainError(ValueError):
    """A value lies outside its mathematical domain."""


class DegenerateLoadingError(ValueError):
    """A loading column or partition is numerically degenerate."""


def is_finite_number(value) -> bool:
    """Whether a value is a finite Python or numpy int or float (a bool is not one)."""
    try:
        return (isinstance(value, (int, float, np.integer, np.floating))
                and not isinstance(value, bool) and math.isfinite(value))
    except OverflowError:  # an integer beyond the float range
        return False


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set where the platform
    reports one (so ``taskset`` limits it), else the CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def check_config_fields(config) -> None:
    """Raise ValueError unless each field of a config dataclass holds its
    annotated kind: an int field a Python or numpy integer, a float field a
    finite number (ints included), a ``float | None`` field also None. A bool
    is neither."""
    hints = get_type_hints(type(config))
    for f in fields(config):
        value, kinds = getattr(config, f.name), get_args(hints[f.name]) or (hints[f.name],)
        if int in kinds:
            if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
                raise ValueError(f"{f.name} must be an integer, got {value!r}")
        elif not (is_finite_number(value) or (value is None and type(None) in kinds)):
            raise ValueError(f"{f.name} must be a finite number, got {value!r}")


@dataclass(frozen=True)
class DataMatrix:
    """N x P observed data; rows are observations, columns are features."""

    values: np.ndarray

    def __post_init__(self):
        vals = np.atleast_2d(np.asarray(self.values, dtype=float))
        if vals.ndim != 2:
            raise ShapeError("data must be a 2-d matrix")
        n, p = vals.shape
        if n < 2 or p < 1:
            raise ValueError(f"need at least 2 rows and 1 column, got {n}x{p}")
        if not np.all(np.isfinite(vals)):
            raise ValueError("data contains non-finite entries")
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
        # a set of Python ints: np.unique would load numpy.ma (~17 ms) for its mask check
        if set(k.tolist()) != set(range(1, kmax + 1)):
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
    out = u[..., None] - knots
    np.maximum(out, 0.0, out=out)
    return np.minimum(out, 1.0 / n_pieces, out=out)


def spline_design(u, n_pieces: int) -> np.ndarray:
    """Intercept-plus-clamp design [1, spline_basis(u, L)]; returns shape (..., L+1)."""
    u = np.asarray(u, dtype=float)
    out = np.empty(u.shape + (n_pieces + 1,))
    out[..., 0] = 1.0
    out[..., 1:] = spline_basis(u, n_pieces)
    return out


def rank_transform(x) -> np.ndarray:
    """Empirical ranks r/N of a 1-d array, r in {1..N}; ties keep their order."""
    x = np.asarray(x, dtype=float).ravel()
    ranks = np.empty(x.size)
    ranks[np.argsort(x, kind="stable")] = np.arange(1, x.size + 1)
    return ranks / x.size


def quantile_of_sorted(draws: np.ndarray, q) -> np.ndarray:
    """Bitwise ``np.quantile(x, q, axis=0)`` of the draws x, given sorted along
    axis 0, for a scalar q or a vector of them (whose axis then leads); only a
    tie of -0.0 and 0.0 may sort either way round. The linear rule interpolates
    between the order statistics lo and lo + 1 at virtual index (m - 1) q as
    numpy's _lerp does, back from the upper one when the fraction is 0.5 or
    more. Only those two are read, so draws partitioned at them serve too.
    np.quantile itself would load numpy.ma, for the mask check of the np.unique
    it calls."""
    m = draws.shape[0]
    at = (m - 1) * np.asarray(q, dtype=float)
    lo = np.minimum(np.floor(at), m - 1).astype(np.intp)
    t = at - lo
    a, b = draws[lo], draws[np.minimum(lo + 1, m - 1)]
    t = t.reshape(t.shape + (1,) * (draws.ndim - 1))
    return np.where(t < 0.5, a + (b - a) * t, b - (b - a) * (1 - t))


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
        check_config_fields(self)
        if self.nu < 0:
            raise ValueError("nu must be non-negative")
        if min(self.sigma_a_sq, self.a_sigma, self.b_sigma, self.mala_step) <= 0:
            raise ValueError("scale hyperparameters must be positive")
        if self.L < 1 or self.iterations < 1 or self.thin < 1:
            raise ValueError("L, iterations and thin must be positive")
        if not 0 <= self.burn_in < self.iterations:
            raise ValueError("burn_in must be smaller than iterations")


@dataclass(frozen=True)
class DiffusionConfig:
    """Tuning parameters for the embedding and the dimension estimator.

    ``epsilon_dm=None`` uses the median pairwise distance; ``epsilon_local=None``
    uses the 10th percentile of pairwise distances among embedded coordinates.
    ``dimension_offset`` is added to the literal eigenvalue-ratio estimate.
    """

    epsilon_dm: float | None = None
    Q: int = 5
    epsilon_local: float | None = None
    delta: float = 0.5
    dimension_offset: int = 0

    def __post_init__(self):
        check_config_fields(self)
        if self.epsilon_dm is not None and self.epsilon_dm <= 0:
            raise ValueError("epsilon_dm must be positive")
        if self.epsilon_local is not None and self.epsilon_local <= 0:
            raise ValueError("epsilon_local must be positive")
        if not 0 < self.delta < 1:
            raise ValueError("delta must lie in (0,1)")
        # estimate_dimension compares successive coordinates, so it needs two
        if self.Q < 2:
            raise ValueError(f"Q must be at least 2, got {self.Q}")


@dataclass(frozen=True)
class AnchorSet:
    """Augmented anchor columns and their fixed residual variances."""

    coordinates: np.ndarray         # N x K
    residual_variances: np.ndarray  # length K
    source: str = "diffusion_map"   # or "external"

    def __post_init__(self):
        coords = np.atleast_2d(np.asarray(self.coordinates, dtype=float))
        var = np.asarray(self.residual_variances, dtype=float).ravel()
        if coords.shape[1] != var.size or coords.shape[1] < 1:
            raise ShapeError("one residual variance per anchor column required")
        if not np.all(np.isfinite(coords)):
            raise ValueError("anchor coordinates must be finite")
        if not np.all(np.isfinite(var) & (var > 0)):
            raise ValueError("anchor residual variances must be finite and positive")
        if self.source not in ("diffusion_map", "external"):
            raise ValueError("source must be 'diffusion_map' or 'external'")
        object.__setattr__(self, "coordinates", coords)
        object.__setattr__(self, "residual_variances", var)

    @property
    def n_anchors(self) -> int:
        return self.coordinates.shape[1]


@dataclass(frozen=True)
class ChainDiagnostics:
    """Per-run sampler diagnostics."""

    log_posterior_trace: np.ndarray
    mala_acceptance_rate: float
    block_seconds: np.ndarray  # loadings, variances, splines, mala, shrinkage


CHAIN_ARRAYS = ("loadings", "spline_coefficients", "latent_locations",
                "residual_variances", "local_scales", "global_scale")


@dataclass(frozen=True)
class PosteriorChain:
    """Ordered post-burn-in, thinned draws as stacked read-only arrays, plus
    run metadata. A chain holds at least one draw."""

    loadings: np.ndarray             # M x P x H
    spline_coefficients: np.ndarray  # M x (L+1) x H; row 0 holds the intercepts
    latent_locations: np.ndarray     # M x N x K, entries in [0,1]
    residual_variances: np.ndarray   # M x P, positive
    local_scales: np.ndarray         # M x P x H, positive
    global_scale: np.ndarray         # M, positive
    assignment: FactorAssignment
    diagnostics: ChainDiagnostics
    config: Hyperparameters
    anchor: AnchorSet

    def __post_init__(self):
        arrays = [np.array(getattr(self, name), dtype=float) for name in CHAIN_ARRAYS]
        for name, arr in zip(CHAIN_ARRAYS, arrays):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        lam, coef, u, sig, gam, tau = arrays
        m = self.diagnostics.log_posterior_trace.size
        if m < 1:
            raise ValueError("a chain needs at least one retained draw")
        h, k = self.assignment.n_factors, self.assignment.n_locations
        p, n, width = (a.shape[1] if a.ndim == 3 else -1 for a in (lam, u, coef))
        expected = ((m, p, h), (m, width, h), (m, n, k), (m, p), (m, p, h), (m,))
        if width < 2 or any(a.shape != e for a, e in zip(arrays, expected)):
            raise ShapeError("chain arrays must hold one draw per trace entry, shaped "
                             "by the assignment")
        if not all(np.all(np.isfinite(a)) for a in arrays):
            raise ValueError("chain arrays must be finite")
        if np.any(sig <= 0) or np.any(gam <= 0) or np.any(tau <= 0):
            raise ValueError("variances and shrinkage scales must be positive")
        if np.any(u < 0) or np.any(u > 1):
            raise DomainError("latent locations must lie in [0,1]")

    @cached_property
    def samples(self) -> tuple:
        """One NiftyState record per draw, built on first access."""
        return tuple(
            NiftyState(lam, tuple(PiecewiseLinearMap(col[0], col[1:]) for col in c.T),
                       u, sig, gam, tau, self.assignment)
            for lam, c, u, sig, gam, tau in zip(*(getattr(self, n) for n in CHAIN_ARRAYS))
        )

    def __len__(self) -> int:
        return self.global_scale.shape[0]


def eta(coefficients: np.ndarray, u: np.ndarray, assignment: FactorAssignment) -> np.ndarray:
    """Latent factors as an N x H matrix: eta[:, h] = g_h(u[:, k_h]).

    ``coefficients`` is the (L+1) x H spline coefficient matrix, row 0 the
    intercepts; the locations ``u`` (N x K) must lie in [0,1].
    """
    n_pieces = coefficients.shape[0] - 1
    return eta_from_bases(coefficients, [spline_basis(u_col, n_pieces) for u_col in u.T],
                          assignment)


def eta_from_bases(coefficients: np.ndarray, bases, assignment: FactorAssignment) -> np.ndarray:
    """The factors of ``eta`` from the K per-column N x L clamp bases
    spline_basis(u[:, k], L), each shared by the factors of its column. A
    basis may be the [:, 1:] view of spline_design(u[:, k], L): the products
    are bitwise the same."""
    k0 = assignment.zero_based
    out = np.empty((bases[0].shape[0], k0.size))
    for h, k in enumerate(k0):
        out[:, h] = coefficients[0, h] + bases[k] @ coefficients[1:, h]
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
