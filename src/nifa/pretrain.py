"""Diffusion-map pretraining: spectral embedding, intrinsic-dimension estimation,
anchor-column extraction, and anchor residual-variance estimation."""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace

import numpy as np

from .model import DataMatrix, ShapeError, check_config_fields, rank_transform, spline_design


class DegenerateGeometryError(RuntimeError):
    """The kernel or local-covariance structure is degenerate."""


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


def kernel_matrix(data: DataMatrix, epsilon_dm: float) -> np.ndarray:
    """Gaussian affinity exp(-||x_i - x_j||^2 / eps^2); symmetric, unit diagonal."""
    from scipy.spatial.distance import pdist, squareform

    if epsilon_dm <= 0:
        raise ValueError("epsilon_dm must be positive")
    sq = squareform(pdist(data.values, metric="sqeuclidean"))
    np.divide(sq, -epsilon_dm**2, out=sq)
    return np.exp(sq, out=sq)


def default_epsilon_dm(data: DataMatrix) -> float:
    """Median of pairwise distances."""
    from scipy.spatial.distance import pdist

    d = pdist(data.values)
    med = float(np.median(d))
    if med <= 0:
        raise DegenerateGeometryError("median pairwise distance is zero")
    return med


def default_epsilon_local(coords: np.ndarray) -> float:
    """10th percentile of pairwise distances among embedded coordinates."""
    from scipy.spatial.distance import pdist

    d = pdist(coords)
    q = float(np.quantile(d, 0.10))
    if q <= 0:
        raise DegenerateGeometryError("local radius collapsed to zero")
    return q


# ARPACK restart budget: the leading pairs take <= 5 restarts on well-connected
# kernels and ~20 on a swiss roll; near-disconnected kernels do not converge, and
# 30 failed restarts at N=3200 cost less than one dense eigh of that matrix.
_ARPACK_MAXITER = 30
# kernel rows rescaled per step, so the normalisation allocates no N x N temporary
_ROW_BLOCK = 256


def _divide_by_outer(matrix: np.ndarray, v: np.ndarray, root: bool = False) -> None:
    """In place, matrix /= outer(v, v) (or its square root), row block by row
    block; bitwise the same as the whole-matrix expression."""
    for lo in range(0, v.size, _ROW_BLOCK):
        outer = np.outer(v[lo : lo + _ROW_BLOCK], v)
        matrix[lo : lo + _ROW_BLOCK] /= np.sqrt(outer, out=outer) if root else outer


def _leading_eigenpairs(sym: np.ndarray, k: int):
    """The k largest eigenpairs of a symmetric matrix, as (values, vectors,
    solver): ARPACK within _ARPACK_MAXITER restarts, otherwise dense eigh."""
    from scipy.sparse.linalg import ArpackNoConvergence, eigsh

    n = sym.shape[0]
    if k < n:
        # a fixed start vector keeps the result deterministic; not the all-ones
        # vector, which is the trivial eigenvector when the row sums are equal
        v0 = np.random.default_rng(0).uniform(0.5, 1.5, n)
        try:
            s, psi = eigsh(sym, k=k, which="LA", v0=v0, maxiter=_ARPACK_MAXITER)
            return s, psi, "arpack"
        except ArpackNoConvergence:
            pass
    try:
        s, psi = np.linalg.eigh(sym)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(f"eigen-decomposition failed: {exc}") from None
    return s, psi, "dense"


def diffusion_spectrum(data: DataMatrix, epsilon_dm: float, Q: int):
    """Leading eigenpairs of -L via its symmetric conjugate, at bandwidth epsilon_dm.

    Returns (eigenvalues, coordinates, solver): the Q smallest non-trivial
    eigenvalues of -L in ascending order, the matching unit eigenvectors as
    columns, and the eigensolver that ran ("arpack" or "dense").
    """
    if not 1 <= Q <= data.n_rows - 1:
        raise ValueError("Q must satisfy 1 <= Q <= N-1")
    # the kernel is normalised in place: K -> W = K / (d d^T) -> D^-1/2 W D^-1/2,
    # the symmetric conjugate of the transition matrix D^-1 W
    sym = kernel_matrix(data, epsilon_dm)
    d = sym.sum(axis=1)
    if np.any(d <= 0):
        raise DegenerateGeometryError("kernel has a zero row sum")
    # a row whose only non-zero entry is its unit diagonal is a component of its
    # own, so eigenvalue 1 is repeated; reject it before any eigensolve
    isolated = next((i for i in np.flatnonzero(d == 1.0) if np.count_nonzero(sym[i]) == 1),
                    None)
    if isolated is not None:
        raise DegenerateGeometryError(
            f"kernel graph is disconnected at epsilon_dm={epsilon_dm:.6g} "
            f"(point {isolated} has no neighbour); increase epsilon_dm"
        )
    _divide_by_outer(sym, d)
    row = sym.sum(axis=1)
    _divide_by_outer(sym, row, root=True)
    s, psi, solver = _leading_eigenpairs(sym, Q + 1)
    # s descending in the transition operator means mu = (1 - s)/eps^2 ascending.
    order = np.argsort(s)[::-1][: Q + 1]
    s = s[order]
    # a second eigenvalue at 1 means several connected components: the
    # "coordinates" would be arbitrary vectors of the degenerate eigenspace
    gap = 1.0 - s[1]
    if gap <= 1e-10:
        raise DegenerateGeometryError(
            f"kernel graph is numerically disconnected at epsilon_dm={epsilon_dm:.6g} "
            f"(spectral gap {gap:.2g} <= 1e-10); increase epsilon_dm"
        )
    # skip mu_0 = 0 (constant eigenvector); keep the next Q, ascending mu
    mu = (1.0 - s[1:]) / epsilon_dm**2
    coords = psi[:, order[1:]] / np.sqrt(row)[:, None]
    coords /= np.linalg.norm(coords, axis=0)
    # sign convention: first entry of non-negligible magnitude is positive (a
    # unit column always has one)
    lead = np.argmax(np.abs(coords) > 1e-12, axis=0)
    coords[:, coords[lead, np.arange(Q)] < 0] *= -1.0
    return mu, coords, solver


def local_covariance(coords: np.ndarray, i: int, epsilon_local: float) -> np.ndarray:
    """Neighborhood scatter matrix at point i, averaged over all N points."""
    if epsilon_local <= 0:
        raise ValueError("epsilon_local must be positive")
    diffs = coords[i] - coords
    mask = np.linalg.norm(diffs, axis=1) <= epsilon_local
    sel = diffs[mask]
    return sel.T @ sel / coords.shape[0]


def mean_local_eigenvalues(coords: np.ndarray, epsilon_local: float) -> np.ndarray:
    """Per-rank means of local-covariance eigenvalues, sorted descending."""
    covs = np.stack([local_covariance(coords, i, epsilon_local)
                     for i in range(coords.shape[0])])
    return np.linalg.eigvalsh(covs)[:, ::-1].mean(axis=0)


def estimate_dimension(mean_eigenvalues: np.ndarray, delta: float) -> int:
    """Literal eigenvalue-ratio rule K = max{k : lam[k+1]/lam[k] >= delta} over
    the descending mean local eigenvalues lam; falls back to 1 when no index
    qualifies."""
    lam = mean_eigenvalues
    if lam.size < 2:
        raise ValueError("need at least 2 embedding coordinates")
    if np.all(lam <= 0):
        raise DegenerateGeometryError("all mean local eigenvalues are zero")
    qualifying = [
        k + 1
        for k in range(lam.size - 1)
        if lam[k] > 0 and lam[k + 1] / lam[k] >= delta
    ]
    return max(qualifying) if qualifying else 1


def _check_pieces(n_pieces: int, n_rows: int) -> None:
    if n_pieces < 1:
        raise ValueError(f"the number of spline pieces must be at least 1, got {n_pieces}")
    if n_rows <= n_pieces + 2:
        raise ValueError(f"need more than L+2={n_pieces + 2} rows, got {n_rows}")


def anchor_residual_variance(column: np.ndarray, n_pieces: int) -> float:
    """Residual variance of a candidate anchor column.

    Ranks the column to u* = r/N, fits least squares on the intercept-plus-
    clamp basis, and returns RSS / (N - L - 2).
    """
    col = np.asarray(column, dtype=float).ravel()
    n = col.size
    _check_pieces(n_pieces, n)
    design = spline_design(rank_transform(col), n_pieces)
    coef, _, rank, _ = np.linalg.lstsq(design, col, rcond=None)
    if rank < design.shape[1]:
        raise np.linalg.LinAlgError("rank-deficient design in anchor regression")
    rss = float(np.sum((col - design @ coef) ** 2))
    return rss / (n - n_pieces - 2)


def anchor_set(coordinates: np.ndarray, n_pieces: int, source: str) -> AnchorSet:
    """The AnchorSet of the given anchor columns, each with its residual variance
    under an n_pieces-piece spline fit; source is "diffusion_map" or "external"."""
    coords = np.atleast_2d(np.asarray(coordinates, dtype=float))
    variances = np.array([anchor_residual_variance(col, n_pieces) for col in coords.T])
    return AnchorSet(coords, variances, source)


def run_pretraining(data: DataMatrix, cfg: DiffusionConfig,
                    n_pieces: int) -> tuple[AnchorSet, dict]:
    """Embed, estimate K, extract anchors and estimate their variances, once.

    Returns (AnchorSet, decisions). ``decisions`` records the configuration
    with both bandwidths as used (each default resolved here, once), the
    diffusion eigenvalues, the eigensolver that produced them, the mean local
    eigenvalues and their successor ratios (NaN after a non-positive one). An
    invalid ``n_pieces`` is rejected before the embedding starts.
    """
    _check_pieces(n_pieces, data.n_rows)
    eps_dm = cfg.epsilon_dm if cfg.epsilon_dm is not None else default_epsilon_dm(data)
    eigenvalues, coords, solver = diffusion_spectrum(data, eps_dm, cfg.Q)
    eps_local = (cfg.epsilon_local if cfg.epsilon_local is not None
                 else default_epsilon_local(coords))
    lam = mean_local_eigenvalues(coords, eps_local)
    k = estimate_dimension(lam, cfg.delta) + cfg.dimension_offset
    k = max(1, min(k, coords.shape[1]))
    decisions = {
        "config": asdict(replace(cfg, epsilon_dm=eps_dm, epsilon_local=eps_local)),
        "diffusion_eigenvalues": eigenvalues,
        "eigensolver": solver,
        "mean_local_eigenvalues": lam,
        "eigenvalue_ratios": np.divide(lam[1:], lam[:-1], out=np.full(lam.size - 1, np.nan),
                                       where=lam[:-1] > 0),
    }
    return anchor_set(coords[:, :k], n_pieces, "diffusion_map"), decisions
