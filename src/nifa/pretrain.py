"""Diffusion-map pretraining: spectral embedding, intrinsic-dimension estimation,
anchor-column extraction, and anchor residual-variance estimation."""

from __future__ import annotations

import math
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import asdict, replace

import numpy as np

from .model import (AnchorSet, DataMatrix, DiffusionConfig, rank_transform, spline_design,
                    usable_cpus)


class DegenerateGeometryError(RuntimeError):
    """The kernel or local-covariance structure is degenerate."""


# one row block of a pairwise computation holds about this many entries (~0.5 MB),
# so its temporaries stay in cache and allocate no N x N array
_BLOCK_ENTRIES = 1 << 16


def _row_blocks(n: int, multiple: int = 1):
    """(lo, hi) bounds of consecutive row blocks of an n x n computation, each
    but the last a multiple of `multiple` rows high."""
    step = -(-max(1, _BLOCK_ENTRIES // n) // multiple) * multiple
    for lo in range(0, n, step):
        yield lo, min(lo + step, n)


class _Threads:
    """The calling thread and one pool thread per further usable CPU, sharing
    the row blocks of each pass. It is opened in a with-block around the passes
    of one public call, so no thread outlives the call; the pool threads run
    private helpers only."""

    def __init__(self):
        self._helpers = usable_cpus() - 1
        self._pool = ThreadPoolExecutor(self._helpers) if self._helpers else None

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        if self._pool is not None:
            self._pool.shutdown()

    def each_block(self, fn, n: int, multiple: int = 1) -> None:
        """fn(lo, hi) for every block of _row_blocks(n, multiple), each on
        whichever thread is free. The blocks do not depend on the thread count
        and each call writes rows of its own, so neither does the result;
        numpy releases the interpreter lock inside each block."""
        blocks = list(_row_blocks(n, multiple))
        todo = iter(blocks)
        lock = threading.Lock()

        def work():
            while True:
                with lock:
                    block = next(todo, None)
                if block is None:
                    return
                fn(*block)

        helpers = [self._pool.submit(work) for _ in range(min(self._helpers, len(blocks) - 1))]
        try:
            work()
        finally:
            wait(helpers)
        for helper in helpers:
            helper.result()


def _squared_distances(points_t: np.ndarray, rows: slice, cols: slice = slice(None),
                       out: np.ndarray | None = None) -> np.ndarray:
    """Squared distances from the points in rows (one row each) to those in cols.

    ``points_t`` is feature-major (features x points). The squares are summed
    feature by feature, the order scipy's pdist sums them in, so each entry is
    bitwise its "sqeuclidean" distance and a pair gives the same value both ways.
    """
    a, b = points_t[:, rows], points_t[:, cols]
    sq = np.subtract(a[0, :, None], b[0], out=out)
    sq *= sq
    diff = np.empty_like(sq)
    for a_f, b_f in zip(a[1:], b[1:]):
        np.subtract(a_f[:, None], b_f, out=diff)
        diff *= diff
        sq += diff
    return sq


def _pairwise_distances(points: np.ndarray) -> np.ndarray:
    """Euclidean distances of all pairs of points, each bitwise the one scipy's
    ``pdist(points)`` gives, in an order of their own."""
    points_t = np.ascontiguousarray(np.asarray(points, dtype=float).T)
    n = points_t.shape[1]
    out = np.empty(n * (n - 1) // 2)

    def block(lo, hi):
        # the pairs (i, j) with lo <= i < hi and i < j, stored after the pairs
        # of the points before lo: first those within the block, then those
        # with the points after it
        start = at = lo * n - lo * (lo + 1) // 2
        within = _squared_distances(points_t, slice(lo, hi), slice(lo, hi))
        within = within[np.triu_indices(hi - lo, 1)]
        out[at : at + within.size] = within
        at += within.size
        later = out[at : at + (hi - lo) * (n - hi)].reshape(hi - lo, n - hi)
        _squared_distances(points_t, slice(lo, hi), slice(hi, None), out=later)
        at += later.size
        np.sqrt(out[start:at], out=out[start:at])

    with _Threads() as threads:
        threads.each_block(block, n)
    return out


def kernel_matrix(data: DataMatrix, epsilon_dm: float) -> np.ndarray:
    """Gaussian affinity exp(-||x_i - x_j||^2 / eps^2); symmetric, unit diagonal."""
    if epsilon_dm <= 0:
        raise ValueError("epsilon_dm must be positive")
    x_t = np.ascontiguousarray(data.values.T)
    n = data.n_rows
    kern = np.empty((n, n))

    def block(lo, hi):
        rows = _squared_distances(x_t, slice(lo, hi), out=kern[lo:hi])
        np.divide(rows, -epsilon_dm**2, out=rows)
        np.exp(rows, out=rows)

    with _Threads() as threads:
        threads.each_block(block, n)
    return kern


def _adjacent_order_statistics(d: np.ndarray, lo: int):
    """The order statistics lo and lo + 1 of the distances d (lo twice when it
    is the last), by one partition at lo and the minimum of the part above it.
    Reorders d."""
    d.partition(lo)
    return d[lo], (d[lo + 1 :].min() if lo + 1 < d.size else d[lo])


def default_epsilon_dm(data: DataMatrix) -> float:
    """Median of pairwise distances.

    Bitwise ``np.median(d)``: the middle order statistic of an odd count, else
    the mean (a + b) / 2 of the two middle ones.
    """
    d = _pairwise_distances(data.values)
    a, b = _adjacent_order_statistics(d, (d.size - 1) // 2)
    med = float(a if d.size % 2 else (a + b) / 2)
    if med <= 0:
        raise DegenerateGeometryError("median pairwise distance is zero")
    return med


def default_epsilon_local(coords: np.ndarray) -> float:
    """10th percentile of pairwise distances among embedded coordinates.

    Bitwise ``np.quantile(d, 0.10)``: its linear rule interpolates between the
    order statistics lo and lo + 1 at virtual index (m - 1) * 0.10.
    """
    d = _pairwise_distances(coords)
    at = (d.size - 1) * 0.10
    lo = math.floor(at)
    t = at - lo
    a, b = _adjacent_order_statistics(d, lo)
    # numpy's _lerp, which interpolates back from b when t >= 0.5
    q = float(a + (b - a) * t if t < 0.5 else b - (b - a) * (1 - t))
    if q <= 0:
        raise DegenerateGeometryError("local radius collapsed to zero")
    return q


# the kernel graph counts as disconnected when 1 - s_1 <= _GAP_TOL, s_1 the largest
# eigenvalue of the normalised kernel after the trivial s_0 = 1
_GAP_TOL = 1e-10
# Lanczos builds a Krylov space of dimension _KRYLOV_START and doubles it until
# every wanted Ritz residual is below _RITZ_TOL. Well-connected kernels converge
# at 40 and swiss rolls at 80. A near-disconnected kernel (N(0, I_3) data,
# N=3200, epsilon_dm=0.05) still has residuals of ~1e-4 at 320, so past
# _KRYLOV_MAX the dense eigh runs instead.
_KRYLOV_START = 40
_KRYLOV_MAX = 160
_RITZ_TOL = 1e-10
# the Lanczos matvec cuts the matrix into blocks of a multiple of this many rows.
# A cut at a multiple of 64 rows keeps every bit of the whole product (OpenBLAS's
# dgemv gives some rows other last bits when cut elsewhere), and numpy releases
# the interpreter lock in a matrix-vector product only above 500 result rows.
_MATVEC_ROWS = 512


def _row_sums(matrix: np.ndarray, threads: _Threads) -> np.ndarray:
    """matrix.sum(axis=1), row block by row block; bitwise the same."""
    sums = np.empty(matrix.shape[0])
    threads.each_block(lambda lo, hi: np.sum(matrix[lo:hi], axis=1, out=sums[lo:hi]),
                       sums.size)
    return sums


def _divide_by_outer(matrix: np.ndarray, v: np.ndarray, threads: _Threads,
                     root: bool = False, sums: np.ndarray | None = None) -> None:
    """In place, matrix /= outer(v, v) (or its square root), row block by row
    block; bitwise the same as the whole-matrix expression. A given ``sums``
    receives the row sums of the result, each taken while its block is in cache."""

    def block(lo, hi):
        outer = np.outer(v[lo:hi], v)
        rows = matrix[lo:hi]
        rows /= np.sqrt(outer, out=outer) if root else outer
        if sums is not None:
            np.sum(rows, axis=1, out=sums[lo:hi])

    threads.each_block(block, v.size)


def _matvec(matrix: np.ndarray, v: np.ndarray, threads: _Threads) -> np.ndarray:
    """matrix @ v, row block by row block; bitwise the same."""
    out = np.empty(matrix.shape[0])
    threads.each_block(lambda lo, hi: np.matmul(matrix[lo:hi], v, out=out[lo:hi]),
                       out.size, _MATVEC_ROWS)
    return out


def _project_out(w: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """In place, w minus its projection on the orthonormal rows of basis, by
    classical Gram-Schmidt applied twice; returns the coefficients removed."""
    coef = basis @ w
    w -= coef @ basis
    again = basis @ w
    w -= again @ basis
    return coef + again


def _lanczos(sym: np.ndarray, k: int, top: np.ndarray, threads: _Threads):
    """The k largest eigenpairs of sym on the orthogonal complement of its unit
    eigenvector top, as (values descending, vectors as columns), or None.

    Lanczos with full reorthogonalization from a fixed start vector; every new
    vector is made orthogonal to top as well, so a second eigenvalue at 1 (a
    second connected component) is found like any other. It returns early once
    the leading Ritz value is within _GAP_TOL of 1: a Ritz value never exceeds
    the eigenvalue it approximates, so the spectral gap is closed whatever the
    residuals. None means no convergence within _KRYLOV_MAX steps, or a Krylov
    space that closed on fewer than k vectors.
    """
    n = sym.shape[0]
    limit = min(_KRYLOV_MAX, n - 1)
    # row 0 holds top, rows 1.. the Lanczos vectors
    basis = np.empty((limit + 2, n))
    basis[0] = top
    # a fixed start vector keeps the result deterministic; not the all-ones
    # vector, which is the trivial eigenvector when the row sums are equal
    w = np.random.default_rng(0).uniform(0.5, 1.5, n)
    _project_out(w, basis[:1])
    basis[1] = w / np.linalg.norm(w)
    alpha, beta = np.zeros(limit), np.zeros(limit)
    m, size, closed = 0, _KRYLOV_START, False
    while True:
        while m < min(size, limit) and not closed:
            w = _matvec(sym, basis[m + 1], threads)
            alpha[m] = _project_out(w, basis[: m + 2])[m + 1]
            beta[m] = np.linalg.norm(w)
            m += 1
            # a vanishing beta means the Krylov space is invariant: no next vector
            closed = beta[m - 1] < _RITZ_TOL
            if not closed:
                basis[m + 1] = w / beta[m - 1]
        if m >= k:
            tri = np.diag(alpha[:m]) + np.diag(beta[: m - 1], 1) + np.diag(beta[: m - 1], -1)
            theta, y = np.linalg.eigh(tri)
            theta, y = theta[::-1][:k], y[:, ::-1][:, :k]
            residual = beta[m - 1] * np.abs(y[m - 1])
            if np.all(residual < _RITZ_TOL) or theta[0] >= 1.0 - _GAP_TOL:
                return theta, basis[1 : m + 1].T @ y
        if closed or m == limit:
            return None
        size *= 2


def _leading_eigenpairs(sym: np.ndarray, k: int, top: np.ndarray, threads: _Threads):
    """The k largest eigenpairs of a symmetric matrix whose largest eigenvalue is
    1 with unit eigenvector top, as (values, vectors, solver): Lanczos on top's
    orthogonal complement ("lanczos"), otherwise dense eigh ("dense")."""
    if k < sym.shape[0]:
        pairs = _lanczos(sym, k - 1, top, threads)
        if pairs is not None:
            s, psi = pairs
            return np.concatenate([[1.0], s]), np.column_stack([top, psi]), "lanczos"
    try:
        s, psi = np.linalg.eigh(sym)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(f"eigen-decomposition failed: {exc}") from None
    return s, psi, "dense"


def diffusion_spectrum(data: DataMatrix, epsilon_dm: float, Q: int):
    """Leading eigenpairs of -L via its symmetric conjugate, at bandwidth epsilon_dm.

    Returns (eigenvalues, coordinates, solver): the Q smallest non-trivial
    eigenvalues of -L in ascending order, the matching unit eigenvectors as
    columns, and the eigensolver that ran ("lanczos" or "dense").
    """
    if not 1 <= Q <= data.n_rows - 1:
        raise ValueError("Q must satisfy 1 <= Q <= N-1")
    # the kernel is normalised in place: K -> W = K / (d d^T) -> D^-1/2 W D^-1/2,
    # the symmetric conjugate of the transition matrix D^-1 W
    sym = kernel_matrix(data, epsilon_dm)
    with _Threads() as threads:
        d = _row_sums(sym, threads)
        if np.any(d <= 0):
            raise DegenerateGeometryError("kernel has a zero row sum")
        # a row whose only non-zero entry is its unit diagonal is a component of
        # its own, so eigenvalue 1 is repeated; reject it before any eigensolve
        isolated = next((i for i in np.flatnonzero(d == 1.0) if np.count_nonzero(sym[i]) == 1),
                        None)
        if isolated is not None:
            raise DegenerateGeometryError(
                f"kernel graph is disconnected at epsilon_dm={epsilon_dm:.6g} "
                f"(point {isolated} has no neighbour); increase epsilon_dm"
            )
        row = np.empty_like(d)
        _divide_by_outer(sym, d, threads, sums=row)
        _divide_by_outer(sym, row, threads, root=True)
        # sym sqrt(row) = sqrt(row): the trivial pair of the conjugate, known exactly
        root = np.sqrt(row)
        s, psi, solver = _leading_eigenpairs(sym, Q + 1, root / np.linalg.norm(root), threads)
    # s descending in the transition operator means mu = (1 - s)/eps^2 ascending.
    order = np.argsort(s)[::-1][: Q + 1]
    s = s[order]
    # a second eigenvalue at 1 means several connected components: the
    # "coordinates" would be arbitrary vectors of the degenerate eigenspace
    gap = 1.0 - s[1]
    if gap <= _GAP_TOL:
        raise DegenerateGeometryError(
            f"kernel graph is numerically disconnected at epsilon_dm={epsilon_dm:.6g} "
            f"(spectral gap {gap:.2g} <= {_GAP_TOL:.0e}); increase epsilon_dm"
        )
    # skip mu_0 = 0 (constant eigenvector); keep the next Q, ascending mu
    mu = (1.0 - s[1:]) / epsilon_dm**2
    coords = psi[:, order[1:]] / root[:, None]
    coords /= np.linalg.norm(coords, axis=0)
    # sign convention: first entry of non-negligible magnitude is positive (a
    # unit column always has one)
    lead = np.argmax(np.abs(coords) > 1e-12, axis=0)
    coords[:, coords[lead, np.arange(Q)] < 0] *= -1.0
    return mu, coords, solver


def mean_local_eigenvalues(coords: np.ndarray, epsilon_local: float) -> np.ndarray:
    """Per-rank means of local-covariance eigenvalues, sorted descending.

    Point i's local covariance is the scatter sum (c_i - c_j)(c_i - c_j)^T over
    its neighbours j (the points within epsilon_local), divided by N. It comes
    from three sums over the neighbours, taken for a row block of points at
    once: the count n_i, s_i = sum c_j and S_i = sum c_j c_j^T give
    n_i c_i c_i^T - c_i s_i^T - s_i c_i^T + S_i.
    """
    if epsilon_local <= 0:
        raise ValueError("epsilon_local must be positive")
    coords = np.asarray(coords, dtype=float)
    n, q = coords.shape
    coords_t = np.ascontiguousarray(coords.T)
    # the scatter does not move with the origin; centring keeps the sums small
    c = coords - coords.mean(axis=0)
    # a neighbour j contributes 1, c_j and the upper triangle of the symmetric
    # c_j c_j^T: one product gives all sums
    upper = np.triu_indices(q)
    terms = np.column_stack([np.ones(n), c, c[:, upper[0]] * c[:, upper[1]]])
    eigenvalues = np.empty((n, q))

    def block(lo, hi):
        near = np.sqrt(_squared_distances(coords_t, slice(lo, hi))) <= epsilon_local
        # einsum sums without BLAS, so the sums do not depend on its thread count
        sums = np.einsum("ij,jk->ik", near.astype(float), terms)
        count, first = sums[:, 0, None, None], sums[:, 1 : q + 1]
        second = np.empty((hi - lo, q, q))
        second[:, upper[0], upper[1]] = second[:, upper[1], upper[0]] = sums[:, q + 1 :]
        own = c[lo:hi]
        cross = own[:, :, None] * first[:, None, :]
        covs = (count * own[:, :, None] * own[:, None, :] - cross
                - cross.transpose(0, 2, 1) + second)
        covs /= n
        eigenvalues[lo:hi] = np.linalg.eigvalsh(covs)

    with _Threads() as threads:
        threads.each_block(block, n)
    return eigenvalues[:, ::-1].mean(axis=0)


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
