"""Identifiability post-processing of posterior chains.

Per retained sample and per shared-location partition of the loading columns:
orthogonalize by a rotation, match columns and signs against a pivot sample,
rotate the latent mappings accordingly, then rescale columns to unit norm.
The product Lambda * g(u) is preserved throughout.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .model import eta
from .sampler import PosteriorChain


class DegenerateLoadingError(ValueError):
    """A loading column or partition is numerically degenerate."""


@dataclass(frozen=True)
class AlignmentReport:
    """Permutations and sign flips applied per sample and partition."""

    pivot_index: int
    permutations: tuple       # permutations[m][k]: new col j came from old col perm[j]
    sign_flips: tuple         # sign_flips[m][k]: +-1 per column after permutation
    ties: tuple = ()          # (sample, partition) pairs where matching tied


def varimax_rotation(block: np.ndarray, max_iter: int = 200, tol: float = 1e-10) -> np.ndarray:
    """Orthogonal varimax rotation matrix for a P x m loading block."""
    p, m = block.shape
    rot = np.eye(m)
    if m < 2:
        return rot
    var_old = 0.0
    for _ in range(max_iter):
        lam = block @ rot
        grad = block.T @ (lam**3 - lam * (np.sum(lam**2, axis=0) / p))
        u, s, vt = np.linalg.svd(grad)
        rot = u @ vt
        var_new = float(np.sum(s))
        if var_new <= var_old * (1 + tol):
            break
        var_old = var_new
    return rot


def orthogonalize_partition(lambda_block: np.ndarray):
    """Rotate a partition so its columns are mutually orthogonal.

    Varimax first, then the right singular vectors of the rotated block finish
    the orthogonalization. Returns (rotated block, orthogonal R).
    """
    block = np.atleast_2d(np.asarray(lambda_block, dtype=float))
    p, m = block.shape
    sv = np.linalg.svd(block, compute_uv=False)
    if sv.size < m or sv[-1] <= 1e-12 * max(sv[0], 1.0):
        raise DegenerateLoadingError("partition is rank deficient")
    r1 = varimax_rotation(block)
    _, _, vt = np.linalg.svd(block @ r1, full_matrices=False)
    rot = r1 @ vt.T
    # deterministic convention: columns come out in descending-norm order
    # (the SVD guarantees that); flip each so its largest-|entry| is positive
    out = block @ rot
    for j in range(m):
        i = int(np.argmax(np.abs(out[:, j])))
        if out[i, j] < 0:
            rot[:, j] = -rot[:, j]
            out[:, j] = -out[:, j]
    return out, rot


def _greedy_match(pivot_block: np.ndarray, block: np.ndarray, tol: float = 1e-12):
    """Greedy column matching by maximal absolute inner product.

    Returns (perm, signs, tied): column j of the aligned block is
    signs[j] * block[:, perm[j]].
    """
    m = block.shape[1]
    inner = pivot_block.T @ block
    score = np.abs(inner).astype(float)
    perm = np.empty(m, dtype=int)
    signs = np.empty(m)
    tied = False
    for _ in range(m):
        best = np.max(score)
        i, j = np.unravel_index(np.argmax(score), score.shape)
        # ambiguous only if another candidate in the same row or column ties
        row_ties = np.sum(np.isclose(score[i, :], best, rtol=0.0, atol=tol))
        col_ties = np.sum(np.isclose(score[:, j], best, rtol=0.0, atol=tol))
        if max(row_ties, col_ties) > 1:
            tied = True
        perm[i] = j
        signs[i] = 1.0 if inner[i, j] >= 0 else -1.0
        score[i, :] = -np.inf
        score[:, j] = -np.inf
    return perm, signs, tied


def match_align(chain: PosteriorChain):
    """Orthogonalize every partition of every sample and align to a pivot.

    The pivot is the retained sample with the highest joint log posterior.
    Returns (aligned chain, AlignmentReport).
    """
    pivot_index = int(np.argmax(chain.diagnostics.log_posterior_trace))
    k0 = chain.assignment.zero_based
    # factor indices grouped by shared latent location
    parts = [np.flatnonzero(k0 == k) for k in range(chain.assignment.n_locations)]
    pivot_blocks = [orthogonalize_partition(chain.loadings[pivot_index][:, idx])[0]
                    for idx in parts]
    lam = chain.loadings.copy()
    coef = chain.spline_coefficients.copy()
    permutations, sign_flips, ties = [], [], []
    for m in range(len(chain)):
        perms_m, signs_m = [], []
        for k, idx in enumerate(parts):
            _, r_orth = orthogonalize_partition(lam[m][:, idx])
            block = lam[m][:, idx] @ r_orth
            perm, signs, tied = _greedy_match(pivot_blocks[k], block)
            if tied:
                ties.append((m, k))
            # aligned column j = signs[j] * block[:, perm[j]]
            pmat = np.zeros((idx.size, idx.size))
            pmat[perm, np.arange(idx.size)] = signs
            rot = r_orth @ pmat
            lam[m][:, idx] = lam[m][:, idx] @ rot
            coef[m][:, idx] = coef[m][:, idx] @ rot
            perms_m.append(perm.copy())
            signs_m.append(signs.copy())
        permutations.append(tuple(perms_m))
        sign_flips.append(tuple(signs_m))

    report = AlignmentReport(
        pivot_index=pivot_index,
        permutations=tuple(permutations),
        sign_flips=tuple(sign_flips),
        ties=tuple(ties),
    )
    return replace(chain, loadings=lam, spline_coefficients=coef), report


def normalize_columns(loadings: np.ndarray, spline_coefficients: np.ndarray):
    """Scale each loading column to unit norm, moving the norm into its mapping.

    Works on one draw (P x H and (L+1) x H) or a stack of draws (M x P x H and
    M x (L+1) x H). Returns the new (loadings, spline coefficients).
    """
    norms = np.linalg.norm(loadings, axis=-2, keepdims=True)
    if np.any(norms <= 0):
        raise DegenerateLoadingError("cannot normalize a zero loading column")
    return loadings / norms, spline_coefficients * norms


def postprocess_chain(chain: PosteriorChain):
    """Full identifiability pipeline: align, then normalize every sample."""
    aligned, report = match_align(chain)
    lam, coef = normalize_columns(aligned.loadings, aligned.spline_coefficients)
    return replace(aligned, loadings=lam, spline_coefficients=coef), report


def mappings_on_grid(chain: PosteriorChain, grid: np.ndarray) -> np.ndarray:
    """Every draw's mappings g_h evaluated on a 1-d u-grid: M x len(grid) x H."""
    grid_u = np.repeat(grid[:, None], chain.assignment.n_locations, axis=1)
    return np.stack([eta(c, grid_u, chain.assignment) for c in chain.spline_coefficients])


def summarize(chain: PosteriorChain, n_grid: int = 101, level: float = 0.90):
    """Posterior means and central credible intervals for the aligned chain.

    Mappings are summarized by evaluating each sample's splines on a uniform
    grid of ``n_grid`` points. Returns a dict of arrays.
    """
    lo_q, hi_q = (1 - level) / 2, 1 - (1 - level) / 2
    grid = np.linspace(0.0, 1.0, n_grid)
    def stats(arr):
        return (
            arr.mean(axis=0),
            np.quantile(arr, lo_q, axis=0),
            np.quantile(arr, hi_q, axis=0),
        )
    lam_mean, lam_lo, lam_hi = stats(chain.loadings)
    sig_mean, sig_lo, sig_hi = stats(chain.residual_variances)
    g_mean, g_lo, g_hi = stats(mappings_on_grid(chain, grid))
    return {
        "u_grid": grid,
        "loadings_mean": lam_mean, "loadings_lower": lam_lo, "loadings_upper": lam_hi,
        "variances_mean": sig_mean, "variances_lower": sig_lo, "variances_upper": sig_hi,
        "mappings_mean": g_mean, "mappings_lower": g_lo, "mappings_upper": g_hi,
    }
