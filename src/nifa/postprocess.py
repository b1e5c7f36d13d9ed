"""Identifiability post-processing of posterior chains.

Per retained sample and per shared-location partition of the loading columns:
orthogonalize by a rotation, match columns and signs against a pivot sample,
rotate the latent mappings accordingly, then rescale columns to unit norm.
The product Lambda * g(u) is preserved throughout.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .model import DegenerateLoadingError, PosteriorChain, eta, quantile_of_sorted


U_GRID = np.linspace(0.0, 1.0, 101)  # summaries and the model-mean check evaluate g here
U_GRID.flags.writeable = False
CREDIBLE_LEVEL = 0.90
TIE_TOL = 1e-12  # column-matching scores this close count as a tie


@dataclass(frozen=True)
class AlignmentReport:
    """Permutations and sign flips applied per sample and partition."""

    pivot_index: int
    permutations: tuple       # permutations[m][k]: new col j came from old col perm[j]
    sign_flips: tuple         # sign_flips[m][k]: +-1 per column after permutation
    ties: tuple = ()          # (sample, partition) pairs where matching tied


def orthogonalize_partition(lambda_block: np.ndarray):
    """Rotate a partition so its columns are mutually orthogonal.

    With the thin SVD B = U S V^T, the rotated block is B V = U S: orthogonal
    columns in descending-norm order, each flipped so its largest-|entry| is
    positive. It is the same for B and any rotation B R of it, unless singular
    values tie. Takes one P x m block or an M x P x m stack of draws and returns
    (rotated block, orthogonal V) of the same leading shape.
    """
    block = np.atleast_2d(np.asarray(lambda_block, dtype=float))
    u, s, vt = np.linalg.svd(block, full_matrices=False)
    m = block.shape[-1]
    if s.shape[-1] < m or np.any(s[..., -1] <= 1e-12 * np.maximum(s[..., 0], 1.0)):
        raise DegenerateLoadingError("partition is rank deficient")
    out = u * s[..., None, :]
    peak = np.take_along_axis(out, np.argmax(np.abs(out), axis=-2)[..., None, :], axis=-2)
    signs = np.where(peak < 0, -1.0, 1.0)
    return out * signs, np.swapaxes(vt, -1, -2) * signs


def _greedy_match(pivot_block: np.ndarray, block: np.ndarray):
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
        # best is finite, so a masked -inf entry is never within TIE_TOL of it
        row_ties = np.count_nonzero(np.abs(score[i, :] - best) <= TIE_TOL)
        col_ties = np.count_nonzero(np.abs(score[:, j] - best) <= TIE_TOL)
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
    # factor indices grouped by shared latent location, each orthogonalized over all draws
    parts = [np.flatnonzero(k0 == k) for k in range(chain.assignment.n_locations)]
    ortho = [orthogonalize_partition(chain.loadings[:, :, idx]) for idx in parts]
    lam = chain.loadings.copy()
    coef = chain.spline_coefficients.copy()
    permutations, sign_flips, ties = [], [], []
    for m in range(len(chain)):
        perms_m, signs_m = [], []
        for k, (idx, (blocks, rots)) in enumerate(zip(parts, ortho)):
            perm, signs, tied = _greedy_match(blocks[pivot_index], blocks[m])
            if tied:
                ties.append((m, k))
            # aligned column j = signs[j] * block[:, perm[j]]
            lam[m][:, idx] = blocks[m][:, perm] * signs
            coef[m][:, idx] = coef[m][:, idx] @ (rots[m][:, perm] * signs)
            perms_m.append(perm)
            signs_m.append(signs)
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


def summarize(chain: PosteriorChain):
    """Posterior means and central CREDIBLE_LEVEL intervals for the aligned chain.

    Mappings are summarized by evaluating each sample's splines on U_GRID.
    Returns a dict of arrays.
    """
    lo_q, hi_q = (1 - CREDIBLE_LEVEL) / 2, 1 - (1 - CREDIBLE_LEVEL) / 2
    def stats(arr):
        draws = np.sort(arr, axis=0)
        return arr.mean(axis=0), quantile_of_sorted(draws, lo_q), quantile_of_sorted(draws, hi_q)
    lam_mean, lam_lo, lam_hi = stats(chain.loadings)
    sig_mean, sig_lo, sig_hi = stats(chain.residual_variances)
    g_mean, g_lo, g_hi = stats(mappings_on_grid(chain, U_GRID))
    return {
        "u_grid": U_GRID,
        "loadings_mean": lam_mean, "loadings_lower": lam_lo, "loadings_upper": lam_hi,
        "variances_mean": sig_mean, "variances_lower": sig_lo, "variances_upper": sig_hi,
        "mappings_mean": g_mean, "mappings_lower": g_lo, "mappings_upper": g_hi,
    }
