"""Split-R-hat and bulk/tail effective sample size.

Follows Vehtari, Gelman, Simpson, Carpenter & Buerkner (2021), "Rank-
normalization, folding, and localization: an improved R-hat for assessing
convergence of MCMC" (Bayesian Analysis): chains are split in half, draws are
rank-normalized, and the autocorrelation sum is truncated with Geyer's (1992)
initial monotone sequence. Every function takes a (chains, draws) array.
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtri
from scipy.stats import rankdata


def split_chains(x: np.ndarray) -> np.ndarray:
    """Each chain's first and last halves as separate chains (odd middle dropped)."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    half = x.shape[1] // 2
    return np.vstack([x[:, :half], x[:, x.shape[1] - half:]])


def rank_normalize(x: np.ndarray) -> np.ndarray:
    """Normal scores of the pooled average ranks, (r - 3/8) / (S + 1/4)."""
    ranks = rankdata(x, method="average").reshape(x.shape)
    return ndtri((ranks - 0.375) / (x.size + 0.25))


def _autocovariance(x: np.ndarray) -> np.ndarray:
    """Biased per-chain autocovariance at every lag, by FFT."""
    n = x.shape[1]
    centred = x - x.mean(axis=1, keepdims=True)
    size = 1 << (2 * n - 1).bit_length()
    f = np.fft.rfft(centred, size, axis=1)
    return np.fft.irfft(f * np.conj(f), size, axis=1)[:, :n] / n


def ess(x: np.ndarray) -> float:
    """Multi-chain ESS of the draws as given (no splitting or normalization)."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    m, n = x.shape
    if n < 4:
        raise ValueError("need at least 4 draws per chain")
    acov = _autocovariance(x).mean(axis=0)
    within = acov[0] * n / (n - 1)
    var_plus = acov[0] + (np.var(x.mean(axis=1), ddof=1) if m > 1 else 0.0)
    if var_plus <= 0:
        return float(m * n)  # constant draws carry no autocorrelation
    rho = 1.0 - (within - acov) / var_plus
    rho[0] = 1.0
    # Geyer's initial positive sequence: sum lag pairs while their sum is positive
    pairs = rho[: n - n % 2].reshape(-1, 2).sum(axis=1)
    stop = int(np.argmax(pairs <= 0)) if np.any(pairs <= 0) else pairs.size
    # initial monotone sequence: pair sums may not increase
    pairs = np.minimum.accumulate(pairs[:stop])
    tau = max(-1.0 + 2.0 * float(pairs.sum()), 1.0 / np.log10(m * n))
    return float(m * n / tau)


def bulk_ess(x: np.ndarray) -> float:
    """ESS of the rank-normalized split chains."""
    return ess(rank_normalize(split_chains(x)))


def tail_ess(x: np.ndarray) -> float:
    """Smaller ESS of the 5% and 95% quantile indicators on split chains."""
    s = split_chains(x)
    lo, hi = np.quantile(s, [0.05, 0.95])
    return min(ess((s <= lo).astype(float)), ess((s <= hi).astype(float)))


def _rhat(x: np.ndarray) -> float:
    n = x.shape[1]
    within = np.mean(np.var(x, axis=1, ddof=1))
    between = n * np.var(x.mean(axis=1), ddof=1)
    if within <= 0:
        return 1.0
    return float(np.sqrt(((n - 1) / n * within + between / n) / within))


def split_rhat(x: np.ndarray) -> float:
    """Rank-normalized split-R-hat: the larger of the bulk and folded values."""
    s = split_chains(x)
    folded = np.abs(s - np.median(s))
    return max(_rhat(rank_normalize(s)), _rhat(rank_normalize(folded)))


def ar1_chains(rho: float, chains: int, draws: int, rng: np.random.Generator) -> np.ndarray:
    """Stationary unit-variance AR(1) chains; their ESS is n (1 - rho) / (1 + rho)."""
    eps = rng.standard_normal((chains, draws)) * np.sqrt(1.0 - rho**2)
    x = np.empty((chains, draws))
    x[:, 0] = rng.standard_normal(chains)
    for t in range(1, draws):
        x[:, t] = rho * x[:, t - 1] + eps[:, t]
    return x


def self_check(rng: np.random.Generator) -> list[str]:
    """Check the estimators on AR(1) chains; returns failure messages."""
    failures = []
    chains, draws = 4, 8000
    for rho in (0.0, 0.5, 0.8):
        x = ar1_chains(rho, chains, draws, rng)
        expected = chains * draws * (1 - rho) / (1 + rho)
        bulk, tail = bulk_ess(x), tail_ess(x)
        if abs(bulk / expected - 1) > 0.2:
            failures.append(f"bulk ESS {bulk:.0f} vs AR(1) {expected:.0f} at rho={rho}")
        # an indicator's autocorrelation lies between 0 and the chain's own
        if not 0.8 * expected < tail < 1.2 * chains * draws:
            failures.append(f"tail ESS {tail:.0f} outside AR(1) bounds at rho={rho}")
        if split_rhat(x) > 1.02:
            failures.append(f"split-R-hat {split_rhat(x):.4f} on stationary AR(1) rho={rho}")
    shifted = ar1_chains(0.5, chains, draws, rng) + np.arange(chains)[:, None]
    if split_rhat(shifted) < 1.1:
        failures.append("split-R-hat missed chains with different means")
    return failures
