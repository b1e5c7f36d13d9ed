"""MALA-within-Gibbs posterior sampling.

Block order per sweep: factor loadings (conjugate Gaussian rows), residual
variances (conjugate inverse-Gamma, anchor features held fixed), spline
coefficients (joint Gaussian truncated to non-negative slopes), latent
locations (Langevin-proposal Metropolis-Hastings under the uniform-constraint
prior), and half-Cauchy shrinkage scales (auxiliary inverse-Gamma expansion).

The sweep runs on plain arrays: loadings Lambda (P x H), the (L+1) x H spline
coefficient matrix (row 0 the intercepts), latent locations U (N x K), residual
variances sigma^2 (P), local scales gamma (P x H) and the global scale tau.
Each block takes the arrays it reads and returns the ones it updates.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

from .model import (
    DataMatrix,
    DomainError,
    FactorAssignment,
    Hyperparameters,
    ShapeError,
    eta,
    log_likelihood,
    rank_transform,
    spline_design,
    spline_piece,
)
from .pretrain import AnchorSet

MALA_TARGET_ACCEPTANCE = 0.574
SPLINE_GIBBS_SWEEPS = 2


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
        from .model import NiftyState, PiecewiseLinearMap

        return tuple(
            NiftyState(lam, tuple(PiecewiseLinearMap(col[0], col[1:]) for col in c.T),
                       u, sig, gam, tau, self.assignment)
            for lam, c, u, sig, gam, tau in zip(*(getattr(self, n) for n in CHAIN_ARRAYS))
        )

    def __len__(self) -> int:
        return self.global_scale.shape[0]


def uniform_penalty(u_col: np.ndarray) -> float:
    """Squared order-statistic distance to the uniform grid i/N."""
    u = np.asarray(u_col, dtype=float).ravel()
    if np.any(u < 0) or np.any(u > 1):
        raise DomainError("latent locations must lie in [0,1]")
    n = u.size
    grid = np.arange(1, n + 1) / n
    return float(np.sum((np.sort(u, kind="stable") - grid) ** 2))


def uniform_penalty_gradient(u_col: np.ndarray) -> np.ndarray:
    """Gradient of uniform_penalty: 2 (u_i - rank_i / N), stable-sort ranks."""
    u = np.asarray(u_col, dtype=float).ravel()
    return 2.0 * (u - rank_transform(u))


def loadings_posterior(
    eta: np.ndarray,
    residual_variances: np.ndarray,
    prior_variances: np.ndarray,
    data: DataMatrix,
):
    """Posterior means (P x H) of all loadings rows and the lower Cholesky
    factors (P x H x H) of their precisions, given the N x H factors ``eta``
    and the P x H prior variances tau * gamma. The rows are independent."""
    h = eta.shape[1]
    prec = (eta.T @ eta) / residual_variances[:, None, None]
    prec[:, np.arange(h), np.arange(h)] += 1.0 / prior_variances
    try:
        chol = np.linalg.cholesky(prec)
    except np.linalg.LinAlgError:
        for j, prec_j in enumerate(prec):
            try:
                np.linalg.cholesky(prec_j)
            except np.linalg.LinAlgError:
                raise np.linalg.LinAlgError(
                    f"loadings posterior precision for row {j} is not positive definite"
                ) from None
        raise
    # right-hand sides as (P, H, 1) stacks: prec_j mean_j = eta^T x_j / sigma_j
    rhs = (data.values.T @ eta / residual_variances[:, None])[..., None]
    chol_t = np.swapaxes(chol, 1, 2)
    mean = np.linalg.solve(chol_t, np.linalg.solve(chol, rhs))[..., 0]
    return mean, chol


def sample_loadings(
    eta: np.ndarray,
    residual_variances: np.ndarray,
    prior_variances: np.ndarray,
    data: DataMatrix,
    rng: np.random.Generator,
) -> np.ndarray:
    """Draw all P loadings rows from their conjugate Gaussian conditionals."""
    mean, chol = loadings_posterior(eta, residual_variances, prior_variances, data)
    z = rng.standard_normal(mean.shape)
    # chol is of the precision; solve L^T x = z for a covariance-root draw
    return mean + np.linalg.solve(np.swapaxes(chol, 1, 2), z[..., None])[..., 0]


def residual_variance_params(
    eta: np.ndarray,
    loadings: np.ndarray,
    data: DataMatrix,
    hp: Hyperparameters,
):
    """Gamma(shape, rate) parameters of each sigma_j^-2 conditional."""
    resid = data.values - eta @ loadings.T
    shape = hp.a_sigma + data.n_rows / 2.0
    rates = hp.b_sigma + 0.5 * np.sum(resid**2, axis=0)
    return shape, rates


def sample_residual_variances(
    eta: np.ndarray,
    loadings: np.ndarray,
    data: DataMatrix,
    hp: Hyperparameters,
    rng: np.random.Generator,
    anchor_variances: np.ndarray | None = None,
) -> np.ndarray:
    """Draw residual variances; anchor positions keep their fixed values."""
    shape, rates = residual_variance_params(eta, loadings, data, hp)
    out = 1.0 / rng.gamma(shape, 1.0 / rates)
    if anchor_variances is not None:
        k = len(anchor_variances)
        out[:k] = anchor_variances
    return out


def spline_posterior(
    loadings: np.ndarray,
    residual_variances: np.ndarray,
    latent_locations: np.ndarray,
    assignment: FactorAssignment,
    data: DataMatrix,
    hp: Hyperparameters,
):
    """Precision matrix and linear term of the joint Gaussian over all
    spline coefficients (intercepts first within each factor block)."""
    bases = [spline_design(u_col, hp.L) for u_col in latent_locations.T]  # K of N x (L+1)
    cross = np.array([[ba.T @ bb for bb in bases] for ba in bases])  # K x K x (L+1) x (L+1)
    k0 = assignment.zero_based
    weighted = loadings * (1.0 / residual_variances)[:, None]  # P x H
    cross_lam = weighted.T @ loadings  # H x H
    size = k0.size * (hp.L + 1)
    # block (a, b) of the precision is cross_lam[a, b] * cross[k_a, k_b]
    blocks = cross_lam[:, :, None, None] * cross[k0[:, None], k0]
    prec = np.eye(size) / hp.sigma_a_sq + blocks.transpose(0, 2, 1, 3).reshape(size, size)
    lin = np.concatenate([bases[k].T @ (data.values @ weighted[:, a])
                          for a, k in enumerate(k0)])
    return prec, lin


def _truncated_standard_normal(rng: np.random.Generator, lower: float, ndtr, ndtri) -> float:
    """Standard normal conditioned on being >= lower; ndtr and ndtri are the
    normal CDF and its inverse from scipy.special."""
    if lower < 6.0:
        a = ndtr(lower)
        p = a + rng.uniform() * (1.0 - a)
        return float(ndtri(min(p, 1.0 - 1e-16)))
    # far tail: exponential approximation is numerically exact here
    return lower + rng.exponential() / lower


def sample_spline_coefficients(
    coefficients: np.ndarray,
    loadings: np.ndarray,
    residual_variances: np.ndarray,
    latent_locations: np.ndarray,
    assignment: FactorAssignment,
    data: DataMatrix,
    hp: Hyperparameters,
    rng: np.random.Generator,
) -> np.ndarray:
    """Draw the (L+1) x H coefficient matrix jointly, slopes truncated to [0, inf).

    Uses SPLINE_GIBBS_SWEEPS coordinate-wise Gibbs sweeps over the exact
    Gaussian conditional, started at the current coefficients.
    """
    from scipy.special import ndtr, ndtri

    prec, lin = spline_posterior(loadings, residual_variances, latent_locations, assignment,
                                 data, hp)
    width, h = coefficients.shape
    beta = coefficients.T.flatten()  # factor blocks [intercept, slopes], in factor order
    is_slope = (np.arange(beta.size) % width) != 0
    for _ in range(SPLINE_GIBBS_SWEEPS):
        for c in range(beta.size):
            pcc = prec[c, c]
            if pcc <= 0:
                raise np.linalg.LinAlgError("singular spline posterior precision")
            resid = lin[c] - prec[c] @ beta + pcc * beta[c]
            mean = resid / pcc
            sd = 1.0 / np.sqrt(pcc)
            if is_slope[c]:
                z = _truncated_standard_normal(rng, -mean / sd, ndtr, ndtri)
                beta[c] = mean + sd * z
            else:
                beta[c] = mean + sd * rng.standard_normal()
    out = beta.reshape(h, width).T.copy()
    out[1:] = np.maximum(out[1:], 0.0)
    return out


def u_log_target(
    u: np.ndarray,
    coefficients: np.ndarray,
    loadings: np.ndarray,
    residual_variances: np.ndarray,
    assignment: FactorAssignment,
    data: DataMatrix,
    nu: float,
):
    """Log conditional density of the latent locations u and its N x K gradient.

    Returns (-inf, zeros) when any coordinate leaves [0,1].
    """
    if np.any(u < 0) or np.any(u > 1):
        return -np.inf, np.zeros_like(u)
    k0 = assignment.zero_based
    resid = data.values - eta(coefficients, u, assignment) @ loadings.T
    inv_sig = 1.0 / residual_variances
    value = -0.5 * float(np.sum(resid**2 * inv_sig))
    weighted = resid * inv_sig  # N x P
    slope_rows = 1 + spline_piece(u, coefficients.shape[0] - 1)  # dg/du sits in these rows
    grad = np.zeros_like(u)
    for h, k in enumerate(k0):
        pull = weighted @ loadings[:, h]
        grad[:, k] += pull * coefficients[slope_rows[:, k], h]
    if nu > 0:
        for kk in range(u.shape[1]):
            value -= nu * uniform_penalty(u[:, kk])
            grad[:, kk] -= nu * uniform_penalty_gradient(u[:, kk])
    return value, grad


def mala_step(u: np.ndarray, log_target, epsilon: float, rng: np.random.Generator):
    """One Langevin-proposal Metropolis-Hastings update of all latent locations.

    ``log_target(u)`` returns the log density and its gradient. Returns
    (new u matrix, accepted). Proposals leaving [0,1] are rejected.
    """
    if epsilon <= 0:
        raise ValueError("step size must be positive")
    v0, g0 = log_target(u)
    noise = rng.standard_normal(u.shape)
    prop = u + epsilon * g0 + np.sqrt(2.0 * epsilon) * noise
    if np.any(prop < 0) or np.any(prop > 1):
        return u, False
    v1, g1 = log_target(prop)
    fwd = np.sum((prop - u - epsilon * g0) ** 2)
    bwd = np.sum((u - prop - epsilon * g1) ** 2)
    log_alpha = v1 - v0 + (fwd - bwd) / (4.0 * epsilon)
    if np.log(rng.uniform()) < log_alpha:
        return prop, True
    return u, False


def _inv_gamma(rng: np.random.Generator, shape, scale):
    return scale / rng.gamma(shape, 1.0, size=np.shape(scale))


def sample_shrinkage(
    loadings: np.ndarray,
    local_scales: np.ndarray,
    global_scale: float,
    rng: np.random.Generator,
):
    """Update the half-Cauchy local and global shrinkage scales.

    Each half-Cauchy scale is expanded with one auxiliary inverse-Gamma
    variable, making both conditionals closed-form inverse-Gamma.
    """
    lam2 = loadings**2
    gamma = local_scales
    tau = global_scale
    aux_local = _inv_gamma(rng, 1.0, 1.0 + 1.0 / gamma)
    gamma_new = _inv_gamma(rng, 1.0, 1.0 / aux_local + lam2 / (2.0 * tau))
    aux_global = float(_inv_gamma(rng, 1.0, np.array(1.0 + 1.0 / tau)))
    ph = lam2.size
    tau_new = float(
        _inv_gamma(
            rng,
            (ph + 1) / 2.0,
            np.array(1.0 / aux_global + np.sum(lam2 / gamma_new) / 2.0),
        )
    )
    return gamma_new, tau_new


def log_joint(
    loadings: np.ndarray,
    spline_coefficients: np.ndarray,
    latent_locations: np.ndarray,
    residual_variances: np.ndarray,
    local_scales: np.ndarray,
    global_scale: float,
    assignment: FactorAssignment,
    data: DataMatrix,
    hp: Hyperparameters,
    n_anchor: int = 0,
) -> float:
    """Joint log posterior density up to an additive constant."""
    factors = eta(spline_coefficients, latent_locations, assignment)
    value = log_likelihood(factors @ loadings.T, residual_variances, data)
    lam2 = loadings**2
    prior_var = global_scale * local_scales
    value -= 0.5 * float(np.sum(np.log(prior_var) + lam2 / prior_var))
    sig = residual_variances[n_anchor:]
    value += float(np.sum(-(hp.a_sigma + 1) * np.log(sig) - hp.b_sigma / sig))
    for c in spline_coefficients.T:
        value -= 0.5 * (float(c[0]) ** 2 + float(np.sum(c[1:] ** 2))) / hp.sigma_a_sq
    for u_col in latent_locations.T:
        value -= hp.nu * uniform_penalty(u_col)
    # shrinkage scales: half-Cauchy on the square roots, so the density of
    # the variance multipliers is proportional to s^(-1/2) / (1 + s)
    for s in (local_scales, np.array(global_scale)):
        value -= float(np.sum(0.5 * np.log(s) + np.log1p(s)))
    return value


def initial_state(
    data: DataMatrix,
    anchor: AnchorSet,
    hp: Hyperparameters,
    assignment: FactorAssignment,
) -> dict:
    """Deterministic data-driven starting point, as a dict of the arrays named
    in ``CHAIN_ARRAYS``.

    Latent locations are the empirical ranks of the anchor columns, splines
    start as the identity map, loadings come from least squares of the data
    on the initial factors, and residual variances start at 0.01 (anchor
    positions at their fixed values).
    """
    p = data.n_features
    k = anchor.n_anchors
    h = assignment.n_factors
    u = np.column_stack([rank_transform(col) for col in anchor.coordinates.T])
    coefficients = np.ones((hp.L + 1, h))
    coefficients[0] = 0.0
    lam = np.linalg.lstsq(u[:, assignment.zero_based], data.values, rcond=None)[0].T
    sigma2 = np.full(p, 0.01)
    sigma2[:k] = anchor.residual_variances
    return dict(zip(CHAIN_ARRAYS, (lam, coefficients, u, sigma2, np.ones((p, h)), 1.0)))


_POSITIVE = ("residual_variances", "local_scales", "global_scale")


def _require_valid(t: int, **arrays) -> None:
    """Raise RuntimeError, naming sweep t, if a state array is non-finite, a
    variance or scale is not positive, or a latent location leaves [0,1]."""
    for name, arr in arrays.items():
        label = name.replace("_", " ")
        if not np.all(np.isfinite(arr)):
            raise RuntimeError(f"non-finite {label} at sweep {t}")
        if name in _POSITIVE and np.any(arr <= 0):
            raise RuntimeError(f"non-positive {label} at sweep {t}")
        if name == "latent_locations" and (np.any(arr < 0) or np.any(arr > 1)):
            raise RuntimeError(f"{label} outside [0,1] at sweep {t}")


def run_chain(
    data: DataMatrix,
    anchor: AnchorSet,
    hp: Hyperparameters,
    assignment: FactorAssignment,
) -> PosteriorChain:
    """Run the full Gibbs sampler and return the retained posterior chain.

    ``data`` must already carry the anchor columns as its first K features.
    Each block's output is checked as it is drawn; RuntimeError names the
    sweep where a state array first turns non-finite or leaves its domain.
    """
    k = anchor.n_anchors
    if assignment.n_locations != k:
        raise ValueError("assignment K must match the anchor count")
    if data.n_rows != anchor.coordinates.shape[0]:
        raise ValueError("anchor rows must match data rows")
    if not np.allclose(data.values[:, :k], anchor.coordinates):
        raise ValueError("first K data columns must equal the anchor coordinates")

    rng = np.random.default_rng(hp.seed)
    state = initial_state(data, anchor, hp, assignment)
    lam, coef, u, sigma2, gamma, tau = state.values()
    log_eps = np.log(hp.mala_step)
    fixed_sigma_until = min(1000, hp.burn_in)

    n_draws = len(range(hp.burn_in, hp.iterations, hp.thin))
    draws = {name: np.empty((n_draws, *np.shape(a))) for name, a in state.items()}
    trace = np.empty(n_draws)
    block_seconds = np.zeros(5)
    accept_count = 0
    post_burn_steps = 0

    for t in range(hp.iterations):
        factors = eta(coef, u, assignment)

        t0 = time.perf_counter()
        lam = sample_loadings(factors, sigma2, tau * gamma, data, rng)
        _require_valid(t, loadings=lam)
        t1 = time.perf_counter()

        if t >= fixed_sigma_until:
            sigma2 = sample_residual_variances(
                factors, lam, data, hp, rng, anchor_variances=anchor.residual_variances
            )
            _require_valid(t, residual_variances=sigma2)
        t2 = time.perf_counter()

        coef = sample_spline_coefficients(coef, lam, sigma2, u, assignment, data, hp, rng)
        _require_valid(t, spline_coefficients=coef)
        t3 = time.perf_counter()

        epsilon = float(np.exp(log_eps))
        target = partial(u_log_target, coefficients=coef, loadings=lam,
                         residual_variances=sigma2, assignment=assignment, data=data,
                         nu=hp.nu)
        u, accepted = mala_step(u, target, epsilon, rng)
        _require_valid(t, latent_locations=u)
        if t < hp.burn_in:
            log_eps += 0.05 * ((1.0 if accepted else 0.0) - MALA_TARGET_ACCEPTANCE)
        else:
            post_burn_steps += 1
            accept_count += int(accepted)
        t4 = time.perf_counter()

        gamma, tau = sample_shrinkage(lam, gamma, tau, rng)
        _require_valid(t, local_scales=gamma, global_scale=tau)
        t5 = time.perf_counter()

        block_seconds += (t1 - t0, t2 - t1, t3 - t2, t4 - t3, t5 - t4)

        if t >= hp.burn_in and (t - hp.burn_in) % hp.thin == 0:
            m = (t - hp.burn_in) // hp.thin
            state = dict(zip(CHAIN_ARRAYS, (lam, coef, u, sigma2, gamma, tau)))
            trace[m] = log_joint(**state, assignment=assignment, data=data, hp=hp, n_anchor=k)
            _require_valid(t, log_posterior=trace[m])
            for name, arr in state.items():
                draws[name][m] = arr

    diagnostics = ChainDiagnostics(
        log_posterior_trace=trace,
        mala_acceptance_rate=(accept_count / post_burn_steps) if post_burn_steps else 0.0,
        block_seconds=block_seconds,
    )
    return PosteriorChain(**draws, assignment=assignment, diagnostics=diagnostics, config=hp,
                          anchor=anchor)
