"""MALA-within-Gibbs posterior sampling.

Block order per sweep: factor loadings (conjugate Gaussian rows), residual
variances (conjugate inverse-Gamma, anchor features held fixed), spline
coefficients (joint Gaussian truncated to non-negative slopes), latent
locations (Langevin-proposal Metropolis-Hastings under the uniform-constraint
prior), and half-Cauchy shrinkage scales (auxiliary inverse-Gamma expansion).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np
from scipy.special import ndtr, ndtri

from .model import (
    DataMatrix,
    DomainError,
    FactorAssignment,
    Hyperparameters,
    MonotoneSpline,
    NiftyState,
    PiecewiseLinearMap,
    ShapeError,
    eta,
    factor_matrix,
    log_likelihood,
    spline_basis,
    spline_coefficients,
)
from .pretrain import AnchorSet

MALA_TARGET_ACCEPTANCE = 0.574


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

    @classmethod
    def from_states(cls, states, diagnostics: ChainDiagnostics, config: Hyperparameters,
                    anchor: AnchorSet) -> "PosteriorChain":
        """Stack NiftyState records; they share the first record's assignment."""
        if not states:
            raise ValueError("a chain needs at least one retained draw")
        draws = [(s.loadings, spline_coefficients(s.splines), s.latent_locations,
                  s.residual_variances, s.local_scales, s.global_scale) for s in states]
        return cls(**dict(zip(CHAIN_ARRAYS, map(np.stack, zip(*draws)))),
                   assignment=states[0].assignment, diagnostics=diagnostics, config=config,
                   anchor=anchor)

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
    n = u.size
    ranks = np.empty(n)
    ranks[np.argsort(u, kind="stable")] = np.arange(1, n + 1)
    return 2.0 * (u - ranks / n)


def loadings_row_posterior(
    j: int,
    state: NiftyState,
    data: DataMatrix,
    eta: np.ndarray | None = None,
    gram: np.ndarray | None = None,
):
    """Posterior mean and covariance of loadings row j given everything else."""
    if eta is None:
        eta = factor_matrix(state)
    if gram is None:
        gram = eta.T @ eta
    sig = state.residual_variances[j]
    prior_var = state.global_scale * state.local_scales[j]
    prec = np.diag(1.0 / prior_var) + gram / sig
    try:
        chol = np.linalg.cholesky(prec)
    except np.linalg.LinAlgError:
        raise np.linalg.LinAlgError(
            f"loadings posterior precision for row {j} is not positive definite"
        ) from None
    cov = np.linalg.inv(prec)
    mean = cov @ (eta.T @ data.values[:, j]) / sig
    return mean, cov, chol


def sample_loadings_row(
    j: int,
    state: NiftyState,
    data: DataMatrix,
    rng: np.random.Generator,
    eta: np.ndarray | None = None,
    gram: np.ndarray | None = None,
) -> np.ndarray:
    """Draw loadings row j from its conjugate Gaussian conditional."""
    mean, _, chol = loadings_row_posterior(j, state, data, eta, gram)
    z = rng.standard_normal(mean.size)
    # chol is of the precision; solve L^T x = z for a covariance-root draw
    return mean + np.linalg.solve(chol.T, z)


def residual_variance_params(
    state: NiftyState,
    data: DataMatrix,
    hp: Hyperparameters,
    eta: np.ndarray | None = None,
):
    """Gamma(shape, rate) parameters of each sigma_j^-2 conditional."""
    if eta is None:
        eta = factor_matrix(state)
    resid = data.values - eta @ state.loadings.T
    shape = hp.a_sigma + data.n_rows / 2.0
    rates = hp.b_sigma + 0.5 * np.sum(resid**2, axis=0)
    return shape, rates


def sample_residual_variances(
    state: NiftyState,
    data: DataMatrix,
    hp: Hyperparameters,
    rng: np.random.Generator,
    eta: np.ndarray | None = None,
    anchor_variances: np.ndarray | None = None,
) -> np.ndarray:
    """Draw residual variances; anchor positions keep their fixed values."""
    shape, rates = residual_variance_params(state, data, hp, eta)
    out = 1.0 / rng.gamma(shape, 1.0 / rates)
    if anchor_variances is not None:
        k = len(anchor_variances)
        out[:k] = anchor_variances
    return out


def _location_bases(state: NiftyState) -> list[np.ndarray]:
    """Per-location design [1, clamp basis] matrices, N x (L+1)."""
    n_pieces = state.splines[0].n_pieces
    u = state.latent_locations
    ones = np.ones((state.n_rows, 1))
    return [
        np.hstack([ones, spline_basis(u[:, k], n_pieces)])
        for k in range(state.n_locations)
    ]


def spline_posterior(state: NiftyState, data: DataMatrix, hp: Hyperparameters):
    """Precision matrix and linear term of the joint Gaussian over all
    spline coefficients (intercepts first within each factor block)."""
    n_pieces = state.splines[0].n_pieces
    if any(s.n_pieces != n_pieces for s in state.splines):
        raise ValueError("all splines must share the same number of pieces")
    bases = _location_bases(state)
    k0 = state.assignment.zero_based
    lam = state.loadings
    inv_sig = 1.0 / state.residual_variances
    cross_lam = (lam * inv_sig[:, None]).T @ lam  # H x H
    h = state.n_factors
    width = n_pieces + 1
    prec = np.eye(h * width) / hp.sigma_a_sq
    lin = np.empty(h * width)
    cross_b = {}
    for a in range(h):
        for b in range(h):
            key = (k0[a], k0[b])
            if key not in cross_b:
                cross_b[key] = bases[key[0]].T @ bases[key[1]]
            prec[a * width : (a + 1) * width, b * width : (b + 1) * width] += (
                cross_lam[a, b] * cross_b[key]
            )
        w = lam[:, a] * inv_sig
        lin[a * width : (a + 1) * width] = bases[k0[a]].T @ (data.values @ w)
    return prec, lin


def _truncated_standard_normal(rng: np.random.Generator, lower: float) -> float:
    """Standard normal conditioned on being >= lower."""
    if lower < 6.0:
        a = ndtr(lower)
        p = a + rng.uniform() * (1.0 - a)
        return float(ndtri(min(p, 1.0 - 1e-16)))
    # far tail: exponential approximation is numerically exact here
    return lower + rng.exponential() / lower


def sample_spline_coefficients(
    state: NiftyState,
    data: DataMatrix,
    hp: Hyperparameters,
    rng: np.random.Generator,
    n_sweeps: int = 2,
) -> tuple:
    """Draw all spline coefficients jointly, slopes truncated to [0, inf).

    Uses a coordinate-wise Gibbs sweep over the exact Gaussian conditional,
    started at the current coefficients.
    """
    prec, lin = spline_posterior(state, data, hp)
    width = state.splines[0].n_pieces + 1
    beta = spline_coefficients(state.splines).ravel(order="F")
    is_slope = (np.arange(beta.size) % width) != 0
    for _ in range(n_sweeps):
        for c in range(beta.size):
            pcc = prec[c, c]
            if pcc <= 0:
                raise np.linalg.LinAlgError("singular spline posterior precision")
            resid = lin[c] - prec[c] @ beta + pcc * beta[c]
            mean = resid / pcc
            sd = 1.0 / np.sqrt(pcc)
            if is_slope[c]:
                z = _truncated_standard_normal(rng, -mean / sd)
                beta[c] = mean + sd * z
            else:
                beta[c] = mean + sd * rng.standard_normal()
    return tuple(
        MonotoneSpline(beta[h * width], np.maximum(beta[h * width + 1 : (h + 1) * width], 0.0))
        for h in range(state.n_factors)
    )


def _u_target_raw(
    u: np.ndarray,
    state: NiftyState,
    data: DataMatrix,
    nu: float,
):
    """Log conditional density of the latent locations and its gradient.

    Returns (-inf, zeros) when any coordinate leaves [0,1].
    """
    if np.any(u < 0) or np.any(u > 1):
        return -np.inf, np.zeros_like(u)
    k0 = state.assignment.zero_based
    factors = eta(spline_coefficients(state.splines), u, state.assignment)
    resid = data.values - factors @ state.loadings.T
    inv_sig = 1.0 / state.residual_variances
    value = -0.5 * float(np.sum(resid**2 * inv_sig))
    weighted = resid * inv_sig  # N x P
    grad = np.zeros_like(u)
    for h, g in enumerate(state.splines):
        pull = weighted @ state.loadings[:, h]
        grad[:, k0[h]] += pull * g.derivative(u[:, k0[h]])
    if nu > 0:
        for kk in range(u.shape[1]):
            value -= nu * uniform_penalty(u[:, kk])
            grad[:, kk] -= nu * uniform_penalty_gradient(u[:, kk])
    return value, grad


def u_log_target(state: NiftyState, data: DataMatrix, nu: float):
    """Log conditional of the current latent locations plus its N x K gradient."""
    return _u_target_raw(state.latent_locations, state, data, nu)


def mala_step(
    state: NiftyState,
    data: DataMatrix,
    epsilon: float,
    rng: np.random.Generator,
    nu: float,
):
    """One Langevin-proposal Metropolis-Hastings update of all latent locations.

    Returns (new u matrix, accepted). Proposals leaving [0,1] are rejected.
    """
    if epsilon <= 0:
        raise ValueError("step size must be positive")
    u = state.latent_locations
    v0, g0 = _u_target_raw(u, state, data, nu)
    noise = rng.standard_normal(u.shape)
    prop = u + epsilon * g0 + np.sqrt(2.0 * epsilon) * noise
    if np.any(prop < 0) or np.any(prop > 1):
        return u.copy(), False
    v1, g1 = _u_target_raw(prop, state, data, nu)
    fwd = np.sum((prop - u - epsilon * g0) ** 2)
    bwd = np.sum((u - prop - epsilon * g1) ** 2)
    log_alpha = v1 - v0 + (fwd - bwd) / (4.0 * epsilon)
    if np.log(rng.uniform()) < log_alpha:
        return prop, True
    return u.copy(), False


def _inv_gamma(rng: np.random.Generator, shape, scale):
    return scale / rng.gamma(shape, 1.0, size=np.shape(scale))


def sample_shrinkage(state: NiftyState, rng: np.random.Generator):
    """Update the half-Cauchy local and global shrinkage scales.

    Each half-Cauchy scale is expanded with one auxiliary inverse-Gamma
    variable, making both conditionals closed-form inverse-Gamma.
    """
    lam2 = state.loadings**2
    gamma = state.local_scales
    tau = state.global_scale
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
    state: NiftyState,
    data: DataMatrix,
    hp: Hyperparameters,
    n_anchor: int = 0,
) -> float:
    """Joint log posterior density up to an additive constant."""
    value = log_likelihood(state, data)
    lam2 = state.loadings**2
    prior_var = state.global_scale * state.local_scales
    value -= 0.5 * float(np.sum(np.log(prior_var) + lam2 / prior_var))
    sig = state.residual_variances[n_anchor:]
    value += float(np.sum(-(hp.a_sigma + 1) * np.log(sig) - hp.b_sigma / sig))
    for g in state.splines:
        value -= 0.5 * (g.intercept**2 + float(np.sum(g.slopes**2))) / hp.sigma_a_sq
    for k in range(state.n_locations):
        value -= hp.nu * uniform_penalty(state.latent_locations[:, k])
    # shrinkage scales: half-Cauchy on the square roots, so the density of
    # the variance multipliers is proportional to s^(-1/2) / (1 + s)
    for s in (state.local_scales, np.array(state.global_scale)):
        value -= float(np.sum(0.5 * np.log(s) + np.log1p(s)))
    return value


def initial_state(
    data: DataMatrix,
    anchor: AnchorSet,
    hp: Hyperparameters,
    assignment: FactorAssignment,
) -> NiftyState:
    """Deterministic data-driven starting point.

    Latent locations are the empirical ranks of the anchor columns, splines
    start as the identity map, loadings come from least squares of the data
    on the initial factors, and residual variances start at 0.01 (anchor
    positions at their fixed values).
    """
    n, p = data.values.shape
    k = anchor.n_anchors
    h = assignment.n_factors
    u = np.empty((n, k))
    for kk in range(k):
        ranks = np.empty(n)
        ranks[np.argsort(anchor.coordinates[:, kk], kind="stable")] = np.arange(1, n + 1)
        u[:, kk] = ranks / n
    splines = tuple(
        MonotoneSpline(0.0, np.ones(hp.L)) for _ in range(h)
    )
    eta = np.column_stack([u[:, assignment.zero_based[hh]] for hh in range(h)])
    lam = np.linalg.lstsq(eta, data.values, rcond=None)[0].T
    sigma2 = np.full(p, 0.01)
    sigma2[:k] = anchor.residual_variances
    return NiftyState(
        loadings=lam,
        splines=splines,
        latent_locations=u,
        residual_variances=sigma2,
        local_scales=np.ones((p, h)),
        global_scale=1.0,
        assignment=assignment,
    )


def _require_finite(t: int, **arrays) -> None:
    """Raise, naming sweep t, if an updated state array is not finite."""
    for name, arr in arrays.items():
        if not np.all(np.isfinite(arr)):
            raise RuntimeError(f"non-finite {name.replace('_', ' ')} at sweep {t}")


def run_chain(
    data: DataMatrix,
    anchor: AnchorSet,
    hp: Hyperparameters,
    assignment: FactorAssignment,
) -> PosteriorChain:
    """Run the full Gibbs sampler and return the retained posterior chain.

    ``data`` must already carry the anchor columns as its first K features.
    Raises RuntimeError at the sweep where a non-finite value first appears.
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
    p = data.n_features
    log_eps = np.log(hp.mala_step)
    fixed_sigma_until = min(1000, hp.burn_in)

    samples: list[NiftyState] = []
    trace: list[float] = []
    block_seconds = np.zeros(5)
    accept_count = 0
    post_burn_steps = 0

    for t in range(hp.iterations):
        eta = factor_matrix(state)
        gram = eta.T @ eta

        t0 = time.perf_counter()
        lam = np.vstack(
            [
                sample_loadings_row(j, state, data, rng, eta=eta, gram=gram)
                for j in range(p)
            ]
        )
        _require_finite(t, loadings=lam)
        state = replace(state, loadings=lam)
        t1 = time.perf_counter()

        if t >= fixed_sigma_until:
            sigma2 = sample_residual_variances(
                state, data, hp, rng, eta=eta, anchor_variances=anchor.residual_variances
            )
            _require_finite(t, residual_variances=sigma2)
            state = replace(state, residual_variances=sigma2)
        t2 = time.perf_counter()

        splines = sample_spline_coefficients(state, data, hp, rng)
        _require_finite(t, spline_intercepts=[g.intercept for g in splines])
        state = replace(state, splines=splines)
        t3 = time.perf_counter()

        epsilon = float(np.exp(log_eps))
        u_new, accepted = mala_step(state, data, epsilon, rng, hp.nu)
        state = replace(state, latent_locations=u_new)
        if t < hp.burn_in:
            log_eps += 0.05 * ((1.0 if accepted else 0.0) - MALA_TARGET_ACCEPTANCE)
        else:
            post_burn_steps += 1
            accept_count += int(accepted)
        t4 = time.perf_counter()

        gamma, tau = sample_shrinkage(state, rng)
        _require_finite(t, local_scales=gamma, global_scale=tau)
        state = replace(state, local_scales=gamma, global_scale=tau)
        t5 = time.perf_counter()

        block_seconds += (t1 - t0, t2 - t1, t3 - t2, t4 - t3, t5 - t4)

        if t >= hp.burn_in and (t - hp.burn_in) % hp.thin == 0:
            lp = log_joint(state, data, hp, n_anchor=k)
            _require_finite(t, log_posterior=lp)
            samples.append(state)
            trace.append(lp)

    diagnostics = ChainDiagnostics(
        log_posterior_trace=np.asarray(trace),
        mala_acceptance_rate=(accept_count / post_burn_steps) if post_burn_steps else 0.0,
        block_seconds=block_seconds,
    )
    return PosteriorChain.from_states(samples, diagnostics, hp, anchor)
