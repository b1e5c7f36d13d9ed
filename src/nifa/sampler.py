"""MALA-within-Gibbs posterior sampling.

Blocks of one ``sweep``: factor loadings (conjugate Gaussian rows), residual
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

import math
import time
from functools import cached_property, partial
from statistics import NormalDist

import numpy as np

from .model import (
    CHAIN_ARRAYS,
    AnchorSet,
    ChainDiagnostics,
    DataMatrix,
    DomainError,
    FactorAssignment,
    Hyperparameters,
    PosteriorChain,
    eta_from_bases,
    log_likelihood,
    rank_transform,
    spline_design,
    spline_piece,
)

MALA_TARGET_ACCEPTANCE = 0.574
SPLINE_GIBBS_SWEEPS = 2
SIGMA_HOLD_SWEEPS = 1000  # residual variances stay at their start this many sweeps at most


def _outside_unit_interval(u: np.ndarray) -> bool:
    """Whether an entry of the non-empty array u lies outside [0,1]. As with
    np.any(u < 0), a NaN entry does not count as outside."""
    return bool(u.min() < 0 or u.max() > 1)


def uniform_penalty(u_col: np.ndarray):
    """Squared order-statistic distance to the uniform grid i/N, and its
    gradient 2 (u_i - rank_i / N), both from one stable sort.

    Returns (value, gradient).
    """
    u = np.asarray(u_col, dtype=float).ravel()
    if _outside_unit_interval(u):
        raise DomainError("latent locations must lie in [0,1]")
    n = u.size
    order = u.argsort(kind="stable")
    gap = u[order] - np.arange(1, n + 1) / n
    grad = np.empty(n)
    grad[order] = 2.0 * gap
    return float((gap**2).sum()), grad


class LatentGeometry:
    """What a sweep reads of the latent locations u (N x K) alone, computed
    once per distinct u and carried beside it.

    Built from u: per column, the N x (L+1) spline design
    spline_design(u[:, k], L), which the spline block reads and whose clamp
    columns ``bases`` give the factors, and the N x K rows of the coefficient
    matrix that hold dg/du. On
    first use: the K x K design cross products, which only the spline block
    reads, and the per-column uniform penalty (value, gradient), which only a
    positive nu reads.

    Reuse is keyed on the point itself: ``u`` is the array the geometry was
    built from, and ``at(v)`` returns this geometry when v is that array.
    Nothing may write u in place after the build.
    """

    def __init__(self, u: np.ndarray, n_pieces: int):
        if _outside_unit_interval(u):
            raise DomainError("latent locations must lie in [0,1]")
        self.u = u
        self.n_pieces = n_pieces
        self.designs = [spline_design(u_col, n_pieces) for u_col in u.T]  # K of N x (L+1)
        self.bases = [design[:, 1:] for design in self.designs]  # their clamp columns
        self.slope_rows = 1 + spline_piece(u, n_pieces)

    def at(self, u: np.ndarray) -> "LatentGeometry":
        """This geometry if u is its point, else one built from u."""
        return self if u is self.u else LatentGeometry(u, self.n_pieces)

    @cached_property
    def cross(self) -> np.ndarray:
        """K x K x (L+1) x (L+1) stack of the design cross products D_a^T D_b."""
        return np.array([[da.T @ db for db in self.designs] for da in self.designs])

    @cached_property
    def penalties(self) -> list:
        """uniform_penalty (value, gradient) of each column."""
        return [uniform_penalty(u_col) for u_col in self.u.T]


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
    geometry: LatentGeometry,
    assignment: FactorAssignment,
    data: DataMatrix,
    hp: Hyperparameters,
):
    """Precision matrix and linear term of the joint Gaussian over all
    spline coefficients (intercepts first within each factor block).

    The designs and their cross products come from ``geometry``, the
    LatentGeometry of the latent locations: they are built once per distinct
    u, not once per call.
    """
    bases, cross = geometry.designs, geometry.cross
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


_SQRT2 = math.sqrt(2.0)
_normal_quantile = NormalDist().inv_cdf  # Wichura's AS 241
# a truncation point this many standard deviations above the mean or more is
# in the far tail, where an exponential replaces the inversion
_FAR_TAIL = 6.0


def _inverse_cdf_draw(lower: float, uniform: float) -> float:
    """Standard normal conditioned on being >= lower (< _FAR_TAIL), by
    inversion of the normal CDF at the uniform ``uniform`` in [0, 1).

    The probability handed to the quantile is kept strictly inside (0, 1),
    where the quantile is finite: it would be 0 when the CDF underflows (lower
    below about -38.5) and the uniform is 0, so it is raised to 5e-324, the
    smallest positive double.
    """
    a = 0.5 * math.erfc(-lower / _SQRT2)
    p = a + uniform * (1.0 - a)
    return _normal_quantile(min(max(p, 5e-324), 1.0 - 1e-16))


def _truncated_standard_normal(rng: np.random.Generator, lower: float) -> float:
    """Standard normal conditioned on being >= lower. Takes one ``rng.random()``
    by inversion of the normal CDF, or one ``rng.standard_exponential()`` in
    the far tail."""
    if lower < _FAR_TAIL:
        return _inverse_cdf_draw(lower, rng.random())
    # far tail: exponential approximation is numerically exact here
    return lower + rng.standard_exponential() / lower


def sample_spline_coefficients(
    coefficients: np.ndarray,
    loadings: np.ndarray,
    residual_variances: np.ndarray,
    geometry: LatentGeometry,
    assignment: FactorAssignment,
    data: DataMatrix,
    hp: Hyperparameters,
    rng: np.random.Generator,
) -> np.ndarray:
    """Draw the (L+1) x H coefficient matrix jointly, slopes truncated to [0, inf).

    Uses SPLINE_GIBBS_SWEEPS coordinate-wise Gibbs sweeps over the exact
    Gaussian conditional, started at the current coefficients.

    Seeded runs reproduce because the draw order is fixed: each sweep visits
    the coordinates in order, factor by factor with the intercept first. An
    intercept takes one ``rng.standard_normal()``. A truncated slope takes one
    ``rng.random()`` for an inverse-CDF draw, or one
    ``rng.standard_exponential()`` when zero lies 6 or more conditional
    standard deviations above its mean. The uniforms of a factor block's
    slopes come from one call, which leaves the same stream. Around this
    block, a sweep evaluates the factors g(u) once, in the latent-location
    update. The block reads the designs of u from ``geometry`` (see
    spline_posterior).
    """
    prec, lin = spline_posterior(loadings, residual_variances, geometry, assignment, data, hp)
    width, h = coefficients.shape
    slopes = width - 1
    diag = prec.diagonal()
    if np.any(diag <= 0):
        raise np.linalg.LinAlgError("singular spline posterior precision")
    beta = coefficients.T.flatten()  # factor blocks [intercept, slopes], in factor order
    # The loop does scalar arithmetic on Python floats (``current`` mirrors
    # beta) plus one BLAS dot with the precision row: the same IEEE operations,
    # and so the same draws, as on numpy scalars, with less call overhead.
    current = beta.tolist()
    # per coordinate: its index, its slope index in the block (-1: the intercept),
    # its precision row and diagonal entry, its standard deviation and linear term
    terms = list(zip(range(beta.size), [c % width - 1 for c in range(beta.size)], prec,
                     diag.tolist(), (1.0 / np.sqrt(diag)).tolist(), lin.tolist()))
    for _ in range(SPLINE_GIBBS_SWEEPS):
        for c, i, row, pcc, sd, lin_c in terms:
            mean = (lin_c - float(row.dot(beta)) + pcc * current[c]) / pcc
            lower = -mean / sd
            if i < 0:
                b = mean + sd * rng.standard_normal()
                # the uniforms of the block's slopes in one call, after the
                # generator state that a far-tail slope rewinds to
                saved, first = rng.bit_generator.state, 0
                uniforms = rng.random(slopes).tolist()
            elif lower < _FAR_TAIL:
                b = mean + sd * _inverse_cdf_draw(lower, uniforms[i])
            else:
                # the slope takes an exponential where its uniform was: retake
                # the uniforms before it, draw it, then the uniforms after it
                rng.bit_generator.state = saved
                rng.random(i - first)
                b = mean + sd * _truncated_standard_normal(rng, lower)
                saved, first = rng.bit_generator.state, i + 1
                uniforms[first:] = rng.random(slopes - first).tolist()
            beta[c] = current[c] = b
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
    geometry: LatentGeometry,
):
    """Log conditional density of the latent locations u and its N x K gradient,
    with what they were computed from, as (value, gradient, (factors, geometry at
    u)); (-inf, zeros, None) when any coordinate leaves [0,1].

    ``geometry`` is the LatentGeometry of one point, typically the chain's
    current one: it serves when u is that point, and one is built from u
    otherwise. The factors are eta(coefficients, u, assignment).
    """
    if _outside_unit_interval(u):
        return -np.inf, np.zeros_like(u), None
    geometry = geometry.at(u)
    factors = eta_from_bases(coefficients, geometry.bases, assignment)
    resid = data.values - factors @ loadings.T
    inv_sig = 1.0 / residual_variances
    value = -0.5 * float(np.sum(resid**2 * inv_sig))
    weighted = resid * inv_sig  # N x P
    slope_rows = geometry.slope_rows  # dg/du sits in these rows
    grad = np.zeros_like(u)
    for h, k in enumerate(assignment.zero_based):
        pull = weighted @ loadings[:, h]
        grad[:, k] += pull * coefficients[slope_rows[:, k], h]
    if nu > 0:
        for kk, (penalty, penalty_grad) in enumerate(geometry.penalties):
            value -= nu * penalty
            grad[:, kk] -= nu * penalty_grad
    return value, grad, (factors, geometry)


def mala_step(u: np.ndarray, log_target, epsilon: float, rng: np.random.Generator):
    """One Langevin-proposal Metropolis-Hastings update of all latent locations.

    ``log_target(u)`` returns (log density, gradient, extra), as u_log_target
    does. Returns (new u matrix, accepted, the target's extra at the new u) on
    each of the three exits: accept, Metropolis reject and a proposal leaving
    [0,1], which is rejected without calling the target there. With
    u_log_target the extra is the kept point's factors and LatentGeometry, so
    a caller carries both to its next sweep.
    """
    if epsilon <= 0:
        raise ValueError("step size must be positive")
    v0, g0, extra0 = log_target(u)
    noise = rng.standard_normal(u.shape)
    prop = u + epsilon * g0 + np.sqrt(2.0 * epsilon) * noise
    if _outside_unit_interval(prop):
        return u, False, extra0
    v1, g1, extra1 = log_target(prop)
    fwd = np.sum((prop - u - epsilon * g0) ** 2)
    bwd = np.sum((u - prop - epsilon * g1) ** 2)
    log_alpha = v1 - v0 + (fwd - bwd) / (4.0 * epsilon)
    if np.log(rng.random()) < log_alpha:
        return prop, True, extra1
    return u, False, extra0


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


def log_joint(state: dict, data: DataMatrix, hp: Hyperparameters, n_anchor: int = 0) -> float:
    """Joint log posterior density up to an additive constant at a sweep state
    (see initial_state).

    The likelihood reads the state's factors, and the uniform penalty its
    LatentGeometry, so a point's penalty is computed once however often it is
    scored.
    """
    loadings, coefficients, _, residual_variances, local_scales, global_scale = (
        state[name] for name in CHAIN_ARRAYS)
    value = log_likelihood(state["factors"] @ loadings.T, residual_variances, data)
    lam2 = loadings**2
    prior_var = global_scale * local_scales
    value -= 0.5 * float(np.sum(np.log(prior_var) + lam2 / prior_var))
    sig = residual_variances[n_anchor:]
    value += float(np.sum(-(hp.a_sigma + 1) * np.log(sig) - hp.b_sigma / sig))
    for c in coefficients.T:
        value -= 0.5 * (float(c[0]) ** 2 + float(np.sum(c[1:] ** 2))) / hp.sigma_a_sq
    if hp.nu > 0:  # at nu = 0 the penalty term adds exactly 0
        for penalty, _ in state["geometry"].penalties:
            value -= hp.nu * penalty
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
    """Deterministic data-driven starting point, as the state dict ``sweep``
    takes and returns: the arrays named in ``CHAIN_ARRAYS``, then ``factors``
    (eta at u), ``geometry`` (of u), ``log_step`` and the sweep index ``t``.

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
    geometry = LatentGeometry(u, hp.L)
    return dict(zip(CHAIN_ARRAYS, (lam, coefficients, u, sigma2, np.ones((p, h)), 1.0)),
                factors=eta_from_bases(coefficients, geometry.bases, assignment),
                geometry=geometry, log_step=np.log(hp.mala_step), t=0)


_POSITIVE = ("residual_variances", "local_scales", "global_scale")


def _require_valid(t: int, **arrays) -> None:
    """Raise RuntimeError, naming sweep t, if a state array is non-finite, a
    variance or scale is not positive, or a latent location leaves [0,1]."""
    for name, arr in arrays.items():
        label = name.replace("_", " ")
        arr = np.asarray(arr)
        if not np.isfinite(arr).all():
            raise RuntimeError(f"non-finite {label} at sweep {t}")
        if name in _POSITIVE and (arr <= 0).any():
            raise RuntimeError(f"non-positive {label} at sweep {t}")
        if name == "latent_locations" and _outside_unit_interval(arr):
            raise RuntimeError(f"{label} outside [0,1] at sweep {t}")


def sweep(
    state: dict,
    data: DataMatrix,
    anchor: AnchorSet,
    hp: Hyperparameters,
    assignment: FactorAssignment,
    rng: np.random.Generator,
) -> tuple:
    """One sweep from ``state`` (see initial_state): the five blocks in the
    module's order, each output checked as drawn (RuntimeError names sweep state["t"]).
    The residual variances hold their start for t < min(SIGMA_HOLD_SWEEPS,
    burn_in). In burn-in the log step moves by 0.05 (accepted -
    MALA_TARGET_ACCEPTANCE); after it, the step is frozen. The kept point's
    factors and LatentGeometry, handed back by mala_step, serve the next sweep.
    Returns (the new state, the five block seconds, whether u's move was accepted).
    """
    t, log_step = state["t"], state["log_step"]
    lam, coef, u, sigma2, gamma, tau = (state[name] for name in CHAIN_ARRAYS)
    factors, geometry = state["factors"], state["geometry"]
    clock = [time.perf_counter()]
    lam = sample_loadings(factors, sigma2, tau * gamma, data, rng)
    _require_valid(t, loadings=lam)
    clock.append(time.perf_counter())

    if t >= min(SIGMA_HOLD_SWEEPS, hp.burn_in):
        sigma2 = sample_residual_variances(
            factors, lam, data, hp, rng, anchor_variances=anchor.residual_variances
        )
        _require_valid(t, residual_variances=sigma2)
    clock.append(time.perf_counter())

    coef = sample_spline_coefficients(coef, lam, sigma2, geometry, assignment, data, hp, rng)
    _require_valid(t, spline_coefficients=coef)
    clock.append(time.perf_counter())

    target = partial(u_log_target, coefficients=coef, loadings=lam, residual_variances=sigma2,
                     assignment=assignment, data=data, nu=hp.nu, geometry=geometry)
    u, accepted, (factors, geometry) = mala_step(u, target, float(np.exp(log_step)), rng)
    _require_valid(t, latent_locations=u)
    if t < hp.burn_in:
        log_step += 0.05 * ((1.0 if accepted else 0.0) - MALA_TARGET_ACCEPTANCE)
    clock.append(time.perf_counter())

    gamma, tau = sample_shrinkage(lam, gamma, tau, rng)
    _require_valid(t, local_scales=gamma, global_scale=tau)
    clock.append(time.perf_counter())

    state = dict(zip(CHAIN_ARRAYS, (lam, coef, u, sigma2, gamma, tau)), factors=factors,
                 geometry=geometry, log_step=log_step, t=t + 1)
    return state, np.diff(clock), accepted


def run_chain(
    data: DataMatrix,
    anchor: AnchorSet,
    hp: Hyperparameters,
    assignment: FactorAssignment,
) -> PosteriorChain:
    """Run the full Gibbs sampler and return the retained posterior chain.

    ``data`` must already carry the anchor columns as its first K features.
    RuntimeError names the sweep where a state array first turns non-finite
    or leaves its domain.
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
    n_draws = len(range(hp.burn_in, hp.iterations, hp.thin))
    draws = {name: np.empty((n_draws, *np.shape(state[name]))) for name in CHAIN_ARRAYS}
    trace = np.empty(n_draws)
    block_seconds = np.zeros(5)
    accept_count = 0
    for t in range(hp.iterations):
        state, seconds, accepted = sweep(state, data, anchor, hp, assignment, rng)
        block_seconds += seconds
        if t >= hp.burn_in:
            accept_count += accepted
            if (t - hp.burn_in) % hp.thin == 0:
                m = (t - hp.burn_in) // hp.thin
                trace[m] = log_joint(state, data, hp, n_anchor=k)
                _require_valid(t, log_posterior=trace[m])
                for name in CHAIN_ARRAYS:
                    draws[name][m] = state[name]

    diagnostics = ChainDiagnostics(
        log_posterior_trace=trace,
        mala_acceptance_rate=accept_count / (hp.iterations - hp.burn_in),
        block_seconds=block_seconds,
    )
    return PosteriorChain(**draws, assignment=assignment, diagnostics=diagnostics, config=hp,
                          anchor=anchor)
