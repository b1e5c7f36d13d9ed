import math
import os
import subprocess
import sys
from functools import cached_property, partial
from pathlib import Path
from statistics import NormalDist

import numpy as np
import pytest
from scipy import integrate
from scipy.optimize import minimize
from scipy.special import log_ndtr, ndtr, ndtri
from scipy.stats import kstest, truncnorm

from nifa.model import (
    DataMatrix,
    DomainError,
    FactorAssignment,
    Hyperparameters,
    eta,
    log_likelihood,
    spline_basis,
    spline_design,
    spline_piece,
)
from nifa.pretrain import AnchorSet
import nifa.sampler
from nifa.sampler import (
    CHAIN_ARRAYS,
    MALA_TARGET_ACCEPTANCE,
    SIGMA_HOLD_SWEEPS,
    SPLINE_GIBBS_SWEEPS,
    LatentGeometry,
    _truncated_standard_normal,
    initial_state,
    loadings_posterior,
    log_joint,
    mala_step,
    residual_variance_params,
    run_chain,
    sample_loadings,
    sample_residual_variances,
    sample_shrinkage,
    sample_spline_coefficients,
    spline_posterior,
    sweep,
    u_log_target,
    uniform_penalty,
)


def reference_uniform_penalty(u_col):
    """The penalty as computed apart from its gradient, with its own sort."""
    u = np.asarray(u_col, dtype=float).ravel()
    grid = np.arange(1, u.size + 1) / u.size
    return float(np.sum((np.sort(u, kind="stable") - grid) ** 2))


def reference_uniform_penalty_gradient(u_col):
    """The penalty gradient 2 (u_i - rank_i / N) from a second, ranking sort."""
    u = np.asarray(u_col, dtype=float).ravel()
    ranks = np.empty(u.size)
    ranks[np.argsort(u, kind="stable")] = np.arange(1, u.size + 1)
    return 2.0 * (u - ranks / u.size)


def reference_spline_draw(coefficients, prec, lin, rng):
    """The coordinate Gibbs draw written on numpy scalars with one rng.uniform
    per slope, and a fresh NormalDist for the quantile: the loop that
    sample_spline_coefficients must reproduce draw for draw. Returns the draw
    and the standardized lower bound of every slope draw."""
    width, h = coefficients.shape
    beta = coefficients.T.flatten()
    is_slope = (np.arange(beta.size) % width) != 0
    lowers = []
    for _ in range(SPLINE_GIBBS_SWEEPS):
        for c in range(beta.size):
            pcc = prec[c, c]
            resid = lin[c] - prec[c] @ beta + pcc * beta[c]
            mean = resid / pcc
            sd = 1.0 / np.sqrt(pcc)
            if is_slope[c]:
                lower = -mean / sd
                lowers.append(lower)
                uniform = rng.uniform()
                tail = 0.5 * math.erfc(lower / math.sqrt(2))
                if lower < 6.0:  # the CDF, inverted
                    a = 0.5 * math.erfc(-lower / math.sqrt(2))
                    p = a + uniform * (1.0 - a)
                    z = NormalDist().inv_cdf(min(max(p, 5e-324), 1.0 - 1e-16))
                elif tail >= 2.0**-1022:  # the upper tail, inverted
                    z = max(lower, -NormalDist().inv_cdf(max((1.0 - uniform) * tail, 5e-324)))
                else:  # the tail's exponential limit
                    z = lower - math.log1p(-uniform) / lower
                beta[c] = mean + sd * z
            else:
                beta[c] = mean + sd * rng.standard_normal()
    out = beta.reshape(h, width).T.copy()
    out[1:] = np.maximum(out[1:], 0.0)
    return out, lowers


def reference_spline_posterior(loadings, residual_variances, latent_locations, assignment,
                               data, hp):
    """spline_posterior as written on the latent locations themselves: the
    designs and their cross products rebuilt from u on every call."""
    bases = [spline_design(u_col, hp.L) for u_col in latent_locations.T]
    cross = np.array([[ba.T @ bb for bb in bases] for ba in bases])
    k0 = assignment.zero_based
    weighted = loadings * (1.0 / residual_variances)[:, None]
    cross_lam = weighted.T @ loadings
    size = k0.size * (hp.L + 1)
    blocks = cross_lam[:, :, None, None] * cross[k0[:, None], k0]
    prec = np.eye(size) / hp.sigma_a_sq + blocks.transpose(0, 2, 1, 3).reshape(size, size)
    lin = np.concatenate([bases[k].T @ (data.values @ weighted[:, a])
                          for a, k in enumerate(k0)])
    return prec, lin


def reference_u_log_target(u, coefficients, loadings, residual_variances, assignment, data, nu):
    """u_log_target as written on u itself: the clamp bases, the slope rows
    and the uniform penalty recomputed from u on every call. Returns (value,
    gradient, factors)."""
    n_pieces = coefficients.shape[0] - 1
    k0 = assignment.zero_based
    factors = np.column_stack([coefficients[0, h] + spline_basis(u[:, k], n_pieces)
                               @ coefficients[1:, h] for h, k in enumerate(k0)])
    resid = data.values - factors @ loadings.T
    inv_sig = 1.0 / residual_variances
    value = -0.5 * float(np.sum(resid**2 * inv_sig))
    weighted = resid * inv_sig
    slope_rows = 1 + spline_piece(u, n_pieces)
    grad = np.zeros_like(u)
    for h, k in enumerate(k0):
        pull = weighted @ loadings[:, h]
        grad[:, k] += pull * coefficients[slope_rows[:, k], h]
    if nu > 0:
        for kk, u_col in enumerate(u.T):
            penalty, penalty_grad = uniform_penalty(u_col)
            value -= nu * penalty
            grad[:, kk] -= nu * penalty_grad
    return value, grad, factors


def make_state(loadings, coefficients, latent_locations, residual_variances,
               local_scales=None, global_scale=1.0, assignment=None):
    """One draw as the arrays the sampler blocks take, plus its assignment."""
    loadings = np.asarray(loadings, dtype=float)
    return dict(
        loadings=loadings,
        spline_coefficients=np.asarray(coefficients, dtype=float),
        latent_locations=np.asarray(latent_locations, dtype=float),
        residual_variances=np.asarray(residual_variances, dtype=float),
        local_scales=np.ones(loadings.shape) if local_scales is None else local_scales,
        global_scale=global_scale,
        assignment=assignment or FactorAssignment(np.array([1])),
    )


def small_state(n=8, p=3, h=2, k=2, L=4, seed=0):
    rng = np.random.default_rng(seed)
    lam = rng.standard_normal((p, h))
    coef = np.column_stack([
        np.concatenate([[rng.standard_normal() * 0.3], rng.uniform(0.2, 1.5, L)])
        for _ in range(h)
    ])
    return make_state(
        lam, coef,
        latent_locations=rng.uniform(0.05, 0.95, (n, k)),
        residual_variances=rng.uniform(0.5, 1.5, p),
        local_scales=rng.uniform(0.5, 2.0, (p, h)),
        global_scale=1.3,
        assignment=FactorAssignment.round_robin(h, k),
    )


def factors(st):
    return eta(st["spline_coefficients"], st["latent_locations"], st["assignment"])


def model_mean(st):
    return factors(st) @ st["loadings"].T


def prior_variances(st):
    return st["global_scale"] * st["local_scales"]


def geometry(st):
    """The LatentGeometry of st's latent locations."""
    return LatentGeometry(st["latent_locations"], st["spline_coefficients"].shape[0] - 1)


def with_carried(st):
    """st with the factors and LatentGeometry that a sweep state carries."""
    return {**st, "factors": factors(st), "geometry": geometry(st)}


def u_target(st, data, nu):
    """The latent-location log target of st as a function of u alone."""
    return partial(u_log_target, coefficients=st["spline_coefficients"],
                   loadings=st["loadings"], residual_variances=st["residual_variances"],
                   assignment=st["assignment"], data=data, nu=nu, geometry=geometry(st))


def spline_args(st):
    return (st["loadings"], st["residual_variances"], geometry(st), st["assignment"])


def loadings_row_moments(j, *args):
    """Posterior mean and covariance of loadings row j, the covariance rebuilt
    from the Cholesky factor of its precision."""
    mean, chol = loadings_posterior(*args)
    return mean[j], np.linalg.inv(chol[j] @ chol[j].T)


def state_data_pair(seed=0, **kw):
    st = small_state(seed=seed, **kw)
    rng = np.random.default_rng(seed + 100)
    mean = model_mean(st)
    return st, DataMatrix(mean + rng.standard_normal(mean.shape) * 0.3)


class TestUniformPenalty:
    def test_exact_grid_is_zero(self):
        u = np.array([0.75, 0.25, 1.0, 0.5])
        assert uniform_penalty(u)[0] == pytest.approx(0.0, abs=1e-15)

    def test_hand_case(self):
        assert uniform_penalty(np.array([0.2, 0.9]))[0] == pytest.approx(0.10)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(1)
        u = rng.uniform(size=30)
        assert uniform_penalty(u)[0] == pytest.approx(uniform_penalty(rng.permutation(u))[0])

    def test_domain_error(self):
        with pytest.raises(DomainError):
            uniform_penalty(np.array([0.5, 1.1]))

    def test_gradient_hand_case(self):
        _, g = uniform_penalty(np.array([0.2, 0.9]))
        assert g == pytest.approx([-0.6, -0.2])

    def test_gradient_finite_difference(self):
        rng = np.random.default_rng(2)
        u = rng.uniform(0.1, 0.9, 15)
        _, grad = uniform_penalty(u)
        eps = 1e-7
        for i in range(15):
            up, dn = u.copy(), u.copy()
            up[i] += eps
            dn[i] -= eps
            fd = (uniform_penalty(up)[0] - uniform_penalty(dn)[0]) / (2 * eps)
            assert grad[i] == pytest.approx(fd, rel=1e-5, abs=1e-8)


U_COLUMNS = [
    np.random.default_rng(40).uniform(size=400),
    np.round(np.random.default_rng(41).uniform(size=60), 1),  # ties, 0 and 1
    np.random.default_rng(42).uniform(size=(50, 3))[:, 1],    # strided column
]


def located_problem(u_col, seed=0):
    """A K=2, H=3 state whose latent locations are u_col and u_col reversed,
    its data, and a second (coefficients, loadings, variances) for the same u."""
    u = np.column_stack([u_col, u_col[::-1]])
    st = dict(small_state(n=u.shape[0], p=5, h=3, seed=seed), latent_locations=u)
    noise = np.random.default_rng(seed + 1).standard_normal((u.shape[0], 5))
    data = DataMatrix(model_mean(st) + 0.3 * noise)
    other = small_state(n=u.shape[0], p=5, h=3, seed=seed + 2)
    return st, data, dict(other, latent_locations=u)


class TestSameDraws:
    """The rewritten hot loop against the test-local references above: equal
    arrays, and generators left in equal states."""

    @pytest.mark.parametrize("u", U_COLUMNS)
    def test_uniform_penalty_equals_reference_pair(self, u):
        value, grad = uniform_penalty(u)
        assert value == reference_uniform_penalty(u)
        assert np.array_equal(grad, reference_uniform_penalty_gradient(u))

    @pytest.mark.parametrize("seed, n, sign, far_tail", [(31, 60, 1.0, False),
                                                         (3, 200, -1.0, True)])
    def test_spline_draw_equals_reference(self, seed, n, sign, far_tail):
        # sign -1 makes the data decrease in u, which pushes the slopes' conditional
        # means many standard deviations below the truncation point at zero
        st = small_state(n=n, p=6, seed=seed)
        noise = np.random.default_rng(seed + 100).standard_normal((n, 6))
        data = DataMatrix(sign * model_mean(st) + 0.1 * noise)
        hp = Hyperparameters(L=4)
        prec, lin = spline_posterior(*spline_args(st), data, hp)
        rng_ref, rng = np.random.default_rng(seed), np.random.default_rng(seed)
        coef, lowers = st["spline_coefficients"], []
        for _ in range(5):
            expected, seen = reference_spline_draw(coef, prec, lin, rng_ref)
            coef = sample_spline_coefficients(coef, *spline_args(st), data, hp, rng)
            assert np.array_equal(coef, expected)
            assert rng.bit_generator.state == rng_ref.bit_generator.state
            lowers += seen
        # every draw also takes intercepts; the slopes reach the branches named
        assert min(lowers) < 6.0
        assert (max(lowers) >= 6.0) == far_tail

    @pytest.mark.parametrize("u_col", U_COLUMNS)
    def test_spline_posterior_equals_reference_from_u(self, u_col):
        st, data, other = located_problem(u_col)
        hp = Hyperparameters(L=4)
        geo = geometry(st)
        for state in (st, other):  # one geometry, read again after Lambda and sigma^2 change
            args = (state["loadings"], state["residual_variances"])
            got = spline_posterior(*args, geo, st["assignment"], data, hp)
            expected = reference_spline_posterior(*args, st["latent_locations"], st["assignment"],
                                                  data, hp)
            assert all(np.array_equal(g, e) for g, e in zip(got, expected))

    @pytest.mark.parametrize("nu", [0.0, 50.0])
    @pytest.mark.parametrize("u_col", U_COLUMNS)
    def test_u_log_target_equals_reference_from_u(self, u_col, nu):
        st, data, other = located_problem(u_col)
        u, geo = st["latent_locations"], geometry(st)
        # the geometry served twice at its own point, then a new one built from a copy of u
        for state, at in ((st, u), (other, u), (other, u.copy())):
            target = partial(u_target(state, data, nu), geometry=geo)
            value, grad, (got_factors, got_geo) = target(at)
            expected = reference_u_log_target(
                at, state["spline_coefficients"], state["loadings"],
                state["residual_variances"], state["assignment"], data, nu)
            assert value == expected[0]
            assert np.array_equal(grad, expected[1])
            assert np.array_equal(got_factors, expected[2])
            assert got_geo.u is at and (got_geo is geo) == (at is u)


class TestLoadingsBlock:
    def test_prior_recovery_with_zero_factors(self):
        st, data = state_data_pair(seed=3)
        zero = factors(dict(st, spline_coefficients=np.zeros((5, 2))))
        mean, cov = loadings_row_moments(0, zero, st["residual_variances"],
                                         prior_variances(st), data)
        assert np.allclose(mean, 0.0)
        assert np.allclose(cov, np.diag(st["global_scale"] * st["local_scales"][0]))

    def test_scalar_hand_case(self):
        # H=1, N=2, eta=(1,1), x=(1,3), sigma^2=1, prior variance 1:
        # posterior variance 1/(1+2) = 1/3, mean (1/3)*(1+3) = 4/3
        st = make_state([[0.0]], [[0.0], [1.0]], [[1.0], [1.0]], [1.0])
        data = DataMatrix(np.array([[1.0], [3.0]]))
        mean, cov = loadings_row_moments(0, factors(st), st["residual_variances"],
                                         prior_variances(st), data)
        assert mean[0] == pytest.approx(4.0 / 3.0)
        assert cov[0, 0] == pytest.approx(1.0 / 3.0)

    def test_grid_quadrature_oracle(self):
        # H=1, N=3 instance: posterior mean from dense-grid quadrature
        st = make_state([[0.0]], [[0.0], [2.0]], [[0.2], [0.5], [0.9]], [0.7],
                        local_scales=np.array([[1.4]]), global_scale=0.8)
        data = DataMatrix(np.array([[0.3], [1.1], [1.6]]))
        eta = factors(st)
        mean, cov = loadings_row_moments(0, eta, st["residual_variances"],
                                         prior_variances(st), data)
        eta = eta[:, 0]
        x = data.values[:, 0]

        def unnorm(lam):
            ll = -0.5 * np.sum((x - lam * eta) ** 2) / 0.7
            lp = -0.5 * lam**2 / (0.8 * 1.4)
            return np.exp(ll + lp)

        grid = np.linspace(-10, 10, 200001)
        dens = np.array([unnorm(g) for g in grid])
        z = np.trapezoid(dens, grid)
        m = np.trapezoid(grid * dens, grid) / z
        v = np.trapezoid((grid - m) ** 2 * dens, grid) / z
        assert mean[0] == pytest.approx(m, abs=1e-6)
        assert cov[0, 0] == pytest.approx(v, abs=1e-6)

    def test_draws_match_moments(self):
        st, data = state_data_pair(seed=4)
        rng = np.random.default_rng(5)
        args = (factors(st), st["residual_variances"], prior_variances(st), data)
        mean, cov = loadings_row_moments(1, *args)
        draws = np.array([sample_loadings(*args, rng)[1] for _ in range(4000)])
        se = np.sqrt(np.diag(cov) / 4000)
        assert np.all(np.abs(draws.mean(axis=0) - mean) < 5 * se)
        assert np.allclose(np.cov(draws.T), cov, atol=0.1 * np.max(np.abs(cov)))

    def test_rows_match_dense_oracle(self):
        st, data = state_data_pair(seed=6, n=30, p=6, h=3)
        eta, sig, prior_var = factors(st), st["residual_variances"], prior_variances(st)
        mean, chol = loadings_posterior(eta, sig, prior_var, data)
        assert mean.shape == (6, 3) and chol.shape == (6, 3, 3)
        for j in range(6):
            prec = np.diag(1.0 / prior_var[j]) + eta.T @ eta / sig[j]
            oracle = np.linalg.solve(prec, eta.T @ data.values[:, j] / sig[j])
            assert np.max(np.abs(mean[j] - oracle)) <= 1e-10
            assert np.array_equal(chol[j], np.linalg.cholesky(prec))

    def test_draw_is_mean_plus_covariance_root(self):
        # one (P, H) standard-normal draw, row j's noise in row j
        st, data = state_data_pair(seed=7, n=30, p=6, h=3)
        args = (factors(st), st["residual_variances"], prior_variances(st), data)
        mean, chol = loadings_posterior(*args)
        z = np.random.default_rng(8).standard_normal((6, 3))
        expected = np.array([mean[j] + np.linalg.solve(chol[j].T, z[j]) for j in range(6)])
        assert np.array_equal(sample_loadings(*args, np.random.default_rng(8)), expected)

    def test_non_positive_definite_row_is_named(self):
        st, data = state_data_pair(seed=9, n=30, p=4)
        sig = st["residual_variances"].copy()
        sig[2] = -1.0  # precision diag(1/prior) - eta^T eta
        with pytest.raises(np.linalg.LinAlgError, match="row 2 is not positive definite"):
            loadings_posterior(factors(st), sig, prior_variances(st), data)


class TestResidualVarianceBlock:
    def test_params_hand_case(self):
        # N=2, residuals (1,1), a=100, b=1 -> Gamma(101, 2)
        st = make_state([[1.0]], [[0.0], [1.0]], [[0.5], [0.5]], [1.0])
        data = DataMatrix(np.array([[1.5], [1.5]]))  # residual 1 at eta=0.5
        hp = Hyperparameters(a_sigma=100.0, b_sigma=1.0, L=1)
        shape, rates = residual_variance_params(factors(st), st["loadings"], data, hp)
        assert shape == pytest.approx(101.0)
        assert rates[0] == pytest.approx(2.0)

    def test_zero_residuals(self):
        st, _ = state_data_pair(seed=6)
        data = DataMatrix(model_mean(st))
        hp = Hyperparameters(a_sigma=100.0, b_sigma=1.0)
        shape, rates = residual_variance_params(factors(st), st["loadings"], data, hp)
        assert shape == pytest.approx(100.0 + data.n_rows / 2)
        assert np.allclose(rates, 1.0)

    def test_anchor_positions_fixed(self):
        st, data = state_data_pair(seed=7)
        rng = np.random.default_rng(8)
        anchor_var = np.array([0.123])
        out = sample_residual_variances(factors(st), st["loadings"], data, Hyperparameters(),
                                        rng, anchor_variances=anchor_var)
        assert out[0] == 0.123
        assert np.all(out[1:] > 0)

    def test_sample_mean_matches_inverse_gamma(self):
        st, data = state_data_pair(seed=9)
        hp = Hyperparameters()
        rng = np.random.default_rng(10)
        args = (factors(st), st["loadings"], data, hp)
        shape, rates = residual_variance_params(*args)
        draws = np.array(
            [sample_residual_variances(*args, rng) for _ in range(4000)]
        )
        expected = rates / (shape - 1)  # inverse-gamma mean
        sd = rates / ((shape - 1) * np.sqrt(shape - 2))
        assert np.all(np.abs(draws.mean(axis=0) - expected) < 5 * sd / np.sqrt(4000))


class TestSplineBlock:
    def test_posterior_matches_stacked_regression_oracle(self):
        st, data = state_data_pair(seed=11)
        hp = Hyperparameters(L=4, sigma_a_sq=1.7)
        prec, lin = spline_posterior(*spline_args(st), data, hp)
        # independent construction: stack the linear model row by row
        n, p = data.values.shape
        lam, u = st["loadings"], st["latent_locations"]
        h = lam.shape[1]
        width = 5
        k0 = st["assignment"].zero_based
        rows, ys, ws = [], [], []
        for i in range(n):
            for j in range(p):
                row = np.zeros(h * width)
                for a in range(h):
                    basis = spline_basis(u[i, k0[a]], 4)
                    row[a * width] = lam[j, a]
                    row[a * width + 1 :][: 4] = lam[j, a] * basis
                rows.append(row)
                ys.append(data.values[i, j])
                ws.append(1.0 / st["residual_variances"][j])
        X = np.array(rows)
        y = np.array(ys)
        w = np.array(ws)
        prec_o = (X * w[:, None]).T @ X + np.eye(h * width) / 1.7
        lin_o = (X * w[:, None]).T @ y
        assert np.allclose(prec, prec_o, atol=1e-10)
        assert np.allclose(lin, lin_o, atol=1e-10)

    def test_untruncated_mean_matches_optimizer(self):
        # mode of the log conditional found numerically through the full
        # likelihood, ignoring the positivity constraint
        st, data = state_data_pair(seed=12, L=3)
        hp = Hyperparameters(L=3, sigma_a_sq=2.0)
        prec, lin = spline_posterior(*spline_args(st), data, hp)
        mode = np.linalg.solve(prec, lin)
        width = 4

        def neg_log_cond(beta):
            trial = dict(st, spline_coefficients=beta.reshape(-1, width).T)
            return (-log_likelihood(model_mean(trial), st["residual_variances"], data)
                    + 0.5 * np.sum(beta**2) / 2.0)

        res = minimize(neg_log_cond, np.zeros(mode.size), method="BFGS",
                       options={"gtol": 1e-10, "maxiter": 2000})
        assert np.allclose(res.x, mode, atol=1e-5)

    def test_slopes_nonnegative(self):
        st, data = state_data_pair(seed=13)
        rng = np.random.default_rng(14)
        for _ in range(10):
            coef = sample_spline_coefficients(st["spline_coefficients"], *spline_args(st),
                                              data, Hyperparameters(L=4), rng)
            assert coef.shape == st["spline_coefficients"].shape
            assert np.all(coef[1:] >= 0)

    def test_moments_match_2d_grid_oracle(self):
        # H=1, L=1: two coefficients (intercept, slope >= 0); compare long-run
        # Gibbs draws against dense 2-d quadrature of the truncated Gaussian
        st = make_state([[1.0], [0.5]], [[0.1], [0.5]], [[0.1], [0.35], [0.6], [0.95]],
                        [0.4, 0.6])
        rng0 = np.random.default_rng(15)
        data = DataMatrix(model_mean(st) + 0.3 * rng0.standard_normal((4, 2)))
        hp = Hyperparameters(L=1, sigma_a_sq=1.0)
        prec, lin = spline_posterior(*spline_args(st), data, hp)

        def dens(b0, b1):
            b = np.array([b0, b1])
            return np.exp(-0.5 * b @ prec @ b + lin @ b)

        g0 = np.linspace(-4, 4, 401)
        g1 = np.linspace(0, 8, 401)
        pdf = np.array([[dens(a, b) for b in g1] for a in g0])
        z = np.trapezoid(np.trapezoid(pdf, g1, axis=1), g0)
        m0 = np.trapezoid(np.trapezoid(pdf, g1, axis=1) * g0, g0) / z
        m1 = np.trapezoid(np.trapezoid(pdf * g1, g1, axis=1), g0) / z

        rng = np.random.default_rng(16)
        coef = st["spline_coefficients"]
        draws = np.empty((3000, 2))
        for t in range(3000):
            for _ in range(2):  # four coordinate sweeps per retained draw
                coef = sample_spline_coefficients(coef, *spline_args(st), data, hp, rng)
            draws[t] = coef[:, 0]
        est = draws[500:].mean(axis=0)
        assert est[0] == pytest.approx(m0, abs=0.05)
        assert est[1] == pytest.approx(m1, abs=0.05)


# a midpoint grid over [0, 1): the mean of a function at these uniforms is a
# quadrature of its expectation under a uniform, with no sampling noise
QUADRATURE_UNIFORMS = ((np.arange(200_000) + 0.5) / 200_000).tolist()


class TestTruncatedNormal:
    # either side of the far tail at 6, and of its exponential limit past 37.5
    @pytest.mark.parametrize("lower", [-40.0, -1.5, 0.0, 2.0, 5.99, 6.0, 8.0, 20.0, 37.0,
                                       39.0, 60.0])
    def test_moments_match_scipy(self, lower):
        draws = np.array([_truncated_standard_normal(lower, u) for u in QUADRATURE_UNIFORMS])
        ref = truncnorm(lower, np.inf)
        assert np.all(draws >= lower)
        # exact inversion up to 37; past it the exponential limit, whose mean
        # excess 1 / lower is high by about 2 / lower**3
        mean_tol, sd_tol = (1e-5, 5e-5) if lower <= 37.0 else (2e-3, 3e-3)
        assert (draws.mean() - lower) / (ref.mean() - lower) == pytest.approx(1.0, abs=mean_tol)
        assert draws.std() / ref.std() == pytest.approx(1.0, abs=sd_tol)

    def test_far_tail(self):
        # a far-tail draw at the uniform U leaves mass 1 - U of the tail above it
        uniforms = np.append(np.linspace(0.0, 1.0, 1001)[:-1], 1.0 - 2.0**-53)
        for lower in (6.0, 8.0, 20.0, 37.0):
            draws = np.array([_truncated_standard_normal(lower, u) for u in uniforms.tolist()])
            above = np.exp(log_ndtr(-draws) - log_ndtr(-lower))
            assert np.max(np.abs(above / (1.0 - uniforms) - 1.0)) <= 1e-10, lower

    @pytest.mark.parametrize("lower, uniform", [(lower, uniform)
                                                for lower in (-40.0, 0.0, 6.0, 40.0)
                                                for uniform in (0.0, 1.0 - 2.0**-53)])
    def test_extreme_uniform_gives_finite_draw(self, lower, uniform):
        # at lower = -40 the CDF underflows to 0, so a zero uniform makes p = 0;
        # at lower = 0 the largest uniform below 1 rounds p up to 1; at 6 the
        # quantile of the whole tail rounds below lower; at 40 the tail mass
        # underflows
        z = _truncated_standard_normal(lower, uniform)
        assert math.isfinite(z)
        assert z >= lower

    def test_normal_cdf_and_quantile_match_scipy(self):
        # the normal CDF as the sampler computes it, from math.erfc
        x = np.linspace(-8.0, 6.0, 20001)
        cdf = np.array([0.5 * math.erfc(-v / nifa.sampler._SQRT2) for v in x])
        assert np.max(np.abs(cdf - ndtr(x)) / ndtr(x)) <= 1e-13
        # its inverse, statistics.NormalDist().inv_cdf, away from p = 1/2 where
        # both are near zero and a relative error means nothing
        p = np.concatenate([np.logspace(-300, np.log10(0.49), 20000),
                            1.0 - np.logspace(-16, np.log10(0.49), 20000)])
        quantile = np.array([nifa.sampler._normal_quantile(float(v)) for v in p])
        assert np.max(np.abs(quantile - ndtri(p)) / np.abs(ndtri(p))) <= 1e-13


class TestULogTarget:
    def test_gradient_matches_finite_differences(self):
        st, data = state_data_pair(seed=19)
        target = u_target(st, data, nu=50.0)
        u = st["latent_locations"]
        val, grad, _ = target(u)
        eps = 1e-6
        for _ in range(30):
            rng = np.random.default_rng(_)
            i = rng.integers(u.shape[0])
            k = rng.integers(u.shape[1])
            up = u.copy()
            dn = u.copy()
            up[i, k] += eps
            dn[i, k] -= eps
            vp, _g, _f = target(up)
            vn, _g, _f = target(dn)
            fd = (vp - vn) / (2 * eps)
            assert grad[i, k] == pytest.approx(fd, rel=1e-4, abs=1e-6)

    def test_zero_gradient_at_model_mean(self):
        st, _ = state_data_pair(seed=20)
        data = DataMatrix(model_mean(st))
        _, grad, _ = u_target(st, data, nu=0.0)(st["latent_locations"])
        assert np.allclose(grad, 0.0, atol=1e-10)

    def test_penalty_only_gradient(self):
        st = make_state(np.zeros((1, 1)), [[0.0], [1.0]], [[0.2], [0.9]], [1.0])
        data = DataMatrix(np.zeros((2, 1)))
        _, grad, _ = u_target(st, data, nu=1.0)(st["latent_locations"])
        # target = -nu * penalty, so its gradient is minus the penalty gradient
        assert grad[:, 0] == pytest.approx([0.6, 0.2])

    def test_factors_inside_and_none_outside(self):
        st, data = state_data_pair(seed=19)
        target = u_target(st, data, nu=50.0)
        u = st["latent_locations"]
        assert np.array_equal(target(u)[2][0], factors(st))
        outside = u.copy()
        outside[0, 0] = 1.5
        value, grad, at_outside = target(outside)
        assert value == -np.inf
        assert np.array_equal(grad, np.zeros_like(u))
        assert at_outside is None


class TestMala:
    @pytest.mark.parametrize("epsilon, seed, n_scored, accepted", [
        (1e-3, 0, 2, True),
        (1e-2, 0, 2, False),
        (100.0, 22, 1, False),
    ], ids=["accept", "metropolis_reject", "out_of_bounds"])
    def test_hands_back_factors_at_the_kept_point(self, epsilon, seed, n_scored, accepted):
        st, data = state_data_pair(seed=21)
        target = u_target(st, data, nu=0.0)
        scored = []

        def counted(u):
            scored.append(u)
            return target(u)

        u = st["latent_locations"]
        u_new, acc, at_new = mala_step(u, counted, epsilon, np.random.default_rng(seed))
        # the exit taken: target scored at u only, or at u and the proposal
        assert (len(scored), acc) == (n_scored, accepted)
        assert np.array_equal(u_new, scored[1] if accepted else u)
        factors_new, geometry_new = at_new
        assert np.array_equal(factors_new, eta(st["spline_coefficients"], u_new, st["assignment"]))
        assert geometry_new.u is u_new

    def test_out_of_bounds_rejected(self):
        st, data = state_data_pair(seed=21)
        rng = np.random.default_rng(22)
        u = st["latent_locations"]
        u_new, accepted, _ = mala_step(u, u_target(st, data, nu=0.0), epsilon=100.0, rng=rng)
        assert not accepted
        assert np.array_equal(u_new, u)

    def test_flat_target_always_accepts_inside(self):
        st = make_state(np.zeros((2, 1)), [[0.0], [1.0]], np.full((3, 1), 0.5), np.ones(2))
        data = DataMatrix(np.zeros((3, 2)))
        target = u_target(st, data, nu=0.0)
        rng = np.random.default_rng(23)
        n_in = n_acc = 0
        cur = st["latent_locations"]
        for _ in range(300):
            u_new, acc, _ = mala_step(cur, target, 1e-3, rng)
            moved = not np.array_equal(u_new, cur)
            if moved or acc:
                n_in += 1
                n_acc += int(acc)
            cur = u_new
        assert n_acc == n_in  # flat target: every in-bounds proposal accepted

    def test_step_size_validation(self):
        st, data = state_data_pair(seed=24)
        with pytest.raises(ValueError):
            mala_step(st["latent_locations"], u_target(st, data, nu=0.0), 0.0,
                      np.random.default_rng(0))

    def test_detailed_balance_total_variation(self):
        # long-run histogram of the chain matches the grid-normalized target
        lam = 2.0
        sig2 = 0.25
        base = make_state([[lam]], [[0.0], [1.0]], [[0.5], [0.5]], [sig2])
        x = np.array([[0.9], [0.9]])
        data = DataMatrix(x)
        target = u_target(base, data, nu=0.0)
        rng = np.random.default_rng(25)
        cur = base["latent_locations"]
        n_steps = 200_000
        keep = np.empty(2 * n_steps)
        for t in range(n_steps):
            cur, _, _ = mala_step(cur, target, 0.01, rng)
            keep[2 * t : 2 * t + 2] = cur[:, 0]
        # target per coordinate: exp(-(x - lam*u)^2 / (2 sig2)) on [0,1]
        grid = np.linspace(0, 1, 2001)
        dens = np.exp(-((0.9 - lam * grid) ** 2) / (2 * sig2))
        dens /= np.trapezoid(dens, grid)
        bins = np.linspace(0, 1, 41)
        hist, _ = np.histogram(keep[10000:], bins=bins, density=True)
        cell = np.array([
            np.trapezoid(dens[(grid >= a) & (grid <= b)], grid[(grid >= a) & (grid <= b)])
            for a, b in zip(bins[:-1], bins[1:])
        ]) / (bins[1] - bins[0])
        tv = 0.5 * np.sum(np.abs(hist - cell)) * (bins[1] - bins[0])
        assert tv < 0.05


class TestShrinkage:
    def test_positive_outputs(self):
        st, _ = state_data_pair(seed=26)
        rng = np.random.default_rng(27)
        gamma, tau = sample_shrinkage(st["loadings"], st["local_scales"], st["global_scale"],
                                      rng)
        assert np.all(gamma > 0) and tau > 0
        assert gamma.shape == st["local_scales"].shape

    def test_gamma_chain_matches_grid_conditional(self):
        # 1x1 instance with tau fixed at 1: the gamma chain's stationary law is
        # p(gamma) ∝ gamma^-1 (1+gamma)^-1 exp(-lam^2/(2 gamma))
        lam = 1.2
        rng = np.random.default_rng(28)
        cur = 1.0
        draws = np.empty(20000)
        for t in range(20000):
            gamma, _ = sample_shrinkage(np.array([[lam]]), np.array([[cur]]), 1.0, rng)
            cur = float(gamma[0, 0])
            draws[t] = cur

        grid = np.logspace(-6, 6, 20001)
        pdf = np.exp(-(lam**2) / (2 * grid)) / (grid * (1 + grid))
        cdf = integrate.cumulative_trapezoid(pdf, grid, initial=0.0)
        cdf /= cdf[-1]

        def cdf_fn(q):
            return np.interp(q, grid, cdf)

        stat = kstest(draws[2000:], cdf_fn).statistic
        assert stat < 0.02

    def test_tau_shape_depends_on_all_loadings(self):
        # with many loadings the tau conditional concentrates; check the
        # (PH+1)/2 shape pattern through the conditional mean given gamma=1
        rng = np.random.default_rng(29)
        p, h = 30, 4
        lam = rng.standard_normal((p, h))
        taus = np.array([sample_shrinkage(lam, np.ones((p, h)), 1.0, rng)[1]
                         for _ in range(4000)])
        # for shape (PH+1)/2 and scale ~ sum(lam^2)/2 the mean given the
        # auxiliary is scale/(shape-1); aux contributes little here
        shape = (p * h + 1) / 2
        scale = np.sum(lam**2) / 2
        assert np.median(taus) == pytest.approx(scale / shape, rel=0.25)


class TestChain:
    def make_problem(self, seed=0, n=40, p=4):
        rng = np.random.default_rng(seed)
        raw = np.column_stack([
            rng.uniform(size=n),
            rng.standard_normal((n, p - 1)) * 0.5,
        ])
        anchor = AnchorSet(raw[:, :1] / 10.0, np.array([0.01]))
        data = DataMatrix(np.hstack([anchor.coordinates, raw[:, 1:]]))
        return data, anchor

    def test_deterministic_given_seed(self):
        data, anchor = self.make_problem()
        hp = Hyperparameters(iterations=60, burn_in=30, thin=5, seed=7, L=5)
        asg = FactorAssignment(np.array([1]))
        c1 = run_chain(data, anchor, hp, asg)
        c2 = run_chain(data, anchor, hp, asg)
        assert np.array_equal(c1.loadings, c2.loadings)
        assert np.array_equal(c1.latent_locations, c2.latent_locations)
        assert np.array_equal(
            c1.diagnostics.log_posterior_trace, c2.diagnostics.log_posterior_trace
        )

    def test_sample_invariants(self):
        data, anchor = self.make_problem(seed=1)
        hp = Hyperparameters(iterations=80, burn_in=40, thin=4, seed=3, L=5)
        chain = run_chain(data, anchor, hp, FactorAssignment(np.array([1])))
        assert len(chain) == 10
        u = chain.latent_locations
        assert np.all(u >= 0) and np.all(u <= 1)
        assert np.all(chain.residual_variances > 0)
        assert np.all(chain.spline_coefficients[:, 1:] >= 0)
        # anchor variance fixed across the whole chain
        assert np.all(chain.residual_variances[:, 0] == anchor.residual_variances[0])

    def test_rejects_missing_anchor_columns(self):
        data, anchor = self.make_problem(seed=2)
        bad = DataMatrix(data.values[:, ::-1])
        hp = Hyperparameters(iterations=10, burn_in=5)
        with pytest.raises(ValueError):
            run_chain(bad, anchor, hp, FactorAssignment(np.array([1])))

    def test_assignment_mismatch(self):
        data, anchor = self.make_problem(seed=3)
        hp = Hyperparameters(iterations=10, burn_in=5)
        with pytest.raises(ValueError):
            run_chain(data, anchor, hp, FactorAssignment(np.array([1, 2])))

    def test_initial_state_structure(self):
        data, anchor = self.make_problem(seed=4)
        hp = Hyperparameters(L=6)
        asg = FactorAssignment(np.array([1]))
        st = initial_state(data, anchor, hp, asg)
        assert tuple(st) == (*CHAIN_ARRAYS, "factors", "geometry", "log_step", "t")
        assert st["t"] == 0 and st["log_step"] == np.log(hp.mala_step)
        assert st["geometry"].u is st["latent_locations"]
        assert np.array_equal(st["factors"], eta(st["spline_coefficients"],
                                                 st["latent_locations"], asg))
        # latent locations are the anchor-column ranks over N
        u = st["latent_locations"]
        order = np.argsort(anchor.coordinates[:, 0], kind="stable")
        assert np.allclose(np.sort(u[:, 0]), np.arange(1, data.n_rows + 1) / data.n_rows)
        assert np.array_equal(np.argsort(u[:, 0], kind="stable"), order)
        # identity maps: zero intercepts, unit slopes
        coef = st["spline_coefficients"]
        assert coef.shape == (7, 1)
        assert np.all(coef[0] == 0.0) and np.allclose(coef[1:], 1.0)
        assert st["residual_variances"][0] == anchor.residual_variances[0]
        assert np.allclose(st["residual_variances"][1:], 0.01)

    def test_log_joint_matches_manual_formula(self):
        st, data = state_data_pair(seed=30)
        hp = Hyperparameters(nu=10.0, sigma_a_sq=1.5, a_sigma=3.0, b_sigma=2.0, L=4)
        got = log_joint(with_carried(st), data, hp, n_anchor=1)
        expected = log_likelihood(model_mean(st), st["residual_variances"], data)
        pv = prior_variances(st)
        expected -= 0.5 * np.sum(np.log(pv) + st["loadings"]**2 / pv)
        sig = st["residual_variances"][1:]
        expected += np.sum(-(3.0 + 1) * np.log(sig) - 2.0 / sig)
        for c in st["spline_coefficients"].T:
            expected -= 0.5 * (c[0]**2 + np.sum(c[1:]**2)) / 1.5
        for k in range(st["latent_locations"].shape[1]):
            expected -= 10.0 * reference_uniform_penalty(st["latent_locations"][:, k])
        gam, tau = st["local_scales"], st["global_scale"]
        expected -= np.sum(0.5 * np.log(gam) + np.log1p(gam))
        expected -= 0.5 * np.log(tau) + np.log1p(tau)
        assert got == pytest.approx(expected, rel=1e-12)

    def sweep_states(self, data, anchor, hp, asg):
        """initial_state and the state after each of hp.iterations sweeps, and
        each sweep's accept flag, on the generator run_chain uses."""
        rng = np.random.default_rng(hp.seed)
        states, flags = [initial_state(data, anchor, hp, asg)], []
        for _ in range(hp.iterations):
            state, _, accepted = sweep(states[-1], data, anchor, hp, asg, rng)
            states.append(state)
            flags.append(accepted)
        return states, flags

    def test_carried_factors_equal_eta_at_every_draw(self):
        data, anchor = self.make_problem(seed=8)
        hp = Hyperparameters(iterations=60, burn_in=20, thin=1, seed=4, L=5)
        asg = FactorAssignment(np.array([1]))
        states, flags = self.sweep_states(data, anchor, hp, asg)
        # kept points come from both rejected and accepted proposals
        assert 0 < np.mean(flags[hp.burn_in:]) < 1
        for t, st in enumerate(states):
            assert st["t"] == t
            assert np.array_equal(st["factors"],
                                  eta(st["spline_coefficients"], st["latent_locations"], asg))
            assert st["geometry"].u is st["latent_locations"]

    def test_carried_geometry_equals_fresh_computation_at_every_sweep(self, monkeypatch):
        data, anchor = self.make_problem(seed=8)
        hp = Hyperparameters(iterations=60, burn_in=20, thin=1, seed=4, L=5)
        asg = FactorAssignment(np.array([1]))
        cross_builds, penalty_points, penalty_builds = [], [], []

        def counting_cross(geo):
            cross_builds.append(geo.u)
            return cross_func(geo)

        def counting_penalties(geo):
            penalty_points.append(geo.u)
            return penalties_func(geo)

        def counting_penalty(u_col):
            penalty_builds.append(u_col)
            return uniform_penalty(u_col)

        cross_func, penalties_func = LatentGeometry.cross.func, LatentGeometry.penalties.func
        for name, func in (("cross", counting_cross), ("penalties", counting_penalties)):
            counted = cached_property(func)
            counted.__set_name__(LatentGeometry, name)
            monkeypatch.setattr(LatentGeometry, name, counted)
        monkeypatch.setattr(nifa.sampler, "uniform_penalty", counting_penalty)
        states, flags = self.sweep_states(data, anchor, hp, asg)
        assert 0 < np.mean(flags[hp.burn_in:]) < 1
        # the cross products: the start, then each accepted point a later sweep reads
        assert len(cross_builds) == 1 + sum(flags[:-1])
        # the penalty: once per column of each distinct point the target scores, at
        # most the start and one proposal per sweep, among them every kept point
        assert len({id(u) for u in penalty_points}) == len(penalty_points) <= 1 + hp.iterations
        assert len(penalty_builds) == asg.n_locations * len(penalty_points)
        assert all(any(st["latent_locations"] is u for u in penalty_points) for st in states)
        for st in states:
            # what the next sweep's spline block and target read at this point
            lam, coef, u, sig = (st[name] for name in CHAIN_ARRAYS[:4])
            used = spline_posterior(lam, sig, st["geometry"], asg, data, hp)
            fresh = reference_spline_posterior(lam, sig, u, asg, data, hp)
            assert all(np.array_equal(a, b) for a, b in zip(used, fresh))
            value = u_log_target(u, coef, lam, sig, asg, data, hp.nu, st["geometry"])[0]
            assert value == reference_u_log_target(u, coef, lam, sig, asg, data, hp.nu)[0]

    @pytest.mark.parametrize("hold", [SIGMA_HOLD_SWEEPS, 5])
    def test_residual_variances_held_then_drawn(self, monkeypatch, hold):
        monkeypatch.setattr(nifa.sampler, "SIGMA_HOLD_SWEEPS", hold)
        data, anchor = self.make_problem(seed=9)
        hp = Hyperparameters(iterations=30, burn_in=20, thin=1, seed=5, L=5)
        states, _ = self.sweep_states(data, anchor, hp, FactorAssignment(np.array([1])))
        start = min(hold, hp.burn_in)
        for t in range(hp.iterations):
            before, after = (states[t]["residual_variances"], states[t + 1]["residual_variances"])
            if t < start:
                assert after is before
            else:
                assert not np.array_equal(after[1:], before[1:])
                assert after[0] == anchor.residual_variances[0]

    def test_step_adapts_in_burn_in_then_freezes(self):
        data, anchor = self.make_problem(seed=8)
        hp = Hyperparameters(iterations=60, burn_in=20, thin=1, seed=4, L=5)
        states, flags = self.sweep_states(data, anchor, hp, FactorAssignment(np.array([1])))
        assert 0 < np.mean(flags[:hp.burn_in]) < 1
        for t, accepted in enumerate(flags):
            move = 0.05 * ((1.0 if accepted else 0.0) - MALA_TARGET_ACCEPTANCE)
            expected = states[t]["log_step"] + (move if t < hp.burn_in else 0.0)
            assert states[t + 1]["log_step"] == expected

    def test_hand_loop_of_sweeps_reproduces_run_chain(self):
        data, anchor = self.make_problem(seed=5)
        hp = Hyperparameters(iterations=50, burn_in=20, thin=3, seed=11, L=5)
        asg = FactorAssignment(np.array([1]))
        chain = run_chain(data, anchor, hp, asg)
        states, flags = self.sweep_states(data, anchor, hp, asg)
        kept = states[hp.burn_in + 1::hp.thin]
        assert len(kept) == len(chain)
        for name in CHAIN_ARRAYS:
            assert np.array_equal(np.array([st[name] for st in kept]), getattr(chain, name))
        trace = [log_joint(st, data, hp, n_anchor=1) for st in kept]
        assert np.array_equal(trace, chain.diagnostics.log_posterior_trace)
        rate = sum(flags[hp.burn_in:]) / (hp.iterations - hp.burn_in)
        assert rate == chain.diagnostics.mala_acceptance_rate

    def test_chain_trace_matches_samples(self):
        data, anchor = self.make_problem(seed=5)
        hp = Hyperparameters(iterations=40, burn_in=20, thin=10, seed=11, L=5)
        chain = run_chain(data, anchor, hp, FactorAssignment(np.array([1])))
        for m, lp in enumerate(chain.diagnostics.log_posterior_trace):
            st = {name: getattr(chain, name)[m] for name in CHAIN_ARRAYS}
            st["assignment"] = chain.assignment
            assert log_joint(with_carried(st), data, hp, n_anchor=1) == lp

    @pytest.mark.parametrize("block, nth_call, poison", [
        ("sample_loadings", 3, lambda lam: lam * np.nan),
        ("sample_shrinkage", 3, lambda out: (out[0], np.nan)),
        pytest.param("sample_shrinkage", 3, lambda out: (out[0], 0.0),
                     id="sample_shrinkage-3-zero_tau"),
    ])
    def test_non_finite_block_fails_at_its_sweep(self, monkeypatch, block, nth_call, poison):
        import nifa.sampler

        data, anchor = self.make_problem(seed=6)
        hp = Hyperparameters(iterations=20, burn_in=10, thin=5, seed=1, L=5)
        original, calls = getattr(nifa.sampler, block), []

        def poisoned(*args, **kwargs):
            calls.append(None)
            out = original(*args, **kwargs)
            return poison(out) if len(calls) == nth_call else out

        monkeypatch.setattr(nifa.sampler, block, poisoned)
        with pytest.raises(RuntimeError, match="at sweep 2$"):
            run_chain(data, anchor, hp, FactorAssignment(np.array([1])))

    def test_chain_arrays_are_read_only_and_records_derived(self):
        data, anchor = self.make_problem(seed=7)
        hp = Hyperparameters(iterations=30, burn_in=10, thin=5, seed=2, L=5)
        chain = run_chain(data, anchor, hp, FactorAssignment(np.array([1])))
        assert chain.loadings.shape == (len(chain), data.n_features, 1)
        with pytest.raises(ValueError):
            chain.loadings[0, 0, 0] = 1.0
        assert chain.samples is chain.samples
        for m, s in enumerate(chain.samples):
            for name in ("loadings", "latent_locations", "residual_variances",
                         "local_scales", "global_scale"):
                assert np.array_equal(getattr(s, name), getattr(chain, name)[m])
            for h, g in enumerate(s.splines):
                assert np.array_equal(g.intercept, chain.spline_coefficients[m, 0, h])
                assert np.array_equal(g.slopes, chain.spline_coefficients[m, 1:, h])


# a seeded fit on setting 3 data (N from argv): pretraining at the default
# bandwidths, then 200 sweeps with L=8 and H=4; its chain arrays, log-posterior trace
# and MALA acceptance pickled to stdout
FIT_PROBE = """
import pickle, sys
import numpy as np
from nifa.model import CHAIN_ARRAYS, DataMatrix, FactorAssignment, Hyperparameters
from nifa.pretrain import DiffusionConfig, run_pretraining
from nifa.sampler import run_chain
from nifa.simulate import gen_setting3
data = gen_setting3(int(sys.argv[1]), 1)
anchor, _ = run_pretraining(data, DiffusionConfig(), 8)
augmented = DataMatrix(np.hstack([anchor.coordinates, data.values]))
assignment = FactorAssignment.round_robin(4, anchor.n_anchors)
chain = run_chain(augmented, anchor, Hyperparameters(L=8, iterations=200, burn_in=100, thin=1,
                                                     seed=1), assignment)
sys.stdout.buffer.write(pickle.dumps(([getattr(chain, name) for name in CHAIN_ARRAYS],
                                      chain.diagnostics.log_posterior_trace,
                                      chain.diagnostics.mala_acceptance_rate)))
"""


def fit_bytes(blas_threads: int, n: int) -> bytes:
    """FIT_PROBE's output in a fresh interpreter with the given number of
    OpenBLAS threads."""
    path = os.pathsep.join([str(Path(nifa.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS=str(blas_threads))
    proc = subprocess.run([sys.executable, "-c", FIT_PROBE, str(n)],
                          capture_output=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout


class TestBlasThreads:
    # neither N is a multiple of 64 (OpenBLAS's dgemv blocks) nor of 4 (its row groups)
    @pytest.mark.parametrize("n", [150, 333])
    def test_draws_do_not_depend_on_the_blas_thread_count(self, n):
        # a seeded fit repeats its draws under another OPENBLAS_NUM_THREADS
        assert fit_bytes(1, n) == fit_bytes(2, n)
