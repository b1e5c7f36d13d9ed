from functools import partial

import numpy as np
import pytest
from scipy import integrate
from scipy.optimize import minimize
from scipy.special import ndtr, ndtri
from scipy.stats import kstest, truncnorm

from nifa.model import (
    DataMatrix,
    DomainError,
    FactorAssignment,
    Hyperparameters,
    eta,
    log_likelihood,
    spline_basis,
)
from nifa.pretrain import AnchorSet
from nifa.sampler import (
    CHAIN_ARRAYS,
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
    u_log_target,
    uniform_penalty,
    uniform_penalty_gradient,
)


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


def u_target(st, data, nu):
    """The latent-location log target of st as a function of u alone."""
    return partial(u_log_target, coefficients=st["spline_coefficients"],
                   loadings=st["loadings"], residual_variances=st["residual_variances"],
                   assignment=st["assignment"], data=data, nu=nu)


def spline_args(st):
    return (st["loadings"], st["residual_variances"], st["latent_locations"],
            st["assignment"])


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
        assert uniform_penalty(u) == pytest.approx(0.0, abs=1e-15)

    def test_hand_case(self):
        assert uniform_penalty(np.array([0.2, 0.9])) == pytest.approx(0.10)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(1)
        u = rng.uniform(size=30)
        assert uniform_penalty(u) == pytest.approx(uniform_penalty(rng.permutation(u)))

    def test_domain_error(self):
        with pytest.raises(DomainError):
            uniform_penalty(np.array([0.5, 1.1]))

    def test_gradient_hand_case(self):
        g = uniform_penalty_gradient(np.array([0.2, 0.9]))
        assert g == pytest.approx([-0.6, -0.2])

    def test_gradient_finite_difference(self):
        rng = np.random.default_rng(2)
        u = rng.uniform(0.1, 0.9, 15)
        grad = uniform_penalty_gradient(u)
        eps = 1e-7
        for i in range(15):
            up, dn = u.copy(), u.copy()
            up[i] += eps
            dn[i] -= eps
            fd = (uniform_penalty(up) - uniform_penalty(dn)) / (2 * eps)
            assert grad[i] == pytest.approx(fd, rel=1e-5, abs=1e-8)


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


class TestTruncatedNormal:
    @pytest.mark.parametrize("lower", [-1.5, 0.0, 2.0])
    def test_moments_match_scipy(self, lower):
        rng = np.random.default_rng(17)
        draws = np.array([_truncated_standard_normal(rng, lower, ndtr, ndtri)
                          for _ in range(20000)])
        ref = truncnorm(lower, np.inf)
        assert np.all(draws >= lower)
        assert draws.mean() == pytest.approx(ref.mean(), abs=5 * ref.std() / np.sqrt(20000))
        assert draws.std() == pytest.approx(ref.std(), rel=0.05)

    def test_far_tail(self):
        rng = np.random.default_rng(18)
        draws = np.array([_truncated_standard_normal(rng, 8.0, ndtr, ndtri)
                          for _ in range(5000)])
        assert np.all(draws >= 8.0)
        # conditional excess over the boundary is approximately Exp(8)
        assert (draws - 8.0).mean() == pytest.approx(1 / 8.0, rel=0.1)


class TestULogTarget:
    def test_gradient_matches_finite_differences(self):
        st, data = state_data_pair(seed=19)
        target = u_target(st, data, nu=50.0)
        u = st["latent_locations"]
        val, grad = target(u)
        eps = 1e-6
        for _ in range(30):
            rng = np.random.default_rng(_)
            i = rng.integers(u.shape[0])
            k = rng.integers(u.shape[1])
            up = u.copy()
            dn = u.copy()
            up[i, k] += eps
            dn[i, k] -= eps
            vp, _g = target(up)
            vn, _g = target(dn)
            fd = (vp - vn) / (2 * eps)
            assert grad[i, k] == pytest.approx(fd, rel=1e-4, abs=1e-6)

    def test_zero_gradient_at_model_mean(self):
        st, _ = state_data_pair(seed=20)
        data = DataMatrix(model_mean(st))
        _, grad = u_target(st, data, nu=0.0)(st["latent_locations"])
        assert np.allclose(grad, 0.0, atol=1e-10)

    def test_penalty_only_gradient(self):
        st = make_state(np.zeros((1, 1)), [[0.0], [1.0]], [[0.2], [0.9]], [1.0])
        data = DataMatrix(np.zeros((2, 1)))
        _, grad = u_target(st, data, nu=1.0)(st["latent_locations"])
        # target = -nu * penalty, so its gradient is minus the penalty gradient
        assert grad[:, 0] == pytest.approx([0.6, 0.2])


class TestMala:
    def test_out_of_bounds_rejected(self):
        st, data = state_data_pair(seed=21)
        rng = np.random.default_rng(22)
        u = st["latent_locations"]
        u_new, accepted = mala_step(u, u_target(st, data, nu=0.0), epsilon=100.0, rng=rng)
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
            u_new, acc = mala_step(cur, target, 1e-3, rng)
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
            cur, _ = mala_step(cur, target, 0.01, rng)
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
        st = initial_state(data, anchor, hp, FactorAssignment(np.array([1])))
        assert tuple(st) == CHAIN_ARRAYS
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
        got = log_joint(**st, data=data, hp=hp, n_anchor=1)
        expected = log_likelihood(model_mean(st), st["residual_variances"], data)
        pv = prior_variances(st)
        expected -= 0.5 * np.sum(np.log(pv) + st["loadings"]**2 / pv)
        sig = st["residual_variances"][1:]
        expected += np.sum(-(3.0 + 1) * np.log(sig) - 2.0 / sig)
        for c in st["spline_coefficients"].T:
            expected -= 0.5 * (c[0]**2 + np.sum(c[1:]**2)) / 1.5
        for k in range(st["latent_locations"].shape[1]):
            expected -= 10.0 * uniform_penalty(st["latent_locations"][:, k])
        gam, tau = st["local_scales"], st["global_scale"]
        expected -= np.sum(0.5 * np.log(gam) + np.log1p(gam))
        expected -= 0.5 * np.log(tau) + np.log1p(tau)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_chain_trace_matches_samples(self):
        data, anchor = self.make_problem(seed=5)
        hp = Hyperparameters(iterations=40, burn_in=20, thin=10, seed=11, L=5)
        chain = run_chain(data, anchor, hp, FactorAssignment(np.array([1])))
        for m, lp in enumerate(chain.diagnostics.log_posterior_trace):
            draw = [getattr(chain, name)[m] for name in CHAIN_ARRAYS]
            assert log_joint(*draw, chain.assignment, data, hp, n_anchor=1) == lp

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
