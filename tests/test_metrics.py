from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from nifa.metrics import (
    covariance_estimators,
    ks_to_uniform,
    sliced_wasserstein,
    sliced_wasserstein_details,
    wasserstein2_1d,
)
from nifa.model import (
    DataMatrix,
    DomainError,
    FactorAssignment,
    Hyperparameters,
    ShapeError,
    eta,
)
from nifa.pretrain import AnchorSet
from nifa.sampler import ChainDiagnostics, PosteriorChain

finite_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
sample_arrays = arrays(np.float64, st.integers(1, 20), elements=finite_floats)


class TestWasserstein1d:
    def test_identical_is_zero(self):
        a = np.array([3.0, -1.0, 2.0])
        assert wasserstein2_1d(a, a) == 0.0

    def test_hand_case(self):
        assert wasserstein2_1d(np.zeros(2), np.ones(2)) == pytest.approx(1.0)

    def test_shift_invariance(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal(50)
        assert wasserstein2_1d(a, a + 2.5) == pytest.approx(2.5)

    def test_matches_quantile_integral(self):
        # independent route: integrate |F^-1 - G^-1|^2 over a dense z-grid
        rng = np.random.default_rng(1)
        a, b = rng.standard_normal(30), rng.standard_normal(30) + 1
        z = (np.arange(30_000) + 0.5) / 30_000
        qa = np.quantile(a, z, method="inverted_cdf")
        qb = np.quantile(b, z, method="inverted_cdf")
        expected = np.sqrt(np.mean((qa - qb) ** 2))
        assert wasserstein2_1d(a, b) == pytest.approx(expected, rel=1e-3)

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            wasserstein2_1d(np.ones(3), np.ones(4))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            wasserstein2_1d(np.array([]), np.array([]))

    @settings(max_examples=200, deadline=None)
    @given(sample_arrays)
    def test_identity_of_indiscernibles(self, a):
        assert wasserstein2_1d(a, np.random.permutation(a)) == pytest.approx(0.0, abs=1e-9)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 15), st.integers(0, 10**9))
    def test_metric_axioms_random_triples(self, n, seed):
        rng = np.random.default_rng(seed)
        a, b, c = rng.standard_normal((3, n)) * rng.uniform(0.1, 100)
        dab = wasserstein2_1d(a, b)
        dba = wasserstein2_1d(b, a)
        dac = wasserstein2_1d(a, c)
        dcb = wasserstein2_1d(c, b)
        assert dab == pytest.approx(dba)
        assert dab >= 0
        assert dab <= dac + dcb + 1e-9 * (1 + dab)


class TestSlicedWasserstein:
    def test_self_distance_zero(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((40, 3))
        assert sliced_wasserstein(x, x, 20, rng=3) == 0.0

    def test_p1_equals_1d(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((25, 1))
        b = rng.standard_normal((25, 1)) + 0.7
        assert sliced_wasserstein(a, b, 13, rng=5) == pytest.approx(
            wasserstein2_1d(a.ravel(), b.ravel())
        )

    def test_two_point_closed_form(self):
        # two unit masses at distance d in the plane: E|cos theta| = 2/pi
        d = 3.0
        x = np.array([[0.0, 0.0], [0.0, 0.0]])
        y = np.array([[d, 0.0], [d, 0.0]])
        mean, se, _ = sliced_wasserstein_details(x, y, n_projections=4000, rng=6)
        assert abs(mean - 2 * d / np.pi) < 3 * se

    def test_unequal_sizes_use_quantile_grid(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((100, 2))
        y = rng.standard_normal((40, 2)) + 5.0
        val = sliced_wasserstein(x, y, 50, rng=8)
        assert np.isfinite(val) and val > 3.0

    def test_rotation_invariance_in_distribution(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((200, 2))
        y = rng.standard_normal((200, 2)) * 1.5
        theta = 0.7
        q = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
        d1, se1, _ = sliced_wasserstein_details(x, y, 400, rng=10)
        d2, se2, _ = sliced_wasserstein_details(x @ q.T, y @ q.T, 400, rng=11)
        assert abs(d1 - d2) < 4 * np.hypot(se1, se2)

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            sliced_wasserstein(np.ones((3, 2)), np.ones((3, 3)))

    def test_projection_count_validated(self):
        with pytest.raises(ValueError):
            sliced_wasserstein(np.ones((3, 2)), np.ones((3, 2)), 0)

    @pytest.mark.parametrize("rows", [(0, 3), (3, 0)])
    def test_empty_cloud_rejected(self, rows):
        x, y = np.ones((rows[0], 2)), np.ones((rows[1], 2))
        with pytest.raises(ValueError, match="at least one row"):
            sliced_wasserstein_details(x, y)


class TestKsToUniform:
    def test_exact_midpoint_grid(self):
        n = 20
        u = (np.arange(1, n + 1) - 0.5) / n
        assert ks_to_uniform(u) == pytest.approx(0.5 / n)

    def test_degenerate_mass_at_zero(self):
        assert ks_to_uniform(np.zeros(10)) == pytest.approx(1.0)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(12)
        u = rng.uniform(size=30)
        assert ks_to_uniform(u) == ks_to_uniform(rng.permutation(u))

    def test_matches_scipy_kstest(self):
        from scipy.stats import kstest

        rng = np.random.default_rng(13)
        u = rng.uniform(size=100)
        assert ks_to_uniform(u) == pytest.approx(kstest(u, "uniform").statistic)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            ks_to_uniform(np.array([0.5, 1.5]))


def linear_chain(n=400, p=5, h=2, seed=0, eta_law="normal"):
    """A synthetic 'posterior' holding the truth, for estimator checks."""
    rng = np.random.default_rng(seed)
    lam = rng.standard_normal((p, h))
    L = 500
    if eta_law == "normal":
        u = rng.uniform(size=(n, h))
        from scipy.stats import norm

        # monotone piecewise-linear approximation of the normal quantile
        knots = np.linspace(0, 1, L + 1)
        vals = norm.ppf(np.clip(knots, 1e-6, 1 - 1e-6))
        coef = np.concatenate([[vals[0]], np.diff(vals) * L])
    else:
        coef = np.concatenate([[0.0], np.ones(L) * 2.0])
        u = rng.beta(0.4, 0.4, size=(n, h))
    coef = np.repeat(coef[:, None], h, axis=1)
    assignment = FactorAssignment.round_robin(h, h)
    factors = eta(coef, u, assignment)
    data = DataMatrix(factors @ lam.T + 0.2 * rng.standard_normal((n, p)))
    chain = PosteriorChain(
        loadings=lam[None],
        spline_coefficients=coef[None],
        latent_locations=u[None],
        residual_variances=np.full((1, p), 0.04),
        local_scales=np.ones((1, p, h)),
        global_scale=np.ones(1),
        assignment=assignment,
        diagnostics=ChainDiagnostics(np.zeros(1), 0.5, np.zeros(5)),
        config=Hyperparameters(L=L),
        anchor=AnchorSet(u[:, :1], np.array([0.01])),
    )
    return chain, data


class TestCovarianceEstimators:
    def test_symmetric_psd(self):
        chain, data = linear_chain(seed=14)
        for mat in covariance_estimators(chain, data):
            assert np.allclose(mat, mat.T, atol=1e-10)
            assert np.min(np.linalg.eigvalsh(mat)) > -1e-10

    def test_gaussian_factors_estimators_agree(self):
        chain, data = linear_chain(n=3000, seed=15, eta_law="normal")
        _, naive, corrected = covariance_estimators(chain, data)
        scale = np.max(np.abs(naive))
        assert np.max(np.abs(naive - corrected)) < 0.05 * scale

    def test_corrected_beats_naive_on_non_gaussian_factors(self):
        # factors far from standard normal: the plug-in Lambda Lambda' + Sigma
        # formula assumes unit factor covariance and is biased
        chain, data = linear_chain(n=2000, seed=16, eta_law="beta")
        empirical, naive, corrected = covariance_estimators(chain, data)
        err_naive = np.linalg.norm(naive - empirical)
        err_corr = np.linalg.norm(corrected - empirical)
        assert err_corr < err_naive

    def test_empty_chain_rejected(self):
        chain, data = linear_chain(seed=17)
        with pytest.raises(ValueError):
            covariance_estimators(replace(
                chain, diagnostics=ChainDiagnostics(np.empty(0), 0.0, np.zeros(5))), data)
