import numpy as np
import pytest

from nifa.model import FactorAssignment, Hyperparameters, NiftyState, PiecewiseLinearMap
from nifa.pretrain import AnchorSet
from nifa.sampler import ChainDiagnostics, PosteriorChain
from nifa.simulate import (
    NOISE_SD,
    gen_hetero_clusters,
    gen_setting1,
    gen_setting2,
    gen_setting3,
    gen_swiss_roll,
    posterior_predictive_array,
)


class TestSetting1:
    def test_marginal_means(self):
        n = 20000
        data = gen_setting1(n, 0).values
        # Beta(0.4, 0.4) mean 1/2, variance 1/(4*1.8); Gamma(1,1) mean 1, var 1
        se1 = np.sqrt((0.25 / 1.8 + NOISE_SD**2) / n)
        se2 = np.sqrt((1.0 + NOISE_SD**2) / n)
        assert abs(data[:, 0].mean() - 0.5) < 4 * se1
        assert abs(data[:, 1].mean() - 1.0) < 4 * se2

    def test_columns_uncorrelated(self):
        n = 20000
        data = gen_setting1(n, 1).values
        r = np.corrcoef(data.T)[0, 1]
        assert abs(r) < 4 / np.sqrt(n)

    def test_deterministic(self):
        assert np.array_equal(gen_setting1(50, 3).values, gen_setting1(50, 3).values)


class TestSetting2:
    def test_population_covariance(self):
        n = 50000
        data, lam, eta = gen_setting2(n, 0)
        pop = lam @ lam.T + NOISE_SD**2 * np.eye(20)
        emp = np.cov(data.values, rowvar=False)
        # each entry is an MC average; allow a generous multiple of 1/sqrt(n)
        assert np.max(np.abs(emp - pop)) < 6 * np.max(np.abs(pop)) / np.sqrt(n) * 10

    def test_truth_shapes_and_consistency(self):
        data, lam, eta = gen_setting2(200, 4)
        assert lam.shape == (20, 2) and eta.shape == (200, 2)
        resid = data.values - eta @ lam.T
        assert abs(resid.std() - NOISE_SD) < 0.01

    def test_loadings_fixed_per_seed(self):
        _, lam1, _ = gen_setting2(10, 9)
        _, lam2, _ = gen_setting2(500, 9)
        assert np.array_equal(lam1, lam2)


class TestSetting3:
    def test_parabola_identity(self):
        data = gen_setting3(5000, 0).values
        # x2 = 2 z^2 = (2z)^2 / 2 = x1^2 / 2 up to noise
        assert np.mean(np.abs(data[:, 1] - data[:, 0] ** 2 / 2)) < 3 * NOISE_SD

    def test_noise_columns(self):
        data = gen_setting3(20000, 1).values
        assert np.allclose(data[:, 4:].mean(axis=0), 0.0, atol=4 * NOISE_SD / np.sqrt(20000) * 2)
        assert np.allclose(data[:, 4:].var(axis=0), NOISE_SD**2, rtol=0.1)

    def test_block_independence(self):
        n = 20000
        data = gen_setting3(n, 2).values
        r = np.corrcoef(data[:, 0], data[:, 2])[0, 1]
        assert abs(r) < 4 / np.sqrt(n)

    def test_beta_law_flag(self):
        d_beta = gen_setting3(20000, 3, law="beta").values
        # Beta(0.5,0.5) pushes mass to the ends: variance of 2z is 4*(1/8)=0.5
        assert d_beta[:, 0].var() > 0.4
        with pytest.raises(ValueError):
            gen_setting3(10, 0, law="other")


class TestSwissRoll:
    def test_polar_radius_identity(self):
        data, u, v = gen_swiss_roll(2000, 0)
        radius = np.hypot(data.values[:, 4], data.values[:, 5])
        t = 3 * np.pi * u + 1.5 * np.pi
        assert np.mean(np.abs(radius - t)) < 3 * NOISE_SD

    def test_seventh_column_is_v(self):
        data, u, v = gen_swiss_roll(2000, 1)
        assert np.mean(np.abs(data.values[:, 6] - v)) < 3 * NOISE_SD

    def test_other_columns_pure_noise(self):
        data, _, _ = gen_swiss_roll(20000, 2)
        rest = data.values[:, [0, 1, 2, 3, 7, 8, 9]]
        assert np.allclose(rest.mean(axis=0), 0.0, atol=0.01)
        assert np.allclose(rest.std(axis=0), NOISE_SD, rtol=0.1)


class TestHeteroClusters:
    def test_cluster_sds(self):
        data, labels = gen_hetero_clusters(25000, 0)
        for c in range(5):
            rows = data.values[labels == c]
            pooled_sd = rows.std(axis=0, ddof=1).mean()
            assert pooled_sd == pytest.approx(c + 1, rel=0.05)

    def test_labels_balanced(self):
        _, labels = gen_hetero_clusters(503, 1)
        counts = np.bincount(labels, minlength=5)
        assert counts.max() - counts.min() <= 1

    def test_means_collinear_on_first_axis(self):
        data, labels = gen_hetero_clusters(25000, 2, spacing=7.0)
        for c in range(5):
            m = data.values[labels == c].mean(axis=0)
            assert m[0] == pytest.approx(7.0 * c, abs=0.5)
            assert np.allclose(m[1:], 0.0, atol=0.5)

    def test_minimum_size(self):
        with pytest.raises(ValueError):
            gen_hetero_clusters(4, 0)


def toy_chain(seed=0, n_states=3):
    rng = np.random.default_rng(seed)
    states = []
    for _ in range(n_states):
        states.append(
            NiftyState(
                loadings=rng.standard_normal((4, 2)),
                splines=tuple(
                    PiecewiseLinearMap(rng.standard_normal(), rng.uniform(0.1, 1, 5))
                    for _ in range(2)
                ),
                latent_locations=rng.uniform(size=(10, 2)),
                residual_variances=rng.uniform(0.1, 0.5, 4),
                local_scales=np.ones((4, 2)),
                global_scale=1.0,
                assignment=FactorAssignment.round_robin(2, 2),
            )
        )
    return PosteriorChain.from_states(
        states,
        ChainDiagnostics(np.zeros(n_states), 0.5, np.zeros(5)),
        Hyperparameters(L=5),
        AnchorSet(rng.uniform(size=(10, 2)), np.array([0.01, 0.01])),
    )


class TestPosteriorPredictive:
    def test_shapes_and_determinism(self):
        chain = toy_chain()
        a = posterior_predictive_array(chain, 25, 7)
        b = posterior_predictive_array(chain, 25, 7)
        assert a.shape == (25, 4)
        assert np.array_equal(a, b)

    def test_zero_rows(self):
        chain = toy_chain()
        out = posterior_predictive_array(chain, 0, 0)
        assert out.shape == (0, 4)

    def test_empty_chain_rejected(self):
        chain = toy_chain()
        with pytest.raises(ValueError):
            posterior_predictive_array(PosteriorChain.from_states(
                (), ChainDiagnostics(np.empty(0), 0.0, np.zeros(5)),
                chain.config, chain.anchor,
            ), 5, 0)

    def test_draws_follow_single_state_model(self):
        # one-state chain: rows are Lambda g(u) + noise with u uniform
        chain = toy_chain(seed=1, n_states=1)
        st = chain.samples[0]
        big = posterior_predictive_array(chain, 100000, 3)
        grid = np.linspace(0, 1, 20001)
        eta = np.column_stack([g(grid) for g in st.splines])
        mean_expected = (eta @ st.loadings.T).mean(axis=0)
        assert np.allclose(big.mean(axis=0), mean_expected, atol=0.02)
