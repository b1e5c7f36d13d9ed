import numpy as np
import pytest

from nifa.model import (
    DataMatrix,
    DomainError,
    FactorAssignment,
    Hyperparameters,
    NiftyState,
    PiecewiseLinearMap,
    ShapeError,
    eta,
    log_likelihood,
    rank_transform,
    spline_basis,
    spline_design,
    spline_piece,
)


def make_state(n=6, p=3, h=2, k=2, L=4, seed=0):
    """One draw as the arrays the chain stacks, plus its assignment."""
    rng = np.random.default_rng(seed)
    return dict(
        loadings=rng.standard_normal((p, h)),
        spline_coefficients=np.column_stack([
            np.concatenate([[rng.standard_normal()], rng.uniform(0.1, 2.0, L)])
            for _ in range(h)
        ]),
        latent_locations=rng.uniform(size=(n, k)),
        residual_variances=rng.uniform(0.5, 2.0, p),
        local_scales=rng.uniform(0.5, 2.0, (p, h)),
        global_scale=1.0,
        assignment=FactorAssignment.round_robin(h, k),
    )


def make_record(st):
    """The NiftyState record of a draw from ``make_state``."""
    splines = tuple(PiecewiseLinearMap(c[0], c[1:]) for c in st["spline_coefficients"].T)
    return NiftyState(st["loadings"], splines, st["latent_locations"],
                      st["residual_variances"], st["local_scales"], st["global_scale"],
                      st["assignment"])


class TestDataMatrix:
    def test_shape_accessors(self):
        dm = DataMatrix(np.ones((4, 2)))
        assert dm.n_rows == 4 and dm.n_features == 2

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            DataMatrix(np.array([[1.0, np.nan], [0.0, 1.0]]))

    def test_rejects_single_row(self):
        with pytest.raises(ValueError):
            DataMatrix(np.ones((1, 3)))

    def test_feature_names_length_checked(self):
        with pytest.raises(ShapeError):
            DataMatrix(np.ones((3, 2)), feature_names=["a"])


class TestFactorAssignment:
    def test_round_robin_surjective(self):
        a = FactorAssignment.round_robin(5, 3)
        assert list(a.k_of_h) == [1, 2, 3, 1, 2]
        assert a.n_factors == 5 and a.n_locations == 3

    def test_rejects_gap(self):
        with pytest.raises(ValueError):
            FactorAssignment(np.array([1, 3]))

    def test_rejects_k_above_h(self):
        with pytest.raises(ValueError):
            FactorAssignment(np.array([2]))

    def test_zero_based(self):
        a = FactorAssignment(np.array([2, 1]))
        assert list(a.zero_based) == [1, 0]


class TestSplineBasis:
    def test_columns_clamped(self):
        L = 5
        b = spline_basis(np.array([0.0, 0.5, 1.0]), L)
        assert b.shape == (3, L)
        assert np.all(b >= 0) and np.all(b <= 1 / L)
        # at u=1 every piece is saturated
        assert np.allclose(b[2], 1 / L)
        # at u=0 nothing is active
        assert np.allclose(b[0], 0.0)

    def test_row_sum_equals_u(self):
        # sum of the clamped pieces telescopes back to u itself
        u = np.linspace(0, 1, 17)
        for L in (1, 2, 7, 20):
            assert np.allclose(spline_basis(u, L).sum(axis=1), u)

    def test_design_prepends_intercept_column(self):
        u = np.array([0.0, 0.3, 1.0])
        expected = np.column_stack([np.ones(3), spline_basis(u, 4)])
        assert np.array_equal(spline_design(u, 4), expected)


def test_rank_transform_breaks_ties_by_position():
    assert np.array_equal(rank_transform([0.3, 0.1, 0.3, 0.2]), [0.75, 0.25, 1.0, 0.5])


class TestPiecewiseLinearMap:
    def test_identity_map(self):
        g = PiecewiseLinearMap(0.0, np.ones(8))
        u = np.linspace(0, 1, 33)
        assert np.allclose(g(u), u)

    def test_scalar_eval(self):
        g = PiecewiseLinearMap(1.5, np.array([2.0, 0.0]))
        assert g(0.25) == pytest.approx(1.5 + 2.0 * 0.25)
        assert g(1.0) == pytest.approx(1.5 + 2.0 * 0.5)

    def test_continuity_at_knots(self):
        rng = np.random.default_rng(3)
        g = PiecewiseLinearMap(rng.standard_normal(), rng.standard_normal(6))
        for knot in np.arange(1, 6) / 6:
            left = g(knot - 1e-12)
            right = g(knot + 1e-12)
            assert abs(left - right) < 1e-9

    def test_domain_enforced(self):
        g = PiecewiseLinearMap(0.0, np.ones(3))
        with pytest.raises(DomainError):
            g(1.5)
        with pytest.raises(DomainError):
            g(np.array([-0.1, 0.5]))

    def test_derivative_picks_piece(self):
        slopes = np.array([1.0, 3.0])
        assert slopes[spline_piece(np.array([0.1, 0.9]), 2)][0] == 1.0
        assert slopes[spline_piece(np.array([0.1, 0.9]), 2)][1] == 3.0
        # at a knot the right piece applies; at u=1 the last piece does
        assert slopes[spline_piece(np.array([0.5]), 2)][0] == 3.0
        assert slopes[spline_piece(np.array([1.0]), 2)][0] == 3.0

    def test_monotone_nondecreasing(self):
        rng = np.random.default_rng(9)
        g = PiecewiseLinearMap(rng.standard_normal(), rng.uniform(0, 2, 10))
        u = np.sort(rng.uniform(size=50))
        assert np.all(np.diff(g(u)) >= -1e-12)


class TestState:
    def test_factor_matrix_matches_rowwise(self):
        st = make_state()
        factors = eta(st["spline_coefficients"], st["latent_locations"], st["assignment"])
        k0 = st["assignment"].zero_based
        splines = make_record(st).splines
        for i, u in enumerate(st["latent_locations"]):
            assert np.allclose(factors[i], [g(u[k0[h]]) for h, g in enumerate(splines)])

    def test_rejects_out_of_range_locations(self):
        st = make_state()
        bad = st["latent_locations"].copy()
        bad[0, 0] = 1.2
        with pytest.raises(DomainError):
            make_record(st | {"latent_locations": bad})

    def test_rejects_nonpositive_variance(self):
        st = make_state()
        bad = st["residual_variances"].copy()
        bad[0] = 0.0
        with pytest.raises(ValueError):
            make_record(st | {"residual_variances": bad})


class TestLogLikelihood:
    def test_matches_scipy_normal(self):
        from scipy.stats import norm

        st = make_state(seed=7)
        sig, n = st["residual_variances"], st["latent_locations"].shape[0]
        rng = np.random.default_rng(11)
        data = DataMatrix(rng.standard_normal((n, sig.size)))
        mm = rng.standard_normal((n, sig.size))
        expected = norm.logpdf(data.values, loc=mm, scale=np.sqrt(sig)).sum()
        assert log_likelihood(mm, sig, data) == pytest.approx(expected, rel=1e-12)

    def test_shape_mismatch(self):
        st = make_state()
        sig, n = st["residual_variances"], st["latent_locations"].shape[0]
        data = DataMatrix(np.ones((n, sig.size + 1)))
        with pytest.raises(ShapeError):
            log_likelihood(np.zeros((n, sig.size)), sig, data)


class TestHyperparameters:
    def test_defaults_valid(self):
        hp = Hyperparameters()
        assert hp.nu == 1e3 and hp.L == 20

    def test_burn_in_bound(self):
        with pytest.raises(ValueError):
            Hyperparameters(iterations=10, burn_in=10)

    def test_nu_nonnegative(self):
        with pytest.raises(ValueError):
            Hyperparameters(nu=-1.0)
        Hyperparameters(nu=0.0)
