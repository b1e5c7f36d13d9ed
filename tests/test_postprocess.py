import numpy as np
import pytest

from nifa.model import (
    FactorAssignment,
    Hyperparameters,
    NiftyState,
    PiecewiseLinearMap,
    spline_coefficients,
)
from nifa.postprocess import (
    DegenerateLoadingError,
    _greedy_match,
    match_align,
    normalize_columns,
    orthogonalize_partition,
    postprocess_chain,
    summarize,
    varimax_rotation,
)
from nifa.pretrain import AnchorSet
from nifa.sampler import ChainDiagnostics, PosteriorChain

GRID = np.linspace(0.0, 1.0, 101)


def mapped_product(state):
    """Lambda * g evaluated on the shared u-grid; invariant under alignment."""
    eta = np.column_stack([g(GRID) for g in state.splines])
    return eta @ state.loadings.T


def base_state(seed=0, p=6, h=4, k=2, L=5):
    rng = np.random.default_rng(seed)
    return NiftyState(
        loadings=rng.standard_normal((p, h)),
        splines=tuple(
            PiecewiseLinearMap(rng.standard_normal() * 0.2, rng.uniform(0.1, 1.0, L))
            for _ in range(h)
        ),
        latent_locations=rng.uniform(size=(12, k)),
        residual_variances=rng.uniform(0.5, 1.5, p),
        local_scales=np.ones((p, h)),
        global_scale=1.0,
        assignment=FactorAssignment.round_robin(h, k),
    )


def rotated_copy(state, seed):
    """Apply a random rotation within each shared-location partition."""
    rng = np.random.default_rng(seed)
    lam = state.loadings.copy()
    splines = list(state.splines)
    k0 = state.assignment.zero_based
    for k in range(state.n_locations):
        idx = np.flatnonzero(k0 == k)
        q, _ = np.linalg.qr(rng.standard_normal((idx.size, idx.size)))
        lam[:, idx] = lam[:, idx] @ q
        coef = np.column_stack(
            [np.concatenate([[splines[h].intercept], splines[h].slopes]) for h in idx]
        ) @ q
        for pos, h in enumerate(idx):
            splines[h] = PiecewiseLinearMap(coef[0, pos], coef[1:, pos])
    return NiftyState(
        lam, tuple(splines), state.latent_locations, state.residual_variances,
        state.local_scales, state.global_scale, state.assignment,
    )


def make_chain(n_samples=6, seed=0):
    base = base_state(seed=seed)
    samples = [base] + [rotated_copy(base, seed + 1 + m) for m in range(n_samples - 1)]
    rng = np.random.default_rng(seed + 50)
    trace = rng.standard_normal(n_samples)
    trace[0] = 10.0  # make the untouched base state the pivot
    diag = ChainDiagnostics(trace, 0.5, np.zeros(5))
    anchor = AnchorSet(np.zeros((12, 2)) + rng.uniform(size=(12, 2)), np.array([0.01, 0.01]))
    return PosteriorChain.from_states(samples, diag, Hyperparameters(L=5), anchor)


class TestVarimax:
    def test_returns_orthogonal(self):
        rng = np.random.default_rng(1)
        rot = varimax_rotation(rng.standard_normal((10, 3)))
        assert np.allclose(rot @ rot.T, np.eye(3), atol=1e-10)

    def test_single_column_identity(self):
        assert np.array_equal(varimax_rotation(np.ones((5, 1))), np.eye(1))


class TestOrthogonalize:
    def test_output_columns_orthogonal(self):
        rng = np.random.default_rng(2)
        block = rng.standard_normal((8, 3))
        out, rot = orthogonalize_partition(block)
        gram = out.T @ out
        assert np.allclose(gram - np.diag(np.diag(gram)), 0.0, atol=1e-10)

    def test_rotation_is_orthogonal_and_consistent(self):
        rng = np.random.default_rng(3)
        block = rng.standard_normal((7, 2))
        out, rot = orthogonalize_partition(block)
        assert np.allclose(rot @ rot.T, np.eye(2), atol=1e-12)
        assert np.allclose(out, block @ rot)

    def test_sign_convention(self):
        rng = np.random.default_rng(4)
        out, _ = orthogonalize_partition(rng.standard_normal((9, 3)))
        for j in range(3):
            assert out[np.argmax(np.abs(out[:, j])), j] > 0

    def test_idempotent(self):
        rng = np.random.default_rng(5)
        out, _ = orthogonalize_partition(rng.standard_normal((9, 3)))
        out2, rot2 = orthogonalize_partition(out)
        assert np.allclose(rot2, np.eye(3), atol=1e-8)
        assert np.allclose(out2, out, atol=1e-8)

    def test_rank_deficient_raises(self):
        col = np.arange(6.0)
        with pytest.raises(DegenerateLoadingError):
            orthogonalize_partition(np.column_stack([col, 2 * col]))


class TestGreedyMatch:
    def test_recovers_permutation_and_signs(self):
        rng = np.random.default_rng(6)
        pivot = np.linalg.qr(rng.standard_normal((10, 4)))[0]
        perm_true = np.array([2, 0, 3, 1])
        signs_true = np.array([1.0, -1.0, -1.0, 1.0])
        block = pivot[:, perm_true] * signs_true
        # block column c holds pivot column perm_true[c] times signs_true[c]
        perm, signs, tied = _greedy_match(pivot, block)
        assert not tied
        aligned = block[:, perm] * signs
        assert np.allclose(aligned, pivot)

    def test_reports_ties(self):
        pivot = np.eye(2)
        block = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2)
        _, _, tied = _greedy_match(pivot, block)
        assert tied


class TestMatchAlign:
    def test_preserves_mapped_product(self):
        chain = make_chain()
        aligned, _ = match_align(chain)
        for before, after in zip(chain.samples, aligned.samples):
            assert np.max(np.abs(mapped_product(before) - mapped_product(after))) < 1e-8

    def test_collapses_rotation_scatter(self):
        chain = make_chain()
        aligned, _ = match_align(chain)
        ref = None
        for s in aligned.samples:
            out = s.loadings
            if ref is None:
                ref = out
            assert np.allclose(out, ref, atol=1e-6)

    def test_pivot_is_top_log_posterior(self):
        chain = make_chain()
        _, report = match_align(chain)
        assert report.pivot_index == 0

    def test_idempotent(self):
        chain = make_chain()
        once, _ = match_align(chain)
        twice, rep2 = match_align(once)
        for s1, s2 in zip(once.samples, twice.samples):
            assert np.allclose(s1.loadings, s2.loadings, atol=1e-8)
            for g1, g2 in zip(s1.splines, s2.splines):
                assert g1.intercept == pytest.approx(g2.intercept, abs=1e-8)
                assert np.allclose(g1.slopes, g2.slopes, atol=1e-8)

    def test_empty_chain_rejected(self):
        chain = make_chain()
        with pytest.raises(ValueError):
            match_align(PosteriorChain.from_states(
                (), ChainDiagnostics(np.empty(0), 0.0, np.zeros(5)),
                chain.config, chain.anchor,
            ))


class TestNormalize:
    def test_unit_norms_and_preserved_product(self):
        st = base_state(seed=8)
        lam, coef = normalize_columns(st.loadings, spline_coefficients(st.splines))
        out = NiftyState(lam, [PiecewiseLinearMap(c[0], c[1:]) for c in coef.T],
                         st.latent_locations, st.residual_variances, st.local_scales,
                         st.global_scale, st.assignment)
        assert np.allclose(np.linalg.norm(out.loadings, axis=0), 1.0, atol=1e-12)
        assert np.max(np.abs(mapped_product(st) - mapped_product(out))) < 1e-10

    def test_stack_matches_single_draws(self):
        chain = make_chain(seed=13)
        lam, coef = normalize_columns(chain.loadings, chain.spline_coefficients)
        for m in range(len(chain)):
            lam_m, coef_m = normalize_columns(chain.loadings[m], chain.spline_coefficients[m])
            assert np.array_equal(lam[m], lam_m) and np.array_equal(coef[m], coef_m)

    def test_zero_column_raises(self):
        st = base_state(seed=9)
        lam = st.loadings.copy()
        lam[:, 1] = 0.0
        with pytest.raises(DegenerateLoadingError):
            normalize_columns(lam, spline_coefficients(st.splines))


class TestPipeline:
    def test_full_pipeline_properties(self):
        chain = make_chain(seed=10)
        out, report = postprocess_chain(chain)
        assert len(out) == len(chain)
        for before, after in zip(chain.samples, out.samples):
            assert np.linalg.norm(after.loadings, axis=0) == pytest.approx(1.0)
            assert np.max(np.abs(mapped_product(before) - mapped_product(after))) < 1e-8

    def test_summarize_shapes(self):
        chain = make_chain(seed=11)
        out, _ = postprocess_chain(chain)
        s = summarize(out, n_grid=51)
        p, h = out.samples[0].loadings.shape
        assert s["u_grid"].shape == (51,)
        assert s["loadings_mean"].shape == (p, h)
        assert s["mappings_mean"].shape == (51, h)
        assert np.all(s["loadings_lower"] <= s["loadings_upper"] + 1e-12)

    def test_summarize_interval_covers_mean_of_constant_chain(self):
        chain = make_chain(seed=12)
        single = PosteriorChain.from_states(
            (chain.samples[0],) * 4,
            ChainDiagnostics(np.zeros(4), 0.5, np.zeros(5)),
            chain.config, chain.anchor,
        )
        s = summarize(single)
        assert np.allclose(s["loadings_lower"], s["loadings_upper"])
        assert np.allclose(s["loadings_lower"], s["loadings_mean"])
