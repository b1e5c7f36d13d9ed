from dataclasses import replace

import numpy as np
import pytest

from nifa.model import FactorAssignment, Hyperparameters, eta, quantile_of_sorted
from nifa.postprocess import (
    CREDIBLE_LEVEL,
    U_GRID,
    DegenerateLoadingError,
    _greedy_match,
    mappings_on_grid,
    match_align,
    normalize_columns,
    orthogonalize_partition,
    postprocess_chain,
    summarize,
)
from nifa.pretrain import AnchorSet
from nifa.sampler import CHAIN_ARRAYS, ChainDiagnostics, PosteriorChain

GRID = np.linspace(0.0, 1.0, 101)


def mapped_product(state):
    """Lambda * g evaluated on the shared u-grid; invariant under alignment."""
    asg = state["assignment"]
    grid_u = np.repeat(GRID[:, None], asg.n_locations, axis=1)
    return eta(state["spline_coefficients"], grid_u, asg) @ state["loadings"].T


def draw(chain, m):
    """Draw m of a chain as the arrays named in CHAIN_ARRAYS, plus the assignment."""
    arrays = {name: getattr(chain, name)[m] for name in CHAIN_ARRAYS}
    return arrays | {"assignment": chain.assignment}


def base_state(seed=0, p=6, h=4, k=2, L=5):
    rng = np.random.default_rng(seed)
    return dict(
        loadings=rng.standard_normal((p, h)),
        spline_coefficients=np.column_stack([
            np.concatenate([[rng.standard_normal() * 0.2], rng.uniform(0.1, 1.0, L)])
            for _ in range(h)
        ]),
        latent_locations=rng.uniform(size=(12, k)),
        residual_variances=rng.uniform(0.5, 1.5, p),
        local_scales=np.ones((p, h)),
        global_scale=1.0,
        assignment=FactorAssignment.round_robin(h, k),
    )


def rotated_copy(state, seed):
    """Apply a random rotation within each shared-location partition."""
    rng = np.random.default_rng(seed)
    lam = state["loadings"].copy()
    coef = state["spline_coefficients"].copy()
    k0 = state["assignment"].zero_based
    for k in range(state["assignment"].n_locations):
        idx = np.flatnonzero(k0 == k)
        q, _ = np.linalg.qr(rng.standard_normal((idx.size, idx.size)))
        lam[:, idx] = lam[:, idx] @ q
        coef[:, idx] = coef[:, idx] @ q
    return state | {"loadings": lam, "spline_coefficients": coef}


def make_chain(n_samples=6, seed=0):
    base = base_state(seed=seed)
    samples = [base] + [rotated_copy(base, seed + 1 + m) for m in range(n_samples - 1)]
    rng = np.random.default_rng(seed + 50)
    trace = rng.standard_normal(n_samples)
    trace[0] = 10.0  # make the untouched base state the pivot
    diag = ChainDiagnostics(trace, 0.5, np.zeros(5))
    anchor = AnchorSet(np.zeros((12, 2)) + rng.uniform(size=(12, 2)), np.array([0.01, 0.01]))
    stacks = {name: np.stack([s[name] for s in samples]) for name in CHAIN_ARRAYS}
    return PosteriorChain(**stacks, assignment=base["assignment"], diagnostics=diag,
                          config=Hyperparameters(L=5), anchor=anchor)


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


class TestSvdRepresentative:
    def test_matches_thin_svd(self):
        rng = np.random.default_rng(20)
        block = rng.standard_normal((8, 3))
        u, s, _ = np.linalg.svd(block, full_matrices=False)
        expected = u * s
        for j in range(3):
            if expected[np.argmax(np.abs(expected[:, j])), j] < 0:
                expected[:, j] = -expected[:, j]
        out, _ = orthogonalize_partition(block)
        assert np.allclose(out, expected, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_invariant_under_rotation(self, m):
        rng = np.random.default_rng(21 + m)
        block = rng.standard_normal((9, m))
        rot, _ = np.linalg.qr(rng.standard_normal((m, m)))
        out, _ = orthogonalize_partition(block)
        out_rotated, _ = orthogonalize_partition(block @ rot)
        assert np.allclose(out_rotated, out, rtol=0.0, atol=1e-10)

    def test_stack_matches_single_draws(self):
        rng = np.random.default_rng(25)
        stack = rng.standard_normal((5, 8, 3))
        out, rot = orthogonalize_partition(stack)
        for m in range(len(stack)):
            out_m, rot_m = orthogonalize_partition(stack[m])
            assert np.array_equal(out[m], out_m) and np.array_equal(rot[m], rot_m)

    def test_rank_deficient_draw_in_stack_raises(self):
        rng = np.random.default_rng(26)
        stack = rng.standard_normal((4, 6, 2))
        stack[2, :, 1] = 2 * stack[2, :, 0]
        with pytest.raises(DegenerateLoadingError):
            orthogonalize_partition(stack)


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

    def test_tie_after_a_masked_row(self):
        # the first match masks row and column 0 with -inf; the exact tie between the
        # two remaining columns of row 1 is found, and the masked entries never count
        a = 1 / np.sqrt(2)
        block = np.array([[1.0, 0.0, 0.0], [0.0, a, a], [0.0, a, -a]])
        perm, _, tied = _greedy_match(np.eye(3), block)
        assert tied and perm[0] == 0
        _, _, tied = _greedy_match(np.eye(3), np.diag([1.0, 0.9, 0.8]))
        assert not tied


class TestMatchAlign:
    def test_preserves_mapped_product(self):
        chain = make_chain()
        aligned, _ = match_align(chain)
        for m in range(len(chain)):
            before, after = draw(chain, m), draw(aligned, m)
            assert np.max(np.abs(mapped_product(before) - mapped_product(after))) < 1e-8

    def test_collapses_rotation_scatter(self):
        chain = make_chain()
        aligned, _ = match_align(chain)
        assert np.allclose(aligned.loadings, aligned.loadings[0], atol=1e-6)

    def test_pivot_is_top_log_posterior(self):
        chain = make_chain()
        _, report = match_align(chain)
        assert report.pivot_index == 0

    def test_idempotent(self):
        chain = make_chain()
        once, _ = match_align(chain)
        twice, rep2 = match_align(once)
        assert np.allclose(once.loadings, twice.loadings, atol=1e-8)
        c1, c2 = once.spline_coefficients, twice.spline_coefficients
        assert c1[:, 0] == pytest.approx(c2[:, 0], abs=1e-8)
        assert np.allclose(c1[:, 1:], c2[:, 1:], atol=1e-8)

    def test_empty_chain_rejected(self):
        chain = make_chain()
        with pytest.raises(ValueError):
            match_align(replace(
                chain, diagnostics=ChainDiagnostics(np.empty(0), 0.0, np.zeros(5))))


class TestNormalize:
    def test_unit_norms_and_preserved_product(self):
        st = base_state(seed=8)
        lam, coef = normalize_columns(st["loadings"], st["spline_coefficients"])
        out = st | {"loadings": lam, "spline_coefficients": coef}
        assert np.allclose(np.linalg.norm(lam, axis=0), 1.0, atol=1e-12)
        assert np.max(np.abs(mapped_product(st) - mapped_product(out))) < 1e-10

    def test_stack_matches_single_draws(self):
        chain = make_chain(seed=13)
        lam, coef = normalize_columns(chain.loadings, chain.spline_coefficients)
        for m in range(len(chain)):
            lam_m, coef_m = normalize_columns(chain.loadings[m], chain.spline_coefficients[m])
            assert np.array_equal(lam[m], lam_m) and np.array_equal(coef[m], coef_m)

    def test_zero_column_raises(self):
        st = base_state(seed=9)
        lam = st["loadings"].copy()
        lam[:, 1] = 0.0
        with pytest.raises(DegenerateLoadingError):
            normalize_columns(lam, st["spline_coefficients"])


class TestPipeline:
    def test_full_pipeline_properties(self):
        chain = make_chain(seed=10)
        out, report = postprocess_chain(chain)
        assert len(out) == len(chain)
        for m in range(len(chain)):
            before, after = draw(chain, m), draw(out, m)
            assert np.linalg.norm(after["loadings"], axis=0) == pytest.approx(1.0)
            assert np.max(np.abs(mapped_product(before) - mapped_product(after))) < 1e-8

    def test_summarize_shapes(self):
        chain = make_chain(seed=11)
        out, _ = postprocess_chain(chain)
        s = summarize(out)
        p, h = out.loadings.shape[1:]
        assert s["u_grid"].shape == (101,)
        assert s["loadings_mean"].shape == (p, h)
        assert s["mappings_mean"].shape == (101, h)
        assert np.all(s["loadings_lower"] <= s["loadings_upper"] + 1e-12)

    def test_summary_intervals_equal_np_quantile(self):
        out, _ = postprocess_chain(make_chain(seed=13))
        s = summarize(out)
        lo_q, hi_q = (1 - CREDIBLE_LEVEL) / 2, 1 - (1 - CREDIBLE_LEVEL) / 2
        for key, draws in (("loadings", out.loadings), ("variances", out.residual_variances),
                           ("mappings", mappings_on_grid(out, U_GRID))):
            assert np.array_equal(s[f"{key}_lower"], np.quantile(draws, lo_q, axis=0))
            assert np.array_equal(s[f"{key}_upper"], np.quantile(draws, hi_q, axis=0))

    @pytest.mark.parametrize("m", [1, 2, 3, 20, 40, 41, 101])
    def test_quantile_of_sorted_draws_is_bitwise_np_quantile(self, m):
        rng = np.random.default_rng(m)
        # rounded draws hold ties; a fraction at, above and below 0.5 occurs
        x = np.round(rng.standard_normal((m, 3, 4)), 1)
        qs = (0.0, 0.05, 0.1, 0.25, 0.5, 0.75, 0.95, 1.0, 1 - 0.05)
        for q in qs:
            assert np.array_equal(quantile_of_sorted(np.sort(x, axis=0), q),
                                  np.quantile(x, q, axis=0))
        # a vector of q, as on the quantile grid of the sliced Wasserstein distance
        grid = np.concatenate([qs, (np.arange(m) + 0.5) / m])
        assert np.array_equal(quantile_of_sorted(np.sort(x, axis=0), grid),
                              np.quantile(x, grid, axis=0))
        assert np.array_equal(quantile_of_sorted(np.sort(x[:, 0, 0]), grid),
                              np.quantile(x[:, 0, 0], grid))

    def test_summarize_interval_covers_mean_of_constant_chain(self):
        chain = make_chain(seed=12)
        single = PosteriorChain(
            **{name: np.repeat(getattr(chain, name)[:1], 4, axis=0) for name in CHAIN_ARRAYS},
            assignment=chain.assignment,
            diagnostics=ChainDiagnostics(np.zeros(4), 0.5, np.zeros(5)),
            config=chain.config, anchor=chain.anchor,
        )
        s = summarize(single)
        assert np.allclose(s["loadings_lower"], s["loadings_upper"])
        assert np.allclose(s["loadings_lower"], s["loadings_mean"])
