import os
import subprocess
import sys
import threading
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import eig
from scipy.sparse.linalg import eigsh
from scipy.spatial.distance import pdist, squareform
from scipy.stats import spearmanr

from nifa.model import DataMatrix, rank_transform, spline_basis
from nifa.pretrain import (
    AnchorSet,
    DegenerateGeometryError,
    DiffusionConfig,
    anchor_residual_variance,
    anchor_set,
    default_epsilon_dm,
    default_epsilon_local,
    diffusion_spectrum,
    estimate_dimension,
    kernel_matrix,
    mean_local_eigenvalues,
    run_pretraining,
)
from nifa.simulate import gen_setting3, gen_swiss_roll


def circle_data(n=60, seed=0):
    rng = np.random.default_rng(seed)
    t = np.sort(rng.uniform(0, 2 * np.pi, n))
    return DataMatrix(np.column_stack([np.cos(t), np.sin(t)])), t


class TestKernel:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(1)
        dm = DataMatrix(rng.standard_normal((12, 3)))
        eps = 1.3
        kern = kernel_matrix(dm, eps)
        for i in range(12):
            for j in range(12):
                d2 = np.sum((dm.values[i] - dm.values[j]) ** 2)
                assert kern[i, j] == pytest.approx(np.exp(-d2 / eps**2))

    def test_symmetric_unit_diagonal(self):
        rng = np.random.default_rng(2)
        kern = kernel_matrix(DataMatrix(rng.standard_normal((10, 2))), 0.7)
        assert np.allclose(kern, kern.T)
        assert np.allclose(np.diag(kern), 1.0)

    def test_rejects_nonpositive_epsilon(self):
        with pytest.raises(ValueError):
            kernel_matrix(DataMatrix(np.eye(3)), 0.0)

    @pytest.mark.parametrize("shape", [(2, 1), (3, 7), (9, 4), (257, 10), (700, 3)])
    def test_bitwise_the_pdist_kernel(self, shape):
        # 700 rows span several row blocks
        x = np.random.default_rng(sum(shape)).standard_normal(shape)
        eps = 0.9
        expected = np.exp(-squareform(pdist(x, "sqeuclidean")) / eps**2)
        assert np.array_equal(kernel_matrix(DataMatrix(x), eps), expected)


def tied_points():
    """A 6 x 5 integer grid: 435 pairs (odd) and many equal distances."""
    return np.array([[i, j] for i in range(6) for j in range(5)], dtype=float)


class TestBandwidths:
    @pytest.mark.parametrize("x", [
        np.random.default_rng(33).standard_normal((2, 3)),     # 1 pair
        np.random.default_rng(34).standard_normal((3, 2)),     # 3 pairs, odd
        np.random.default_rng(30).standard_normal((5, 3)),     # 10 pairs, even
        np.random.default_rng(31).standard_normal((300, 10)),  # 44,850 pairs, even
        np.random.default_rng(32).standard_normal((701, 2)),   # several row blocks, even
        np.random.default_rng(35).standard_normal((702, 2)),   # 246,051 pairs, odd
        tied_points(),
        tied_points()[:-1],                                    # 406 pairs, even
    ], ids=["2x3", "3x2", "5x3", "300x10", "701x2", "702x2", "grid", "grid-minus-one"])
    def test_defaults_equal_the_pdist_order_statistics(self, x):
        d = pdist(x)
        assert default_epsilon_dm(DataMatrix(x)) == np.median(d)
        assert default_epsilon_local(x) == np.quantile(d, 0.10)


def normalized_laplacian(kernel: np.ndarray, epsilon_dm: float) -> np.ndarray:
    """Oracle for diffusion_spectrum: the density-normalized graph Laplacian
    L = (D^-1 W - I) / eps^2 with W = K / (d d^T), built densely."""
    d = kernel.sum(axis=1)
    w = kernel / np.outer(d, d)
    row = w.sum(axis=1)
    return (w / row[:, None] - np.eye(kernel.shape[0])) / epsilon_dm**2


def dense_spectrum(dm: DataMatrix, epsilon_dm: float, q: int):
    """Oracle for diffusion_spectrum: every eigenpair of the symmetric conjugate
    from a dense eigh on freshly allocated arrays, then the same ordering,
    scaling and sign convention."""
    return oracle_spectrum(dm, epsilon_dm, q, np.linalg.eigh)


def arpack_spectrum(dm: DataMatrix, epsilon_dm: float, q: int):
    """Oracle for diffusion_spectrum: the q+1 leading eigenpairs of the same
    symmetric conjugate from ARPACK (scipy's eigsh), from the same start vector."""
    v0 = np.random.default_rng(0).uniform(0.5, 1.5, dm.n_rows)
    return oracle_spectrum(dm, epsilon_dm, q,
                           lambda sym: eigsh(sym, k=q + 1, which="LA", v0=v0))


def oracle_spectrum(dm: DataMatrix, epsilon_dm: float, q: int, solve):
    """The symmetric conjugate built densely, eigenpairs from solve(sym), then
    diffusion_spectrum's ordering, scaling and sign convention."""
    kern = kernel_matrix(dm, epsilon_dm)
    d = kern.sum(axis=1)
    w = kern / np.outer(d, d)
    row = w.sum(axis=1)
    s, psi = solve(w / np.sqrt(np.outer(row, row)))
    order = np.argsort(s)[::-1][1 : q + 1]
    vecs = psi[:, order] / np.sqrt(row)[:, None]
    vecs = vecs / np.linalg.norm(vecs, axis=0)
    for col in vecs.T:
        if col[np.flatnonzero(np.abs(col) > 1e-12)[0]] < 0:
            col *= -1
    return (1.0 - s[order]) / epsilon_dm**2, vecs


class TestLaplacian:
    def test_rows_sum_to_zero(self):
        rng = np.random.default_rng(3)
        kern = kernel_matrix(DataMatrix(rng.standard_normal((15, 2))), 1.0)
        lap = normalized_laplacian(kern, 1.0)
        assert np.allclose(lap @ np.ones(15), 0.0, atol=1e-12)

    def test_epsilon_scaling(self):
        rng = np.random.default_rng(4)
        kern = kernel_matrix(DataMatrix(rng.standard_normal((8, 2))), 1.0)
        assert np.allclose(normalized_laplacian(kern, 2.0) * 4, normalized_laplacian(kern, 1.0))


class TestSpectrum:
    def test_matches_dense_eig_oracle(self):
        # independent oracle: eigendecompose -L directly (non-symmetric)
        dm, _ = circle_data(40, seed=5)
        eps = default_epsilon_dm(dm)
        mu, coords, _ = diffusion_spectrum(dm, eps, 4)
        lap = normalized_laplacian(kernel_matrix(dm, eps), eps)
        vals = np.sort(np.real(eig(-lap)[0]))
        assert vals[0] == pytest.approx(0.0, abs=1e-8)
        assert np.allclose(mu, vals[1:5], rtol=1e-8, atol=1e-10)

    def test_coordinates_are_eigenvectors(self):
        dm, _ = circle_data(35, seed=6)
        eps = default_epsilon_dm(dm)
        mu, coords, _ = diffusion_spectrum(dm, eps, 3)
        lap = normalized_laplacian(kernel_matrix(dm, eps), eps)
        for q in range(3):
            v = coords[:, q]
            assert np.linalg.norm(v) == pytest.approx(1.0)
            assert np.allclose(-lap @ v, mu[q] * v, atol=1e-8)

    def test_eigenvalues_ascending_nonnegative(self):
        dm, _ = circle_data(30, seed=7)
        mu, _, _ = diffusion_spectrum(dm, default_epsilon_dm(dm), 5)
        assert np.all(np.diff(mu) >= -1e-12)
        assert mu[0] > -1e-10

    def test_sign_convention_deterministic(self):
        dm, _ = circle_data(30, seed=8)
        _, c1, _ = diffusion_spectrum(dm, default_epsilon_dm(dm), 3)
        _, c2, _ = diffusion_spectrum(dm, default_epsilon_dm(dm), 3)
        assert np.array_equal(c1, c2)
        for q in range(3):
            lead = np.flatnonzero(np.abs(c1[:, q]) > 1e-12)[0]
            assert c1[lead, q] > 0

    def test_circle_first_coordinate_tracks_angle(self):
        # on a circle the leading nontrivial eigenfunctions are sin/cos of angle
        dm, t = circle_data(80, seed=9)
        _, coords, _ = diffusion_spectrum(dm, default_epsilon_dm(dm), 2)
        phase = np.arctan2(coords[:, 1], coords[:, 0])
        rho = abs(spearmanr(np.unwrap(phase), t).statistic)
        assert rho > 0.95

    def test_lanczos_matches_dense_oracle_and_repeats(self):
        dm = gen_setting3(800, seed=21)
        mu, coords, solver = diffusion_spectrum(dm, 0.5, 5)
        assert solver == "lanczos"
        mu_dense, coords_dense = dense_spectrum(dm, 0.5, 5)
        assert np.allclose(mu, mu_dense, rtol=0, atol=1e-8)
        assert np.allclose(coords, coords_dense, rtol=0, atol=1e-8)
        mu2, coords2, _ = diffusion_spectrum(dm, 0.5, 5)
        assert np.array_equal(mu, mu2) and np.array_equal(coords, coords2)

    @pytest.mark.parametrize("case", [
        "circle40", "circle35", "circle80", "setting3-800", "setting3-200", "setting3-300",
        "swiss-roll-300",
    ])
    def test_coordinates_match_arpack(self, case):
        # the inputs diffusion_spectrum sees elsewhere in this file
        dm, eps, q = {
            "circle40": lambda: (circle_data(40, seed=5)[0], None, 4),
            "circle35": lambda: (circle_data(35, seed=6)[0], None, 3),
            "circle80": lambda: (circle_data(80, seed=9)[0], None, 2),
            "setting3-800": lambda: (gen_setting3(800, seed=21), 0.5, 5),
            "setting3-200": lambda: (gen_setting3(200, seed=23), 0.5, 5),
            "setting3-300": lambda: (gen_setting3(300, seed=28), None, 5),
            "swiss-roll-300": lambda: (gen_swiss_roll(300, seed=18)[0], 1.5, 5),
        }[case]()
        eps = eps or default_epsilon_dm(dm)
        mu, coords, _ = diffusion_spectrum(dm, eps, q)
        mu_arpack, coords_arpack = arpack_spectrum(dm, eps, q)
        assert np.allclose(mu, mu_arpack, rtol=1e-10, atol=0)
        assert np.allclose(coords, coords_arpack, rtol=0, atol=1e-10)

    def test_all_nontrivial_pairs_use_dense_without_warning(self):
        # Q = N-1 asks for every eigenpair, which a Krylov method need not deliver
        dm, _ = circle_data(12, seed=22)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mu, coords, solver = diffusion_spectrum(dm, default_epsilon_dm(dm), 11)
        assert solver == "dense"
        mu_dense, coords_dense = dense_spectrum(dm, default_epsilon_dm(dm), 11)
        assert np.allclose(mu, mu_dense, rtol=0, atol=1e-10)
        assert np.allclose(coords, coords_dense, rtol=0, atol=1e-10)

    def test_lanczos_failure_falls_back_to_dense(self, monkeypatch):
        import nifa.pretrain

        monkeypatch.setattr(nifa.pretrain, "_lanczos", lambda *args: None)
        dm = gen_setting3(200, seed=23)
        cfg = DiffusionConfig(epsilon_dm=0.5)
        mu, coords, solver = diffusion_spectrum(dm, 0.5, cfg.Q)
        assert solver == "dense"
        # bitwise the fallback's arithmetic, mirrored on fresh arrays: the
        # conjugate diag(scale) K diag(scale) from _matvec's row sums, dense eigh,
        # then oracle_spectrum's ordering, scaling and sign convention
        kern = kernel_matrix(dm, 0.5)
        with nifa.pretrain._Threads() as threads:
            d = nifa.pretrain._matvec(kern, np.ones(dm.n_rows), threads)
            root = np.sqrt(nifa.pretrain._matvec(kern, 1.0 / d, threads) / d)
        scale = 1.0 / (d * root)
        s, psi = np.linalg.eigh(kern * scale[:, None] * scale)
        order = np.argsort(s)[::-1][1 : cfg.Q + 1]
        vecs = psi[:, order] / root[:, None]
        vecs = vecs / np.linalg.norm(vecs, axis=0)
        for col in vecs.T:
            if col[np.flatnonzero(np.abs(col) > 1e-12)[0]] < 0:
                col *= -1
        assert np.array_equal(mu, (1.0 - s[order]) / 0.5**2) and np.array_equal(coords, vecs)
        mu_dense, coords_dense = dense_spectrum(dm, 0.5, cfg.Q)
        assert np.allclose(mu, mu_dense, rtol=0, atol=1e-10)
        assert np.allclose(coords, coords_dense, rtol=0, atol=1e-10)
        _, decisions = run_pretraining(dm, cfg, 10)
        assert decisions["eigensolver"] == "dense"

    def test_lanczos_leaves_a_read_only_kernel_as_built(self, monkeypatch):
        # Lanczos applies the normalised kernel as two vector scalings around a
        # product with K, so it never writes into the kernel
        import nifa.pretrain

        def read_only_kernel(data, epsilon_dm):
            kern = kernel_matrix(data, epsilon_dm)
            kern.flags.writeable = False
            return kern

        monkeypatch.setattr(nifa.pretrain, "kernel_matrix", read_only_kernel)
        dm = gen_setting3(800, seed=21)
        _, _, solver = diffusion_spectrum(dm, 0.5, 5)
        assert solver == "lanczos"

    def test_disconnected_kernel_graph_rejected(self, monkeypatch):
        # at this bandwidth one point has no non-zero kernel entry besides its
        # own: it is a component of its own, rejected before any eigensolve
        import nifa.pretrain

        def must_not_run(*args, **kwargs):
            pytest.fail("an eigensolver ran on a kernel with an isolated point")

        monkeypatch.setattr(nifa.pretrain, "_lanczos", must_not_run)
        monkeypatch.setattr(np.linalg, "eigh", must_not_run)
        dm = DataMatrix(np.random.default_rng(24).standard_normal((300, 3)))
        with pytest.raises(DegenerateGeometryError, match="epsilon_dm"):
            diffusion_spectrum(dm, 0.05, 5)

    def test_two_components_rejected_by_spectral_gap(self):
        # two far-apart clusters and no isolated point: eigenvalue 1 is repeated
        rng = np.random.default_rng(25)
        x = 0.3 * rng.standard_normal((80, 3))
        x[40:, 0] += 100.0
        with pytest.raises(DegenerateGeometryError, match="spectral gap"):
            diffusion_spectrum(DataMatrix(x), 1.0, 5)

    def test_two_components_rejected_by_lanczos_at_large_n(self, monkeypatch):
        # as above at N=2000, where the Krylov space is far smaller than N. A
        # single start vector meets a repeated eigenvalue only through rounding;
        # Lanczos runs on the complement of the trivial eigenvector, so it must
        # find the second eigenvalue at 1 itself, without the dense fallback
        rng = np.random.default_rng(25)
        x = 0.3 * rng.standard_normal((2000, 3))
        x[1000:, 0] += 100.0
        dense = np.linalg.eigh

        def no_dense(a, *args, **kwargs):
            if a.shape[0] == 2000:
                pytest.fail("the dense eigh ran")
            return dense(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", no_dense)
        with pytest.raises(DegenerateGeometryError, match="spectral gap"):
            diffusion_spectrum(DataMatrix(x), 1.0, 5)

    @pytest.mark.parametrize("q, solver", [(2, "lanczos"), (5, "dense")])
    def test_krylov_space_that_closes_early(self, q, solver, monkeypatch):
        # four distinct points, 50 copies each: the normalised kernel has rank 4,
        # so the Krylov space closes after at most four vectors. With Q=2 the
        # closed space holds the wanted pairs; with Q=5 it cannot, and the dense
        # eigh runs. Either way no beta of zero is divided by.
        import nifa.pretrain

        steps = []
        project_out = nifa.pretrain._project_out
        monkeypatch.setattr(nifa.pretrain, "_project_out",
                            lambda w, basis: steps.append(None) or project_out(w, basis))
        x = np.repeat([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.5]], 50, axis=0)
        dm = DataMatrix(x)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mu, coords, used = diffusion_spectrum(dm, 1.0, q)
        assert used == solver
        assert 1 < len(steps) <= 5
        mu_dense, coords_dense = dense_spectrum(dm, 1.0, q)
        assert np.allclose(mu, mu_dense, rtol=0, atol=1e-10)
        if solver == "lanczos":
            assert np.allclose(coords, coords_dense, rtol=0, atol=1e-10)

    def test_q_bounds(self):
        dm, _ = circle_data(10)
        with pytest.raises(ValueError):
            diffusion_spectrum(dm, default_epsilon_dm(dm), 10)

    def test_degenerate_duplicate_rows(self):
        dm = DataMatrix(np.zeros((6, 2)) + np.array([[0, 0]] * 6))
        with pytest.raises(DegenerateGeometryError):
            default_epsilon_dm(dm)


def local_covariance(coords: np.ndarray, i: int, epsilon_local: float) -> np.ndarray:
    """Oracle for mean_local_eigenvalues: the scatter matrix of point i's
    neighbours about it, averaged over all N points. Each distance sums the
    squared differences feature by feature, as mean_local_eigenvalues does, so
    the two agree on which points lie within epsilon_local."""
    diffs = coords[i] - coords
    sel = diffs[np.sqrt(np.sum(diffs**2, axis=1)) <= epsilon_local]
    return sel.T @ sel / coords.shape[0]


class TestLocalGeometry:
    def test_local_covariance_brute_force(self):
        rng = np.random.default_rng(10)
        coords = rng.standard_normal((20, 3))
        eps = 1.5
        got = local_covariance(coords, 4, eps)
        acc = np.zeros((3, 3))
        for j in range(20):
            d = coords[4] - coords[j]
            if np.linalg.norm(d) <= eps:
                acc += np.outer(d, d)
        assert np.allclose(got, acc / 20)

    def test_mean_eigenvalues_descending(self):
        rng = np.random.default_rng(11)
        coords = rng.standard_normal((30, 4)) * np.array([3.0, 2.0, 1.0, 0.1])
        lam = mean_local_eigenvalues(coords, 3.0)
        assert lam.shape == (4,)
        assert np.all(np.diff(lam) <= 1e-12)

    def test_mean_eigenvalues_equal_per_point_loop(self):
        # scatter matrices from neighbour sums over row blocks agree with
        # accumulating each point's descending eigenvalues in turn, to rounding
        rng = np.random.default_rng(26)
        coords = rng.standard_normal((200, 5)) * np.array([3.0, 2.0, 1.0, 0.5, 0.1])
        acc = np.zeros(5)
        for i in range(200):
            acc += np.linalg.eigvalsh(local_covariance(coords, i, 1.5))[::-1]
        np.testing.assert_allclose(mean_local_eigenvalues(coords, 1.5), acc / 200,
                                   rtol=1e-13, atol=0)

    def test_dimension_literal_rule(self):
        # isotropic 2-plane inside 4 dims: ratio rule fires at k=1 only
        rng = np.random.default_rng(12)
        coords = np.column_stack(
            [
                rng.uniform(-1, 1, 300),
                rng.uniform(-1, 1, 300),
                1e-4 * rng.standard_normal(300),
                1e-4 * rng.standard_normal(300),
            ]
        )
        assert estimate_dimension(mean_local_eigenvalues(coords, 0.3), 0.5) == 1

    def test_dimension_fallback_is_one(self):
        rng = np.random.default_rng(13)
        coords = np.column_stack(
            [rng.uniform(-1, 1, 200), 1e-5 * rng.standard_normal(200)]
        )
        assert estimate_dimension(mean_local_eigenvalues(coords, 0.2), 0.5) == 1

    def test_dimension_requires_two_columns(self):
        with pytest.raises(ValueError):
            estimate_dimension(mean_local_eigenvalues(np.ones((10, 1)), 0.5), 0.5)


class TestAnchorVariance:
    def test_ranks_map_to_grid(self):
        # the ranks that anchor_residual_variance regresses on
        rng = np.random.default_rng(14)
        col = rng.standard_normal(50)
        u_star = rank_transform(col)
        assert sorted(u_star) == pytest.approx(list(np.arange(1, 51) / 50))
        # ordering of u_star follows ordering of the column
        assert np.array_equal(np.argsort(u_star), np.argsort(col, kind="stable"))

    def test_matches_lstsq_oracle(self):
        rng = np.random.default_rng(15)
        col = rng.standard_normal(40)
        L = 4
        var = anchor_residual_variance(col, L)
        u_star = rank_transform(col)
        design = np.column_stack([np.ones(40), spline_basis(u_star, L)])
        beta = np.linalg.solve(design.T @ design, design.T @ col)
        rss = np.sum((col - design @ beta) ** 2)
        assert var == pytest.approx(rss / (40 - L - 2), rel=1e-10)

    def test_near_zero_for_monotone_column(self):
        # a column that is already a piecewise-linear function of its ranks
        n, L = 60, 6
        u = (np.arange(1, n + 1)) / n
        rng = np.random.default_rng(16)
        perm = rng.permutation(n)
        col = (2 * u + 0.5)[perm]
        var = anchor_residual_variance(col, L)
        assert var < 1e-20

    def test_too_few_rows(self):
        with pytest.raises(ValueError):
            anchor_residual_variance(np.arange(10.0), 10)


class TestPipeline:
    def test_external_anchor_set(self):
        rng = np.random.default_rng(17)
        coords = rng.uniform(size=(40, 2))
        a = anchor_set(coords, 5, "external")
        assert a.source == "external"
        assert a.n_anchors == 2
        assert np.all(a.residual_variances > 0)

    def test_both_sources_give_the_same_variances(self):
        dm = gen_setting3(300, seed=27)
        anchor, _ = run_pretraining(dm, DiffusionConfig(epsilon_dm=0.5, dimension_offset=1), 10)
        external = anchor_set(anchor.coordinates, 10, "external")
        assert anchor.source == "diffusion_map" and external.source == "external"
        assert np.array_equal(external.coordinates, anchor.coordinates)
        assert np.array_equal(external.residual_variances, anchor.residual_variances)

    @pytest.mark.parametrize("cfg", [
        DiffusionConfig(), DiffusionConfig(epsilon_dm=0.5, dimension_offset=1),
    ], ids=["default-bandwidths", "given-epsilon-dm"])
    def test_run_pretraining_equals_its_steps_in_sequence(self, cfg):
        dm = gen_setting3(300, seed=28)
        anchor, decisions = run_pretraining(dm, cfg, 10)
        eps_dm = cfg.epsilon_dm or default_epsilon_dm(dm)
        mu, coords, solver = diffusion_spectrum(dm, eps_dm, cfg.Q)
        eps_local = default_epsilon_local(coords)
        lam = mean_local_eigenvalues(coords, eps_local)
        k = min(estimate_dimension(lam, cfg.delta) + cfg.dimension_offset, cfg.Q)
        assert np.array_equal(anchor.coordinates, coords[:, :k])
        assert np.array_equal(anchor.residual_variances,
                              [anchor_residual_variance(col, 10) for col in coords[:, :k].T])
        assert decisions["config"] == asdict(replace(cfg, epsilon_dm=eps_dm,
                                                     epsilon_local=eps_local))
        assert np.array_equal(decisions["diffusion_eigenvalues"], mu)
        assert decisions["eigensolver"] == solver
        assert np.array_equal(decisions["mean_local_eigenvalues"], lam)
        assert np.array_equal(decisions["eigenvalue_ratios"], lam[1:] / lam[:-1])

    def test_too_many_pieces_rejected_before_embedding(self, monkeypatch):
        import nifa.pretrain

        def must_not_run(*args, **kwargs):
            pytest.fail("the embedding ran although the pieces cannot be fit")

        monkeypatch.setattr(nifa.pretrain, "diffusion_spectrum", must_not_run)
        dm = DataMatrix(np.random.default_rng(29).standard_normal((12, 2)))
        with pytest.raises(ValueError, match="rows, got 12"):
            run_pretraining(dm, DiffusionConfig(epsilon_dm=1.0), 10)

    @pytest.mark.parametrize("q", [1, 0])
    def test_config_rejects_q_below_two(self, q):
        # the dimension rule compares successive coordinates
        with pytest.raises(ValueError, match=f"^Q must be at least 2, got {q}"):
            DiffusionConfig(Q=q)

    def test_anchor_set_validation(self):
        with pytest.raises(ValueError):
            AnchorSet(np.ones((5, 1)), np.array([-1.0]))
        with pytest.raises(ValueError):
            AnchorSet(np.ones((5, 1)), np.array([1.0]), source="other")
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="coordinates"):
                AnchorSet(np.array([[1.0], [bad], [0.0]]), np.array([1.0]))
            with pytest.raises(ValueError, match="variances"):
                AnchorSet(np.ones((5, 1)), np.array([bad]))

    @pytest.mark.parametrize("field, value", [
        ("epsilon_dm", np.nan), ("Q", 2.5), ("epsilon_local", np.inf), ("delta", np.nan),
        ("dimension_offset", True),
    ])
    def test_config_rejects_non_finite_bool_and_non_integral_fields(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be"):
            DiffusionConfig(**{field: value})

    def test_config_accepts_numpy_integers_and_ints_in_float_fields(self):
        cfg = DiffusionConfig(epsilon_dm=1, Q=np.int64(3), epsilon_local=np.float32(0.5),
                              delta=np.float64(0.25), dimension_offset=np.int32(1))
        assert cfg.Q == 3 and cfg.epsilon_dm == 1

    def test_swiss_roll_recovers_generator(self):
        # the roll is a long thin strip; the kernel bandwidth must stay below
        # the gap between windings (2*pi) or the embedding short-circuits them
        dm, u, v = gen_swiss_roll(300, seed=18)
        anchor, _ = run_pretraining(dm, DiffusionConfig(epsilon_dm=1.5), 20)
        assert anchor.n_anchors == 1
        rho = abs(spearmanr(anchor.coordinates[:, 0], u).statistic)
        assert rho > 0.9

    def test_offset_clipped_to_q(self):
        dm, _, _ = gen_swiss_roll(120, seed=19)
        a, _ = run_pretraining(dm, DiffusionConfig(Q=2, dimension_offset=10), 10)
        assert a.n_anchors == 2

    def test_default_epsilon_local_positive(self):
        rng = np.random.default_rng(20)
        assert default_epsilon_local(rng.standard_normal((30, 2))) > 0


def set_usable_cpus(monkeypatch, cpus: int) -> None:
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)


def pretraining_outputs(dm: DataMatrix, monkeypatch) -> dict:
    """Every result of the row-block passes on dm, the dense eigensolve's included."""
    import nifa.pretrain

    mu, coords, solver = diffusion_spectrum(dm, 0.5, 5)
    eps_local = default_epsilon_local(coords)
    anchor, decisions = run_pretraining(dm, DiffusionConfig(), 10)
    with monkeypatch.context() as patch:
        patch.setattr(nifa.pretrain, "_lanczos", lambda *args: None)
        mu_dense, coords_dense, dense = diffusion_spectrum(dm, 0.5, 5)
    assert (solver, dense, decisions["eigensolver"]) == ("lanczos", "dense", "lanczos")
    return {"kernel": kernel_matrix(dm, 0.5), "epsilon_dm": default_epsilon_dm(dm),
            "mu": mu, "coords": coords, "epsilon_local": eps_local,
            "mean_local": mean_local_eigenvalues(coords, eps_local),
            "mu_dense": mu_dense, "coords_dense": coords_dense,
            "anchors": anchor.coordinates, "variances": anchor.residual_variances,
            **{f"decisions.{k}": v for k, v in decisions.items() if k != "config"},
            **{f"config.{k}": v for k, v in decisions["config"].items()}}


# run_pretraining on setting 3 data (N, seed from argv) at the default
# bandwidths, its anchors and decisions pickled to stdout
PRETRAIN_PROBE = """
import pickle, sys
from nifa.pretrain import DiffusionConfig, run_pretraining
from nifa.simulate import gen_setting3
anchor, decisions = run_pretraining(gen_setting3(int(sys.argv[1]), int(sys.argv[2])),
                                    DiffusionConfig(), 20)
sys.stdout.buffer.write(pickle.dumps((anchor.coordinates, anchor.residual_variances, decisions)))
"""


def pretraining_bytes(blas_threads: int, *args) -> bytes:
    """PRETRAIN_PROBE's output in a fresh interpreter with the given number of
    OpenBLAS threads."""
    import nifa

    path = os.pathsep.join([str(Path(nifa.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS=str(blas_threads))
    proc = subprocess.run([sys.executable, "-c", PRETRAIN_PROBE, *map(str, args)],
                          capture_output=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout


class TestThreads:
    def test_decisions_do_not_depend_on_the_blas_thread_count(self):
        # a BLAS product of the neighbour sums moved the mean local eigenvalues
        # in their last digits between one and two OpenBLAS threads
        assert pretraining_bytes(1, 400, 1) == pretraining_bytes(2, 400, 1)
        # and a Lanczos product whose last block is not a multiple of 64 rows
        # high moved the anchors and every decision at N=1500
        assert pretraining_bytes(1, 1500, 2) == pretraining_bytes(2, 1500, 2)

    # neither N is a multiple of 4 (OpenBLAS's row groups) nor of a block height
    @pytest.mark.parametrize("n", [701, 1603])
    def test_outputs_do_not_depend_on_the_thread_count(self, n, monkeypatch):
        import nifa.pretrain

        pools = []

        class RecordingPool(ThreadPoolExecutor):
            def __init__(self, max_workers):
                pools.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(nifa.pretrain, "ThreadPoolExecutor", RecordingPool)
        dm = gen_setting3(n, seed=n)
        outputs = {}
        for cpus in (1, 2, 3):
            set_usable_cpus(monkeypatch, cpus)
            pools.clear()
            outputs[cpus] = pretraining_outputs(dm, monkeypatch)
            # one calling thread and cpus - 1 pool threads, or no pool at all
            assert set(pools) == (set() if cpus == 1 else {cpus - 1})
        for cpus in (2, 3):
            assert outputs[cpus].keys() == outputs[1].keys()
            for key, expected in outputs[1].items():
                assert np.array_equal(outputs[cpus][key], expected), (cpus, key)

    def test_no_thread_outlives_run_pretraining(self, monkeypatch):
        import nifa.pretrain

        squared_distances = nifa.pretrain._squared_distances
        during = []

        def counting(*args, **kwargs):
            during.append(threading.active_count())
            return squared_distances(*args, **kwargs)

        monkeypatch.setattr(nifa.pretrain, "_squared_distances", counting)
        set_usable_cpus(monkeypatch, 3)
        before = threading.active_count()
        run_pretraining(gen_setting3(701, seed=3), DiffusionConfig(), 10)
        assert max(during) > before
        assert threading.active_count() == before

    def test_a_failing_block_raises_and_leaves_no_thread(self, monkeypatch):
        import nifa.pretrain

        squared_distances = nifa.pretrain._squared_distances

        def fails_off_the_calling_thread(*args, **kwargs):
            if threading.current_thread() is threading.main_thread():
                time.sleep(0.2)  # leaves the other blocks to the pool threads
                return squared_distances(*args, **kwargs)
            raise MemoryError("block failed")

        monkeypatch.setattr(nifa.pretrain, "_squared_distances", fails_off_the_calling_thread)
        set_usable_cpus(monkeypatch, 3)
        before = threading.active_count()
        with pytest.raises(MemoryError, match="block failed"):
            kernel_matrix(DataMatrix(np.random.default_rng(35).standard_normal((400, 3))), 1.0)
        assert threading.active_count() == before
