import numpy as np
import pytest

from nifa.model import DataMatrix, DomainError, FactorAssignment, Hyperparameters
from nifa.postprocess import postprocess_chain
from nifa.pretrain import AnchorSet
from nifa.runio import (
    IncompleteRunError,
    load_anchor_set,
    load_chain,
    load_matrix,
    save_anchor_set,
    save_chain,
    save_matrix,
)
from nifa.sampler import CHAIN_ARRAYS, run_chain


def make_chain(seed=0, thin=5, assignment=(1,)):
    rng = np.random.default_rng(seed)
    n = 25
    anchor = AnchorSet(rng.uniform(size=(n, 1)) / 10, np.array([0.02]))
    data = DataMatrix(np.hstack([anchor.coordinates, rng.standard_normal((n, 2))]))
    hp = Hyperparameters(iterations=30, burn_in=10, thin=thin, seed=seed, L=4)
    return run_chain(data, anchor, hp, FactorAssignment(np.array(assignment))), data


class TestMatrixIO:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        arr = rng.standard_normal((7, 3))
        path = tmp_path / "m.csv"
        save_matrix(path, arr, ["a", "b", "c"])
        back, names = load_matrix(path)
        assert names == ["a", "b", "c"]
        assert np.allclose(back, arr, atol=1e-12)

    def test_empty_matrix(self, tmp_path):
        path = tmp_path / "e.csv"
        save_matrix(path, np.empty((0, 2)))
        back, names = load_matrix(path)
        assert back.shape == (0, 2)
        assert len(names) == 2

    def test_vector_saved_as_row(self, tmp_path):
        path = tmp_path / "v.csv"
        save_matrix(path, np.arange(4.0))
        back, _ = load_matrix(path)
        assert back.shape == (1, 4)


class TestAnchorIO:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        anchor = AnchorSet(rng.uniform(size=(12, 2)), np.array([0.1, 0.2]), "external")
        save_anchor_set(tmp_path / "a", anchor)
        back = load_anchor_set(tmp_path / "a")
        assert np.allclose(back.coordinates, anchor.coordinates)
        assert np.allclose(back.residual_variances, anchor.residual_variances)
        assert back.source == "external"

    def test_missing_artifacts(self, tmp_path):
        with pytest.raises(IncompleteRunError):
            load_anchor_set(tmp_path / "nothing")


class TestChainIO:
    def test_full_round_trip(self, tmp_path):
        chain, _ = make_chain()
        save_chain(tmp_path / "run", chain)
        back = load_chain(tmp_path / "run")
        assert len(back) == len(chain)
        assert back.config == chain.config
        assert np.allclose(
            back.diagnostics.log_posterior_trace,
            chain.diagnostics.log_posterior_trace,
        )
        for name in ("loadings", "latent_locations", "residual_variances"):
            assert np.allclose(getattr(chain, name), getattr(back, name), atol=1e-12)
        assert chain.global_scale == pytest.approx(back.global_scale)
        c1, c2 = chain.spline_coefficients, back.spline_coefficients
        assert c1[:, 0] == pytest.approx(c2[:, 0], abs=1e-12)
        assert np.allclose(c1[:, 1:], c2[:, 1:], atol=1e-12)

    def test_rewrite_is_stable(self, tmp_path):
        # save, load, save again: the files' numeric content agrees
        chain, _ = make_chain(seed=2)
        save_chain(tmp_path / "r1", chain)
        back = load_chain(tmp_path / "r1")
        save_chain(tmp_path / "r2", back)
        f1 = sorted((tmp_path / "r1").rglob("*.csv"))
        f2 = sorted((tmp_path / "r2").rglob("*.csv"))
        assert [p.name for p in f1] == [p.name for p in f2]
        for a, b in zip(f1, f2):
            assert a.read_text() == b.read_text()

    def test_incomplete_run_lists_missing(self, tmp_path):
        chain, _ = make_chain(seed=3)
        save_chain(tmp_path / "run", chain)
        (tmp_path / "run" / "manifest.json").unlink()
        with pytest.raises(IncompleteRunError, match="manifest"):
            load_chain(tmp_path / "run")

    def test_missing_chain_file(self, tmp_path):
        chain, _ = make_chain(seed=4)
        save_chain(tmp_path / "run", chain)
        (tmp_path / "run" / "chain.npz").unlink()
        with pytest.raises(IncompleteRunError, match="chain.npz"):
            load_chain(tmp_path / "run")

    def test_sample_count_must_match_manifest(self, tmp_path):
        chain, _ = make_chain(seed=5)
        save_chain(tmp_path / "run", chain)
        arrays = dict(np.load(tmp_path / "run" / "chain.npz"))
        np.savez(tmp_path / "run" / "chain.npz", **{k: v[1:] for k, v in arrays.items()})
        with pytest.raises(IncompleteRunError, match="samples"):
            load_chain(tmp_path / "run")

    @pytest.mark.parametrize("aligned", [False, True])
    def test_exact_round_trip(self, tmp_path, aligned):
        chain, _ = make_chain(seed=3, assignment=[1, 1])
        if aligned:
            chain, _ = postprocess_chain(chain)
            assert np.any(chain.spline_coefficients[:, 1:] < 0)
        save_chain(tmp_path / "run", chain)
        back = load_chain(tmp_path / "run")
        for name in CHAIN_ARRAYS:
            assert np.array_equal(getattr(back, name), getattr(chain, name)), name
        assert np.array_equal(back.assignment.k_of_h, chain.assignment.k_of_h)
        assert np.array_equal(back.diagnostics.log_posterior_trace,
                              chain.diagnostics.log_posterior_trace)

    def test_file_count_independent_of_draws(self, tmp_path):
        short, _ = make_chain(seed=6)
        long, _ = make_chain(seed=6, thin=1)
        assert len(long) > len(short)
        for name, chain in (("short", short), ("long", long)):
            save_chain(tmp_path / name, chain)
        count = [sum(p.is_file() for p in (tmp_path / name).rglob("*")) for name in ("short", "long")]
        assert count[0] == count[1]

    @pytest.mark.parametrize("name, value, error", [
        ("residual_variances", -1.0, ValueError),
        ("local_scales", 0.0, ValueError),
        ("global_scale", -1.0, ValueError),
        ("latent_locations", 1.5, DomainError),
        ("spline_coefficients", np.nan, ValueError),
    ])
    def test_invalid_draws_rejected(self, tmp_path, name, value, error):
        chain, _ = make_chain(seed=7)
        save_chain(tmp_path / "run", chain)
        arrays = dict(np.load(tmp_path / "run" / "chain.npz"))
        arrays[name] = arrays[name].copy()
        arrays[name].flat[0] = value
        np.savez(tmp_path / "run" / "chain.npz", **arrays)
        with pytest.raises(error):
            load_chain(tmp_path / "run")
