import numpy as np
import pytest

from nifa.model import DataMatrix, DomainError, FactorAssignment, Hyperparameters
from nifa.postprocess import postprocess_chain
from nifa.pretrain import AnchorSet
from nifa.runio import (
    OVERLAY_ARRAYS,
    IncompleteRunError,
    load_anchor_set,
    load_chain,
    load_json,
    load_matrix,
    save_anchor_set,
    save_chain,
    save_json,
    save_matrix,
    save_overlay,
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
        back = load_matrix(path)
        assert np.allclose(back, arr, atol=1e-12)

    def test_empty_matrix(self, tmp_path):
        path = tmp_path / "e.csv"
        save_matrix(path, np.empty((0, 2)))
        assert load_matrix(path).shape == (0, 2)

    def test_vector_saved_as_row(self, tmp_path):
        path = tmp_path / "v.csv"
        save_matrix(path, np.arange(4.0))
        assert load_matrix(path).shape == (1, 4)


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

    @pytest.mark.parametrize("record, key, field, value", [
        ("manifest.json", "config", "nu", "abc"),
        ("manifest.json", "config", "L", None),
        ("manifest.json", "config", "L", 20.5),
        ("manifest.json", "config", "nu", float("nan")),
        ("anchor/anchor_meta.json", None, "residual_variances", {"x": 1}),
    ], ids=["string_nu", "null_pieces", "fractional_pieces", "nan_nu",
            "object_anchor_variances"])
    def test_wrongly_typed_field_names_its_record(self, tmp_path, record, key, field, value):
        chain, _ = make_chain(seed=8)
        save_chain(tmp_path / "run", chain)
        path = tmp_path / "run" / record
        meta = load_json(path)
        (meta[key] if key else meta)[field] = value
        save_json(path, meta)
        with pytest.raises(IncompleteRunError, match=path.name):
            load_chain(tmp_path / "run")

    @pytest.mark.parametrize("key, value", [
        ("mala_acceptance_rate", "abc"),
        ("mala_acceptance_rate", 1.5),
        ("block_seconds", "x"),
        ("block_seconds", [0.1, 0.2, 0.3, 0.4]),
        ("block_seconds", [0.1, 0.2, -0.3, 0.4, 0.5]),
        ("assignment", [1.7]),
        ("assignment", [True]),
    ], ids=["string_acceptance_rate", "acceptance_rate_above_1", "string_block_seconds",
            "four_block_seconds", "negative_block_seconds", "fractional_assignment",
            "bool_assignment"])
    def test_malformed_manifest_entry_names_file_and_key(self, tmp_path, key, value):
        chain, _ = make_chain(seed=8)
        save_chain(tmp_path / "run", chain)
        path = tmp_path / "run" / "manifest.json"
        save_json(path, {**load_json(path), key: value})
        with pytest.raises(IncompleteRunError, match=f"manifest.json holds a {key} "):
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


def npz_array_names(run_dir):
    """The array names of every .npz file under a directory."""
    names = []
    for path in sorted(run_dir.rglob("*.npz")):
        with np.load(path) as npz:
            names += npz.files
    return names


def file_bytes(run_dir):
    return {str(p.relative_to(run_dir)): p.read_bytes()
            for p in sorted(run_dir.rglob("*")) if p.is_file()}


class TestOverlay:
    """An overlay directory holds the aligned loadings and spline coefficients and
    a manifest naming its base run directory; load_chain takes the rest from the base."""

    @pytest.fixture
    def run(self, tmp_path):
        chain, _ = make_chain(seed=3, assignment=[1, 1])
        aligned, _ = postprocess_chain(chain)
        save_chain(tmp_path / "run", chain)
        save_overlay(tmp_path / "run" / "aligned", aligned)
        return tmp_path / "run", chain, aligned

    def test_round_trip(self, run):
        run_dir, chain, aligned = run
        back = load_chain(run_dir / "aligned")
        for name in CHAIN_ARRAYS:
            source = aligned if name in OVERLAY_ARRAYS else chain
            assert np.array_equal(getattr(back, name), getattr(source, name)), name
        assert np.array_equal(back.diagnostics.log_posterior_trace,
                              chain.diagnostics.log_posterior_trace)
        assert np.array_equal(back.assignment.k_of_h, chain.assignment.k_of_h)
        assert back.config == chain.config
        assert np.array_equal(back.anchor.coordinates, chain.anchor.coordinates)

    def test_holds_only_the_changed_arrays(self, run):
        run_dir, _, _ = run
        assert sorted(p.name for p in (run_dir / "aligned").iterdir()) == [
            "manifest.json", "overlay.npz"]
        assert sorted(npz_array_names(run_dir / "aligned")) == sorted(OVERLAY_ARRAYS)
        assert load_json(run_dir / "aligned" / "manifest.json")["base"] == ".."

    def test_full_copy_still_loads_and_is_replaced(self, tmp_path):
        chain, _ = make_chain(seed=3, assignment=[1, 1])
        aligned, _ = postprocess_chain(chain)
        save_chain(tmp_path / "run", chain)
        save_chain(tmp_path / "run" / "aligned", aligned)  # the layout of earlier versions
        old = load_chain(tmp_path / "run" / "aligned")
        save_overlay(tmp_path / "run" / "aligned", aligned)
        assert sorted(p.name for p in (tmp_path / "run" / "aligned").iterdir()) == [
            "manifest.json", "overlay.npz"]
        new = load_chain(tmp_path / "run" / "aligned")
        for name in CHAIN_ARRAYS:
            assert np.array_equal(getattr(new, name), getattr(old, name)), name

    def test_rewrite_is_byte_identical(self, run):
        run_dir, _, aligned = run
        first = file_bytes(run_dir)
        save_overlay(run_dir / "aligned", aligned)
        assert file_bytes(run_dir) == first

    def test_missing_base(self, run, tmp_path):
        run_dir, _, _ = run
        (tmp_path / "alone").mkdir()
        for name in ("manifest.json", "overlay.npz"):
            (run_dir / "aligned" / name).rename(tmp_path / "alone" / name)
        with pytest.raises(IncompleteRunError, match="not a complete run directory"):
            load_chain(tmp_path / "alone")

    def test_unreadable_base_manifest(self, run):
        run_dir, _, _ = run
        (run_dir / "manifest.json").write_text("{")
        with pytest.raises(IncompleteRunError, match="not valid JSON"):
            load_chain(run_dir / "aligned")

    def test_draw_count_must_match_base(self, run):
        run_dir, _, _ = run
        path = run_dir / "aligned" / "manifest.json"
        save_json(path, {**load_json(path), "n_samples": 1})
        with pytest.raises(IncompleteRunError, match="base's"):
            load_chain(run_dir / "aligned")

    def test_array_shapes_must_match_base(self, run):
        run_dir, _, _ = run
        path = run_dir / "aligned" / "overlay.npz"
        arrays = dict(np.load(path))
        np.savez(path, **{k: v[1:] for k, v in arrays.items()})
        with pytest.raises(IncompleteRunError, match="base's"):
            load_chain(run_dir / "aligned")

    def test_missing_overlay_arrays(self, run):
        run_dir, _, _ = run
        (run_dir / "aligned" / "overlay.npz").unlink()
        with pytest.raises(IncompleteRunError, match="overlay.npz"):
            load_chain(run_dir / "aligned")

    def test_base_must_be_a_run_directory(self, run):
        run_dir, _, aligned = run
        with pytest.raises(ValueError, match="is an overlay"):
            save_overlay(run_dir / "aligned" / "aligned", aligned)
        assert not (run_dir / "aligned" / "aligned").exists()
        save_chain(run_dir / "nested", aligned)
        save_json(run_dir / "nested" / "manifest.json", {"base": "../aligned", "n_samples": 1})
        with pytest.raises(IncompleteRunError, match="not a complete run directory"):
            load_chain(run_dir / "nested")
