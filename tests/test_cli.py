import argparse
import json
import os
import shutil
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import nifa
from nifa.cli import build_parser, main
from nifa.model import CHAIN_ARRAYS, Hyperparameters, usable_cpus
from nifa.postprocess import postprocess_chain
from nifa.pretrain import DiffusionConfig
from nifa.runio import (load_anchor_set, load_chain, load_json, load_matrix, save_chain,
                        save_json, save_matrix)


def run(*args):
    return main([str(a) for a in args])


def file_bytes(run_dir):
    return {str(p.relative_to(run_dir)): p.read_bytes()
            for p in sorted(run_dir.rglob("*")) if p.is_file()}


def fresh_env():
    """The environment of a fresh interpreter that imports this checkout's nifa."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(nifa.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]))


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A data file, anchor directory, and a small fitted run."""
    ws = tmp_path_factory.mktemp("cliws")
    data = ws / "data.csv"
    assert run("simulate", "--setting", "1", "--n", "60", "--seed", "0",
               "--out", data) == 0
    anchors = ws / "anchors"
    assert run("pretrain", "--input", data, "--out-dir", anchors,
               "--pieces", "8") == 0
    fit = ws / "run"
    assert run("fit", "--input", data, "--anchor-dir", anchors, "--out", fit,
               "--iterations", "120", "--burn-in", "60", "--thin", "10",
               "--pieces", "8", "--seed", "1") == 0
    return ws


class TestSimulate:
    def test_writes_matrix(self, tmp_path):
        out = tmp_path / "d.csv"
        assert run("simulate", "--setting", "3", "--n", "40", "--seed", "2",
                   "--out", out) == 0
        arr = load_matrix(out)
        assert arr.shape == (40, 10)

    def test_truth_out(self, tmp_path):
        out = tmp_path / "d.csv"
        truth = tmp_path / "t.json"
        assert run("simulate", "--setting", "2", "--n", "30", "--seed", "2",
                   "--out", out, "--truth-out", truth) == 0
        rec = load_json(truth)
        assert np.asarray(rec["loadings"]).shape == (20, 2)

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run("simulate", "--setting", "swiss", "--n", "20", "--seed", "5", "--out", a)
        run("simulate", "--setting", "swiss", "--n", "20", "--seed", "5", "--out", b)
        assert a.read_text() == b.read_text()


class TestPretrain:
    def test_anchor_dir_contents(self, workspace):
        anchor = load_anchor_set(workspace / "anchors")
        assert anchor.n_anchors >= 1
        assert np.all(anchor.residual_variances > 0)

    def test_missing_input_is_usage_error(self, tmp_path):
        assert run("pretrain", "--input", tmp_path / "nope.csv",
                   "--out-dir", tmp_path / "a") == 2

    def test_external_anchors(self, tmp_path):
        rng = np.random.default_rng(0)
        from nifa.runio import save_matrix

        data = tmp_path / "d.csv"
        ext = tmp_path / "ext.csv"
        save_matrix(data, rng.standard_normal((40, 3)))
        save_matrix(ext, rng.uniform(size=(40, 2)))
        out = tmp_path / "anchors"
        assert run("pretrain", "--input", data, "--anchors", ext,
                   "--out-dir", out, "--pieces", "6") == 0
        anchor = load_anchor_set(out)
        assert anchor.source == "external"
        assert anchor.n_anchors == 2

    @pytest.mark.parametrize("external", [False, True], ids=["diffusion", "external"])
    @pytest.mark.parametrize("pieces", ["0", "-3"])
    def test_pieces_below_one_is_usage_error(self, workspace, tmp_path, capsys, monkeypatch,
                                             pieces, external):
        import nifa.pretrain

        def embedding_started(*args, **kwargs):
            raise AssertionError("rejected only after the embedding started")

        # the number of pieces is checked before any embedding work
        for name in ("default_epsilon_dm", "diffusion_spectrum"):
            monkeypatch.setattr(nifa.pretrain, name, embedding_started)
        extra = []
        if external:
            save_matrix(tmp_path / "ext.csv", np.random.default_rng(0).uniform(size=(60, 2)))
            extra = ["--anchors", tmp_path / "ext.csv"]
        assert run("pretrain", "--input", workspace / "data.csv", "--out-dir",
                   tmp_path / "a", "--pieces", pieces, *extra) == 2
        assert f"got {pieces}" in capsys.readouterr().err
        assert not (tmp_path / "a").exists()

    @pytest.mark.parametrize("q", ["1", "0"])
    def test_q_below_two_is_usage_error(self, workspace, tmp_path, capsys, monkeypatch, q):
        import nifa.pretrain

        def embedding_started(*args, **kwargs):
            raise AssertionError("rejected only after the embedding started")

        # the dimension rule compares two coordinates, so Q < 2 is rejected
        # with the configuration, before any embedding work
        for name in ("default_epsilon_dm", "diffusion_spectrum"):
            monkeypatch.setattr(nifa.pretrain, name, embedding_started)
        assert run("pretrain", "--input", workspace / "data.csv", "--out-dir",
                   tmp_path / "a", "--q", q) == 2
        assert f"Q must be at least 2, got {q}" in capsys.readouterr().err
        assert not (tmp_path / "a").exists()

    def test_anchor_row_count_must_match_input(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        save_matrix(tmp_path / "d.csv", rng.standard_normal((120, 3)))
        save_matrix(tmp_path / "ext.csv", rng.uniform(size=(80, 2)))
        assert run("pretrain", "--input", tmp_path / "d.csv", "--anchors",
                   tmp_path / "ext.csv", "--out-dir", tmp_path / "a") == 2
        err = capsys.readouterr().err
        assert "80" in err and "120" in err
        assert not (tmp_path / "a").exists()

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_anchors_are_usage_error(self, tmp_path, capsys, bad):
        rng = np.random.default_rng(0)
        ext = rng.uniform(size=(40, 2))
        ext[3, 0] = float(bad)
        save_matrix(tmp_path / "d.csv", rng.standard_normal((40, 3)))
        save_matrix(tmp_path / "ext.csv", ext)
        assert run("pretrain", "--input", tmp_path / "d.csv", "--anchors",
                   tmp_path / "ext.csv", "--out-dir", tmp_path / "a", "--pieces", "6") == 2
        assert "finite" in capsys.readouterr().err
        assert not (tmp_path / "a").exists()


class TestFit:
    def test_run_directory_complete(self, workspace):
        chain = load_chain(workspace / "run")
        assert len(chain) == 6
        manifest = load_json(workspace / "run" / "manifest.json")
        assert manifest["config"]["seed"] == 1
        assert manifest["config"]["iterations"] == 120

    def test_seeded_rerun_identical(self, workspace, tmp_path):
        again = tmp_path / "run2"
        assert run("fit", "--input", workspace / "data.csv",
                   "--anchor-dir", workspace / "anchors", "--out", again,
                   "--iterations", "120", "--burn-in", "60", "--thin", "10",
                   "--pieces", "8", "--seed", "1") == 0
        for p in sorted((workspace / "run").rglob("*.csv")):
            q = again / p.relative_to(workspace / "run")
            assert p.read_text() == q.read_text(), p.name

    def test_multiple_chains(self, workspace, tmp_path):
        out = tmp_path / "multi"
        assert run("fit", "--input", workspace / "data.csv",
                   "--anchor-dir", workspace / "anchors", "--out", out,
                   "--iterations", "40", "--burn-in", "20", "--thin", "10",
                   "--pieces", "8", "--seed", "3", "--chains", "2") == 0
        c0 = load_chain(out / "chain_0")
        c1 = load_chain(out / "chain_1")
        assert c0.config.seed == 3 and c1.config.seed == 4
        assert not np.allclose(c0.loadings[0], c1.loadings[0])

    def test_pieces_must_match_the_anchors(self, workspace, tmp_path, capsys):
        # the workspace anchors were fit with 8 pieces
        assert run("fit", "--input", workspace / "data.csv",
                   "--anchor-dir", workspace / "anchors", "--out", tmp_path / "x",
                   "--pieces", "20") == 2
        err = capsys.readouterr().err
        assert "--pieces 20" in err and "8 pieces" in err
        assert not (tmp_path / "x").exists()

    def test_anchor_dir_must_record_pieces(self, workspace, tmp_path, capsys):
        # a run's own anchor copy records no pieces, so no agreement can be checked
        assert run("fit", "--input", workspace / "data.csv",
                   "--anchor-dir", workspace / "run" / "anchor", "--out", tmp_path / "x",
                   "--pieces", "8") == 2
        assert "pieces" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_anchor_rows_must_match_input(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        save_matrix(tmp_path / "train.csv", rng.standard_normal((400, 3)))
        save_matrix(tmp_path / "ext.csv", rng.uniform(size=(400, 2)))
        save_matrix(tmp_path / "heldout.csv", rng.standard_normal((2000, 3)))
        assert run("pretrain", "--input", tmp_path / "train.csv", "--anchors",
                   tmp_path / "ext.csv", "--out-dir", tmp_path / "anchors",
                   "--pieces", "8") == 0
        capsys.readouterr()
        assert run("fit", "--input", tmp_path / "heldout.csv",
                   "--anchor-dir", tmp_path / "anchors", "--out", tmp_path / "x",
                   "--pieces", "8") == 2
        err = capsys.readouterr().err
        assert "--input has 2000 rows" in err and "--anchor-dir" in err and "have 400" in err
        assert not (tmp_path / "x").exists()

    def test_bad_assignment_is_usage_error(self, workspace, tmp_path):
        assert run("fit", "--input", workspace / "data.csv",
                   "--anchor-dir", workspace / "anchors",
                   "--out", tmp_path / "x", "--assignment", "1,2,3") == 2

    @pytest.mark.parametrize("option", ["--anchor-dir", "--dimension-offset"])
    def test_fit_does_not_pretrain(self, workspace, tmp_path, capsys, option):
        # fit needs an anchor directory and takes no pretraining option
        extra = [] if option == "--anchor-dir" else [
            "--anchor-dir", workspace / "anchors", "--dimension-offset", "1"]
        with pytest.raises(SystemExit) as exit_info:
            run("fit", "--input", workspace / "data.csv", "--out", tmp_path / "x", *extra)
        assert exit_info.value.code == 2
        assert option in capsys.readouterr().err
        assert not (tmp_path / "x").exists()


class Recorded(Exception):
    """Raised by a patched stage function once it has recorded its arguments."""


@pytest.fixture
def recorded(monkeypatch):
    """Patch `run_chain` and `run_pretraining` to record their arguments
    and raise `Recorded`; returns the records by function name."""
    import nifa.pretrain
    import nifa.sampler

    calls = {}

    def recorder(name):
        def record(*args):
            calls[name] = args
            raise Recorded
        return record

    monkeypatch.setattr(nifa.sampler, "run_chain", recorder("run_chain"))
    monkeypatch.setattr(nifa.pretrain, "run_pretraining", recorder("run_pretraining"))
    return calls


@pytest.fixture(scope="module")
def two_anchors(workspace):
    """An external K=2 anchor directory for the workspace data, fit with the
    default number of pieces, which a fit without --pieces must match."""
    ext = workspace / "ext2.csv"
    save_matrix(ext, np.random.default_rng(1).uniform(size=(60, 2)))
    assert run("pretrain", "--input", workspace / "data.csv", "--anchors", ext,
               "--out-dir", workspace / "anchors2") == 0
    return workspace / "anchors2"


class TestFactorOptions:
    def fit(self, workspace, two_anchors, tmp_path, *options):
        return run("fit", "--input", workspace / "data.csv", "--anchor-dir", two_anchors,
                   "--out", tmp_path / "x", *options)

    def test_h_factors_below_k_is_usage_error(self, workspace, two_anchors, tmp_path,
                                              recorded, capsys):
        assert self.fit(workspace, two_anchors, tmp_path, "--h-factors", "1") == 2
        err = capsys.readouterr().err
        assert "--h-factors" in err and "K=2" in err
        assert recorded == {}
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("h_factors", ["4", "2"])
    def test_assignment_length_must_match_h_factors(self, workspace, two_anchors, tmp_path,
                                                    recorded, capsys, h_factors):
        assert self.fit(workspace, two_anchors, tmp_path, "--h-factors", h_factors,
                        "--assignment", "1,2,1") == 2
        err = capsys.readouterr().err
        assert "--assignment" in err and f"--h-factors is {h_factors}" in err
        assert recorded == {}

    def test_matching_options_reach_the_sampler(self, workspace, two_anchors, tmp_path,
                                                recorded):
        with pytest.raises(Recorded):
            self.fit(workspace, two_anchors, tmp_path, "--h-factors", "4",
                     "--assignment", "1,2,2,1")
        assert recorded["run_chain"][3].k_of_h.tolist() == [1, 2, 2, 1]
        with pytest.raises(Recorded):
            self.fit(workspace, two_anchors, tmp_path, "--h-factors", "3")
        assert recorded["run_chain"][3].k_of_h.tolist() == [1, 2, 1]


class TestConfigDefaults:
    """Every model option takes its default from its config dataclass."""

    def test_fit_without_model_options_passes_default_hyperparameters(self, workspace,
                                                                      two_anchors, tmp_path,
                                                                      recorded):
        with pytest.raises(Recorded):
            run("fit", "--input", workspace / "data.csv", "--anchor-dir", two_anchors,
                "--out", tmp_path / "x")
        assert recorded["run_chain"][2] == Hyperparameters()

    def test_pretrain_without_options_passes_default_config(self, workspace, tmp_path,
                                                            recorded):
        with pytest.raises(Recorded):
            run("pretrain", "--input", workspace / "data.csv", "--out-dir", tmp_path / "a")
        _, cfg, n_pieces = recorded["run_pretraining"]
        assert cfg == DiffusionConfig()
        assert n_pieces == Hyperparameters().L

    @pytest.mark.parametrize("command, names", [
        ("fit", [f.name for f in fields(Hyperparameters)]),
        ("pretrain", [f.name for f in fields(DiffusionConfig)] + ["L"]),
    ], ids=["fit", "pretrain"])
    def test_every_field_has_an_option(self, command, names):
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        options = {a.dest: a for a in sub.choices[command]._actions if a.option_strings}
        assert set(names) <= options.keys()
        assert options["L"].option_strings == ["--pieces"]


CHAIN_ARGS = ("--iterations", "40", "--burn-in", "20", "--thin", "10", "--pieces", "8",
              "--seed", "3")


def chain_files(run_dir, chains):
    """The bytes of every chain's draws and trace (manifests hold timings)."""
    return {(c, name): (Path(run_dir) / f"chain_{c}" / name).read_bytes()
            for c in range(chains) for name in ("chain.npz", "log_posterior.csv")}


@pytest.fixture(scope="module")
def parallel_chains(workspace):
    """A three-chain fit run as a separate process, as from a shell, with its stdout."""
    out = workspace / "three_chains"
    proc = subprocess.run(
        [sys.executable, "-m", "nifa.cli", "fit", "--input", str(workspace / "data.csv"),
         "--anchor-dir", str(workspace / "anchors"), "--out", str(out), "--chains", "3",
         *CHAIN_ARGS], capture_output=True, text=True, env=fresh_env(), timeout=300)
    assert proc.returncode == 0, proc.stderr
    return out, proc.stdout


class TestParallelChains:
    def test_chains_match_direct_sequential_runs(self, workspace, parallel_chains, tmp_path):
        from nifa.model import DataMatrix, FactorAssignment, Hyperparameters
        from nifa.runio import save_chain
        from nifa.sampler import run_chain

        anchor = load_anchor_set(workspace / "anchors")
        data = load_matrix(workspace / "data.csv")
        augmented = DataMatrix(np.hstack([anchor.coordinates, data]))
        assignment = FactorAssignment.round_robin(anchor.n_anchors, anchor.n_anchors)
        for c in range(3):
            hp = Hyperparameters(L=8, iterations=40, burn_in=20, thin=10, seed=3 + c)
            save_chain(tmp_path / f"chain_{c}", run_chain(augmented, anchor, hp, assignment))
        assert chain_files(parallel_chains[0], 3) == chain_files(tmp_path, 3)

    def test_one_cpu_runs_chains_without_a_pool(self, workspace, parallel_chains, tmp_path,
                                                monkeypatch):
        import concurrent.futures

        def no_pool(*args, **kwargs):
            raise AssertionError("a process pool was built for one usable CPU")

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        # the fit imports the pool class from concurrent.futures when it needs one
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        assert usable_cpus() == 1
        assert run("fit", "--input", workspace / "data.csv", "--anchor-dir",
                   workspace / "anchors", "--out", tmp_path, "--chains", "3", *CHAIN_ARGS) == 0
        assert chain_files(tmp_path, 3) == chain_files(parallel_chains[0], 3)

    @pytest.mark.parametrize("failure, message", [
        (np.linalg.LinAlgError("singular"), "chain 1: singular"),
        pytest.param(None, "chain 1: ", marks=pytest.mark.skipif(
            usable_cpus() < 2, reason="chain 1 runs in a worker only with 2+ CPUs")),
    ], ids=["linalg_error", "worker_death"])
    def test_failing_chain_is_named_and_exits_1(self, workspace, tmp_path, monkeypatch,
                                                capsys, failure, message):
        import nifa.sampler

        original = nifa.sampler.run_chain

        def fails_for_chain_1(data, anchor, hp, assignment):
            if hp.seed == 3 + 1:
                if failure is None:
                    os._exit(9)  # the worker process dies
                raise failure
            return original(data, anchor, hp, assignment)

        monkeypatch.setattr(nifa.sampler, "run_chain", fails_for_chain_1)
        assert run("fit", "--input", workspace / "data.csv", "--anchor-dir",
                   workspace / "anchors", "--out", tmp_path, "--chains", "3", *CHAIN_ARGS) == 1
        assert f"numerical failure: {message}" in capsys.readouterr().err

    def test_each_chain_line_printed_once_in_chain_order(self, parallel_chains):
        out, stdout = parallel_chains
        lines = stdout.splitlines()
        assert [line.split(":")[0] for line in lines] == ["chain 0", "chain 1", "chain 2"]
        for c, line in enumerate(lines):
            assert line.endswith(f"written to {out / f'chain_{c}'}")


class TestPostprocess:
    def test_summaries_written(self, workspace):
        assert run("postprocess", workspace / "run") == 0
        s = workspace / "run" / "summaries"
        for name in ("loadings_mean", "mappings_mean", "variances_mean"):
            assert (s / f"{name}.csv").exists()
        rep = load_json(s / "alignment_report.json")
        assert rep["max_mean_change"] < 1e-8

    def test_idempotent_summaries(self, workspace):
        s = workspace / "run" / "summaries" / "loadings_mean.csv"
        first = s.read_text()
        assert run("postprocess", workspace / "run") == 0
        assert s.read_text() == first

    def test_unit_norm_columns(self, workspace):
        arr = load_matrix(workspace / "run" / "summaries" / "loadings_mean.csv")
        aligned = load_chain(workspace / "run" / "aligned")
        assert np.allclose(np.linalg.norm(aligned.loadings, axis=1), 1.0, atol=1e-10)

    def test_missing_run_is_input_error(self, tmp_path):
        assert run("postprocess", tmp_path / "nope") == 2

    def test_aligned_is_an_overlay_of_the_run(self, workspace):
        aligned = workspace / "run" / "aligned"
        assert sorted(p.name for p in aligned.iterdir()) == ["manifest.json", "overlay.npz"]
        with np.load(aligned / "overlay.npz") as npz:
            assert sorted(npz.files) == ["loadings", "spline_coefficients"]
        chain, overlay = load_chain(workspace / "run"), load_chain(aligned)
        for name in ("latent_locations", "residual_variances", "local_scales", "global_scale"):
            assert np.array_equal(getattr(overlay, name), getattr(chain, name)), name

    def test_aligned_arrays_equal_postprocess_chain(self, workspace):
        processed, _ = postprocess_chain(load_chain(workspace / "run"))
        back = load_chain(workspace / "run" / "aligned")
        for name in CHAIN_ARRAYS:
            assert np.array_equal(getattr(back, name), getattr(processed, name)), name

    def test_second_run_is_byte_identical(self, workspace, tmp_path):
        shutil.copytree(workspace / "run", tmp_path / "run")
        first = file_bytes(tmp_path / "run")
        assert run("postprocess", tmp_path / "run") == 0
        assert file_bytes(tmp_path / "run") == first

    def test_replaces_a_full_copy(self, workspace, tmp_path):
        # earlier versions wrote aligned/ as a full run directory
        shutil.copytree(workspace / "run", tmp_path / "run")
        aligned = load_chain(tmp_path / "run" / "aligned")
        shutil.rmtree(tmp_path / "run" / "aligned")
        save_chain(tmp_path / "run" / "aligned", aligned)
        assert run("generate", tmp_path / "run" / "aligned", "--n", "7", "--seed", "2",
                   "--out", tmp_path / "full.csv") == 0
        assert run("postprocess", tmp_path / "run") == 0
        assert file_bytes(tmp_path / "run") == file_bytes(workspace / "run")
        assert run("generate", tmp_path / "run" / "aligned", "--n", "7", "--seed", "2",
                   "--out", tmp_path / "overlay.csv") == 0
        assert (tmp_path / "overlay.csv").read_bytes() == (tmp_path / "full.csv").read_bytes()

    def test_overlay_is_refused_before_any_write(self, workspace, tmp_path):
        shutil.copytree(workspace / "run", tmp_path / "run")
        first = file_bytes(tmp_path / "run")
        assert run("postprocess", tmp_path / "run" / "aligned") == 2
        assert file_bytes(tmp_path / "run") == first


class TestGenerate:
    def test_rows_and_determinism(self, workspace, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run("generate", workspace / "run", "--n", "15", "--seed", "9",
                   "--out", a) == 0
        assert run("generate", workspace / "run", "--n", "15", "--seed", "9",
                   "--out", b) == 0
        arr = load_matrix(a)
        chain = load_chain(workspace / "run")
        assert arr.shape == (15, chain.loadings.shape[1])
        assert a.read_text() == b.read_text()

    def test_zero_rows(self, workspace, tmp_path):
        out = tmp_path / "z.csv"
        assert run("generate", workspace / "run", "--n", "0", "--seed", "0",
                   "--out", out) == 0
        arr = load_matrix(out)
        assert arr.shape[0] == 0

    def test_from_aligned_overlay(self, workspace, tmp_path):
        out = tmp_path / "a.csv"
        assert run("generate", workspace / "run" / "aligned", "--n", "15", "--seed", "9",
                   "--out", out) == 0
        assert load_matrix(out).shape == (15, load_chain(workspace / "run").loadings.shape[1])

    @pytest.mark.parametrize("damage", ["missing_base", "draw_count"])
    def test_broken_overlay_is_input_error(self, workspace, tmp_path, damage):
        shutil.copytree(workspace / "run", tmp_path / "run")
        aligned = tmp_path / "run" / "aligned"
        if damage == "missing_base":
            aligned = shutil.move(aligned, tmp_path / "alone")
        else:
            manifest = load_json(aligned / "manifest.json")
            save_json(aligned / "manifest.json", {**manifest, "n_samples": 1})
        assert run("generate", aligned, "--n", "5", "--out", tmp_path / "g.csv") == 2
        assert not (tmp_path / "g.csv").exists()

    def test_drop_anchors(self, workspace, tmp_path):
        out = tmp_path / "na.csv"
        assert run("generate", workspace / "run", "--n", "5", "--seed", "0",
                   "--out", out, "--drop-anchors") == 0
        arr = load_matrix(out)
        data = load_matrix(workspace / "data.csv")
        assert arr.shape[1] == data.shape[1]


class TestEvaluate:
    def test_self_distance_zero(self, workspace, capsys):
        assert run("evaluate", workspace / "data.csv", workspace / "data.csv",
                   "--projections", "10") == 0
        out = capsys.readouterr().out
        assert "sliced Wasserstein distance: 0" in out

    def test_mismatched_columns(self, workspace, tmp_path):
        from nifa.runio import save_matrix

        other = tmp_path / "o.csv"
        save_matrix(other, np.ones((5, 7)))
        assert run("evaluate", workspace / "data.csv", other) == 2

    def test_reference_floor_printed(self, workspace, tmp_path, capsys):
        from nifa.runio import save_matrix

        rng = np.random.default_rng(0)
        b, c = tmp_path / "b.csv", tmp_path / "c.csv"
        save_matrix(b, rng.standard_normal((50, 2)))
        save_matrix(c, rng.standard_normal((50, 2)))
        assert run("evaluate", workspace / "data.csv", b, "--reference", c,
                   "--projections", "10") == 0
        out = capsys.readouterr().out
        assert "reference floor" in out


class TestExitCodes:
    def test_linalg_failure_in_fit_exits_1(self, workspace, tmp_path, monkeypatch):
        import nifa.sampler

        def broken(*args, **kwargs):
            raise np.linalg.LinAlgError("singular")

        monkeypatch.setattr(nifa.sampler, "run_chain", broken)
        assert run("fit", "--input", workspace / "data.csv",
                   "--anchor-dir", workspace / "anchors", "--out", tmp_path / "x",
                   "--iterations", "20", "--burn-in", "10", "--pieces", "8") == 1

    def test_non_finite_sweep_in_fit_exits_1(self, workspace, tmp_path, monkeypatch, capsys):
        import nifa.sampler

        original = nifa.sampler.sample_shrinkage

        def poisoned(*args):
            gamma, _ = original(*args)
            return gamma, np.nan

        monkeypatch.setattr(nifa.sampler, "sample_shrinkage", poisoned)
        assert run("fit", "--input", workspace / "data.csv",
                   "--anchor-dir", workspace / "anchors", "--out", tmp_path / "x",
                   "--iterations", "20", "--burn-in", "10", "--pieces", "8") == 1
        assert "at sweep 0" in capsys.readouterr().err

    @pytest.mark.parametrize("chains", ["0", "-1"])
    def test_non_positive_chains_is_usage_error(self, workspace, tmp_path, capsys, chains):
        assert run("fit", "--input", workspace / "data.csv", "--anchor-dir",
                   workspace / "anchors", "--out", tmp_path / "x", "--chains", chains) == 2
        assert "--chains" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_nan_mala_step_in_fit_exits_2(self, workspace, tmp_path, capsys):
        assert run("fit", "--input", workspace / "data.csv", "--anchor-dir",
                   workspace / "anchors", "--out", tmp_path / "x", "--pieces", "8",
                   "--mala-step", "nan") == 2
        assert "mala_step must be a finite number" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_nan_bandwidth_in_pretrain_exits_2(self, workspace, tmp_path, capsys):
        assert run("pretrain", "--input", workspace / "data.csv", "--out-dir", tmp_path / "a",
                   "--epsilon-dm", "nan") == 2
        assert "epsilon_dm must be a finite number" in capsys.readouterr().err

    def test_disconnected_kernel_graph_in_pretrain_exits_1(self, tmp_path, capsys):
        from nifa.runio import save_matrix

        data = tmp_path / "d.csv"
        save_matrix(data, np.random.default_rng(24).standard_normal((300, 3)))
        assert run("pretrain", "--input", data, "--out-dir", tmp_path / "a",
                   "--epsilon-dm", "0.05") == 1
        assert "epsilon_dm" in capsys.readouterr().err

    def test_empty_input_in_evaluate_exits_2(self, tmp_path, capsys):
        from nifa.runio import save_matrix

        empty, two = tmp_path / "empty.csv", tmp_path / "two.csv"
        save_matrix(empty, np.empty((0, 3)))
        save_matrix(two, np.ones((2, 3)))
        assert run("evaluate", empty, two) == 2
        assert "error:" in capsys.readouterr().err

    def test_rank_deficient_partition_in_postprocess_exits_1(self, workspace, tmp_path):
        from dataclasses import replace

        from nifa.runio import save_chain

        chain = load_chain(workspace / "run")
        lam = chain.loadings.copy()
        lam[:, :, 0] = 0.0
        save_chain(tmp_path / "run", replace(chain, loadings=lam))
        assert run("postprocess", tmp_path / "run") == 1

    @pytest.mark.parametrize("command, corrupt", [
        ("postprocess", lambda manifest: {}),
        ("generate", lambda manifest: {**manifest,
                                       "config": {**manifest["config"], "unknown": 1}}),
        ("postprocess", lambda manifest: {**manifest, "mala_acceptance_rate": "abc"}),
    ], ids=["empty_manifest", "unknown_config_field", "string_acceptance_rate"])
    def test_malformed_manifest_is_input_error(self, workspace, tmp_path, capsys, command,
                                               corrupt):
        import shutil

        from nifa.runio import save_json

        run_dir = tmp_path / "run"
        shutil.copytree(workspace / "run", run_dir)
        save_json(run_dir / "manifest.json", corrupt(load_json(run_dir / "manifest.json")))
        extra = ["--n", "5", "--out", tmp_path / "g.csv"] if command == "generate" else []
        assert run(command, run_dir, *extra) == 2
        assert "manifest.json" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["fit", "simulate"])
    def test_output_path_of_the_wrong_kind_is_input_error(self, workspace, tmp_path, capsys,
                                                           command):
        if command == "fit":
            taken = tmp_path / "taken.csv"
            taken.write_text("")
            argv = ["fit", "--input", workspace / "data.csv", "--anchor-dir",
                    workspace / "anchors", "--out", taken, "--pieces", "8"]
        else:
            argv = ["simulate", "--setting", "1", "--n", "10", "--out", tmp_path]
        assert run(*argv) == 2
        assert "error:" in capsys.readouterr().err


class TestPretrainPass:
    def test_one_eigensolve_and_decisions_recorded(self, workspace, tmp_path, monkeypatch,
                                                   capsys):
        import nifa.pretrain as pretrain

        calls = {"diffusion_spectrum": 0, "mean_local_eigenvalues": 0}

        def counting(name):
            fn = getattr(pretrain, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(pretrain, name, counting(name))
        assert run("pretrain", "--input", workspace / "data.csv", "--out-dir", tmp_path / "a",
                   "--pieces", "8") == 0
        assert calls == {"diffusion_spectrum": 1, "mean_local_eigenvalues": 1}
        monkeypatch.undo()
        data = load_matrix(workspace / "data.csv")
        from nifa.model import DataMatrix

        expected, _ = pretrain.run_pretraining(DataMatrix(data), pretrain.DiffusionConfig(), 8)
        out = capsys.readouterr().out
        assert f"selected K={expected.n_anchors}\n" in out
        meta = load_json(tmp_path / "a" / "anchor_meta.json")
        assert len(meta["diffusion_eigenvalues"]) == 5
        assert len(meta["eigenvalue_ratios"]) == len(meta["mean_local_eigenvalues"]) - 1
        assert meta["config"]["epsilon_dm"] > 0 and meta["config"]["epsilon_local"] > 0
        assert meta["eigensolver"] == "lanczos"


class TestColumnarStages:
    def test_postprocess_and_generate_build_no_state_records(self, workspace, tmp_path,
                                                             monkeypatch):
        # fit, postprocess and generate all run on arrays
        from nifa.model import NiftyState

        builds = []
        original = NiftyState.__post_init__

        def counted(self):
            builds.append(None)
            original(self)

        monkeypatch.setattr(NiftyState, "__post_init__", counted)
        assert run("fit", "--input", workspace / "data.csv", "--anchor-dir",
                   workspace / "anchors", "--out", tmp_path / "fit", "--iterations", "30",
                   "--burn-in", "10", "--pieces", "8") == 0
        assert run("postprocess", workspace / "run") == 0
        assert run("generate", workspace / "run", "--n", "10", "--seed", "0",
                   "--out", tmp_path / "g.csv") == 0
        assert builds == []


# `main(argv)` in a fresh interpreter (none without arguments), then, as JSON on
# the last line of stdout, the loaded scipy modules, the nifa submodules in
# sys.modules, those whose body ran (a lazily loaded module that has not run
# is of a subclass of the module type) and the loaded modules of OPTIONAL
STARTUP_PROBE = """
import json, sys, types
from nifa.cli import main
code = main(sys.argv[1:]) if sys.argv[1:] else 0
nifa = {k[5:]: m for k, m in sys.modules.items() if k.startswith("nifa.") and k != "nifa.cli"}
print(json.dumps({
    "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy"),
    "registered": sorted(nifa),
    "ran": sorted(k for k, m in nifa.items() if type(m) is types.ModuleType),
    "optional": sorted(m for m in ("concurrent.futures", "gzip", "multiprocessing",
                                   "numpy.ma", "statistics") if m in sys.modules),
}))
sys.exit(code)
"""

SUBMODULES = ["metrics", "model", "postprocess", "pretrain", "runio", "sampler", "simulate"]


def startup_probe(*args) -> dict:
    proc = subprocess.run([sys.executable, "-c", STARTUP_PROBE, *map(str, args)],
                          capture_output=True, text=True, env=fresh_env(), timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def stage_startups(workspace, tmp_path_factory):
    """startup_probe of each of the six stages, by command (fit with one chain)."""
    out = tmp_path_factory.mktemp("startup")
    args = {
        "simulate": ("--setting", "3", "--n", "20", "--out", out / "d.csv"),
        "pretrain": ("--input", workspace / "data.csv", "--out-dir", out / "a",
                     "--pieces", "8"),
        "fit": ("--input", workspace / "data.csv", "--anchor-dir", workspace / "anchors",
                "--out", out / "fit", "--iterations", "20", "--burn-in", "10",
                "--pieces", "8"),
        "postprocess": (workspace / "run",),
        "generate": (workspace / "run", "--n", "5", "--out", out / "g.csv"),
        "evaluate": (workspace / "data.csv", workspace / "data.csv", "--projections", "5"),
    }
    probes = {command: startup_probe(command, *argv) for command, argv in args.items()}
    # files of unequal row counts reduce each projection to a common quantile grid
    assert run("simulate", "--setting", "1", "--n", "40", "--seed", "1",
               "--out", out / "d40.csv") == 0
    probes["evaluate-unequal"] = startup_probe("evaluate", workspace / "data.csv",
                                               out / "d40.csv", "--projections", "5")
    return probes


class TestStartup:
    """Each stage runs the modules its command uses and no other: `import nifa`
    and `import nifa.cli` register every submodule without running it, no
    stage imports scipy, and a stage loads the optional modules of
    STARTUP_PROBE only where it uses them."""

    def test_import_loads_no_scipy(self):
        assert startup_probe()["scipy"] == []

    def test_import_registers_every_submodule_and_runs_only_model(self):
        probe = startup_probe()
        assert probe["registered"] == SUBMODULES
        # the command line reads its configuration types from model
        assert probe["ran"] == ["model"]
        assert probe["optional"] == []

    @pytest.mark.parametrize("command", ["simulate", "pretrain", "fit", "postprocess",
                                         "generate", "evaluate"])
    def test_stage_loads_no_scipy(self, stage_startups, command):
        assert stage_startups[command]["scipy"] == []

    @pytest.mark.parametrize("command, ran", [
        ("simulate", ["model", "runio", "simulate"]),
        ("pretrain", ["model", "pretrain", "runio"]),
        ("fit", ["model", "runio", "sampler"]),
        ("postprocess", ["model", "postprocess", "runio"]),
        ("generate", ["model", "runio", "simulate"]),
        ("evaluate", ["metrics", "model", "runio"]),
    ])
    def test_stage_runs_only_its_modules(self, stage_startups, command, ran):
        assert stage_startups[command]["registered"] == SUBMODULES
        assert stage_startups[command]["ran"] == ran

    @pytest.mark.parametrize("command, optional", [
        ("simulate", []),
        ("pretrain", ["concurrent.futures"]),  # its row-block passes run on a thread pool
        ("fit", ["statistics"]),  # the normal quantile; one chain starts no process pool
        ("postprocess", []),
        ("generate", []),
        ("evaluate", []),
        ("evaluate-unequal", []),  # the quantile grid loads no numpy.ma
    ])
    def test_stage_loads_only_the_optional_modules_it_uses(self, stage_startups, command,
                                                           optional):
        assert stage_startups[command]["optional"] == optional
