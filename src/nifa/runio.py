"""Run-directory persistence: comma-separated numeric matrices with one header
row, JSON metadata records, and full chain round-tripping through one
uncompressed ``chain.npz`` of stacked draws. An overlay directory stores only
the arrays that differ from a base run directory, which its manifest names."""

from __future__ import annotations

import io
import json
import shutil
import zipfile
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from .model import (CHAIN_ARRAYS, AnchorSet, ChainDiagnostics, FactorAssignment, Hyperparameters,
                    PosteriorChain, is_finite_number)


class IncompleteRunError(FileNotFoundError):
    """A run directory is missing required artifacts."""


# the arrays that postprocessing changes, and an overlay stores
OVERLAY_ARRAYS = ("loadings", "spline_coefficients")


def save_matrix(path, arr: np.ndarray, names: list[str] | None = None) -> None:
    arr = np.atleast_2d(np.asarray(arr, dtype=float))
    names = names or [f"c{i}" for i in range(arr.shape[1])]
    header = ",".join(names)
    # a handle, not a path: for a path np.savetxt imports gzip to test for a compressed name
    with open(path, "w") as fh:
        np.savetxt(fh, arr, delimiter=",", header=header, comments="")


def load_matrix(path) -> np.ndarray:
    """Reads a CSV matrix with one header row; a file with no data rows gives
    a 0 x (header columns) array."""
    with open(path) as fh:
        header = fh.readline()
        body = fh.read()
    if not body.strip():
        return np.empty((0, header.count(",") + 1))
    return np.loadtxt(io.StringIO(body), delimiter=",", ndmin=2)


def save_json(path, record: dict) -> None:
    Path(path).write_text(json.dumps(record, indent=2, default=_jsonable) + "\n")


def load_json(path) -> dict:
    return json.loads(Path(path).read_text())


def _require_keys(record, keys, path) -> None:
    """Raise IncompleteRunError unless a JSON record is an object holding every key."""
    if not isinstance(record, dict):
        raise IncompleteRunError(f"{path} does not hold a JSON object")
    missing = [k for k in keys if k not in record]
    if missing:
        raise IncompleteRunError(f"{path} lacks {', '.join(missing)}")


def _require_form(ok: bool, path, key: str, form: str) -> None:
    if not ok:
        raise IncompleteRunError(f"{path} holds a {key} that is not {form}")


def _jsonable(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.integer, np.floating)):
        return obj.item()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def save_anchor_set(out_dir, anchor: AnchorSet, extra_meta: dict | None = None) -> None:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    save_matrix(out_dir / "anchors.csv", anchor.coordinates,
                [f"anchor{k}" for k in range(anchor.n_anchors)])
    meta = {
        "n_anchors": anchor.n_anchors,
        "residual_variances": anchor.residual_variances,
        "source": anchor.source,
    }
    meta.update(extra_meta or {})
    save_json(out_dir / "anchor_meta.json", meta)


def load_anchor_set(anchor_dir) -> AnchorSet:
    anchor_dir = Path(anchor_dir)
    coords_path = anchor_dir / "anchors.csv"
    meta_path = anchor_dir / "anchor_meta.json"
    if not coords_path.exists() or not meta_path.exists():
        raise IncompleteRunError(f"missing anchor artifacts in {anchor_dir}")
    coords = load_matrix(coords_path)
    meta = load_json(meta_path)
    _require_keys(meta, ("residual_variances", "source"), meta_path)
    try:
        return AnchorSet(coords, np.asarray(meta["residual_variances"]), meta["source"])
    except TypeError as exc:
        raise IncompleteRunError(f"{meta_path} holds a value of the wrong type: {exc}") from None


def save_chain(run_dir, chain: PosteriorChain) -> None:
    """Persist a chain: its stacked draws in one ``chain.npz``, the log-posterior
    trace, the anchors, and a manifest record written last."""
    run_dir = Path(run_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    (run_dir / "manifest.json").unlink(missing_ok=True)
    np.savez(run_dir / "chain.npz", **{name: getattr(chain, name) for name in CHAIN_ARRAYS})
    save_matrix(
        run_dir / "log_posterior.csv",
        chain.diagnostics.log_posterior_trace[:, None],
        ["log_posterior"],
    )
    save_anchor_set(run_dir / "anchor", chain.anchor)
    save_json(
        run_dir / "manifest.json",
        {
            "n_samples": len(chain),
            "assignment": chain.assignment.k_of_h,
            "mala_acceptance_rate": chain.diagnostics.mala_acceptance_rate,
            "block_seconds": chain.diagnostics.block_seconds,
            "config": asdict(chain.config),
        },
    )


def save_overlay(run_dir, chain: PosteriorChain) -> None:
    """Persist the OVERLAY_ARRAYS of a chain whose other arrays, trace, anchors and
    metadata are those of the run directory above `run_dir`: one ``overlay.npz``
    and a manifest naming that base (``..``), written last. The files of a full run
    directory that an earlier version wrote to `run_dir` are removed first. The base
    must be a run directory, not an overlay."""
    run_dir = Path(run_dir)
    base = _read_manifest(run_dir.parent)
    if isinstance(base, dict) and "base" in base:
        raise ValueError(f"{run_dir.parent} is an overlay, not a run directory to overlay")
    run_dir.mkdir(parents=True, exist_ok=True)
    for name in ("manifest.json", "chain.npz", "log_posterior.csv"):
        (run_dir / name).unlink(missing_ok=True)
    shutil.rmtree(run_dir / "anchor", ignore_errors=True)
    np.savez(run_dir / "overlay.npz", **{name: getattr(chain, name) for name in OVERLAY_ARRAYS})
    save_json(run_dir / "manifest.json", {"base": "..", "n_samples": len(chain)})


def _read_manifest(run_dir: Path):
    """The parsed manifest.json of a directory, or None if it has none."""
    path = run_dir / "manifest.json"
    if not path.exists():
        return None
    try:
        return load_json(path)
    except ValueError as exc:
        raise IncompleteRunError(f"{path} is not valid JSON: {exc}") from None


def _load_arrays(path: Path, names) -> dict:
    try:
        with np.load(path, allow_pickle=False) as npz:
            return {name: npz[name] for name in names}
    except FileNotFoundError:
        raise IncompleteRunError(f"{path.parent} is missing: {path.name}") from None
    except (KeyError, zipfile.BadZipFile) as exc:
        raise IncompleteRunError(f"unreadable {path.name} in {path.parent}: {exc}") from None


def load_chain(run_dir) -> PosteriorChain:
    """Reconstruct a PosteriorChain from a run directory, or from an overlay (a
    manifest with a ``base`` entry): the chain of its base run directory with the
    overlay's arrays in place of the base's."""
    run_dir = Path(run_dir)
    manifest = _read_manifest(run_dir)
    if isinstance(manifest, dict) and "base" in manifest:
        return _load_overlay(run_dir, manifest)
    return _load_run(run_dir, manifest)


def _load_overlay(run_dir: Path, manifest: dict) -> PosteriorChain:
    manifest_path = run_dir / "manifest.json"
    _require_keys(manifest, ("base", "n_samples"), manifest_path)
    _require_form(isinstance(manifest["base"], str), manifest_path, "base", "a path")
    base_dir = run_dir / manifest["base"]
    try:
        base = _load_run(base_dir, _read_manifest(base_dir))
    except IncompleteRunError as exc:
        raise IncompleteRunError(f"{run_dir} overlays {base_dir}, which is not a complete "
                                 f"run directory: {exc}") from None
    arrays = _load_arrays(run_dir / "overlay.npz", OVERLAY_ARRAYS)
    if manifest["n_samples"] != len(base) or any(
            arr.shape != getattr(base, name).shape for name, arr in arrays.items()):
        raise IncompleteRunError(f"overlay {run_dir} does not hold the shapes of its base's "
                                 f"{len(base)} samples")
    return replace(base, **arrays)


def _load_run(run_dir: Path, manifest) -> PosteriorChain:
    required = ("manifest.json", "chain.npz", "log_posterior.csv", "anchor")
    missing = [name for name in required if not (run_dir / name).exists()]
    if missing:
        raise IncompleteRunError(f"run directory {run_dir} is missing: {', '.join(missing)}")
    manifest_path = run_dir / "manifest.json"
    _require_keys(manifest, ("n_samples", "assignment", "mala_acceptance_rate",
                             "block_seconds", "config"), manifest_path)
    rate, seconds, entries = (manifest[key] for key in
                              ("mala_acceptance_rate", "block_seconds", "assignment"))
    _require_form(is_finite_number(rate) and 0 <= rate <= 1, manifest_path, "mala_acceptance_rate",
                  "a number in [0, 1]")
    _require_form(isinstance(seconds, list) and len(seconds) == 5
                  and all(is_finite_number(s) and s >= 0 for s in seconds), manifest_path,
                  "block_seconds", "a list of five finite non-negative numbers")
    _require_form(isinstance(entries, list)
                  and all(isinstance(k, int) and not isinstance(k, bool) for k in entries),
                  manifest_path, "assignment", "a list of integers")
    # a config that is no object, a field of an unknown name, a wrong kind or out of
    # range, or an assignment entry beyond the integer range or not surjective
    try:
        config = Hyperparameters(**manifest["config"])
        assignment = FactorAssignment(np.asarray(entries, dtype=int))
    except (TypeError, ValueError, OverflowError) as exc:
        raise IncompleteRunError(f"{manifest_path} holds a config or assignment of the "
                                 f"wrong form: {exc}") from None
    arrays = _load_arrays(run_dir / "chain.npz", CHAIN_ARRAYS)
    if any(a.shape[:1] != (manifest["n_samples"],) for a in arrays.values()):
        raise IncompleteRunError(f"chain.npz in {run_dir} does not hold the manifest's "
                                 f"{manifest['n_samples']} samples")
    trace = load_matrix(run_dir / "log_posterior.csv")
    diagnostics = ChainDiagnostics(
        log_posterior_trace=trace.ravel(),
        mala_acceptance_rate=float(rate),
        block_seconds=np.asarray(seconds, dtype=float),
    )
    return PosteriorChain(
        **arrays,
        assignment=assignment,
        diagnostics=diagnostics,
        config=config,
        anchor=load_anchor_set(run_dir / "anchor"),
    )
