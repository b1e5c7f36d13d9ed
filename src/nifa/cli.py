"""Batch command-line surface: simulate, pretrain, fit, postprocess, generate,
evaluate. Exit codes: 0 success, 1 numerical failure, 2 usage/input error."""

from __future__ import annotations

import argparse
import multiprocessing
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import fields, replace
from pathlib import Path
from typing import get_args, get_type_hints

import numpy as np

from . import metrics, postprocess, pretrain, runio, sampler, simulate
from .model import DataMatrix, FactorAssignment, Hyperparameters


class UsageError(Exception):
    pass


def _load_data(path) -> DataMatrix:
    path = Path(path)
    if not path.exists():
        raise UsageError(f"input file does not exist: {path}")
    values, names = runio.load_matrix(path)
    return DataMatrix(values, feature_names=names)


def _cmd_simulate(args) -> int:
    truth = None
    if args.setting == "1":
        data = simulate.gen_setting1(args.n, args.seed)
    elif args.setting == "2":
        data, lam, eta = simulate.gen_setting2(args.n, args.seed)
        truth = {"loadings": lam, "factors": eta}
    elif args.setting == "3":
        data = simulate.gen_setting3(args.n, args.seed, law=args.law)
    elif args.setting == "swiss":
        data, u, v = simulate.gen_swiss_roll(args.n, args.seed)
        truth = {"u": u, "v": v}
    elif args.setting == "clusters":
        data, labels = simulate.gen_hetero_clusters(args.n, args.seed, spacing=args.spacing)
        truth = {"labels": labels}
    else:  # pragma: no cover - argparse restricts choices
        raise UsageError(f"unknown setting {args.setting}")
    runio.save_matrix(args.out, data.values)
    if args.truth_out and truth is not None:
        runio.save_json(args.truth_out, truth)
    print(f"wrote {data.n_rows}x{data.n_features} matrix to {args.out}")
    return 0


def _cmd_pretrain(args) -> int:
    data = _load_data(args.input)
    out_dir = Path(args.out_dir)
    if args.anchors:
        coords, _ = runio.load_matrix(args.anchors)
        if coords.shape[0] != data.n_rows:
            raise UsageError(f"--anchors has {coords.shape[0]} rows but --input has "
                             f"{data.n_rows}")
        anchor = pretrain.anchors_from_external(coords, args.L)
        runio.save_anchor_set(out_dir, anchor, {"pieces": args.L})
        print(f"external anchors: K={anchor.n_anchors}")
        print("residual variances:", np.array2string(anchor.residual_variances))
        return 0
    cfg = _config(pretrain.DiffusionConfig, args)
    anchor, decisions = pretrain.pretrain_with_decisions(data, cfg, args.L)
    runio.save_anchor_set(out_dir, anchor, {"pieces": args.L, **decisions})
    print(f"selected K={anchor.n_anchors}")
    print("mean local eigenvalues and successor ratios:")
    ratios = np.append(decisions["eigenvalue_ratios"], np.nan)
    for m, (lam, ratio) in enumerate(zip(decisions["mean_local_eigenvalues"], ratios)):
        print(f"  rank {m + 1}: {lam:.6g}  ratio-to-next {ratio:.4f}")
    return 0


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _fit_chain(data: DataMatrix, anchor: pretrain.AnchorSet, hp: Hyperparameters,
               assignment: FactorAssignment, chain_dir: Path) -> tuple[int, float]:
    """Run one chain and save it; returns (retained draws, MALA acceptance)."""
    # through the module attribute, so a patched run_chain also runs in forked workers
    chain = sampler.run_chain(data, anchor, hp, assignment)
    runio.save_chain(chain_dir, chain)
    return len(chain), chain.diagnostics.mala_acceptance_rate


def _in_chain(c: int, exc: Exception) -> Exception:
    """`exc` as the same class with a message naming chain `c`, so that main()
    maps it to the same exit code."""
    try:
        return type(exc)(f"chain {c}: {exc}")
    except TypeError:  # a class that needs more constructor arguments
        return exc


def _cmd_fit(args) -> int:
    if args.chains < 1:
        raise UsageError(f"--chains must be at least 1, got {args.chains}")
    data = _load_data(args.input)
    anchor = runio.load_anchor_set(args.anchor_dir)
    k, h = anchor.n_anchors, args.h_factors
    if h is not None and h < k:
        raise UsageError(f"--h-factors must be at least K={k}, the anchor count, got {h}")
    if args.assignment:
        assignment = FactorAssignment(
            np.array([int(x) for x in args.assignment.split(",")])
        )
        if assignment.n_locations != k:
            raise UsageError(f"--assignment covers K={assignment.n_locations} locations "
                             f"but the anchors have K={k}")
        if h is not None and assignment.n_factors != h:
            raise UsageError(f"--assignment has {assignment.n_factors} entries "
                             f"but --h-factors is {h}")
    else:
        assignment = FactorAssignment.round_robin(k if h is None else h, k)
    pieces = runio.load_json(Path(args.anchor_dir) / "anchor_meta.json").get("pieces")
    if pieces is not None and pieces != args.L:
        raise UsageError(f"--pieces {args.L} differs from the {pieces} pieces that the "
                         f"anchors in {args.anchor_dir} were fit with")
    hp = _config(Hyperparameters, args)
    augmented = DataMatrix(np.hstack([anchor.coordinates, data.values]))
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    n = args.chains
    dirs = [out_dir] if n == 1 else [out_dir / f"chain_{c}" for c in range(n)]
    jobs = [(augmented, anchor, replace(hp, seed=hp.seed + c), assignment, dirs[c])
            for c in range(n)]
    # S = min(chains, usable CPUs) slots: this process runs chains 0, S, 2S, ...
    # and S - 1 forked workers run the rest. A forked worker skips the package
    # import and inherits any patched module attribute; the pool forks all its
    # workers before it starts its own thread. Nothing is printed before the
    # fork, and the flush keeps a worker from writing a caller's buffered output
    # a second time when it exits.
    slots = min(n, _usable_cpus())
    pool = None
    if slots > 1:
        sys.stdout.flush()
        sys.stderr.flush()
        pool = ProcessPoolExecutor(slots - 1, mp_context=multiprocessing.get_context("fork"))
    results = {}
    try:
        futures = {c: pool.submit(_fit_chain, *jobs[c]) for c in range(n) if c % slots}
        for c in [*range(0, n, slots), *futures]:
            try:
                results[c] = futures[c].result() if c in futures else _fit_chain(*jobs[c])
            except Exception as exc:
                raise _in_chain(c, exc)
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)
    for c in range(n):
        draws, rate = results[c]
        print(f"chain {c}: {draws} retained samples, "
              f"MALA acceptance {rate:.3f}, written to {dirs[c]}")
    return 0


def _cmd_postprocess(args) -> int:
    chain = runio.load_chain(args.run_dir)
    processed, report = postprocess.postprocess_chain(chain)
    # model-mean preservation on a shared u-grid, before vs after alignment
    grid = np.linspace(0.0, 1.0, 101)
    before, after = (postprocess.mappings_on_grid(c, grid) @ c.loadings.transpose(0, 2, 1)
                     for c in (chain, processed))
    max_delta = float(np.max(np.abs(before - after)))
    out_dir = Path(args.run_dir) / "summaries"
    out_dir.mkdir(exist_ok=True)
    summary = postprocess.summarize(processed)
    for key, arr in summary.items():
        runio.save_matrix(out_dir / f"{key}.csv", np.atleast_2d(arr))
    runio.save_json(
        out_dir / "alignment_report.json",
        {
            "pivot_index": report.pivot_index,
            "permutations": [[p.tolist() for p in sm] for sm in report.permutations],
            "sign_flips": [[s.tolist() for s in sm] for sm in report.sign_flips],
            "ties": list(report.ties),
            "max_mean_change": max_delta,
        },
    )
    runio.save_chain(Path(args.run_dir) / "aligned", processed)
    print(f"pivot sample index: {report.pivot_index}")
    print(f"max |model-mean change| over the u-grid: {max_delta:.3e}")
    return 0


def _cmd_generate(args) -> int:
    chain = runio.load_chain(args.run_dir)
    rows = simulate.posterior_predictive_array(chain, args.n, args.seed)
    if args.drop_anchors:
        rows = rows[:, chain.anchor.n_anchors:]
    runio.save_matrix(args.out, rows)
    print(f"wrote {args.n} posterior-predictive rows to {args.out}")
    return 0


def _cmd_evaluate(args) -> int:
    a, _ = runio.load_matrix(args.file_a)
    b, _ = runio.load_matrix(args.file_b)
    if a.shape[1] != b.shape[1]:
        raise UsageError("inputs have mismatched column counts")
    mean, se, _ = metrics.sliced_wasserstein_details(
        a, b, n_projections=args.projections, rng=args.seed
    )
    print(f"sliced Wasserstein distance: {mean:.6g}")
    print(f"per-projection standard error: {se:.3g}")
    if args.reference:
        c, _ = runio.load_matrix(args.reference)
        if c.shape[1] != a.shape[1]:
            raise UsageError("reference file has mismatched column count")
        floor, floor_se, _ = metrics.sliced_wasserstein_details(
            b, c, n_projections=args.projections, rng=args.seed + 1
        )
        print(f"reference floor (second vs third file): {floor:.6g} (se {floor_se:.3g})")
    return 0


# the flag of a config field whose flag is not its lower-case name in kebab case
_FLAGS = {"L": "--pieces"}


def _add_config_options(p, cls, names=None) -> None:
    """Add an option for each field of the config dataclass `cls` (only those in
    `names` if given), with the field's name as dest and its type and default."""
    hints = get_type_hints(cls)
    for f in fields(cls):
        if names is None or f.name in names:
            flag = _FLAGS.get(f.name, "--" + f.name.lower().replace("_", "-"))
            kind = (get_args(hints[f.name]) or (hints[f.name],))[0]  # float | None -> float
            p.add_argument(flag, dest=f.name, type=kind, default=f.default)


def _config(cls, args):
    """The config dataclass `cls` built from the parsed options named after its fields."""
    return cls(**{f.name: getattr(args, f.name) for f in fields(cls)})


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nifa",
        description="Identifiable nonparametric Bayesian factor analysis",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a synthetic dataset")
    p.add_argument("--setting", choices=["1", "2", "3", "swiss", "clusters"], required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--truth-out", default=None)
    p.add_argument("--law", choices=["uniform", "beta"], default="uniform")
    p.add_argument("--spacing", type=float, default=10.0)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("pretrain", help="produce anchor columns and their variances")
    p.add_argument("--input", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--anchors", default=None, help="externally computed anchor matrix")
    _add_config_options(p, Hyperparameters, ["L"])
    _add_config_options(p, pretrain.DiffusionConfig)
    p.set_defaults(func=_cmd_pretrain)

    p = sub.add_parser("fit", help="run the posterior sampler")
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--anchor-dir", required=True, help="written by `nifa pretrain`")
    p.add_argument("--h-factors", type=int, default=None)
    p.add_argument("--assignment", default=None, help="comma-separated k_h values")
    _add_config_options(p, Hyperparameters)
    p.add_argument("--chains", type=int, default=1)
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("postprocess", help="align a run and write summaries")
    p.add_argument("run_dir")
    p.set_defaults(func=_cmd_postprocess)

    p = sub.add_parser("generate", help="draw posterior-predictive rows")
    p.add_argument("run_dir")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--drop-anchors", action="store_true",
                   help="omit the anchor columns prepended during fitting")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("evaluate", help="sliced Wasserstein distance between files")
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.add_argument("--reference", default=None, help="third file for the floor estimate")
    p.add_argument("--projections", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_evaluate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    # LinAlgError and DegenerateLoadingError subclass ValueError: catch them first
    except (np.linalg.LinAlgError, postprocess.DegenerateLoadingError, RuntimeError,
            FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1
    except (UsageError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
