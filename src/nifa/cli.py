"""Batch command-line surface: simulate, pretrain, fit, postprocess, generate,
evaluate. Exit codes: 0 success, 1 numerical failure, 2 usage/input error."""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

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
        anchor = pretrain.anchors_from_external(coords, args.pieces)
        runio.save_anchor_set(out_dir, anchor, {"pieces": args.pieces})
        print(f"external anchors: K={anchor.n_anchors}")
        print("residual variances:", np.array2string(anchor.residual_variances))
        return 0
    cfg = pretrain.DiffusionConfig(
        epsilon_dm=args.epsilon_dm,
        Q=args.q,
        epsilon_local=args.epsilon_local,
        delta=args.delta,
        dimension_offset=args.dimension_offset,
    )
    anchor, decisions = pretrain.pretrain_with_decisions(data, cfg, args.pieces)
    runio.save_anchor_set(out_dir, anchor, {"pieces": args.pieces, **decisions})
    print(f"selected K={anchor.n_anchors}")
    print("mean local eigenvalues and successor ratios:")
    ratios = np.append(decisions["eigenvalue_ratios"], np.nan)
    for m, (lam, ratio) in enumerate(zip(decisions["mean_local_eigenvalues"], ratios)):
        print(f"  rank {m + 1}: {lam:.6g}  ratio-to-next {ratio:.4f}")
    return 0


def _cmd_fit(args) -> int:
    data = _load_data(args.input)
    if args.anchor_dir:
        anchor = runio.load_anchor_set(args.anchor_dir)
    else:
        cfg = pretrain.DiffusionConfig(dimension_offset=args.dimension_offset)
        anchor = pretrain.run_pretraining(data, cfg, args.pieces)
    k = anchor.n_anchors
    h = args.h_factors if args.h_factors is not None else k
    if args.assignment:
        assignment = FactorAssignment(
            np.array([int(x) for x in args.assignment.split(",")])
        )
        if assignment.n_locations != k:
            raise UsageError("assignment K does not match the anchor count")
    else:
        assignment = FactorAssignment.round_robin(h, k)
    hp = Hyperparameters(
        nu=args.nu,
        sigma_a_sq=args.sigma_a_sq,
        a_sigma=args.a_sigma,
        b_sigma=args.b_sigma,
        L=args.pieces,
        mala_step=args.mala_step,
        iterations=args.iterations,
        burn_in=args.burn_in,
        thin=args.thin,
        seed=args.seed,
    )
    augmented = DataMatrix(np.hstack([anchor.coordinates, data.values]))
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for c in range(args.chains):
        hp_c = hp if args.chains == 1 else replace(hp, seed=hp.seed + c)
        chain = sampler.run_chain(augmented, anchor, hp_c, assignment)
        chain_dir = out_dir if args.chains == 1 else out_dir / f"chain_{c}"
        runio.save_chain(chain_dir, chain)
        rate = chain.diagnostics.mala_acceptance_rate
        print(
            f"chain {c}: {len(chain)} retained samples, "
            f"MALA acceptance {rate:.3f}, written to {chain_dir}"
        )
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
    p.add_argument("--pieces", type=int, default=20)
    p.add_argument("--epsilon-dm", type=float, default=None)
    p.add_argument("--q", type=int, default=5)
    p.add_argument("--epsilon-local", type=float, default=None)
    p.add_argument("--delta", type=float, default=0.5)
    p.add_argument("--dimension-offset", type=int, default=0)
    p.set_defaults(func=_cmd_pretrain)

    p = sub.add_parser("fit", help="run the posterior sampler")
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--anchor-dir", default=None)
    p.add_argument("--dimension-offset", type=int, default=0,
                   help="used only when pretraining inline")
    p.add_argument("--h-factors", type=int, default=None)
    p.add_argument("--assignment", default=None, help="comma-separated k_h values")
    p.add_argument("--nu", type=float, default=1e3)
    p.add_argument("--sigma-a-sq", type=float, default=1.0)
    p.add_argument("--a-sigma", type=float, default=100.0)
    p.add_argument("--b-sigma", type=float, default=1.0)
    p.add_argument("--pieces", type=int, default=20)
    p.add_argument("--mala-step", type=float, default=1e-4)
    p.add_argument("--iterations", type=int, default=10_000)
    p.add_argument("--burn-in", type=int, default=5_000)
    p.add_argument("--thin", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
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
