"""End-to-end benchmark of the nifa CLI pipeline.

    python3 perfbench/run.py --workload mix-n400 --seed 1 --seconds 50 --trace 0

Run from the repository root. Each run simulates its inputs from --seed, then
runs simulate -> pretrain -> fit -> postprocess -> generate -> evaluate
through the real CLI, one subprocess per stage, and checks the outputs.

--trace 0 repeats the untraced pipeline while --seconds allow (at least twice)
and reports the end-to-end metrics as medians over the repetitions.
--trace 1 runs the untraced pipeline once and then the same stages again, each
calling `nifa.cli.main` in-process under traced_stage.py with spans recorded
around every public function of the program's modules, and reports the
per-layer metrics.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. Per-run records (machine,
checks, spans) are written under `.perfbench/` in the repository root.
See perfbench/README.md for the metric definitions and the layer map.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

import ess
from spans import BLOCKS, RUN_CHAIN, STATE_BUILD, Tracer, layer_table

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

SETUP_REPEATS = 3
STAGE_TIMEOUT_S = 150
MIN_UNTRACED_REPS = 2  # the determinism check compares two of them
# a pretrain shorter than LIGHT_STAGE_S is mostly interpreter start-up, whose
# run-to-run jitter needs more samples: time it up to PRETRAIN_REPEATS times
LIGHT_STAGE_S = 2.0
PRETRAIN_REPEATS = 3
MAX_MEAN_CHANGE = 1e-8  # criterion-4 tolerance on the model-mean change
EXPECTED_K = 2
U_GRID = np.array([0.1, 0.3, 0.5, 0.7, 0.9])
HELDOUT_N = 2000  # rows in the held-out and in the reference set
DRAWS_N = 2000  # posterior-predictive rows drawn by `generate`
PROJECTIONS = 200  # sliced-Wasserstein directions in `evaluate`
COMMANDS = ("pretrain", "fit", "postprocess", "generate", "evaluate")


@dataclass(frozen=True)
class Workload:
    n: int
    chains: int
    iterations: int
    burn_in: int
    thin: int

    @property
    def sweeps(self) -> int:
        return self.iterations * self.chains


# Setting 3 data, epsilon_dm 0.5, dimension offset 1 (K=2), H=4, L=20 throughout.
# A third, I/O-bound workload (N=200, thin 1, 600 draws) was left out: on a
# shared virtual disk its stage times spread 25-30% from run to run.
WORKLOADS = {
    # fixed per-sweep cost dominates; two chains show chain-level parallelism
    "mix-n400": Workload(n=400, chains=2, iterations=600, burn_in=200, thin=10),
    # growth in N: dense pretraining eigensolve and the N x K MALA proposal
    "scale-n3200": Workload(n=3200, chains=1, iterations=200, burn_in=100, thin=1),
}


class StageFailed(RuntimeError):
    pass


class Checks:
    """Pass/fail record of every stage and correctness check."""

    def __init__(self):
        self.results: list[dict] = []

    def add(self, name: str, ok: bool, detail: str = "") -> bool:
        self.results.append({"check": name, "ok": bool(ok), "detail": detail})
        if not ok:
            print(f"FAILED {name}: {detail}", file=sys.stderr)
        return bool(ok)

    @property
    def attempted(self) -> int:
        return len(self.results)

    @property
    def failed(self) -> int:
        return sum(not r["ok"] for r in self.results)


THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def _nifa_env() -> dict:
    """Stage environment: `src` on the path and, unless the caller set them,
    one BLAS/OpenMP thread. Multi-threaded BLAS on the sampler's small matrices
    is slower here and its spin-waits make stage times swing with machine load."""
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=f"{SRC}{os.pathsep}{path}" if path else str(SRC))
    for var in THREAD_VARS:
        env.setdefault(var, "1")
    return env


class StageRunner:
    """Runs one CLI stage per subprocess; records wall time and peak RSS.

    With a run id, each stage runs under traced_stage.py, which calls
    `nifa.cli.main` in-process with spans recorded, and the spans are collected.
    """

    def __init__(self, run_id: str | None = None):
        self.peak_rss_mb = 0.0
        self.tracer = Tracer(run_id) if run_id else None
        self.block_seconds: list[list[float]] = []
        self.round_trip_ok: list[bool] = []

    def __call__(self, argv: list[str], log: Path):
        spans = log.with_suffix(".spans.json")
        if self.tracer is None:
            cmd = [sys.executable, "-m", "nifa.cli", *argv]
        else:
            cmd = [sys.executable, str(HERE / "traced_stage.py"), str(spans),
                   self.tracer.run_id, *argv]
        with open(log, "w") as out:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=subprocess.STDOUT, env=_nifa_env())
            timer = threading.Timer(STAGE_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_mb = max(self.peak_rss_mb, usage.ru_maxrss / 1024.0)
        if self.tracer is not None and spans.exists():
            record = json.loads(spans.read_text())
            # perf_counter is system-wide monotonic, so the child's reading compares
            wall = record["main_end"] - start
            # the stage's wall time as this process saw it, parent of the stage's spans
            self.tracer.spans.append([self.tracer.name_id(f"stage.{argv[0]}"), start,
                                      start + wall, -1, self.tracer.run_id])
            self.tracer.absorb(record, root_parent=len(self.tracer.spans) - 1)
            self.block_seconds += record["block_seconds"]
            self.round_trip_ok += record["round_trip_ok"]
        return proc.returncode, wall, log.read_text()


def _seeds(seed: int) -> dict[str, int]:
    names = ("train", "heldout", "reference", "fit", "generate", "evaluate")
    values = np.random.SeedSequence(seed).generate_state(len(names)) % (2**31)
    return {k: int(v) for k, v in zip(names, values)}


def _stage(runner, checks: Checks, name: str, argv: list, log_dir: Path):
    argv = [str(a) for a in argv]
    code, wall, text = runner(argv, log_dir / f"{name}.log")
    if not checks.add(f"stage {name} exits 0", code == 0, f"exit {code}: {text[-500:]}"):
        raise StageFailed(name)
    return wall, text


def setup(runner, checks: Checks, wl: Workload, seeds: dict, out: Path) -> float:
    out.mkdir(parents=True)
    start = time.perf_counter()
    for name, n in (("train", wl.n), ("heldout", HELDOUT_N), ("reference", HELDOUT_N)):
        _stage(runner, checks, f"simulate-{name}", ["simulate", "--setting", "3", "--n", n,
                                                    "--seed", seeds[name],
                                                    "--out", out / f"{name}.csv"], out)
    return time.perf_counter() - start


def warm_up(runner, checks: Checks, out: Path) -> None:
    """Untimed small simulate + pretrain. The first `pretrain` process of a run
    is often up to twice as slow as the next ones; this one absorbs that."""
    out.mkdir(parents=True)
    _stage(runner, checks, "warm-up-simulate", ["simulate", "--setting", "3", "--n", 200,
                                                "--seed", 0, "--out", out / "warm.csv"], out)
    _stage(runner, checks, "warm-up-pretrain", ["pretrain", "--input", out / "warm.csv",
                                                "--out-dir", out / "anchors"], out)


def chain_dirs(wl: Workload, run: Path) -> list[Path]:
    return [run] if wl.chains == 1 else [run / f"chain_{c}" for c in range(wl.chains)]


def pipeline(runner, checks: Checks, wl: Workload, seeds: dict, data: Path, out: Path,
             pretrain_repeats: int = 1) -> dict:
    """pretrain -> fit -> postprocess -> generate -> evaluate; returns walls and outputs.

    ``wall["pipeline"]`` is the sum of the stages' wall times, with the median
    of the pretrain repeats.
    """
    out.mkdir(parents=True)
    anchors, run, draws = out / "anchors", out / "run", out / "draws.csv"
    dirs = chain_dirs(wl, run)
    wall = {"postprocess": 0.0, "pretrain_all": []}
    while len(wall["pretrain_all"]) < pretrain_repeats:
        w, pre_out = _stage(runner, checks, "pretrain", [
            "pretrain", "--input", data / "train.csv", "--out-dir", anchors,
            "--epsilon-dm", 0.5, "--dimension-offset", 1, "--pieces", 20], out)
        wall["pretrain_all"].append(w)
        if w > LIGHT_STAGE_S:
            break
    wall["pretrain"] = statistics.median(wall["pretrain_all"])
    wall["fit"], fit_out = _stage(runner, checks, "fit", [
        "fit", "--input", data / "train.csv", "--anchor-dir", anchors, "--out", run,
        "--h-factors", 4, "--pieces", 20, "--iterations", wl.iterations,
        "--burn-in", wl.burn_in, "--thin", wl.thin, "--seed", seeds["fit"],
        "--chains", wl.chains], out)
    for c, d in enumerate(dirs):
        w, _ = _stage(runner, checks, f"postprocess-{c}", ["postprocess", d], out)
        wall["postprocess"] += w
    wall["generate"], _ = _stage(runner, checks, "generate", [
        "generate", dirs[0], "--n", DRAWS_N, "--seed", seeds["generate"],
        "--out", draws, "--drop-anchors"], out)
    wall["evaluate"], eval_out = _stage(runner, checks, "evaluate", [
        "evaluate", draws, data / "heldout.csv", "--reference", data / "reference.csv",
        "--projections", PROJECTIONS, "--seed", seeds["evaluate"]], out)
    wall["pipeline"] = sum(wall[c] for c in COMMANDS)

    k = re.search(r"selected K=(\d+)", pre_out)
    checks.add("pretrain selects K=2", k is not None and int(k.group(1)) == EXPECTED_K,
               k.group(0) if k else pre_out[-200:])
    for d in dirs:
        change = json.loads((d / "summaries" / "alignment_report.json").read_text())["max_mean_change"]
        checks.add(f"{d.name} alignment keeps the model mean", change <= MAX_MEAN_CHANGE,
                   f"max_mean_change {change:.3e}")
    sw = re.search(r"sliced Wasserstein distance: (\S+)", eval_out)
    floor = re.search(r"reference floor[^:]*: (\S+)", eval_out)
    accept = [float(a) for a in re.findall(r"MALA acceptance ([0-9.eE+-]+)", fit_out)]
    return {"wall": wall, "dirs": dirs, "run": run, "outputs": [anchors, run, draws],
            "sw": float(sw.group(1)), "sw_floor": float(floor.group(1)),
            "mala_accept": float(np.mean(accept))}


def chain_diagnostics(dirs: list[Path]) -> dict:
    """Bulk ESS per chain (minimum over chains) and split-R-hat across chains.

    Quantities: log posterior, aligned loadings [0, 0] and [1, 1], every
    aligned mapping on a 5-point u-grid, and latent location u[0, 0].
    """
    from nifa.runio import load_chain

    per_quantity: dict[str, list] = {}
    for d in dirs:
        chain = load_chain(d / "aligned")
        rows = {
            "log_posterior": chain.diagnostics.log_posterior_trace,
            "loading_0_0": [s.loadings[0, 0] for s in chain.samples],
            "loading_1_1": [s.loadings[1, 1] for s in chain.samples],
            "u_0_0": [s.latent_locations[0, 0] for s in chain.samples],
        }
        grid = np.array([[g(U_GRID) for g in s.splines] for s in chain.samples])
        for h in range(grid.shape[1]):
            for j, u in enumerate(U_GRID):
                rows[f"mapping_{h}_at_{u:g}"] = grid[:, h, j]
        for name, values in rows.items():
            per_quantity.setdefault(name, []).append(np.asarray(values, dtype=float))
    draws = {name: np.vstack(v) for name, v in per_quantity.items()}
    bulk = {name: min(ess.bulk_ess(row) for row in x) for name, x in draws.items()}
    return {
        "ess_min": min(bulk.values()),
        "ess_min_quantity": min(bulk, key=bulk.get),
        "ess_logpost": bulk["log_posterior"],
        "tail_ess_min": min(min(ess.tail_ess(row) for row in x) for x in draws.values()),
        "rhat_max": max(ess.split_rhat(x) for x in draws.values()),
        "draws_per_chain": int(draws["log_posterior"].shape[1]),
    }


def tree_size(paths: list[Path]) -> tuple[int, int]:
    files = [f for p in paths for f in ([p] if p.is_file() else p.rglob("*")) if f.is_file()]
    return len(files), sum(f.stat().st_size for f in files)


def source_digest(files: list[Path], extra: str = "") -> str:
    digest = hashlib.sha256(extra.encode())
    for f in files:
        digest.update(f.read_bytes())
    return digest.hexdigest()


def machine() -> dict:
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = "unknown"
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "stage_thread_env": {k: _nifa_env()[k] for k in THREAD_VARS},
        "git_commit": commit,
        "program_sha256": source_digest(sorted((SRC / "nifa").rglob("*.py"))),
    }


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def end_to_end(wl: Workload, checks: Checks, work: Path, seeds: dict, seconds: float) -> dict:
    runner = StageRunner()
    setup_s = [setup(runner, checks, wl, seeds, work / f"data{i}") for i in range(SETUP_REPEATS)]
    data = work / "data0"
    warm_up(runner, checks, work / "warm-up")
    reps, start = [], time.perf_counter()
    while len(reps) < MIN_UNTRACED_REPS or (
            time.perf_counter() - start + reps[-1]["wall"]["pipeline"] <= seconds):
        reps.append(pipeline(runner, checks, wl, seeds, data, work / f"rep{len(reps)}",
                             PRETRAIN_REPEATS))
    for a, b in zip(reps[0]["dirs"], reps[1]["dirs"]):
        same = (a / "log_posterior.csv").read_bytes() == (b / "log_posterior.csv").read_bytes()
        checks.add(f"{a.name} seeded rerun gives identical log_posterior.csv", same)

    def med(key):
        return statistics.median(r["wall"][key] for r in reps)

    fit_s = med("fit")
    post_s = statistics.median(
        r["wall"]["postprocess"] + r["wall"]["generate"] + r["wall"]["evaluate"] for r in reps)
    _, run_bytes = tree_size([reps[0]["run"]])
    metrics = {
        "setup_s": metric(statistics.median(setup_s), "s"),
        "pipeline_s": metric(med("pipeline"), "s"),
        "pretrain_s": metric(statistics.median(w for r in reps for w in r["wall"]["pretrain_all"]),
                             "s"),
        "fit_s": metric(fit_s, "s"),
        "post_s": metric(post_s, "s"),
        "sweeps_per_s": metric(wl.sweeps / fit_s, "1/s"),
        "peak_rss_mb": metric(runner.peak_rss_mb, "MB"),
        "run_dir_mb": metric(run_bytes / 2**20, "MB"),
    }
    details = {"reps": [r["wall"] for r in reps], "setup_s": setup_s,
               "sw": reps[0]["sw"], "sw_floor": reps[0]["sw_floor"]}
    return metrics, details


TIMED = {
    "pretrain": ("kernel_matrix", "diffusion_spectrum", "mean_local_eigenvalues",
                 "default_epsilon_dm", "default_epsilon_local", "anchor_residual_variance"),
    "sampler": BLOCKS + ("spline_posterior", "log_joint", "initial_state", "run_chain"),
    "model": ("factor_matrix",),
    "postprocess": ("match_align", "orthogonalize_partition", "normalize_columns", "summarize"),
    "runio": ("save_chain", "load_chain"),
}
# counts that depend only on the workload, so they must repeat exactly
EXACT_COUNTS = ("model.state_builds_per_sweep", "runio.files_written")


def per_layer(wl: Workload, checks: Checks, work: Path, seeds: dict, run_id: str):
    runner = StageRunner()
    data = work / "data"
    setup(runner, checks, wl, seeds, data)
    warm_up(runner, checks, work / "warm-up")
    untraced = pipeline(runner, checks, wl, seeds, data, work / "untraced")
    traced_runner = StageRunner(run_id)
    traced = pipeline(traced_runner, checks, wl, seeds, data, work / "traced")
    tracer = traced_runner.tracer
    table = layer_table(tracer)
    empty = {"calls": 0, "s": 0.0, "self_s": 0.0, "p50_ms": 0.0, "p99_ms": 0.0,
             "calls_in_chain": 0, "s_in_chain": 0.0, "block_s": 0.0}

    def row(key):
        return table.get(key, empty)

    m = {}
    for module, fns in TIMED.items():
        for fn in fns:
            m[f"{module}.{fn}.s"] = metric(row(f"{module}.{fn}")["s"], "s")
            m[f"{module}.{fn}.calls"] = metric(row(f"{module}.{fn}")["calls"], "count")
    for fn in BLOCKS:
        m[f"sampler.{fn}.p50_ms"] = metric(row(f"sampler.{fn}")["p50_ms"], "ms")
        m[f"sampler.{fn}.p99_ms"] = metric(row(f"sampler.{fn}")["p99_ms"], "ms")
    m["sampler.run_chain.self_s"] = metric(row(RUN_CHAIN)["self_s"], "s")

    diag = chain_diagnostics(traced["dirs"])
    m["sampler.mala_accept"] = metric(traced["mala_accept"], "ratio")
    m["sampler.ess_logpost"] = metric(diag["ess_logpost"], "count")
    m["sampler.ess_min"] = metric(diag["ess_min"], "count")
    m["sampler.rhat_max"] = metric(diag["rhat_max"], "ratio")
    m["sampler.ess_per_s"] = metric(diag["ess_min"] / untraced["wall"]["fit"], "1/s")
    m["sampler.ess_per_s_logpost"] = metric(diag["ess_logpost"] / untraced["wall"]["fit"], "1/s")
    m["model.state_builds_per_sweep"] = metric(row(STATE_BUILD)["calls_in_chain"] / wl.sweeps,
                                               "count")
    m["model.state_build_s"] = metric(row(STATE_BUILD)["s_in_chain"], "s")

    ties = sum(len(json.loads((d / "summaries" / "alignment_report.json").read_text())["ties"])
               for d in traced["dirs"])
    m["postprocess.ties"] = metric(ties, "count")
    for fn in ("save_matrix", "load_matrix"):
        m[f"runio.{fn}.calls"] = metric(row(f"runio.{fn}")["calls"], "count")
    files, size = tree_size(traced["outputs"])
    m["runio.files_written"] = metric(files, "count")
    m["runio.bytes_written"] = metric(size, "B")
    for key in ("simulate.posterior_predictive_array", "metrics.sliced_wasserstein_details"):
        m[f"{key}.s"] = metric(row(key)["s"], "s")
    m["metrics.sw_ratio"] = metric(untraced["sw"] / untraced["sw_floor"], "ratio")
    # stage wall time minus the spans it spent in the program's functions:
    # interpreter start-up, imports and code outside the traced functions
    for c in COMMANDS:
        m[f"cli.{c}.self_s"] = metric(row(f"stage.{c}")["self_s"] + row(f"cli.{c}")["self_s"], "s")
    m["cli.fit.chain_parallelism"] = metric(row(RUN_CHAIN)["s"] / row("stage.fit")["s"], "ratio")
    overhead = traced["wall"]["pipeline"] / untraced["wall"]["pipeline"] - 1.0  # stage sums
    m["trace.overhead_frac"] = metric(overhead, "ratio")

    block_seconds = np.sum(traced_runner.block_seconds, axis=0)
    span_seconds = np.array([row(f"sampler.{fn}")["block_s"] for fn in BLOCKS])
    gap = np.abs(span_seconds - block_seconds) / np.maximum(block_seconds, 1e-9)
    m["trace.block_gap_frac"] = metric(float(gap.max()), "ratio")
    for c, ok in enumerate(traced_runner.round_trip_ok):
        checks.add(f"chain {c} load_chain(save_chain(chain)) round-trips exactly", ok)

    counts = {k: v["value"] for k, v in m.items()
              if k.endswith(".calls") or k in EXACT_COUNTS}
    details = {"block_seconds": block_seconds.tolist(), "block_span_seconds": span_seconds.tolist(),
               "untraced_wall": untraced["wall"], "traced_wall": traced["wall"], "chains": diag,
               "counts": counts}
    return m, details, tracer, table


def check_counts_repeat(checks: Checks, name: str, wl: Workload, counts: dict) -> None:
    """Exact counts must equal those of every earlier traced run of the same
    program, benchmark code and workload."""
    files = sorted((SRC / "nifa").rglob("*.py")) + sorted(HERE.glob("*.py"))
    digest = source_digest(files, json.dumps(asdict(wl)))
    record = OUT / f"counts-{name}-{digest[:16]}.json"
    if record.exists():
        before = json.loads(record.read_text())
        diff = {k: (before.get(k), v) for k, v in counts.items() if before.get(k) != v}
        checks.add("exact counts repeat across traced runs", not diff, json.dumps(diff)[:500])
    else:
        record.write_text(json.dumps(counts, indent=1, sort_keys=True))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "nifa" / "cli.py").is_file():
        print(f"error: the nifa sources are missing under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    wl = WORKLOADS[args.workload]
    seeds = _seeds(args.seed)
    checks = Checks()
    failures = ess.self_check(np.random.default_rng(args.seed))
    checks.add("ESS and split-R-hat match AR(1) chains", not failures, "; ".join(failures))

    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    info = machine()
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "config": asdict(wl), "seeds": seeds, "machine": info}
    metrics: dict = {}
    try:
        if args.trace:
            metrics, record["details"], tracer, table = per_layer(
                wl, checks, work, seeds, f"{args.workload}-seed{args.seed}")
            check_counts_repeat(checks, args.workload, wl, record["details"]["counts"])
            trace_path = OUT / f"trace-{tag}.json"
            trace_path.write_text(json.dumps({"run": tracer.run_id, "layers": table,
                                              "metrics": metrics, **tracer.to_json()}))
            record["trace_file"] = str(trace_path.relative_to(ROOT))
        else:
            metrics, record["details"] = end_to_end(wl, checks, work, seeds, args.seconds)
            metrics["passed_frac"] = metric(1 - checks.failed / checks.attempted, "ratio")
    except StageFailed as exc:
        record["stage_failed"] = str(exc)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    record["checks"] = checks.results
    record["metrics"] = metrics
    (OUT / f"result-{tag}.json").write_text(json.dumps(record, indent=1, default=str))
    for key, val in metrics.items():
        print(f"{key:45s} {val['value']:.6g} {val['unit']}")
    print(json.dumps({"machine": info}))
    correct = checks.failed == 0 and "stage_failed" not in record
    print(json.dumps({"correct": correct, "attempted": checks.attempted,
                      "failed": checks.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
