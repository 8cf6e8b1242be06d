"""regimevol benchmark: seeded fit workloads, timed end to end, checked.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the repository root.  For each workload the benchmark writes seeded
data sets under .bench_work/ and runs whole fits of them, one after another,
each in a fresh single-threaded interpreter (BLAS/OpenMP threads pinned to 1).
A run makes as many fits as S seconds hold at the reference speed recorded
in workloads.py, three at least, and reports statistics over its fits: the
slowest fit for fit_s and sweeps_per_s, medians for the rest.

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced and
traced fits and prints the per-layer metrics, the ESS diagnostics and the
tracing overhead.  The last line of output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  README.md names every metric.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

_HERE = Path(__file__).resolve().parent
_ROOT = _HERE.parent
_SRC = _ROOT / "src"
_WORK = _ROOT / ".bench_work"
_RECORDED = _HERE / "recorded.json"

HARD_LIMIT_S = 170.0  # the whole run, set-up of inputs included
PINNED_THREADS = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
    )
}

END_TO_END = {  # name -> unit
    "setup_s": "s",
    "fit_s": "s",
    "sweeps_per_s": "1/s",
    "sweep_ms_p90": "ms",
    "peak_rss_mb": "MB",
}

_JUMP_ACCEPT = ["sigma1_sq", "h_star_2", "h_star_3", "h_star_4",
                "theta_1", "theta_2", "theta_3", "theta_4"]
_STABLE_ACCEPT = ["lambda", "h_star_2", "h_star_3", "h_star_4"]
PER_LAYER = {  # name -> unit
    "regime.filter_ms": "ms",
    "regime.filter_ns_per_step": "ns",
    "regime.path_ms": "ms",
    "regime.path_ns_per_step": "ns",
    "regime.transition_ms": "ms",
    "regime.degeneracy_errors": "count",
    "distributions.conv_calls": "count",
    "distributions.conv_obs": "count",
    "distributions.conv_ms": "ms",
    "distributions.conv_ns_per_obs": "ns",
    "distributions.conv_gl_ops": "count",
    "distributions.stable_logpdf_calls": "count",
    "distributions.stable_logpdf_ms": "ms",
    "jump_model.emission_ms": "ms",
    "jump_model.jump_count_ms": "ms",
    "jump_model.jump_count_terms": "count",
    "jump_model.mh_ms": "ms",
    **{f"jump_model.accept.{p}": "frac" for p in _JUMP_ACCEPT},
    "stable_model.emission_ms": "ms",
    "stable_model.lambda_ms": "ms",
    "stable_model.updates_ms": "ms",
    **{f"stable_model.accept.{p}": "frac" for p in _STABLE_ACCEPT},
    "mcmc.sweep_overhead_ms": "ms",
    "mcmc.draws_mb": "MB",
    "mcmc.summary_ms": "ms",
    "mcmc.ess_min": "count",
    "mcmc.ess_per_s": "1/s",
    "mcmc.ess_tail_min": "count",
    "mcmc.rhat_max": "ratio",
    "dataio.load_ms": "ms",
    "dataio.rows_per_s": "1/s",
    "dataio.align_ms": "ms",
    "config.ms": "ms",
    "analysis.ms": "ms",
    "trace.overhead_pct": "%",
}


def environment() -> dict:
    import scipy

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=_ROOT, capture_output=True, text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": PINNED_THREADS,
        # with numba present the regime kernels take another code path
        "numba_importable": importlib.util.find_spec("numba") is not None,
    }


def _run_fit(workload, workdir: Path, index: int, trace: int, deadline: float) -> tuple[dict, float]:
    result_path = workdir / f"fit{index}.json"
    result_path.unlink(missing_ok=True)
    env = {**os.environ, **PINNED_THREADS, "PYTHONPATH": str(_SRC)}
    cmd = [sys.executable, str(_HERE / "fit.py"), str(workdir), str(result_path),
           "--chains", str(workload.chains), "--trace", str(trace)]
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                            text=True)
    try:
        _, stderr = proc.communicate(timeout=max(deadline - spawned, 1.0))
    except subprocess.TimeoutExpired:
        stderr = "fit timed out"
    finally:  # also on SIGTERM (see main): no fit outlives the run
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    wall = time.monotonic() - spawned
    if not result_path.exists():
        return {"ok": False, "error": f"fit exited {proc.returncode}: {stderr[-2000:]}"}, wall
    result = json.loads(result_path.read_text())
    if result.get("ok"):
        result["setup_s"] = result["first_sweep_mono"] - spawned
    return result, wall


def _fit_failures(fit: dict) -> list[str]:
    """Why a fit counts as failed: it raised, or a draw broke an invariant."""
    if not fit.get("ok"):
        return ["raised"]
    return list(fit["invariant_failures"][:1])


def run_workload(name: str, seed: int, seconds: float, trace: int, env: dict) -> dict:
    """Fit data sets 0, 1, ... of this seed, one fresh process per fit.

    Untraced, every fit has its own data set, so the run's statistics
    cover data sets as well as machine noise.  Traced, fits come in pairs on
    one data set, untraced then traced: the pair must draw the same chain,
    and the difference of their fit times is the tracing overhead.
    """
    import workloads

    workload = workloads.WORKLOADS[name]
    deadline = time.monotonic() + HARD_LIMIT_S
    n_fits = workload.n_fits(seconds)
    if trace:
        n_fits += n_fits % 2
    run_dir = _WORK / f"{name}-seed{seed}"
    shutil.rmtree(run_dir, ignore_errors=True)

    fits: list[dict] = []
    longest = 0.0
    for i in range(n_fits):
        if fits and time.monotonic() + longest > deadline:
            break
        dataset = i // 2 if trace else i
        workdir = run_dir / f"data{dataset}"
        if not workdir.exists():
            workloads.generate(workload, seed, dataset, workdir)
        traced = trace * (i % 2)
        fit, wall = _run_fit(workload, workdir, i, traced, deadline)
        fit.update(traced=traced, dataset=dataset, failures=_fit_failures(fit))
        fits.append(fit)
        longest = max(longest, wall)

    failed = sum(bool(f["failures"]) for f in fits)
    plain = [f for f in fits if f.get("ok") and not f["traced"]]
    report = {
        "workload": name, "seed": seed, "why": workload.why, "env": env, "fits": len(fits),
        "timed_fits": len(plain), "failed": failed, "checks": {"every_fit_passed": failed == 0},
        "errors": [f"data set {f['dataset']}: " + "; ".join(f["failures"])
                   + (f" ({f['error'].strip().splitlines()[-1]})" if f.get("error") else "")
                   for f in fits if f["failures"]],
    }
    if plain:
        sweeps = np.concatenate([f["sweep_s"] for f in plain])
        fit_s = [f["fit_s"] for f in plain]
        rates = [f["n_sweeps"] / f["sample_s"] for f in plain]
        # fit_s and sweeps_per_s come from the slowest fit: on a shared
        # machine the run's slowest fit is steadier from run to run than its
        # median (see README.md); the medians are printed beside them
        report["metrics"] = {
            "setup_s": statistics.median(f["setup_s"] for f in plain),
            "fit_s": max(fit_s),
            "sweeps_per_s": min(rates),
            "sweep_ms_p90": 1e3 * float(np.percentile(sweeps, 90)),
            "peak_rss_mb": statistics.median(f["peak_rss_mb"] for f in plain),
        }
        report["medians"] = {"fit_s": statistics.median(fit_s), "sweeps_per_s": statistics.median(rates)}
        report["sweep_samples"] = int(sweeps.size)
        report["ess_min"] = statistics.median(f["ess_min"] for f in plain)
        report["ess_per_s"] = statistics.median(f["ess_min"] / f["sample_s"] for f in plain)
        # recovery is checked on the run's medians: a single short fit can
        # still sit in a poor mode without anything being wrong
        for key in ("state_accuracy", "indicator_r2"):
            report[key] = statistics.median(f[key] for f in plain)
        report["checks"]["state_accuracy"] = report["state_accuracy"] >= workload.min_state_accuracy
        report["checks"]["indicator_r2"] = report["indicator_r2"] >= workload.min_indicator_r2
        first = plain[0]
        report["kept_draws"] = first["kept_draws"]
        report["ess"] = first["ess"]
        report["draws_sha256"] = first["draws_sha256"]
        recorded = json.loads(_RECORDED.read_text()) if _RECORDED.exists() else {}
        if first["dataset"] == 0 and recorded.get("seed") == seed and name in recorded.get("draws_sha256", {}):
            report["matches_recorded_draws"] = recorded["draws_sha256"][name] == first["draws_sha256"]
    if trace:
        pairs = [(a, b) for a, b in zip(fits[::2], fits[1::2]) if a.get("ok") and b.get("ok")]
        report["checks"]["traced_draws_equal_untraced"] = bool(pairs) and all(
            a["draws_sha256"] == b["draws_sha256"] for a, b in pairs)
        if pairs:
            layers = {key: statistics.median(b["layers"].get(key, 0.0) for _, b in pairs)
                      for key in PER_LAYER}
            layers["mcmc.ess_min"] = report["ess_min"]
            layers["mcmc.ess_per_s"] = report["ess_per_s"]
            layers["mcmc.ess_tail_min"] = statistics.median(a["ess_tail_min"] for a, _ in pairs)
            layers["mcmc.rhat_max"] = statistics.median(a["rhat_max"] for a, _ in pairs)
            layers["trace.overhead_pct"] = statistics.median(
                100.0 * (b["fit_s"] - a["fit_s"]) / a["fit_s"] for a, b in pairs)
            report["layers"] = layers
    report["correct"] = all(report["checks"].values()) and (
        "layers" in report if trace else "metrics" in report)
    (run_dir / "report.json").write_text(json.dumps({**report, "fit_results": fits}, default=str))
    return report


def _print_report(report: dict, trace: int) -> None:
    print(f"== {report['workload']} (seed {report['seed']}): {report['why']}")
    print(f"fits: {report['fits']} attempted, {report['failed']} failed, "
          f"failed_frac {report['failed'] / report['fits']:.3f}")
    for err in report["errors"]:
        print(f"  failed fit, {err}")
    for name, value in report.get("metrics", {}).items():
        n = report["timed_fits"]
        note = {
            "sweep_ms_p90": f"p90 of {report['sweep_samples']} sweeps",
            "fit_s": f"slowest of {n} fits; median {report['medians']['fit_s']:.4f}",
            "sweeps_per_s": f"slowest of {n} fits; median {report['medians']['sweeps_per_s']:.4f}",
        }.get(name, f"median of {n} fits")
        print(f"{name:16s} {value:12.4f} {END_TO_END[name]}  ({note})")
    if "ess_min" in report:
        print(f"{'ess_min':16s} {report['ess_min']:12.4f} count  "
              f"(median over fits of {report['kept_draws']} kept draws each)")
        print(f"{'ess_per_s':16s} {report['ess_per_s']:12.4f} 1/s")
        print("bulk ESS, data set 0: "
              + ", ".join(f"{k} {v['bulk']:.1f}" for k, v in report["ess"].items()))
        print(f"median state accuracy {report['state_accuracy']:.3f}, indicator R^2 "
              f"{report['indicator_r2']:.3f}; data set 0 draws sha256 {report['draws_sha256'][:16]}"
              + (f", matches recorded: {report['matches_recorded_draws']}"
                 if "matches_recorded_draws" in report else ""))
    if trace and "layers" in report:
        for name, value in report["layers"].items():
            print(f"{name:36s} {value:14.4f} {PER_LAYER[name]}")
    print("checks: " + ", ".join(f"{k}={'ok' if v else 'FAIL'}" for k, v in report["checks"].items()))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # SystemExit unwinds through _run_fit, which then kills its fit
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (_SRC / "regimevol" / "__init__.py").is_file():
        print(f"error: package source {_SRC / 'regimevol'} not found; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(_SRC))
    sys.path.insert(1, str(_HERE))
    import workloads

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in workloads.WORKLOADS]
    if unknown:
        print(f"error: unknown workload {unknown[0]!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)} or all", file=sys.stderr)
        return 2
    env = environment()
    print("env: " + json.dumps(env))
    reports = [run_workload(n, args.seed, args.seconds, args.trace, env) for n in names]
    for report in reports:
        _print_report(report, args.trace)

    units = PER_LAYER if args.trace else END_TO_END
    metrics = {}
    for report in reports:
        values = report.get("layers" if args.trace else "metrics", {})
        prefix = "" if len(reports) == 1 else f"{report['workload']}."
        metrics.update({prefix + k: {"value": v, "unit": units[k]} for k, v in values.items()})
    print(json.dumps({
        "correct": all(r["correct"] for r in reports),
        "attempted": sum(r["fits"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "metrics": metrics,
    }, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
