"""One timed fit in a fresh interpreter; run.py starts it, once per fit.

    python3 perfbench/fit.py WORKDIR RESULT.json --trace 0|1

WORKDIR holds the generated prices.csv, reference.csv and config.json (see
workloads.py).  The pipeline is what a user runs: load_config ->
load_prices_csv / log_returns -> build_*_priors -> sampler + initial state ->
run_chain per chain -> chain_summary -> durations -> indicator on the mean
filtered probabilities -> load_reference_csv / align_series -> affine_align
-> score.  Set-up ends when the first sweep starts; the fit runs from there
through score.  Correctness checks, ESS and the draws hash are computed after
the fit and are not timed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import sys
import time
import traceback
from dataclasses import replace
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(_ROOT / "src"))
sys.path.insert(1, str(Path(__file__).resolve().parent))

import numpy as np  # noqa: E402

import regimevol as rv  # noqa: E402
import spans  # noqa: E402
from ess import ess_bulk, ess_tail, rhat  # noqa: E402

# Dispersed starts: chain c scales the initial persistence, and the
# lambda (stable) or sigma1^2 (jump) start, by these factors.
_START_DIAG = (0.8, 0.6, 0.9, 0.7)
_START_SCALE = (1.0, 4.0, 0.25, 2.0)


def _initial_state(cfg, data, priors, chain: int):
    diag = _START_DIAG[chain % len(_START_DIAG)]
    scale = _START_SCALE[chain % len(_START_SCALE)]
    if cfg.model == "jump":
        state = rv.initial_jump_state(data, priors, b=cfg.b, diag=diag)
        return replace(state, params=replace(state.params, sigma1_sq=state.params.sigma1_sq * scale))
    state = rv.initial_stable_state(data, priors, alpha=cfg.alpha, diag=diag)
    return replace(state, params=replace(state.params, lam=state.params.lam * scale))


def _timed(sweep, times: list[float], first: list[float]):
    """Per-sweep latency into ``times``; ``first`` gets the monotonic clock
    reading at the start of the fit's first sweep (set-up ends there)."""

    def timed_sweep(state, rng):
        t0 = time.perf_counter()
        if not first:
            first.append(time.monotonic())
        out = sweep(state, rng)
        times.append(time.perf_counter() - t0)
        return out

    return timed_sweep


def run_fit(workdir: Path, n_chains: int, tracer) -> dict:
    """The user-facing pipeline; returns everything the checks need."""
    with tracer.span("config"):
        cfg = rv.load_config(workdir / "config.json")
    with tracer.span("dataio.load") as counts:
        prices = rv.load_prices_csv(workdir / cfg.data)
        returns = rv.log_returns(prices)
        if counts is not None:
            counts["rows"] = len(prices)
    y = returns.values
    with tracer.span("config.priors"):
        if cfg.model == "jump":
            priors, sampler_cls = rv.build_jump_priors(cfg, y), rv.JumpGibbsSampler
        else:
            priors, sampler_cls = rv.build_stable_priors(cfg, y), rv.StableGibbsSampler
    samplers = [sampler_cls(y, priors, adapt_iters=cfg.burnin, step_scale=cfg.step_scale)
                for _ in range(n_chains)]
    inits = [_initial_state(cfg, y, priors, c) for c in range(n_chains)]

    sweep_s: list[float] = []
    first_sweep: list[float] = []
    chains = []
    sample_s = 0.0
    for c, (sampler, init) in enumerate(zip(samplers, inits)):
        tracer.run_id = c
        t0 = time.perf_counter()
        chains.append(rv.run_chain(
            _timed(sampler.sweep, sweep_s, first_sweep), init, cfg.iters, cfg.burnin,
            np.random.default_rng([cfg.seed, c]), acceptance=sampler.acceptance,
        ))
        sample_s += time.perf_counter() - t0
    tracer.run_id = -1
    with tracer.span("mcmc.summary"):
        summaries = [rv.chain_summary(ch) for ch in chains]
    with tracer.span("analysis"):
        mean = {name: float(np.mean([s[name].mean for s in summaries])) for name in summaries[0]}
        m = cfg.states
        transitions = [d.transition for ch in chains for d in ch.draws]
        durations = rv.durations_from_draws(transitions)
        durations_at_mean = rv.expected_durations(np.mean(transitions, axis=0))
        filtered = np.mean([s.mean_filtered_probs for s in samplers], axis=0)
        if cfg.model == "jump":
            indicator = rv.indicator_jump(
                filtered,
                np.array([mean[f"sigma_sq_{j}"] for j in range(1, m + 1)]),
                np.array([mean[f"n_jumps_{j}"] for j in range(1, m + 1)]),
                cfg.b,
            )
        else:
            indicator = rv.indicator_stable(
                filtered, mean["lambda"],
                np.array([mean[f"gamma_sq_{j}"] for j in range(1, m + 1)]),
            )
    with tracer.span("dataio.load") as counts:
        reference = rv.load_reference_csv(workdir / cfg.reference)
        if counts is not None:
            counts["rows"] = len(reference)
    with tracer.span("dataio.align"):
        _, ind_vals, ref_vals, dropped = rv.align_series(
            rv.DatedSeries(returns.dates, indicator.values), reference
        )
    with tracer.span("analysis"):
        aligned = rv.affine_align(rv.IndicatorSeries(ind_vals, indicator.kind), ref_vals)
        fit_score = rv.score(aligned, ref_vals)
    return {
        "cfg": cfg, "priors": priors, "samplers": samplers, "chains": chains,
        "sweep_s": sweep_s, "first_sweep": first_sweep[0], "sample_s": sample_s, "filtered": filtered,
        "score": fit_score, "ref_vals": ref_vals, "dropped": dropped,
        "durations": durations.durations.tolist(),
        "durations_at_mean": durations_at_mean.durations.tolist(),
    }


def _or_one(value: float) -> float:
    return value if math.isfinite(value) else 1.0


def slow_params(model: str, m: int) -> list[str]:
    first = "sigma_sq_1" if model == "jump" else "lambda"
    return [first] + [f"h_star_{j}" for j in range(2, m + 1)] + [f"p_{j}{j}" for j in range(1, m + 1)]


def draws_sha256(chains) -> str:
    h = hashlib.sha256()
    for ch in chains:
        for d in ch.draws:
            h.update(np.ascontiguousarray(d.path).tobytes())
            h.update(np.ascontiguousarray(d.transition).tobytes())
            h.update(np.array(list(d.params.to_param_dict().values()), dtype=float).tobytes())
    return h.hexdigest()


def draws_bytes(chains) -> int:
    """Computed bytes of the arrays the returned chains hold (object overhead excluded)."""
    total = 0
    for ch in chains:
        for d in ch.draws:
            total += d.path.nbytes + d.transition.nbytes
            total += sum(v.nbytes for v in vars(d.params).values() if isinstance(v, np.ndarray))
    return total


def invariant_failures(cfg, priors, chains) -> list[str]:
    """Per-draw invariants: rows sum to 1, h* > 1, theta inside its interval,
    labels in 1..M, every parameter finite."""
    m = cfg.states
    bad: list[str] = []
    for c, ch in enumerate(chains):
        for i, d in enumerate(ch.draws):
            p = d.transition
            where = f"chain {c} draw {i}"
            if np.any(p < 0) or not np.allclose(p.sum(axis=1), 1.0, atol=1e-9):
                bad.append(f"{where}: transition rows")
            if d.path.min() < 1 or d.path.max() > m:
                bad.append(f"{where}: labels outside 1..{m}")
            if not np.all(d.params.h_star > 1.0):
                bad.append(f"{where}: h* <= 1")
            if not all(math.isfinite(v) for v in d.params.to_param_dict().values()):
                bad.append(f"{where}: non-finite parameter")
            if cfg.model == "jump":
                for j in range(1, m + 1):
                    lo, hi = priors.theta_interval(j)
                    if not lo < d.params.theta[j - 1] <= hi:
                        bad.append(f"{where}: theta_{j} outside ({lo}, {hi}]")
            elif d.params.lam < priors.lambda_floor:
                bad.append(f"{where}: lambda below its floor")
            if len(bad) >= 5:
                return bad
    return bad


def layer_metrics(tracer, model: str, t_len: int, n_sweeps: int, acceptance: dict,
                  draws_mb: float) -> dict[str, float]:
    tot = tracer.totals()

    def ms(name, key="total_ns"):
        return tot.get(name, {}).get(key, 0) / 1e6

    def per_sweep(*names):
        return sum(ms(n) for n in names) / n_sweeps

    def calls(name):
        return tot.get(name, {}).get("calls", 0)

    filt_calls = calls("regime.filter")
    path_calls = calls("regime.path")
    conv = tot.get("distributions.conv", {})
    conv_obs = conv.get("obs", 0)
    count_calls = calls("jump_model.jump_count_weights")
    rows = tot.get("dataio.load", {}).get("rows", 0)
    out = {
        "regime.filter_ms": per_sweep("regime.filter"),
        "regime.filter_ns_per_step": 1e6 * ms("regime.filter") / (filt_calls * t_len) if filt_calls else 0.0,
        "regime.path_ms": per_sweep("regime.path"),
        "regime.path_ns_per_step": 1e6 * ms("regime.path") / (path_calls * t_len) if path_calls else 0.0,
        "regime.transition_ms": per_sweep("regime.transition"),
        "regime.degeneracy_errors": sum(
            tot.get(n, {}).get("error=FilterDegeneracyError", 0) for n in ("regime.filter", "regime.path")
        ),
        "distributions.conv_calls": conv.get("calls", 0) / n_sweeps,
        "distributions.conv_obs": conv_obs / n_sweeps,
        "distributions.conv_ms": per_sweep("distributions.conv"),
        "distributions.conv_ns_per_obs": 1e6 * ms("distributions.conv") / conv_obs if conv_obs else 0.0,
        "distributions.conv_gl_ops": conv.get("gl_ops", 0) / n_sweeps,
        "distributions.stable_logpdf_calls": calls("distributions.stable_logpdf") / n_sweeps,
        "distributions.stable_logpdf_ms": per_sweep("distributions.stable_logpdf"),
        "mcmc.sweep_overhead_ms": ms("mcmc.sweep", "self_ns") / n_sweeps,
        "mcmc.draws_mb": draws_mb,
        "mcmc.summary_ms": ms("mcmc.summary"),
        "dataio.load_ms": ms("dataio.load"),
        "dataio.rows_per_s": rows / (ms("dataio.load") / 1e3) if rows else 0.0,
        "dataio.align_ms": ms("dataio.align"),
        "config.ms": ms("config") + ms("config.priors"),
        "analysis.ms": ms("analysis"),
    }
    if model == "jump":
        out.update({
            "jump_model.emission_ms": per_sweep("jump_model.emission"),
            "jump_model.jump_count_ms": per_sweep("jump_model.jump_count"),
            "jump_model.jump_count_terms": (
                tot.get("jump_model.jump_count_weights", {}).get("terms", 0) / count_calls
                if count_calls else 0.0
            ),
            "jump_model.mh_ms": per_sweep("jump_model.mh"),
        })
    else:
        out.update({
            "stable_model.emission_ms": per_sweep("stable_model.emission"),
            "stable_model.lambda_ms": per_sweep("stable_model.lambda"),
            "stable_model.updates_ms": per_sweep("stable_model.updates"),
        })
    for name, (acc, att) in acceptance.items():
        out[f"{model}_model.accept.{name}"] = acc / att if att else 0.0
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("workdir", type=Path)
    ap.add_argument("result", type=Path)
    ap.add_argument("--chains", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    tracer = spans.Tracer() if args.trace else spans.NullTracer()
    if args.trace:
        spans.install(tracer)
    result: dict = {"ok": False, "error": None}
    try:
        out = run_fit(args.workdir, args.chains, tracer)
        fit_end = time.monotonic()
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        fit_t0 = out["first_sweep"]
        cfg, chains = out["cfg"], out["chains"]
        t_len = out["filtered"].shape[0]
        n_sweeps = len(out["sweep_s"])
        names = slow_params(cfg.model, cfg.states)
        per_chain = [[d.to_param_dict() for d in ch.draws] for ch in chains]
        ess = {}
        for name in names:
            if name.startswith("p_"):
                j = int(name[2]) - 1
                draws = np.array([[d.transition[j, j] for d in ch.draws] for ch in chains])
            else:
                draws = np.array([[row[name] for row in rows] for rows in per_chain])
            # a parameter whose kept draws never moved counts as one
            # effective draw, and has no R-hat
            r = rhat(draws)
            ess[name] = {"bulk": _or_one(ess_bulk(draws)), "tail": _or_one(ess_tail(draws)),
                         "rhat": r if math.isfinite(r) else None}
        truth = np.load(args.workdir / "truth.npz")["path"]
        accuracy = float(np.mean(np.argmax(out["filtered"], axis=1) + 1 == truth))
        ref = out["ref_vals"]
        r2 = 1.0 - out["score"] / float(np.sum((ref - ref.mean()) ** 2))
        acceptance = {}
        for s in out["samplers"]:
            for name, (acc, att) in s.acceptance().items():
                a0, t0 = acceptance.get(name, (0, 0))
                acceptance[name] = (a0 + acc, t0 + att)
        draws_mb = draws_bytes(chains) / 2**20
        result.update({
            "ok": True,
            "first_sweep_mono": fit_t0,
            "fit_s": fit_end - fit_t0,
            "sample_s": out["sample_s"],
            "sweep_s": out["sweep_s"],
            "n_sweeps": n_sweeps,
            "kept_draws": sum(len(ch.draws) for ch in chains),
            "draws_sha256": draws_sha256(chains),
            "draws_mb": draws_mb,
            "ess": ess,
            "ess_min": min(v["bulk"] for v in ess.values()),
            "ess_tail_min": min(v["tail"] for v in ess.values()),
            "rhat_max": max((v["rhat"] for v in ess.values() if v["rhat"] is not None),
                            default=1.0),
            "state_accuracy": accuracy,
            "indicator_r2": r2,
            "score": out["score"],
            "dropped_dates": out["dropped"],
            "durations": out["durations"],
            "durations_at_mean": out["durations_at_mean"],
            "acceptance": acceptance,
            "invariant_failures": invariant_failures(cfg, out["priors"], chains),
        })
        if args.trace:
            result["layers"] = layer_metrics(
                tracer, cfg.model, t_len, n_sweeps, acceptance, draws_mb
            )
            tracer.write(args.result.with_suffix(".spans.json"))
    except rv.RegimevolError as exc:
        result["error"] = f"{type(exc).__name__}: {exc}"
    except Exception:  # a crash counts as a failed fit; the run goes on
        result["error"] = traceback.format_exc(limit=5)
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
