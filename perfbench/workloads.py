"""Benchmark workloads and their seeded input generator.

Every workload is a synthetic M = 4 series drawn from one of the package's
forward simulators with fixed true parameters; only the draw depends on the
seed and on the data-set index (a run fits several data sets of its seed).
The generator writes what a user of the fit pipeline would hand it:

- ``prices.csv`` (``date,price``), prices whose log returns are the series;
- ``reference.csv`` (``date,value``), the true per-time conditional standard
  deviation on the true state path, with every 37th date left out so that
  aligning indicator and reference is a real inner join;
- ``config.json``, the run configuration (model, seed, iterations, burn-in).

``truth.npz`` keeps the true path for the recovery check; the timed program
never reads it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from datetime import date, timedelta
from pathlib import Path

import numpy as np

M = 4
_START = date(2000, 1, 3)
_REFERENCE_GAP = 37


def _transition() -> np.ndarray:
    p = np.full((M, M), (1.0 - _STAY) / (M - 1))
    np.fill_diagonal(p, _STAY)
    return p


@dataclass(frozen=True)
class Workload:
    name: str
    model: str  # "jump" or "stable"
    t_len: int
    chains: int
    iters: int  # per chain, burn-in included
    burnin: int
    child_s: float  # wall time of one fit process (set-up + fit) on the reference machine
    why: str
    # Recovery thresholds on the run's medians over fits: argmax-filtered
    # state accuracy against the true path, and R^2 of the aligned indicator
    # against the reference.  Set well below the lowest run median of 16 to
    # 21 runs measured when the benchmark was defined, and well above what an
    # indicator unrelated to the reference gives (R^2 about 1/T).
    min_state_accuracy: float
    min_indicator_r2: float

    def n_fits(self, seconds: float) -> int:
        """Fits per run: as many as ``seconds`` hold at the reference speed,
        three at least.  The count does not depend on the speed of the code
        under test, so every commit does the same work for the same seconds."""
        return max(3, int(seconds // self.child_s))


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="jump_t2000",
            model="jump",
            t_len=2000,
            chains=1,
            iters=30,
            burnin=10,
            child_s=3.75,
            why="jump model with jumps in states 3-4: the convolution density runs in the "
            "emission matrix, the MH targets and jump-count enumeration",
            min_state_accuracy=0.35,
            min_indicator_r2=0.5,
        ),
        Workload(
            name="stable_t5000",
            model="stable",
            t_len=5000,
            chains=1,
            iters=22,
            burnin=8,
            child_s=3.75,
            why="stable model on a long series: filter and backward draw dominate, the "
            "convolution never runs, long paths are stored",
            min_state_accuracy=0.3,
            min_indicator_r2=0.05,
        ),
        Workload(
            name="stable_t300",
            model="stable",
            t_len=300,
            chains=4,
            iters=65,
            burnin=20,
            child_s=3.75,
            why="stable model on a short series with 4 dispersed chains: fixed per-sweep "
            "cost (scaffolding, lambda-density quadrature) dominates",
            min_state_accuracy=0.15,
            min_indicator_r2=0.1,
        ),
    )
}

# True parameters shared by all seeds.  Regimes are ordered by variance, each
# step up multiplying it by h* = 3; the jump model has jumps only in the two
# upper states, at intensities inside their prior intervals (1, 2] and (2, 4].
# Every state stays put with probability _STAY.
_STAY = 0.97
_SIGMA1_SQ = 1e-4
_H_STAR = [3.0, 3.0, 3.0]
_THETA = [0.0, 0.0, 1.5, 3.0]
_B = 40.0
_GAMMA1_SQ = 0.5e-4
_ALPHA = 1.7


def true_params(model: str):
    from regimevol import JumpParams, StableModelParams

    if model == "jump":
        return JumpParams(
            mu=np.zeros(M), sigma1_sq=_SIGMA1_SQ, h_star=np.array(_H_STAR),
            theta=np.array(_THETA), n_jumps=np.zeros(M, dtype=int), b=_B,
        )
    return StableModelParams(
        mu=np.zeros(M), gamma1_sq=_GAMMA1_SQ, h_star=np.array(_H_STAR), lam=1.0, alpha=_ALPHA,
    )


def true_conditional_sd(model: str) -> np.ndarray:
    """Per-state sd of one observation under the true parameters.

    Jump model: sigma_j^2 plus the variance of a compound jump with a
    Poisson(theta_j) count of Gamma(., b) magnitudes, (theta^2 + 2 theta) / b^2.
    Stable model: the variance is infinite for alpha < 2, so the reference
    uses the Gaussian-equivalent sd sqrt(2) gamma_j (exact at alpha = 2);
    affine alignment absorbs the constant.
    """
    params = true_params(model)
    if model == "jump":
        theta = params.theta
        return np.sqrt(params.sigma_sq + (theta * theta + 2.0 * theta) / params.b**2)
    return np.sqrt(2.0 * params.gamma_sq)


def generate(workload: Workload, seed: int, index: int, out_dir: Path) -> None:
    """Write prices.csv, reference.csv, config.json and truth.npz: data set
    ``index`` of the run with this seed."""
    from regimevol import simulate_jump_model, simulate_stable_model

    rng = np.random.default_rng(
        [seed, index, workload.t_len, 0 if workload.model == "jump" else 1]
    )
    simulate = simulate_jump_model if workload.model == "jump" else simulate_stable_model
    ds = simulate(
        true_params(workload.model), _transition(), None, workload.t_len, rng,
        seed=seed,
    )
    out_dir.mkdir(parents=True, exist_ok=True)
    dates = [_START + timedelta(days=i) for i in range(workload.t_len + 1)]
    prices = 100.0 * np.exp(np.concatenate(([0.0], np.cumsum(ds.observations))))
    with (out_dir / "prices.csv").open("w") as fh:
        fh.write("date,price\n")
        fh.writelines(f"{d.isoformat()},{float(p)!r}\n" for d, p in zip(dates, prices))
    sd = true_conditional_sd(workload.model)[ds.true_path - 1]
    with (out_dir / "reference.csv").open("w") as fh:
        fh.write("date,value\n")
        fh.writelines(
            f"{d.isoformat()},{float(v)!r}\n"
            for i, (d, v) in enumerate(zip(dates[1:], sd))
            if i % _REFERENCE_GAP != _REFERENCE_GAP - 1
        )
    config = {
        "model": workload.model,
        "seed": seed,
        "states": M,
        "iters": workload.iters,
        "burnin": workload.burnin,
        "b": _B,
        "alpha": _ALPHA,
        "data": "prices.csv",
        "reference": "reference.csv",
    }
    (out_dir / "config.json").write_text(json.dumps(config, indent=1) + "\n")
    np.savez(out_dir / "truth.npz", path=ds.true_path)
