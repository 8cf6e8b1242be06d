"""Print what each stage of a sweep costs: time, minor page faults and
transient allocation.

Runs one seeded chain of MODEL ("jump" or "stable") on a synthetic series of
T observations in this process.  After two warm-up sweeps it runs SWEEPS
sweeps untraced, then SWEEPS more under tracemalloc.  For each stage of a
sweep (the emission matrix, the filter, the path draw and the rest of the
sweep) and for the whole sweep it prints the median milliseconds and the
median minor page faults (``resource.getrusage(...).ru_minflt``) of the
untraced sweeps, and the median tracemalloc transient peak of the traced
ones, as a multiple of the (T, M) emission matrix's bytes.  A stage's
transient peak is its highest traced memory above what was traced when it
began; the rest's is the highest over the stretches between the stages.
A last line, ``held``, gives the bytes a chain's StateWorkspace keeps once
built and used by one filter and one path draw on the chain's last
emissions, measured by tracemalloc, in emission matrices.

The series follows the benchmark's synthetic workloads: M = 4 states ordered
by variance, each multiplier h* = 3, each state staying put with
probability 0.97, and jumps in the upper two states only.  The stages are
timed by wrapping ``emission_matrix`` and the model module's
``hamilton_filter`` and ``sample_state_path``.

Usage: python tools/sweep_memory.py MODEL T SWEEPS
"""

from __future__ import annotations

import resource
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

import regimevol as rv  # noqa: E402
from regimevol import jump_model, regime, stable_model  # noqa: E402

M = 4
STAGES = ("emission", "filter", "path", "rest", "sweep")


def _chain(model: str, t_len: int):
    """A sampler, its start and its Generator on a seeded synthetic series."""
    p = np.full((M, M), 0.01)
    np.fill_diagonal(p, 0.97)
    rng = np.random.default_rng([0, t_len, 0 if model == "jump" else 1])
    if model == "jump":
        params = rv.JumpParams(mu=np.zeros(M), sigma1_sq=1e-4, h_star=np.full(M - 1, 3.0),
                               theta=np.array([0.0, 0.0, 1.5, 3.0]),
                               n_jumps=np.zeros(M, dtype=int), b=40.0)
        y = rv.simulate_jump_model(params, p, None, t_len, rng).observations
        priors = rv.build_jump_priors(rv.load_config(model=model, seed=0, states=M), y)
        return rv.JumpGibbsSampler(y, priors, adapt_iters=2), rv.initial_jump_state(y, priors), rng
    params = rv.StableModelParams(mu=np.zeros(M), gamma1_sq=0.5e-4, h_star=np.full(M - 1, 3.0),
                                  lam=1.0, alpha=1.7)
    y = rv.simulate_stable_model(params, p, None, t_len, rng).observations
    priors = rv.build_stable_priors(rv.load_config(model=model, seed=0, states=M), y)
    return rv.StableGibbsSampler(y, priors, adapt_iters=2), rv.initial_stable_state(y, priors), rng


class _Meter:
    """Per-sweep time, faults and transient peak of each stage.  A stretch
    is one stage call or one gap between them; ``begin`` and ``end`` bound
    a sweep."""

    def __init__(self) -> None:
        self.traced = False
        self.rows: list[dict[str, list[float]]] = []

    def _now(self) -> tuple[float, int, int]:
        memory = tracemalloc.get_traced_memory()[0] if self.traced else 0
        if self.traced:
            tracemalloc.reset_peak()
        return time.perf_counter(), resource.getrusage(resource.RUSAGE_SELF).ru_minflt, memory

    def _close(self, stage: str) -> None:
        t0, f0, m0 = self.stretch
        seconds = time.perf_counter() - t0
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - f0
        peak = tracemalloc.get_traced_memory()[1] if self.traced else 0
        row = self.rows[-1]
        row[stage][0] += seconds
        row[stage][1] += faults
        row[stage][2] = max(row[stage][2], peak - m0)
        self.sweep_peak = max(self.sweep_peak, peak)

    def begin(self) -> None:
        self.rows.append({stage: [0.0, 0, 0] for stage in STAGES})
        self.stretch = self.start = self._now()
        self.sweep_peak = self.start[2]

    def end(self) -> None:
        self._close("rest")
        t0, f0, m0 = self.start
        self.rows[-1]["sweep"] = [time.perf_counter() - t0,
                                  resource.getrusage(resource.RUSAGE_SELF).ru_minflt - f0,
                                  self.sweep_peak - m0]

    def wrap(self, stage: str, fn):
        def measured(*args, **kwargs):
            self._close("rest")
            self.stretch = self._now()
            out = fn(*args, **kwargs)
            self._close(stage)
            self.stretch = self._now()
            return out

        return measured


def held_bytes(sampler, state) -> int:
    """The traced bytes a StateWorkspace keeps after it is built, the
    chain's emissions for ``state`` are written into it, and one filter and
    one path draw run on them, their outputs dropped."""
    logem = sampler.emission_matrix(state.params)
    tracemalloc.start()
    try:
        work = regime.StateWorkspace(*logem.shape)
        work.emission[...] = logem.T
        filt = regime.hamilton_filter(work.emission.T, logem.shape[0], state.transition,
                                      work=work)
        regime.sample_state_path(filt, state.transition, np.random.default_rng(0), work=work)
        del filt
        return tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


def run(model: str, t_len: int, sweeps: int) -> list[str]:
    sampler, state, rng = _chain(model, t_len)
    meter = _Meter()
    module = jump_model if model == "jump" else stable_model
    cls = type(sampler)
    originals = (cls.emission_matrix, module.hamilton_filter, module.sample_state_path)
    cls.emission_matrix = meter.wrap("emission", cls.emission_matrix)
    module.hamilton_filter = meter.wrap("filter", module.hamilton_filter)
    module.sample_state_path = meter.wrap("path", module.sample_state_path)
    try:
        for _ in range(2):
            meter.begin()
            state = sampler.sweep(state, rng)
            meter.end()
        meter.rows.clear()
        for traced in (False, True):
            meter.traced = traced
            if traced:
                tracemalloc.start()
            for _ in range(sweeps):
                meter.begin()
                state = sampler.sweep(state, rng)
                meter.end()
        tracemalloc.stop()
    finally:
        cls.emission_matrix, module.hamilton_filter, module.sample_state_path = originals
    untraced, traced = meter.rows[:sweeps], meter.rows[sweeps:]
    emission_bytes = t_len * M * 8
    lines = [f"{model} T={t_len} M={M}: {sweeps} sweeps untraced, {sweeps} traced; "
             f"emission matrix {emission_bytes / 1024:.1f} KB",
             f"{'stage':<9} {'ms':>8} {'minflt':>7} {'peak/emission':>14}"]
    for stage in STAGES:
        ms = statistics.median(row[stage][0] for row in untraced) * 1e3
        faults = statistics.median(row[stage][1] for row in untraced)
        peak = statistics.median(row[stage][2] for row in traced) / emission_bytes
        lines.append(f"{stage:<9} {ms:8.3f} {faults:7.1f} {peak:14.2f}")
    lines.append(f"{'held':<9} {held_bytes(sampler, state) / emission_bytes:.2f} emission matrices")
    return lines


def main(argv: list[str]) -> int:
    if len(argv) != 4 or argv[1] not in ("jump", "stable"):
        print(__doc__.strip().splitlines()[-1], file=sys.stderr)
        return 2
    t_len, sweeps = int(argv[2]), int(argv[3])
    if t_len < 2 or sweeps < 1:
        print("need T >= 2 and SWEEPS >= 1", file=sys.stderr)
        return 2
    print("\n".join(run(argv[1], t_len, sweeps)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
