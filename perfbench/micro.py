"""Layer micro-run on fixed inputs: steady ns/obs and ns/step baselines.

    python3 perfbench/micro.py [--seconds 1.0]

Times, on inputs fixed by a constant seed:

- ``jump_convolved_logpdf`` on 2000 observations, with n = 1, 3, 10 jumps;
- ``hamilton_filter`` and ``sample_state_path`` at M = 4, T = 300, 2000, 5000;
- ``positive_stable_logpdf`` on a grid of 25 lambda values, 1e-3 to 1e3.

Each case repeats its call until ``--seconds`` have passed (five calls at
least) and reports the median and the quartiles per observation, per step or
per lambda, with BLAS/OpenMP threads pinned to 1 as in the benchmark.  The
last line is JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(_ROOT / "src"))
# before numpy loads its BLAS: one thread, as run.py gives each fit
for _name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_name] = "1"

import numpy as np  # noqa: E402

from regimevol import (  # noqa: E402
    hamilton_filter,
    jump_convolved_logpdf,
    positive_stable_logpdf,
    sample_state_path,
)

_M = 4


def _time(call, seconds: float) -> list[float]:
    times: list[float] = []
    end = time.perf_counter() + seconds
    while len(times) < 5 or time.perf_counter() < end:
        t0 = time.perf_counter()
        call()
        times.append(time.perf_counter() - t0)
    return times


def _record(layer: str, size_name: str, size: int, unit: str, times: list[float]) -> dict:
    per = [1e9 * t / size for t in times]
    q1, med, q3 = statistics.quantiles(per, n=4)
    return {"layer": layer, size_name: size, "unit": unit, "median": med,
            "q1": q1, "q3": q3, "calls": len(times)}


def run(seconds: float) -> list[dict]:
    rng = np.random.default_rng(20160519)
    out = []
    obs = rng.normal(0.0, 0.03, 2000)
    for n in (1, 3, 10):
        times = _time(lambda: jump_convolved_logpdf(obs, 0.0, 0.03, n, 40.0), seconds)
        out.append({**_record("jump_convolved_logpdf", "obs", obs.size, "ns/obs", times),
                    "n_jumps": n})
    p = np.full((_M, _M), 0.01)
    np.fill_diagonal(p, 0.97)
    for t_len in (300, 2000, 5000):
        logem = rng.normal(0.0, 1.0, (t_len, _M))
        filt = hamilton_filter(logem, t_len, p)
        out.append(_record("hamilton_filter", "T", t_len, "ns/step",
                           _time(lambda: hamilton_filter(logem, t_len, p), seconds)))
        path_rng = np.random.default_rng(1)
        out.append(_record("sample_state_path", "T", t_len, "ns/step",
                           _time(lambda: sample_state_path(filt, p, path_rng), seconds)))
    grid = np.geomspace(1e-3, 1e3, 25)
    out.append(_record("positive_stable_logpdf", "lambdas", grid.size, "ns/lambda",
                       _time(lambda: positive_stable_logpdf(grid, 1.7), seconds)))
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seconds", type=float, default=1.0, help="time budget per case")
    args = ap.parse_args(argv)
    records = run(args.seconds)
    for r in records:
        size = ", ".join(f"{k}={r[k]}" for k in ("obs", "n_jumps", "T", "lambdas") if k in r)
        print(f"{r['layer']:24s} {size:18s} median {r['median']:12.1f} {r['unit']}"
              f"  (q1 {r['q1']:.1f}, q3 {r['q3']:.1f}, {r['calls']} calls)")
    print(json.dumps(records))
    return 0


if __name__ == "__main__":
    sys.exit(main())
