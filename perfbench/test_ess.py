"""Tests of the benchmark's own code: the ESS / R-hat estimators against
closed forms, span self time, and BENCHMARK.json against what run.py emits.

    python3 -m pytest perfbench -q
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

import ess
import run
import spans


def _ar1(phi: float, chains: int, n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    noise = rng.normal(size=(chains, n))
    x = np.empty((chains, n))
    x[:, 0] = noise[:, 0] / math.sqrt(1.0 - phi * phi)
    for t in range(1, n):
        x[:, t] = phi * x[:, t - 1] + noise[:, t]
    return x


@pytest.mark.parametrize("phi", [0.5, 0.8])
def test_bulk_ess_matches_ar1_closed_form(phi):
    chains, n = 4, 10_000
    expected = chains * n * (1.0 - phi) / (1.0 + phi)
    got = [ess.ess_bulk(_ar1(phi, chains, n, seed)) for seed in range(3)]
    assert abs(np.mean(got) / expected - 1.0) < 0.1


def test_ess_of_iid_draws_is_the_draw_count():
    draws = np.random.default_rng(7).normal(size=(4, 5000))
    assert abs(ess.ess_bulk(draws) / draws.size - 1.0) < 0.1
    assert abs(ess.ess(draws) / draws.size - 1.0) < 0.1
    assert abs(ess.ess_tail(draws) / draws.size - 1.0) < 0.15


def test_bulk_ess_is_invariant_under_monotone_transforms():
    draws = _ar1(0.6, 2, 4000, 3)
    assert ess.ess_bulk(np.exp(draws)) == pytest.approx(ess.ess_bulk(draws), rel=1e-12)


def test_rhat_near_one_for_mixed_chains_and_large_for_stuck_ones():
    draws = np.random.default_rng(1).normal(size=(4, 2000))
    assert ess.rhat(draws) < 1.01
    shifted = draws + np.array([[0.0], [0.0], [0.0], [2.0]])
    assert ess.rhat(shifted) > 1.1
    trending = draws + np.linspace(0.0, 3.0, 2000)[None, :]
    assert ess.rhat(trending) > 1.1  # split halves disagree


def test_split_chains_drops_the_middle_draw():
    split = ess.split_chains(np.arange(14.0).reshape(2, 7))
    np.testing.assert_array_equal(split[:, 0], [0, 7, 4, 11])
    assert split.shape == (4, 3)


def test_z_scale_gives_ties_the_same_score():
    z = ess.z_scale(np.array([[1.0, 2.0, 2.0, 3.0]]))
    assert z[0, 1] == z[0, 2] and z[0, 0] < z[0, 1] < z[0, 3]
    assert z[0, 0] == pytest.approx(-z[0, 3])


def test_self_time_subtracts_direct_children():
    tracer = spans.Tracer()
    for name, start, end, parent in (
        ("sweep", 0, 100, -1), ("filter", 10, 40, 0), ("inner", 15, 25, 1), ("path", 50, 70, 0),
    ):
        tracer.names.append(name)
        tracer.starts.append(start)
        tracer.ends.append(end)
        tracer.parents.append(parent)
        tracer.run_ids.append(0)
        tracer.counts.append({})
    assert tracer.self_times_ns() == [50, 20, 10, 20]


def test_wrapped_function_returns_the_original_result_and_counts_errors():
    tracer = spans.Tracer()
    double = tracer.wrap("double", lambda x: 2 * x)
    assert double(4) == 8

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        tracer.wrap("boom", boom)()
    totals = tracer.totals()
    assert totals["double"]["calls"] == 1
    assert totals["boom"]["error=KeyError"] == 1


def test_benchmark_json_lists_what_run_emits():
    spec = json.loads((Path(run.__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    import workloads

    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
