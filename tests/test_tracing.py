"""The benchmark's tracer (perfbench/spans.py) patches named functions at
their import sites in the model modules.  Each wrapped name must still
resolve and still be called through those modules' globals, and a traced
run must draw exactly what an untraced one draws."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_SCRIPT = """
import json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import numpy as np
import spans
from regimevol import JumpGibbsSampler, StableGibbsSampler, run_chain
from test_samplers import _jump_case, _stable_case


def draws(cls, case):
    data, priors, init = case()
    sampler = cls(data, priors, adapt_iters=3)
    chain = run_chain(sampler.sweep, init, 8, 3, np.random.default_rng(7),
                      acceptance=sampler.acceptance)
    kept = [(d.path.tolist(), d.transition.tolist(), d.to_param_dict()) for d in chain.draws]
    return kept, chain.acceptance


cases = [(JumpGibbsSampler, _jump_case), (StableGibbsSampler, _stable_case)]
untraced = [draws(*case) for case in cases]
tracer = spans.Tracer()
spans.install(tracer)
traced = [draws(*case) for case in cases]
print(json.dumps({"equal": traced == untraced, "spans": sorted(tracer.totals())}))
"""

# one span per wrapped layer; each appears only if the model code calls the
# wrapped name through its module globals
EXPECTED_SPANS = {
    "regime.filter", "regime.path", "regime.transition", "mcmc.conjugate",
    "mcmc.inv_gamma_sample", "mcmc.sweep", "distributions.conv",
    "distributions.stable_logpdf", "jump_model.emission", "jump_model.jump_count",
    "jump_model.jump_count_weights", "jump_model.mh", "stable_model.emission",
    "stable_model.lambda", "stable_model.updates",
}


def test_traced_sweeps_draw_what_untraced_sweeps_draw():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", _SCRIPT, str(ROOT / "perfbench"), str(ROOT / "tests")],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["equal"]
    assert EXPECTED_SPANS <= set(result["spans"]), EXPECTED_SPANS - set(result["spans"])
