"""In-memory span tracer and the wrappers that place spans at layer boundaries.

A span records name, start, end, parent span and run id (the chain index, or
-1 outside sampling); counts such as observations evaluated ride on the span.
Spans stay in memory and are written once, when the fit ends.  Self time is a
span's duration minus the time its direct children cover; everything here is
single-threaded, so children nest inside their parent and never overlap.

``install`` wraps public functions at their import sites in
``regimevol.jump_model``, ``regimevol.stable_model`` and ``regimevol.mcmc``,
plus the samplers' ``emission_matrix`` and ``sweep``.  The wrappers call the
original with the same arguments and return its result untouched, so a traced
fit draws exactly what an untraced one draws.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from pathlib import Path

_NULL = contextlib.nullcontext()


class NullTracer:
    """Tracing off: the pipeline's span calls cost one attribute lookup."""

    run_id = -1

    def span(self, name: str, **counts):
        return _NULL


class Tracer:
    def __init__(self) -> None:
        # parallel lists: name, start_ns, end_ns, parent index, run id, counts
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.run_ids: list[int] = []
        self.counts: list[dict | None] = []
        self._stack: list[int] = []
        self.run_id = -1

    def _open(self, name: str, counts: dict | None) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.run_ids.append(self.run_id)
        self.counts.append(counts)
        self.ends.append(-1)
        self._stack.append(idx)
        self.starts.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter_ns()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str, **counts):
        idx = self._open(name, dict(counts))
        try:
            yield self.counts[idx]
        finally:
            self._close(idx)

    def wrap(self, name: str, fn, count=None):
        """Wrap ``fn`` in a span; ``count(args, kwargs, result)`` adds counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name, None)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.counts[idx] = {"error": type(exc).__name__}
                raise
            finally:
                self._close(idx)
            if count is not None:
                self.counts[idx] = count(args, kwargs, result)
            return result

        return traced

    # ------------------------------------------------------------------
    def self_times_ns(self) -> list[int]:
        covered = [0] * len(self.names)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                covered[parent] += self.ends[i] - self.starts[i]
        return [e - s - c for s, e, c in zip(self.starts, self.ends, covered)]

    def totals(self) -> dict[str, dict]:
        """Per span name: calls, total and self nanoseconds, summed counts."""
        out: dict[str, dict] = {}
        for i, self_ns in enumerate(self.self_times_ns()):
            agg = out.setdefault(self.names[i], {"calls": 0, "total_ns": 0, "self_ns": 0})
            agg["calls"] += 1
            agg["total_ns"] += self.ends[i] - self.starts[i]
            agg["self_ns"] += self_ns
            for key, value in (self.counts[i] or {}).items():
                if isinstance(value, (int, float)):
                    agg[key] = agg.get(key, 0) + value
                else:
                    agg[f"{key}={value}"] = agg.get(f"{key}={value}", 0) + 1
        return out

    def write(self, path: Path) -> None:
        rows = [
            {
                "name": self.names[i], "start_ns": self.starts[i], "end_ns": self.ends[i],
                "parent": self.parents[i], "run": self.run_ids[i], "counts": self.counts[i],
            }
            for i in range(len(self.names))
        ]
        path.write_text(json.dumps(rows))


def _obs_count(args, kwargs, result):
    """Counts for one jump_convolved_logpdf call: observations and the
    Gauss-Legendre node evaluations it implies (two half-line integrals per
    observation, 96 nodes each, none for the closed-form single jump)."""
    n_obs = getattr(result, "size", 1)
    n_jumps = args[3] if len(args) > 3 else kwargs["n_jumps"]
    return {"obs": n_obs, "gl_ops": 0 if n_jumps == 1 else 2 * 96 * n_obs}


def _terms_count(args, kwargs, result):
    return {"terms": len(result)}


def install(tracer: Tracer) -> None:
    """Patch the layer boundaries in place; the process runs one fit and exits."""
    import regimevol.jump_model as jm
    import regimevol.mcmc as mc
    import regimevol.stable_model as sm

    for mod in (jm, sm):
        for fn_name, span in (
            ("hamilton_filter", "regime.filter"),
            ("sample_state_path", "regime.path"),
            ("count_transitions", "regime.transition"),
            ("sample_transition_matrix", "regime.transition"),
            ("inv_gamma_normal_update", "mcmc.conjugate"),
            ("normal_normal_update", "mcmc.conjugate"),
        ):
            setattr(mod, fn_name, tracer.wrap(span, getattr(mod, fn_name)))
    jm.jump_convolved_logpdf = tracer.wrap(
        "distributions.conv", jm.jump_convolved_logpdf, _obs_count
    )
    jm.jump_count_weights = tracer.wrap(
        "jump_model.jump_count_weights", jm.jump_count_weights, _terms_count
    )
    jm.sample_n_jumps_j = tracer.wrap("jump_model.jump_count", jm.sample_n_jumps_j)
    for fn_name in ("sample_mu_j", "sample_sigma1_sq", "sample_h_star_j", "sample_theta_j"):
        setattr(jm, fn_name, tracer.wrap("jump_model.mh", getattr(jm, fn_name)))
    sm.positive_stable_logpdf = tracer.wrap(
        "distributions.stable_logpdf", sm.positive_stable_logpdf
    )
    sm.sample_lambda = tracer.wrap("stable_model.lambda", sm.sample_lambda)
    for fn_name in ("sample_gamma1_sq", "sample_stable_h_star_j", "sample_stable_mu_j"):
        setattr(sm, fn_name, tracer.wrap("stable_model.updates", getattr(sm, fn_name)))
    mc.inv_gamma_sample = tracer.wrap("mcmc.inv_gamma_sample", mc.inv_gamma_sample)
    for cls, layer in ((jm.JumpGibbsSampler, "jump_model"), (sm.StableGibbsSampler, "stable_model")):
        cls.emission_matrix = tracer.wrap(f"{layer}.emission", cls.emission_matrix)
        cls.sweep = tracer.wrap("mcmc.sweep", cls.sweep)
