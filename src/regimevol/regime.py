"""Hidden-state machinery: Hamilton forward filter, backward path sampling,
transition counting and Dirichlet transition-matrix draws.

State labels are 1..M everywhere in public arrays.  Filtering runs in scaled
probability space (each step renormalized, log-normalizers accumulated) so a
few hundred observations cannot underflow.  The backward draw takes one
uniform per time step from the caller's Generator, so a path is a function of
the filtered probabilities, the transition matrix and the Generator state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FilterDegeneracyError, ParameterError

__all__ = [
    "FilteredProbs",
    "validate_transition_matrix",
    "hamilton_filter",
    "sample_state_path",
    "count_transitions",
    "sample_transition_matrix",
]


def validate_transition_matrix(p: np.ndarray, atol: float = 1e-9) -> np.ndarray:
    p = np.asarray(p, dtype=float)
    if p.ndim != 2 or p.shape[0] != p.shape[1]:
        raise ParameterError(f"transition matrix must be square, got shape {p.shape}")
    if np.any(p < 0):
        raise ParameterError("transition probabilities must be nonnegative")
    sums = p.sum(axis=1)
    if not np.allclose(sums, 1.0, atol=atol):
        raise ParameterError(f"transition-matrix rows must sum to 1, got {sums}")
    return p


@dataclass
class FilteredProbs:
    """Filtered state distributions g(S_t | y_1..y_t) with the log-likelihood byproduct."""

    probs: np.ndarray  # (T, M), each row sums to 1
    loglik: float


# ---------------------------------------------------------------------------
# public operations


def hamilton_filter(
    emission_logpdf: np.ndarray,
    t_len: int,
    p: np.ndarray,
    pi0: np.ndarray | None = None,
) -> FilteredProbs:
    """Forward filter: row t is g(S_t = . | y_1..y_t); loglik accumulates
    the one-step predictive log f(y_t | y_1..y_{t-1}).

    ``emission_logpdf`` is the (T, M) array of log emission densities, row t
    for observation t, column j for state label j+1.  ``pi0`` is the distribution
    of the first state; uniform when omitted.
    """
    p = validate_transition_matrix(p)
    m = p.shape[0]
    if t_len < 1:
        raise ParameterError("need at least one observation to filter")
    logem = np.asarray(emission_logpdf, dtype=float)
    if logem.shape != (t_len, m):
        raise ParameterError(f"emission array has shape {logem.shape}, expected {(t_len, m)}")
    if pi0 is None:
        pi0 = np.full(m, 1.0 / m)
    else:
        pi0 = np.asarray(pi0, dtype=float)
        if pi0.shape != (m,) or np.any(pi0 < 0) or not np.isclose(pi0.sum(), 1.0):
            raise ParameterError("pi0 must be a length-M probability vector")
    probs = np.empty((t_len, m))
    loglik = 0.0
    pred = pi0
    for t in range(t_len):
        mx = logem[t].max()
        c = 0.0
        if np.isfinite(mx):
            w = pred * np.exp(logem[t] - mx)
            c = w.sum()
        if not c > 0.0:
            raise FilterDegeneracyError(
                f"every state has zero likelihood at t={t}; check emissions/parameters"
            )
        probs[t] = w / c
        loglik += np.log(c) + mx
        pred = probs[t] @ p
    return FilteredProbs(probs=probs, loglik=float(loglik))


def sample_state_path(
    filt: FilteredProbs | np.ndarray, p: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Backward draw of a full state path from its joint smoothing distribution.

    S_T comes from the last filtered row; earlier states use
    P(S_t = i | S_{t+1}, y_1..y_t) proportional to p[i, S_{t+1}] * filtered[t, i].
    Returns labels 1..M.
    """
    probs = filt.probs if isinstance(filt, FilteredProbs) else np.asarray(filt, dtype=float)
    p = validate_transition_matrix(p)
    t_len = probs.shape[0]
    uniforms = rng.random(t_len)
    path = np.empty(t_len, dtype=np.int64)
    weights = probs[t_len - 1]
    path[t_len - 1] = np.searchsorted(np.cumsum(weights), uniforms[t_len - 1] * weights.sum())
    for t in range(t_len - 2, -1, -1):
        weights = probs[t] * p[:, path[t + 1]]
        total = weights.sum()
        if not total > 0.0:
            raise FilterDegeneracyError(
                f"backward sampling hit a zero-probability row at t={t}"
            )
        path[t] = np.searchsorted(np.cumsum(weights), uniforms[t] * total)
    return path + 1


def count_transitions(path: np.ndarray, m: int) -> np.ndarray:
    """Entry (i, j) counts steps with S_{t-1} = i+1, S_t = j+1; total is T-1."""
    path = np.asarray(path)
    if path.ndim != 1 or path.size == 0:
        raise ParameterError("state path must be a nonempty vector")
    if path.min() < 1 or path.max() > m:
        raise ParameterError(f"state labels must lie in 1..{m}")
    counts = np.zeros((m, m), dtype=np.int64)
    np.add.at(counts, (path[:-1] - 1, path[1:] - 1), 1)
    return counts


def sample_transition_matrix(
    counts: np.ndarray, row_priors: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Row i drawn from Dirichlet(row_priors[i] + transition counts out of state i+1).

    ``row_priors`` is the (M, M) matrix of positive prior concentrations.
    """
    counts = np.asarray(counts, dtype=float)
    m = counts.shape[0]
    conc = np.asarray(row_priors, dtype=float)
    if conc.shape != (m, m):
        raise ParameterError(f"prior concentration must be ({m}, {m})")
    if not np.all(conc > 0):
        raise ParameterError("Dirichlet concentration entries must all be > 0")
    out = np.empty((m, m))
    for i in range(m):
        out[i] = rng.dirichlet(conc[i] + counts[i])
    return out
