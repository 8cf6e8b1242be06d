"""Hidden-state machinery: Hamilton forward filter, backward path sampling,
transition counting and Dirichlet transition-matrix draws.

State labels are 1..M everywhere in public arrays.

The forward filter needs the row vector pi0·diag(e_0)·P·diag(e_1)···P·diag(e_t)
for every t, where e_t holds the emission densities at t divided by their
row maximum.  The product is associative, so all T prefixes come out of one
parallel prefix scan (Särkkä & García-Fernández, IEEE TAC 2021; Hassan,
Särkkä & García-Fernández, IEEE TSP 2021) in 2·ceil(log2 T) rounds instead
of one Python step per observation.  On the way up, neighbouring factors are
multiplied in pairs as M×M matrices, T/2 + T/4 + ... products in all.  Every
prefix starts from the row vector pi0·diag(e_0), so on the way down each
prefix is kept as one row and costs one vector × matrix product: about T
matrix and T vector products per filter.

Every element of the scan is kept rescaled: each row normalised to sum 1, the
log of each row's scale relative to the largest row, and one log scale for the
whole element.  A product X·Y weights row j of Y by exp of its log row scale,
at most 1, so it needs M exponentials per element and nothing overflows.
Terms of these plain weights that underflow are below 2^-1074, so where each
nonzero row of X gives a row of X·Y totalling at least 2^-300 they are less
than 2^-774 of their row, and the product is kept.  Only the elements with a
smaller row total are recomputed with an exact per-row shift that brings the
largest term of each row to 1; fits do not reach it, but P with zeros or with
entries far below 1, where the rows of a long segment drift thousands of nats
apart, do.  So no row of a product underflows, and the log-likelihood is never
a difference of large numbers.  All products are of nonnegative numbers, so
nothing cancels.  A prefix goes through at most 2·ceil(log2 T) products, and a
filtered probability well above the subnormal range carries a relative error
of O(M·log2 T·ε) against exact arithmetic on the same e_t, plus ε times the
log-range of the row scales in a segment.

The backward draw takes one uniform per time step from the caller's
Generator, so a path is a function of the filtered probabilities, the
transition matrix and the Generator state.  It picks the inverse-CDF state
for every (t, next state) pair at once; only a T-step integer lookup is left.
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


def validate_transition_matrix(p: np.ndarray) -> np.ndarray:
    p = np.asarray(p, dtype=float)
    if p.ndim != 2 or p.shape[0] != p.shape[1]:
        raise ParameterError(f"transition matrix must be square, got shape {p.shape}")
    if np.any(p < 0):
        raise ParameterError("transition probabilities must be nonnegative")
    sums = p.sum(axis=1)
    if not np.all(np.abs(sums - 1.0) <= 1e-9):
        raise ParameterError(f"transition-matrix rows must sum to 1, got {sums}")
    return p


@dataclass
class FilteredProbs:
    """Filtered state distributions g(S_t | y_1..y_t) with the log-likelihood byproduct."""

    probs: np.ndarray  # (T, M), each row sums to 1
    loglik: float


# ---------------------------------------------------------------------------
# rescaled prefix scan
#
# An element is a stack of nonnegative R×M matrices stored as (s, d, g) with
# shapes (R, M, n), (R, n) and (n,), time on the last axis: matrix k equals
# exp(g[k]) · diag(exp(d[:, k])) · s[:, :, k], every nonzero row of s sums to
# 1 and max_i d[i, k] = 0.  A zero row has d = -inf; a zero matrix has
# g = -inf and s = 0.  The factors P·diag(e_t) are M×M; the prefixes have
# equal rows and are kept as single rows, R = 1.

# smallest row total of a plain-weight product that is kept (see _product)
_TINY = 2.0**-300


def _finite_or_zero(x: np.ndarray) -> np.ndarray:
    return np.where(x > -np.inf, x, 0.0)


def _rescaled(z: np.ndarray, r: np.ndarray, d: np.ndarray, g: np.ndarray):
    """Normalise the rows of z in place (r, their totals, is overwritten) and
    move the log totals into d and g."""
    d = d + np.log(r)
    top = d.max(axis=0)
    if r.min() > 0.0:
        d -= top
    else:
        r += r == 0.0  # a zero row stays zero instead of 0/0
        d -= _finite_or_zero(top)
    z /= r[:, None]
    return z, d, g + top


def _compose(sx, dx, gx, sy, dy, gy):
    """Products X·Y with an exact per-row shift, for the elements _product
    cannot take with plain weights.

    Row i of X·Y is sum_j sx[i, j] exp(dy[j]) sy[j, :], times the scales of
    row i of X.  The shift c[i] = max_j(log sx[i, j] + dy[j]) brings the
    largest term of that sum to 1, so no row underflows.
    """
    a = np.log(sx)
    a += dy
    c = a.max(axis=1)
    w = np.subtract(dy, _finite_or_zero(c)[:, None], out=a)
    # w <= -log sx wherever sx > 0, so exp(w) can overflow only where sx is
    # subnormal or zero; those weights are taken as exp(log sx + w) instead
    far = w > 700.0
    w_far = w[far]
    np.minimum(w, 700.0, out=w)
    np.exp(w, out=w)
    w *= sx
    if w_far.size:
        w[far] = np.exp(np.log(sx[far]) + w_far)
    z = np.einsum("ijn,jkn->ikn", w, sy)
    return _rescaled(z, z.sum(axis=1), dx + c, gx + gy)


def _product(sx, dx, gx, sy, dy, gy):
    """Products X·Y of two element stacks.

    Row i of X·Y is sum_j sx[i, j] exp(dy[j]) sy[j, :], times the scales of
    row i of X.  As max_j dy[j] = 0, these plain weights are at most 1 and
    cost M exponentials per element.  A term lost to underflow is below
    2^-1074, so where every nonzero row of X gives a row total of at least
    2^-300 the loss is below 2^-774 of the row, and the product is kept.
    The other elements are recomputed by _compose.
    """
    z = np.einsum("ijn,jkn->ikn", sx * np.exp(dy), sy)
    r = z.sum(axis=1)
    low = np.flatnonzero(((r < _TINY) & (dx > -np.inf)).any(axis=0)) if r.min() < _TINY else ()
    z, d, g = _rescaled(z, r, dx, gx + gy)
    if len(low):
        z[..., low], d[:, low], g[low] = _compose(
            sx[..., low], dx[:, low], gx[low], sy[..., low], dy[:, low], gy[low]
        )
    return z, d, g


def _prefixes(s: np.ndarray, d: np.ndarray, g: np.ndarray):
    """The products of elements 0..t for every t, as R = 1 stacks.

    Element 0 must have equal rows, so every prefix does too.  Pairs (0,1),
    (2,3), ... are multiplied as matrices, their prefixes found by the same
    scan on half as many elements, and each even element t then joins the
    prefix row ending at t - 1: about n matrix products and n row × matrix
    products in 2·ceil(log2 n) rounds.
    """
    n = s.shape[-1]
    if n == 1:
        return s[:1], d[:1], g
    k = n // 2
    ps, pd, pg = _prefixes(*_product(
        s[..., 0:2 * k:2], d[:, 0:2 * k:2], g[0:2 * k:2], s[..., 1::2], d[:, 1::2], g[1::2]
    ))
    us, ud, ug = np.empty((1,) + s.shape[1:]), np.empty((1, n)), np.empty(n)
    us[..., 0], ud[:, 0], ug[0] = s[:1, :, 0], d[:1, 0], g[0]
    us[..., 1::2], ud[:, 1::2], ug[1::2] = ps, pd, pg
    h = (n - 1) // 2
    if h:
        us[..., 2::2], ud[:, 2::2], ug[2::2] = _product(
            ps[..., :h], pd[:, :h], pg[:h], s[..., 2::2], d[:, 2::2], g[2::2]
        )
    return us, ud, ug


# ---------------------------------------------------------------------------
# public operations


def hamilton_filter(
    emission_logpdf: np.ndarray,
    t_len: int,
    p: np.ndarray,
    pi0: np.ndarray | None = None,
) -> FilteredProbs:
    """Forward filter: row t is g(S_t = . | y_1..y_t); loglik is the sum of
    the one-step predictive log f(y_t | y_1..y_{t-1}).

    ``emission_logpdf`` is the (T, M) array of log emission densities, row t
    for observation t, column j for state label j+1.  ``pi0`` is the distribution
    of the first state; uniform when omitted.

    The unnormalised filter at t is pi0·diag(e_0)·P·diag(e_1)···P·diag(e_t),
    with e_t the emission densities divided by their row maximum.  All T
    prefixes come from one rescaled prefix scan (see the module docstring):
    pair products of M×M factors on the way up, each prefix a row vector with
    one log scale on the way down.  Products use plain weights, at most 1; an
    element where a nonzero row of the left factor gives a row total below
    2^-300 is recomputed with the exact per-row shift, so what underflow drops
    is below 2^-774 of its row.  Row t of ``probs`` is the normalised prefix
    t, and ``loglik`` is the log scale of the last prefix plus the sum of the
    row maxima.  Raises FilterDegeneracyError naming the first t at which
    every state has zero predictive likelihood.
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
        if pi0.shape != (m,) or np.any(pi0 < 0) or not abs(pi0.sum() - 1.0) <= 1e-9:
            raise ParameterError("pi0 must be a length-M probability vector")
    mx = logem.max(axis=1)
    live = np.isfinite(mx)
    with np.errstate(divide="ignore", invalid="ignore"):
        e = np.array(logem.T, order="C")
        e -= np.where(live, mx, 0.0)
        np.exp(e, out=e)
        e[:, ~live] = 0.0
        # element t is P·diag(e_t); element 0 has every row equal to pi0·e_0
        s = p[:, :, None] * e
        s[:, :, 0] = pi0 * e[:, 0]
        s, d, g = _prefixes(*_rescaled(s, s.sum(axis=1), np.zeros((m, t_len)), np.zeros(t_len)))
    dead = ~(g > -np.inf)
    if dead.any():
        raise FilterDegeneracyError(
            f"every state has zero likelihood at t={int(np.argmax(dead))}; "
            "check emissions/parameters"
        )
    return FilteredProbs(probs=s[0].T.copy(), loglik=float(g[-1] + d[0, -1] + mx.sum()))


def sample_state_path(
    filt: FilteredProbs | np.ndarray, p: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Backward draw of a full state path from its joint smoothing distribution.

    S_T comes from the last filtered row; earlier states use
    P(S_t = i | S_{t+1}, y_1..y_t) proportional to p[i, S_{t+1}] * filtered[t, i].
    Each state is the inverse-CDF pick for one uniform (T of them, drawn in
    one call); the pick is made for every (t, next state) pair at once and the
    path then follows the picks back from S_T.  Returns labels 1..M.
    """
    probs = filt.probs if isinstance(filt, FilteredProbs) else np.asarray(filt, dtype=float)
    p = validate_transition_matrix(p)
    t_len = probs.shape[0]
    uniforms = rng.random(t_len)
    # cdf[i, s, t] = sum_{k <= i} filtered[t, k] * p[k, s]
    cdf = probs[:-1].T[:, None, :] * p[:, :, None]
    np.cumsum(cdf, axis=0, out=cdf)
    total = cdf[-1]
    picks = (cdf < uniforms[:-1] * total).sum(axis=0).tolist()  # picks[s][t]
    last = np.cumsum(probs[-1])
    state = int((last < uniforms[-1] * last[-1]).sum())
    path = [state] * t_len
    for t in range(t_len - 2, -1, -1):
        state = picks[state][t]
        path[t] = state
    path = np.array(path, dtype=np.int64)
    zero = ~(total[path[1:], np.arange(t_len - 1)] > 0.0)
    if zero.any():
        raise FilterDegeneracyError(
            f"backward sampling hit a zero-probability row at t={int(np.flatnonzero(zero)[-1])}"
        )
    return path + 1


def count_transitions(path: np.ndarray, m: int) -> np.ndarray:
    """Entry (i, j) counts steps with S_{t-1} = i+1, S_t = j+1; total is T-1."""
    path = np.asarray(path)
    if path.ndim != 1 or path.size == 0:
        raise ParameterError("state path must be a nonempty vector")
    if path.min() < 1 or path.max() > m:
        raise ParameterError(f"state labels must lie in 1..{m}")
    return np.bincount((path[:-1] - 1) * m + path[1:] - 1, minlength=m * m).reshape(m, m)


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
