"""Hidden-state machinery: Hamilton forward filter, backward path sampling,
transition counting, the Dirichlet transition prior (default rows and the
one check of its shape and entries) and the transition-matrix draws.

State labels are 1..M everywhere in public arrays.

The forward filter needs the row vector pi0·diag(e_0)·P·diag(e_1)···P·diag(e_t)
for every t, where e_t holds the emission densities at t divided by their
row maximum.  The product is associative, so all T prefixes come out of one
parallel prefix scan (Särkkä & García-Fernández, IEEE TAC 2021; Hassan,
Särkkä & García-Fernández, IEEE TSP 2021) in 2·ceil(log2 T) rounds instead
of one Python step per observation.  The first level is formed from the e_t
and P, with no (M, M, T) stack of factors P·diag(e_t): entry (a, c) of
element i = P·diag(e_{2i})·P·diag(e_{2i+1}) is sum_b P_ab·P_bc·e_{2i,b}·
e_{2i+1,c}, and element 0 has every row equal to (pi0∘e_0)·P·diag(e_1).
Higher levels multiply neighbouring elements in pairs as M×M matrices.
Every prefix starts from the row pi0·diag(e_0), so on the way down each
prefix is kept as one row: (prefix_{t-1}·P)∘e_t for even t at the first
level, a row × matrix product above it.

Let δ be the smallest entry of P and pi0; each live column of e has its
maximum at 1.  When δ >= 2^-150 the scan runs in linear scale and keeps each
element as a nonnegative matrix whose largest row total is 1, times one log
scale.  A product X·Y is then a plain matrix product, rescaled: every term,
here and at the first level, is a product of numbers at most 1, so nothing
overflows.  Every element but element 0 starts with P·diag(e_t), so its row
totals lie within a factor δ of each other; element 0 and every prefix have
equal rows.  A first-level row totals at least δ², element 0's included,
and an even prefix row (q·P)∘e_t, with q summing to 1, at least δ.  Folding
X's row scales (each at least δ) into the product keeps every row total of
X·Y at or above δ² >= 2^-300, so a term that underflows or turns subnormal,
below 2^-1022, is under 2^-722 of its row.  All terms are nonnegative, so
nothing cancels, and a filtered probability well above the subnormal range
carries a relative error of O(M·log2 T·ε) against exact arithmetic on the
same e_t.  Fits draw Dirichlet rows and take this path.

Any smaller δ, as in P with zeros, an absorbing state or the identity, or a
pi0 entry that starts subnormal, takes the exact path: the same scan over
the factors P·diag(e_t) in log space, each element a log matrix shifted so
that its largest entry is 0, times one log scale.  Entry (i, k) of X·Y is
log sum_j exp(x_ij + y_jk), each sum shifted by its own largest term, so no
term overflows and no probability underflows before the last step turns
the prefix rows back into probabilities.  Each log entry comes from
O(log2 T) sums and log-sum-exps, each exact to a few ε relative to the
magnitude of its result plus O(M·ε); an absolute error in a log is a
relative error in the probability.  A filtered probability above the
subnormal range thus carries a relative error of O(log2 T·(M + L)·ε),
with L the largest magnitude, in nats, of a log entry along its products:
the log-odds that P, pi0 and the emissions build up between states.

The backward draw takes one uniform per time step from the caller's
Generator, so a path is a function of the filtered probabilities, the
transition matrix and the Generator state.  It picks the inverse-CDF state
for every (t, next state) pair at once, which gives T - 1 pick maps
S_{t+1} -> S_t.  Maps compose associatively, so the path comes from the
same prefix idea as the filter: neighbouring maps are composed L times by
pointer doubling, Python walks the at most _WALK = 320 coarsest maps, and
each finer level's odd positions are filled in by one gather.  L is the bit
length of (T - 1) // 320, so T <= 320 takes no level.  At T = 5000 this
walk costs about 120-190 µs against 400-580 µs for one Python step per t
(one core of a shared 2-vCPU x86 machine).

The state step keeps its reductions along the time axis, because numpy pays
once per time step for a reduction along a length-M axis.  The filter takes
its row maxima from the transposed (M, T) copy, about 8 µs against 240-310
µs for logem.max(axis=1) at T = 5000, M = 4, and the backward draw forms its
CDF over states by M - 1 whole-row adds, about 20 µs against 470 µs for
np.cumsum(axis=0).  A maximum is exact, and the row adds are np.cumsum's
sums in the same order, so both return the same bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FilterDegeneracyError, ParameterError

__all__ = [
    "FilteredProbs",
    "validate_transition_matrix",
    "validate_initial_distribution",
    "hamilton_filter",
    "sample_state_path",
    "count_transitions",
    "default_dirichlet_rows",
    "check_dirichlet_rows",
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


def validate_initial_distribution(pi0: np.ndarray | None, m: int) -> np.ndarray:
    """pi0 as a length-m probability vector, uniform when omitted; raises
    ParameterError for any other shape, a negative entry or a sum off 1."""
    if pi0 is None:
        return np.full(m, 1.0 / m)
    pi0 = np.asarray(pi0, dtype=float)
    if pi0.shape != (m,) or np.any(pi0 < 0) or not abs(pi0.sum() - 1.0) <= 1e-9:
        raise ParameterError("pi0 must be a length-M probability vector")
    return pi0


@dataclass
class FilteredProbs:
    """Filtered state distributions g(S_t | y_1..y_t) with the log-likelihood byproduct."""

    probs: np.ndarray  # (T, M), each row sums to 1
    loglik: float


# ---------------------------------------------------------------------------
# rescaled prefix scan
#
# An element is a stack of R×M matrices stored as (s, g) with shapes
# (R, M, n) and (n,), time on the last axis.  On the plain path matrix k is
# exp(g[k]) · s[:, :, k], s nonnegative with its largest row total 1; on the
# exact path it is exp(g[k] + s[:, :, k]), s a log matrix with its largest
# entry 0.  A zero matrix has g = -inf, and s = 0 (plain) or s = -inf (exact).
# The elements above the first level are M×M; the prefixes have equal rows
# and are kept as single rows, R = 1.

def _finite_or_zero(x: np.ndarray) -> np.ndarray:
    return np.where(x > -np.inf, x, 0.0)


def _rescaled(z: np.ndarray, g: np.ndarray):
    """Divide z in place by its largest row total and move the log of that
    total into g.  Element 0 and every prefix have equal rows, so a prefix
    row comes out summing to 1."""
    t = z.sum(axis=1).max(axis=0)
    z /= t + (t == 0.0)  # a zero matrix stays zero instead of 0/0
    return z, g + np.log(t)


def _product(sx, gx, sy, gy):
    """Products X·Y of two plain element stacks; the module docstring bounds
    what underflow drops when no entry of P and pi0 is below 2^-150."""
    return _rescaled(np.einsum("ijn,jkn->ikn", sx, sy), gx + gy)


def _log_rescaled(z: np.ndarray, g: np.ndarray):
    """Shift the log matrices z in place so that each largest entry is 0 and
    move the shift into g."""
    top = z.max(axis=(0, 1))
    z -= _finite_or_zero(top)
    return z, g + top


def _log_product(sx, gx, sy, gy):
    """Products X·Y of two exact element stacks: entry (i, k) is
    log sum_j exp(sx[i, j] + sy[j, k]), each sum shifted so that its largest
    term is exactly 1 and no term overflows."""
    a = sx[:, :, None] + sy
    top = _finite_or_zero(a.max(axis=1))
    a -= top[:, None]
    np.exp(a, out=a)
    return _log_rescaled(np.log(a.sum(axis=1)) + top, gx + gy)


def _log_factors(p: np.ndarray, loge: np.ndarray, pi0: np.ndarray):
    """The exact elements log P + log diag(e_t) for the columns of log e,
    the first with every row log(pi0∘e_0)."""
    z = np.log(p)[:, :, None] + loge
    z[:, :, 0] = np.log(pi0) + loge[:, 0]
    return _log_rescaled(z, np.zeros(loge.shape[1]))


def _prefixes(s: np.ndarray, g: np.ndarray, product):
    """The products of elements 0..t for every t, as R = 1 stacks, each
    product taken by product, _product or _log_product.

    Element 0 must have equal rows, so every prefix does too.  Pairs (0,1),
    (2,3), ... are multiplied as matrices, their prefixes found by the same
    scan on half as many elements, and each even element t then joins the
    prefix row ending at t - 1: about n matrix products and n row × matrix
    products in 2·ceil(log2 n) rounds.
    """
    n = s.shape[-1]
    if n == 1:
        return s[:1], g
    k = n // 2
    ps, pg = _prefixes(*product(s[..., 0:2 * k:2], g[0:2 * k:2], s[..., 1::2], g[1::2]), product)
    us, ug = np.empty((1,) + s.shape[1:]), np.empty(n)
    us[..., 0], ug[0] = s[:1, :, 0], g[0]
    us[..., 1::2], ug[1::2] = ps, pg
    h = (n - 1) // 2
    if h:
        us[..., 2::2], ug[2::2] = product(ps[..., :h], pg[:h], s[..., 2::2], g[2::2])
    return us, ug


def _pairs(ev: np.ndarray, od: np.ndarray, p: np.ndarray, pi0: np.ndarray):
    """The first-level plain elements from the even and odd columns of e (see
    the module docstring)."""
    m, k = od.shape
    ev = ev[:, :k]
    # row (a, c) of q holds P_ab P_bc over b, so the sum over b runs along time
    q = (p[:, :, None] * p).transpose(0, 2, 1).reshape(m * m, m)
    z = np.einsum("xb,bi->xi", q, ev).reshape(m, m, k)
    z[:, :, 0] = np.einsum("b,bc->c", pi0 * ev[:, 0], p)
    z *= od
    return _rescaled(z, np.zeros(k))


def _filter_rows(e: np.ndarray, p: np.ndarray, pi0: np.ndarray):
    """All prefix rows of the plain path, as an R = 1 stack: the odd ones from
    _prefixes on _pairs, prefix 0 = pi0∘e_0 and the even t >= 2 as
    (prefix_{t-1}·P)∘e_t."""
    m, n = e.shape
    h = (n + 1) // 2
    # contiguous copies run the sums along time about twice as fast
    ev, od = np.ascontiguousarray(e[:, 0::2]), np.ascontiguousarray(e[:, 1::2])
    # column j of z and of its scale gx is even prefix 2j, before e_2j
    z, gx = np.empty((1, m, h)), np.zeros(h)
    z[0, :, 0] = pi0
    if n > 1:
        ps, pg = _prefixes(*_pairs(ev, od, p, pi0), _product)
        np.einsum("jn,jk->kn", ps[0, :, :h - 1], p, out=z[0, :, 1:])
        gx[1:] = pg[:h - 1]
    z *= ev
    us, ug = np.empty((1, m, n)), np.empty(n)
    us[..., 0::2], ug[0::2] = _rescaled(z, gx)
    if n > 1:
        us[..., 1::2], ug[1::2] = ps, pg
    return us, ug


# ---------------------------------------------------------------------------
# backward walk by pointer doubling
#
# Column t of a pick map is the map S_{t+1} -> S_t.  Composing neighbouring
# columns halves their number; after L rounds a column maps S_{(k+1)·2^L} to
# S_{k·2^L}, and the walk over those columns is left to Python.

# most pick-map columns walked one step at a time in Python
_WALK = 320


def _follow(picks: np.ndarray, state: int) -> np.ndarray:
    """The states S_0..S_n with S_n = state and S_t = picks[S_{t+1}, t]."""
    m, n = picks.shape
    levels = (n // _WALK).bit_length()
    width = -(-n // (1 << levels)) << levels
    # identity maps past the end keep S_n
    maps = [np.concatenate([picks, np.repeat(np.arange(m)[:, None], width - n, axis=1)], axis=1)]
    # f[s, t] sits at flat index s·(columns of f) + t, so the composed map
    # s -> f[f[s, 2k+1], 2k] and the fill-in below are flat np.take gathers,
    # which cost about 3/4 of np.take_along_axis or two-array indexing
    for _ in range(levels):
        f = maps[-1]
        maps.append(np.take(f, f[:, 1::2] * f.shape[1] + np.arange(0, f.shape[1], 2)))
    coarse = maps.pop().tolist()
    states = [state] * (width // (1 << levels) + 1)
    for k in range(len(states) - 2, -1, -1):
        state = coarse[state][k]
        states[k] = state
    x = np.array(states)
    for f in reversed(maps):
        finer = np.empty(2 * x.size - 1, dtype=x.dtype)
        finer[0::2] = x
        finer[1::2] = np.take(f, x[1:] * f.shape[1] + np.arange(1, f.shape[1], 2))
        x = finer
    return x[:n + 1]


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
    prefixes come from one rescaled prefix scan (see the module docstring),
    whose first level is formed from e and P with no (M, M, T) factor stack.
    When no entry of P and pi0 is below 2^-150 the scan runs in linear scale,
    every row total is at least 2^-300 and what underflow drops is below
    2^-722 of its row; otherwise it runs in log space over the factors
    P·diag(e_t), where nothing underflows before the filtered rows are
    formed, and a filtered probability above the subnormal range carries a
    relative error of O(log2 T·(M + L)·ε), L the largest log-odds, in nats,
    built up along its products.  Row t of ``probs`` is the normalised prefix
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
    pi0 = validate_initial_distribution(pi0, m)
    # the row maxima are taken along the time axis of the transposed copy:
    # logem.max(axis=1) reduces one length-M row per time step
    loge = np.array(logem.T, order="C")
    mx = loge.max(axis=0)
    live = np.isfinite(mx)
    with np.errstate(divide="ignore", invalid="ignore"):
        loge -= np.where(live, mx, 0.0)
        loge[:, ~live] = -np.inf
        # the row-total bound of the module docstring
        if min(p.min(), pi0.min()) >= 2.0**-150:
            s, g = _filter_rows(np.exp(loge, out=loge), p, pi0)
        else:
            s, g = _prefixes(*_log_factors(p, loge, pi0), _log_product)
            s, g = _rescaled(np.exp(s), g)
    dead = ~(g > -np.inf)
    if dead.any():
        raise FilterDegeneracyError(
            f"every state has zero likelihood at t={int(np.argmax(dead))}; "
            "check emissions/parameters"
        )
    return FilteredProbs(probs=s[0].T.copy(), loglik=float(g[-1] + mx.sum()))


def sample_state_path(
    filt: FilteredProbs | np.ndarray, p: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Backward draw of a full state path from its joint smoothing distribution.

    S_T comes from the last filtered row; earlier states use
    P(S_t = i | S_{t+1}, y_1..y_t) proportional to p[i, S_{t+1}] * filtered[t, i].
    Each state is the inverse-CDF pick for one uniform (T of them, drawn in
    one call).  The pick is made for every (t, next state) pair at once, from
    a CDF over states summed by whole-row adds, giving the (M, T - 1) pick
    maps.  The path follows them back from S_T by pointer doubling (see the
    module docstring): the same lookups as a T-step loop, so the same path
    and the same Generator state.  ``filt`` must hold at least one row of M
    probabilities, M the size of ``p``, each finite and nonnegative, or
    ParameterError naming the first bad row is raised before any uniform is
    drawn.  Raises FilterDegeneracyError naming the largest t at which the
    path meets a zero-probability row, the t a step-by-step loop stops at.
    Returns labels 1..M.
    """
    probs = filt.probs if isinstance(filt, FilteredProbs) else np.asarray(filt, dtype=float)
    p = validate_transition_matrix(p)
    m = p.shape[0]
    if probs.ndim != 2 or probs.shape[0] < 1 or probs.shape[1] != m:
        raise ParameterError(
            f"filtered probabilities have shape {probs.shape}, expected (T >= 1, {m}) "
            f"for a transition matrix of shape {p.shape}"
        )
    t_len = probs.shape[0]
    rows = np.ascontiguousarray(probs[:-1].T)
    last = probs[-1]
    # a NaN is its array's min and max, and fails both comparisons
    if not (rows.min(initial=0.0) >= 0.0 and last.min() >= 0.0
            and rows.max(initial=0.0) < np.inf and last.max() < np.inf):
        bad = int(np.argmax(~((probs >= 0.0) & (probs < np.inf)).all(axis=1)))
        raise ParameterError(
            f"filtered probabilities must be finite and nonnegative; row t={bad} is {probs[bad]}"
        )
    uniforms = rng.random(t_len)
    # cdf[i, s, t] = sum_{k <= i} filtered[t, k] * p[k, s], the sums of
    # np.cumsum(axis=0) in the same order, one whole row at a time
    cdf = rows[:, None, :] * p[:, :, None]
    for i in range(1, m):
        cdf[i] += cdf[i - 1]
    total = cdf[-1]
    # picks[s, t] is S_t given S_{t+1} = s; the last row, total itself, never
    # lies below uniform * total, so it is left out of the count
    picks = (cdf[:-1] < uniforms[:-1] * total).sum(axis=0)
    last = np.cumsum(last)
    path = _follow(picks, int((last < uniforms[-1] * last[-1]).sum()))
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


def default_dirichlet_rows(n_states: int, diag: float = 8.0) -> np.ndarray:
    """Uniform rows for states 1-2, diagonally weighted rows above.

    The extra diagonal mass makes the model reluctant to leave the upper
    volatility states.
    """
    rows = np.ones((n_states, n_states))
    for j in range(2, n_states):
        rows[j, j] = diag
    return rows


def _check_rows(ok: np.ndarray, what: str, values: np.ndarray) -> None:
    """ParameterError naming the first row of ``values`` where ``ok`` fails."""
    bad = ~ok.all(axis=1)
    if bad.any():
        i = int(np.argmax(bad))
        raise ParameterError(f"{what}; row {i} is {values[i]}")


def check_dirichlet_rows(rows, m: int | None = None) -> np.ndarray:
    """The transition prior's Dirichlet concentrations as an (M, M) float array.

    M is ``m`` when given, else the number of rows.  ParameterError names the
    shape when it is not (M, M), else the first row with an entry that is not
    finite and > 0; a NaN fails both comparisons.
    """
    rows = np.asarray(rows, dtype=float)
    if m is None:
        m = rows.shape[0] if rows.ndim else 0
    if rows.shape != (m, m):
        raise ParameterError(f"Dirichlet prior rows must be ({m}, {m}), got shape {rows.shape}")
    _check_rows((rows > 0) & (rows < np.inf), "Dirichlet concentrations must be finite and > 0",
                rows)
    return rows


def sample_transition_matrix(
    counts: np.ndarray, row_priors: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Row i drawn from Dirichlet(row_priors[i] + transition counts out of state i+1).

    ``row_priors`` is the (M, M) matrix of finite positive prior
    concentrations and ``counts`` the (M, M) matrix of finite nonnegative
    counts; ParameterError naming the first bad row is raised before any draw.
    """
    counts = np.asarray(counts, dtype=float)
    m = counts.shape[0]
    if counts.shape != (m, m):
        raise ParameterError(f"transition counts must be ({m}, {m}), got shape {counts.shape}")
    conc = check_dirichlet_rows(row_priors, m)
    _check_rows((counts >= 0) & (counts < np.inf), "transition counts must be finite and >= 0",
                counts)
    out = np.empty((m, m))
    for i in range(m):
        out[i] = rng.dirichlet(conc[i] + counts[i])
    return out
