"""Hidden-state machinery: Hamilton forward filter, backward path sampling,
transition counting, the Dirichlet transition prior (default rows and the
one check of its shape and entries) and the transition-matrix draws.

State labels are 1..M everywhere in public arrays.

The forward filter needs the row vector pi0·diag(e_0)·P·diag(e_1)···P·diag(e_t)
for every t, where e_t holds the emission densities at t divided by their
row maximum.  The product is associative, so the n prefixes of each chunk
of the series (see Chunks below) come out of one parallel prefix scan
(Särkkä & García-Fernández, IEEE TAC 2021; Hassan, Särkkä &
García-Fernández, IEEE TSP 2021) in 2·ceil(log2 n) rounds instead of one
Python step per observation.  The first level is formed from the e_t
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
each finer level's odd positions are filled in by one gather.  For a chunk
of n maps L is the bit length of n // 320, so T <= 320 takes no level.

The state step keeps its reductions along the time axis, because numpy pays
once per time step for a reduction along a length-M axis: the filter takes
its row maxima from the emissions laid out as (M, T) rows, and the backward
draw forms its CDF over states by M - 1 whole-row adds.  A maximum is
exact, and the row adds are np.cumsum's sums in the same order, so both
return the same bits.

Chunks.  The filter and the backward draw run over time chunks of at most
_CHUNK = 2^14 steps, so a series of T <= 2^14 is one chunk.  Chunk c of the
filter starts from the previous chunk's last filtered row times P,
renormalised, as its pi0, and the log-likelihoods of the chunks add.  Each
entry of that row is at least the smallest entry of P, up to rounding, so
the scan's path is chosen once for the whole series from P and the given
pi0.  Past a chunk border the exact path carries the filtered row in linear
scale, as a step-by-step filter does: a probability that is subnormal there
keeps only its subnormal precision, and each border adds an error of about
L·ε to a log entry.  The backward draw takes all T uniforms in one call and
draws the chunks from the last one backwards, each followed back from the
next chunk's first state, so given the same filtered rows it picks the
states a single pass would.

Working memory.  The filter and the backward draw write every array of T
or more entries into a StateWorkspace built once for (T, M), so a chain's
sweeps stop allocating and freeing them, which on a long series the
allocator hands back to the kernel and faults in again on the next sweep.
The workspace keeps the (M, T) emission rows a model writes into, the
(M, T) filtered rows and their log scales, and the T uniforms of a path
draw: 2.5 times the (T, M) emission matrix at M = 4.  Beside them it keeps
one layout of working arrays per role (the filter's scan, the draw's CDF
and pick maps) and chunk length, each array its own, built on first use:
at most two layouts per role, for the full chunks and a shorter last one.
It keeps only what a sampler's sweep writes: emissions that are not the
transpose of C-contiguous rows are copied chunk by chunk into a fresh
array, and the exact path allocates its shifted logs and its final
rescaling scratch itself, as it does its (M, M, n) factors.
At M = 4 the two roles' arrays for a chunk of n steps take about 16.5
times an (n, M) emission matrix, so a workspace holds about 19.5 emission
matrices at T <= 2^14, 5.6 at T = 10^5 and 2.8 at T = 10^6; a warm
workspace leaves each call under one emission matrix of allocation.  The
filtered probabilities a filter call returns are a (T, M) view of the
filtered rows: they live in the workspace until the next filter call with
the same workspace.  Every operation keeps its order, so the numbers are
those of a fresh workspace.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import FilterDegeneracyError, ParameterError, check_entries, check_integer

__all__ = [
    "FilteredProbs",
    "StateWorkspace",
    "check_probability_rows",
    "validate_transition_matrix",
    "validate_initial_distribution",
    "hamilton_filter",
    "sample_state_path",
    "count_transitions",
    "default_dirichlet_rows",
    "check_dirichlet_rows",
    "sample_transition_matrix",
]


def check_probability_rows(probs: np.ndarray, what: str) -> None:
    """The package's row rule: ParameterError naming the first row of the
    2-D ``probs`` with an entry < 0 or a sum off 1 by more than 1e-9; NaN
    fails both."""
    ok = (probs >= 0) & (np.abs(probs.sum(axis=1, keepdims=True) - 1.0) <= 1e-9)
    check_entries(ok, f"{what} rows must sum to 1 with nonnegative entries", probs)


def validate_transition_matrix(p: np.ndarray) -> np.ndarray:
    """``p`` as a float array; ParameterError unless it is square with at
    least one state and passes the row rule."""
    p = np.asarray(p, dtype=float)
    if p.ndim != 2 or p.shape[0] != p.shape[1]:
        raise ParameterError(f"transition matrix must be square, got shape {p.shape}")
    if p.size == 0:
        raise ParameterError("a model needs at least one state, got 0")
    check_probability_rows(p, "transition-matrix")
    return p


def validate_initial_distribution(pi0: np.ndarray | None, m: int) -> np.ndarray:
    """pi0 as a length-m probability vector, uniform when omitted; raises
    ParameterError unless m is an integer >= 1, and for any other shape, a
    sum off 1 or a negative entry, which it names."""
    m = check_integer("m", m, 1)
    if pi0 is None:
        return np.full(m, 1.0 / m)
    pi0 = np.asarray(pi0, dtype=float)
    if pi0.shape != (m,) or not abs(pi0.sum() - 1.0) <= 1e-9:
        raise ParameterError("pi0 must be a length-M probability vector")
    check_entries(pi0 >= 0, "pi0 entries must be >= 0", pi0)
    return pi0


@dataclass
class FilteredProbs:
    """Filtered state distributions g(S_t | y_1..y_t) with the log-likelihood byproduct."""

    probs: np.ndarray  # (T, M), each row sums to 1
    loglik: float


# ---------------------------------------------------------------------------
# working memory
#
# The filter and the backward draw run over chunks of at most _CHUNK time
# steps.  A StateWorkspace keeps what spans the whole series (the emission
# rows, the filtered rows and their log scales, the uniforms), and one
# layout of working arrays per role and chunk length, each array its own.

# most time steps in one chunk of the filter and of the backward draw
_CHUNK = 2**14


def _chunks(t_len: int):
    """The (start, stop) bounds of the chunks of a series of t_len steps."""
    return [(start, min(start + _CHUNK, t_len)) for start in range(0, t_len, _CHUNK)]


def _scratch(r: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """A row-rescaling scratch: the (r, n) row totals and their (n,) maxima."""
    return np.empty((r, n)), np.empty(n)


def _pick_levels(n: int) -> tuple[int, int]:
    """For n pick maps, the number L of doubling levels (see _follow) and
    the columns of the first level: n rounded up to a multiple of 2^L."""
    levels = (n // _WALK).bit_length()
    return levels, -(-n // (1 << levels)) << levels


class _Level(NamedTuple):
    """One scan level's buffers: the ``out`` triple its elements, the
    products of the level below, are written into, its prefix rows and their
    log scales, and the scratch for rescaling its even prefix rows.  Level 0
    has no elements, and its prefix rows are the chunk's filtered rows."""

    elements: tuple | None
    prefix: np.ndarray | None
    prefix_scales: np.ndarray | None
    even_scratch: tuple


class _Scan:
    """The plain path's working arrays for a chunk of n steps: the even and
    odd emission columns, the even prefix rows, the row maxima and a flag per
    step, the scan levels and the rescaling scratch.  Level j holds
    N_j = n // 2^j elements, the products of level j - 1 (j >= 1), and their
    prefix rows.  The exact path uses the levels too, and allocates its
    shifted logs and its final rescaling scratch itself."""

    def __init__(self, n: int, m: int) -> None:
        h = (n + 1) // 2
        self.ev, self.od = np.empty((m, h)), np.empty((m, n // 2))
        self.z, self.gz = np.empty((1, m, h)), np.empty(h)
        self.mx, self.flags = np.empty(n), np.empty(n, bool)
        self.levels = [_Level(None, None, None, _scratch(1, (n - 1) // 2))]
        k = n // 2
        while k:
            self.levels.append(_Level((np.empty((m, m, k)), np.empty(k), _scratch(m, k)),
                                      np.empty((1, m, k)), np.empty(k), _scratch(1, (k - 1) // 2)))
            k //= 2
        self.final = _scratch(1, h)


class _Draw:
    """The backward draw's working arrays for a chunk of n pick maps: the
    CDF over states for every next state, the comparison buffers, the pick
    maps, composed level by level, the flat gather indices, the fill-in
    states of every level and the column numbers 0, 1, 2, ... of the first
    map level."""

    def __init__(self, n: int, m: int) -> None:
        self.n = n
        levels, width = _pick_levels(n)
        state = np.min_scalar_type(m - 1)
        self.cdf, self.thr = np.empty((m, m, n)), np.empty((m, n))
        self.below = np.empty((m - 1, m, n), bool)
        self.maps = [np.empty((m, width >> j), state) for j in range(levels + 1)]
        self.compose = [np.empty((m, width >> j), np.intp) for j in range(1, levels + 1)]
        self.odd, self.odd_states = np.empty(width // 2, np.intp), np.empty(width // 2, state)
        self.fill = [np.empty((width >> j) + 1, np.intp) for j in range(levels + 1)]
        self.cols = np.arange(width, dtype=np.intp)


class StateWorkspace:
    """The working memory of the state step for T observations and M states.

    ``hamilton_filter`` and ``sample_state_path`` take one as ``work`` and
    write every array of T or more entries into it; each builds a fresh one
    when given none, and refuses one built for another (T, M).
    ``emission`` is an (M, T) buffer a model may write its log emissions
    into and hand to the filter as ``emission.T``.  The filtered
    probabilities a filter call returns are a view of ``rows``, valid until
    the next filter call with the same workspace.  Besides the emission
    rows, the filtered rows and their log scales ``g`` and the T uniforms of
    a path draw, 2.5 times the (T, M) emission matrix at M = 4, it keeps the
    filter's and the draw's arrays for a chunk of at most _CHUNK steps, each
    built on first use, only those a sampler's sweep writes: about 19.5
    emission matrices in all at T <= 2^14 (see the module docstring).
    """

    def __init__(self, t_len: int, m: int) -> None:
        t_len, m = check_integer("t_len", t_len, 1), check_integer("m", m, 1)
        self.shape = (t_len, m)
        self.emission, self.rows = np.empty((m, t_len)), np.empty((1, m, t_len))
        self.g, self.uniforms = np.empty(t_len), np.empty(t_len)
        self._scans: dict[int, _Scan] = {}
        self._draws: dict[int, _Draw] = {}

    def scan(self, n: int) -> _Scan:
        """The filter's working arrays for a chunk of n steps."""
        if n not in self._scans:
            self._scans[n] = _Scan(n, self.shape[1])
        return self._scans[n]

    def draw(self, n: int) -> _Draw:
        """The backward draw's working arrays for a chunk of n pick maps."""
        if n not in self._draws:
            self._draws[n] = _Draw(n, self.shape[1])
        return self._draws[n]


def _workspace(work: StateWorkspace | None, t_len: int, m: int) -> StateWorkspace:
    """``work``, or a fresh workspace when it is None; ParameterError naming
    both shapes when it was built for another (T, M)."""
    if work is None:
        return StateWorkspace(t_len, m)
    if work.shape != (t_len, m):
        raise ParameterError(
            f"workspace is sized for (T, M) = {work.shape}, but this call has {(t_len, m)}"
        )
    return work


# ---------------------------------------------------------------------------
# rescaled prefix scan
#
# An element is a stack of R×M matrices stored as (s, g) with shapes
# (R, M, n) and (n,), time on the last axis.  On the plain path matrix k is
# exp(g[k]) · s[:, :, k], s nonnegative with its largest row total 1; on the
# exact path it is exp(g[k] + s[:, :, k]), s a log matrix with its largest
# entry 0.  A zero matrix has g = -inf, and s = 0 (plain) or s = -inf (exact).
# The elements above the first level are M×M; the prefixes have equal rows
# and are kept as single rows, R = 1.  A product writes its elements and
# their scales into ``out``, an (elements, scales, scratch) triple.

def _finite_or_zero(x: np.ndarray) -> np.ndarray:
    return np.where(x > -np.inf, x, 0.0)


def _rescaled(z: np.ndarray, g, out: np.ndarray, scratch: tuple):
    """Divide z in place by its largest row total and return it with g plus
    the log of that total, written into ``out``.  Element 0 and every prefix
    have equal rows, so a prefix row comes out summing to 1.  ``scratch``
    holds the (R, n) row totals and the (n,) largest of them."""
    sums, t = scratch
    sums = np.add.reduce(z, 1, out=sums)
    t = np.maximum.reduce(sums, 0, out=t)
    # a zero matrix stays zero instead of 0/0
    z /= np.add(t, np.equal(t, 0.0, out=sums[0]), out=sums[0])
    return z, np.add(g, np.log(t, out=t), out=out)


def _product(sx, gx, sy, gy, out):
    """Products X·Y of two plain element stacks; the module docstring bounds
    what underflow drops when no entry of P and pi0 is below 2^-150."""
    z, g, scratch = out
    np.einsum("ijn,jkn->ikn", sx, sy, out=z)
    return _rescaled(z, np.add(gx, gy, out=g), g, scratch)


def _log_rescaled(z: np.ndarray, g: np.ndarray):
    """Shift the log matrices z in place so that each largest entry is 0 and
    add the shift to g in place."""
    top = z.max(axis=(0, 1))
    z -= _finite_or_zero(top)
    g += top
    return z, g


def _log_product(sx, gx, sy, gy, out):
    """Products X·Y of two exact element stacks: entry (i, k) is
    log sum_j exp(sx[i, j] + sy[j, k]), each sum shifted so that its largest
    term is exactly 1 and no term overflows."""
    z, g, _ = out
    a = sx[:, :, None] + sy
    top = _finite_or_zero(a.max(axis=1))
    a -= top[:, None]
    np.exp(a, out=a)
    np.add(np.log(a.sum(axis=1)), top, out=z)
    return _log_rescaled(z, np.add(gx, gy, out=g))


def _log_factors(p: np.ndarray, loge: np.ndarray, pi0: np.ndarray):
    """The exact elements log P + log diag(e_t) for the columns of log e,
    the first with every row log(pi0∘e_0)."""
    z = np.log(p)[:, :, None] + loge
    z[:, :, 0] = np.log(pi0) + loge[:, 0]
    return _log_rescaled(z, np.zeros(loge.shape[1]))


def _prefixes(s: np.ndarray, g: np.ndarray, product, levels: list, us: np.ndarray,
              ug: np.ndarray):
    """The products of elements 0..t for every t, as R = 1 stacks written
    into ``us`` and ``ug``, each product taken by product, _product or
    _log_product.

    ``levels[j]`` holds the buffers of the elements 2^j times coarser than
    s.  Element 0 must have equal rows, so every prefix does too.  Pairs
    (0,1), (2,3), ... are multiplied as matrices, their prefixes found by
    the same scan on half as many elements, and each even element t then
    joins the prefix row ending at t - 1: about n matrix products and n
    row × matrix products in 2·ceil(log2 n) rounds.
    """
    n = s.shape[-1]
    us[..., 0], ug[0] = s[:1, :, 0], g[0]
    if n == 1:
        return us, ug
    k, up = n // 2, levels[1]
    ps, pg = _prefixes(
        *product(s[..., 0:2 * k:2], g[0:2 * k:2], s[..., 1::2], g[1::2], up.elements),
        product, levels[1:], up.prefix, up.prefix_scales)
    us[..., 1::2], ug[1::2] = ps, pg
    h = (n - 1) // 2
    if h:
        product(ps[..., :h], pg[:h], s[..., 2::2], g[2::2],
                (us[..., 2::2], ug[2::2], levels[0].even_scratch))
    return us, ug


def _pairs(ev: np.ndarray, od: np.ndarray, p: np.ndarray, pi0: np.ndarray, out):
    """The first-level plain elements from the even and odd columns of e (see
    the module docstring), written into ``out``."""
    m, k = od.shape
    ev = ev[:, :k]
    z, g, scratch = out
    # row (a, c) of q holds P_ab P_bc over b, so the sum over b runs along time
    q = (p[:, :, None] * p).transpose(0, 2, 1).reshape(m * m, m)
    np.einsum("xb,bi->xi", q, ev, out=z.reshape(m * m, k))
    z[:, :, 0] = np.einsum("b,bc->c", pi0 * ev[:, 0], p)
    z *= od
    return _rescaled(z, 0.0, g, scratch)


def _filter_rows(loge: np.ndarray, shift: np.ndarray, p: np.ndarray, pi0: np.ndarray,
                 scan: _Scan, us: np.ndarray, ug: np.ndarray):
    """All prefix rows of the plain path, as an R = 1 stack written into
    ``us`` and ``ug``, from the emissions e = exp(loge - shift): the odd ones
    from _prefixes on _pairs, prefix 0 = pi0∘e_0 and the even t >= 2 as
    (prefix_{t-1}·P)∘e_t."""
    m, n = loge.shape
    h = (n + 1) // 2
    # contiguous even and odd columns run the sums along time about twice as fast
    ev = np.exp(np.subtract(loge[:, 0::2], shift[0::2], out=scan.ev), out=scan.ev)
    od = np.exp(np.subtract(loge[:, 1::2], shift[1::2], out=scan.od), out=scan.od)
    # column j of z and of its scale gx is even prefix 2j, before e_2j
    z, gx = scan.z, scan.gz
    gx[0] = 0.0
    if n > 1:
        up = scan.levels[1]
        ps, pg = _prefixes(*_pairs(ev, od, p, pi0, up.elements), _product, scan.levels[1:],
                           up.prefix, up.prefix_scales)
        np.einsum("jn,jk->kn", ps[0, :, :h - 1], p, out=z[0, :, 1:])
        gx[1:] = pg[:h - 1]
    z[0, :, 0] = pi0
    z *= ev
    _rescaled(z, gx, ug[0::2], scan.final)
    us[..., 0::2] = z
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


def _follow(draw: _Draw, state: int) -> np.ndarray:
    """The states S_0..S_n with S_n = state and S_t = picks[S_{t+1}, t], the
    picks in the first n columns of draw.maps[0]."""
    maps, cols, n = draw.maps, draw.cols, draw.n
    m = maps[0].shape[0]
    # identity maps past the end keep S_n
    maps[0][:, n:] = np.arange(m)[:, None]
    # f[s, t] sits at flat index s·(columns of f) + t, so the composed map
    # s -> f[f[s, 2k+1], 2k] and the fill-in below are flat np.take gathers,
    # which cost about 3/4 of np.take_along_axis or two-array indexing;
    # mode="clip" writes straight into ``out`` (every index is in range)
    for f, composed, index in zip(maps, maps[1:], draw.compose):
        # a cast or a broadcast inside a ufunc takes a buffer the size of a
        # row, so the copy casts, and the even column numbers go row by row
        np.copyto(index, f[:, 1::2])
        index *= f.shape[1]
        for row in index:
            row += cols[0:f.shape[1]:2]
        np.take(f, index, out=composed, mode="clip")
    coarse = maps[-1].tolist()
    states = [state] * (maps[-1].shape[1] + 1)
    for k in range(len(states) - 2, -1, -1):
        state = coarse[state][k]
        states[k] = state
    x = draw.fill[-1]
    x[:] = states
    for f, finer in zip(reversed(maps[:-1]), reversed(draw.fill[:-1])):
        odd, odd_states = draw.odd[:x.size - 1], draw.odd_states[:x.size - 1]
        finer[0::2] = x
        np.multiply(x[1:], f.shape[1], out=odd)
        odd += cols[1:f.shape[1]:2]
        finer[1::2] = np.take(f, odd, out=odd_states, mode="clip")
        x = finer
    return x[:n + 1]


# ---------------------------------------------------------------------------
# public operations


def _check_emissions(logem: np.ndarray) -> None:
    """ParameterError naming the first row of the (T, M) log emissions that
    holds a NaN or +inf: such an entry is its row's max and fails the comparison."""
    check_entries(np.less(logem.max(axis=1), np.inf), "log emissions must be finite or -inf", logem)


def hamilton_filter(
    emission_logpdf: np.ndarray,
    t_len: int,
    p: np.ndarray,
    pi0: np.ndarray | None = None,
    work: StateWorkspace | None = None,
) -> FilteredProbs:
    """Forward filter: row t is g(S_t = . | y_1..y_t); loglik is the sum of
    the one-step predictive log f(y_t | y_1..y_{t-1}).

    ``emission_logpdf`` is the (T, M) array of log emission densities, row t
    for observation t, column j for state label j+1.  ``pi0`` is the distribution
    of the first state; uniform when omitted.  ``work`` is the StateWorkspace
    for (T, M) that holds every array of T or more entries; a fresh one is
    built when it is None, and ParameterError naming both shapes is raised
    when it was built for another (T, M).  ``probs`` is a (T, M) view of the
    workspace, valid until the next call with the same workspace.

    The unnormalised filter at t is pi0·diag(e_0)·P·diag(e_1)···P·diag(e_t),
    with e_t the emission densities divided by their row maximum.  The
    prefixes of each chunk of at most _CHUNK steps come from one rescaled
    prefix scan (see the module docstring), whose first level is formed from
    e and P with no (M, M, n) factor stack; a later chunk starts from the
    predicted row of the chunk before it.
    When no entry of P and pi0 is below 2^-150 the scan runs in linear scale,
    every row total is at least 2^-300 and what underflow drops is below
    2^-722 of its row; otherwise it runs in log space over the factors
    P·diag(e_t), where nothing underflows before the filtered rows are
    formed, and a filtered probability above the subnormal range carries a
    relative error of O(log2 T·(M + L)·ε), L the largest log-odds, in nats,
    built up along its products, plus about L·ε per chunk border.  Row t of
    ``probs`` is the normalised prefix t, and ``loglik`` is the sum over the
    chunks of the log scale of the chunk's last prefix plus its row maxima.
    A NaN or +inf log emission raises ParameterError naming the first row
    that holds one.  Raises FilterDegeneracyError naming the first t at
    which every state has zero predictive likelihood.
    """
    p = validate_transition_matrix(p)
    m = p.shape[0]
    t_len = check_integer("t_len", t_len, 1)
    logem = np.asarray(emission_logpdf, dtype=float)
    if logem.shape != (t_len, m):
        raise ParameterError(f"emission array has shape {logem.shape}, expected {(t_len, m)}")
    pi0 = validate_initial_distribution(pi0, m)
    work = _workspace(work, t_len, m)
    # the row maxima are taken along the time axis of the (M, T) layout, a
    # model's emission rows or a copy: logem.max(axis=1) reduces one length-M
    # row per time step
    loge = logem.T
    copy = not loge.flags.c_contiguous
    # the row-total bound of the module docstring; a later chunk's pi0 is a
    # predicted row, each entry at least the smallest entry of P
    plain = min(p.min(), pi0.min()) >= 2.0**-150
    loglik = 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        for start, stop in _chunks(t_len):
            scan = work.scan(stop - start)
            chunk = loge[:, start:stop].copy() if copy else loge[:, start:stop]
            mx = np.maximum.reduce(chunk, 0, out=scan.mx)
            # a NaN or +inf entry is its row's max and fails the comparison
            if not mx.max() < np.inf:
                _check_emissions(logem)
            top = mx.sum()
            # an all -inf row stays -inf: nothing is subtracted from it, and
            # its prefix is zero, so the filter fails below without reading ``top``
            np.copyto(mx, 0.0, where=np.equal(mx, -np.inf, out=scan.flags))
            us, ug = work.rows[..., start:stop], work.g[start:stop]
            if plain:
                _filter_rows(chunk, mx, p, pi0, scan, us, ug)
            else:
                _prefixes(*_log_factors(p, chunk - mx, pi0), _log_product, scan.levels, us, ug)
                _rescaled(np.exp(us, out=us), ug, ug, _scratch(1, stop - start))
            if not ug.min() > -np.inf:
                # a bad emission anywhere in the series is named first
                _check_emissions(logem)
                t = start + int(np.argmax(~(ug > -np.inf)))
                raise FilterDegeneracyError(
                    f"every state has zero likelihood at t={t}; check emissions/parameters"
                )
            loglik += ug[-1] + top
            # the next chunk starts from the predicted distribution
            pi0 = us[0, :, -1] @ p
            pi0 /= pi0.sum()
    return FilteredProbs(probs=work.rows[0].T, loglik=float(loglik))


def sample_state_path(
    filt: FilteredProbs | np.ndarray, p: np.ndarray, rng: np.random.Generator,
    work: StateWorkspace | None = None,
) -> np.ndarray:
    """Backward draw of a full state path from its joint smoothing distribution.

    S_T comes from the last filtered row; earlier states use
    P(S_t = i | S_{t+1}, y_1..y_t) proportional to p[i, S_{t+1}] * filtered[t, i].
    Each state is the inverse-CDF pick for one uniform (T of them, drawn in
    one call).  The pick is made for every (t, next state) pair at once, from
    a CDF over states summed by whole-row adds, giving the (M, T - 1) pick
    maps, one chunk of at most _CHUNK maps at a time from the last.  The path
    follows each chunk's maps back from the state after it by pointer
    doubling (see the module docstring): the same lookups as a T-step loop,
    so the same path and the same Generator state.  ``filt`` must hold at
    least one row of M probabilities, M the size of ``p``, each finite and
    nonnegative, or ParameterError naming the first bad row is raised before
    any uniform is drawn.  ``work`` is the StateWorkspace for (T, M) that holds every
    working array; a fresh one is built when it is None, and ParameterError
    naming both shapes is raised when it was built for another (T, M).
    Raises FilterDegeneracyError naming the largest t at which the path
    meets a zero-probability row, the t a step-by-step loop stops at.
    Returns a new array of labels 1..M.
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
    work = _workspace(work, t_len, m)
    # the filter's probs are a transposed view, so these rows are contiguous
    rows = probs[:-1].T
    last = probs[-1]
    # a NaN is its array's min and max, and fails both comparisons
    if not (rows.min(initial=0.0) >= 0.0 and last.min() >= 0.0
            and rows.max(initial=0.0) < np.inf and last.max() < np.inf):
        check_entries((probs >= 0.0) & (probs < np.inf),
                      "filtered probabilities must be finite and nonnegative", probs)
    uniforms = rng.random(out=work.uniforms)
    last = np.cumsum(last)
    state = int((last < uniforms[-1] * last[-1]).sum())
    path = np.empty(t_len, np.intp)
    # chunk by chunk from the last, each followed back from its successor's first state
    for start, stop in reversed(_chunks(t_len)):
        n = min(stop, t_len - 1) - start
        draw = work.draw(n)
        # cdf[i, s, t] = sum_{k <= i} filtered[t, k] * p[k, s], the sums of
        # np.cumsum(axis=0) in the same order, one whole row at a time
        cdf = np.multiply(rows[:, None, start:start + n], p[:, :, None], out=draw.cdf)
        for i in range(1, m):
            cdf[i] += cdf[i - 1]
        total = cdf[-1]
        # picks[s, t] is S_t given S_{t+1} = s; the last row, total itself,
        # never lies below uniform * total, so it is left out of the count
        below = np.less(cdf[:-1], np.multiply(uniforms[start:start + n], total, out=draw.thr),
                        out=draw.below)
        np.add.reduce(below, 0, dtype=draw.maps[0].dtype, out=draw.maps[0][:, :n])
        states = _follow(draw, state)
        # a path can meet a zero total only where one exists
        if not total.min(initial=np.inf) > 0.0:
            zero = ~(total[states[1:], np.arange(n)] > 0.0)
            if zero.any():
                raise FilterDegeneracyError(
                    "backward sampling hit a zero-probability row at "
                    f"t={start + int(np.flatnonzero(zero)[-1])}"
                )
        np.add(states, 1, out=path[start:start + n + 1])
        state = int(states[0])
    return path


def count_transitions(path: np.ndarray, m: int) -> np.ndarray:
    """Entry (i, j) counts steps with S_{t-1} = i+1, S_t = j+1; total is T-1.

    ``m`` must be an integer >= 1.  The labels may have any integer dtype;
    ParameterError names the first one outside 1..m."""
    m = check_integer("m", m, 1)
    path = np.asarray(path)
    if path.ndim != 1 or path.size == 0:
        raise ParameterError("state path must be a nonempty vector")
    if not np.issubdtype(path.dtype, np.integer):
        raise ParameterError(f"state labels must be integers, got dtype {path.dtype}")
    if path.min() < 1 or path.max() > m:
        check_entries((path >= 1) & (path <= m), f"state labels must lie in 1..{m}", path)
    # the pair index reaches m*m - 1, past int8 at m = 12 and int16 at m = 182
    path = path.astype(np.intp, copy=False)
    return np.bincount((path[:-1] - 1) * m + path[1:] - 1, minlength=m * m).reshape(m, m)


def default_dirichlet_rows(n_states: int, diag: float = 8.0) -> np.ndarray:
    """Uniform rows for states 1-2, diagonally weighted rows above.

    The extra diagonal mass makes the model reluctant to leave the upper
    volatility states.
    """
    n_states = check_integer("n_states", n_states, 1)
    rows = np.ones((n_states, n_states))
    for j in range(2, n_states):
        rows[j, j] = diag
    return rows


def check_dirichlet_rows(rows, m: int | None = None) -> np.ndarray:
    """The transition prior's Dirichlet concentrations as an (M, M) float array.

    M is ``m`` when given, which must be an integer >= 0, else the number of
    rows.  ParameterError when M is 0, names the shape when it is not (M, M),
    else the first row with an entry that is not finite and > 0; a NaN fails
    both comparisons.
    """
    rows = np.asarray(rows, dtype=float)
    if m is None:
        m = rows.shape[0] if rows.ndim else 0
    m = check_integer("m", m)
    if m < 1:
        raise ParameterError(f"a model needs at least one state, got {m}")
    if rows.shape != (m, m):
        raise ParameterError(f"Dirichlet prior rows must be ({m}, {m}), got shape {rows.shape}")
    check_entries((rows > 0) & (rows < np.inf), "Dirichlet concentrations must be finite and > 0",
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
    m = counts.shape[0] if counts.ndim else 0
    if counts.shape != (m, m):
        raise ParameterError(f"transition counts must be ({m}, {m}), got shape {counts.shape}")
    conc = check_dirichlet_rows(row_priors, m)
    check_entries((counts >= 0) & (counts < np.inf), "transition counts must be finite and >= 0",
                  counts)
    out = np.empty((m, m))
    for i in range(m):
        out[i] = rng.dirichlet(conc[i] + counts[i])
    return out
