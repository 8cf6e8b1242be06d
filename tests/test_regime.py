import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regimevol import (
    FilterDegeneracyError,
    ParameterError,
    hamilton_filter,
    sample_state_path,
)
from regimevol import regime
from regimevol.regime import (
    count_transitions,
    sample_transition_matrix,
    validate_transition_matrix,
)

from oracles import enumerate_filtered_probs, enumerate_path_posterior


def _random_instance(rng, t_len, m, spread=2.0):
    """Random transition matrix, initial law and Gaussian log emissions."""
    p = rng.dirichlet(np.ones(m) * 2.0, size=m)
    pi0 = rng.dirichlet(np.ones(m))
    means = np.linspace(-spread, spread, m)
    y = rng.normal(0.0, 1.5, t_len)
    logem = -0.5 * (y[:, None] - means[None, :]) ** 2 - 0.5 * math.log(2 * math.pi)
    return logem, p, pi0


# ---------------------------------------------------------------------------
# hamilton_filter


def test_filter_single_state():
    logem = np.log(np.array([[0.3], [0.7], [0.2]]))
    filt = hamilton_filter(logem, 3, np.array([[1.0]]), np.array([1.0]))
    np.testing.assert_allclose(filt.probs, 1.0)
    assert filt.loglik == pytest.approx(float(logem.sum()))


def test_filter_uninformative_emissions_stay_uniform():
    t_len, m = 9, 3
    logem = np.full((t_len, m), -1.3)
    p = np.full((m, m), 1.0 / m)
    filt = hamilton_filter(logem, t_len, p, np.full(m, 1.0 / m))
    np.testing.assert_allclose(filt.probs, 1.0 / m, atol=1e-14)


def test_filter_matches_enumeration_small_instances():
    rng = np.random.default_rng(42)
    for _ in range(12):
        t_len = int(rng.integers(2, 9))
        m = int(rng.integers(1, 4))
        logem, p, pi0 = _random_instance(rng, t_len, m)
        filt = hamilton_filter(logem, t_len, p, pi0)
        exact = enumerate_filtered_probs(logem, p, pi0)
        np.testing.assert_allclose(filt.probs, exact, atol=1e-10)
        np.testing.assert_allclose(filt.probs.sum(axis=1), 1.0, atol=1e-10)
        joint = enumerate_path_posterior(logem, p, pi0)
        assert filt.loglik == pytest.approx(joint.loglik, abs=1e-9)


def test_filter_loglik_invariant_under_relabeling():
    rng = np.random.default_rng(7)
    logem, p, pi0 = _random_instance(rng, 12, 3)
    perm = np.array([2, 0, 1])
    filt = hamilton_filter(logem, 12, p, pi0)
    filt_perm = hamilton_filter(
        logem[:, perm], 12, p[np.ix_(perm, perm)], pi0[perm]
    )
    assert filt.loglik == pytest.approx(filt_perm.loglik, abs=1e-12)
    np.testing.assert_allclose(filt.probs[:, perm], filt_perm.probs, atol=1e-12)


def test_filter_degeneracy_names_time():
    logem = np.zeros((4, 2))
    logem[2] = -np.inf
    with pytest.raises(FilterDegeneracyError, match="t=2"):
        hamilton_filter(logem, 4, np.array([[0.5, 0.5], [0.5, 0.5]]))


# ---------------------------------------------------------------------------
# sample_state_path


def test_backward_sampling_single_state():
    filt = hamilton_filter(np.full((6, 1), -0.9), 6, np.array([[1.0]]))
    path = sample_state_path(filt, np.array([[1.0]]), np.random.default_rng(0))
    np.testing.assert_array_equal(path, np.ones(6, dtype=int))


def test_backward_sampling_absorbing_identity():
    probs = np.tile(np.array([0.3, 0.7]), (5, 1))
    probs[-1] = [0.0, 1.0]
    path = sample_state_path(probs, np.eye(2), np.random.default_rng(1))
    np.testing.assert_array_equal(path, np.full(5, 2))


def test_backward_sampling_matches_enumerated_joint():
    rng = np.random.default_rng(3)
    t_len, m = 5, 2
    logem, p, pi0 = _random_instance(rng, t_len, m, spread=1.0)
    filt = hamilton_filter(logem, t_len, p, pi0)
    exact = enumerate_path_posterior(logem, p, pi0)
    n_draws = 100_000
    counts = {}
    for _ in range(n_draws):
        path = tuple(sample_state_path(filt, p, rng))
        counts[path] = counts.get(path, 0) + 1
    for path_row, prob in zip(exact.paths, exact.probs):
        freq = counts.get(tuple(path_row), 0) / n_draws
        se = math.sqrt(prob * (1 - prob) / n_draws)
        assert abs(freq - prob) < 3 * se + 1e-6


def test_backward_sampling_time_marginals():
    rng = np.random.default_rng(4)
    t_len, m = 6, 3
    logem, p, pi0 = _random_instance(rng, t_len, m)
    filt = hamilton_filter(logem, t_len, p, pi0)
    exact = enumerate_path_posterior(logem, p, pi0)
    n_draws = 100_000
    hits = np.zeros((t_len, m))
    for _ in range(n_draws):
        path = sample_state_path(filt, p, rng)
        hits[np.arange(t_len), path - 1] += 1
    freq = hits / n_draws
    se = np.sqrt(exact.marginals * (1 - exact.marginals) / n_draws)
    assert np.all(np.abs(freq - exact.marginals) < 3 * se + 1e-6)


# ---------------------------------------------------------------------------
# sequential oracles: the filter and the backward draw one time step at a
# time, the arithmetic of the prefix scan and the vectorised draw in step order


def _loop_filter(logem, p, pi0):
    t_len, m = logem.shape
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
    return probs, float(loglik)


def _loop_path(probs, p, rng):
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


def _oracle_cases(m, t_len, rng):
    """Transition matrices of every kind the oracle comparison covers, each
    with log emissions whose level moves over 1000 nats along the series.

    Dirichlet rows with concentrations 1 and 5 have no entry near zero and
    come with within-row spreads of 1000 nats, so emissions underflow to
    exact zeros; concentration 0.3 comes with 100 nats and 20 with 1.
    Matrices with exact zeros (random zeros, an absorbing state, the
    identity) come with spreads of 30 nats, 5 at T = 5000, and rows with
    concentration 0.05, whose entries fall to 1e-30 and below, with 10 nats:
    the log-odds between states that P barely mixes then stay within a few
    hundred nats.  Past about 708 nats a filtered probability is subnormal and
    the loop loses it for good, so it is no oracle there.

    For M >= 2 two more cases follow.  In one, a random set of states, never
    all of them, has -inf emissions in each row, so the row maxima come from
    the live states only.  In the other (T >= 4), P = I and the first state
    starts at 2^-1030, a subnormal; the emissions are equal across states
    until a seeded offset, and over that row and the next the other states
    fall 800 to 1100 nats behind.  The first state then dominates, and the
    others keep filtered probabilities of about 1e-38 to 1e-168, which the
    loop computes to full precision; a linear-scale scan loses them, so this
    case fails unless the exact path runs in log space.
    """
    level = rng.uniform(-1000.0, 0.0, (t_len, 1))
    for conc, spread in [(0.05, 10.0), (0.3, 100.0), (1.0, 1000.0), (5.0, 1000.0), (20.0, 1.0)]:
        p = rng.dirichlet(np.full(m, conc), size=m)
        yield f"dirichlet{conc}", p, rng.dirichlet(np.ones(m)), level - spread * rng.random((t_len, m))
    zeros = rng.dirichlet(np.ones(m), size=m) * (rng.random((m, m)) < 0.6)
    zeros[np.arange(m), rng.integers(0, m, m)] += 0.1
    absorbing = rng.dirichlet(np.ones(m), size=m)
    absorbing[0] = np.eye(m)[0]
    for name, p in [("zeros", zeros), ("absorbing", absorbing), ("identity", np.eye(m))]:
        p = p / p.sum(axis=1, keepdims=True)
        spread = 30.0 if t_len <= 300 else 5.0
        yield name, p, rng.dirichlet(np.ones(m)), level - spread * rng.random((t_len, m))
    if m >= 2:
        logem = level - 30.0 * rng.random((t_len, m))
        dead = rng.random((t_len, m)) < 0.5
        dead[np.arange(t_len), rng.integers(0, m, t_len)] = False
        logem[dead] = -np.inf
        yield "partly_dead", rng.dirichlet(np.ones(m), size=m), rng.dirichlet(np.ones(m)), logem
    if m >= 2 and t_len >= 4:
        pi0 = np.concatenate([[2.0**-1030], rng.dirichlet(np.ones(m - 1))])
        t0 = int(rng.integers(1, t_len - 1))
        logem = np.repeat(level, m, axis=1)
        logem[t0:t0 + 2, 1:] -= rng.uniform(400.0, 550.0)
        yield "subnormal", np.eye(m), pi0, logem


@pytest.mark.parametrize("t_len", [1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 17, 33, 300, 5000])
@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_filter_and_path_match_loop_oracles(m, t_len):
    rng = np.random.default_rng(1000 * m + t_len)
    for name, p, pi0, logem in _oracle_cases(m, t_len, rng):
        probs, loglik = _loop_filter(logem, p, pi0)
        filt = hamilton_filter(logem, t_len, p, pi0)
        shown = probs > 1e-200
        np.testing.assert_allclose(filt.probs[shown], probs[shown], rtol=1e-12, atol=0, err_msg=name)
        assert filt.loglik == pytest.approx(loglik, rel=1e-12), name

        seed = int(rng.integers(2**32))
        loop_rng, rng_new = np.random.default_rng(seed), np.random.default_rng(seed)
        expected = _loop_path(probs, p, loop_rng)
        np.testing.assert_array_equal(sample_state_path(probs, p, rng_new), expected, err_msg=name)
        assert rng_new.bit_generator.state == loop_rng.bit_generator.state, name


def test_filter_keeps_subnormal_mass_that_later_dominates():
    # state 1 starts at 2**-1030, a subnormal; over t = 2, 3 state 2 falls
    # 800 nats behind, so the scan composes a subnormal row entry with a
    # segment whose row scales differ by more than the exponent range
    logem = np.array([[0.0, 0.0], [0.0, 0.0], [0.0, -400.0], [0.0, -400.0]])
    p, pi0 = np.eye(2), np.array([2.0**-1030, 1.0])
    probs, loglik = _loop_filter(logem, p, pi0)
    filt = hamilton_filter(logem, 4, p, pi0)
    np.testing.assert_allclose(filt.probs[2:], probs[2:], rtol=1e-12, atol=0)
    assert filt.probs[3, 0] == pytest.approx(1.0)
    assert filt.loglik == pytest.approx(loglik, rel=1e-12)


def _counting(monkeypatch, name, arg):
    """Count the calls of regime.<name>, each by the length of the last axis
    of its argument number arg: the elements or emission columns it is given."""
    calls = []
    exact = getattr(regime, name)

    def counted(*args):
        calls.append(args[arg].shape[-1])
        return exact(*args)

    monkeypatch.setattr(regime, name, counted)
    return calls


def _counting_log_product(monkeypatch):
    """Count the elements the exact path's log-space product is called on."""
    return _counting(monkeypatch, "_log_product", 0)


def _counting_log_factors(monkeypatch):
    """Count the emission columns whose log factors log P + log diag(e_t)
    are formed, which only the exact path does, all T of them in one call."""
    return _counting(monkeypatch, "_log_factors", 1)


def test_exact_shift_runs_where_plain_weights_underflow(monkeypatch):
    calls = _counting_log_product(monkeypatch)
    logem = np.array([[0.0, 0.0], [0.0, 0.0], [0.0, -400.0], [0.0, -400.0]])
    p, pi0 = np.eye(2), np.array([2.0**-1030, 1.0])
    probs, loglik = _loop_filter(logem, p, pi0)
    filt = hamilton_filter(logem, 4, p, pi0)
    assert calls
    np.testing.assert_allclose(filt.probs[2:], probs[2:], rtol=1e-12, atol=0)
    assert filt.loglik == pytest.approx(loglik, rel=1e-12)

    calls.clear()
    rng = np.random.default_rng(4300)
    _, p, pi0, logem = next(c for c in _oracle_cases(4, 300, rng) if c[0] == "identity")
    probs, loglik = _loop_filter(logem, p, pi0)
    filt = hamilton_filter(logem, 300, p, pi0)
    assert calls
    shown = probs > 1e-200
    np.testing.assert_allclose(filt.probs[shown], probs[shown], rtol=1e-12, atol=0)
    assert filt.loglik == pytest.approx(loglik, rel=1e-12)


def _exact_path(logem, p, pi0):
    """The filtered probabilities and loglik of the exact path, the scan in
    log space over the factors log P + log diag(e_t); every row maximum of
    logem must be finite."""
    mx = logem.max(axis=1)
    with np.errstate(divide="ignore"):
        s, g = regime._prefixes(*regime._log_factors(p, logem.T - mx, pi0), regime._log_product)
        s, g = regime._rescaled(np.exp(s), g)
    return s[0].T, float(g[-1] + mx.sum())


@pytest.mark.parametrize("t_len", [1, 2, 33, 300])
def test_exact_path_runs_only_below_the_row_total_bound(monkeypatch, t_len):
    # off-diagonal entries of P and all of pi0 but one sit exactly at 2^-150,
    # the smallest entry the plain-weight scan is proved to keep
    m, floor = 4, 2.0**-150
    rng = np.random.default_rng(7000 + t_len)
    p = np.full((m, m), floor)
    np.fill_diagonal(p, 1.0 - (m - 1) * floor)
    pi0 = np.full(m, floor)
    pi0[rng.integers(m)] = 1.0 - (m - 1) * floor
    logem = rng.uniform(-1000.0, 0.0, (t_len, 1)) - 30.0 * rng.random((t_len, m))
    exact_probs, exact_loglik = _exact_path(logem, p, pi0)
    probs, loglik = _loop_filter(logem, p, pi0)

    calls = _counting_log_product(monkeypatch)
    factor_calls = _counting_log_factors(monkeypatch)
    filt = hamilton_filter(logem, t_len, p, pi0)
    assert calls == [] and factor_calls == []
    np.testing.assert_allclose(filt.probs, exact_probs, rtol=1e-12, atol=0)
    np.testing.assert_allclose(filt.probs, probs, rtol=1e-12, atol=0)
    assert filt.loglik == pytest.approx(exact_loglik, rel=1e-12)
    assert filt.loglik == pytest.approx(loglik, rel=1e-12)

    # one entry just below 2^-150, in P or in pi0, takes the exact path
    below = np.nextafter(floor, 0.0)
    p_below, pi0_below = p.copy(), pi0.copy()
    p_below[0, 1] = below
    pi0_below[np.argmin(pi0)] = below
    for p_case, pi0_case in [(p_below, pi0), (p, pi0_below)]:
        calls.clear()
        factor_calls.clear()
        filt = hamilton_filter(logem, t_len, p_case, pi0_case)
        # a single element is its own prefix and needs no product
        assert factor_calls == [t_len] and bool(calls) == (t_len > 1)
        probs, loglik = _loop_filter(logem, p_case, pi0_case)
        np.testing.assert_allclose(filt.probs, probs, rtol=1e-12, atol=0)
        assert filt.loglik == pytest.approx(loglik, rel=1e-12)


def _exact_filter(logem, p, pi0):
    """The filter in exact rational arithmetic on the scaled emissions
    exp(logem_t - max logem_t), so no product is rounded or underflows;
    every row maximum must be finite."""
    m = p.shape[0]
    probs = np.empty(logem.shape)
    loglik = 0.0
    pred = [Fraction(x) for x in pi0]
    for t, row in enumerate(logem):
        w = [a * Fraction(x) for a, x in zip(pred, np.exp(row - row.max()))]
        c = sum(w)
        probs[t] = [float(x / c) for x in w]
        loglik += math.log(c.numerator) - math.log(c.denominator) + row.max()
        pred = [sum(w[i] * Fraction(p[i, j]) for i in range(m)) / c for j in range(m)]
    return probs, loglik


def test_even_row_fallback_keeps_subnormal_mass_exact():
    # prefix 1 gives state 1 the subnormal weight 2^-1030 and row 2 scales it
    # by 1e-3: a plain product keeps about 34 bits of it, the log-space exact
    # path all of them; state 1 then leads, so the error would show in state
    # 2 (state 3, dead from the start, carries the row maxima)
    p, pi0 = np.eye(3), np.array([2.0**-1030, 1.0, 0.0])
    logem = np.zeros((6, 3))
    logem[2] = [math.log(1e-3), -450.0, 0.0]
    logem[4] = [0.0, -450.0, 0.0]
    probs, loglik = _exact_filter(logem, p, pi0)
    filt = hamilton_filter(logem, 6, p, pi0)
    shown = probs > 1e-300
    assert 1e-300 < probs[5, 1] < 1e-30
    np.testing.assert_allclose(filt.probs[shown], probs[shown], rtol=1e-12, atol=0)
    assert filt.loglik == pytest.approx(loglik, rel=1e-12)


@pytest.mark.parametrize("kind", ["identity", "zeros", "absorbing"])
@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_exact_path_matches_rational_oracle_from_subnormal_start(kind, m):
    # state 1 starts at about 2^-1030, a subnormal, and emissions spread up to
    # 300 nats move it by hundreds of nats: past the loop oracle's reach, so
    # the filter is held to exact rational arithmetic where it shows above 1e-300
    rng = np.random.default_rng(1030 + 10 * m + len(kind))
    p = rng.dirichlet(np.ones(m), size=m)
    if kind == "identity":
        p = np.eye(m)
    elif kind == "zeros":
        p *= rng.random((m, m)) < 0.6
        p[np.arange(m), rng.integers(0, m, m)] += 0.1
    else:
        p[0] = np.eye(m)[0]
    p /= p.sum(axis=1, keepdims=True)
    pi0 = np.concatenate([[2.0**-1030], rng.dirichlet(np.ones(m - 1))])
    pi0 /= pi0.sum()
    logem = -300.0 * rng.random((24, m))
    probs, loglik = _exact_filter(logem, p, pi0)
    filt = hamilton_filter(logem, 24, p, pi0)
    shown = probs > 1e-300
    np.testing.assert_allclose(filt.probs[shown], probs[shown], rtol=1e-12, atol=0)
    assert filt.loglik == pytest.approx(loglik, rel=1e-12)


@pytest.mark.parametrize("seed", range(12))
def test_exact_path_matches_rational_oracle_over_wide_spreads(seed):
    # P = I keeps every state's log-odds a sum of emission gaps of up to 300
    # nats, so over 64 steps they run to thousands of nats
    rng = np.random.default_rng(seed)
    p, pi0 = np.eye(3), rng.dirichlet(np.ones(3))
    logem = rng.uniform(-1000.0, 0.0, (64, 1)) - 300.0 * rng.random((64, 3))
    probs, loglik = _exact_filter(logem, p, pi0)
    filt = hamilton_filter(logem, 64, p, pi0)
    shown = probs > 1e-300
    np.testing.assert_allclose(filt.probs[shown], probs[shown], rtol=1e-12, atol=0)
    assert filt.loglik == pytest.approx(loglik, rel=1e-12)


def test_exact_shift_never_runs_on_fit_like_input(monkeypatch):
    calls = _counting_log_product(monkeypatch)
    factor_calls = _counting_log_factors(monkeypatch)
    rng = np.random.default_rng(5000)
    logem, p, pi0 = _random_instance(rng, 5000, 4)
    filt = hamilton_filter(logem, 5000, p, pi0)
    assert calls == []
    assert factor_calls == []
    probs, loglik = _loop_filter(logem, p, pi0)
    np.testing.assert_allclose(filt.probs, probs, rtol=1e-12, atol=0)
    assert filt.loglik == pytest.approx(loglik, rel=1e-12)


def _same_error(fn, oracle):
    with pytest.raises(FilterDegeneracyError) as expected:
        oracle()
    with pytest.raises(FilterDegeneracyError) as got:
        fn()
    assert str(got.value) == str(expected.value)
    return str(got.value)


@pytest.mark.parametrize("t_len, bad_t", [(1, 0), (4, 2), (9, 0), (9, 8), (300, 171), (300, 299)])
@pytest.mark.parametrize("bad", [-np.inf, np.nan, np.inf])
def test_filter_degenerate_row_matches_oracle(t_len, bad_t, bad):
    rng = np.random.default_rng(t_len + bad_t)
    logem, p, pi0 = _random_instance(rng, t_len, 3)
    finite = logem[bad_t].copy()
    rows = [[-np.inf, bad, -np.inf]]
    if not bad < 0:  # a NaN or +inf entry kills a row whose other entries are live
        rows += [[finite[0], bad, finite[2]], [-np.inf, bad, finite[2]]]
    for row in rows:
        logem[bad_t] = row
        message = _same_error(lambda: hamilton_filter(logem, t_len, p, pi0),
                              lambda: _loop_filter(logem, p, pi0))
        assert f"t={bad_t};" in message, row


def _first_pair_cases(t_len):
    """Short series whose first element, first pair and first even row meet
    pi0 with zero entries, P with zeros and emission rows all -inf."""
    rng = np.random.default_rng(t_len)
    logem, p, _ = _random_instance(rng, t_len, 3)
    for pi0 in ([1 / 3, 1 / 3, 1 / 3], [0.0, 0.4, 0.6], [0.0, 1.0, 0.0]):
        for pm in (p, np.eye(3)):
            for dead_t in [None] + list(range(min(t_len, 3))):
                case = logem.copy()
                if dead_t is not None:
                    case[dead_t] = -np.inf
                yield case, pm, np.array(pi0)
            # state 2's emission vanishes at the last t; under pi0 = (0, 1, 0)
            # and P = I that leaves no state
            case = logem.copy()
            case[-1, 1] = -np.inf
            yield case, pm, np.array(pi0)


@pytest.mark.parametrize("t_len", [1, 2, 3])
def test_first_element_and_pairs_match_loop_oracle(t_len):
    for logem, p, pi0 in _first_pair_cases(t_len):
        try:
            probs, loglik = _loop_filter(logem, p, pi0)
        except FilterDegeneracyError:
            _same_error(lambda: hamilton_filter(logem, t_len, p, pi0),
                        lambda: _loop_filter(logem, p, pi0))
            continue
        filt = hamilton_filter(logem, t_len, p, pi0)
        np.testing.assert_allclose(filt.probs, probs, rtol=1e-12, atol=0)
        assert filt.loglik == pytest.approx(loglik, rel=1e-12)


@pytest.mark.parametrize("t_len, bad_t", [(9, 5), (300, 5), (300, 250)])
def test_filter_zero_predictive_mass_matches_oracle(t_len, bad_t):
    # S_t stays in state 1; its emission vanishes at bad_t while state 2's does not
    logem = np.zeros((t_len, 2))
    logem[bad_t, 0] = -np.inf
    p, pi0 = np.eye(2), np.array([1.0, 0.0])
    message = _same_error(lambda: hamilton_filter(logem, t_len, p, pi0),
                          lambda: _loop_filter(logem, p, pi0))
    assert f"t={bad_t};" in message


def test_backward_zero_probability_row_matches_oracle():
    # S_T = 2 and P = I: row 7 puts no mass on state 2 and row 3 none on any
    # state; the loop meets t = 7 first
    probs = np.full((10, 2), 0.5)
    probs[3] = [0.0, 0.0]
    probs[7] = [1.0, 0.0]
    probs[-1] = [0.0, 1.0]
    rng_loop, rng_new = np.random.default_rng(9), np.random.default_rng(9)
    message = _same_error(lambda: sample_state_path(probs, np.eye(2), rng_new),
                          lambda: _loop_path(probs, np.eye(2), rng_loop))
    assert message.endswith("t=7")
    assert rng_new.bit_generator.state == rng_loop.bit_generator.state


def _zeros_and_absorbing(m, rng):
    """Random P with zero entries and state 1 absorbing; every column is nonzero."""
    p = rng.dirichlet(np.ones(m), size=m) * (rng.random((m, m)) < 0.6)
    p[np.arange(m), np.arange(m)] += 0.1
    p[0] = np.eye(m)[0]
    return p / p.sum(axis=1, keepdims=True)


@pytest.mark.parametrize("t_len", [2, 320, 321, 322, 641, 642, 1281, 2561, 5000])
@pytest.mark.parametrize("m", [1, 2, 4, 5])
def test_path_matches_loop_across_doubling_levels(m, t_len):
    # T - 1 pick maps: up to 319 are walked with no doubling level; 320 and
    # 321 take one level, 640 and 641 two, 1280 three, 2560 and 4999 four; the
    # second of each pair and 4999 are padded with identity maps
    rng = np.random.default_rng(10 * t_len + m)
    p = _zeros_and_absorbing(m, rng)
    probs = rng.dirichlet(np.full(m, 0.5), size=t_len)
    seed = int(rng.integers(2**32))
    loop_rng, rng_new = np.random.default_rng(seed), np.random.default_rng(seed)
    expected = _loop_path(probs, p, loop_rng)
    np.testing.assert_array_equal(sample_state_path(probs, p, rng_new), expected)
    assert rng_new.bit_generator.state == loop_rng.bit_generator.state


def test_path_zero_row_inside_a_coarse_block_matches_loop():
    # at T = 5000 the Python walk steps over blocks of 16 pick maps; the zero
    # rows at t = 1000 and 2345 lie inside blocks, and the loop meets 2345 first
    rng = np.random.default_rng(2345)
    p = _zeros_and_absorbing(4, rng)
    probs = rng.dirichlet(np.ones(4), size=5000)
    probs[[1000, 2345]] = 0.0
    rng_loop, rng_new = np.random.default_rng(11), np.random.default_rng(11)
    message = _same_error(lambda: sample_state_path(probs, p, rng_new),
                          lambda: _loop_path(probs, p, rng_loop))
    assert message.endswith("t=2345")
    assert rng_new.bit_generator.state == rng_loop.bit_generator.state


@pytest.mark.parametrize("shape", [(10, 3), (10, 5), (10,), (0, 4)])
def test_path_rejects_malformed_probs(shape):
    rng = np.random.default_rng(0)
    with pytest.raises(ParameterError) as info:
        sample_state_path(np.full(shape, 0.25), np.full((4, 4), 0.25), rng)
    assert str(shape) in str(info.value) and "(4, 4)" in str(info.value)
    assert rng.bit_generator.state == np.random.default_rng(0).bit_generator.state


@pytest.mark.parametrize("bad", [np.nan, -0.2, np.inf])
@pytest.mark.parametrize("rows", [(3, 5), (5,)])
def test_path_rejects_bad_probability_values(bad, rows):
    # the first bad row is named, the last row included, before any uniform
    probs = np.full((6, 2), 0.5)
    for t in rows:
        probs[t, 1] = bad
    rng = np.random.default_rng(0)
    with pytest.raises(ParameterError, match=f"finite and nonnegative; row t={rows[0]} "):
        sample_state_path(probs, np.full((2, 2), 0.5), rng)
    assert rng.bit_generator.state == np.random.default_rng(0).bit_generator.state


@pytest.mark.parametrize("excess", [1e-6, -1e-6, np.nan])
def test_row_sums_off_by_more_than_1e_9_are_rejected(excess):
    p = np.array([[0.5, 0.5 + excess], [0.25, 0.75]])
    with pytest.raises(ParameterError, match="rows must sum to 1"):
        validate_transition_matrix(p)
    with pytest.raises(ParameterError, match="pi0"):
        hamilton_filter(np.zeros((3, 2)), 3, np.full((2, 2), 0.5), np.array([0.5, 0.5 + excess]))


def test_row_sums_within_1e_9_are_accepted():
    p = np.array([[0.5, 0.5 + 1e-12], [0.25, 0.75]])
    np.testing.assert_array_equal(validate_transition_matrix(p), p)
    pi0 = np.array([0.5, 0.5 + 1e-12])
    filt = hamilton_filter(np.zeros((3, 2)), 3, p, pi0)
    np.testing.assert_allclose(filt.probs.sum(axis=1), 1.0, atol=1e-12)


# ---------------------------------------------------------------------------
# transition counting and sampling


def test_count_transitions_basic():
    counts = count_transitions(np.array([1, 1, 2, 1]), 2)
    np.testing.assert_array_equal(counts, np.array([[1, 1], [1, 0]]))
    assert counts.sum() == 3


def test_count_transitions_constant_path():
    counts = count_transitions(np.full(9, 3), 3)
    assert counts[2, 2] == 8
    assert counts.sum() == 8


@given(
    a=st.lists(st.integers(1, 3), min_size=1, max_size=30),
    b=st.lists(st.integers(1, 3), min_size=1, max_size=30),
)
@settings(max_examples=80, deadline=None)
def test_count_transitions_concatenation(a, b):
    a, b = np.array(a), np.array(b)
    joined = count_transitions(np.concatenate([a, b]), 3)
    split = count_transitions(a, 3) + count_transitions(b, 3)
    split[a[-1] - 1, b[0] - 1] += 1
    np.testing.assert_array_equal(joined, split)


def test_sample_transition_matrix_prior_only():
    rows = np.array([[2.0, 3.0], [1.0, 1.0]])
    drawn = sample_transition_matrix(np.zeros((2, 2)), rows, np.random.default_rng(5))
    rng2 = np.random.default_rng(5)
    expected = np.vstack([rng2.dirichlet(row) for row in rows])
    np.testing.assert_allclose(drawn, expected)
    np.testing.assert_allclose(drawn.sum(axis=1), 1.0, atol=1e-12)


def test_sample_transition_matrix_rejects_bad_prior():
    rng = np.random.default_rng(5)
    with pytest.raises(ParameterError, match=r"\(2, 2\)"):
        sample_transition_matrix(np.zeros((2, 2)), np.ones((2, 3)), rng)
    with pytest.raises(ParameterError, match="> 0"):
        sample_transition_matrix(np.zeros((2, 2)), np.array([[1.0, 0.0], [1.0, 1.0]]), rng)


@pytest.mark.parametrize("counts, priors, row", [
    (np.zeros((2, 2)), [[1.0, 1.0], [np.inf, 1.0]], 1),
    (np.zeros((2, 2)), [[1.0, np.nan], [1.0, 1.0]], 0),
    ([[0, 0], [-5, 0]], np.ones((2, 2)), 1),
    ([[np.nan, 0], [0, 0]], np.ones((2, 2)), 0),
    ([[0, np.inf], [0, 0]], np.ones((2, 2)), 0),
])
def test_sample_transition_matrix_names_a_bad_row_before_any_draw(counts, priors, row):
    rng = np.random.default_rng(5)
    with pytest.raises(ParameterError, match=f"finite and >=? 0; row {row} is"):
        sample_transition_matrix(np.array(counts, dtype=float), np.array(priors), rng)
    assert rng.bit_generator.state == np.random.default_rng(5).bit_generator.state


def test_sample_transition_matrix_concentrates():
    counts = np.array([[1_000_000, 0], [10, 10]])
    p = sample_transition_matrix(counts, np.ones((2, 2)), np.random.default_rng(6))
    assert abs(p[0, 0] - 1.0) < 1e-2


def test_sample_transition_matrix_posterior_mean():
    rng = np.random.default_rng(7)
    counts = np.array([[5, 5], [0, 0]])
    draws = np.array([
        sample_transition_matrix(counts, np.ones((2, 2)), rng)[0, 0] for _ in range(100_000)
    ])
    se = draws.std() / math.sqrt(draws.size)
    assert abs(draws.mean() - 6.0 / 12.0) < 3 * se


def test_count_transitions_rejects_bad_labels():
    with pytest.raises(ParameterError):
        count_transitions(np.array([0, 1]), 2)
    with pytest.raises(ParameterError):
        count_transitions(np.array([1, 3]), 2)


# ---------------------------------------------------------------------------
# enumeration oracle internals


def test_enumeration_t1_marginal_is_prior_times_likelihood():
    logem = np.log(np.array([[0.2, 0.6]]))
    pi0 = np.array([0.5, 0.5])
    p = np.array([[0.5, 0.5], [0.5, 0.5]])
    exact = enumerate_path_posterior(logem, p, pi0)
    expected = pi0 * np.array([0.2, 0.6])
    np.testing.assert_allclose(exact.marginals[0], expected / expected.sum(), atol=1e-14)


def test_enumeration_uniform_everything():
    t_len, m = 4, 2
    exact = enumerate_path_posterior(
        np.zeros((t_len, m)), np.full((m, m), 0.5), np.full(m, 0.5)
    )
    np.testing.assert_allclose(exact.probs, 1.0 / m**t_len, atol=1e-14)


def test_enumeration_smoothed_marginals_match_test_side_smoother():
    # independent cross-check: forward-backward smoother coded right here
    rng = np.random.default_rng(8)
    t_len, m = 6, 3
    logem, p, pi0 = _random_instance(rng, t_len, m)
    exact = enumerate_path_posterior(logem, p, pi0)
    lik = np.exp(logem)
    alpha = np.empty((t_len, m))
    alpha[0] = pi0 * lik[0]
    alpha[0] /= alpha[0].sum()
    for t in range(1, t_len):
        alpha[t] = (alpha[t - 1] @ p) * lik[t]
        alpha[t] /= alpha[t].sum()
    beta = np.ones((t_len, m))
    for t in range(t_len - 2, -1, -1):
        beta[t] = p @ (lik[t + 1] * beta[t + 1])
        beta[t] /= beta[t].sum()
    smoothed = alpha * beta
    smoothed /= smoothed.sum(axis=1, keepdims=True)
    np.testing.assert_allclose(exact.marginals, smoothed, atol=1e-10)


def test_enumeration_refuses_large_instances():
    with pytest.raises(ParameterError):
        enumerate_path_posterior(np.zeros((20, 3)), np.full((3, 3), 1 / 3), np.full(3, 1 / 3))
