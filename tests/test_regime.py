import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regimevol import (
    FilterDegeneracyError,
    ParameterError,
    count_transitions,
    enumerate_filtered_probs,
    enumerate_path_posterior,
    hamilton_filter,
    sample_state_path,
    sample_transition_matrix,
)


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
