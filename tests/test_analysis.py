import numpy as np
import pytest

from regimevol import (
    IndicatorSeries,
    NumericalError,
    ParameterError,
    affine_align,
    durations_from_draws,
    expected_durations,
    indicator_jump,
    indicator_stable,
    score,
)


def _filtered(t_len=40, m=3, seed=0):
    probs = np.random.default_rng(seed).random((t_len, m))
    return probs / probs.sum(axis=1, keepdims=True)


# ---------------------------------------------------------------------------
# durations


def test_expected_durations_closed_form():
    p = np.array([[0.9, 0.1, 0.0], [0.25, 0.75, 0.0], [0.2, 0.3, 0.5]])
    np.testing.assert_allclose(expected_durations(p).durations, [10.0, 4.0, 2.0], rtol=1e-12)


def test_expected_durations_absorbing_state_raises():
    p = np.array([[0.5, 0.5], [0.0, 1.0]])
    with pytest.raises(ParameterError, match="state 2 is absorbing"):
        expected_durations(p)


@pytest.mark.parametrize("transition, message", [
    ([0.5, 0.5], "square"),
    ([[0.5, 0.25, 0.25], [0.5, 0.25, 0.25]], "square"),
    (np.full((2, 2, 2), 0.5), "square"),
    ([[-0.5, 1.5], [0.5, 0.5]], "nonnegative"),
    ([[np.nan, 0.5], [0.5, 0.5]], "sum to 1"),
], ids=["1d", "2x3", "3d", "negative_diagonal", "nan_diagonal"])
def test_expected_durations_refuse_a_non_stochastic_matrix(transition, message):
    # each used to return an array: a 2x2 one for the 1-D input, durations
    # for the rest (0.667 steps at p_11 = -0.5, NaN for a NaN diagonal), or
    # numpy's bare ValueError for the 3-D one
    with pytest.raises(ParameterError, match=message):
        expected_durations(np.array(transition))


def test_durations_from_draws_jensen_gap():
    # 1/(1 - p) is convex, so averaging durations over draws exceeds the
    # duration at the averaged matrix
    draws = [np.array([[0.5, 0.5], [0.2, 0.8]]), np.array([[0.9, 0.1], [0.4, 0.6]])]
    averaged = durations_from_draws(draws).durations
    at_mean = expected_durations(np.mean(draws, axis=0)).durations
    np.testing.assert_allclose(averaged, [(2.0 + 10.0) / 2, (5.0 + 2.5) / 2], rtol=1e-12)
    np.testing.assert_allclose(at_mean, [1.0 / 0.3, 1.0 / 0.3], rtol=1e-12)
    assert np.all(averaged > at_mean)
    with pytest.raises(ParameterError):
        durations_from_draws([])


# ---------------------------------------------------------------------------
# indicators


def test_indicator_jump_formula():
    probs = _filtered()
    sigma_sq = np.array([0.01, 0.04, 0.09])
    n_hat = np.array([0.0, 1.5, 3.0])
    b = 40.0
    ind = indicator_jump(probs, sigma_sq, n_hat, b)
    by_hand = [
        np.sqrt(sum(probs[t, j] * (sigma_sq[j] + n_hat[j] * (n_hat[j] + 1) / b**2)
                    for j in range(3)))
        for t in range(probs.shape[0])
    ]
    assert ind.kind == "jump" and ind.alignment is None
    np.testing.assert_allclose(ind.values, by_hand, rtol=1e-13)


def test_indicator_stable_formula_and_ridge_invariance():
    probs = _filtered(seed=1)
    gamma_sq = np.array([0.5, 1.0, 4.0])
    ind = indicator_stable(probs, 0.3, gamma_sq)
    np.testing.assert_allclose(ind.values, np.sqrt(0.3 * probs @ gamma_sq), rtol=1e-14)
    assert ind.kind == "stable"
    # the likelihood identifies only lambda * gamma^2; so does the indicator
    for c in (1e-3, 0.7, 25.0):
        moved = indicator_stable(probs, 0.3 * c, gamma_sq / c)
        np.testing.assert_allclose(moved.values, ind.values, rtol=1e-13)


def test_indicators_reject_mismatched_shapes():
    probs = _filtered()
    with pytest.raises(ParameterError, match="width"):
        indicator_jump(probs, np.ones(2), np.zeros(3), 40.0)
    with pytest.raises(ParameterError, match="width"):
        indicator_stable(probs, 1.0, np.ones(4))
    with pytest.raises(ParameterError, match=r"\(T, M\)"):
        indicator_stable(probs[:, 0], 1.0, np.ones(1))


def test_indicator_jump_refuses_a_zero_amplitude_rate():
    # b = 0 divided by zero in the jump variance
    with pytest.raises(ParameterError, match=r"^jump amplitude rate b must be finite and > 0, got 0"):
        indicator_jump(_filtered(), np.ones(3), np.zeros(3), 0.0)


def test_indicator_jump_divides_by_b_twice_and_names_b_when_a_variance_overflows():
    probs = _filtered()
    n_hat = np.array([0.0, 1.0, 2.0])
    # b**2 was a bare OverflowError as a Python float; the jump terms now underflow
    big = indicator_jump(probs, np.ones(3), n_hat, 1e200)
    np.testing.assert_allclose(big.values, 1.0, rtol=1e-14)
    # N_j (N_j + 1) / b / b is about 6e400 here, past what a double holds
    with pytest.raises(ParameterError, match=r"^jump amplitude rate b = 1e-200 makes a state "
                                             r"variance overflow"):
        indicator_jump(probs, np.ones(3), n_hat, 1e-200)


def test_indicator_stable_refuses_a_negative_lambda():
    # lambda_hat = -1 took the square root of a negative variance
    with pytest.raises(ParameterError, match=r"^lambda_hat must be finite and > 0, got -1"):
        indicator_stable(_filtered(), -1.0, np.ones(3))


@pytest.mark.parametrize("bad", [np.nan, -0.5, np.inf])
def test_indicators_refuse_non_finite_or_negative_estimates(bad):
    probs = _filtered()
    with pytest.raises(ParameterError, match="finite and >= 0"):
        indicator_jump(probs, [0.01, bad, 0.09], np.zeros(3), 40.0)
    with pytest.raises(ParameterError, match="finite and >= 0"):
        indicator_jump(probs, np.ones(3), [0.0, 1.0, bad], 40.0)
    with pytest.raises(ParameterError, match="finite and >= 0"):
        indicator_stable(probs, 1.0, [bad, 1.0, 4.0])


# ---------------------------------------------------------------------------
# alignment and score


@pytest.mark.parametrize("compare", [affine_align, score], ids=["affine_align", "score"])
def test_alignment_and_score_refuse_a_non_finite_value(compare):
    # a NaN in the reference gave an all-NaN series and a NaN score
    ind = IndicatorSeries(np.array([1.0, 2.0, 4.0]), "jump")
    with pytest.raises(ParameterError, match=r"must be finite; row 1 is \[ 2\. nan\]$"):
        compare(ind, np.array([1.0, np.nan, 3.0]))
    with pytest.raises(ParameterError, match=r"must be finite; row 2 is \[inf  1\.\]$"):
        compare(IndicatorSeries(np.array([1.0, 2.0, np.inf]), "jump"), np.ones(3))


def test_affine_align_recovers_known_map():
    vals = np.random.default_rng(2).gamma(2.0, 0.01, 200)
    reference = 2.5 * vals - 0.3
    aligned = affine_align(IndicatorSeries(vals, "jump"), reference)
    a, c = aligned.alignment
    assert a == pytest.approx(2.5, rel=1e-10)
    assert c == pytest.approx(-0.3, rel=1e-10)
    np.testing.assert_allclose(aligned.values, reference, rtol=1e-10)
    assert aligned.kind == "jump"


def test_affine_align_zero_variance_indicator_raises():
    with pytest.raises(NumericalError, match="zero variance"):
        affine_align(IndicatorSeries(np.full(10, 0.2), "stable"), np.arange(10.0))
    with pytest.raises(ParameterError, match="lengths differ"):
        affine_align(IndicatorSeries(np.arange(3.0), "stable"), np.arange(4.0))


def test_score_is_sum_of_squared_differences():
    ind = IndicatorSeries(np.array([1.0, 2.0, 4.0]), "jump")
    assert score(ind, np.array([1.5, 2.0, 1.0])) == pytest.approx(0.25 + 0.0 + 9.0)
    assert score(ind, ind.values) == 0.0
    with pytest.raises(ParameterError, match="lengths differ"):
        score(ind, np.zeros(2))
