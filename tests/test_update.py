"""Tests for the confidence history and the template-update policy."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ctxtrack.update import ConfidenceHistory, TrackState


def history_of(values):
    h = ConfidenceHistory()
    for v in values:
        h.append(v)
    return h


# ----------------------------------------------------------------------
# thresholds
# ----------------------------------------------------------------------

def test_mean_examples():
    assert history_of([0.6, 0.8]).mean() == pytest.approx(0.7, abs=1e-15)
    assert history_of([0.4, 0.4, 0.4]).mean() == pytest.approx(0.4, abs=1e-15)
    assert history_of([0.9]).mean() == 0.9


def test_penalized_mean_examples():
    assert history_of([1.0]).penalized_mean() == 1.0
    assert history_of([1.0, 0.0]).penalized_mean() == 0.75
    assert history_of([0.9, 0.6, 0.3]).penalized_mean() == pytest.approx(0.75, abs=1e-15)


def test_empty_history_rejected():
    h = ConfidenceHistory()
    with pytest.raises(ValueError, match="empty"):
        h.mean()
    with pytest.raises(ValueError, match="empty"):
        h.penalized_mean()


def test_append_validates_range():
    h = ConfidenceHistory()
    with pytest.raises(ValueError, match="confidence"):
        h.append(1.5)
    with pytest.raises(ValueError, match="confidence"):
        h.append(-0.1)


def test_incremental_matches_brute_force_long_trace():
    rng = np.random.default_rng(0)
    values = rng.uniform(0, 1, size=10_000)
    h = history_of(values)
    prefix_means = np.cumsum(values) / np.arange(1, len(values) + 1)
    assert abs(h.mean() - values.mean()) < 1e-10
    assert abs(h.penalized_mean() - prefix_means.mean()) < 1e-10


def test_running_state_matches_recomputation_at_every_step():
    rng = np.random.default_rng(1)
    h = ConfidenceHistory()
    for v in rng.uniform(0, 1, size=200):
        h.append(v)
        vals = np.array(h.values)
        n = len(vals)
        assert abs(h.mean() - vals.sum() / n) < 1e-12
        brute = sum(vals[:k].sum() / k for k in range(1, n + 1)) / n
        assert abs(h.penalized_mean() - brute) < 1e-12


@settings(derandomize=True, deadline=None)
@given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=60))
def test_running_statistics_match_brute_force_property(values):
    h = history_of(values)
    n = len(values)
    prefix_means = [sum(values[:k]) / k for k in range(1, n + 1)]
    assert abs(h.mean() - sum(values) / n) <= 1e-12
    assert abs(h.penalized_mean() - sum(prefix_means) / n) <= 1e-12


def test_constant_trace_thresholds_equal_constant():
    h = history_of([0.5] * 50)
    assert h.mean() == 0.5
    assert h.penalized_mean() == 0.5
    rng = np.random.default_rng(2)
    c = float(rng.uniform(0, 1))
    h = history_of([c] * 37)
    assert h.mean() == pytest.approx(c, abs=1e-12)
    assert h.penalized_mean() == pytest.approx(c, abs=1e-12)


def test_decreasing_trace_penalized_mean_dominates():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = int(rng.integers(2, 200))
        drops = rng.uniform(1e-4, 0.01, size=n)
        values = np.clip(1.0 - np.cumsum(drops), 0.0, 1.0)
        h = ConfidenceHistory()
        for v in values:
            h.append(v)
            assert h.penalized_mean() >= h.mean() - 1e-15


# ----------------------------------------------------------------------
# update policy
# ----------------------------------------------------------------------

def _mean_state(*values):
    """A mean-mode state whose history is the 1.0 seed, then `values`."""
    state = TrackState(mode="mean")
    for value in values:
        state.history.append(value)
    return state


def test_should_update_mean_examples():
    # history [1.0, 0.9, 0.5], mean 0.8
    decision = _mean_state(0.9, 0.5).should_update(0.85)
    assert decision.update and decision.threshold == pytest.approx(0.8)
    assert not _mean_state(0.9, 0.5).should_update(0.75).update


def test_never_and_always_last_modes():
    never = TrackState(mode="never")
    last = TrackState(mode="always-last")
    for s in (0.0, 0.5, 1.0):
        d = never.should_update(s)
        assert not d.update and math.isnan(d.threshold)
        d = last.should_update(s)
        assert d.update and math.isnan(d.threshold)


def test_decision_excludes_current_frame():
    # with history [1.0, 0.5, 0.0], mean exactly 0.5, a confidence of 0.6
    # beats the threshold 0.5 even though including it would move the
    # mean (the boundary case 0.5 itself shows the exclusion: 0.5 > 0.5 is
    # false)
    assert _mean_state(0.5, 0.0).should_update(0.6).threshold == 0.5
    assert not _mean_state(0.5, 0.0).should_update(0.5).update  # strict inequality


def test_seed_makes_first_comparison_unbeatable():
    state = TrackState(mode="mean")
    assert not state.should_update(1.0).update  # 1.0 > 1.0 is false
    assert state.history.values[0] == 1.0


def test_confidence_range_validated():
    state = TrackState(mode="mean")
    with pytest.raises(ValueError, match="confidence"):
        state.should_update(1.2)


def test_unknown_mode_rejected():
    with pytest.raises(ValueError, match="mode"):
        TrackState(mode="sometimes")


def test_history_append_only_and_decision_side_effects():
    state = TrackState(mode="p-mean")
    before = list(state.history.values)
    state.should_update(0.4)
    assert state.history.values[:len(before)] == before
    assert state.history.values[-1] == 0.4


def test_mean_mode_update_sequence():
    state = TrackState(mode="mean")
    outcomes = [state.should_update(s).update
                for s in (0.4, 0.9, 0.9, 0.2, 0.8)]
    # thresholds: 1.0, 0.7, 0.7667, 0.8, 0.68
    assert outcomes == [False, True, True, False, True]
