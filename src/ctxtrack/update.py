"""Online template-update policy.

A per-sequence track state keeps the history of classification
confidences and decides whether the tracker replaces its previous-frame
template. Two dynamic thresholds are maintained in constant time per
frame: the plain running mean, and a penalized variant equal to the mean
of all prefix means, which weights early (typically high-quality) frames
more and so rises more slowly after a run of bad frames.
"""

from __future__ import annotations

from typing import NamedTuple

MODES = ("never", "always-last", "mean", "p-mean")


class ConfidenceHistory:
    """Append-only confidence trace with O(1) running statistics."""

    def __init__(self) -> None:
        self.values: list[float] = []
        self._total = 0.0         # sum of values
        self._prefix_total = 0.0  # sum over k of (mean of the first k values)

    def append(self, value: float) -> None:
        value = float(value)
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"confidence must lie in [0, 1], got {value}")
        self.values.append(value)
        self._total += value
        self._prefix_total += self._total / len(self.values)

    def mean(self) -> float:
        """Average confidence so far."""
        if not self.values:
            raise ValueError("empty history has no mean")
        return self._total / len(self.values)

    def penalized_mean(self) -> float:
        """Mean of all prefix means; never below the plain mean on a
        strictly decreasing trace."""
        if not self.values:
            raise ValueError("empty history has no penalized mean")
        return self._prefix_total / len(self.values)


class UpdateDecision(NamedTuple):
    update: bool
    threshold: float  # nan for the unconditional modes


class TrackState:
    """Update policy for one sequence: a mode plus the confidence history,
    started from the seed confidence."""

    def __init__(self, mode: str = "p-mean", seed_confidence: float = 1.0):
        if mode not in MODES:
            raise ValueError(f"unknown update mode: {mode!r} (expected one of {MODES})")
        self.mode = mode
        self.history = ConfidenceHistory()
        self.history.append(seed_confidence)

    def threshold(self) -> float:
        """Current decision threshold; nan for never/always-last."""
        if self.mode == "mean":
            return self.history.mean()
        if self.mode == "p-mean":
            return self.history.penalized_mean()
        return float("nan")

    def should_update(self, confidence: float) -> UpdateDecision:
        """Decide against the history so far, then record the new frame.

        The current frame's confidence is excluded from its own threshold;
        it is appended afterwards regardless of the decision.
        """
        confidence = float(confidence)
        threshold = self.threshold()
        if self.mode == "never":
            update = False
        elif self.mode == "always-last":
            update = True
        else:
            update = confidence > threshold
        self.history.append(confidence)
        return UpdateDecision(update=update, threshold=threshold)
