"""Evaluation metrics and paired significance testing.

The signed-rank test's exact mode builds the full null distribution of the
positive-rank sum by dynamic programming over doubled ranks (equivalent to
enumerating all sign assignments, ties included), which the few-run paired
comparisons here need; the normal approximation applies the usual tie
correction and a continuity correction.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .errors import AllwasError, ConfigError


def f1_target(preds, truth, target_class: int) -> float:
    """F1 of one class: harmonic mean of its precision and recall, zero
    when both are undefined."""
    preds = np.asarray(preds)
    truth = np.asarray(truth)
    if preds.shape != truth.shape:
        raise AllwasError("prediction and truth lengths differ")
    tp = int(np.sum((preds == target_class) & (truth == target_class)))
    fp = int(np.sum((preds == target_class) & (truth != target_class)))
    fn = int(np.sum((preds != target_class) & (truth == target_class)))
    if tp == 0:
        return 0.0
    precision = tp / (tp + fp)
    recall = tp / (tp + fn)
    return 2 * precision * recall / (precision + recall)


def f1_macro(preds, truth, n_classes: int) -> float:
    """Unweighted mean of per-class F1 scores."""
    return float(np.mean([f1_target(preds, truth, c) for c in range(n_classes)]))


def _signed_ranks(diffs: np.ndarray):
    """Average ranks of |d| with the positive-rank sum and tie group sizes:
    a group of t ties that starts at sorted index i has rank i + (t + 1) / 2."""
    _, group, ties = np.unique(np.abs(diffs), return_inverse=True, return_counts=True)
    ranks = (np.cumsum(ties) - ties + (ties + 1) / 2)[group]
    w_plus = float(ranks[diffs > 0].sum())
    return ranks, w_plus, ties


def _exact_distribution(ranks: np.ndarray) -> np.ndarray:
    """pmf of the positive-rank sum over all 2^n sign assignments, indexed
    by doubled sums so tied (half-integer) average ranks stay integral."""
    doubled = np.rint(2 * ranks).astype(np.int64)
    total = int(doubled.sum())
    counts = np.zeros(total + 1)
    counts[0] = 1.0
    for r in doubled:
        shifted = np.zeros_like(counts)
        shifted[r:] = counts[:len(counts) - r]
        counts = counts + shifted
    return counts / counts.sum()


def wilcoxon_signed_rank(x, y, mode: str = "exact"):
    """Two-sided Wilcoxon signed-rank test on paired samples.

    Zero differences are dropped (their count is reported via a warning if
    all pairs vanish, in which case p = 1). Returns (W+, p) where W+ is the
    positive-rank sum. ``mode`` is "exact" (full sign-assignment null
    distribution) or "normal-approx" (tie-corrected with continuity
    correction).
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape:
        raise AllwasError("paired samples must have equal length")
    diffs = x - y
    diffs = diffs[diffs != 0]
    if len(diffs) == 0:
        warnings.warn("all paired differences are zero; p = 1")
        return 0.0, 1.0
    n = len(diffs)
    if n < 5:
        raise AllwasError(f"need >= 5 nonzero differences (got {n})")

    ranks, w_plus, ties = _signed_ranks(diffs)

    if mode == "exact":
        pmf = _exact_distribution(ranks)
        w2 = int(round(2 * w_plus))
        p_low = float(pmf[: w2 + 1].sum())
        p_high = float(pmf[w2:].sum())
        p = min(1.0, 2.0 * min(p_low, p_high))
        return w_plus, p
    if mode == "normal-approx":
        mean = n * (n + 1) / 4.0
        var = n * (n + 1) * (2 * n + 1) / 24.0
        var -= sum(t ** 3 - t for t in ties) / 48.0
        if var <= 0:
            warnings.warn("zero variance after tie correction; p = 1")
            return w_plus, 1.0
        d = w_plus - mean
        d -= 0.5 * np.sign(d)
        z = d / math.sqrt(var)
        p = min(1.0, math.erfc(abs(z) / math.sqrt(2.0)))
        return w_plus, p
    raise ConfigError(f"unknown mode {mode!r}")


def bonferroni(p: float, m: int) -> float:
    """Multiply-and-clamp correction for m simultaneous comparisons."""
    if m < 1:
        raise ConfigError("number of comparisons must be >= 1")
    return min(1.0, m * p)
