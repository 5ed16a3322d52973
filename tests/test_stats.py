import itertools
from collections import Counter

import numpy as np
import pytest
import scipy.stats

from allwas.errors import AllwasError
from allwas.stats import _signed_ranks, bonferroni, f1_macro, f1_target, wilcoxon_signed_rank


class TestF1:
    def test_perfect_predictions(self):
        truth = [0, 1, 0, 1, 1]
        assert f1_target(truth, truth, 1) == pytest.approx(1.0)

    def test_all_majority_scores_zero(self):
        truth = [0, 0, 0, 1, 1]
        preds = [0, 0, 0, 0, 0]
        assert f1_target(preds, truth, 1) == 0.0

    def test_confusion_matrix_arithmetic(self):
        # TP=2, FP=1, FN=1 -> precision = recall = 2/3 -> F1 = 2/3.
        truth = [1, 1, 1, 0, 0]
        preds = [1, 1, 0, 1, 0]
        assert f1_target(preds, truth, 1) == pytest.approx(2 / 3)

    def test_permutation_invariance(self, rng):
        truth = rng.integers(0, 3, size=40)
        preds = rng.integers(0, 3, size=40)
        base = f1_macro(preds, truth, 3)
        perm = rng.permutation(40)
        assert f1_macro(preds[perm], truth[perm], 3) == pytest.approx(base)

    def test_macro_averages_classes(self):
        truth = [0, 0, 1, 1]
        preds = [0, 0, 1, 1]
        assert f1_macro(preds, truth, 2) == pytest.approx(1.0)


class TestWilcoxon:
    def test_identical_pairs_p_one(self):
        x = [1.0, 2.0, 3.0, 4.0, 5.0]
        with pytest.warns(UserWarning, match="all paired differences"):
            stat, p = wilcoxon_signed_rank(x, x)
        assert p == 1.0

    def test_n6_all_positive_exact_tail(self):
        x = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
        y = [0.5, 1.0, 2.0, 3.0, 4.0, 5.0]
        stat, p = wilcoxon_signed_rank(x, y, mode="exact")
        assert stat == pytest.approx(21.0)
        assert p == pytest.approx(1 / 32)

    def test_exact_distribution_matches_enumeration(self, rng):
        # Full sign-permutation enumeration for n <= 12 reproduces the
        # DP-based exact p-value.
        for n in (5, 8, 12):
            x = rng.standard_normal(n)
            y = x - rng.standard_normal(n) - 0.3
            stat, p = wilcoxon_signed_rank(x, y, mode="exact")
            diffs = (np.asarray(x) - np.asarray(y))
            diffs = diffs[diffs != 0]
            mags = np.abs(diffs)
            ranks = scipy.stats.rankdata(mags)
            w = ranks[diffs > 0].sum()
            sums = []
            for signs in itertools.product([0, 1], repeat=len(diffs)):
                sums.append(sum(r for s, r in zip(signs, ranks) if s))
            sums = np.asarray(sums)
            p_low = np.mean(sums <= w + 1e-12)
            p_high = np.mean(sums >= w - 1e-12)
            expected = min(1.0, 2 * min(p_low, p_high))
            assert stat == pytest.approx(w)
            assert p == pytest.approx(expected, abs=1e-12)

    def test_exact_matches_scipy(self, rng):
        for _ in range(10):
            x = rng.standard_normal(10)
            y = rng.standard_normal(10)
            _, p = wilcoxon_signed_rank(x, y, mode="exact")
            ref = scipy.stats.wilcoxon(x, y, alternative="two-sided",
                                       mode="exact").pvalue
            assert p == pytest.approx(ref, abs=1e-12)

    def test_modes_agree_for_n20(self, rng):
        x = rng.standard_normal(20)
        y = rng.standard_normal(20) + 0.4
        _, p_exact = wilcoxon_signed_rank(x, y, mode="exact")
        _, p_norm = wilcoxon_signed_rank(x, y, mode="normal-approx")
        assert abs(p_exact - p_norm) < 0.02

    def test_too_few_pairs_rejected(self):
        with pytest.raises(AllwasError):
            wilcoxon_signed_rank([1.0, 2.0, 3.0], [0.0, 0.0, 0.0])

    def test_p_in_unit_interval(self, rng):
        for _ in range(50):
            n = int(rng.integers(5, 15))
            x = rng.standard_normal(n)
            y = rng.standard_normal(n)
            for mode in ("exact", "normal-approx"):
                _, p = wilcoxon_signed_rank(x, y, mode=mode)
                assert 0.0 <= p <= 1.0

    def test_ties_handled(self):
        # Repeated difference magnitudes exercise average ranks.
        x = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
        y = [0.0, 1.0, 2.0, 3.0, 4.0, 7.0]
        stat, p = wilcoxon_signed_rank(x, y, mode="exact")
        assert 0.0 <= p <= 1.0
        _, p_norm = wilcoxon_signed_rank(x, y, mode="normal-approx")
        assert 0.0 <= p_norm <= 1.0

    def test_tied_ranks_and_tie_correction_match_scipy(self, rng):
        # Quarter-step differences tie often: the average ranks equal
        # scipy's bitwise, the tie sizes are the magnitudes' counts in
        # sorted order, and the tie-corrected normal approximation is
        # scipy's.
        for _ in range(200):
            diffs = rng.integers(-5, 6, size=int(rng.integers(5, 70))) / 4.0
            diffs = diffs[diffs != 0]
            if len(diffs) < 5:
                continue
            ranks, w_plus, ties = _signed_ranks(diffs)
            assert ranks.tobytes() == scipy.stats.rankdata(np.abs(diffs)).tobytes()
            assert w_plus == ranks[diffs > 0].sum()
            counts = Counter(np.abs(diffs).tolist())
            assert [int(t) for t in ties] == [counts[m] for m in sorted(counts)]
            _, p = wilcoxon_signed_rank(diffs, np.zeros(len(diffs)), mode="normal-approx")
            ref = scipy.stats.wilcoxon(diffs, method="approx", correction=True).pvalue
            assert p == pytest.approx(ref, rel=1e-12, abs=1e-15)


class TestBonferroni:
    def test_multiply_and_clamp(self):
        assert bonferroni(0.01, 3) == pytest.approx(0.03)
        assert bonferroni(0.5, 10) == 1.0
