"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``. The end-to-end criteria
share one set of experiment cells built by a module-scoped fixture; the
determinism criterion re-runs the same commands into a fresh directory and
compares bytes.
"""

import itertools

import numpy as np
import pytest

from allwas.coreset import default_s0_cost, greedy_select
from allwas.barysample import AugmentationConfig, augment_wasserstein
from allwas.gradspace import DistanceMatrix
from allwas.harness import ExperimentConfig, run_experiment, run_sweep, load_corpus
from allwas.model import ClassifierHead, TrainingSet, gradient_arrays, train
from allwas.stats import wilcoxon_signed_rank
from allwas.transport import (
    DiscreteMeasure,
    barycenter_support_size,
    ground_cost,
    sinkhorn_distance,
    wasserstein_barycenter,
    wasserstein_barycenter_batch,
)
from oracles import (brute_force_opt, exact_distance_oracle, mix_labels, naive_greedy,
                     objective_L)


def conclude(num: int, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"ACCEPTANCE {num:2d} {name}: {status}{suffix}")
    assert ok, f"criterion {num} ({name}) failed{suffix}"


# ---------------------------------------------------------------------------
# Criterion 7/8/10 shared experiment cells (criterion 11 reuses the corpus)
# ---------------------------------------------------------------------------

# Minority split over several clusters with sizeable noise makes labeled
# coverage the bottleneck; the head is trained to convergence so data
# quality, not optimization, differentiates the strategies.
CORPUS_SPEC = {"synthetic": {"n": 2000, "d": 32, "priors": [0.9, 0.1],
                             "clusters_per_class": 4, "noise": 1.2,
                             "separation": 5.0, "seed": 1234}}
MASTER_SEED = 100
E2E_BASE = dict(
    corpus=CORPUS_SPEC,
    setting="imbalanced",
    seed_size=25,
    budget=150,
    k=25,
    repeats=10,
    master_seed=MASTER_SEED,
    val_fraction=0.2,
    model={"hidden_dim": 64, "dropout": 0.1, "epochs": 30,
           "batch_size": 25, "lr": 0.03},
    ot={"subsample": 256, "max_iter": 120, "tol": 1e-6},
)
AUG_KNOBS = {"group_size": 2, "outer_iter": 3, "sinkhorn_max_iter": 60}


def _e2e_cells(out_dir: str, master_seed: int = MASTER_SEED):
    """Criterion 7's command: the factor sweep plus the allwas and KDE cells.
    ``master_seed`` is MASTER_SEED here; ``scripts/claims.py`` varies it."""
    e2e = dict(E2E_BASE, master_seed=master_seed)
    corpus = load_corpus(CORPUS_SPEC)
    base = ExperimentConfig(
        label="cell", strategy="random", out_dir=out_dir,
        augmentation={"mode": "wasserstein", "factor": 20, **AUG_KNOBS},
        **e2e)
    records = {rec.label: rec
               for rec in run_sweep(base, "augmentation-factor", [0, 5, 20])}
    allwas_cfg = ExperimentConfig(
        label="allwas", strategy="allwas", out_dir=out_dir,
        augmentation={"mode": "none"}, **e2e)
    records["allwas"] = run_experiment(allwas_cfg, corpus)
    l2_cfg = ExperimentConfig(
        label="l2kde", strategy="random", out_dir=out_dir,
        augmentation={"mode": "l2-kde", "factor": 20, **AUG_KNOBS}, **e2e)
    records["l2kde"] = run_experiment(l2_cfg, corpus)
    return records


@pytest.fixture(scope="module")
def e2e(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e")
    return str(out), _e2e_cells(str(out))


def _per_repeat(record, labeled_count):
    rows = [r for r in record.rows if r.labeled == labeled_count]
    return np.array([r.f1 for r in sorted(rows, key=lambda r: r.seed)])


# Each comparison below is (holds, margin, p, detail): the margin is the
# first mean less the second, p the exact signed-rank p value (None where
# the criterion runs no test).

def c07_comparisons(records):
    """Criterion 7's comparisons (a), (b) and (c) of the shared cells."""
    budget = E2E_BASE["budget"]
    seed_size = E2E_BASE["seed_size"]

    rand_final = _per_repeat(records["cell_factor0"], budget)
    allw_final = _per_repeat(records["allwas"], budget)
    _, p_a = wilcoxon_signed_rank(allw_final, rand_final, mode="exact")
    ok_a = allw_final.mean() >= rand_final.mean() and p_a < 0.05

    aug_start = _per_repeat(records["cell_factor20"], seed_size)
    none_start = _per_repeat(records["cell_factor0"], seed_size)
    _, p_b = wilcoxon_signed_rank(aug_start, none_start, mode="exact")
    ok_b = aug_start.mean() > none_start.mean() and p_b < 0.05

    # Compared in the few-sample regime the augmenters target.
    l2_start = _per_repeat(records["l2kde"], seed_size)
    ok_c = aug_start.mean() >= l2_start.mean()

    return {
        "c07a": (ok_a, allw_final.mean() - rand_final.mean(), p_a,
                 f"(a) p={p_a:.4f} means {allw_final.mean():.3f}>={rand_final.mean():.3f}"),
        "c07b": (ok_b, aug_start.mean() - none_start.mean(), p_b,
                 f"(b) p={p_b:.4f} means {aug_start.mean():.3f}>{none_start.mean():.3f}"),
        "c07c": (ok_c, aug_start.mean() - l2_start.mean(), None,
                 f"(c) {aug_start.mean():.3f}>={l2_start.mean():.3f}"),
    }


def c08_comparison(records):
    """Criterion 8: the augmentation gap at the seed size against the gap
    at the budget."""
    budget = E2E_BASE["budget"]
    seed_size = E2E_BASE["seed_size"]
    gap_start = (_per_repeat(records["cell_factor20"], seed_size)
                 - _per_repeat(records["cell_factor0"], seed_size)).mean()
    gap_end = (_per_repeat(records["cell_factor20"], budget)
               - _per_repeat(records["cell_factor0"], budget)).mean()
    return (gap_start > gap_end, gap_start - gap_end, None,
            f"gap@{seed_size} {gap_start:.3f} vs gap@{budget} {gap_end:.3f}")


def _c11_base(master_seed: int = MASTER_SEED):
    """Criterion 11's cell settings: the shared corpus with four classes, so
    the exact acquisition path walks more than two simplex vertices, scored
    by macro-F1."""
    corpus = {"synthetic": {**CORPUS_SPEC["synthetic"], "priors": [0.7, 0.1, 0.1, 0.1]}}
    return dict(E2E_BASE, corpus=corpus, metric="macro-f1", augmentation={"mode": "none"},
                ot={**E2E_BASE["ot"], "p": 2}, master_seed=master_seed)


def _c11_cells(out_dir: str, master_seed: int = MASTER_SEED):
    """Criterion 11's random and allwas cells."""
    base = _c11_base(master_seed)
    return {strategy: run_experiment(ExperimentConfig(label=strategy, strategy=strategy,
                                                      out_dir=out_dir, **base))
            for strategy in ("random", "allwas")}


def c11_comparison(records):
    """Criterion 11: allwas against random at the budget and over the
    learning curve. The margin is the budget's; p is the larger of the
    two, since both must be below 0.05."""
    base = _c11_base()
    rand_final = _per_repeat(records["random"], base["budget"])
    allw_final = _per_repeat(records["allwas"], base["budget"])
    _, p_final = wilcoxon_signed_rank(allw_final, rand_final, mode="exact")

    def curve_areas(record):
        """Per repeat, the trapezoid area under F1 against labeled count,
        over budget - seed size."""
        by_seed = {}
        for row in record.rows:
            by_seed.setdefault(row.seed, []).append((row.labeled, row.f1))
        areas = []
        for _, points in sorted(by_seed.items()):
            points.sort()
            areas.append(sum((x1 - x0) * (y0 + y1) / 2
                             for (x0, y0), (x1, y1) in zip(points, points[1:])))
        return np.array(areas) / (base["budget"] - base["seed_size"])

    rand_curve, allw_curve = curve_areas(records["random"]), curve_areas(records["allwas"])
    _, p_curve = wilcoxon_signed_rank(allw_curve, rand_curve, mode="exact")
    ok = (allw_final.mean() > rand_final.mean() and p_final < 0.05
          and allw_curve.mean() > rand_curve.mean() and p_curve < 0.05)
    return (ok, allw_final.mean() - rand_final.mean(), max(p_final, p_curve),
            f"budget p={p_final:.4f} means {allw_final.mean():.3f}>{rand_final.mean():.3f}; "
            f"curve p={p_curve:.4f} means {allw_curve.mean():.3f}>{rand_curve.mean():.3f}")


# ---------------------------------------------------------------------------
# Criteria
# ---------------------------------------------------------------------------

def test_c01_ot_correctness():
    # The entropic plan P_eps minimises <C,P> - eps*H(P), so its sharp cost
    # exceeds the exact W_2^2 by at most eps*(H(P_eps) - H(P*)). For uniform
    # n-vs-n measures H(P_eps) <= 2 log n and an optimal P* is a permutation
    # (entropy log n): a feasible plan's cost lies in [exact, exact + eps*log n].
    rng = np.random.default_rng(20240817)
    ok = True
    worst = (-np.inf, "")  # (gap / bound, detail) of the trial nearest the bound
    min_gap = np.inf
    worst_viol = 0.0
    for trial in range(100):
        n = int(rng.integers(2, 17))
        dim = 1 if trial % 2 == 0 else 2
        shape = n if dim == 1 else (n, dim)
        a = DiscreteMeasure.uniform(rng.standard_normal(shape))
        b = DiscreteMeasure.uniform(rng.standard_normal(shape))
        exact = exact_distance_oracle(a, b, p=2)
        cost = ground_cost(a, b, p=2)
        eps = max(0.01 * float(np.median(cost)), 1e-9)
        plan = sinkhorn_distance(a, b, p=2, eps=eps, max_iter=6000, tol=1e-7)
        gap = plan.cost - exact
        bound = eps * np.log(n)
        viol = plan.marginal_violation(a, b)
        ok &= -1e-9 <= gap <= bound and viol < 1e-6
        min_gap = min(min_gap, gap)
        worst_viol = max(worst_viol, viol)
        if gap / bound > worst[0]:
            worst = (gap / bound,
                     f"trial {trial} n={n} dim={dim} exact {exact:.4g} "
                     f"gap {gap:.2e} eps*log(n) {bound:.2e}")
    conclude(1, "OT vs exact oracles", ok,
             f"worst {worst[1]}, min gap {min_gap:.2e}, "
             f"worst marginal {worst_viol:.2e}")


def test_c02_barycenter():
    a = DiscreteMeasure.dirac([0.0, 0.0])
    b = DiscreteMeasure.dirac([2.0, 0.0])
    mid = wasserstein_barycenter([a, b], [0.5, 0.5], support_size=1)
    midpoint_ok = bool(np.all(np.abs(mid.support - [[1.0, 0.0]]) < 1e-6))

    rng = np.random.default_rng(7)
    groups, lambdas, sizes = [], [], []
    for _ in range(50):
        g = [0.1 * rng.standard_normal((int(rng.integers(2, 6)), 2))
             for _ in range(3)]
        lam = rng.random(3) + 0.1
        lam /= lam.sum()
        groups.append(g)
        lambdas.append(lam)
        sizes.append(barycenter_support_size([x.shape[0] for x in g], lam))
    trace = []
    wasserstein_barycenter_batch(groups, np.array(lambdas), sizes, outer_iter=6,
                                 sinkhorn_max_iter=20000, sinkhorn_tol=1e-10,
                                 trace=trace)
    worst_rise = max(float((after - before).max())
                     for before, after in zip(trace, trace[1:]))
    conclude(2, "barycenter midpoint + objective descent",
             midpoint_ok and worst_rise <= 1e-6,
             f"worst objective rise {worst_rise:.2e}")


def _random_matrix(rng, n):
    pts = rng.standard_normal((n, 2))
    entries = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1)
    return DistanceMatrix(entries, ids=tuple(range(n)))


def test_c03_submodularity():
    rng = np.random.default_rng(99)
    ok = True
    for _ in range(1000):
        n = int(rng.integers(3, 9))
        m = _random_matrix(rng, n)
        s0 = default_s0_cost(m)
        ids = list(m.ids)
        size_b = int(rng.integers(1, n))
        b = sorted(rng.choice(ids, size=size_b, replace=False).tolist())
        size_a = int(rng.integers(0, len(b) + 1))
        a = sorted(rng.choice(b, size=size_a, replace=False).tolist()) if size_a else []
        outside = [i for i in ids if i not in b]
        if not outside:
            continue
        e = int(rng.choice(outside))
        # Monotone decrease of the coverage objective.
        ok &= objective_L(m, b + [e], s0) <= objective_L(m, b, s0) + 1e-12

        def f_val(sel):
            return n * s0 - objective_L(m, sel, s0)

        # Diminishing returns.
        ok &= (f_val(a + [e]) - f_val(a)) >= (f_val(b + [e]) - f_val(b)) - 1e-12
    # Monotone non-decrease along greedy trajectories.
    for _ in range(100):
        m = _random_matrix(rng, 8)
        s0 = default_s0_cost(m)
        state = greedy_select(m, k=7)
        values = [8 * s0 - objective_L(m, state.selected[:j], s0)
                  for j in range(len(state.selected) + 1)]
        ok &= all(b2 >= a2 - 1e-12 for a2, b2 in zip(values, values[1:]))
        ok &= all(v >= -1e-12 for v in values)
    conclude(3, "diminishing returns + monotonicity", bool(ok))


def test_c04_greedy_guarantee():
    rng = np.random.default_rng(31)
    bound = 1 - 1 / np.e
    ok = True
    worst_ratio = np.inf
    for _ in range(200):
        n = int(rng.integers(5, 11))
        k = int(rng.integers(1, 4))
        m = _random_matrix(rng, n)
        lazy = greedy_select(m, k=k)
        naive = naive_greedy(m, k=k)
        ok &= lazy.selected == naive.selected
        _, opt = brute_force_opt(m, k=k)
        ratio = lazy.value / opt if opt > 0 else 1.0
        worst_ratio = min(worst_ratio, ratio)
        ok &= lazy.value >= bound * opt - 1e-9
    conclude(4, "greedy (1-1/e) bound + lazy==naive", bool(ok),
             f"worst F(greedy)/F(opt) {worst_ratio:.3f}")


def test_c05_gradient_fidelity():
    step = 1e-5
    worst = 0.0
    for trial in range(50):
        r = np.random.default_rng(trial)
        d, h, c = 4, 6, int(r.integers(2, 5))
        head = ClassifierHead(input_dim=d, n_classes=c, hidden_dim=h, seed=trial)
        rows = [(r.standard_normal((2, d)), int(r.integers(c))) for _ in range(8)]
        head = train(head, TrainingSet(np.stack([t.mean(axis=0) for t, _ in rows]),
                                       np.eye(c)[[cls for _, cls in rows]]))
        pooled = r.standard_normal((2, d)).mean(axis=0)
        (support,), _ = gradient_arrays(head, pooled[None, :])
        hid = np.tanh(pooled @ head.w1 + head.b1)

        def loss(hvec, cls):
            logits = hvec @ head.w2 + head.b2
            shifted = logits - logits.max()
            return -(shifted - np.log(np.exp(shifted).sum()))[cls]

        for cls in range(c):
            fd = np.empty(h)
            for j in range(h):
                up, down = hid.copy(), hid.copy()
                up[j] += step
                down[j] -= step
                fd[j] = (loss(up, cls) - loss(down, cls)) / (2 * step)
            rel = (np.linalg.norm(support[cls] - fd)
                   / max(np.linalg.norm(fd), 1e-12))
            worst = max(worst, rel)
    conclude(5, "gradients vs finite differences", worst < 1e-4,
             f"worst relative error {worst:.2e}")


def test_c06_label_mixing_exact():
    rng = np.random.default_rng(5)
    tokens = [rng.standard_normal((int(rng.integers(2, 6)), 4)) for _ in range(8)]
    labels = np.eye(3)[np.arange(8) % 3]
    labeled = TrainingSet(np.stack([t.mean(axis=0) for t in tokens]), labels)
    cfg = AugmentationConfig(factor=5, group_size=3, pairing="any-pair", seed=17)
    out = augment_wasserstein(labeled, cfg)
    ok = len(out) == 40
    for label, parents, lambdas in zip(out.labels, out.parents, out.lambdas):
        rebuilt = mix_labels([labels[i] for i in parents], lambdas)
        ok &= bool(np.array_equal(label, rebuilt))
    conclude(6, "mixed labels reconstruct bitwise", ok)


def test_c07_end_to_end_directional(e2e):
    _, records = e2e
    parts = c07_comparisons(records).values()
    conclude(7, "end-to-end directional", bool(all(ok for ok, _, _, _ in parts)),
             "; ".join(detail for _, _, _, detail in parts))


def test_c08_ablation_shape(e2e):
    _, records = e2e
    ok, _, _, detail = c08_comparison(records)
    conclude(8, "augmentation gap shrinks with data", ok, detail)


def test_c11_beyond_two_classes(tmp_path):
    ok, _, _, detail = c11_comparison(_c11_cells(str(tmp_path)))
    conclude(11, "allwas beats random with four classes", bool(ok), detail)


def test_c09_wilcoxon_exact():
    # n = 6, all positive differences: one-sided tail 1/64, two-sided 1/32.
    x = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
    y = [0.5, 1.0, 2.0, 3.0, 4.0, 5.0]
    stat, p = wilcoxon_signed_rank(x, y, mode="exact")
    ok = abs(p - 1 / 32) < 1e-12 and stat == 21.0

    rng = np.random.default_rng(3)
    for n in (5, 8, 10, 12):
        xs = rng.standard_normal(n)
        ys = xs - rng.standard_normal(n) - 0.2
        _, p_got = wilcoxon_signed_rank(xs, ys, mode="exact")
        diffs = xs - ys
        diffs = diffs[diffs != 0]
        mags = np.abs(diffs)
        order = np.argsort(mags, kind="stable")
        ranks = np.empty(len(mags))
        sorted_mags = mags[order]
        i = 0
        while i < len(sorted_mags):
            j = i
            while j + 1 < len(sorted_mags) and sorted_mags[j + 1] == sorted_mags[i]:
                j += 1
            ranks[order[i:j + 1]] = (i + j) / 2 + 1
            i = j + 1
        w = ranks[diffs > 0].sum()
        sums = np.array([
            sum(r for s, r in zip(signs, ranks) if s)
            for signs in itertools.product([0, 1], repeat=len(diffs))
        ])
        expected = min(1.0, 2 * min(np.mean(sums <= w + 1e-12),
                                    np.mean(sums >= w - 1e-12)))
        ok &= abs(p_got - expected) < 1e-12
    conclude(9, "exact signed-rank distribution", bool(ok))


def test_c10_determinism(e2e, tmp_path_factory):
    first_dir, _ = e2e
    second_dir = tmp_path_factory.mktemp("e2e_again")
    _e2e_cells(str(second_dir))
    import os
    names = sorted(n for n in os.listdir(first_dir) if n.endswith(".csv"))
    ok = bool(names)
    for name in names:
        with open(os.path.join(first_dir, name), "rb") as fh:
            a = fh.read()
        with open(os.path.join(str(second_dir), name), "rb") as fh:
            b = fh.read()
        ok &= a == b
    conclude(10, "byte-identical rerun", ok, f"{len(names)} CSVs compared")
