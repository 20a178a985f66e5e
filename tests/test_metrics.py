import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.stats import rankdata as scipy_rankdata

import seqclass
from seqclass.errors import DegenerateClass, EmptyMatrix, EmptyRuns, LabelOutOfRange
from seqclass.metrics import (
    QUALITY,
    aggregate,
    binary_auc,
    confusion,
    roc_auc_ovr_weighted,
    rankdata,
    summarize,
)


# --- independent oracles ------------------------------------------------------

def summarize_oracle(matrix):
    """Plain-loop recomputation of every summary metric from counts."""
    matrix = np.asarray(matrix)
    C = matrix.shape[0]
    n = matrix.sum()
    correct = sum(matrix[c][c] for c in range(C))
    per_class = []
    for c in range(C):
        tp = matrix[c][c]
        pred = sum(matrix[r][c] for r in range(C))
        true = sum(matrix[c])
        p = tp / pred if pred > 0 else 0.0
        r = tp / true if true > 0 else 0.0
        f1 = 2 * p * r / (p + r) if (p + r) > 0 else 0.0
        per_class.append((p, r, f1, true))
    return {
        "accuracy": correct / n,
        "precision_weighted": sum(t / n * p for p, _, _, t in per_class),
        "recall_weighted": sum(t / n * r for _, r, _, t in per_class),
        "f1_weighted": sum(t / n * f for _, _, f, t in per_class),
        "f1_macro": sum(f for _, _, f, _ in per_class) / C,
    }


def auc_oracle(scores, positives):
    """O(P*N) pairwise comparison; ties count half."""
    pos = [s for s, flag in zip(scores, positives) if flag]
    neg = [s for s, flag in zip(scores, positives) if not flag]
    wins = sum(1.0 for p in pos for q in neg if p > q)
    ties = sum(1.0 for p in pos for q in neg if p == q)
    return (wins + 0.5 * ties) / (len(pos) * len(neg))


# --- confusion -----------------------------------------------------------------

def test_confusion_counts():
    m = confusion([0, 1, 1], [0, 0, 1], 2)
    assert m.tolist() == [[1, 0], [1, 1]]


def test_confusion_perfect_is_diagonal(rng):
    y = rng.integers(0, 4, size=50)
    m = confusion(y, y, 4)
    assert (m == np.diag(np.bincount(y, minlength=4))).all()


def test_confusion_empty_is_zero():
    assert confusion([], [], 3).sum() == 0


def test_confusion_label_out_of_range():
    with pytest.raises(LabelOutOfRange):
        confusion([0, 3], [0, 0], 3)
    with pytest.raises(LabelOutOfRange):
        confusion([0, 1], [0, -1], 3)


# --- summarize -------------------------------------------------------------------

def test_summarize_worked_example():
    # y_true = [A,B,B], y_pred = [A,A,B]: both classes have F1 = 2/3
    m = confusion([0, 1, 1], [0, 0, 1], 2)
    got = summarize(m)
    assert np.isclose(got["accuracy"], 2 / 3)
    assert np.isclose(got["f1_macro"], 2 / 3)
    assert np.isclose(got["f1_weighted"], 2 / 3)


def test_summarize_majority_predictor_closed_form():
    # 5 classes, majority share 0.60, everything predicted as the majority
    m = np.zeros((5, 5), dtype=int)
    m[:, 0] = [60, 10, 10, 10, 10]
    with pytest.warns(UserWarning):
        got = summarize(m)
    assert np.isclose(got["accuracy"], 0.60)
    assert np.isclose(got["precision_weighted"], 0.36)
    assert np.isclose(got["recall_weighted"], 0.60)
    assert np.isclose(got["f1_weighted"], 0.45)
    assert np.isclose(got["f1_macro"], 0.15)


def test_summarize_perfect():
    got = summarize(np.diag([5, 3, 2]))
    assert all(np.isclose(v, 1.0) for v in got.values())


def test_summarize_empty():
    with pytest.raises(EmptyMatrix):
        summarize(np.zeros((3, 3), dtype=int))


def test_summarize_matches_oracle_exactly(rng):
    for _ in range(200):
        C = int(rng.integers(2, 6))
        n = int(rng.integers(1, 40))
        y_true = rng.integers(0, C, size=n)
        y_pred = rng.integers(0, C, size=n)
        m = confusion(y_true, y_pred, C)
        with pytest.warns() if (m.sum(axis=0) == 0).any() or (m.sum(axis=1) == 0).any() else np.errstate():
            got = summarize(m)
        want = summarize_oracle(m)
        for key, value in want.items():
            assert got[key] == pytest.approx(value, abs=1e-12), key


def test_weighted_metrics_are_convex_combinations(rng):
    for _ in range(30):
        C = int(rng.integers(2, 5))
        y_true = rng.integers(0, C, size=60)
        y_pred = rng.integers(0, C, size=60)
        m = confusion(y_true, y_pred, C)
        tp = np.diag(m)
        pred = m.sum(axis=0)
        true = m.sum(axis=1)
        prec = np.where(pred > 0, tp / np.maximum(pred, 1), 0.0)
        with np.errstate(all="ignore"):
            import warnings as _w

            with _w.catch_warnings():
                _w.simplefilter("ignore")
                got = summarize(m)
        present = true > 0
        assert prec[present].min() - 1e-12 <= got["precision_weighted"] <= prec[present].max() + 1e-12


# --- ROC-AUC -----------------------------------------------------------------------

def test_auc_constant_scores_is_half():
    scores = np.zeros((10, 3))
    y = np.array([0, 0, 0, 1, 1, 1, 2, 2, 2, 0])
    assert roc_auc_ovr_weighted(scores, y) == 0.5


def test_auc_perfect_ordering_is_one():
    y = np.array([0, 0, 1, 1, 2])
    scores = np.zeros((5, 3))
    scores[np.arange(5), y] = 10.0
    assert roc_auc_ovr_weighted(scores, y) == 1.0
    # supports 6, 23 and 1: normalising the weights before the dot product gave 1.0000000000000002
    y = np.repeat([0, 1, 2], [6, 23, 1])
    assert roc_auc_ovr_weighted(np.eye(3)[y], y) == 1.0


def test_auc_worked_example():
    # positives at ranks 1 and 3: 3 of 4 pairs ordered correctly
    scores = [0.9, 0.8, 0.3, 0.1]
    positives = [True, False, True, False]
    assert binary_auc(scores, positives) == 0.75
    assert auc_oracle(scores, positives) == 0.75


def test_auc_degenerate():
    with pytest.raises(DegenerateClass):
        roc_auc_ovr_weighted(np.zeros((4, 2)), [1, 1, 1, 1])
    with pytest.raises(DegenerateClass):
        binary_auc([1.0, 2.0], [True, True])


def test_auc_ranks_minus_inf_and_rejects_nan():
    """A class no train row had scores -inf (gnb's log prior): its column ties, and ranks
    below every finite score; a NaN score has no rank."""
    y = np.array([0, 0, 1, 1, 2, 2])
    scores = np.zeros((6, 3))
    scores[:, 0] = [3.0, 2.0, 1.0, -np.inf, 0.0, -1.0]  # class 0 first: AUC 1
    scores[:, 1] = -np.inf  # a tied column: AUC 0.5
    scores[:, 2] = [0.0, 1.0, -np.inf, -np.inf, 2.0, 0.5]  # 7 of 8 pairs ordered
    assert roc_auc_ovr_weighted(scores, y) == (1.0 + 0.5 + 0.875) / 3
    scores[5, 1] = np.nan
    with pytest.raises(DegenerateClass, match="NaN"):
        roc_auc_ovr_weighted(scores, y)


def test_auc_excludes_absent_classes_with_warning():
    scores = np.zeros((4, 3))
    scores[:, 0] = [3.0, 2.0, 1.0, 0.0]
    y = np.array([0, 0, 1, 1])  # class 2 never appears
    with pytest.warns(UserWarning, match="excluded"):
        value = roc_auc_ovr_weighted(scores, y)
    # class 0 ranks perfectly (1.0), class 1 column is constant (0.5), class 2 skipped
    assert value == 0.75


def test_auc_matches_pairwise_oracle_exactly(rng):
    for _ in range(200):
        n = int(rng.integers(4, 60))
        scores = np.round(rng.normal(size=n), 2)  # rounding forces ties
        positives = rng.integers(0, 2, size=n).astype(bool)
        if positives.all() or not positives.any():
            continue
        assert binary_auc(scores, positives) == auc_oracle(scores, positives)


@pytest.mark.parametrize("values", [
    [3.0, 1.0, 3.0, 2.0, 1.0, 3.0],  # ties
    [0.5] * 7,  # all equal
    [-0.0, 0.0, 1.0],  # signed zeros tie
    [4.2],  # one element
    [2.0, np.nan, 1.0],  # NaN propagates to every rank
])
def test_rankdata_midranks_match_scipy(values):
    values = np.asarray(values)
    np.testing.assert_array_equal(rankdata(values), scipy_rankdata(values))


def test_rankdata_midranks_match_scipy_on_random_ties(rng):
    for _ in range(200):
        values = rng.integers(0, rng.integers(1, 6), size=rng.integers(1, 40)).astype(np.float64)
        assert np.array_equal(rankdata(values), scipy_rankdata(values))


def _imported_by_cli(module: str) -> bool:
    src = os.path.dirname(os.path.dirname(seqclass.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = f"import sys, seqclass.cli; print({module!r} in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    return out.stdout.strip() == "True"


def test_cli_import_leaves_scipy_stats_out():
    assert not _imported_by_cli("scipy.stats")


def test_cli_import_leaves_scipy_sparse_linalg_out():
    assert not _imported_by_cli("scipy.sparse.linalg")  # only ridge's CG branch imports it


def test_auc_ovr_weighted_matches_oracle(rng):
    for _ in range(50):
        C = int(rng.integers(2, 5))
        n = int(rng.integers(C * 2, 50))
        y = rng.integers(0, C, size=n)
        while len(np.unique(y)) < 2:
            y = rng.integers(0, C, size=n)
        scores = np.round(rng.normal(size=(n, C)), 1)
        want_parts, want_weights = [], []
        for c in np.unique(y):
            mask = y == c
            want_parts.append(auc_oracle(scores[:, c], mask))
            want_weights.append(mask.sum())
        want = np.dot(want_parts, np.array(want_weights) / sum(want_weights))
        import warnings as _w

        with _w.catch_warnings():
            _w.simplefilter("ignore")
            got = roc_auc_ovr_weighted(scores, y)
        assert got == pytest.approx(want, abs=1e-12)


# --- aggregation ----------------------------------------------------------------------

def _metrics(value, runtime=1.0):
    return {**dict.fromkeys(QUALITY, value), "train_runtime_seconds": runtime}


def test_aggregate_identical_runs_zero_std():
    agg = aggregate([_metrics(0.6)] * 5)
    assert agg["mean"]["accuracy"] == 0.6
    assert agg["std"]["accuracy"] == 0.0
    assert agg["run_count"] == 5


def test_aggregate_population_std():
    agg = aggregate([_metrics(0.4), _metrics(0.6)])
    assert np.isclose(agg["mean"]["f1_macro"], 0.5)
    assert np.isclose(agg["std"]["f1_macro"], 0.1)  # population, not sample


def test_aggregate_single_run():
    agg = aggregate([_metrics(0.7)])
    assert agg["std"]["roc_auc_weighted_ovr"] == 0.0


def test_aggregate_empty():
    with pytest.raises(EmptyRuns):
        aggregate([])


def test_aggregate_covers_runtime():
    agg = aggregate([_metrics(0.5, runtime=2.0), _metrics(0.5, runtime=4.0)])
    assert agg["mean"]["train_runtime_seconds"] == 3.0
