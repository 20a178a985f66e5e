import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg

import seqclass.linear_models as lm
import seqclass.neural_net as nnet
from seqclass.errors import (
    DegenerateLabels,
    DimensionMismatch,
    EmptyTrainingSet,
    InvalidConfig,
    NonFiniteLoss,
)


def _blobs(rng, n_per_class, centers, scale=1.0):
    X, y = [], []
    for c, center in enumerate(centers):
        X.append(rng.normal(loc=center, scale=scale, size=(n_per_class, len(center))))
        y.extend([c] * n_per_class)
    return np.vstack(X), np.array(y)


def test_as_2d_copies_csr_data_over_the_input_index_arrays(rng):
    X = sp.csr_matrix(rng.poisson(1.0, size=(30, 8)).astype(np.int32))
    got = lm._as_2d(X)
    assert got.dtype == np.float64 and np.array_equal(got.toarray(), X.toarray())
    assert np.shares_memory(got.indices, X.indices) and np.shares_memory(got.indptr, X.indptr)
    as_float = X.astype(np.float64)  # the copy _as_2d made before, index arrays too
    assert not np.shares_memory(as_float.indices, X.indices)
    assert lm._as_2d(as_float) is as_float


@pytest.mark.parametrize("model", ["nb", "lr", "ridge"])
def test_integer_csr_fits_and_scores_as_its_float64_copy(rng, model):
    """Counts score bit for bit as astype(float64), the copy _as_2d made before."""
    X = sp.csr_matrix(rng.poisson(1.0, size=(60, 10)).astype(np.int32))
    y = np.arange(60) % 3
    fit, scores = {"nb": (lambda X: lm.gnb_fit(X, y, 3), lm.gnb_scores),
                   "lr": (lambda X: lm.logreg_fit(X, y, max_iters=30, class_count=3),
                          lm.logreg_proba),
                   "ridge": (lambda X: lm.ridge_fit(X, y, class_count=3), lm.ridge_scores)}[model]
    as_float = X.astype(np.float64)
    model_i, model_f = fit(X), fit(as_float)
    assert np.array_equal(scores(model_i, X), scores(model_f, as_float))
    assert np.array_equal(scores(model_i, X[7:19]), scores(model_i, as_float[7:19]))


# --- majority ---------------------------------------------------------------

def test_majority_basic():
    model = lm.majority_fit([0, 0, 1])
    assert model.majority_class == 0
    assert np.argmax(lm.majority_scores(model, np.zeros((4, 2))), axis=1).tolist() == [0, 0, 0, 0]


def test_majority_tie_breaks_to_smaller_id():
    model = lm.majority_fit([1, 1, 0, 0, 2])
    assert model.majority_class == 0


def test_majority_empty():
    with pytest.raises(EmptyTrainingSet):
        lm.majority_fit([])


def test_majority_scores_constant():
    model = lm.majority_fit([2, 2, 0], class_count=3)
    scores = lm.majority_scores(model, np.zeros((5, 7)))
    assert scores.shape == (5, 3)
    assert np.all(scores == scores[0])
    assert scores[0].tolist() == [0.0, 0.0, 1.0]


# --- gaussian naive bayes ------------------------------------------------------

def test_gnb_separated_blobs(rng):
    # centers 10 sigma apart: Bayes error is effectively zero
    X, y = _blobs(rng, 200, [(0.0, 0.0), (10.0, 10.0)])
    model = lm.gnb_fit(X[::2], y[::2])
    assert (np.argmax(lm.gnb_scores(model, X[1::2]), axis=1) == y[1::2]).mean() == 1.0


def test_gnb_single_class_predicts_it(rng):
    X = rng.normal(size=(10, 3))
    model = lm.gnb_fit(X, np.zeros(10, dtype=int))
    assert (np.argmax(lm.gnb_scores(model, X), axis=1) == 0).all()


def test_gnb_midpoint_tie_breaks_small_id():
    # symmetric classes around 0: means -1 and +1, equal spread, equal priors
    X = np.array([[-2.0], [0.0], [0.0], [2.0]])
    y = np.array([0, 0, 1, 1])
    model = lm.gnb_fit(X, y)
    scores = lm.gnb_scores(model, np.array([[0.0]]))
    assert abs(scores[0, 0] - scores[0, 1]) < 1e-9
    assert np.argmax(scores, axis=1)[0] == 0


def test_gnb_sparse_matches_dense(rng):
    X = rng.poisson(1.0, size=(40, 15)).astype(np.float64)
    y = rng.integers(0, 3, size=40)
    dense = lm.gnb_fit(X, y)
    sparse = lm.gnb_fit(sp.csr_matrix(X), y)
    for field in ("const", "a", "b"):
        assert np.allclose(getattr(dense, field), getattr(sparse, field))
    assert np.allclose(lm.gnb_scores(dense, X), lm.gnb_scores(sparse, sp.csr_matrix(X)))


@pytest.mark.parametrize("sparse", [False, True])
def test_gnb_model_keeps_only_its_score_terms_in_one_layout(rng, sparse):
    n, d, C = 50, 12, 4
    X = rng.poisson(0.5, size=(n, d)).astype(np.float64)
    model = lm.gnb_fit(sp.csr_matrix(X) if sparse else X, np.arange(n) % C, C)
    assert [f.name for f in dataclasses.fields(model)] == ["const", "a", "b"]
    for term in (model.a, model.b):
        assert term.shape == (d, C) and term.flags.c_contiguous
    assert sum(vars(model)[key].nbytes for key in vars(model)) == 2 * C * d * 8 + 8 * C


def test_gnb_squares_csr_values_over_the_input_index_arrays(rng):
    """power(2)'s values, bit for bit, without power(2)'s copies of indices and indptr."""
    X = lm._as_2d(sp.csr_matrix(rng.poisson(1.0, size=(20, 30)) * rng.normal(size=(20, 30))))
    squared = lm._squared(X)
    assert np.shares_memory(squared.indices, X.indices)
    assert np.shares_memory(squared.indptr, X.indptr)
    want = X.power(2)
    assert np.array_equal(squared.indptr, want.indptr)
    assert np.array_equal(squared.indices, want.indices)
    assert squared.data.tobytes() == want.data.tobytes()


def _ragged_csr(rng, n, d, dtype):
    """A CSR of n rows holding from none to all of d columns, of dtype counts or floats."""
    dense = rng.random((n, d)) < rng.random((n, 1))
    values = rng.integers(1, 256, dense.sum()) if dtype == np.uint8 else rng.normal(
        0.0, 10.0, dense.sum())
    out = np.zeros((n, d), dtype)
    out[dense] = values
    return sp.csr_matrix(out)


@pytest.mark.parametrize("dtype", [np.uint8, np.float64])
@pytest.mark.parametrize("n", [1, 3, 7, 250, 1001])
def test_column_means_are_scipys_mean_bit_for_bit(rng, dtype, n):
    X = _ragged_csr(rng, n, 60, dtype)
    got = lm._column_means(lm._as_2d(X))
    assert got.dtype == np.float64 and got.shape == (60,)
    assert got.tobytes() == np.asarray(X.mean(axis=0)).ravel().tobytes()


def _scipys_column_means(X):
    return np.asarray(X.mean(axis=0)).ravel()


def test_gnb_fit_takes_its_global_means_without_a_scaled_copy(rng, monkeypatch):
    """gnb_fit's global means come from a product with X's transpose, not from scipy's
    mean, which scales a copy of X (12 bytes a nonzero): on uint8 counts the fit peaks
    that much lower, with the same model bit for bit. So does ridge's dual."""
    import tracemalloc

    X, C = _ragged_csr(rng, 4000, 200, np.uint8), 3
    y = np.arange(4000) % C

    def traced_fit():
        tracemalloc.start()
        model = lm.gnb_fit(X, y, C)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        return model, peak

    model, peak = traced_fit()
    with monkeypatch.context() as patch:
        patch.setattr(lm, "_column_means", _scipys_column_means)
        before, before_peak = traced_fit()
        dual = lm.ridge_fit(X[:150], y[:150], class_count=C)
    for got, want in zip((model.const, model.a, model.b), (before.const, before.a, before.b)):
        assert got.tobytes() == want.tobytes()
    assert before_peak - peak >= 0.95 * 12 * X.nnz
    ridge = lm.ridge_fit(X[:150], y[:150], class_count=C)
    assert ridge.solver == dual.solver == "dual"
    assert ridge.bias.tobytes() == dual.bias.tobytes()
    assert ridge.weights.tobytes() == dual.weights.tobytes()


def _reference_gnb_fit(X, y, C):
    """The per-class loop that gnb_fit's class-indicator product replaced: (means, variances)."""
    X = lm._as_2d(X)
    d = X.shape[1]
    if sp.issparse(X):
        global_mean = np.asarray(X.mean(axis=0)).ravel()
        global_var = np.asarray(X.multiply(X).mean(axis=0)).ravel() - global_mean**2
    else:
        global_var = X.var(axis=0)
    max_var = float(global_var.max())
    eps = 1e-9 * max_var if max_var > 0 else 1e-9
    means, variances = np.zeros((C, d)), np.zeros((C, d))
    for c in range(C):
        rows = np.flatnonzero(y == c)
        if rows.size == 0:
            variances[c] = eps
            continue
        Xc = X[rows]
        if sp.issparse(Xc):
            mu = np.asarray(Xc.mean(axis=0)).ravel()
            ex2 = np.asarray(Xc.multiply(Xc).mean(axis=0)).ravel()
        else:
            mu = Xc.mean(axis=0)
            ex2 = (Xc**2).mean(axis=0)
        means[c] = mu
        variances[c] = np.maximum(ex2 - mu**2, 0.0) + eps
    return means, variances


def _reference_gnb_terms(X, y, C):
    """(const, a, b) from the per-class loop's means and variances, with a and b the
    transposes of C x d arrays."""
    means, variances = _reference_gnb_fit(X, y, C)
    with np.errstate(divide="ignore"):
        log_priors = np.log(np.bincount(y, minlength=C) / len(y))
    inv_var = 1.0 / variances
    log_det = np.sum(np.log(2.0 * np.pi * variances), axis=1)
    const = log_priors - 0.5 * log_det - 0.5 * np.sum(means**2 * inv_var, axis=1)
    return const, (means * inv_var).T, (-0.5 * inv_var).T


def _reference_gnb_scores(terms, X):
    """gnb_scores from _reference_gnb_terms (scipy copies the transposed views), the reference."""
    const, a, b = terms
    if sp.issparse(X):
        return np.asarray(X @ a) + np.asarray(X.multiply(X) @ b) + const
    return X @ a + (X * X) @ b + const


@pytest.mark.parametrize("n, d, C", [(1, 9, 2), (40, 15, 3), (90, 441, 7), (300, 2000, 20)])
def test_gnb_scores_bit_identical_to_reference(rng, n, d, C):
    X = rng.poisson(0.3, size=(n, d)).astype(np.float64)
    y = np.arange(n) % C
    for rows in (X, sp.csr_matrix(X), X + rng.normal(size=X.shape)):
        model = lm.gnb_fit(rows, y, C)
        terms = _reference_gnb_terms(rows, y, C)
        assert np.array_equal(lm.gnb_scores(model, rows), _reference_gnb_scores(terms, rows))


@pytest.mark.parametrize("fitted_on", ["dense", "csr"])
def test_gnb_scores_of_either_input_type_in_blocks_are_bit_identical(rng, fitted_on):
    """gnb_fit computes the score terms once; each input type still reads them in its own
    layout, so every block scores as the per-call reference does, whatever the fit saw."""
    n, d, C = 90, 441, 7
    X = rng.poisson(0.3, size=(n, d)) * rng.normal(2.0, 3.0, size=(n, d))
    y = np.arange(n) % C
    fitted = X if fitted_on == "dense" else sp.csr_matrix(X)
    model, terms = lm.gnb_fit(fitted, y, C), _reference_gnb_terms(fitted, y, C)
    for rows in (X, sp.csr_matrix(X)):
        for height in (1, 7, 64, n):
            for start in range(0, n, height):
                block = rows[start : start + height]
                assert np.array_equal(lm.gnb_scores(model, block),
                                      _reference_gnb_scores(terms, block)), (height, start)


@pytest.mark.parametrize("kind", ["dense", "csr", "dense-empty-class", "csr-empty-class"])
@pytest.mark.parametrize("n, d, C", [(1, 9, 2), (40, 15, 3), (90, 441, 7), (300, 2000, 20)])
def test_gnb_fit_bit_identical_to_per_class_loop(rng, kind, n, d, C):
    X = rng.poisson(0.3, size=(n, d)) * rng.normal(2.0, 3.0, size=(n, d))
    y = rng.permutation(np.arange(n) % C)
    if kind.endswith("empty-class"):
        y[y == 1] = 0  # class 1 has no rows
    if kind.startswith("csr"):
        X = sp.csr_matrix(X)
    model = lm.gnb_fit(X, y, C)
    for got, want in zip((model.const, model.a, model.b), _reference_gnb_terms(X, y, C)):
        assert got.tobytes() == want.tobytes()
    if kind.endswith("empty-class"):  # means 0 and the floored variance, the smallest
        assert not model.a[:, 1].any() and np.all(model.b[:, 1] == model.b.min())


def test_gnb_variance_floor_positive():
    X = np.ones((4, 2))  # all features constant
    model = lm.gnb_fit(X, np.array([0, 0, 1, 1]))
    assert np.isfinite(model.b).all() and (model.b < 0).all()


def test_gnb_dimension_mismatch(rng):
    model = lm.gnb_fit(rng.normal(size=(10, 4)), rng.integers(0, 2, 10))
    with pytest.raises(DimensionMismatch):
        lm.gnb_scores(model, rng.normal(size=(3, 5)))


# --- logistic regression --------------------------------------------------------

def test_logreg_separable_blobs(rng):
    X, y = _blobs(rng, 60, [(-3.0, 0.0), (3.0, 0.0)], scale=0.5)
    # margin check: the construction leaves a gap along x0
    assert X[y == 0, 0].max() < X[y == 1, 0].min()
    model = lm.logreg_fit(X, y, l2_lambda=1e-4, max_iters=500)
    assert (np.argmax(lm.logreg_proba(model, X), axis=1) == y).mean() == 1.0
    assert model.n_iters <= 500


def test_logreg_degenerate_labels(rng):
    with pytest.raises(DegenerateLabels):
        lm.logreg_fit(rng.normal(size=(5, 2)), np.zeros(5, dtype=int))


def test_logreg_rows_sum_to_one(rng):
    X, y = _blobs(rng, 30, [(0.0,), (1.0,), (4.0,)], scale=1.0)
    model = lm.logreg_fit(X, y, max_iters=50)
    probs = lm.logreg_proba(model, rng.normal(size=(25, 1)) * 10)
    assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-9)


def test_logreg_monotone_loss(rng):
    X, y = _blobs(rng, 40, [(-1.0, 1.0), (1.0, -1.0)], scale=1.5)
    model = lm.logreg_fit(X, y, max_iters=200)
    trace = np.array(model.loss_trace)
    assert np.all(np.diff(trace) <= 0)


def test_logreg_gradient_matches_finite_differences(rng):
    # central differences on random small instances
    for _ in range(10):
        n, d, C = int(rng.integers(3, 20)), int(rng.integers(1, 5)), int(rng.integers(2, 4))
        X = rng.normal(size=(n, d))
        y = rng.integers(0, C, size=n)
        y[:C] = np.arange(C)  # every class present
        W = rng.normal(size=(C, d)) * 0.5
        b = rng.normal(size=C) * 0.5
        lam = 10.0 ** rng.uniform(-5, -2)
        loss, gw, gb = lm.logreg_loss_grad(W.copy(), b.copy(), X, y, lam)
        eps = 1e-6
        for arr, grad in ((W, gw), (b, gb)):
            it = np.nditer(arr, flags=["multi_index"])
            for _v in it:
                ix = it.multi_index
                orig = arr[ix]
                arr[ix] = orig + eps
                lp, _, _ = lm.logreg_loss_grad(W, b, X, y, lam)
                arr[ix] = orig - eps
                lmns, _, _ = lm.logreg_loss_grad(W, b, X, y, lam)
                arr[ix] = orig
                fd = (lp - lmns) / (2 * eps)
                denom = max(abs(fd), abs(grad[ix]), 1e-8)
                assert abs(fd - grad[ix]) / denom < 1e-4


def test_logreg_sparse_input(rng):
    X = rng.poisson(1.0, size=(60, 10)).astype(np.float64)
    y = (X[:, 0] > 1).astype(int)
    model = lm.logreg_fit(sp.csr_matrix(X), y, max_iters=100)
    dense_model = lm.logreg_fit(X, y, max_iters=100)
    assert np.allclose(model.weights, dense_model.weights, atol=1e-8)


def _gradient_descent_fit(X, y, l2_lambda=1e-4, max_iters=1000, tol=1e-6, class_count=None):
    """Reference: the Armijo gradient descent that L-BFGS replaced, with a gradient per candidate."""
    X = lm._as_2d(X)
    y = np.asarray(y, dtype=np.int64)
    C = class_count or int(y.max()) + 1
    weights, bias, step = np.zeros((C, X.shape[1])), np.zeros(C), 1.0
    loss, grad_w, grad_b = lm.logreg_loss_grad(weights, bias, X, y, l2_lambda)
    trace = [loss]
    for _ in range(max_iters):
        gnorm_sq = float(np.sum(grad_w**2) + np.sum(grad_b**2))
        if np.sqrt(gnorm_sq) <= tol:
            break
        for _ in range(60):
            cand_w, cand_b = weights - step * grad_w, bias - step * grad_b
            cand = lm.logreg_loss_grad(cand_w, cand_b, X, y, l2_lambda)
            if cand[0] <= loss - 1e-4 * step * gnorm_sq:
                break
            step *= 0.5
        else:
            break
        weights, bias = cand_w, cand_b
        loss, grad_w, grad_b = cand
        trace.append(loss)
        step = min(step * 2.0, 1e6)
    gnorm = float(np.sqrt(np.sum(grad_w**2) + np.sum(grad_b**2)))
    return lm.LogisticRegressionModel(weights, bias, l2_lambda, len(trace) - 1, trace,
                                      converged=gnorm <= tol, grad_norm=gnorm)


def _overlapping_blobs(rng, sparse):
    X, y = _blobs(rng, 30, [(0.0, 0.0, 1.0, 0.5), (1.0, 0.5, 0.0, 0.0), (0.0, 2.0, 0.0, 1.0)],
                  scale=1.5)
    X = np.abs(X)
    X[X < 0.5] = 0.0  # about a third zeros, so CSR stores a real pattern
    return (sp.csr_matrix(X) if sparse else X), y


@pytest.mark.parametrize("sparse", [False, True])
def test_logreg_lbfgs_matches_converged_gradient_descent(rng, monkeypatch, sparse):
    """Both solvers reach the unique optimum of the strictly convex (lambda > 0) objective.

    Both stop at gradient norm 1e-8 (gradient descent stalls near 1e-8:
    its Armijo decrease falls below the loss's rounding). With lambda =
    1e-2 that leaves each within about 1e-6 of the optimum, and the
    objective within ||g||^2 / (2 lambda) = 5e-15. Stated tolerances:
    objective within 1e-13 relative, weights and bias within 1e-6 relative
    (measured: 1.6e-15 and 2.4e-7).
    """
    X, y = _overlapping_blobs(rng, sparse)
    lam, tol = 1e-2, 1e-8
    reference = _gradient_descent_fit(X, y, l2_lambda=lam, max_iters=20_000, tol=tol)
    assert reference.converged
    calls = []
    full = lm.logreg_loss_grad
    monkeypatch.setattr(lm, "logreg_loss_grad", lambda *a, **k: calls.append(1) or full(*a, **k))
    model = lm.logreg_fit(X, y, l2_lambda=lam, max_iters=1000, tol=tol)
    assert model.converged and model.grad_norm <= tol
    assert model.n_iters < reference.n_iters / 10
    assert len(calls) == len(model.loss_trace)  # one gradient per accepted step, plus the start
    assert np.all(np.diff(model.loss_trace) <= 0)
    assert abs(model.loss_trace[-1] - reference.loss_trace[-1]) <= 1e-13 * reference.loss_trace[-1]
    params = np.hstack([model.weights, model.bias[:, None]])
    want = np.hstack([reference.weights, reference.bias[:, None]])
    assert np.linalg.norm(params - want) <= 1e-6 * np.linalg.norm(want)


def _lbfgs_fit_with_blas_dots(X, y, l2_lambda=1e-4, max_iters=1000, tol=1e-6, class_count=None):
    """Reference: logreg_fit as it was before `_dot`, with BLAS inner products and norms
    (`@`, np.linalg.norm) and a new array for every vector update."""
    X = lm._as_2d(X)
    y = np.asarray(y, dtype=np.int64)
    d = X.shape[1]
    C = class_count or int(y.max()) + 1

    def views(theta):
        return theta[:C * d].reshape(d, C).T, theta[C * d:]

    def loss_grad(theta, evaluated=None):
        loss, grad_w, grad_b = lm.logreg_loss_grad(*views(theta), X, y, l2_lambda, evaluated)
        return loss, np.concatenate((grad_w.T.ravel(), grad_b))

    x = np.zeros(C * (d + 1))
    loss, grad = loss_grad(x)
    gnorm = float(np.linalg.norm(grad))
    trace, pairs = [loss], []
    while gnorm > tol and len(trace) <= max_iters:
        direction = grad.copy()
        alphas = []
        for s, yv, rho in reversed(pairs):
            alphas.append(rho * (s @ direction))
            direction -= alphas[-1] * yv
        if pairs:
            _, yv, rho = pairs[-1]
            direction *= 1.0 / (rho * (yv @ yv))
        else:
            direction /= gnorm
        for (s, yv, rho), a in zip(pairs, reversed(alphas)):
            direction += (a - rho * (yv @ direction)) * s
        np.negative(direction, out=direction)
        slope = float(grad @ direction)
        if not slope < 0:
            break
        step = 1.0
        for _ in range(60):
            candidate = direction * step + x
            evaluated = lm._logreg_loss(*views(candidate), X, y, l2_lambda)
            if evaluated[0] <= loss + 1e-4 * step * slope:
                break
            step *= 0.5
        else:
            break
        x = candidate
        loss, new_grad = loss_grad(x, evaluated)
        y_new = new_grad - grad
        grad = new_grad
        gnorm = float(np.linalg.norm(grad))
        trace.append(loss)
        direction *= step
        sy = float(direction @ y_new)
        if sy > 0:
            pairs.append((direction, y_new, 1.0 / sy))
            del pairs[:-lm.LBFGS_MEMORY]
    weights, bias = views(x)
    return lm.LogisticRegressionModel(weights, bias, l2_lambda, len(trace) - 1, trace,
                                      converged=gnorm <= tol, grad_norm=gnorm)


def test_logreg_fit_matches_the_fit_with_blas_dots():
    """RFF features of 3-mer counts, at the benchmark's flat size C(D+1) = 20 020.

    20 classes of 12 sequences share a 200-residue reference; each class
    carries its own residue at 6 sites with probability 0.9, and every
    residue mutates with probability 0.01. The fits train on a third of
    the rows. Their iterates part by rounding, so each stops at its own
    point with gradient norm at most tol; lambda > 0 makes the objective
    strictly convex, so each final loss lies within tol^2 / (2 lambda) =
    5e-9 of the optimum. Stated tolerance: the final losses within 1e-8,
    absolute (measured: 2.0e-9 here, 1.1e-9 relative, after 121 and 120
    iterations; at most 1.6e-9 at seeds 1-4), and the same argmax on
    every test row.
    """
    from seqclass import rff
    from seqclass.features import kmer_matrix

    from conftest import random_sequences

    rng = np.random.default_rng(0)
    C, per_class, length, lam, tol = 20, 12, 200, 1e-4, 1e-6
    reference = random_sequences(rng, 1, length)[0]
    seqs = []
    for _ in range(C):
        sites = rng.choice(length, 6, replace=False)
        own = random_sequences(rng, 1, 6)[0]
        for _ in range(per_class):
            seq = list(reference)
            for site, residue in zip(sites, own):
                if rng.random() < 0.9:
                    seq[site] = residue
            for site in np.flatnonzero(rng.random(length) < 0.01):
                seq[site] = random_sequences(rng, 1, 1)[0]
            seqs.append("".join(seq))
    y = np.repeat(np.arange(C), per_class)
    counts = kmer_matrix(seqs, 3)
    projector = rff.new_projector(counts.shape[1], 1000, rff.default_gamma(counts.shape[1]), 0)
    X = rff.project(projector, counts)
    train = np.arange(len(y)) % 3 == 0

    old = _lbfgs_fit_with_blas_dots(X[train], y[train], lam, tol=tol, class_count=C)
    new = lm.logreg_fit(X[train], y[train], lam, tol=tol, class_count=C)
    assert new.weights.size + new.bias.size == 20_020
    assert old.converged and new.converged
    assert abs(new.loss_trace[-1] - old.loss_trace[-1]) <= 1e-8
    assert np.array_equal(np.argmax(lm.logreg_proba(new, X[~train]), axis=1),
                          np.argmax(lm.logreg_proba(old, X[~train]), axis=1))


def test_logreg_dot_is_the_same_bits_at_one_and_two_blas_threads():
    """OpenBLAS threads a ddot above 10 000 elements; the fit's dot sums on one thread."""
    import os
    import subprocess
    import sys

    import seqclass

    src = os.path.dirname(os.path.dirname(seqclass.__file__))
    code = ("import numpy as np; from seqclass.linear_models import _dot; "
            "a, b = np.random.default_rng(7).normal(size=(2, 20_020)); "
            "print(np.float64(_dot(a, b)).tobytes().hex())")
    outputs = set()
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True)
        outputs.add(out.stdout.strip())
    assert len(outputs) == 1 and len(outputs.pop()) == 16


def test_logreg_reports_convergence(rng):
    X, y = _overlapping_blobs(rng, sparse=False)
    model = lm.logreg_fit(X, y, max_iters=1000, tol=1e-6)
    assert model.converged and model.grad_norm <= 1e-6
    _, grad_w, grad_b = lm.logreg_loss_grad(model.weights, model.bias, X, y, model.l2_lambda)
    assert np.isclose(model.grad_norm, np.sqrt(np.sum(grad_w**2) + np.sum(grad_b**2)),
                      rtol=1e-9, atol=0.0)
    capped = lm.logreg_fit(X, y, max_iters=3, tol=1e-6)
    assert capped.n_iters == 3 and not capped.converged and capped.grad_norm > 1e-6


def test_logreg_non_finite_features_raise(rng):
    X, y = _overlapping_blobs(rng, sparse=False)
    X[3, 1] = np.inf
    with pytest.raises(NonFiniteLoss), np.errstate(invalid="ignore"):
        lm.logreg_fit(X, y)


# --- ridge classifier -------------------------------------------------------------

def test_ridge_one_dimensional_boundary():
    # closed form for x in {-1, +1}: w = n / (n + alpha), bias 0, boundary at 0
    X = np.array([[-1.0], [-1.0], [1.0], [1.0]])
    y = np.array([0, 0, 1, 1])
    alpha = 1e-8
    model = lm.ridge_fit(X, y, alpha=alpha)
    expected_w = 4.0 / (4.0 + alpha)
    assert np.isclose(model.weights[1, 0], expected_w, atol=1e-6)
    assert np.isclose(model.weights[0, 0], -expected_w, atol=1e-6)
    assert np.allclose(model.bias, 0.0, atol=1e-9)
    scores = lm.ridge_scores(model, np.array([[0.0]]))
    assert abs(scores[0, 0] - scores[0, 1]) < 1e-9  # boundary at the origin


def test_ridge_huge_alpha_falls_back_to_class_means(rng):
    X = rng.normal(size=(50, 3))
    y = np.array([0] * 35 + [1] * 15)
    model = lm.ridge_fit(X, y, alpha=1e12)
    assert np.all(np.abs(model.weights) < 1e-6)
    # bias orders classes by frequency: mean target is 2p_c - 1
    assert model.bias[0] > model.bias[1]
    assert (np.argmax(lm.ridge_scores(model, rng.normal(size=(5, 3))), axis=1) == 0).all()


def test_ridge_deterministic(rng):
    X = rng.normal(size=(30, 6))
    y = rng.integers(0, 3, 30)
    a = lm.ridge_fit(X, y, alpha=0.7)
    b = lm.ridge_fit(X, y, alpha=0.7)
    assert np.array_equal(a.weights, b.weights)
    assert np.array_equal(a.bias, b.bias)


def test_ridge_cg_matches_normal_equations(rng, monkeypatch):
    X = rng.normal(size=(40, 12))
    y = rng.integers(0, 3, 40)
    direct = lm.ridge_fit(X, y, alpha=0.5)
    monkeypatch.setattr(lm, "RIDGE_DENSE_LIMIT", 4)  # force the CG path
    cg_calls = []
    cg = scipy.sparse.linalg.cg  # imported inside the CG branch, so patched at its source
    monkeypatch.setattr(scipy.sparse.linalg, "cg", lambda *a, **kw: cg_calls.append(1) or cg(*a, **kw))
    iterative = lm.ridge_fit(X, y, alpha=0.5)
    assert len(cg_calls) == 3  # one solve per class
    assert (direct.solver, iterative.solver) == ("primal", "cg")
    scale = np.abs(direct.weights).max()
    assert np.allclose(direct.weights, iterative.weights, atol=1e-6 * scale, rtol=1e-6)
    assert np.allclose(direct.bias, iterative.bias, atol=1e-6)


def _targets(y, class_count):
    targets = np.full((len(y), class_count), -1.0)
    targets[np.arange(len(y)), y] = 1.0
    return targets


def _ridge_residual(X, y, class_count, model):
    """Relative residual of (A'A + alpha P) w = A'T with A = [X, 1] and P unpenalising the 1."""
    X = np.asarray(X.toarray() if sp.issparse(X) else X)
    A = np.hstack([X, np.ones((X.shape[0], 1))])
    w = np.vstack([model.weights.T, model.bias])
    lhs = A.T @ (A @ w)
    lhs[:-1] += model.alpha * w[:-1]
    rhs = A.T @ _targets(y, class_count)
    return np.linalg.norm(lhs - rhs) / np.linalg.norm(rhs)


def test_ridge_solver_is_the_one_rule_of_fit_and_bytes(monkeypatch):
    """The dual while n <= d, else the primal, each only up to RIDGE_DENSE_LIMIT, else CG,
    whose fit_bytes counts none of the direct solve's arrays."""
    monkeypatch.setattr(lm, "RIDGE_DENSE_LIMIT", 10)
    cases = {(5, 5): "dual", (6, 5): "primal", (10, 20): "dual", (11, 20): "cg",
             (20, 9): "primal", (20, 10): "cg"}
    assert {shape: lm._ridge_solver(*shape) for shape in cases} == cases
    assert lm.fit_bytes("ridge", 11, 20, 3) == lm.fit_bytes("ridge", 20, 10, 3) == 0
    assert lm.fit_bytes("ridge", 20, 9, 3) == 2 * 10 * 10 * 8 + lm.rff.GEMM_BLOCK_BYTES + 8 * 20 * 3


# dual and primal agreed to about 1e-12 here, 5e-11 on the 3-mer benchmark shape
RIDGE_RTOL = 1e-8


@pytest.mark.parametrize("sparse", [False, True], ids=["dense", "csr"])
@pytest.mark.parametrize("n, d", [(12, 80), (20, 20), (21, 20)], ids=["n<<d", "n=d", "n=d+1"])
def test_ridge_dual_matches_primal(rng, sparse, n, d):
    X = rng.poisson(1.0, size=(n, d)).astype(np.float64)  # count-like, as k-mer features
    y = rng.integers(1, 4, size=n)
    y[:4] = [0, 1, 2, 3]  # class 0 has one member
    C = 6  # classes 4 and 5 never appear in the labels
    X = sp.csr_matrix(X) if sparse else X
    T = _targets(y, C)
    dual = lm._ridge_dual(lm._as_2d(X), T, 0.5)
    primal = lm._ridge_primal(lm._as_2d(X), T, 0.5)
    X_test = rng.poisson(1.0, size=(15, d)).astype(np.float64)
    scores = [X_test @ w.T + b for w, b in (dual, primal)]
    for got, want in zip((*dual, scores[0]), (*primal, scores[1])):
        assert np.allclose(got, want, rtol=RIDGE_RTOL, atol=RIDGE_RTOL * np.abs(want).max())

    model = lm.ridge_fit(X, y, alpha=0.5, class_count=C)
    chosen = dual if n < d + 1 else primal  # the direct solve runs in the smaller space
    assert np.array_equal(model.weights, chosen[0]) and np.array_equal(model.bias, chosen[1])
    assert model.solver == ("dual" if n < d + 1 else "primal")
    assert _ridge_residual(X, y, C, model) < 1e-10
    assert np.allclose(model.weights[4:], 0.0, atol=1e-12)  # unseen classes: all -1 targets
    assert np.allclose(model.bias[4:], -1.0, atol=1e-12)


def _bordered(X):
    """[X, 1] as a dense array."""
    X = X.toarray() if sp.issparse(X) else X
    return np.hstack([X, np.ones((X.shape[0], 1))])


def test_gram_of_counts_in_uneven_blocks_is_bit_identical(rng, monkeypatch):
    """Row blocks of 3 and 4 rows, the last of one row, on both sides of the solve."""
    counts = rng.poisson(3.0, size=(13, 10)).astype(np.float64)
    counts[2] = 0.0  # an empty row, and so an empty column of X'
    X = sp.csr_matrix(counts)
    monkeypatch.setattr(lm.rff, "GEMM_BLOCK_BYTES", 3 * 8 * 13)  # X' rows 3 + 3 + 3 + 1
    assert np.array_equal(lm._gram(X.T.tocsr()), (X @ X.T).toarray())
    monkeypatch.setattr(lm.rff, "GEMM_BLOCK_BYTES", 4 * 8 * 11)  # [X, 1] rows 4 + 4 + 4 + 1
    A = sp.csr_matrix(_bordered(X))
    assert np.array_equal(lm._gram(X, bias=True), (A.T @ A).toarray())


@pytest.mark.parametrize("sparse", [True, False])
def test_gram_in_ragged_blocks_of_csr_or_dense_counts(rng, monkeypatch, sparse):
    """Blocks of 4 + 4 + 2 rows, of one row each and one block of all ten, all written into
    one buffer: int32 counts give their float64 copy's Gram matrix, bit for bit."""
    counts = rng.poisson(0.4, size=(10, 6)).astype(np.float64)
    A = _bordered(counts)
    for dtype in (np.int32, np.float64):
        M = sp.csr_matrix(counts.astype(dtype)) if sparse else counts.astype(dtype)
        for block_bytes in (4 * 8 * 7, 1, 8 << 20):  # [M, 1] is 7 columns wide
            monkeypatch.setattr(lm.rff, "GEMM_BLOCK_BYTES", block_bytes)
            assert np.array_equal(lm._gram(M, bias=True), A.T @ A)
            assert np.array_equal(lm._gram(M), counts.T @ counts)


def test_gram_of_uint8_counts_does_not_wrap(rng):
    """kmer_matrix stores counts as uint8, whose products and sums leave uint8's range:
    the Gram matrix is that of their float64 copy, dense or CSR."""
    counts = rng.integers(0, 256, size=(9, 5)).astype(np.uint8)
    A = _bordered(counts.astype(np.float64))
    for M in (counts, sp.csr_matrix(counts)):
        assert np.array_equal(lm._gram(M, bias=True), A.T @ A)


def test_gram_of_one_dense_block_is_numpys_product(rng):
    """One block is one product: [X, 1] is copied as np.hstack lays it out, and X' is copied
    into C order, whose product OpenBLAS sums as it sums X @ X.T."""
    X = rng.normal(size=(13, 10))
    assert np.array_equal(lm._gram(X.T), X @ X.T)
    A = _bordered(X)
    assert np.array_equal(lm._gram(X, bias=True), A.T @ A)


def test_gram_of_normalized_rows_agrees_to_rounding(rng, monkeypatch):
    """l2_normalize input is not integer: the blocks sum in another order than scipy."""
    from seqclass.features import l2_normalize_rows

    X = l2_normalize_rows(sp.csr_matrix(rng.poisson(1.0, size=(40, 30)).astype(np.float64)))
    monkeypatch.setattr(lm.rff, "GEMM_BLOCK_BYTES", 7 * 8 * 40)  # X' rows 7 + ... + 2
    dual = lm._gram(X.T.tocsr())
    assert np.allclose(dual, (X @ X.T).toarray(), rtol=0, atol=1e-14)  # entries are at most 1
    A = sp.csr_matrix(_bordered(X))
    primal = lm._gram(X, bias=True)  # rows 9 + 9 + 9 + 9 + 4
    assert np.allclose(primal, (A.T @ A).toarray(), rtol=0, atol=1e-13)  # entries up to 40


def test_ridge_rejects_bad_alpha(rng):
    with pytest.raises(InvalidConfig):
        lm.ridge_fit(rng.normal(size=(4, 2)), [0, 1, 0, 1], alpha=0.0)


def test_ridge_singular_direct_solve_is_non_finite_loss(rng):
    """Counts sum exactly, so a repeated row (dual) or column (primal) leaves the system
    singular once alpha rounds away; numpy's LinAlgError becomes NonFiniteLoss."""
    X = sp.csr_matrix(rng.poisson(1.0, size=(6, 40)).astype(np.float64))
    X = sp.vstack([X, X[0]]).tocsr()
    with pytest.raises(NonFiniteLoss, match="singular at alpha 1e-300"):
        lm.ridge_fit(X, [0, 1, 0, 1, 0, 1, 0], alpha=1e-300)  # n = 7 <= d: the dual
    D = rng.poisson(1.0, size=(30, 5)).astype(np.float64)
    D = np.hstack([D, D[:, :1]])
    with pytest.raises(NonFiniteLoss, match="singular at alpha 1e-320"):
        lm.ridge_fit(D, rng.integers(0, 2, 30), alpha=1e-320)  # n = 30 > d: the primal
    assert lm.ridge_fit(D, rng.integers(0, 2, 30), alpha=1.0).solver == "primal"


def test_ridge_sparse_input(rng):
    X = rng.poisson(1.0, size=(25, 8)).astype(np.float64)
    y = rng.integers(0, 2, 25)
    dense = lm.ridge_fit(X, y, alpha=1.0)
    sparse = lm.ridge_fit(sp.csr_matrix(X), y, alpha=1.0)
    assert np.allclose(dense.weights, sparse.weights)


# --- scores shape / tie handling ----------------------------------------------

def test_score_shapes_and_tie_direction(rng):
    X = rng.normal(size=(12, 5))
    y = rng.integers(0, 3, 12)
    y[:3] = [0, 1, 2]
    for fit, score in (
        (lambda: lm.majority_fit(y, 3), lm.majority_scores),
        (lambda: lm.gnb_fit(X, y), lm.gnb_scores),
        (lambda: lm.logreg_fit(X, y, max_iters=20), lm.logreg_proba),
        (lambda: lm.ridge_fit(X, y), lm.ridge_scores),
        (lambda: nnet.nn_train(X, y, 3, hidden_width=4, epochs=2), nnet.nn_scores),
    ):
        model = fit()
        for rows in (X, sp.csr_matrix(X), X[:1]):
            assert score(model, rows).shape == (rows.shape[0], 3)
    # a tied majority picks the smaller id, and argmax of its scores agrees
    tied = lm.majority_fit([2, 1, 1, 2], 3)
    assert tied.majority_class == 1
    assert np.argmax(lm.majority_scores(tied, X), axis=1).tolist() == [1] * 12
    # argmax on exact ties returns the smaller class id
    assert int(np.argmax(np.array([1.0, 1.0, 0.5]))) == 0


def test_model_summary_names_each_kind(rng):
    """pipeline._fit gives each model's kind and diagnostics, in one key order per kind."""
    from seqclass.config import ExperimentConfig
    from seqclass.pipeline import _fit

    X = rng.normal(size=(30, 4))
    y = rng.integers(0, 2, 30)
    y[:2] = [0, 1]
    keys = {
        "majority": ["kind", "majority_class", "class_count"],
        "nb": ["kind", "class_count", "input_dim"],
        "lr": ["kind", "l2_lambda", "n_iters", "converged", "grad_norm", "final_loss"],
        "ridge": ["kind", "alpha", "solver"],
        "nn": ["kind", "hidden_width", "epochs", "final_loss"],
    }
    fitted = {}
    for name in keys:
        config = ExperimentConfig(model=name, lr_max_iters=30, nn_hidden_width=8, nn_epochs=3)
        model, scores, diagnostics = _fit(config, X, y, 2, config.nn_seed)
        assert list(diagnostics) == keys[name]
        assert scores(model, X).shape == (30, 2)
        fitted[name] = model, diagnostics
    kinds = {name: diagnostics["kind"] for name, (_, diagnostics) in fitted.items()}
    assert kinds == {"majority": "majority", "nb": "gnb", "lr": "logreg", "ridge": "ridge", "nn": "nn"}
    majority, diagnostics = fitted["majority"]
    assert diagnostics["majority_class"] == majority.majority_class == np.argmax(np.bincount(y))
    assert fitted["nb"][1]["class_count"] == 2 and fitted["nb"][1]["input_dim"] == 4
    logreg, diagnostics = fitted["lr"]
    assert diagnostics["final_loss"] == logreg.loss_trace[-1]
    assert diagnostics["n_iters"] == logreg.n_iters <= 30
    assert diagnostics["converged"] is logreg.converged
    ridge, diagnostics = fitted["ridge"]
    assert diagnostics["alpha"] == 1.0
    assert diagnostics["solver"] == ridge.solver == "primal"  # 30 rows, 4 columns
    nn_diagnostics = fitted["nn"][1]
    assert nn_diagnostics["hidden_width"] == 8 and nn_diagnostics["epochs"] == 3
    net = nnet.nn_train(X, y, 2, hidden_width=8, epochs=3)
    assert nn_diagnostics["final_loss"] == net.loss_trace[-1]


# --- fits in the used columns ------------------------------------------------

def _nominal_and_used_columns(rng, n=300, length=30, k=3, C=4):
    """k-mer rows with class signal, the same rows on their used columns, train and test rows."""
    from seqclass.features import kmer_matrix, used_columns

    from conftest import random_sequences

    y = rng.integers(0, C, n)
    seqs = random_sequences(rng, n, length)
    motifs = random_sequences(rng, C, 6)
    seqs = [motifs[c] + s[6:] for s, c in zip(seqs, y)]  # a class motif in front
    X = kmer_matrix(seqs, k=k)
    restricted, columns = used_columns(X), np.unique(X.indices)
    train = np.sort(rng.choice(n, n // 3, replace=False))
    test = np.setdiff1d(np.arange(n), train)
    return X, restricted, columns, y, train, test


def test_ridge_dual_on_used_columns_is_bit_identical(rng):
    X, R, columns, y, train, test = _nominal_and_used_columns(rng)
    assert len(train) <= R.shape[1]  # the dual path
    nominal = lm.ridge_fit(X[train], y[train], alpha=0.7, class_count=4)
    model = lm.ridge_fit(R[train], y[train], alpha=0.7, class_count=4)
    assert np.array_equal(model.weights, nominal.weights[:, columns])
    assert not np.any(np.delete(nominal.weights, columns, axis=1))
    assert np.array_equal(model.bias, nominal.bias)
    assert np.array_equal(lm.ridge_scores(model, R[test]), lm.ridge_scores(nominal, X[test]))


def test_nb_on_used_columns_keeps_argmax_and_auc(rng):
    from seqclass.metrics import roc_auc_ovr_weighted

    X, R, columns, y, train, test = _nominal_and_used_columns(rng)
    nominal = lm.gnb_scores(lm.gnb_fit(X[train], y[train], 4), X[test])
    scores = lm.gnb_scores(lm.gnb_fit(R[train], y[train], 4), R[test])
    # the dropped columns add one class-independent log-variance term to every score
    assert np.array_equal(np.argmax(scores, axis=1), np.argmax(nominal, axis=1))
    assert roc_auc_ovr_weighted(scores, y[test]) == roc_auc_ovr_weighted(nominal, y[test])


def test_lr_on_used_columns_agrees_within_tolerance(rng):
    X, R, columns, y, train, test = _nominal_and_used_columns(rng, n=150)
    nominal = lm.logreg_fit(X[train], y[train], class_count=4)
    model = lm.logreg_fit(R[train], y[train], class_count=4)
    assert nominal.converged and model.converged
    # every weight outside the used columns stays 0; inner products over a
    # shorter vector round differently, so the iterates part by rounding
    assert not np.any(np.delete(nominal.weights, columns, axis=1))
    got, want = lm.logreg_proba(model, R[test]), lm.logreg_proba(nominal, X[test])
    assert np.abs(got - want).max() <= 1e-4


# id: (model, the train split's rows, columns and density)
FIT_PEAK_CASES = {
    "nb": ("nb", 60, 20000, 0.005),
    "lr": ("lr", 60, 20000, 0.005),
    # a dense n x n dual Gram matrix that outweighs the C x d weights
    "ridge-dual": ("ridge", 1000, 3000, 0.05),
    # n > d: the primal solve, whose one block of rows with their 1s outweighs
    # the (d + 1)^2 Gram matrix
    "ridge-primal": ("ridge", 4000, 300, 0.9),
}


@pytest.mark.parametrize("model, n, d, density", FIT_PEAK_CASES.values(), ids=FIT_PEAK_CASES.keys())
def test_fit_bytes_matches_traced_peak(model, n, d, density):
    """The larger of fit_bytes and score_bytes against tracemalloc's peak of fitting CSR
    rows and scoring them, beside the rows."""
    import tracemalloc

    C = 20
    X = sp.random(n, d, density=density, format="csr", random_state=3)
    y = np.arange(n) % C
    estimate = max(lm.fit_bytes(model, n, d, C, X.nnz, X.dtype),
                   lm.score_bytes(model, n, d, C, X.nnz))
    tracemalloc.start()
    if model == "ridge":
        lm.ridge_scores(lm.ridge_fit(X, y, class_count=C), X)
    elif model == "nb":
        lm.gnb_scores(lm.gnb_fit(X, y, C), X)
    else:
        model = lm.logreg_fit(X, y, max_iters=50, class_count=C)
        assert model.n_iters > lm.LBFGS_MEMORY  # the (s, y) history is full
        lm.logreg_proba(model, X)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert 0.75 * estimate <= peak <= 1.05 * estimate
