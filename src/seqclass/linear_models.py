"""MAJORITY baseline and the three classical classifiers.

All models expose an n x C score matrix (log-posteriors, probabilities
or decision values) so the same ranking-based ROC-AUC applies to each,
and all are deterministic given data and hyperparameters. Argmax ties
resolve toward the smaller class id throughout.

Feature matrices may be dense ndarrays or scipy CSR; fitting never
densifies anything larger than d x d, and ridge nothing larger than
min(n, d+1) squared beside one _gram block of rff.GEMM_BLOCK_BYTES.

A score function gives each row's scores from that row alone, so the
pipeline passes it one block of test rows at a time, never the whole
test split. gnb_fit computes gnb's score terms once per model, not once
per block, and the model keeps only those terms. gnb squares CSR input
into one new float64 data array over the input's index arrays
(`_squared`): 8 bytes a nonzero, where power(2) copies the index arrays
too and scipy's elementwise multiply allocates for twice the nonzeros.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import rff
from .errors import (
    DegenerateLabels,
    EmptyTrainingSet,
    InvalidConfig,
    NonFiniteLoss,
)
from .rff import _as_2d

RIDGE_DENSE_LIMIT = 20000  # direct solves up to this size (min of n and d+1), CG above


# --- MAJORITY ----------------------------------------------------------------

@dataclass
class MajorityModel:
    majority_class: int
    class_count: int


def majority_fit(labels, class_count: int | None = None) -> MajorityModel:
    """Most frequent training class; ties go to the smaller class id."""
    y = np.asarray(labels, dtype=np.int64)
    if y.size == 0:
        raise EmptyTrainingSet("majority baseline needs at least one label")
    counts = np.bincount(y, minlength=class_count or 0)
    return MajorityModel(majority_class=int(np.argmax(counts)), class_count=len(counts))


def majority_scores(model: MajorityModel, X) -> np.ndarray:
    """Constant per-class scores (indicator of the majority class), one row per row of X."""
    scores = np.zeros((X.shape[0], model.class_count))
    scores[:, model.majority_class] = 1.0
    return scores


# --- Gaussian Naive Bayes ----------------------------------------------------

@dataclass
class GaussianNbModel:
    # gnb_scores' quadratic form const_c + x . a_c + (x*x) . b_c, from gnb_fit
    const: np.ndarray  # (C,)
    a: np.ndarray  # (d, C), C-ordered
    b: np.ndarray  # (d, C), C-ordered


def _squared(X: sp.csr_matrix) -> sp.csr_matrix:
    """X.power(2), bit for bit, sharing X's index arrays."""
    return sp.csr_matrix((X.data**2, X.indices, X.indptr), shape=X.shape)


def _column_means(X: sp.csr_matrix) -> np.ndarray:
    """X.mean(axis=0) of a float64 CSR as a flat array, bit for bit, without scipy's copy.

    scipy scales a copy of X by 1/n and sums each column in row order; the
    product of X's transpose, a CSC view of its arrays, with a vector of
    1/n scales each value by the same factor and sums in the same order.
    """
    return X.T @ np.full(X.shape[0], 1.0 / X.shape[0])


def gnb_fit(X, y, class_count: int | None = None) -> GaussianNbModel:
    """Per-class Gaussian likelihoods with a relative variance floor.

    The floor is 1e-9 times the largest per-feature variance of the whole
    training matrix (an absolute 1e-9 when all features are constant), so
    singleton classes and constant features stay finite.
    """
    X = _as_2d(X)
    y = np.asarray(y, dtype=np.int64)
    if y.size == 0:
        raise EmptyTrainingSet("gnb_fit needs at least one sample")
    n, d = X.shape
    C = class_count or int(y.max()) + 1

    sparse = sp.issparse(X)
    if sparse:
        Xsq = _squared(X)
        global_var = _column_means(Xsq) - _column_means(X)**2
    else:
        global_var = X.var(axis=0)
    max_var = float(global_var.max()) if d else 0.0
    eps = 1e-9 * max_var if max_var > 0 else 1e-9

    counts = np.bincount(y, minlength=C)
    priors = counts.astype(np.float64) / n
    # Each class's mean and E[x^2] come from one product with a C x n class
    # indicator, which sums each column in row order. The weights round as a
    # per-class mean would: scipy's mean of a CSR scales by 1/n_c and then
    # sums, numpy's sums and then divides. An empty class gets means 0 and
    # variance eps.
    weights = 1.0 / counts[y] if sparse else np.ones(n)
    members = sp.csr_matrix((weights, (y, np.arange(n))), shape=(C, n))
    if sparse:
        means = (members @ X).toarray()
        ex2 = (members @ Xsq).toarray()
    else:
        sizes = np.maximum(counts, 1)[:, None]
        means = (members @ X) / sizes
        ex2 = (members @ X**2) / sizes
    ex2 -= means**2
    variances = np.maximum(ex2, 0.0, out=ex2)
    variances += eps

    with np.errstate(divide="ignore"):
        log_priors = np.log(priors)

    # The score terms, once per model, in two C x d arrays beside means and
    # variances: a scratch array that holds each term of const and then a,
    # and inv_var, which becomes b in place. a and b are C-ordered (d, C)
    # arrays, which scipy's sparse product reads without a copy; they are
    # computed in that order from transposed inputs, as a write through a
    # transposed view is about three times slower. const sums along C x d rows.
    scratch = np.multiply(2.0 * np.pi, variances)
    log_det = np.sum(np.log(scratch, out=scratch), axis=1)
    inv_var = np.divide(1.0, variances.T, out=np.empty((d, C))).T
    np.square(means, out=scratch)
    scratch *= inv_var
    const = log_priors - 0.5 * log_det - 0.5 * np.sum(scratch, axis=1)
    a = np.multiply(means.T, inv_var.T, out=scratch.reshape(d, C))
    inv_var *= -0.5
    return GaussianNbModel(const, a, inv_var.T)


def gnb_scores(model: GaussianNbModel, X) -> np.ndarray:
    """Per-class log-posteriors (up to the shared evidence term).

    Written as the quadratic form const_c + x . a_c + (x*x) . b_c that
    gnb_fit computed, so sparse inputs never densify. CSR input reads a
    and b in place; dense input reads F-ordered copies, the transpose of
    C x d memory, because BLAS rounds small products differently when an
    operand's layout changes.
    """
    X = _as_2d(X, model.a.shape[0])
    if sp.issparse(X):
        return np.asarray(X @ model.a) + np.asarray(_squared(X) @ model.b) + model.const
    a, b = np.asfortranarray(model.a), np.asfortranarray(model.b)
    return X @ a + (X * X) @ b + model.const


# --- multinomial logistic regression ------------------------------------------

# (s, y) pairs L-BFGS keeps; each pair holds two more C x d arrays. On the
# two fits of the benchmark's kmer3-rff-lr workload at seed 1 (n = 100,
# D = 1000, 20 classes; 2-core host, default BLAS threads; median of 6
# in-process runs) 3 pairs took 362 iterations together (0.25 s), 5 took
# 348 (0.30 s), 7 took 329 (0.29 s), 10 took 315 (0.35 s) and 20 took 284
# (0.47 s).
LBFGS_MEMORY = 5


@dataclass
class LogisticRegressionModel:
    weights: np.ndarray  # (C, d)
    bias: np.ndarray  # (C,)
    l2_lambda: float
    n_iters: int
    loss_trace: list[float]
    converged: bool  # the final gradient norm is at most the fit's tol
    grad_norm: float  # joint norm of the final weight and bias gradients


def _softmax(z: np.ndarray) -> np.ndarray:
    shifted = z - z.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def _logreg_loss(weights, bias, X, y, l2_lambda):
    """Regularised cross-entropy at (weights, bias) and the softmax probabilities behind it."""
    probs = _softmax(np.asarray(X @ weights.T) + bias)
    point = probs[np.arange(X.shape[0]), y]
    loss = -np.mean(np.log(np.maximum(point, 1e-300))) + 0.5 * l2_lambda * np.sum(weights**2)
    return loss, probs


def logreg_loss_grad(weights, bias, X, y, l2_lambda, evaluated=None):
    """Multinomial cross-entropy plus (lambda/2)||W||^2 and its gradients.

    ``evaluated``, when given, is the (loss, softmax probabilities) pair of
    `_logreg_loss` at (weights, bias) from an earlier evaluation; neither is
    recomputed. The weight gradient is the (C, d) transpose of the (d, C)
    product X'delta.
    """
    n = X.shape[0]
    loss, probs = evaluated or _logreg_loss(weights, bias, X, y, l2_lambda)
    delta = probs.copy()
    delta[np.arange(n), y] -= 1.0
    delta /= n
    grad_w = np.asarray(X.T @ delta).T
    grad_w += l2_lambda * weights
    return loss, grad_w, delta.sum(axis=0)


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """a . b of two flat float64 vectors, summed by numpy's einsum loop rather than BLAS.

    OpenBLAS splits a ddot above 10 000 elements over its threads: waking
    them costs more than the sum at logreg_fit's sizes, and the order of the
    sum, so its last bits, follows the thread count. einsum sums on the
    calling thread, in one order.
    """
    return float(np.einsum("i,i->", a, b))


def logreg_fit(
    X,
    y,
    l2_lambda: float = 1e-4,
    max_iters: int = 1000,
    tol: float = 1e-6,
    class_count: int | None = None,
) -> LogisticRegressionModel:
    """Limited-memory BFGS with Armijo backtracking from zero init.

    The parameters are one flat C*(d+1) vector: the C-ordered (d, C)
    transpose of the weights, which scipy's CSR products read and return
    without a copy, then the bias. The direction is the two-loop recursion
    over the last LBFGS_MEMORY (s, y) pairs, scaled by s'y / y'y of the
    newest (Liu & Nocedal, 1989; Nocedal & Wright, Algorithm 7.4), or the
    negative gradient over its norm while no pair is stored. A pair is
    stored only when s'y > 0. Each search starts at step 1 and halves it
    until the Armijo condition holds; it evaluates only the loss of each
    candidate, and the gradient is computed once a step is accepted, from
    that candidate's probabilities. The objective decreases monotonically
    across accepted steps. Iteration stops when the joint gradient norm is
    at most ``tol`` (the model is then ``converged``), after ``max_iters``
    accepted steps, or when 60 halvings find no decrease.

    Every inner product and norm of the flat vectors is `_dot`, on the
    calling thread, and every vector update is written in place, as the
    same operations in the same order. So on CSR input, whose products are
    scipy's, the fit's bits do not depend on BLAS's thread count. On dense
    (RFF) input they still do, through the loss's X W', a BLAS GEMM whose
    bytes differ at one and two OpenBLAS threads: on the kmer3-rff-lr
    benchmark's seed-1 train split (100 x 1000, 20 classes) the fit took
    193 iterations at one thread and 177 at two.

    Beside the pairs, the fit holds the parameters, the gradient and the
    direction as flat arrays, and one work array: each scaled s or y of
    the recursion, then the candidate, which becomes the parameters once
    accepted. The new gradient replaces the outgoing one, whose array then
    holds y = g' - g.
    """
    X = _as_2d(X)
    y = np.asarray(y, dtype=np.int64)
    n, d = X.shape
    C = class_count or (int(y.max()) + 1 if y.size else 0)
    if C < 2:
        raise DegenerateLabels(f"logistic regression needs >= 2 classes, got {C}")

    def views(theta):
        return theta[:C * d].reshape(d, C).T, theta[C * d:]

    def loss_grad(theta, evaluated=None):
        loss, grad_w, grad_b = logreg_loss_grad(*views(theta), X, y, l2_lambda, evaluated)
        return loss, np.concatenate((grad_w.T.ravel(), grad_b))

    x = np.zeros(C * (d + 1))
    loss, grad = loss_grad(x)
    if not np.isfinite(loss):
        raise NonFiniteLoss("logistic loss is non-finite at zero weights; check the features")
    gnorm = math.sqrt(_dot(grad, grad))
    trace = [loss]
    pairs = []  # (s, y, 1 / s'y), oldest first
    while gnorm > tol and len(trace) <= max_iters:
        direction = grad.copy()
        work = np.empty_like(x)  # each scaled s or y of the recursion, then the candidate
        alphas = []
        for s, yv, rho in reversed(pairs):
            alphas.append(rho * _dot(s, direction))
            direction -= np.multiply(alphas[-1], yv, out=work)
        if pairs:  # the initial matrix (s'y / y'y) I of the newest pair
            _, yv, rho = pairs[-1]
            direction *= 1.0 / (rho * _dot(yv, yv))
        else:
            direction /= gnorm
        for (s, yv, rho), a in zip(pairs, reversed(alphas)):
            direction += np.multiply(a - rho * _dot(yv, direction), s, out=work)
        np.negative(direction, out=direction)
        slope = _dot(grad, direction)
        if not slope < 0:
            break  # rounding cost the direction its descent: stop, unconverged

        step = 1.0
        for _ in range(60):
            candidate = np.add(np.multiply(direction, step, out=work), x, out=work)
            evaluated = _logreg_loss(*views(candidate), X, y, l2_lambda)
            if not np.isfinite(evaluated[0]):
                raise NonFiniteLoss("logistic loss became non-finite; rescale the features")
            if evaluated[0] <= loss + 1e-4 * step * slope:
                break
            step *= 0.5
        else:
            break  # step underflow: the direction no longer improves the objective

        x = candidate
        loss, new_grad = loss_grad(x, evaluated)
        y_new = np.subtract(new_grad, grad, out=grad)  # y = g' - g, in the outgoing gradient
        grad = new_grad
        gnorm = math.sqrt(_dot(grad, grad))
        trace.append(loss)
        direction *= step  # s = x' - x, up to rounding
        sy = _dot(direction, y_new)
        if sy > 0:
            pairs.append((direction, y_new, 1.0 / sy))
            del pairs[:-LBFGS_MEMORY]
    weights, bias = views(x)
    return LogisticRegressionModel(weights, bias, l2_lambda, len(trace) - 1, trace,
                                   converged=gnorm <= tol, grad_norm=gnorm)


def logreg_proba(model: LogisticRegressionModel, X) -> np.ndarray:
    X = _as_2d(X, model.weights.shape[1])
    return _softmax(np.asarray(X @ model.weights.T) + model.bias)


# --- ridge classifier ----------------------------------------------------------

@dataclass
class RidgeClassifierModel:
    weights: np.ndarray  # (C, d)
    bias: np.ndarray  # (C,)
    alpha: float
    solver: str  # "dual", "primal" or "cg": the path ridge_fit took


def ridge_fit(X, y, alpha: float = 1.0, class_count: int | None = None) -> RidgeClassifierModel:
    """One-vs-rest regularized least squares against +/-1 targets.

    The intercept is unpenalized. The direct solve runs in the smaller
    space: the (d+1) x (d+1) primal normal equations when n >= d + 1,
    otherwise the n x n centred dual system. Only when both sizes exceed
    RIDGE_DENSE_LIMIT does a matrix-free conjugate-gradient solve (rtol
    1e-8) run per class. Every path is deterministic.
    """
    if not alpha > 0:
        raise InvalidConfig(f"ridge alpha must be positive, got {alpha}")
    X = _as_2d(X)
    y = np.asarray(y, dtype=np.int64)
    if y.size == 0:
        raise EmptyTrainingSet("ridge_fit needs at least one sample")
    n, d = X.shape
    C = class_count or int(y.max()) + 1
    targets = np.full((n, C), -1.0)
    targets[np.arange(n), y] = 1.0

    if n <= d and n <= RIDGE_DENSE_LIMIT:  # the n x n dual system is the smaller one
        solver, (weights, bias) = "dual", _ridge_dual(X, targets, alpha)
    else:  # its CG fallback runs only when min(n, d+1) > RIDGE_DENSE_LIMIT
        solver = "primal" if d + 1 <= RIDGE_DENSE_LIMIT else "cg"
        weights, bias = _ridge_primal(X, targets, alpha)
    return RidgeClassifierModel(weights=weights, bias=bias, alpha=alpha, solver=solver)


def _gram(M, bias: bool = False) -> np.ndarray:
    """M'M, or [M, 1]'[M, 1] with ``bias``, as the sum of B'B over blocks B of M's rows.

    Each block of rff.gemm_rows rows is written densely into one float64
    buffer: CSR rows straight from views of M's arrays, as scipy's
    constructor and row slicing both copy them. Integer input is copied to
    float64 first (`_as_2d`), so no product of narrow counts wraps. On
    integer-valued input every partial sum is an integer below 2^53, exact
    in any order, so the result is bit-identical to scipy's product.
    """
    M = _as_2d(M)
    n, d = M.shape
    step = rff.gemm_rows(d + bias)
    buffer = np.zeros((min(step, n), d + bias))
    gram = np.zeros((d + bias, d + bias))
    for start in range(0, n, step):
        stop = min(start + step, n)
        block = buffer[:stop - start]
        if sp.issparse(M):  # toarray zeroes the block, the 1s' column too
            part, lo, hi = sp.csr_matrix(block.shape), M.indptr[start], M.indptr[stop]
            part.indptr = M.indptr[start:stop + 1] - lo
            part.indices, part.data = M.indices[lo:hi], M.data[lo:hi]
            part.toarray(out=block)
        else:
            block[:, :d] = M[start:stop]
        block[:, d:] = 1.0  # the 1s of [M, 1], if any
        gram += block.T @ block
    return gram


def _solve_shifted(gram: np.ndarray, penalized: int, alpha: float, rhs: np.ndarray) -> np.ndarray:
    """Solve gram x = rhs after adding alpha, in place, to gram's first ``penalized`` diagonal
    entries; NonFiniteLoss (not numpy's LinAlgError) when that system is singular."""
    gram[np.diag_indices(penalized)] += alpha
    try:
        return np.linalg.solve(gram, rhs)
    except np.linalg.LinAlgError as exc:
        raise NonFiniteLoss(f"ridge's system is singular at alpha {alpha}; raise --ridge-alpha"
                            ) from exc


def _ridge_dual(X, targets: np.ndarray, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Kernel form (Saunders, Gammerman & Vovk, 1998) with a centred intercept.

    Solves (Kc + alpha I) beta = T - mean(T) with Kc the doubly centred
    Gram matrix X X'. Its column sums force 1'beta = 0, so W = X'beta
    without centring X, and b = mean(T) - mean(X) W.
    """
    gram = _gram(X.T.tocsr() if sp.issparse(X) else X.T)
    means = gram.mean(axis=0)  # gram is symmetric: row and column means agree
    gram -= means[None, :] + means[:, None] - means.mean()
    t_mean = targets.mean(axis=0)
    beta = _solve_shifted(gram, len(gram), alpha, targets - t_mean)  # (n, C)
    weights = np.asarray(X.T @ beta)  # (d, C)
    # a column no row touches adds an exact 0 to mean(X) W; leaving those
    # out keeps the sum's order, and so its bits, free of the input width
    means = _column_means(X) if sp.issparse(X) else X.mean(axis=0)
    used = np.flatnonzero(means)
    bias = t_mean - means[used] @ weights[used]
    return weights.T.copy(), bias


def _ridge_primal(X, targets: np.ndarray, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """(d+1)-dimensional normal equations on [X, 1]; CG above RIDGE_DENSE_LIMIT.

    [X, 1] is never formed: _gram's blocks and CG's bias term hold its 1s.
    """
    d = X.shape[1]
    rhs = np.vstack([np.asarray(X.T @ targets), targets.sum(axis=0)])  # [X, 1]'T
    if d + 1 <= RIDGE_DENSE_LIMIT:
        # the intercept stays unpenalized
        solution = _solve_shifted(_gram(X, bias=True), d, alpha, rhs)  # (d+1, C)
    else:
        from scipy.sparse.linalg import LinearOperator, cg  # costs start-up; only this path needs it

        def matvec(v):
            u = np.asarray(X @ v[:d]).ravel() + v[d]  # [X, 1] v
            return np.append(np.asarray(X.T @ u).ravel() + alpha * v[:d], u.sum())

        op = LinearOperator((d + 1, d + 1), matvec=matvec, dtype=np.float64)
        solution = np.zeros_like(rhs)
        for c in range(rhs.shape[1]):
            solution[:, c], info = cg(op, rhs[:, c], rtol=1e-8, atol=0.0, maxiter=10 * (d + 1))
            if info != 0:
                raise NonFiniteLoss(f"ridge CG failed to converge for class {c} (info={info})")
    return solution[:d].T.copy(), solution[d].copy()


def ridge_scores(model: RidgeClassifierModel, X) -> np.ndarray:
    X = _as_2d(X, model.weights.shape[1])
    return np.asarray(X @ model.weights.T) + model.bias


# --- bytes the fits and score functions allocate ---------------------------------

def fit_bytes(model: str, n: int, d: int, class_count: int, nnz: int | None = None,
              dtype=np.float64) -> int:
    """Peak bytes that fitting ``model`` (majority, nb, lr or ridge) allocates beside its
    n x d input: CSR of ``nnz`` nonzeros of ``dtype``, or dense float64 when ``nnz`` is None.

    For CSR input, `_as_2d` copies values that are not float64 (8 bytes a nonzero) for nb,
    lr and ridge, and gnb_fit squares them (`_squared`, 8 more). Beside that, in float64
    C x d arrays: gnb_fit's means, variances and score terms a and b (4); logreg_fit's
    LBFGS_MEMORY (s, y) pairs, its parameters, gradient and direction and two more: its
    work array (the candidate) and the candidate's squared weights, then X'delta and
    lambda W, or X'delta and the new gradient (2 LBFGS_MEMORY + 5; tracemalloc: 15.0 at
    LBFGS_MEMORY = 5). Ridge's direct solve of side m = min(n, d + 1) holds two m x m
    arrays (the Gram matrix and one block's product, or the copy numpy's solve takes),
    one `_gram` block, the n x C targets and, for the dual on CSR input, its X' copy
    (12 bytes a nonzero); CG holds none of these.
    """
    copies = 0
    if nnz is not None and model != "majority":
        copies = 8 * nnz * (dtype != np.float64) + 8 * nnz * (model == "nb")
    if model != "ridge":
        arrays = {"nb": 4, "lr": 2 * LBFGS_MEMORY + 5}.get(model, 0)
        return arrays * class_count * d * 8 + copies
    side = min(n, d + 1)
    if not 0 < side <= RIDGE_DENSE_LIMIT:
        return copies
    dual = 12 * nnz if n <= d and nnz is not None else 0
    return 2 * side * side * 8 + rff.GEMM_BLOCK_BYTES + 8 * n * class_count + dual + copies


def csr_score_bytes(model: str) -> int:
    """Bytes a score function allocates for each nonzero of CSR input: `_as_2d`'s float64
    copy of the values, counted whatever their dtype, and gnb_scores' square of them."""
    return 8 * (1 + (model == "nb"))


def score_bytes(model: str, rows: int, d: int, class_count: int, nnz: int | None = None) -> int:
    """Bytes a score function holds beside ``rows`` rows of width d: CSR of ``nnz`` nonzeros,
    or dense float64 when ``nnz`` is None.

    The C x d arrays it reads (gnb's a and b, and their F-ordered copies for dense input;
    the weights), its copies of CSR input (`csr_score_bytes`) or gnb's square of dense
    input, and 4 rows x C arrays the scores pass through (logreg_proba's softmax).
    """
    nb = model == "nb"
    arrays = {"majority": 0, "nb": 4 if nnz is None else 2}.get(model, 1)
    copies = 8 * rows * d * nb if nnz is None else nnz * csr_score_bytes(model)
    return 8 * (arrays * d + 4 * rows) * class_count + copies
