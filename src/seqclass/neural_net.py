"""One-hidden-layer fully connected classifier trained with Adam.

Architecture: input -> dense(hidden, ReLU) -> dense(classes, softmax),
optimized with mini-batch Adam against integer-label cross-entropy.
Hidden width defaults to the width of the input it is fitted on (one
hidden unit per column; on the raw path of `seqclass run`, the used
columns), which is also the Glorot limit's fan-in; batch size defaults
to 100 and training runs a fixed 10 epochs with a seeded shuffle per
epoch.

Inputs may be dense or CSR. `nn_loss_and_grads` (one training batch)
and `nn_scores` (one block of rows) run one forward pass, `_forward`,
which checks the input's width and densifies CSR input: each layer is
one BLAS GEMM, not scipy's scalar CSR kernels, and CSR input trains and
scores bit for bit like its `.toarray()`. So a batch, or a block the
caller sizes, is the only thing ever densified.
`nn_train` gathers each batch's rows straight from its input into one
reused float64 buffer (`rff.gather_rows`), so no step slices the input.
Every array of the net is C-ordered. `adam_step` updates every
parameter in place, one cache-sized block of rows at a time, with the
operations of the textbook update in the same order (Kingma & Ba, ICLR
2015), so its result does not depend on the blocking or on the layouts
of parameter and gradient.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .errors import (
    DegenerateLabels,
    InvalidConfig,
    LabelOutOfRange,
    NonFiniteLoss,
)
from .linear_models import _softmax
from .rff import _as_2d, gather_rows

PROB_FLOOR = 1e-12  # keeps the loss finite under confident mistakes
ADAM_BLOCK_BYTES = 256 * 2**10  # rows of a parameter that adam_step updates in one pass
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8  # Kingma & Ba's defaults


@dataclass
class FeedForwardNet:
    w1: np.ndarray  # (h, d)
    b1: np.ndarray  # (h,)
    w2: np.ndarray  # (C, h)
    b2: np.ndarray  # (C,)
    loss_trace: list[float] = field(default_factory=list)  # nn_train's mean loss per epoch


@dataclass
class AdamState:
    m: list[np.ndarray]
    v: list[np.ndarray]
    t: int = 0


def nn_init(input_dim: int, class_count: int, hidden_width: int | None = None,
            seed: int = 0) -> FeedForwardNet:
    """Glorot-uniform weights, zero biases; deterministic per seed.

    The hidden width defaults to input_dim (one hidden unit per feature).
    """
    d, C = input_dim, class_count
    h = d if hidden_width is None else hidden_width
    if d < 1 or C < 1:
        raise InvalidConfig("input_dim and class_count must be >= 1")
    if h < 1:
        raise InvalidConfig("hidden_width must be >= 1")
    rng = np.random.default_rng([seed, 0])
    lim1 = np.sqrt(6.0 / (d + h))
    lim2 = np.sqrt(6.0 / (h + C))
    return FeedForwardNet(
        w1=rng.uniform(-lim1, lim1, size=(h, d)),
        b1=np.zeros(h),
        w2=rng.uniform(-lim2, lim2, size=(C, h)),
        b2=np.zeros(C),
    )


def _forward(net: FeedForwardNet, X) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """X densified to the net's width (else DimensionMismatch), its ReLU layer and probabilities."""
    X = _as_2d(X, net.w1.shape[1])
    if sp.issparse(X):
        X = X.toarray()
    hidden = X @ net.w1.T + net.b1
    np.maximum(hidden, 0.0, out=hidden)
    return X, hidden, _softmax(hidden @ net.w2.T + net.b2)


def nn_scores(net: FeedForwardNet, X) -> np.ndarray:
    """Class probabilities; rows sum to 1 within 1e-9."""
    return _forward(net, X)[2]


def nn_loss(probs: np.ndarray, y) -> float:
    """Mean integer-label cross-entropy with a 1e-12 probability floor."""
    y = np.asarray(y, dtype=np.int64)
    if y.size and (y.min() < 0 or y.max() >= probs.shape[1]):
        raise LabelOutOfRange(f"labels must lie in [0, {probs.shape[1]})")
    point = probs[np.arange(len(y)), y]
    return float(-np.mean(np.log(np.maximum(point, PROB_FLOOR))))


def nn_loss_and_grads(net: FeedForwardNet, X, y) -> tuple[float, list[np.ndarray]]:
    """Loss on a batch plus gradients for (w1, b1, w2, b2), back-propagated from `_forward`.

    ``hidden > 0`` masks the ReLU exactly as its input's sign would, so a
    step holds one batch x h activation array.
    """
    y = np.asarray(y, dtype=np.int64)
    X, hidden, probs = _forward(net, X)
    n = X.shape[0]
    loss = nn_loss(probs, y)

    delta2 = probs.copy()
    delta2[np.arange(n), y] -= 1.0
    delta2 /= n
    g_w2 = delta2.T @ hidden
    g_b2 = delta2.sum(axis=0)
    delta1 = (delta2 @ net.w2) * (hidden > 0.0)
    g_w1 = delta1.T @ X
    g_b1 = delta1.sum(axis=0)
    return loss, [g_w1, g_b1, g_w2, g_b2]


def adam_init(net: FeedForwardNet) -> AdamState:
    params = [net.w1, net.b1, net.w2, net.b2]
    return AdamState(
        m=[np.zeros_like(p) for p in params],
        v=[np.zeros_like(p) for p in params],
        t=0,
    )


def adam_step(net: FeedForwardNet, grads: list[np.ndarray], state: AdamState,
              learning_rate: float) -> None:
    """Bias-corrected Adam update, in place, over blocks of ADAM_BLOCK_BYTES.

    Per element, in this order: m = b1*m + (1-b1)*g; v = b2*v + (1-b2)*g*g;
    p -= lr*(m/c1) / (sqrt(v/c2) + eps). Each block is one pass in cache,
    with two block-sized scratch buffers and no full-size temporary.
    """
    state.t += 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    correction1 = 1.0 - b1**state.t
    correction2 = 1.0 - b2**state.t
    params = [net.w1, net.b1, net.w2, net.b2]
    for p, g, m, v in zip(params, grads, state.m, state.v):
        P, G, M, V = (np.atleast_2d(a) for a in (p, g, m, v))
        rows = max(1, ADAM_BLOCK_BYTES // (P.itemsize * P.shape[1]))
        scratch = np.empty((2, min(rows, P.shape[0]), P.shape[1]))
        for start in range(0, P.shape[0], rows):
            block = slice(start, start + rows)
            pb, gb, mb, vb = P[block], G[block], M[block], V[block]
            s, t = scratch[0, : pb.shape[0]], scratch[1, : pb.shape[0]]
            mb *= b1
            mb += np.multiply(gb, 1.0 - b1, out=s)
            vb *= b2
            np.multiply(gb, 1.0 - b2, out=s)
            vb += np.multiply(s, gb, out=s)
            np.sqrt(np.divide(vb, correction2, out=s), out=s)
            s += ADAM_EPS
            np.multiply(np.divide(mb, correction1, out=t), learning_rate, out=t)
            pb -= np.divide(t, s, out=t)


def epoch_shuffle_orders(seed: int, n: int, epochs: int) -> list[np.ndarray]:
    """The per-epoch visit orders nn_train uses for a given seed."""
    rng = np.random.default_rng([seed, 1])
    return [rng.permutation(n) for _ in range(epochs)]


def nn_train(X, y, class_count: int, hidden_width: int | None = None, batch_size: int = 100,
             epochs: int = 10, learning_rate: float = 0.001, seed: int = 0) -> FeedForwardNet:
    """Train for ``epochs`` epochs; the net's loss_trace holds each epoch's mean loss.

    The seeded shuffle alone defines the visit order (`epoch_shuffle_orders`).
    The final partial batch is trained, not dropped. Raises DegenerateLabels
    below 2 classes and NonFiniteLoss if the loss diverges.

    The net is `nn_init`'s for X's width, so the Glorot limit and the
    default hidden width follow the columns X has.
    """
    if class_count < 2:
        raise DegenerateLabels("the nn model needs at least 2 classes")
    if batch_size < 1 or epochs < 1:
        raise InvalidConfig("batch_size and epochs must be >= 1")
    if not learning_rate > 0:
        raise InvalidConfig("learning_rate must be positive")
    y = np.asarray(y, dtype=np.int64)
    n = X.shape[0]
    if n < 1:
        raise InvalidConfig("training needs at least one sample")
    if y.min() < 0 or y.max() >= class_count:
        raise LabelOutOfRange(f"labels must lie in [0, {class_count})")

    X = X.tocsr() if sp.issparse(X) else np.asarray(X)
    net = nn_init(X.shape[1], class_count, hidden_width, seed)
    state = adam_init(net)
    batch = np.zeros((min(batch_size, n), X.shape[1]))  # each batch's rows, gathered from X
    for order in epoch_shuffle_orders(seed, n, epochs):
        total = 0.0
        for start in range(0, n, batch_size):
            batch_idx = order[start : start + batch_size]
            loss, grads = nn_loss_and_grads(net, gather_rows(X, batch_idx, batch), y[batch_idx])
            if not np.isfinite(loss):
                raise NonFiniteLoss(f"training loss diverged at step {state.t + 1}")
            adam_step(net, grads, state, learning_rate)
            del grads  # so the next step's gradients do not coexist with these
            total += loss * len(batch_idx)
        net.loss_trace.append(total / n)
    return net
