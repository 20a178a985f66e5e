import numpy as np
import pytest
import scipy.sparse as sp

import seqclass.neural_net as nnet
from seqclass.errors import (
    DegenerateLabels,
    DimensionMismatch,
    InvalidConfig,
    LabelOutOfRange,
    NonFiniteLoss,
)


def _tiny_config(d=4, C=3, h=5, seed=0):
    """nn_init's arguments for a small net."""
    return {"input_dim": d, "class_count": C, "hidden_width": h, "seed": seed}


def _settings(class_count, **kw):
    """nn_train's keyword arguments, its defaults filled in, as the reference loop reads them."""
    defaults = {"hidden_width": None, "batch_size": 100, "epochs": 10, "learning_rate": 0.001,
                "seed": 0}
    return {"class_count": class_count, **defaults, **kw}


def _blobs(rng, n_per_class, centers, scale=1.0):
    X, y = [], []
    for c, center in enumerate(centers):
        X.append(rng.normal(loc=center, scale=scale, size=(n_per_class, len(center))))
        y.extend([c] * n_per_class)
    X, y = np.vstack(X), np.array(y)
    perm = rng.permutation(len(y))
    return X[perm], y[perm]


def test_init_deterministic():
    a = nnet.nn_init(**_tiny_config(seed=9))
    b = nnet.nn_init(**_tiny_config(seed=9))
    assert np.array_equal(a.w1, b.w1) and np.array_equal(a.w2, b.w2)


def test_init_biases_zero_and_glorot_bound():
    net = nnet.nn_init(**_tiny_config(d=6, C=2, h=10))
    assert np.all(net.b1 == 0) and np.all(net.b2 == 0)
    assert np.abs(net.w1).max() <= np.sqrt(6.0 / (6 + 10))
    assert np.abs(net.w2).max() <= np.sqrt(6.0 / (10 + 2))


def test_hidden_width_defaults_to_input_dim(rng):
    assert nnet.nn_init(7, 2).w1.shape == (7, 7)
    assert nnet.nn_train(rng.normal(size=(4, 7)), [0, 1, 0, 1], 2, epochs=1).w1.shape == (7, 7)


def test_init_rejects_bad_config():
    with pytest.raises(InvalidConfig):
        nnet.nn_init(0, 2)
    with pytest.raises(InvalidConfig):
        nnet.nn_train(np.zeros((2, 2)), [0, 1], 2, batch_size=0)


@pytest.mark.parametrize("call, message", [
    (lambda: nnet.nn_init(2, 0), "input_dim and class_count must be >= 1"),
    (lambda: nnet.nn_init(2, 2, hidden_width=0), "hidden_width must be >= 1"),
    (lambda: nnet.nn_train(np.zeros((2, 2)), [0, 1], 2, hidden_width=0), "hidden_width must be >= 1"),
    (lambda: nnet.nn_train(np.zeros((2, 2)), [0, 1], 2, epochs=0), "batch_size and epochs must be >= 1"),
    (lambda: nnet.nn_train(np.zeros((2, 2)), [0, 1], 2, learning_rate=0.0),
     "learning_rate must be positive"),
])
def test_each_setting_is_checked_where_it_is_used(call, message):
    with pytest.raises(InvalidConfig, match=message):
        call()


def test_train_on_one_class_is_degenerate(rng):
    with pytest.raises(DegenerateLabels, match="at least 2 classes"):
        nnet.nn_train(rng.normal(size=(6, 3)), np.zeros(6, dtype=int), 1)


def test_forward_zero_net_is_uniform(rng):
    net = nnet.FeedForwardNet(np.zeros((5, 4)), np.zeros(5), np.zeros((3, 5)), np.zeros(3))
    probs = nnet.nn_scores(net, rng.normal(size=(6, 4)))
    assert np.allclose(probs, 1.0 / 3.0)


def test_forward_shift_invariance(rng):
    net = nnet.nn_init(**_tiny_config())
    X = rng.normal(size=(8, 4))
    base = nnet.nn_scores(net, X)
    shifted = nnet.FeedForwardNet(net.w1, net.b1, net.w2, net.b2 + 12.5)
    assert np.allclose(base, nnet.nn_scores(shifted, X), atol=1e-12)


def test_forward_stability_at_huge_logits(rng):
    net = nnet.FeedForwardNet(
        w1=np.eye(4) * 1e4, b1=np.zeros(4), w2=np.eye(4)[:3], b2=np.zeros(3)
    )
    probs = nnet.nn_scores(net, rng.normal(size=(5, 4)))
    assert np.all(np.isfinite(probs))
    assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-9)


def test_forward_rows_sum_to_one(rng):
    for seed in range(3):
        net = nnet.nn_init(**_tiny_config(d=6, C=4, h=8, seed=seed))
        probs = nnet.nn_scores(net, rng.normal(size=(10, 6)))
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-9)


def test_forward_dimension_mismatch(rng):
    net = nnet.nn_init(**_tiny_config())
    with pytest.raises(DimensionMismatch):
        nnet.nn_scores(net, rng.normal(size=(2, 9)))


def test_loss_and_grads_on_a_batch_of_the_wrong_width_is_dimension_mismatch(rng):
    net = nnet.nn_init(**_tiny_config())
    X = rng.normal(size=(2, net.w1.shape[1] + 1))
    with pytest.raises(DimensionMismatch, match=f"expected {net.w1.shape[1]}"):
        nnet.nn_loss_and_grads(net, X, [0, 1])
    with pytest.raises(DimensionMismatch):
        nnet.nn_loss_and_grads(net, sp.csr_matrix(X), [0, 1])


def test_loss_values():
    perfect = np.array([[1.0, 0.0], [0.0, 1.0]])
    assert nnet.nn_loss(perfect, [0, 1]) <= 1e-9
    uniform = np.full((5, 4), 0.25)
    assert np.isclose(nnet.nn_loss(uniform, [0, 1, 2, 3, 0]), np.log(4))
    half = np.array([[0.5, 0.5]] * 3)
    assert np.isclose(nnet.nn_loss(half, [0, 1, 0]), np.log(2))


def test_loss_label_out_of_range():
    with pytest.raises(LabelOutOfRange):
        nnet.nn_loss(np.full((2, 3), 1 / 3), [0, 3])


def test_gradients_match_finite_differences(rng):
    for _ in range(8):
        d = int(rng.integers(2, 6))
        h = int(rng.integers(2, 5))
        C = int(rng.integers(2, 4))
        n = int(rng.integers(2, 10))
        net = nnet.nn_init(d, C, h, seed=int(rng.integers(1000)))
        X = rng.normal(size=(n, d))
        y = rng.integers(0, C, size=n)
        _, grads = nnet.nn_loss_and_grads(net, X, y)
        params = [net.w1, net.b1, net.w2, net.b2]
        eps = 1e-6
        for arr, grad in zip(params, grads):
            it = np.nditer(arr, flags=["multi_index"])
            for _v in it:
                ix = it.multi_index
                orig = arr[ix]
                arr[ix] = orig + eps
                lp, _ = nnet.nn_loss_and_grads(net, X, y)
                arr[ix] = orig - eps
                lmns, _ = nnet.nn_loss_and_grads(net, X, y)
                arr[ix] = orig
                fd = (lp - lmns) / (2 * eps)
                denom = max(abs(fd), abs(grad[ix]), 1e-8)
                assert abs(fd - grad[ix]) / denom < 1e-4


def test_adam_zero_gradient_is_identity():
    net = nnet.nn_init(**_tiny_config())
    before = [net.w1.copy(), net.b1.copy(), net.w2.copy(), net.b2.copy()]
    state = nnet.adam_init(net)
    zero_grads = [np.zeros_like(p) for p in before]
    nnet.adam_step(net, zero_grads, state, 0.001)
    after = [net.w1, net.b1, net.w2, net.b2]
    for b, a in zip(before, after):
        assert np.array_equal(b, a)
    assert state.t == 1


def test_train_blobs_reaches_high_accuracy(rng):
    # centers 6 sigma apart in 10-d: label noise is negligible by construction
    X, y = _blobs(rng, 500, [tuple([0.0] * 10), tuple([6.0] * 10)], scale=1.0)
    net = nnet.nn_train(X, y, 2, hidden_width=128, seed=4)
    acc = (np.argmax(nnet.nn_scores(net, X), axis=1) == y).mean()
    assert acc >= 0.99
    assert len(net.loss_trace) == 10


def test_train_loss_decreases_across_seeds(rng):
    for seed in range(5):
        X, y = _blobs(rng, 80, [(0.0, 0.0), (3.0, 3.0)], scale=1.0)
        trace = nnet.nn_train(X, y, 2, hidden_width=8, seed=seed).loss_trace
        assert trace[-1] < trace[0]


def test_train_full_batch_degenerate(rng):
    # batch_size >= n means one full-batch step per epoch; still converges
    X, y = _blobs(rng, 50, [(0.0,), (5.0,)], scale=0.5)
    net = nnet.nn_train(X, y, 2, hidden_width=8, batch_size=10_000, epochs=300, seed=1)
    assert len(net.loss_trace) == 300
    assert (np.argmax(nnet.nn_scores(net, X), axis=1) == y).mean() >= 0.99


def test_train_deterministic(rng):
    X, y = _blobs(rng, 40, [(0.0, 1.0), (2.0, -1.0)], scale=1.0)
    net_a = nnet.nn_train(X, y, 2, hidden_width=6, seed=3)
    net_b = nnet.nn_train(X, y, 2, hidden_width=6, seed=3)
    assert net_a.loss_trace == net_b.loss_trace
    assert np.array_equal(net_a.w1, net_b.w1) and np.array_equal(net_a.w2, net_b.w2)


@pytest.mark.parametrize("dtype", ["float64", "int8"])
def test_sparse_input_trains_and_scores_like_dense(rng, dtype):
    """CSR input is densified batch by batch and block by block: the same bits as its toarray."""
    X = sp.csr_matrix(rng.poisson(1.0, size=(120, 12)).astype(dtype))
    y = (X[:, 0] + X[:, 1] > 2).toarray().ravel().astype(int)
    net_d = nnet.nn_train(X.toarray(), y, 2, hidden_width=6, seed=2, epochs=3)
    net_s = nnet.nn_train(X, y, 2, hidden_width=6, seed=2, epochs=3)
    assert net_d.loss_trace == net_s.loss_trace
    for name in ("w1", "b1", "w2", "b2"):
        assert np.array_equal(getattr(net_d, name), getattr(net_s, name)), name
    assert np.array_equal(nnet.nn_scores(net_s, X), nnet.nn_scores(net_d, X.toarray()))


def _train_on_sliced_batches(X, y, class_count, hidden_width, epochs, seed, batch_size=100):
    """nn_train as it was before batches were gathered into one buffer: X[batch_idx] a step."""
    net = nnet.nn_init(X.shape[1], class_count, hidden_width, seed)
    state = nnet.adam_init(net)
    for order in nnet.epoch_shuffle_orders(seed, X.shape[0], epochs):
        total = 0.0
        for start in range(0, X.shape[0], batch_size):
            batch_idx = order[start : start + batch_size]
            loss, grads = nnet.nn_loss_and_grads(net, X[batch_idx], y[batch_idx])
            nnet.adam_step(net, grads, state, 0.001)
            total += loss * len(batch_idx)
        net.loss_trace.append(total / X.shape[0])
    return net


@pytest.mark.parametrize("sparse", [True, False])
def test_gathered_batches_train_as_sliced_ones(rng, sparse):
    """Each batch gathered into one reused buffer trains bit for bit as X[batch_idx] did,
    the last batch (50 of 250 rows) included."""
    counts = rng.poisson(0.7, size=(250, 40)).astype(np.int32)
    X = sp.csr_matrix(counts) if sparse else counts
    y = (counts[:, 0] + counts[:, 1] > 1).astype(int) + (counts[:, 2] > 1)
    net = nnet.nn_train(X, y, 3, hidden_width=9, seed=4, epochs=3)
    want = _train_on_sliced_batches(X, y, 3, hidden_width=9, epochs=3, seed=4)
    assert net.loss_trace == want.loss_trace
    for name in ("w1", "b1", "w2", "b2"):
        assert np.array_equal(getattr(net, name), getattr(want, name)), name


def test_train_label_out_of_range(rng):
    with pytest.raises(LabelOutOfRange):
        nnet.nn_train(rng.normal(size=(4, 2)), [0, 1, 2, 0], 2, hidden_width=3)


def test_train_non_finite_loss_detected(rng):
    X = rng.normal(size=(10, 2))
    X[3, 1] = np.inf  # poisoned input propagates to a non-finite loss
    y = rng.integers(0, 2, 10)
    with pytest.raises(NonFiniteLoss):
        with np.errstate(over="ignore", invalid="ignore"):
            nnet.nn_train(X, y, 2, hidden_width=3, seed=0)


# --- memory layout and the blocked Adam update --------------------------------

def _reference_init(config, d):
    """Glorot-uniform init of a d-wide input with every array C-ordered, the reference layout."""
    h, C = config["hidden_width"], config["class_count"]
    rng = np.random.default_rng([config["seed"], 0])
    lim1 = np.sqrt(6.0 / (d + h))
    lim2 = np.sqrt(6.0 / (h + C))
    return nnet.FeedForwardNet(
        w1=rng.uniform(-lim1, lim1, size=(h, d)),
        b1=np.zeros(h),
        w2=rng.uniform(-lim2, lim2, size=(C, h)),
        b2=np.zeros(C),
    )


def _reference_adam_step(net, grads, state, learning_rate):
    """The whole-array Adam update, the reference for the blocked one."""
    state.t += 1
    b1, b2, eps = 0.9, 0.999, 1e-8
    correction1 = 1.0 - b1**state.t
    correction2 = 1.0 - b2**state.t
    params = [net.w1, net.b1, net.w2, net.b2]
    for p, g, m, v in zip(params, grads, state.m, state.v):
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        p -= learning_rate * (m / correction1) / (np.sqrt(v / correction2) + eps)


def _reference_train(config, X, y):
    """nn_train's loop on the reference init and update; returns net, Adam state and trace."""
    n = X.shape[0]
    net = _reference_init(config, X.shape[1])
    state = nnet.adam_init(net)
    trace = []
    batch_size = config["batch_size"]
    for order in nnet.epoch_shuffle_orders(config["seed"], n, config["epochs"]):
        total = 0.0
        for start in range(0, n, batch_size):
            batch_idx = order[start : start + batch_size]
            loss, grads = nnet.nn_loss_and_grads(net, X[batch_idx], y[batch_idx])
            _reference_adam_step(net, grads, state, config["learning_rate"])
            total += loss * len(batch_idx)
        trace.append(total / n)
    return net, state, trace


def _train_with_state(monkeypatch, config, X, y):
    """nn_train, plus the Adam state its last adam_step call updated."""
    seen = []

    def recording_step(net, grads, state, learning_rate):
        seen.append(state)
        return step(net, grads, state, learning_rate)

    step = nnet.adam_step
    monkeypatch.setattr(nnet, "adam_step", recording_step)
    net = nnet.nn_train(X, y, **config)
    monkeypatch.setattr(nnet, "adam_step", step)
    return net, seen[-1], net.loss_trace


def _assert_same_training(got, want):
    (net, state, trace), (ref_net, ref_state, ref_trace) = got, want
    assert trace == ref_trace
    for name in ("w1", "b1", "w2", "b2"):
        assert np.array_equal(getattr(net, name), getattr(ref_net, name)), name
    assert state.t == ref_state.t
    for got_arr, ref_arr in zip(state.m + state.v, ref_state.m + ref_state.v):
        assert np.array_equal(got_arr, ref_arr)


def _layout_inputs(kind, rng):
    from seqclass.features import kmer_matrix, ohe_matrix
    from seqclass.rff import new_projector, project

    from conftest import random_sequences

    if kind == "ohe":
        return ohe_matrix(random_sequences(rng, 130, 40), 40)  # d = 840
    kmers = kmer_matrix(random_sequences(rng, 130, 30), k=2)  # d = 441
    if kind == "kmers":
        return kmers
    return project(new_projector(kmers.shape[1], 64, 1.0 / 441, 3), kmers)  # dense RFF


@pytest.mark.parametrize("kind", ["ohe", "kmers", "rff"])
@pytest.mark.parametrize("h, batch_size, epochs", [(24, 50, 3), (1, 50, 2), (7, 1, 1)])
def test_train_is_bit_identical_to_reference(monkeypatch, rng, kind, h, batch_size, epochs):
    # 130 rows in batches of 50 leave a ragged last batch of 30
    X = _layout_inputs(kind, rng)
    y = rng.integers(0, 4, X.shape[0])
    config = _settings(4, hidden_width=h, batch_size=batch_size, epochs=epochs, seed=11)
    net, state, trace = _train_with_state(monkeypatch, config, X, y)
    for arr in (net.w1, net.w2, *state.m, *state.v):
        assert arr.flags.c_contiguous
    _assert_same_training((net, state, trace), _reference_train(config, X, y))


@pytest.mark.parametrize("kind, block_bytes", [
    ("ohe", 5 * 8 * 840),  # w1 is (24, 840): 24 memory rows of d = 840 are 4 blocks of 5 + 4
    ("ohe", 8 * 24),  # less than one memory row: one row per block
    ("rff", 5 * 8 * 64),  # 24 memory rows of D = 64 are 4 blocks of 5 + 4
    ("ohe", None),  # the default size: h = 24 rows of d = 3000 are 10 + 10 + 4
    ("rff", None),  # the same on dense input
])
def test_train_is_bit_identical_with_partial_adam_blocks(monkeypatch, rng, kind, block_bytes):
    h = 24
    if block_bytes:
        monkeypatch.setattr(nnet, "ADAM_BLOCK_BYTES", block_bytes)
        X = _layout_inputs(kind, rng)
    else:
        X = sp.random(120, 3000, density=0.01, format="csr", random_state=5)
        X = X if kind == "ohe" else X.toarray()
    y = rng.integers(0, 3, X.shape[0])
    config = _settings(3, hidden_width=h, batch_size=50, epochs=2, seed=4)
    got = _train_with_state(monkeypatch, config, X, y)
    _assert_same_training(got, _reference_train(config, X, y))


@pytest.mark.parametrize("param_order, grad_order", [("C", "C"), ("C", "F"), ("F", "C"), ("F", "F")])
def test_adam_step_any_layout_matches_reference(monkeypatch, rng, param_order, grad_order):
    # a hand-built net, with blocks of 3 of w1's 5 rows so the last block is partial
    h, d, C = 5, 13, 3
    monkeypatch.setattr(nnet, "ADAM_BLOCK_BYTES", 3 * 8 * d)
    arrays = [rng.normal(size=(h, d)), rng.normal(size=h), rng.normal(size=(C, h)), rng.normal(size=C)]
    net = nnet.FeedForwardNet(*(np.asarray(a, order=param_order) for a in arrays))
    ref = nnet.FeedForwardNet(*(a.copy() for a in arrays))
    state, ref_state = nnet.adam_init(net), nnet.adam_init(ref)
    for _ in range(4):
        grads = [rng.normal(size=a.shape) for a in arrays]
        nnet.adam_step(net, [np.asarray(g, order=grad_order) for g in grads], state, 0.01)
        _reference_adam_step(ref, grads, ref_state, 0.01)
    _assert_same_training((net, state, []), (ref, ref_state, []))


def _csr_loss_and_grads(net, X, y):
    """The CSR arithmetic that densified batches replaced: scipy's sparse products on X."""
    y = np.asarray(y, dtype=np.int64)
    n = X.shape[0]
    X = X.astype(np.float64)
    pre = np.asarray(X @ net.w1.T) + net.b1
    hidden = np.maximum(pre, 0.0)
    probs = nnet._softmax(hidden @ net.w2.T + net.b2)
    loss = nnet.nn_loss(probs, y)
    delta2 = probs.copy()
    delta2[np.arange(n), y] -= 1.0
    delta2 /= n
    delta1 = (delta2 @ net.w2) * (pre > 0.0)
    grads = [np.asarray(X.T @ delta1).T, delta1.sum(axis=0), delta2.T @ hidden, delta2.sum(axis=0)]
    return loss, grads


def _csr_scores(net, X):
    hidden = np.maximum(np.asarray(X.astype(np.float64) @ net.w1.T) + net.b1, 0.0)
    return nnet._softmax(hidden @ net.w2.T + net.b2)


@pytest.mark.parametrize("kind", ["ohe", "kmers"])
def test_dense_batches_agree_with_csr_arithmetic(monkeypatch, rng, kind):
    """A GEMM sums in another order than scipy's CSR kernel: 5 epochs of training agree
    within 1e-13, relative on the loss trace and absolute on weights and scores (about
    6e-16 was seen)."""
    X = _layout_inputs(kind, rng)
    y = rng.integers(0, 4, X.shape[0])
    config = _settings(4, hidden_width=24, batch_size=50, epochs=5, seed=3)
    net = nnet.nn_train(X, y, **config)
    monkeypatch.setattr(nnet, "nn_loss_and_grads", _csr_loss_and_grads)
    ref = nnet.nn_train(X, y, **config)
    assert np.allclose(net.loss_trace, ref.loss_trace, rtol=1e-13, atol=0)
    for name in ("w1", "b1", "w2", "b2"):
        assert np.abs(getattr(net, name) - getattr(ref, name)).max() <= 1e-13, name
    assert np.abs(nnet.nn_scores(net, X) - _csr_scores(ref, X)).max() <= 1e-13


def test_step_on_csr_batch_allocates_only_the_gradient(monkeypatch, rng):
    """One forward/backward pass and Adam update hold the densified batch, g_w1 and nothing
    else of size h x d."""
    import tracemalloc

    from seqclass.features import ohe_matrix

    from conftest import random_sequences

    X = ohe_matrix(random_sequences(rng, 100, 1000), 1000).astype(np.float64)  # d = 21000
    y = rng.integers(0, 5, 100)
    config = _settings(5, hidden_width=32, epochs=1)
    net, state, _ = _train_with_state(monkeypatch, config, X, y)  # the layout nn_train uses
    g_w1_bytes = net.w1.nbytes
    batch_bytes = 8 * X.shape[0] * X.shape[1]  # the CSR batch densified

    # the forward product ends where the softmax starts; a copy of w1.T made
    # there is freed before g_w1 exists, so the peak up to that point is its own check
    forward_peak = []

    def softmax_after_forward(z):
        forward_peak.append(tracemalloc.get_traced_memory()[1])
        return softmax(z)

    softmax = nnet._softmax
    monkeypatch.setattr(nnet, "_softmax", softmax_after_forward)
    tracemalloc.start()
    _, grads = nnet.nn_loss_and_grads(net, X, y)
    nnet.adam_step(net, grads, state, config["learning_rate"])
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert grads[0].shape == net.w1.shape
    # a copy of w1.T or one full-size Adam temporary would add another 5.4 MB
    assert forward_peak[0] <= batch_bytes + 2**18, forward_peak
    assert peak <= g_w1_bytes + batch_bytes + 2 * nnet.ADAM_BLOCK_BYTES + 2**18, peak


def test_train_bytes_matches_traced_peak():
    """The larger of train_bytes and score_bytes against tracemalloc's peak of training on
    n rows and scoring them, beside the rows: 60 CSR rows of 20000 columns at width 64;
    120 dense rows of 1000 columns at the default width, where a training step's batch x
    hidden arrays and Adam's scratch blocks lie beside the four hidden x d arrays; and
    1048 dense RFF-like rows of 200 columns at the default width, whose scoring (w1 and
    two 1048 x 200 activations) outgrows the fit."""
    import tracemalloc

    C = 20
    for n, d, h, sparse in ((60, 20000, 64, True), (120, 1000, None, False),
                            (1048, 200, None, False)):
        if sparse:
            X = sp.random(n, d, density=0.005, format="csr", random_state=3)
        else:
            X = np.cos(np.random.default_rng(3).standard_normal((n, d)))
        y = np.arange(n) % C
        nnz = X.nnz if sparse else None
        estimate = max(nnet.train_bytes(n, d, h), nnet.score_bytes(n, d, C, h, nnz))
        tracemalloc.start()
        nnet.nn_scores(nnet.nn_train(X, y, C, hidden_width=h, epochs=2), X)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert 0.75 * estimate <= peak <= 1.05 * estimate, (n, d, peak, estimate)
