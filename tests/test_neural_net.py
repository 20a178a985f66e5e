import numpy as np
import pytest
import scipy.sparse as sp

import seqclass.neural_net as nnet
from seqclass.errors import (
    DimensionMismatch,
    InvalidConfig,
    LabelOutOfRange,
    NonFiniteLoss,
)


def _tiny_config(d=4, C=3, h=5, seed=0, **kw):
    return nnet.NetConfig(input_dim=d, class_count=C, hidden_width=h, seed=seed, **kw)


def _blobs(rng, n_per_class, centers, scale=1.0):
    X, y = [], []
    for c, center in enumerate(centers):
        X.append(rng.normal(loc=center, scale=scale, size=(n_per_class, len(center))))
        y.extend([c] * n_per_class)
    X, y = np.vstack(X), np.array(y)
    perm = rng.permutation(len(y))
    return X[perm], y[perm]


def test_init_deterministic():
    a = nnet.nn_init(_tiny_config(seed=9))
    b = nnet.nn_init(_tiny_config(seed=9))
    assert np.array_equal(a.w1, b.w1) and np.array_equal(a.w2, b.w2)


def test_init_biases_zero_and_glorot_bound():
    net = nnet.nn_init(_tiny_config(d=6, C=2, h=10))
    assert np.all(net.b1 == 0) and np.all(net.b2 == 0)
    assert np.abs(net.w1).max() <= np.sqrt(6.0 / (6 + 10))
    assert np.abs(net.w2).max() <= np.sqrt(6.0 / (10 + 2))


def test_hidden_width_defaults_to_input_dim():
    config = nnet.NetConfig(input_dim=7, class_count=2)
    assert config.resolved_hidden() == 7
    assert nnet.nn_init(config).w1.shape == (7, 7)


def test_init_rejects_bad_config():
    with pytest.raises(InvalidConfig):
        nnet.nn_init(nnet.NetConfig(input_dim=0, class_count=2))
    with pytest.raises(InvalidConfig):
        nnet.nn_init(nnet.NetConfig(input_dim=2, class_count=2, batch_size=0))


def test_forward_zero_net_is_uniform(rng):
    net = nnet.FeedForwardNet(np.zeros((5, 4)), np.zeros(5), np.zeros((3, 5)), np.zeros(3))
    probs = nnet.nn_scores(net, rng.normal(size=(6, 4)))
    assert np.allclose(probs, 1.0 / 3.0)


def test_forward_shift_invariance(rng):
    config = _tiny_config()
    net = nnet.nn_init(config)
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
        net = nnet.nn_init(_tiny_config(d=6, C=4, h=8, seed=seed))
        probs = nnet.nn_scores(net, rng.normal(size=(10, 6)))
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-9)


def test_forward_dimension_mismatch(rng):
    net = nnet.nn_init(_tiny_config())
    with pytest.raises(DimensionMismatch):
        nnet.nn_scores(net, rng.normal(size=(2, 9)))


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
        config = nnet.NetConfig(input_dim=d, class_count=C, hidden_width=h,
                                seed=int(rng.integers(1000)))
        net = nnet.nn_init(config)
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
    config = _tiny_config()
    net = nnet.nn_init(config)
    before = [net.w1.copy(), net.b1.copy(), net.w2.copy(), net.b2.copy()]
    state = nnet.adam_init(net)
    zero_grads = [np.zeros_like(p) for p in before]
    nnet.adam_step(net, zero_grads, state, config)
    after = [net.w1, net.b1, net.w2, net.b2]
    for b, a in zip(before, after):
        assert np.array_equal(b, a)
    assert state.t == 1


def test_train_blobs_reaches_high_accuracy(rng):
    # centers 6 sigma apart in 10-d: label noise is negligible by construction
    X, y = _blobs(rng, 500, [tuple([0.0] * 10), tuple([6.0] * 10)], scale=1.0)
    config = nnet.NetConfig(input_dim=10, class_count=2, hidden_width=128, seed=4)
    net, trace = nnet.nn_train(config, X, y)
    acc = (np.argmax(nnet.nn_scores(net, X), axis=1) == y).mean()
    assert acc >= 0.99
    assert len(trace) == config.epochs == 10


def test_train_loss_decreases_across_seeds(rng):
    for seed in range(5):
        X, y = _blobs(rng, 80, [(0.0, 0.0), (3.0, 3.0)], scale=1.0)
        config = nnet.NetConfig(input_dim=2, class_count=2, hidden_width=8, seed=seed)
        _, trace = nnet.nn_train(config, X, y)
        assert trace[-1] < trace[0]


def test_train_full_batch_degenerate(rng):
    # batch_size >= n means one full-batch step per epoch; still converges
    X, y = _blobs(rng, 50, [(0.0,), (5.0,)], scale=0.5)
    config = nnet.NetConfig(input_dim=1, class_count=2, hidden_width=8,
                            batch_size=10_000, epochs=300, seed=1)
    net, trace = nnet.nn_train(config, X, y)
    assert len(trace) == 300
    assert (np.argmax(nnet.nn_scores(net, X), axis=1) == y).mean() >= 0.99


def test_train_deterministic(rng):
    X, y = _blobs(rng, 40, [(0.0, 1.0), (2.0, -1.0)], scale=1.0)
    config = nnet.NetConfig(input_dim=2, class_count=2, hidden_width=6, seed=3)
    net_a, trace_a = nnet.nn_train(config, X, y)
    net_b, trace_b = nnet.nn_train(config, X, y)
    assert trace_a == trace_b
    assert np.array_equal(net_a.w1, net_b.w1) and np.array_equal(net_a.w2, net_b.w2)


def test_train_invariant_to_row_order(rng):
    # the seeded shuffle defines the visit order, not the input order
    X, y = _blobs(rng, 30, [(0.0, 0.0), (2.0, 2.0)], scale=1.0)
    n = len(y)
    config = nnet.NetConfig(input_dim=2, class_count=2, hidden_width=5, seed=8, epochs=4)
    net_a, _ = nnet.nn_train(config, X, y)

    perm = rng.permutation(n)
    inv = np.argsort(perm)
    orders = nnet.epoch_shuffle_orders(config.seed, n, config.epochs)
    permuted_orders = [inv[order] for order in orders]  # X[perm][inv[o]] == X[o]
    net_b, _ = nnet.nn_train(config, X[perm], y[perm], epoch_orders=permuted_orders)
    assert np.array_equal(net_a.w1, net_b.w1)
    assert np.array_equal(net_a.w2, net_b.w2)
    assert np.array_equal(net_a.b1, net_b.b1)
    assert np.array_equal(net_a.b2, net_b.b2)


def test_train_sparse_input_close_to_dense(rng):
    X = rng.poisson(1.0, size=(120, 12)).astype(np.float64)
    y = (X[:, 0] + X[:, 1] > 2).astype(int)
    config = nnet.NetConfig(input_dim=12, class_count=2, hidden_width=6, seed=2, epochs=3)
    net_d, trace_d = nnet.nn_train(config, X, y)
    net_s, trace_s = nnet.nn_train(config, sp.csr_matrix(X), y)
    assert abs(trace_d[-1] - trace_s[-1]) < 1e-6
    assert np.allclose(net_d.w1, net_s.w1, atol=1e-8)


def test_train_label_out_of_range(rng):
    config = _tiny_config(d=2, C=2, h=3)
    with pytest.raises(LabelOutOfRange):
        nnet.nn_train(config, rng.normal(size=(4, 2)), [0, 1, 2, 0])


def test_train_non_finite_loss_detected(rng):
    X = rng.normal(size=(10, 2))
    X[3, 1] = np.inf  # poisoned input propagates to a non-finite loss
    y = rng.integers(0, 2, 10)
    config = nnet.NetConfig(input_dim=2, class_count=2, hidden_width=3, seed=0)
    with pytest.raises(NonFiniteLoss):
        with np.errstate(over="ignore", invalid="ignore"):
            nnet.nn_train(config, X, y)


def test_checkpoint_round_trip(tmp_path):
    config = _tiny_config(seed=5)
    net = nnet.nn_init(config)
    path = tmp_path / "net.ckpt"
    nnet.save_checkpoint(str(path), net, config)
    loaded_net, loaded_config = nnet.load_checkpoint(str(path))
    assert loaded_config == config
    assert np.array_equal(loaded_net.w1, net.w1)
    assert np.array_equal(loaded_net.b2, net.b2)


def test_loss_trace_csv(tmp_path):
    path = tmp_path / "trace.csv"
    nnet.save_loss_trace(str(path), [1.5, 0.75, 0.5])
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "epoch,mean_loss"
    assert lines[1].startswith("1,1.5")
    assert len(lines) == 4
