"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and measured values.
"""

import os
import time
import warnings

import numpy as np
import pytest

import seqclass.linear_models as lm
import seqclass.neural_net as nnet
from seqclass.cli import main as cli_main
from seqclass.features import ALPHABET, kmer_counts, kmer_matrix
from seqclass.infogain import information_gain
from seqclass.ingest import LabeledSequence, LabelHierarchy, SequenceRecord, save_corpus
from seqclass.metrics import binary_auc, confusion, roc_auc_ovr_weighted, summarize
from seqclass.pipeline import ExperimentConfig, run_experiment, strip_timing
from seqclass.rff import exact_kernel, new_projector, project

from conftest import labeled_corpus, random_sequences
from test_infogain import _corpus as ig_corpus
from test_infogain import ig_identity_oracle
from test_metrics import auc_oracle, summarize_oracle

_LUT = np.frombuffer(ALPHABET.encode(), dtype=np.uint8)


def _line(criterion: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} — {detail}")


def _majority_aggregate(class_sizes, runs=5, length=24, seed=0):
    data = labeled_corpus(class_sizes, length=length, seed=seed)
    config = ExperimentConfig(model="majority", class_level="country", runs=runs)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        report = run_experiment(config, data)
    return report["aggregate"]


# --- criterion 1: majority baseline, 5 classes, share 0.60 ---------------------

def test_c01_majority_five_class_row():
    tic = time.perf_counter()
    agg = _majority_aggregate({"maj": 6000, "c1": 1000, "c2": 1000, "c3": 1000, "c4": 1000})
    elapsed = time.perf_counter() - tic
    targets = {
        "accuracy": 0.60,
        "precision_weighted": 0.36,
        "recall_weighted": 0.60,
        "f1_weighted": 0.45,
        "f1_macro": 0.15,
        "roc_auc_weighted_ovr": 0.50,
    }
    deltas = {k: abs(agg["mean"][k] - v) for k, v in targets.items()}
    ok = max(deltas.values()) <= 1e-3 and all(s == 0.0 for s in agg["std"].values()) and elapsed < 10
    _line("C1 (5-class majority row)", ok,
          f"max|Δ|={max(deltas.values()):.2e}, max std={max(agg['std'].values()):.1e}, "
          f"runtime={elapsed:.1f}s (n=10000, 5 runs)")
    for key, value in targets.items():
        assert agg["mean"][key] == pytest.approx(value, abs=1e-3), key
        assert agg["std"][key] == 0.0, key
    assert elapsed < 10.0


# --- criterion 2: majority baseline at 27-class and 12-class scales ------------

def _sizes(n, n_classes, majority):
    rest, k = n - majority, n_classes - 1
    base, extra = divmod(rest, k)
    sizes = {"maj": majority}
    for i in range(k):
        sizes[f"c{i:02d}"] = base + (1 if i < extra else 0)
    return sizes


def test_c02_majority_27_class_weighted_f1():
    # majority share 0.274 (prints as 0.27); closed form 2p^2/(1+p) = 0.1179
    agg = _majority_aggregate(_sizes(10_000, 27, 2740))
    got = agg["mean"]["f1_weighted"]
    ok = abs(got - 0.12) <= 0.005
    _line("C2a (27-class weighted F1)", ok, f"f1_weighted={got:.4f} vs 0.12 ± 0.005")
    assert got == pytest.approx(0.12, abs=0.005)
    assert agg["mean"]["accuracy"] == pytest.approx(0.274, abs=1e-9)
    assert agg["std"]["f1_weighted"] == 0.0


def test_c02_majority_27_class_macro_f1():
    # metrics.summarize averages macro F1 over every class in the label set
    # and scores a zero-denominator term as 0. A majority predictor with
    # test share p over C classes has F1 = 2p/(1+p) on the predicted class
    # and 0 on the other C - 1, so macro F1 = (2p/(1+p))/C. The stratified
    # fixture holds p = 0.274 exactly (C2a checks the accuracy to 1e-9),
    # giving (2*0.274/1.274)/27 = 0.0159312.
    #
    # The paper's row (0.27 / 0.12 / 0.01) is not pinned here: no 27-class
    # majority predictor reaches 0.01 to two decimals. C2a's weighted-F1
    # band admits p in [0.2703, 0.2832], where macro F1 lies in
    # [0.01576, 0.01635]; over every p that rounds to 0.27 it is at least
    # 0.01552. The three figures fit together only if truncated to two
    # decimals (p in [0.2768, 0.28)), and the abstract does not say which.
    agg = _majority_aggregate(_sizes(10_000, 27, 2740))
    got = agg["mean"]["f1_macro"]
    want = (2 * 0.274 / 1.274) / 27
    ok = abs(got - want) <= 1e-12 and agg["std"]["f1_macro"] == 0.0
    _line("C2b (27-class macro F1)", ok,
          f"f1_macro={got:.7f} vs closed form (2p/(1+p))/27 = {want:.7f} at p=0.274 "
          f"(paper prints 0.01)")
    assert got == pytest.approx(want, rel=0, abs=1e-12)
    assert agg["std"]["f1_macro"] == 0.0


def test_c02_majority_12_class_row():
    # majority share 0.334 (prints as 0.33); the weighted-F1 target pins the
    # share to [0.3315, 0.335), which rounding to 0.33 admits
    agg = _majority_aggregate(_sizes(10_000, 12, 3340))
    got_w = agg["mean"]["f1_weighted"]
    got_m = agg["mean"]["f1_macro"]
    ok = abs(got_w - 0.17) <= 0.005 and abs(got_m - 0.04) <= 0.005
    _line("C2c (12-class row)", ok,
          f"f1_weighted={got_w:.4f} vs 0.17 ± 0.005, f1_macro={got_m:.4f} vs 0.04 ± 0.005")
    assert got_w == pytest.approx(0.17, abs=0.005)
    assert got_m == pytest.approx(0.04, abs=0.005)


# --- criterion 3: k-mer arithmetic ----------------------------------------------

def test_c03_kmer_arithmetic():
    rng = np.random.default_rng(33)
    seqs = random_sequences(rng, 1000, 1273)
    tic = time.perf_counter()
    matrix = kmer_matrix(seqs, 3)
    elapsed = time.perf_counter() - tic
    sums = np.asarray(matrix.sum(axis=1)).ravel()
    decomposition_ok = (
        kmer_counts("MDPEG", 3) == {"MDP": 1, "DPE": 1, "PEG": 1}
        and kmer_counts("MDPEG", 4) == {"MDPE": 1, "DPEG": 1}
        and kmer_counts("MDPEG", 5) == {"MDPEG": 1}
    )
    ok = bool((sums == 1271).all()) and matrix.shape[1] == 9261 and decomposition_ok and elapsed < 1
    _line("C3 (k-mer arithmetic)", ok,
          f"1000 length-1273 rows all sum to 1271, dim=9261, "
          f"MDPEG decompositions exact, runtime={elapsed:.2f}s")
    assert (sums == 1271).all()
    assert matrix.shape[1] == 9261
    assert decomposition_ok
    assert elapsed < 1.0


# --- criterion 4: RFF kernel fidelity ---------------------------------------------

def test_c04_rff_fidelity():
    tic = time.perf_counter()
    rng = np.random.default_rng(44)
    d, gamma = 50, 1.0
    pairs = []
    for _ in range(100):
        a, b = rng.normal(size=(2, d))
        pairs.append((a / np.linalg.norm(a), b / np.linalg.norm(b)))

    def rmse(D, seed):
        proj = new_projector(d, D, gamma, seed=seed)
        errs = [
            project(proj, a) @ project(proj, b) - exact_kernel(a, b, gamma)
            for a, b in pairs
        ]
        return float(np.sqrt(np.mean(np.square(errs))))

    rmse_small = rmse(256, seed=100)
    rmse_big = rmse(4096, seed=101)

    x = rng.normal(size=d)
    x /= np.linalg.norm(x)
    hits = 0
    for seed in range(100):
        proj = new_projector(d, 4096, gamma, seed=seed)
        z = project(proj, x)
        hits += abs(z @ z - 1.0) <= 0.1
    elapsed = time.perf_counter() - tic

    ok = rmse_big < rmse_small / 2 and rmse_small < 0.1 and rmse_big < 0.1 and hits >= 95 and elapsed < 30
    _line("C4 (RFF fidelity)", ok,
          f"RMSE(D=256)={rmse_small:.4f}, RMSE(D=4096)={rmse_big:.4f} "
          f"(< half: {rmse_big < rmse_small / 2}), self-kernel hits {hits}/100, "
          f"runtime={elapsed:.1f}s")
    assert rmse_small < 0.1 and rmse_big < 0.1
    assert rmse_big < rmse_small / 2
    assert hits >= 95
    assert elapsed < 30.0


# --- criterion 5: gradient correctness ----------------------------------------------

def _relative_gradcheck(loss_fn, arrays, grads, eps=1e-6, tol=1e-4):
    for arr, grad in zip(arrays, grads):
        it = np.nditer(arr, flags=["multi_index"])
        for _v in it:
            ix = it.multi_index
            orig = arr[ix]
            arr[ix] = orig + eps
            lp = loss_fn()
            arr[ix] = orig - eps
            lmns = loss_fn()
            arr[ix] = orig
            fd = (lp - lmns) / (2 * eps)
            denom = max(abs(fd), abs(grad[ix]), 1e-8)
            assert abs(fd - grad[ix]) / denom < tol


def test_c05_gradient_correctness():
    tic = time.perf_counter()
    rng = np.random.default_rng(55)
    for _ in range(50):  # feed-forward net on tiny instances
        d, h, C = int(rng.integers(2, 6)), int(rng.integers(2, 5)), int(rng.integers(2, 4))
        n = int(rng.integers(2, 11))
        net = nnet.nn_init(d, C, h, seed=int(rng.integers(10_000)))
        X = rng.normal(size=(n, d))
        y = rng.integers(0, C, size=n)
        _, grads = nnet.nn_loss_and_grads(net, X, y)
        _relative_gradcheck(
            lambda: nnet.nn_loss_and_grads(net, X, y)[0],
            [net.w1, net.b1, net.w2, net.b2],
            grads,
        )
    for _ in range(50):  # multinomial logistic regression
        n, d, C = int(rng.integers(3, 21)), int(rng.integers(1, 6)), int(rng.integers(2, 4))
        X = rng.normal(size=(n, d))
        y = rng.integers(0, C, size=n)
        y[:C] = np.arange(C)
        W = rng.normal(size=(C, d)) * 0.5
        b = rng.normal(size=C) * 0.5
        lam = 10.0 ** rng.uniform(-5, -2)
        _, gw, gb = lm.logreg_loss_grad(W, b, X, y, lam)
        _relative_gradcheck(
            lambda: lm.logreg_loss_grad(W, b, X, y, lam)[0], [W, b], [gw, gb]
        )
    elapsed = time.perf_counter() - tic
    ok = elapsed < 30
    _line("C5 (gradient correctness)", ok,
          f"50 net + 50 logistic instances within rel 1e-4, runtime={elapsed:.1f}s")
    assert elapsed < 30.0


# --- criterion 6: learnability ordering -----------------------------------------------

def _motif_corpus(n=5000, n_classes=4, motifs_per_class=5, plants_per_motif=2,
                  slots=24, seed=66):
    """Sequences built from 3-residue slots; each class plants its own motifs."""
    rng = np.random.default_rng(seed)
    motif_pool: set[tuple] = set()
    while len(motif_pool) < n_classes * motifs_per_class:
        motif_pool.add(tuple(rng.integers(0, 21, size=3)))
    motif_list = list(motif_pool)
    rng.shuffle(motif_list)
    class_motifs = [
        motif_list[c * motifs_per_class : (c + 1) * motifs_per_class]
        for c in range(n_classes)
    ]
    data = []
    for c in range(n_classes):
        for i in range(n // n_classes):
            codes = rng.integers(0, 21, size=(slots, 3))
            plant = rng.choice(slots, size=motifs_per_class * plants_per_motif, replace=False)
            for j, slot in enumerate(plant):
                codes[slot] = class_motifs[c][j % motifs_per_class]
            seq = bytes(_LUT[codes.ravel()]).decode("ascii")
            data.append(
                LabeledSequence(
                    SequenceRecord(f"m{c}_{i}", seq),
                    LabelHierarchy("x", f"class{c}"),
                )
            )
    return data


def test_c06_learnability_ordering():
    tic = time.perf_counter()
    data = _motif_corpus()
    accs = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for model, extra in (
            ("majority", {}),
            ("nn", {"nn_hidden_width": 256}),
            ("lr", {"use_rff": True}),
            ("ridge", {"use_rff": True}),
        ):
            config = ExperimentConfig(model=model, encoding="kmers", runs=1, **extra)
            report = run_experiment(config, data)
            accs[model] = report["aggregate"]["mean"]["accuracy"]
    elapsed = time.perf_counter() - tic
    ok = (
        accs["nn"] >= 0.95
        and accs["nn"] > accs["majority"]
        and accs["lr"] >= 0.85
        and accs["ridge"] >= 0.85
        and elapsed < 300
    )
    _line("C6 (learnability ordering)", ok,
          f"nn={accs['nn']:.3f} (>majority {accs['majority']:.3f}), "
          f"lr={accs['lr']:.3f}, ridge={accs['ridge']:.3f}, runtime={elapsed:.0f}s")
    assert accs["nn"] >= 0.95
    assert accs["nn"] > accs["majority"]
    assert accs["lr"] >= 0.85
    assert accs["ridge"] >= 0.85
    assert elapsed < 300.0


# --- criterion 7: metrics against brute-force oracles -------------------------------------

def test_c07_metrics_oracle():
    tic = time.perf_counter()
    rng = np.random.default_rng(77)
    for _ in range(200):
        C = int(rng.integers(2, 6))
        n = int(rng.integers(2, 60))
        y_true = rng.integers(0, C, size=n)
        y_pred = rng.integers(0, C, size=n)
        m = confusion(y_true, y_pred, C)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            got = summarize(m)
        want = summarize_oracle(m)
        for key, value in want.items():
            assert got[key] == pytest.approx(value, abs=1e-15), key

        scores = np.round(rng.normal(size=n), 2)
        positives = rng.integers(0, 2, size=n).astype(bool)
        if positives.any() and not positives.all():
            assert binary_auc(scores, positives) == auc_oracle(scores, positives)

        full = np.round(rng.normal(size=(n, C)), 1)
        if len(np.unique(y_true)) >= 2:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                got_auc = roc_auc_ovr_weighted(full, y_true)
            parts, weights = [], []
            for c in np.unique(y_true):
                mask = y_true == c
                parts.append(auc_oracle(full[:, c], mask))
                weights.append(int(mask.sum()))
            want_auc = float(np.dot(parts, np.array(weights) / sum(weights)))
            assert got_auc == pytest.approx(want_auc, abs=1e-15)
    elapsed = time.perf_counter() - tic
    ok = elapsed < 10
    _line("C7 (metrics oracle)", ok, f"200 instances match brute force, runtime={elapsed:.1f}s")
    assert elapsed < 10.0


# --- criterion 8: information gain ---------------------------------------------------------

def test_c08_information_gain():
    tic = time.perf_counter()
    rng = np.random.default_rng(88)
    for _ in range(100):
        n = int(rng.integers(4, 30))
        L = int(rng.integers(1, 10))
        rows = []
        for _i in range(n):
            seq = "".join(rng.choice(list("ACDEF"), size=L))
            rows.append((seq, f"c{int(rng.integers(0, 3))}"))
        if len({c for _, c in rows}) < 2:
            continue
        data = ig_corpus(rows)
        table = information_gain(data)
        assert np.allclose(table.ig_bits, ig_identity_oracle(data), atol=1e-9)

    constant = ig_corpus([("AC", "u"), ("AD", "u"), ("AC", "v"), ("AD", "v")])
    assert information_gain(constant).ig_bits[0] == 0.0

    perfect = ig_corpus([("CA", "u"), ("CA", "u"), ("DA", "v"), ("DA", "v")])
    table = information_gain(perfect)
    assert table.ig_bits[0] == table.class_entropy == 1.0

    worked = ig_corpus([("A", "u"), ("A", "u"), ("A", "v"), ("C", "v")])
    got = information_gain(worked).ig_bits[0]
    assert got == pytest.approx(0.3113, abs=1e-4)
    elapsed = time.perf_counter() - tic
    ok = elapsed < 10
    _line("C8 (information gain)", ok,
          f"identity cross-check on 100 corpora, edge cases exact, "
          f"worked value {got:.4f}, runtime={elapsed:.1f}s")
    assert elapsed < 10.0


# --- criterion 9: end-to-end determinism ------------------------------------------------------

def test_c09_run_determinism(tmp_path):
    import json

    data = labeled_corpus({"a": 50, "b": 30, "c": 20}, seed=99)
    corpus = tmp_path / "c.corpus"
    save_corpus(str(corpus), data)
    out_dir = tmp_path / "out"
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        f"corpus = {corpus}\nmodel = ridge\nuse_rff = true\nrff_dim = 64\n"
        f"runs = 3\noutput_dir = {out_dir}\n"
    )
    stripped = []
    for _ in range(2):  # identical config, two executions
        assert cli_main(["run", "--config", str(cfg)]) == 0
        report = json.loads((out_dir / "report.json").read_text())
        stripped.append(json.dumps(strip_timing(report), sort_keys=True).encode())
    ok = stripped[0] == stripped[1]
    _line("C9 (determinism)", ok,
          "two executions produced byte-identical metric JSON (timing excluded)")
    assert stripped[0] == stripped[1]


# --- criterion 10: featurization throughput ------------------------------------------------------

def _usable_cpus() -> int:
    """Cores this process may run on (affinity-aware where the OS has it)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _throughput_corpus():
    rng = np.random.default_rng(1010)
    codes = rng.integers(0, 21, size=(100_000, 1273), dtype=np.uint8)
    seqs = [bytes(_LUT[row]).decode("ascii") for row in codes]
    del codes
    return seqs


def test_c10_single_thread_throughput():
    seqs = _throughput_corpus()
    tic = time.perf_counter()
    matrix = kmer_matrix(seqs, 3, workers=1)
    elapsed = time.perf_counter() - tic
    ok = elapsed < 60 and matrix.shape == (100_000, 9261)
    _line("C10a (single-thread throughput)", ok,
          f"100k length-1273 sequences in {elapsed:.1f}s (limit 60s), "
          f"nnz={matrix.nnz}")
    assert matrix.shape == (100_000, 9261)
    assert elapsed < 60.0


@pytest.mark.skipif(
    _usable_cpus() < 8,
    reason=f"8-worker scaling gate needs >= 8 usable cores; found {_usable_cpus()}",
)
def test_c10_parallel_scaling():
    # A 3x speedup from 8 workers (threads) needs 8 cores to run them on;
    # the single-worker baseline is timed here, right before the 8-worker
    # run, so both see the same load whatever ran before this test.
    seqs = _throughput_corpus()
    tic = time.perf_counter()
    kmer_matrix(seqs, 3, workers=1)
    single = time.perf_counter() - tic
    tic = time.perf_counter()
    matrix = kmer_matrix(seqs, 3, workers=8)
    parallel = time.perf_counter() - tic
    speedup = single / parallel
    cores = _usable_cpus()
    ok = speedup >= 3.0
    _line("C10b (8-worker scaling)", ok,
          f"single={single:.1f}s, 8 workers={parallel:.1f}s, "
          f"speedup={speedup:.2f}x (need >= 3.0x) on {cores} usable cores")
    assert matrix.shape == (100_000, 9261)
    assert speedup >= 3.0, (
        f"speedup {speedup:.2f}x < 3.0x with 8 workers on {cores} usable cores"
    )
