"""The benchmark's oracles agree with seqclass on tiny inputs and catch planted faults."""

import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import rankdata

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
import oracles  # noqa: E402
from gen import CorpusSpec, make_corpus, zipf_sizes  # noqa: E402

from seqclass import features, infogain, linear_models, metrics, rff  # noqa: E402
from seqclass.ingest import LabeledSequence, LabelHierarchy, SequenceRecord  # noqa: E402


def _ragged(rng, n=12):
    return ["".join(rng.choice(list(oracles.ALPHABET), size=rng.integers(4, 40))) for _ in range(n)]


@pytest.mark.parametrize("k", [2, 3, 4])
def test_kmer_rows_agree_and_a_shifted_window_is_caught(k):
    seqs = _ragged(np.random.default_rng(k))
    matrix = features.kmer_matrix(seqs, k=k)
    for i, seq in enumerate(seqs):
        row = matrix.getrow(i)
        assert oracles.check_feature_row(seq, "kmers", k, row.indices, row.data) == []
        shifted = features.kmer_matrix([seq[1:] + seq[0]], k=k)
        assert oracles.check_feature_row(seq, "kmers", k, shifted.indices, shifted.data)


def test_ohe_rows_agree_and_a_shifted_position_is_caught():
    seqs = ["ACDWY", "YYYYA", "MKVXA"]
    matrix = features.ohe_matrix(seqs, expected_len=5)
    for i, seq in enumerate(seqs):
        row = matrix.getrow(i)
        assert oracles.check_feature_row(seq, "ohe", 0, row.indices, row.data) == []
    shifted = features.ohe_matrix(["CDWYA"], expected_len=5)
    assert oracles.check_feature_row("ACDWY", "ohe", 0, shifted.indices, shifted.data)


def _metric_inputs():
    rng = np.random.default_rng(7)
    y = rng.integers(0, 4, size=60)
    scores = rng.integers(0, 3, size=(60, 4)).astype(float)  # many ties
    pred = np.argmax(scores, axis=1)
    return y, pred, scores


def test_metrics_agree_with_brute_force():
    y, pred, scores = _metric_inputs()
    matrix = metrics.confusion(y, pred, 4)
    summary = metrics.summarize(matrix)
    auc = metrics.roc_auc_ovr_weighted(scores, y)
    assert oracles.check_metrics(y, pred, scores, 4, matrix, summary, auc) == []


def test_an_auc_with_the_tie_rule_swapped_is_caught(monkeypatch):
    y, pred, scores = _metric_inputs()
    matrix = metrics.confusion(y, pred, 4)
    summary = metrics.summarize(matrix)
    monkeypatch.setattr(metrics, "rankdata", lambda x: rankdata(x, method="max"))
    auc = metrics.roc_auc_ovr_weighted(scores, y)
    problems = oracles.check_metrics(y, pred, scores, 4, matrix, summary, auc)
    assert problems and "AUC" in problems[0]


def _aligned_corpus():
    corpus = make_corpus(CorpusSpec(size=300, classes=5, sites_per_class=3), seed=3)
    data = [LabeledSequence(SequenceRecord(i, s), LabelHierarchy("c", country, None))
            for i, s, country in zip(corpus.ids, corpus.sequences, corpus.countries)]
    return corpus, data


def test_ig_agrees_and_the_wrong_log_base_is_caught():
    corpus, data = _aligned_corpus()
    table = infogain.information_gain(data)
    expected, h_class, _ = oracles.information_gain(corpus.sequences, corpus.countries)
    assert abs(h_class - table.class_entropy) < 1e-12
    assert oracles.check_ig(table.ig_bits, expected, h_class, corpus.planted_sites) == []
    in_nats = table.ig_bits * np.log(2.0)
    assert oracles.check_ig(in_nats, expected, h_class, corpus.planted_sites)


def test_ridge_residual_and_rff_rows_catch_perturbed_outputs():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(30, 8))
    y = rng.integers(0, 3, size=30)
    model = linear_models.ridge_fit(X, y, alpha=0.5, class_count=3)
    assert oracles.ridge_residual(X, y, 3, 0.5, model.weights, model.bias) < 1e-10
    assert oracles.ridge_residual(X, y, 3, 0.5, model.weights * 1.001, model.bias) > 1e-6

    projector = rff.new_projector(8, 16, 0.1, seed=2)
    out = rff.project(projector, X[:4])
    assert oracles.check_rff_rows(projector.weights, projector.phases, X[:4], out) == []
    assert oracles.check_rff_rows(projector.weights, projector.phases, X[:4], out / np.sqrt(2.0))


def test_generator_is_seeded_and_keeps_every_class():
    sizes = zipf_sizes(100, 20)
    assert sizes.sum() == 100 and sizes.min() >= 2 and sizes[0] == sizes.max()
    spec = CorpusSpec(size=200, deletion_share=0.5)
    a, b, c = make_corpus(spec, 1), make_corpus(spec, 1), make_corpus(spec, 2)
    assert a.sequences == b.sequences and a.countries == b.countries
    assert a.sequences != c.sequences
    assert len({len(s) for s in a.sequences}) > 1
    assert oracles.check_nonincreasing([3.0, 2.0, 2.0, 1.0]) == []
    assert oracles.check_nonincreasing([3.0, 2.0, 2.5])
