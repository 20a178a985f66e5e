"""seqclass: alignment-free classification of amino-acid sequences.

Featurize validated sequences as k-mer counts or one-hot indicators,
optionally compress with random Fourier features, fit a baseline or
classifier (majority, Gaussian NB, logistic regression, ridge, or a
one-hidden-layer network), and evaluate with the full multiclass
protocol (weighted/macro F1, one-vs-rest ROC-AUC, multi-run mean/std).
Per-position information gain ranks alignment columns against labels.

The names below load their module on first use (PEP 562), so a command
pays only for the modules it needs: `seqclass ingest` never imports scipy.
"""

import importlib

from .errors import ConfigError, DataError, NumericalError, SeqclassError
from .version import __version__

_EXPORTS = {
    "config": ["ExperimentConfig"],
    "features": ["ALPHABET", "ALPHABET_SIZE", "featurize_corpus", "kmer_counts", "kmer_index",
                 "kmer_matrix", "ohe_matrix"],
    "infogain": ["IgTable", "entropy", "information_gain"],
    "ingest": ["LabeledSequence", "LabelHierarchy", "SequenceRecord", "class_ids", "join_metadata",
               "parse_fasta", "split_indices"],
    "metrics": ["QUALITY", "aggregate", "confusion", "roc_auc_ovr_weighted", "summarize"],
    "neural_net": ["FeedForwardNet", "nn_scores", "nn_train"],
    "pipeline": ["run_experiment", "strip_timing"],
    "rff": ["RffProjector", "exact_kernel", "new_projector", "project"],
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(
    ["__version__", "ConfigError", "DataError", "NumericalError", "SeqclassError", *_MODULE_OF]
)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
