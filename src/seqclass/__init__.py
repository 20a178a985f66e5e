"""seqclass: alignment-free classification of amino-acid sequences.

Featurize validated sequences as k-mer counts or one-hot indicators,
optionally compress with random Fourier features, fit a baseline or
classifier (majority, Gaussian NB, logistic regression, ridge, or a
one-hidden-layer network), and evaluate with the full multiclass
protocol (weighted/macro F1, one-vs-rest ROC-AUC, multi-run mean/std).
Per-position information gain ranks alignment columns against labels.
"""

from .version import __version__

from .errors import (
    ConfigError,
    DataError,
    NumericalError,
    SeqclassError,
)
from .features import (
    ALPHABET,
    ALPHABET_SIZE,
    featurize_corpus,
    kmer_counts,
    kmer_index,
    kmer_matrix,
    kmer_vector,
    ohe_matrix,
    ohe_vector,
)
from .infogain import IgTable, entropy, information_gain
from .ingest import (
    LabeledSequence,
    LabelHierarchy,
    SequenceRecord,
    SplitSpec,
    join_metadata,
    parse_fasta,
    split_train_test,
)
from .metrics import (
    RunMetrics,
    aggregate,
    confusion,
    roc_auc_ovr_weighted,
    summarize,
)
from .neural_net import FeedForwardNet, NetConfig, nn_scores, nn_train
from .pipeline import ExperimentConfig, run_experiment
from .rff import RffProjector, exact_kernel, new_projector, project

__all__ = [
    "__version__",
    "ALPHABET",
    "ALPHABET_SIZE",
    "ConfigError",
    "DataError",
    "ExperimentConfig",
    "FeedForwardNet",
    "IgTable",
    "LabelHierarchy",
    "LabeledSequence",
    "NetConfig",
    "NumericalError",
    "RffProjector",
    "RunMetrics",
    "SeqclassError",
    "SequenceRecord",
    "SplitSpec",
    "aggregate",
    "confusion",
    "entropy",
    "exact_kernel",
    "featurize_corpus",
    "information_gain",
    "join_metadata",
    "kmer_counts",
    "kmer_index",
    "kmer_matrix",
    "kmer_vector",
    "new_projector",
    "nn_scores",
    "nn_train",
    "ohe_matrix",
    "ohe_vector",
    "parse_fasta",
    "project",
    "roc_auc_ovr_weighted",
    "run_experiment",
    "split_train_test",
    "summarize",
]
