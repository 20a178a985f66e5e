"""Experiment orchestration: ingest -> featurize -> (RFF) -> fit -> evaluate.

An experiment repeats `runs` independent repetitions. Repetition i
derives every seed by adding i to the configured base (split, RFF
projector, model init), resamples the train/test split, fits the chosen
model on the train rows and scores the test rows. Per-run metrics plus
their mean and population std land in a JSON report whose bytes are
reproducible: everything time-derived lives under "timing" keys, which
`strip_timing` removes for byte-level comparison. A run's timing gives
train_runtime_seconds, measured around the model's fit alone, and the
wall time of each of its stages (`_stage`) as flat keys: split_seconds
(the split and taking its raw rows), rff_seconds (building the projector
and projecting rows), fit_seconds (the fit and scoring the test blocks)
and metrics_seconds, then peak_rss_mb: the process's ru_maxrss in MiB
when the run ends (None where the `resource` module is missing). Linux
carries ru_maxrss over an exec, so a process spawned from a larger one
reads at least that one's resident set at the spawn.

Every model fits and scores in the used columns: the sorted columns
of the corpus's feature matrix that hold a nonzero
(`features.used_columns`), not the nominal 21^k or 21*L. A column no
row touches adds nothing to a linear fit, so majority and ridge results
are bit-identical to a nominal-width fit and nb and lr agree up to
rounding; nn draws its init and sizes its default hidden width on the
used columns, so its fit is its own. With RFF each run's projector is
built over the used columns too, with gamma still 1/(nominal width) by
default. The report's feature_dim stays nominal, and feature_columns
gives the used columns.

No run holds its whole test split, nor its train split once the fit
returns. Its one row source, `rows(idx)`, is chosen once: CSR slices of
the corpus matrix, or with RFF their projection (rff.project_rows, which
makes no CSR copy). It gives the train split and, just before it is
scored, each block of test rows; one n_test x C score array is filled
block by block, by one rule (`_score_blocks`). A dense product can round
by its height. On a 2-core host's OpenBLAS the rows of a 1000 x 20 score
product kept their bits from about 50 rows on, but those of 3-column
products differed from a 3000-row product's at heights up to 330 rows
(1000 x 3) or up to 1500 (64 x 3 and 256 x 3); so at few classes a dense
block's scores can differ from a taller block's in their last bits
(within 1e-14 of the largest score), though argmax, and so the report,
rarely moves. scipy's CSR products score each row on its own, so they
give the same bits in any blocking. A NaN score is a numerical failure
(NonFiniteLoss), as when an nn's last step leaves weights whose products
overflow.

Before the first run, `memory_estimate` adds up the peak bytes of a
run from the byte function beside each allocating function. A config
whose estimate exceeds physical memory is an InvalidConfig naming the
knob that lowers it.

Which columns are used is read off every row, test rows included. So
a run's RFF features, like the raw models' width, nn's init and its
default hidden width, depend on which columns hold a nonzero anywhere
in the corpus. That set carries no label and no feature value: no
label or count of a test row reaches a fit. Every model is fitted,
then scored as an n x C matrix; predictions are its row-wise argmax,
with ties going to the smaller class id.
"""

from __future__ import annotations

import json
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict, replace
from functools import partial
from datetime import datetime, timezone
from itertools import repeat
from pathlib import Path
from typing import IO

import numpy as np

from . import linear_models as lm
from . import neural_net as nn
from .config import ExperimentConfig
from .errors import (EmptyMatrix, EmptyTrainingSet, InvalidConfig, IoFailure, NonFiniteLoss,
                     SeqclassError)
from .features import FeaturizedCorpus, _usable_cores, featurize_corpus, used_columns
from .ingest import LabeledSequence, _round_half_up, split_indices
from .metrics import QUALITY, aggregate, confusion, roc_auc_ovr_weighted, summarize
from .rff import (GEMM_BLOCK_BYTES, default_gamma, gemm_rows, new_projector, project_rows,
                  project_rows_bytes, projector_bytes)
from .version import __version__


@contextmanager
def _stage(name: str, seconds: dict[str, float] | None = None):
    """Prefix pipeline errors with the stage that raised them.

    With ``seconds``, the stage's wall time is added to its
    ``<name>_seconds`` key, so a stage entered once per block sums.
    """
    tic = time.perf_counter()
    try:
        yield
    except SeqclassError as exc:
        exc.args = (f"[stage:{name}] {exc}",)
        raise
    finally:
        if seconds is not None:
            seconds[f"{name}_seconds"] += time.perf_counter() - tic


def physical_memory_bytes() -> int | None:
    """Installed memory, or None where the platform does not report it."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None


def memory_estimate(config: ExperimentConfig, class_count: int, matrix) -> tuple[int, str]:
    """Peak bytes of one run on the corpus's CSR ``matrix`` (on its used columns), and the
    knobs that lower them.

    The corpus (`_corpus_bytes`) and, with RFF, the projector are held throughout; beside
    them lies the larger of the train split with its fit, and one score block (the
    tallest of `_score_blocks`) with what scoring it holds and the n_test x C scores.
    """
    corpus_size, columns = matrix.shape
    n_train = _round_half_up(config.train_fraction * corpus_size)
    n_test = corpus_size - n_train
    bounds, longest_row = _score_blocks(config, matrix, n_test)
    block = int(np.diff(bounds).max(initial=0))
    value_bytes, C, D = matrix.data.itemsize, class_count, config.rff_dim
    # raw rows are CSR slices of the corpus, a score block's of at most block x longest_row
    width = D if config.use_rff else columns
    train_nnz = None if config.use_rff else matrix.nnz * n_train // max(corpus_size, 1)
    block_nnz = None if config.use_rff else block * longest_row
    if config.model == "nn":
        fitting = nn.train_bytes(n_train, width, config.nn_hidden_width, config.nn_batch_size)
        scoring = nn.score_bytes(block, width, C, config.nn_hidden_width, block_nnz)
        knob = "--nn-hidden-width"
    else:
        fitting = lm.fit_bytes(config.model, n_train, width, C, train_nnz, matrix.dtype)
        scoring = lm.score_bytes(config.model, block, width, C, block_nnz)
        knob = "--train-fraction" if config.model == "ridge" and n_train <= columns else "--k"
    scoring += 8 * C * n_test  # the n_test x C scores every block writes into
    if not config.use_rff:  # the fit lies beside the CSR train split, scoring beside the
        # block's slice, a value and an int32 index a nonzero; no block without test rows
        train = train_nnz * (value_bytes + 4) + 8 * n_train
        scoring = scoring + block_nnz * (value_bytes + 4) if n_test else 0
        return max(train + fitting, scoring) + _corpus_bytes(matrix), knob

    # the fit lies beside the projected train split, scoring beside the block's projection
    projecting = [project_rows_bytes(rows, columns, D, longest_row, value_bytes)
                  for rows in (n_train, block)]
    fitting = 8 * D * n_train + max(fitting, projecting[0])
    scoring += projecting[1] + 8 * D * block
    knob = "--nn-hidden-width or --rff-dim" if config.model == "nn" else "--rff-dim or --k"
    return int(projector_bytes(columns, D) + max(fitting, scoring) + _corpus_bytes(matrix)), knob


def _corpus_bytes(matrix) -> int:
    """What a run holds throughout: the corpus matrix and its labels, and the split's row
    indices, their labels and the class names it reads (32 bytes a row in all)."""
    return matrix.data.nbytes + matrix.indices.nbytes + matrix.indptr.nbytes + 32 * matrix.shape[0]


def _preflight_memory(config: ExperimentConfig, feature_dim: int, class_count: int,
                      processes: int, matrix) -> None:
    """InvalidConfig (exit 2) before an allocation that physical memory cannot hold.

    ``matrix`` is the corpus's matrix on its used columns, of the nominal ``feature_dim``.
    Each of several processes holds a run; the parent holds its own copy of the corpus.
    """
    per_run, knob = memory_estimate(config, class_count, matrix)
    needed = per_run * processes + (_corpus_bytes(matrix) if processes > 1 else 0)
    available = physical_memory_bytes()
    if available is not None and needed > available:
        raise InvalidConfig(
            f"{config.model}{' with RFF' if config.use_rff else ''} on {matrix.shape[1]} of "
            f"{feature_dim} feature columns and {class_count} classes needs about "
            f"{needed / 2**30:.1f} GiB, "
            f"more than the {available / 2**30:.1f} GiB of physical memory; lower {knob}"
        )


def _fit(config: ExperimentConfig, X_train, y_train, class_count: int, seed: int):
    """Fit the configured model; returns it, the function that scores it, and its diagnostics.

    Every score function maps (model, X) to an n x C matrix whose argmax
    is the prediction. Functions are looked up on their modules at call
    time, so a wrapper installed there is honoured. The diagnostics give
    the model's kind, hyperparameters and training outcome. Only the nn
    reads ``seed``, the run's model seed.
    """
    if config.model == "majority":
        model, scores = lm.majority_fit(y_train, class_count), lm.majority_scores
        diagnostics = {"kind": "majority", "majority_class": model.majority_class,
                       "class_count": model.class_count}
    elif config.model == "nb":
        model, scores = lm.gnb_fit(X_train, y_train, class_count), lm.gnb_scores
        diagnostics = {"kind": "gnb", "class_count": len(model.const), "input_dim": len(model.a)}
    elif config.model == "lr":
        model = lm.logreg_fit(
            X_train, y_train,
            l2_lambda=config.lr_l2_lambda,
            max_iters=config.lr_max_iters,
            tol=config.lr_tol,
            class_count=class_count,
        )
        scores = lm.logreg_proba
        diagnostics = {"kind": "logreg", "l2_lambda": model.l2_lambda, "n_iters": model.n_iters,
                       "converged": model.converged, "grad_norm": model.grad_norm,
                       "final_loss": model.loss_trace[-1]}
    elif config.model == "ridge":
        model = lm.ridge_fit(X_train, y_train, alpha=config.ridge_alpha, class_count=class_count)
        scores = lm.ridge_scores
        diagnostics = {"kind": "ridge", "alpha": model.alpha, "solver": model.solver}
    else:
        model = nn.nn_train(
            X_train, y_train, class_count,
            hidden_width=config.nn_hidden_width,
            batch_size=config.nn_batch_size,
            epochs=config.nn_epochs,
            learning_rate=config.nn_learning_rate,
            seed=seed,
        )
        scores = nn.nn_scores
        diagnostics = {"kind": "nn", "hidden_width": int(model.w1.shape[0]),
                       "epochs": len(model.loss_trace), "final_loss": model.loss_trace[-1]}
    return model, scores, diagnostics


def _peak_rss_mb() -> float | None:
    """This process's peak resident set so far in MiB, as the benchmark reads its
    peak_rss_mb; None where there is no `resource` module."""
    try:
        import resource
    except ImportError:
        return None
    # ru_maxrss counts bytes on macOS and KiB elsewhere
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / (
        2**20 if sys.platform == "darwin" else 2**10)


def _score_blocks(config: ExperimentConfig, matrix, n_test: int) -> tuple[list[int], int]:
    """The first test row of every score block, then n_test; and the most nonzeros a row of
    the corpus's ``matrix`` holds, which sizes CSR blocks.

    Every plan is ceil(n_test / step) blocks whose heights differ by at most one row. Dense
    blocks, RFF projections and raw nn's densified rows, step by rff.gemm_rows of the used
    columns or, with RFF, of the wider of them and D: each block is one projection GEMM,
    whose output is scored. CSR blocks step by GEMM_BLOCK_BYTES over what the longest row
    holds while gnb_scores scores it, whatever the model: its slice, a value and an int32
    index a nonzero, and `lm.csr_score_bytes`. A step is at least one row.
    """
    columns = matrix.shape[1]
    longest_row = int(np.diff(matrix.indptr).max(initial=0))
    if config.use_rff or config.model == "nn":
        step = gemm_rows(max(columns, config.rff_dim) if config.use_rff else columns)
    else:
        row_bytes = longest_row * (matrix.data.itemsize + 4 + lm.csr_score_bytes("nb"))
        step = max(1, GEMM_BLOCK_BYTES // max(row_bytes, 1))
    count = max(1, -(-n_test // step))
    return [i * n_test // count for i in range(count + 1)], longest_row


def _single_run(config: ExperimentConfig, feats: FeaturizedCorpus, run_index: int):
    """One repetition: split, fit on the train rows, then score the test rows in blocks."""
    seeds = {"split": config.split_seed + run_index, "rff": config.rff_seed + run_index,
             "model": config.nn_seed + run_index}
    seconds = dict.fromkeys(["split_seconds", "rff_seconds", "fit_seconds", "metrics_seconds"], 0.0)
    with _stage("split", seconds):
        # by name, so that ClassTooSmall names the class (object dtype: see split_indices)
        names = np.asarray(feats.class_names, dtype=object)[feats.labels]
        train_idx, test_idx = split_indices(feats.matrix.shape[0], config.train_fraction,
                                            seeds["split"], names if config.stratified else None)
        y_train, y_test = feats.labels[train_idx], feats.labels[test_idx]

    # the run's one row source: the corpus's CSR rows, or their projection with RFF
    matrix, stage, take = feats.matrix, "split", feats.matrix.__getitem__
    if config.use_rff:
        with _stage("rff", seconds):
            gamma = default_gamma(feats.dim) if config.rff_gamma is None else config.rff_gamma
            projector = new_projector(matrix.shape[1], config.rff_dim, gamma, seeds["rff"])
        stage, take = "rff", partial(project_rows, projector, matrix)

    def rows(idx):
        with _stage(stage, seconds):
            return take(idx)

    X_train = rows(train_idx)
    class_count = len(feats.class_names)
    with _stage("fit", seconds):
        tic = time.perf_counter()
        model, model_scores, diagnostics = _fit(config, X_train, y_train, class_count,
                                                seeds["model"])
        fit_seconds = time.perf_counter() - tic
    del X_train  # nothing reads the train split after the fit

    # blocks of test rows (module docstring)
    bounds, _ = _score_blocks(config, matrix, len(test_idx))
    scores = np.empty((len(test_idx), class_count))
    for start, stop in zip(bounds, bounds[1:]):
        X_block = rows(test_idx[start:stop])
        with _stage("fit", seconds):
            scores[start:stop] = model_scores(model, X_block)
        del X_block  # freed before the next block is made
    # nb's -inf is a score; NaN is a failed fit, such as overflowed weights
    with _stage("fit", seconds):
        if np.isnan(scores).any():
            raise NonFiniteLoss(f"the {config.model} model scored NaN for a test row")
    predictions = np.argmax(scores, axis=1)

    with _stage("metrics", seconds):
        metrics = summarize(confusion(y_test, predictions, class_count))
        metrics["roc_auc_weighted_ovr"] = roc_auc_ovr_weighted(scores, y_test)
    return {
        "run_index": run_index,
        "seeds": seeds,
        "train_size": int(len(train_idx)),
        "test_size": int(len(test_idx)),
        "metrics": metrics,
        "diagnostics": diagnostics,
        "timing": {"train_runtime_seconds": fit_seconds, **seconds,
                   "peak_rss_mb": _peak_rss_mb()},
    }


def run_experiment(
    config: ExperimentConfig,
    data: list[LabeledSequence],
) -> dict:
    """Execute the full protocol on an in-memory corpus.

    Returns the report, which is also written as report.json and
    report.csv when config.output_dir is set (IoFailure, naming the
    directory, when they cannot be).
    """
    config.validate()
    with _stage("featurize"):
        feats = featurize_corpus(
            data,
            config.encoding,
            k=config.k,
            expected_len=config.expected_len,
            class_level=config.class_level,
            workers=config.workers,
            l2_normalize=config.l2_normalize,
        )
        feats = replace(feats, matrix=used_columns(feats.matrix))
        feature_columns = feats.matrix.shape[1]

    corpus_size = feats.matrix.shape[0]
    n_train = _round_half_up(config.train_fraction * corpus_size)
    with _stage("split"):  # every model's fit needs a train row, and its metrics a test row
        if n_train == 0:
            raise EmptyTrainingSet(f"--train-fraction {config.train_fraction} leaves no train "
                                   f"rows of {corpus_size} sequences; raise it")
        if n_train == corpus_size:
            raise EmptyMatrix(f"--train-fraction {config.train_fraction} leaves no test "
                              f"rows of {corpus_size} sequences; lower it")
    processes = min(config.runs, config.workers, _usable_cores()) if config.parallel_runs else 1
    with _stage("memory"):
        _preflight_memory(config, feats.dim, len(feats.class_names), processes, feats.matrix)
    if processes > 1:
        from concurrent.futures import ProcessPoolExecutor  # loads multiprocessing
        with ProcessPoolExecutor(max_workers=processes) as pool:
            results = list(pool.map(_single_run, repeat(config), repeat(feats), range(config.runs)))
    else:
        results = [_single_run(config, feats, i) for i in range(config.runs)]

    summary = aggregate([r["metrics"] for r in results])
    timing = aggregate([r["timing"] for r in results])
    summary["timing"] = {
        "train_runtime_seconds_mean": timing["mean"]["train_runtime_seconds"],
        "train_runtime_seconds_std": timing["std"]["train_runtime_seconds"],
    }
    report = {
        "format": "seqclass-report/1",
        "tool_version": __version__,
        "config": asdict(config),
        "class_names": feats.class_names,
        "corpus_size": int(corpus_size),
        "feature_dim": int(feats.dim),
        "feature_columns": int(feature_columns),
        "runs": results,
        "aggregate": summary,
        "timing": {"created_utc": datetime.now(timezone.utc).isoformat()},
    }

    if config.output_dir:
        out = Path(config.output_dir)
        try:
            out.mkdir(parents=True, exist_ok=True)
            (out / "report.json").write_text(report_to_json(report), encoding="utf-8")
            with open(out / "report.csv", "w", encoding="utf-8") as f:
                write_report_csv(f, [report])
        except OSError as exc:
            raise IoFailure(f"cannot write the report to {config.output_dir!r}: {exc}") from exc
    return report


def report_to_json(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def strip_timing(obj):
    """Recursive copy with every 'timing' key removed (determinism view)."""
    if isinstance(obj, dict):
        return {k: strip_timing(v) for k, v in obj.items() if k != "timing"}
    if isinstance(obj, list):
        return [strip_timing(v) for v in obj]
    return obj


CSV_COLUMNS = (
    "embedding", "algorithm", "accuracy", "precision", "recall",
    "f1_weighted", "f1_macro", "roc_auc", "train_runtime_sec",
)


def _embedding_name(config: dict) -> str:
    base = config["encoding"]
    return f"{base}+rff" if config.get("use_rff") else base


def report_csv_row(report: dict) -> str:
    """A report's `mean ± std` row in the fixed column layout; KeyError names a missing key."""
    agg = report["aggregate"]
    cells = [
        _embedding_name(report["config"]),
        report["config"]["model"],
    ]
    for key in QUALITY:
        cells.append(f"{agg['mean'][key]:.4f} ± {agg['std'][key]:.4f}")
    cells.append(
        f"{agg['timing']['train_runtime_seconds_mean']:.3f} ± "
        f"{agg['timing']['train_runtime_seconds_std']:.3f}"
    )
    return ",".join(cells) + "\n"


def write_report_csv(handle: IO[str], reports: list[dict]) -> None:
    """The header, then one `report_csv_row` per report."""
    handle.write(",".join(CSV_COLUMNS) + "\n")
    handle.writelines(report_csv_row(report) for report in reports)
