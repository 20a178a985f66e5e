"""Experiment orchestration: ingest -> featurize -> (RFF) -> fit -> evaluate.

An experiment repeats `runs` independent repetitions. Repetition i
derives every seed by adding i to the configured base (split, RFF
projector, model init), resamples the train/test split, fits the chosen
model on the train rows and scores the test rows. Per-run metrics plus
their mean and population std land in a JSON report whose bytes are
reproducible: everything time-derived lives under "timing" keys, which
`strip_timing` removes for byte-level comparison. Wall-clock runtime is
measured around fit() only.

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

No run holds its whole test split: one n_test x C score array is filled
block by block, each block's rows taken from the corpus matrix by test
index or, with RFF, projected from it just before they are scored
(rff.project_rows, rff.project's GEMM loop, which makes no CSR copy of the
rows; the train split is projected the same way). A dense block, of D
columns with RFF or of the used columns raw nn densifies, is
rff.gemm_rows of its width, as every dense block is; a CSR block is
rff.GEMM_BLOCK_BYTES over about 12 bytes a nonzero. Each row is scored
on its own, so scipy's CSR products give the same bits in any blocking;
a dense GEMM can round by its height, so a remainder shorter than a
block joins the last one. A NaN score is a numerical failure
(NonFiniteLoss), as when an nn's last step leaves weights whose
products overflow.

Before the first run, the peak bytes of the RFF weights, the
projected train split, one projection block and one score block (with
their CSR copies on scipy's route), the model's C x used-columns arrays
(nn: hidden x used-columns, beside one dense batch or score block) and
ridge's dense Gram matrix are estimated; a config whose estimate
exceeds physical memory is an InvalidConfig naming the knob that lowers
it.

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
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import asdict, replace
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
from .rff import GEMM_BLOCK_BYTES, default_gamma, gemm_rows, new_projector, project_rows, uses_gemm
from .version import __version__

# float64 C x used-columns arrays that fit and scoring hold at once, read
# off linear_models: gnb_fit holds means, variances and the score terms a
# and b at once, and the model keeps a and b; logreg_fit holds the
# LBFGS_MEMORY (s, y) pairs, its parameters, gradient and direction, and
# two transients: a candidate and its squared weights, X'delta and lambda W,
# or the new gradient and y (tracemalloc: 15.0 at LBFGS_MEMORY = 5)
_MODEL_PEAK_ARRAYS = {"nb": 4, "lr": 2 * lm.LBFGS_MEMORY + 5}
# float64 h x used-columns arrays that nn_train holds at once: w1, Adam's m
# and v, and one step's gradient of w1 (adam_step works in block-sized scratch)
_NN_PEAK_ARRAYS = 4
# float64 Gram-sized arrays of ridge's direct solve beside one block of
# linear_models._gram: the Gram matrix and one block's product, or the copy
# numpy's solve takes (tracemalloc: 2.0 beside the block and the targets)
_RIDGE_GRAM_ARRAYS = 2


@contextmanager
def _stage(name: str):
    """Prefix pipeline errors with the stage that raised them."""
    try:
        yield
    except SeqclassError as exc:
        exc.args = (f"[stage:{name}] {exc}",)
        raise


def physical_memory_bytes() -> int | None:
    """Installed memory, or None where the platform does not report it."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None


def memory_estimate(config: ExperimentConfig, feature_dim: int, class_count: int,
                    feature_columns: int | None = None, corpus_size: int = 0,
                    corpus_nnz: int = 0) -> tuple[int, str]:
    """Peak bytes of one run's RFF weights and model arrays, and the knobs that lower them.

    ``feature_columns`` is the number of used columns (default: the
    nominal ``feature_dim``): those the raw-feature models fit in, and so
    the nn's default hidden width, and those the RFF weights are drawn for.
    ``corpus_size`` gives the train rows of ridge's direct solve, of RFF's
    projected train split and of nn's batches, and the test rows that set
    the largest score block; ``corpus_nnz``, the feature matrix's
    nonzeros, gives the density that picks the route (rff.uses_gemm), the
    CSR copies that scipy's route makes of the train split and a block, and
    the train split's share that ridge's dual copies as X'.
    Raw nn densifies each batch and score block; another raw-feature score
    block, a few CSR copies of GEMM_BLOCK_BYTES, is not counted.
    """
    columns = feature_dim if feature_columns is None else feature_columns
    model_columns = config.rff_dim if config.use_rff else columns
    n_train = _round_half_up(config.train_fraction * corpus_size)
    n_test = corpus_size - n_train
    rows = _score_block_rows(config, corpus_size, columns, corpus_nnz)
    block = min(n_test, rows + n_test % rows)  # the largest block of test rows
    if config.model == "nn":
        hidden = model_columns if config.nn_hidden_width is None else config.nn_hidden_width
        # the fit's arrays beside one dense batch, or w1 beside one dense raw score block
        batch = min(config.nn_batch_size, n_train)
        needed = (_NN_PEAK_ARRAYS * hidden + batch) * model_columns * 8
        if not config.use_rff:
            needed = max(needed, (hidden + block) * columns * 8)
        knob = "--nn-hidden-width"
    elif config.model == "ridge":
        # the direct solve's min(n, columns + 1)^2 arrays, one block, the n x C
        # targets and the dual's X' of a CSR X; CG holds none of these
        side = min(n_train, model_columns + 1)
        needed = 0
        if 0 < side <= lm.RIDGE_DENSE_LIMIT:
            needed = (_RIDGE_GRAM_ARRAYS * side * side * 8 + GEMM_BLOCK_BYTES
                      + 8 * n_train * class_count)
            if n_train <= model_columns and not config.use_rff:
                needed += 12 * (corpus_nnz * n_train // corpus_size)
        knob = "--train-fraction" if n_train <= model_columns else "--k"
    else:
        needed = _MODEL_PEAK_ARRAYS.get(config.model, 0) * class_count * model_columns * 8
        knob = "--k"
    if config.use_rff:
        # The D x used-columns weights and the dense n_train x D train split are held
        # throughout. Beside them lies the largest of: the model's arrays in the fit;
        # what rff.project_rows holds beside the train split it projects; or that with
        # the largest block of test rows and its projection, which gnb_scores squares
        # beside a, b and their two dense copies. rff.uses_gemm picks the route from the
        # corpus's density on its used columns. The GEMM route holds its gather buffer
        # and, for rows beyond one GEMM, one GEMM's projection; scipy's route holds 2 CSR
        # copies of the rows (the rows taken and project's float64 copy of their data,
        # 12 bytes a nonzero at most).
        gemm = uses_gemm(corpus_nnz, corpus_size, columns)
        step = gemm_rows(columns)  # rows of one GEMM

        def beside(rows):
            if not gemm:
                return rows * 24 * corpus_nnz / max(corpus_size, 1)
            return GEMM_BLOCK_BYTES + (8 * config.rff_dim * step if rows > step else 0)

        scoring = beside(block) + 8 * config.rff_dim * block
        if config.model == "nb":
            scoring += 8 * config.rff_dim * block + needed
        peak = max(needed, beside(n_train), scoring)
        held = 8 * config.rff_dim * (columns + n_train)
        rff_knob = "--nn-hidden-width or --rff-dim" if config.model == "nn" else "--rff-dim or --k"
        return int(held + peak), rff_knob
    return needed, knob


def _preflight_memory(config: ExperimentConfig, feature_dim: int, class_count: int,
                      processes: int, feature_columns: int | None = None,
                      corpus_size: int = 0, corpus_nnz: int = 0) -> None:
    """InvalidConfig (exit 2) before an allocation that physical memory cannot hold."""
    per_run, knob = memory_estimate(config, feature_dim, class_count, feature_columns,
                                    corpus_size, corpus_nnz)
    needed = per_run * processes
    available = physical_memory_bytes()
    if available is not None and needed > available:
        used = feature_dim if feature_columns is None else feature_columns
        raise InvalidConfig(
            f"{config.model}{' with RFF' if config.use_rff else ''} on {used} of {feature_dim} "
            f"feature columns and {class_count} classes needs about {needed / 2**30:.1f} GiB, "
            f"more than the {available / 2**30:.1f} GiB of physical memory; lower {knob}"
        )


def _run_seeds(config: ExperimentConfig, run_index: int) -> dict[str, int]:
    return {
        "split": config.split_seed + run_index,
        "rff": config.rff_seed + run_index,
        "model": config.nn_seed + run_index,
    }


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


def _score_block_rows(config: ExperimentConfig, corpus_size: int, columns: int,
                      corpus_nnz: int) -> int:
    """Test rows scored at once: GEMM_BLOCK_BYTES over what one row costs while it is scored.

    A dense block, of D projected columns with RFF or of the used columns
    that raw nn densifies, is `rff.gemm_rows` of its width, as every dense
    block is. A CSR row costs about 12 bytes (a float64 value and an int32
    index) for each of its nonzeros.
    """
    if config.use_rff or config.model == "nn":
        return gemm_rows(config.rff_dim if config.use_rff else columns)
    return max(1, int(GEMM_BLOCK_BYTES // max(12 * corpus_nnz / max(corpus_size, 1), 1)))


def _single_run(config: ExperimentConfig, feats: FeaturizedCorpus, run_index: int):
    """One repetition: split, optional projection, fit, then scoring in blocks of test rows."""
    seeds = _run_seeds(config, run_index)
    with _stage("split"):
        # by name, so that ClassTooSmall names the class (object dtype: see split_indices)
        names = np.asarray(feats.class_names, dtype=object)[feats.labels]
        train_idx, test_idx = split_indices(feats.matrix.shape[0], config.train_fraction,
                                            seeds["split"], names if config.stratified else None)

    y_train = feats.labels[train_idx]
    y_test = feats.labels[test_idx]

    projector = None
    if config.use_rff:
        with _stage("rff"):
            gamma = default_gamma(feats.dim) if config.rff_gamma is None else config.rff_gamma
            projector = new_projector(feats.matrix.shape[1], config.rff_dim, gamma, seeds["rff"])
            X_train = project_rows(projector, feats.matrix, train_idx)
    else:
        X_train = feats.matrix[train_idx]

    class_count = len(feats.class_names)
    with _stage("fit"):
        tic = time.perf_counter()
        model, model_scores, diagnostics = _fit(config, X_train, y_train, class_count,
                                                seeds["model"])
        fit_seconds = time.perf_counter() - tic

    # blocks of test rows, the last one taking a shorter remainder (module docstring)
    rows = _score_block_rows(config, *feats.matrix.shape, feats.matrix.nnz)
    starts = range(0, max(len(test_idx) - rows, 0) + 1, rows)
    scores = np.empty((len(test_idx), class_count))
    for start, stop in zip(starts, [*starts[1:], len(test_idx)]):
        if projector is None:
            X_block = feats.matrix[test_idx[start:stop]]
        else:
            with _stage("rff"):
                X_block = project_rows(projector, feats.matrix, test_idx[start:stop])
        with _stage("fit"):
            scores[start:stop] = model_scores(model, X_block)
        del X_block  # freed before the next block is made
    with _stage("fit"):  # nb's -inf is a score; NaN is a failed fit, such as overflowed weights
        if np.isnan(scores).any():
            raise NonFiniteLoss(f"the {config.model} model scored NaN for a test row")
    predictions = np.argmax(scores, axis=1)

    with _stage("metrics"):
        metrics = summarize(confusion(y_test, predictions, class_count))
        metrics["roc_auc_weighted_ovr"] = roc_auc_ovr_weighted(scores, y_test)
    return {
        "run_index": run_index,
        "seeds": seeds,
        "train_size": int(len(train_idx)),
        "test_size": int(len(test_idx)),
        "metrics": metrics,
        "diagnostics": diagnostics,
        "timing": {"train_runtime_seconds": fit_seconds},
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
        _preflight_memory(config, feats.dim, len(feats.class_names), processes,
                          feature_columns, corpus_size, feats.matrix.nnz)
    if processes > 1:
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
