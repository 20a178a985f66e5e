"""Traced in-process run of one seqclass CLI command, and per-layer metrics.

Run as a script, it installs timing wrappers around the public functions
of each seqclass module, calls ``seqclass.cli.main`` in this process,
then checks the values it captured against ``oracles`` and writes spans,
captures' verdicts and timings to one JSON file:

    python3 benchmarks/tracer.py --out spans.json --sample-seed 1 -- run --corpus c.sqc ...

A wrapper replaces the function wherever a caller looks it up: in its
own module (``information_gain`` reaches ``position_histograms``, and
``logreg_fit`` reaches ``logreg_loss_grad``, through module globals) and
in every seqclass module that imported it by name (``pipeline`` and
``cli`` do). Spans stay in memory until the command returns.

The process also times a wrapped no-op against a plain one, so the
tracing overhead of a command is its span count times that cost: a
figure that host noise, unlike traced minus untraced wall time, does
not swamp.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
import oracles  # noqa: E402

# Functions called once per sequence (validate_residues, label_for_level, ...)
# are left out: wrapping them would cost more than the work they do.
TRACED = {
    "cli": ["main"],
    "ingest": ["parse_fasta", "read_metadata_tsv", "join_metadata", "save_corpus",
               "load_corpus", "split_indices"],
    "features": ["featurize_corpus", "kmer_matrix", "ohe_matrix"],
    "rff": ["new_projector", "project"],
    "linear_models": ["majority_fit", "majority_scores", "gnb_fit", "gnb_scores", "logreg_fit",
                      "logreg_loss_grad", "logreg_proba", "ridge_fit", "ridge_scores"],
    "neural_net": ["nn_train", "nn_loss_and_grads", "adam_step", "nn_scores"],
    "metrics": ["confusion", "summarize", "roc_auc_ovr_weighted", "aggregate"],
    "infogain": ["information_gain", "position_histograms", "export_ig", "export_histograms"],
    "pipeline": ["run_experiment"],  # report writing stays in run_experiment's self time
}

FIT = ("linear_models.majority_fit", "linear_models.gnb_fit", "linear_models.logreg_fit",
       "linear_models.ridge_fit")
SCORE = ("linear_models.majority_scores", "linear_models.gnb_scores",
         "linear_models.logreg_proba", "linear_models.ridge_scores")
EVAL = ("metrics.confusion", "metrics.summarize", "metrics.roc_auc_ovr_weighted",
        "metrics.aggregate")

# name -> (unit, better); the order is the order of BENCHMARK.json's per_layer list
PER_LAYER = {
    "ingest.parse_fasta_s": ("s", "lower"),
    "ingest.load_corpus_s": ("s", "lower"),
    "ingest.split_s": ("s", "lower"),
    "features.featurize_s": ("s", "lower"),
    "features.rows_per_s": ("1/s", "higher"),
    "features.rss_rise_mb": ("MB", "lower"),
    "rff.build_s": ("s", "lower"),
    "rff.project_s": ("s", "lower"),
    "rff.project_gflop_per_s": ("GFLOP/s", "higher"),
    "linear_models.fit_s": ("s", "lower"),
    "linear_models.score_s": ("s", "lower"),
    "linear_models.rss_rise_mb": ("MB", "lower"),
    "linear_models.lr_loss_grad_calls": ("count", "lower"),
    "linear_models.lr_accepted_ratio": ("ratio", "higher"),
    "neural_net.train_s": ("s", "lower"),
    "neural_net.step_ms": ("ms", "lower"),
    "neural_net.score_s": ("s", "lower"),
    "infogain.ig_s": ("s", "lower"),
    "infogain.histograms_s": ("s", "lower"),
    "infogain.histogram_passes": ("count", "lower"),
    "infogain.export_s": ("s", "lower"),
    "metrics.eval_s": ("s", "lower"),
    "pipeline.run_experiment_s": ("s", "lower"),
    "pipeline.self_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}

SAMPLE_ROWS = 8
CALIBRATION_CALLS = 20_000
CALIBRATION_BATCHES = 5


def _peak_kb() -> int:
    """Peak resident set of this process and of every child it has reaped."""
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)


class Tracer:
    """Spans as [name, start, end, parent, peak_kb_before, peak_kb_after, extra]."""

    def __init__(self, sample_seed: int):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.rng = np.random.default_rng(sample_seed)
        self.features = None  # (data, feats, mode, k) of the first featurize call
        self.rff = None  # (projector, sampled inputs, sampled outputs) of the first project call
        self.ridge: list[tuple] = []
        self.loss_traces: list[list[float]] = []
        self.metric_calls: list[tuple[str, tuple, object]] = []

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"seqclass.{layer}") for layer in TRACED}
        loaded = [m for name, m in sys.modules.items() if name.startswith("seqclass") and m]
        for layer, names in TRACED.items():
            for fname in names:
                original = getattr(modules[layer], fname)
                wrapper = self._wrap(f"{layer}.{fname}", original)
                for module in loaded:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)

    def _wrap(self, name: str, fn):
        hook = getattr(self, "_after_" + name.replace(".", "_"), None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self.stack[-1] if self.stack else -1
            span = [name, 0.0, 0.0, parent, _peak_kb(), 0, None]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                span[5] = _peak_kb()
                self.stack.pop()
            if hook is not None:
                hook(span, args, kwargs, result)
            return result

        return traced

    # --- captures, kept cheap: references and a few copied rows ---

    def _after_features_featurize_corpus(self, span, args, kwargs, feats):
        span[6] = {"rows": int(feats.matrix.shape[0])}
        if self.features is None:
            self.features = (args[0], feats, args[1], kwargs.get("k", 3))

    def _after_rff_project(self, span, args, kwargs, out):
        projector, x = args
        nnz = x.nnz if hasattr(x, "nnz") else int(np.count_nonzero(x))
        span[6] = {"flop": 2.0 * nnz * projector.output_dim}
        if self.rff is None:
            rows = np.sort(self.rng.choice(x.shape[0], size=min(SAMPLE_ROWS, x.shape[0]), replace=False))
            dense = x[rows].toarray() if hasattr(x, "toarray") else np.asarray(x)[rows]
            self.rff = (projector, dense.astype(np.float64), np.array(out[rows]))

    def _after_linear_models_ridge_fit(self, span, args, kwargs, model):
        self.ridge.append((args[0], args[1], kwargs.get("class_count"), model))

    def _after_linear_models_logreg_fit(self, span, args, kwargs, model):
        span[6] = {"accepted": len(model.loss_trace) - 1}
        self.loss_traces.append(model.loss_trace)

    def _after_metrics_call(self, span, args, kwargs, result):
        self.metric_calls.append((span[0], args, result))

    _after_metrics_confusion = _after_metrics_call
    _after_metrics_summarize = _after_metrics_call
    _after_metrics_roc_auc_ovr_weighted = _after_metrics_call

    # --- checks against the oracles, after the command returned ---

    def checks(self, new_projector) -> dict[str, list[str]]:
        found: dict[str, list[str]] = {}
        if self.features is not None:
            data, feats, mode, k = self.features
            lengths = np.array([len(item.record.residues) for item in data])
            odd = np.flatnonzero(lengths != lengths[0])[:SAMPLE_ROWS]
            rows = np.union1d(self.rng.choice(len(data), size=min(SAMPLE_ROWS, len(data)),
                                              replace=False), odd)
            problems = []
            for i in rows:
                row = feats.matrix.getrow(int(i))
                problems += oracles.check_feature_row(data[i].record.residues, mode, k,
                                                      row.indices, row.data)
            found[f"{mode} rows vs plain-Python count ({len(rows)} rows)"] = problems
        if self.rff is not None:
            projector, inputs, outputs = self.rff
            again = new_projector(projector.input_dim, projector.output_dim, projector.gamma,
                                  projector.seed)
            same = (np.array_equal(again.weights, projector.weights)
                    and np.array_equal(again.phases, projector.phases))
            found["RFF rebuilds identically from (d, D, gamma, seed)"] = (
                [] if same else ["a rebuilt projector has other weights or phases"])
            found["RFF rows equal sqrt(2/D)cos(Wx+b)"] = oracles.check_rff_rows(
                projector.weights, projector.phases, inputs, outputs)
        for X, y, class_count, model in self.ridge:
            residual = oracles.ridge_residual(X, y, class_count, model.alpha, model.weights,
                                              model.bias)
            found[f"ridge normal equations (relative residual {residual:.2g})"] = (
                [] if residual < 1e-6 else [f"relative residual {residual:.3g} >= 1e-6"])
        for trace in self.loss_traces:
            found[f"lr loss trace of {len(trace)} losses never increases"] = (
                oracles.check_nonincreasing(trace))
        # pipeline calls confusion, summarize, roc_auc_ovr_weighted once per repetition
        calls = self.metric_calls
        for i in range(0, len(calls) - 2, 3):
            (_, (y_true, y_pred, C), matrix), (_, _, summary), (_, (scores, _), auc) = calls[i:i + 3]
            found[f"metrics of repetition {i // 3} vs brute force"] = oracles.check_metrics(
                y_true, y_pred, scores, C, matrix, summary, auc)
        return found


def wrapper_cost_s() -> float:
    """Median extra seconds per call that a wrapper adds to a no-op function."""
    def noop():
        return None

    wrapped = Tracer(0)._wrap("calibration", noop)
    extra = []
    for _ in range(CALIBRATION_BATCHES):
        batch = []
        for fn in (noop, wrapped):
            tic = time.perf_counter()
            for _ in range(CALIBRATION_CALLS):
                fn()
            batch.append(time.perf_counter() - tic)
        extra.append((batch[1] - batch[0]) / CALIBRATION_CALLS)
    return statistics.median(extra)


def layer_metrics(payloads: list[dict]) -> dict[str, float]:
    """Per-layer figures of one round's traced commands; 0 where a layer did no work."""
    traces = [p["spans"] for p in payloads]
    spans = [s for trace in traces for s in trace]

    def of(*names):
        return [s for s in spans if s["name"] in names]

    def seconds(*names):
        return sum(s["end"] - s["start"] for s in of(*names))

    def rss_rise_mb(*names):
        return sum(s["peak_kb_after"] - s["peak_kb_before"] for s in of(*names)) / 1024.0

    def rate(numerator, denominator):
        return numerator / denominator if denominator > 0 else 0.0

    def child_seconds(parent_name):
        total = 0.0
        for trace in traces:
            parents = {s["id"] for s in trace if s["name"] == parent_name}
            total += sum(s["end"] - s["start"] for s in trace if s["parent"] in parents)
        return total

    featurize = seconds("features.featurize_corpus")
    project = seconds("rff.project")
    loss_grad_calls = len(of("linear_models.logreg_loss_grad"))
    train = seconds("neural_net.nn_train")
    experiment = seconds("pipeline.run_experiment")
    return {
        "ingest.parse_fasta_s": seconds("ingest.parse_fasta"),
        "ingest.load_corpus_s": seconds("ingest.load_corpus"),
        "ingest.split_s": seconds("ingest.split_indices"),
        "features.featurize_s": featurize,
        "features.rows_per_s": rate(sum(s["extra"]["rows"] for s in of("features.featurize_corpus")),
                                    featurize),
        "features.rss_rise_mb": rss_rise_mb("features.featurize_corpus"),
        "rff.build_s": seconds("rff.new_projector"),
        "rff.project_s": project,
        "rff.project_gflop_per_s": rate(sum(s["extra"]["flop"] for s in of("rff.project")) / 1e9,
                                        project),
        "linear_models.fit_s": seconds(*FIT),
        "linear_models.score_s": seconds(*SCORE),
        "linear_models.rss_rise_mb": rss_rise_mb(*FIT, *SCORE),
        "linear_models.lr_loss_grad_calls": float(loss_grad_calls),
        "linear_models.lr_accepted_ratio": rate(
            sum(s["extra"]["accepted"] for s in of("linear_models.logreg_fit")), loss_grad_calls),
        "neural_net.train_s": train,
        "neural_net.step_ms": rate(1000.0 * train, len(of("neural_net.adam_step"))),
        "neural_net.score_s": seconds("neural_net.nn_scores"),
        "infogain.ig_s": seconds("infogain.information_gain"),
        "infogain.histograms_s": seconds("infogain.position_histograms"),
        "infogain.histogram_passes": float(len(of("infogain.position_histograms"))),
        "infogain.export_s": seconds("infogain.export_ig", "infogain.export_histograms"),
        "metrics.eval_s": seconds(*EVAL),
        "pipeline.run_experiment_s": experiment,
        "pipeline.self_s": experiment - child_seconds("pipeline.run_experiment"),
        "trace.overhead_s": sum(len(p["spans"]) * p["wrapper_s"] for p in payloads),
    }


def median_metrics(rounds: list[dict[str, float]]) -> dict[str, float]:
    return {name: statistics.median(r[name] for r in rounds) for name in rounds[0]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--sample-seed", type=int, required=True)
    parser.add_argument("command", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    command = args.command[1:] if args.command[:1] == ["--"] else args.command

    from seqclass import cli, rff

    wrapper_s = wrapper_cost_s()
    new_projector = rff.new_projector
    tracer = Tracer(args.sample_seed)
    tracer.install()
    tic = time.perf_counter()
    rc = cli.main(command)
    found = tracer.checks(new_projector) if rc == 0 else {}
    spans = [
        {"id": i, "name": s[0], "start": s[1] - tic, "end": s[2] - tic, "parent": s[3],
         "peak_kb_before": s[4], "peak_kb_after": s[5], "extra": s[6]}
        for i, s in enumerate(tracer.spans)
    ]
    payload = {"rc": rc, "checks": found, "spans": spans, "wrapper_s": wrapper_s}
    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(payload, f)
    return rc


if __name__ == "__main__":
    sys.exit(main())
