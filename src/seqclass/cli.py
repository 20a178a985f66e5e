"""Command-line front end.

Subcommands: ingest (FASTA + metadata TSV -> corpus), featurize (corpus
-> SQFV1 feature container + labels sidecar), run (full multi-run
experiment -> JSON/CSV report), ig (per-position information gain ->
CSV), report (merge aggregate JSONs into one comparison CSV).

Exit codes: 0 success, 2 configuration error, 3 data error,
4 numerical failure.
"""

from __future__ import annotations

import argparse
import sys

from .config import ENCODINGS, ExperimentConfig, config_from_mapping, parse_config_file
from .errors import ConfigError, DataError, IoFailure, NumericalError
from .ingest import (CLASS_LEVELS, LabeledSequence, join_metadata, load_corpus, parse_fasta,
                     read_metadata_tsv, save_corpus)
from .version import __version__

# features, infogain and pipeline import scipy, so each command imports what it
# uses: `seqclass ingest` loads neither them nor scipy.


def _read_text(path: str, parse):
    """``parse`` applied to a UTF-8 text file less any BOM; IoFailure names one not UTF-8."""
    try:
        with open(path, "r", encoding="utf-8-sig") as f:
            return parse(f)
    except UnicodeDecodeError as exc:
        raise IoFailure(f"{path!r} is not UTF-8 text: {exc}") from exc


def _read_inputs(fasta: str, metadata: str) -> list[LabeledSequence]:
    """Parse a FASTA file and join it with its metadata TSV."""
    return join_metadata(_read_text(fasta, parse_fasta), _read_text(metadata, read_metadata_tsv))


def _cmd_ingest(args) -> int:
    corpus = _read_inputs(args.fasta, args.metadata)
    save_corpus(args.out, corpus)
    print(f"wrote {len(corpus)} sequences to {args.out}")
    return 0


def _cmd_featurize(args) -> int:
    from .features import export_features_csv, featurize_corpus, save_features, save_labels

    data = load_corpus(args.corpus)
    feats = featurize_corpus(
        data,
        args.encoding,
        k=args.k,
        expected_len=args.expected_len,
        class_level=args.class_level,
        workers=args.workers,
        l2_normalize=args.l2_normalize,
    )
    save_features(args.out_features, feats.matrix, feats.encoding)
    save_labels(args.out_labels, feats.labels, feats.class_names, feats.encoding, feats.dim)
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as f:
            export_features_csv(f, feats.matrix)
    print(
        f"featurized {feats.matrix.shape[0]} sequences: dim={feats.dim}, "
        f"nnz={feats.matrix.nnz}, classes={len(feats.class_names)}"
    )
    return 0


def _cmd_run(args) -> int:
    from .pipeline import _embedding_name, run_experiment

    mapping: dict[str, str] = {}
    if args.config:
        mapping.update(parse_config_file(args.config))
    for key in ExperimentConfig.__dataclass_fields__:
        value = getattr(args, f"cfg_{key}", None)
        if value is not None:
            mapping[key] = value
    config = config_from_mapping(mapping)

    if config.corpus:
        data = load_corpus(config.corpus)
    elif config.fasta and config.metadata:
        data = _read_inputs(config.fasta, config.metadata)
    else:
        raise ConfigError("run needs either corpus=... or fasta=...+metadata=...")

    report = run_experiment(config, data)
    agg = report["aggregate"]
    print(
        f"{config.model} ({_embedding_name(report['config'])}) over {agg['run_count']} runs: "
        f"accuracy {agg['mean']['accuracy']:.4f} ± {agg['std']['accuracy']:.4f}, "
        f"F1w {agg['mean']['f1_weighted']:.4f}, F1m {agg['mean']['f1_macro']:.4f}, "
        f"ROC-AUC {agg['mean']['roc_auc_weighted_ovr']:.4f}"
    )
    if config.output_dir:
        print(f"artifacts in {config.output_dir}")
    return 0


def _cmd_ig(args) -> int:
    from .infogain import export_histograms, export_ig, information_gain, subsample

    data = load_corpus(args.corpus)
    if args.subsample is not None:
        data = subsample(data, args.subsample, args.seed)
    table = information_gain(data, class_level=args.class_level)
    export_ig(table, args.out)
    if args.histograms:
        export_histograms(args.histograms, table.histograms, table.class_names)
    print(
        f"information gain over {table.sequence_length} positions "
        f"(class entropy {table.class_entropy:.4f} bits) -> {args.out}"
    )
    return 0


def _cmd_report(args) -> int:
    import json

    from .pipeline import report_csv_row, write_report_csv

    reports = []
    for path in args.reports:
        try:
            report = _read_text(path, json.load)
        except json.JSONDecodeError as exc:
            raise IoFailure(f"report {path!r} is not JSON: {exc}") from exc
        if not isinstance(report, dict) or report.get("format") != "seqclass-report/1":
            raise IoFailure(f"{path!r} is not a seqclass-report/1 report")
        try:  # its row, so that a missing key is named before the output is opened
            report_csv_row(report)
        except KeyError as exc:
            raise IoFailure(f"report {path!r} lacks the key {exc.args[0]!r}") from exc
        except (TypeError, ValueError) as exc:  # a field of the wrong kind
            raise IoFailure(f"report {path!r} has a malformed field: {exc}") from exc
        reports.append(report)
    with open(args.out, "w", encoding="utf-8") as f:
        write_report_csv(f, reports)
    print(f"merged {len(reports)} reports into {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seqclass",
        description="Classify amino-acid sequences by categorical labels "
        "using alignment-free features.",
    )
    parser.add_argument("--version", action="version", version=f"seqclass {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="parse FASTA, join metadata TSV, write a corpus file")
    p.add_argument("--fasta", required=True)
    p.add_argument("--metadata", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("featurize", help="corpus -> feature container + labels sidecar")
    p.add_argument("--corpus", required=True)
    p.add_argument("--encoding", choices=ENCODINGS, default="kmers")
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--expected-len", type=int, default=None, dest="expected_len")
    p.add_argument("--class-level", choices=CLASS_LEVELS, default="country", dest="class_level")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--l2-normalize", action="store_true", dest="l2_normalize")
    p.add_argument("--out-features", required=True, dest="out_features")
    p.add_argument("--out-labels", required=True, dest="out_labels")
    p.add_argument("--csv", default=None, help="also export COO triplets as CSV")
    p.set_defaults(func=_cmd_featurize)

    p = sub.add_parser("run", help="execute the multi-run train/evaluate protocol")
    p.add_argument("--config", default=None, help="flat key=value config file")
    for key in ExperimentConfig.__dataclass_fields__:
        p.add_argument(f"--{key.replace('_', '-')}", default=None, dest=f"cfg_{key}",
                       help=f"override config key {key}")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("ig", help="per-position information gain -> CSV")
    p.add_argument("--corpus", required=True)
    p.add_argument("--class-level", choices=CLASS_LEVELS, default="country", dest="class_level")
    p.add_argument("--subsample", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--histograms", default=None, help="also write per-position histograms JSON")
    p.set_defaults(func=_cmd_ig)

    p = sub.add_parser("report", help="merge aggregate report JSONs into one CSV table")
    p.add_argument("reports", nargs="+")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
