"""Per-position information gain between residues and the class label.

For every alignment column p, IG_p = H(class) - H(class | residue at p),
with base-2 entropies, so a constant column scores 0 and a column that
determines the class scores the full class entropy. Corpora must be
positionally aligned (equal lengths); an optional seeded subsample caps
the counting cost on large corpora.

`export_histograms` writes the bytes of json's indenting encoder for the
counts without running it on them: json formats only the header, so
class names keep its escaping, and the counts are joined at their fixed
indentation, converted only where a symbol occurs at a position.
"""

from __future__ import annotations

import csv
import json
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import InvalidConfig, IoFailure, NotNormalized, RaggedLengths, SingleClass
from .ingest import AMINO_ACIDS, LabeledSequence, class_ids, encode_residues


def entropy(dist) -> float:
    """Base-2 entropy of a probability vector; 0*log(0) is 0."""
    p = np.asarray(dist, dtype=np.float64)
    if p.size and (p.min() < 0 or abs(p.sum() - 1.0) > 1e-9):
        raise NotNormalized(f"probabilities must be >= 0 and sum to 1, got sum {p.sum()!r}")
    return _entropy_from_counts(p)


def _entropy_from_counts(counts: np.ndarray) -> float:
    """Entropy of counts (or probabilities) after normalizing by their sum."""
    total = counts.sum()
    if total <= 0:
        return 0.0
    p = counts[counts > 0] / total
    return float(-(p * np.log2(p)).sum())


@dataclass
class IgTable:
    """Information gain per position (1-based externally), in bits."""

    ig_bits: np.ndarray  # (L,)
    sequence_length: int
    class_entropy: float
    histograms: np.ndarray  # (L, 21, C) counts the gains were computed from
    class_names: list[str]


def position_histograms(
    data: list[LabeledSequence], class_level: str = "country"
) -> tuple[np.ndarray, list[str]]:
    """Joint counts (L, 21, C) of residue-at-position by class, coded and counted in blocks
    of 21 C rows."""
    if not data:
        raise SingleClass("information gain needs a non-empty corpus")
    L = len(data[0].record.residues)
    ragged = [item.record.id for item in data if len(item.record.residues) != L]
    if ragged:
        shown = ", ".join(ragged[:5])
        raise RaggedLengths(
            f"{len(ragged)} sequences differ from length {L} (e.g. {shown}); align the corpus first"
        )
    y, class_names = class_ids(data, class_level)
    if len(class_names) < 2:
        raise SingleClass("information gain needs at least two distinct classes")
    C = len(class_names)

    A = len(AMINO_ACIDS)
    # counts of the joint index (p*A + code)*C + y, in blocks of A*C rows, each coded just
    # before it is counted: a block's keys are the histogram's size, so no (n, L) code or
    # key array is made, and the integer counts are the same in any order
    hist = np.zeros(L * A * C, dtype=np.int64)
    rows, offsets = A * C, np.arange(L) * A
    for start in range(0, len(data), rows):
        block = data[start : start + rows]
        codes, _ = encode_residues([item.record.id for item in block],
                                   [item.record.residues for item in block])
        keys = codes.reshape(len(block), L).astype(np.int64)
        keys += offsets
        keys *= C
        keys += y[start : start + rows, None]
        hist += np.bincount(keys.ravel(), minlength=L * A * C)
    return hist.reshape(L, A, C), class_names


def information_gain(data: list[LabeledSequence], class_level: str = "country") -> IgTable:
    """IG per position over an aligned corpus; values lie in [0, H(class)]."""
    hist, class_names = position_histograms(data, class_level)
    h_class = _entropy_from_counts(hist[0].sum(axis=0))
    counts = hist.astype(np.float64)
    n_s = counts.sum(axis=2)  # sequences with residue s at position p
    with np.errstate(divide="ignore", invalid="ignore"):
        p = counts / n_s[:, :, None]
        plogp = np.where(counts > 0, p * np.log2(p), 0.0)  # 0 log 0 = 0
    terms = n_s / len(data) * -plogp.sum(axis=2)  # (L, 21): n_s/n * H(class | s)
    # H(class | residue at p), summed one residue at a time, as a scalar loop would
    conditional = np.zeros(hist.shape[0])
    for term in terms.T:
        conditional += term
    ig = np.clip(h_class - conditional, 0.0, h_class)
    return IgTable(ig_bits=ig, sequence_length=hist.shape[0], class_entropy=h_class,
                   histograms=hist, class_names=class_names)


def subsample(data: list[LabeledSequence], size: int, seed: int) -> list[LabeledSequence]:
    """Uniform sample without replacement; the whole corpus if size exceeds it."""
    if size < 1:
        raise InvalidConfig(f"subsample size must be >= 1, got {size}")
    if seed < 0:
        raise InvalidConfig(f"subsample seed must be >= 0, got {seed}")
    if size >= len(data):
        if size > len(data):
            warnings.warn(
                f"subsample size {size} exceeds corpus size {len(data)}; using the whole corpus",
                stacklevel=2,
            )
        return list(data)
    rng = np.random.default_rng(seed)
    idx = np.sort(rng.choice(len(data), size=size, replace=False))
    return [data[i] for i in idx]


def export_ig(table: IgTable, path: str) -> None:
    """CSV with 1-based positions: ``position,information_gain``."""
    try:
        with open(path, "w", newline="", encoding="utf-8") as f:
            writer = csv.writer(f)
            writer.writerow(["position", "information_gain"])
            for position, value in enumerate(table.ig_bits.tolist(), start=1):
                writer.writerow([position, f"{value:.10g}"])
    except OSError as exc:
        raise IoFailure(f"cannot write IG table {path!r}: {exc}") from exc


def export_histograms(path: str, hist: np.ndarray, class_names: list[str]) -> None:
    """JSON with per-position per-symbol class counts, for plotting.

    The bytes are ``json.dumps(payload, indent=2) + "\n"`` of
    {format, class_names, alphabet, positions: [{position,
    symbol_class_counts: {symbol: counts by class}}]}, where a symbol is
    listed at the positions where it occurs (module docstring).
    """
    header = json.dumps({"format": "seqclass-ig-hist/1", "class_names": class_names,
                         "alphabet": AMINO_ACIDS, "positions": []}, indent=2)
    present = hist.any(axis=2)  # (L, 21): the symbols that occur at each position
    leaves = iter(hist[present].tolist())
    keys = [json.dumps(symbol) for symbol in AMINO_ACIDS]
    positions = []
    for p, symbols in enumerate(present.tolist()):
        counts = ",\n        ".join(
            f"{keys[s]}: [\n          " + ",\n          ".join(map(str, next(leaves))) + "\n        ]"
            for s, occurs in enumerate(symbols) if occurs
        )
        counts = "{\n        " + counts + "\n      }" if counts else "{}"
        positions.append(f'    {{\n      "position": {p + 1},\n'
                         f'      "symbol_class_counts": {counts}\n    }}')
    if positions:  # the header ends in '"positions": []\n}'
        header = header[: -len("[]\n}")] + "[\n" + ",\n".join(positions) + "\n  ]\n}"
    try:
        Path(path).write_text(header + "\n", encoding="utf-8")
    except OSError as exc:
        raise IoFailure(f"cannot write histograms {path!r}: {exc}") from exc
