"""Computations made apart from the program, used to check its outputs.

Nothing here imports seqclass: each function restates, from the
documented definition, what the program's output must be. The checks
return a list of problems found; an empty list means the output passed.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np

ALPHABET = "ACDEFGHIKLMNPQRSTVWXY"  # column order documented in seqclass.features


def round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def strip_timing(obj):
    """The report with every 'timing' subtree removed."""
    if isinstance(obj, dict):
        return {k: strip_timing(v) for k, v in obj.items() if k != "timing"}
    if isinstance(obj, list):
        return [strip_timing(v) for v in obj]
    return obj


def read_fasta(path: str) -> tuple[list[str], list[str]]:
    ids, seqs, chunks = [], [], []
    with open(path, "r", encoding="ascii") as f:
        for line in f:
            line = line.strip()
            if line.startswith(">"):
                if chunks:
                    seqs.append("".join(chunks))
                ids.append(line[1:])
                chunks = []
            elif line:
                chunks.append(line)
    seqs.append("".join(chunks))
    return ids, seqs


def read_countries(path: str) -> dict[str, str]:
    with open(path, "r", encoding="ascii") as f:
        next(f)
        return {parts[0]: parts[2] for parts in (line.rstrip("\n").split("\t") for line in f)}


# --- features -------------------------------------------------------------------

def kmer_column(kmer: str) -> int:
    col = 0
    for ch in kmer:
        col = col * len(ALPHABET) + ALPHABET.index(ch)
    return col


def kmer_row(seq: str, k: int) -> dict[int, int]:
    """Plain-Python count of every length-k window, keyed by column."""
    counts = Counter(seq[i : i + k] for i in range(len(seq) - k + 1))
    return {kmer_column(kmer): n for kmer, n in counts.items()}


def ohe_row(seq: str) -> dict[int, int]:
    return {len(ALPHABET) * p + ALPHABET.index(ch): 1 for p, ch in enumerate(seq)}


def check_feature_row(seq: str, encoding: str, k: int, indices, data) -> list[str]:
    expected = kmer_row(seq, k) if encoding == "kmers" else ohe_row(seq)
    got = {int(c): int(v) for c, v in zip(indices, data)}
    if got == expected:
        return []
    missing = sorted(set(expected) - set(got))[:3]
    extra = sorted(set(got) - set(expected))[:3]
    wrong = sorted(c for c in set(got) & set(expected) if got[c] != expected[c])[:3]
    return [f"{encoding} row of a length-{len(seq)} sequence differs: "
            f"missing columns {missing}, extra {extra}, wrong counts at {wrong}"]


# --- random Fourier features ------------------------------------------------------

def rff_rows(weights: np.ndarray, phases: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """sqrt(2/D) * cos(W x + b), one input row at a time."""
    D = weights.shape[0]
    return np.array([math.sqrt(2.0 / D) * np.cos(weights @ x + phases) for x in rows])


def check_rff_rows(weights, phases, inputs, outputs, tol: float = 1e-9) -> list[str]:
    expected = rff_rows(weights, phases, inputs)
    err = float(np.max(np.abs(expected - outputs)))
    return [] if err <= tol else [f"RFF rows differ from sqrt(2/D)cos(Wx+b) by {err:.3g}"]


# --- linear models ---------------------------------------------------------------

def ridge_residual(X, y, class_count: int, alpha: float, weights, bias) -> float:
    """Relative residual of the ridge normal equations with an unpenalised intercept.

    With A = [X, 1] and +/-1 one-vs-rest targets T, the solution w solves
    (A'A + alpha P) w = A'T, where P is the identity without its last entry.
    """
    n, d = X.shape
    targets = np.full((n, class_count), -1.0)
    targets[np.arange(n), y] = 1.0
    w = np.vstack([np.asarray(weights).T, np.asarray(bias)[None, :]])  # (d+1, C)
    fitted = np.asarray(X @ w[:d]) + w[d]
    lhs = np.vstack([np.asarray(X.T @ fitted), fitted.sum(axis=0)[None, :]])
    lhs[:d] += alpha * w[:d]
    rhs = np.vstack([np.asarray(X.T @ targets), targets.sum(axis=0)[None, :]])
    return float(np.linalg.norm(lhs - rhs) / np.linalg.norm(rhs))


def check_nonincreasing(trace) -> list[str]:
    rises = [i for i in range(1, len(trace)) if trace[i] > trace[i - 1]]
    return [] if not rises else [f"loss rose at {len(rises)} steps, first at step {rises[0]}"]


# --- metrics -----------------------------------------------------------------------

def confusion(y_true, y_pred, class_count: int) -> list[list[int]]:
    matrix = [[0] * class_count for _ in range(class_count)]
    for t, p in zip(y_true, y_pred):
        matrix[int(t)][int(p)] += 1
    return matrix


def summary(matrix) -> dict[str, float]:
    """Accuracy, support-weighted P/R/F1 and macro F1; 0 where a denominator is 0."""
    C = len(matrix)
    n = sum(map(sum, matrix))
    weighted = {"precision_weighted": 0.0, "recall_weighted": 0.0, "f1_weighted": 0.0}
    f1_sum = 0.0
    for c in range(C):
        tp = matrix[c][c]
        predicted = sum(matrix[r][c] for r in range(C))
        support = sum(matrix[c])
        p = tp / predicted if predicted else 0.0
        r = tp / support if support else 0.0
        f1 = 2 * p * r / (p + r) if p + r else 0.0
        weighted["precision_weighted"] += support / n * p
        weighted["recall_weighted"] += support / n * r
        weighted["f1_weighted"] += support / n * f1
        f1_sum += f1
    return {"accuracy": sum(matrix[c][c] for c in range(C)) / n, **weighted, "f1_macro": f1_sum / C}


def pairwise_auc(scores, positive) -> float:
    """Share of (positive, negative) pairs ranked correctly; a tie counts one half."""
    pos = scores[positive][:, None]
    neg = scores[~positive][None, :]
    wins = np.count_nonzero(pos > neg) + 0.5 * np.count_nonzero(pos == neg)
    return float(wins / (pos.size * neg.size))


def weighted_ovr_auc(scores, y_true) -> float:
    scores = np.asarray(scores, dtype=np.float64)
    y_true = np.asarray(y_true)
    total, weight = 0.0, 0
    for c in range(scores.shape[1]):
        positive = y_true == c
        n_pos = int(positive.sum())
        if 0 < n_pos < len(y_true):
            total += n_pos * pairwise_auc(scores[:, c], positive)
            weight += n_pos
    return total / weight


def check_metrics(y_true, y_pred, scores, class_count, program_matrix, program_summary,
                  program_auc, tol: float = 1e-12) -> list[str]:
    problems = []
    matrix = confusion(y_true, y_pred, class_count)
    if program_matrix is not None and np.asarray(program_matrix).tolist() != matrix:
        problems.append("confusion matrix differs from a direct count")
    expected = summary(matrix)
    for key, value in expected.items():
        if abs(program_summary[key] - value) > tol:
            problems.append(f"{key} {program_summary[key]!r} != brute force {value!r}")
    auc = weighted_ovr_auc(scores, y_true)
    if abs(program_auc - auc) > tol:
        problems.append(f"weighted OvR AUC {program_auc!r} != pairwise count {auc!r}")
    return problems


# --- information gain ----------------------------------------------------------------

def information_gain(seqs: list[str], classes: list[str]) -> tuple[np.ndarray, float, np.ndarray]:
    """Per-column mutual information I(residue; class) = H(S) + H(C) - H(S, C), in bits.

    Returns (ig per column, H(class), joint counts (L, 21, C) in sorted class order).
    """
    L = len(seqs[0])
    names = sorted(set(classes))
    lookup = {name: i for i, name in enumerate(names)}
    y = np.array([lookup[c] for c in classes])
    C, A = len(names), len(ALPHABET)
    table = np.full(256, -1, dtype=np.int64)
    for i, ch in enumerate(ALPHABET):
        table[ord(ch)] = i
    codes = table[np.frombuffer("".join(seqs).encode("ascii"), dtype=np.uint8)].reshape(len(seqs), L)
    flat = (np.arange(L)[None, :] * A + codes) * C + y[:, None]
    joint = np.bincount(flat.ravel(), minlength=L * A * C).reshape(L, A, C).astype(np.float64)

    def h(counts, axes):
        p = counts / len(seqs)
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = np.where(p > 0, -p * np.log2(np.where(p > 0, p, 1.0)), 0.0)
        return terms.sum(axis=axes)

    h_class = float(h(joint[0].sum(axis=0), 0))
    ig = h(joint.sum(axis=2), 1) + h_class - h(joint, (1, 2))
    return ig, h_class, joint.astype(np.int64)


def check_ig(program_ig: list[float], expected: np.ndarray, h_class: float,
             planted: np.ndarray, tol: float = 1e-9) -> list[str]:
    problems = []
    got = np.asarray(program_ig, dtype=np.float64)
    if got.shape != expected.shape:
        return [f"IG table has {got.size} positions, expected {expected.size}"]
    err = float(np.max(np.abs(got - expected)))
    if err > tol:
        problems.append(f"IG differs from the per-column entropy computation by {err:.3g}")
    if got.min() < 0 or got.max() > h_class + tol:
        problems.append(f"IG outside [0, H(class)={h_class:.6f}]: [{got.min()}, {got.max()}]")
    top = np.sort(np.argsort(-got, kind="stable")[: len(planted)])
    if not np.array_equal(top, np.sort(planted)):
        missed = sorted(set(planted.tolist()) - set(top.tolist()))[:5]
        problems.append(f"planted variant sites not at the top of the IG table, e.g. {missed}")
    return problems
