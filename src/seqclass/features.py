"""k-mer count vectors and per-position one-hot encodings.

A k-mer (contiguous substring of length k) is mapped to a column index
by base-21 positional encoding over the fixed residue alphabet, leftmost
character most significant, so a sequence of length N yields N - k + 1
k-mers in a vector of dimension 21**k. One-hot encoding expands a
length-L sequence into 21*L indicator columns (column 21*p + code of the
residue at position p).

Matrices are scipy CSR. k-mers are counted in chunks of consecutive rows
holding at most _CHUNK_WINDOWS windows (a row longer than that is a
chunk alone), which can fan out over threads that share the corpus
(order preserving; numpy's sort releases the GIL), by sorting each
chunk's (row, k-mer) window keys, so a chunk's memory is linear in its
window count and independent of 21**k: every k up to MAX_K featurizes.
One indices/data pair as long as the corpus's window count, which bounds
its nonzeros, is allocated up front; each chunk's k-mer ids and counts
are written into it as soon as the chunk is counted, and the pair is
then cut to the nonzeros. No chunk outlives its copy, and pages past the
nonzeros are never touched. Counts are stored in the narrowest unsigned
integer type that holds the corpus's largest count: uint8 unless a
k-mer occurs 256 times in one row, so a nonzero takes 5 bytes (its int32
column and its count). The data array starts as uint8 and is widened
when a chunk's largest count needs it. Every model copies the counts to
float64 (rff._as_2d) before any arithmetic, so no product wraps. One-hot
is one vectorized pass over the whole corpus.

Feature container format ("SQFV1"), an export like the COO CSV that no
command reads back: the 5 magic bytes, u8 encoding tag (0 = kmers,
1 = ohe), u64 dim, u64 rows, u64 nnz, then the CSR triplet of arrays:
indptr int64[rows+1], indices int32[nnz], data float64[nnz]. All
integers little-endian. Labels and class names travel in a JSON sidecar.
"""

from __future__ import annotations

import json
import os
import struct
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import IO, Sequence

import numpy as np
import scipy.sparse as sp

from .errors import (
    EmptyCorpus,
    InvalidConfig,
    IoFailure,
    LengthMismatch,
    SequenceTooShort,
)
from .config import ENCODING_KMERS, ENCODING_OHE
from .ingest import AMINO_ACIDS, LabeledSequence, class_ids, encode_residues

ALPHABET = AMINO_ACIDS
ALPHABET_SIZE = len(ALPHABET)  # 21

MAX_K = 6  # 21**7 would exceed 1.8e9 columns
# k-mer windows counted per task: about 51 rows of a 1273-residue spike. A
# chunk's keys, sort and counts take about 40 bytes a window: tracemalloc read
# 2.6 MB (k = 3) and 2.7 MB (k = 4) on the first chunk of a benchmark corpus,
# against 10.5 and 11.0 MB for 2^18 windows, whose transient set the featurize
# peak of the benchmark's kmer3-ridge run
_CHUNK_WINDOWS = 1 << 16

_ENCODING_TAGS = {ENCODING_KMERS: 0, ENCODING_OHE: 1}


def kmer_dim(k: int) -> int:
    if not 1 <= k <= MAX_K:
        raise InvalidConfig(f"k must be in [1, {MAX_K}], got {k}")
    return ALPHABET_SIZE**k


def kmer_index(kmer: str) -> int:
    """Base-21 index of a k-mer, leftmost character most significant."""
    idx = 0
    for code in encode_residues(["<kmer>"], [kmer])[0].tolist():
        idx = idx * ALPHABET_SIZE + code
    return idx


def kmer_from_index(idx: int, k: int) -> str:
    """Inverse of kmer_index."""
    chars = []
    for _ in range(k):
        idx, rem = divmod(idx, ALPHABET_SIZE)
        chars.append(ALPHABET[rem])
    return "".join(reversed(chars))


def kmer_counts(seq: str, k: int = 3) -> dict[str, int]:
    """Counts of every length-k substring, keyed by the substring itself."""
    row = kmer_matrix([seq], k=k, ids=["<sequence>"])
    return {
        kmer_from_index(int(col), k): int(val)
        for col, val in zip(row.indices, row.data)
    }


def _kmer_chunk(ids: Sequence[str], seqs: Sequence[str], k: int) -> tuple[np.ndarray, ...]:
    """The chunk's rows of k-mer counts as a CSR triplet: int64 indptr, int32 indices, and
    counts in the narrowest unsigned type that holds the chunk's largest."""
    dim = ALPHABET_SIZE**k
    codes, lengths = encode_residues(ids, seqs)
    if np.any(lengths < k):
        row = int(np.argmax(lengths < k))
        raise SequenceTooShort(
            f"sequence {ids[row]!r} is shorter than k={k} ({lengths[row]} residues)"
        )
    offsets = np.concatenate(([0], np.cumsum(lengths)))
    # (row, k-mer) keys sort faster as int32, which holds them while rows * 21**k < 2^31
    key_type = np.int32 if len(seqs) * dim < 2**31 else np.int64
    codes = codes.astype(key_type)
    n_windows = len(codes) - k + 1
    idx = np.zeros(n_windows, dtype=key_type)
    for j in range(k):
        idx = idx * ALPHABET_SIZE + codes[j : n_windows + j]
    # windows that straddle a sequence boundary are not k-mers
    valid = np.ones(n_windows, dtype=bool)
    for boundary in offsets[1:-1]:
        valid[boundary - k + 1 : boundary] = False
    idx = idx[valid]
    per_row = lengths - k + 1
    rows = np.repeat(np.arange(len(seqs), dtype=key_type), per_row)
    # sorted distinct (row, k-mer) keys: memory follows the window count, not rows * 21**k
    keys, counts = np.unique(rows * dim + idx, return_counts=True)
    indptr = np.searchsorted(keys // dim, np.arange(len(seqs) + 1, dtype=key_type)).astype(np.int64)
    return indptr, (keys % dim).astype(np.int32), counts.astype(np.min_scalar_type(counts.max()))


def _chunk_bounds(windows: np.ndarray) -> list[int]:
    """Row bounds of the chunks: consecutive rows of at most _CHUNK_WINDOWS windows, or one row."""
    ends = np.concatenate(([0], np.cumsum(windows)))  # windows before each row
    bounds = [0]
    while bounds[-1] < len(windows):
        start = bounds[-1]
        stop = int(np.searchsorted(ends, ends[start] + _CHUNK_WINDOWS, side="right")) - 1
        bounds.append(max(stop, start + 1))
    return bounds


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        return os.cpu_count() or 1


def kmer_matrix(
    seqs: Sequence[str],
    k: int = 3,
    workers: int = 1,
    ids: Sequence[str] | None = None,
) -> sp.csr_matrix:
    """n x 21**k sparse count matrix; row i sums to len(seqs[i]) - k + 1.

    Each chunk (module docstring) is encoded and counted in its own task, on
    min(workers, chunks, usable cores) threads; at one, in the calling thread.
    Chunks are copied out in row order, so the output and the first error in
    row order do not depend on the thread count. The counts' dtype is the
    narrowest unsigned one that holds the largest of them.
    """
    kmer_dim(k)  # InvalidConfig outside [1, MAX_K], before any other check
    if not seqs:
        raise EmptyCorpus("no sequences to featurize")
    if workers < 1:
        raise InvalidConfig(f"workers must be >= 1, got {workers}")
    if ids is None:
        ids = [f"<row {row}>" for row in range(len(seqs))]
    # a row shorter than k has no windows; its chunk raises SequenceTooShort
    windows = np.fromiter((max(len(seq) - k + 1, 0) for seq in seqs), dtype=np.int64,
                          count=len(seqs))
    bounds = _chunk_bounds(windows)
    # a row's distinct k-mers are at most its windows
    indptr = np.zeros(len(seqs) + 1, dtype=np.int64)
    indices = np.empty(int(windows.sum()), dtype=np.int32)
    data = np.empty(len(indices), dtype=np.uint8)
    threads = min(workers, len(bounds) - 1, _usable_cores())

    def count(start: int, stop: int) -> tuple[np.ndarray, ...]:
        return _kmer_chunk(ids[start:stop], seqs[start:stop], k)

    with ThreadPoolExecutor(max_workers=threads) as pool:  # no thread starts before a submit
        counted = (pool.map if threads > 1 else map)(count, bounds, bounds[1:])
        for start, stop, (chunk_indptr, chunk_indices, chunk_data) in zip(bounds, bounds[1:],
                                                                         counted):
            lo = indptr[start]
            if chunk_data.itemsize > data.itemsize:  # a count above the data's type: widen it
                wider = np.empty(len(data), dtype=chunk_data.dtype)
                wider[:lo] = data[:lo]
                data = wider
            indptr[start + 1 : stop + 1] = chunk_indptr[1:] + lo
            indices[lo : indptr[stop]] = chunk_indices
            data[lo : indptr[stop]] = chunk_data
            del chunk_indptr, chunk_indices, chunk_data  # before the next chunk is counted
    # cut in place to the nonzeros: no view of either array exists
    indices.resize(indptr[-1], refcheck=False)
    data.resize(indptr[-1], refcheck=False)
    return sp.csr_matrix((data, indices, indptr), shape=(len(seqs), ALPHABET_SIZE**k))


def ohe_matrix(
    seqs: Sequence[str],
    expected_len: int,
    ids: Sequence[str] | None = None,
) -> sp.csr_matrix:
    """n x 21*expected_len sparse 0/1 matrix with exactly expected_len ones per row."""
    if expected_len < 1:
        raise InvalidConfig(f"expected_len must be positive, got {expected_len}")
    if not seqs:
        raise EmptyCorpus("no sequences to featurize")
    if ids is None:
        ids = [f"<row {row}>" for row in range(len(seqs))]
    codes, lengths = encode_residues(ids, seqs)
    if np.any(lengths != expected_len):
        row = int(np.argmax(lengths != expected_len))
        raise LengthMismatch(
            f"sequence {ids[row]!r} has length {lengths[row]}, expected {expected_len}"
        )
    n, dim = len(seqs), ALPHABET_SIZE * expected_len
    # column 21*p + code, built in int32 straight from the uint8 codes
    indices = np.tile(np.arange(0, dim, ALPHABET_SIZE, dtype=np.int32), n)
    indices += codes
    data = np.ones(n * expected_len, dtype=np.int8)
    indptr = np.arange(0, n * expected_len + 1, expected_len, dtype=np.int64)
    return sp.csr_matrix((data, indices, indptr), shape=(n, dim))


@dataclass
class FeaturizedCorpus:
    matrix: sp.csr_matrix
    labels: np.ndarray  # dense class ids, int64
    class_names: list[str]
    encoding: str
    dim: int  # the nominal width, 21**k or 21*L, whatever the matrix's width


def used_columns(matrix: sp.csr_matrix) -> sp.csr_matrix:
    """The matrix on the columns that hold a nonzero; its column j is the j-th smallest of them.

    The remap is monotone, so each row keeps its nonzeros in their order;
    ``indptr`` and ``data`` are shared with ``matrix``. A d-long boolean
    mask finds the columns and is freed before a d-long int32 lookup table
    does the remap: no d-sized int64 array is made, and at k = 6 only their
    touched pages become resident.
    """
    used = np.zeros(matrix.shape[1], dtype=bool)
    used[matrix.indices] = True
    columns = np.flatnonzero(used)
    del used
    lookup = np.empty(matrix.shape[1], dtype=np.int32)
    lookup[columns] = np.arange(len(columns), dtype=np.int32)
    return sp.csr_matrix((matrix.data, lookup[matrix.indices], matrix.indptr),
                         shape=(matrix.shape[0], len(columns)))


def featurize_corpus(
    data: list[LabeledSequence],
    mode: str,
    *,
    k: int = 3,
    expected_len: int | None = None,
    class_level: str = "country",
    workers: int = 1,
    l2_normalize: bool = False,
) -> FeaturizedCorpus:
    """Featurize a labeled corpus; labels are `ingest.class_ids` at ``class_level``.

    ``mode`` is "kmers" or "ohe". For one-hot, ``expected_len`` defaults
    to the first sequence's length and every sequence must match it.
    Row order matches the input order.
    """
    if not data:
        raise EmptyCorpus("cannot featurize an empty corpus")
    ids = [item.record.id for item in data]
    seqs = [item.record.residues for item in data]
    if mode == ENCODING_KMERS:
        matrix = kmer_matrix(seqs, k=k, workers=workers, ids=ids)
    elif mode == ENCODING_OHE:
        if expected_len is None:
            expected_len = len(seqs[0])
        matrix = ohe_matrix(seqs, expected_len=expected_len, ids=ids)
    else:
        raise InvalidConfig(f"unknown featurization mode {mode!r}")

    labels, class_names = class_ids(data, class_level)
    if l2_normalize:
        matrix = l2_normalize_rows(matrix)
    return FeaturizedCorpus(matrix, labels, class_names, mode, matrix.shape[1])


def l2_normalize_rows(matrix: sp.csr_matrix) -> sp.csr_matrix:
    """A float64 copy of ``matrix``, its nonzero rows scaled to unit L2 norm in place."""
    out = matrix.astype(np.float64)
    norms = np.sqrt(np.asarray(out.multiply(out).sum(axis=1)).ravel())
    norms[norms == 0.0] = 1.0
    out.data *= np.repeat(1.0 / norms, np.diff(out.indptr))
    return out


# --- serialization ----------------------------------------------------------

_MAGIC = b"SQFV1"


def save_features(path: str, matrix: sp.csr_matrix | np.ndarray, encoding: str) -> None:
    """Write a feature matrix in the SQFV1 container."""
    if encoding not in _ENCODING_TAGS:
        raise InvalidConfig(f"unknown encoding {encoding!r}")
    csr = sp.csr_matrix(matrix)
    try:
        with open(path, "wb") as f:
            f.write(_MAGIC)
            f.write(struct.pack("<BQQQ", _ENCODING_TAGS[encoding], csr.shape[1], csr.shape[0], csr.nnz))
            f.write(np.asarray(csr.indptr, dtype="<i8").tobytes())
            f.write(np.asarray(csr.indices, dtype="<i4").tobytes())
            f.write(np.asarray(csr.data, dtype="<f8").tobytes())
    except OSError as exc:
        raise IoFailure(f"cannot write features {path!r}: {exc}") from exc


def export_features_csv(handle: IO[str], matrix: sp.csr_matrix) -> None:
    """COO triplets (row, col, value) with a header, for interoperability."""
    coo = sp.coo_matrix(matrix)
    handle.write("row,col,value\n")
    for r, c, v in zip(coo.row, coo.col, coo.data):
        handle.write(f"{r},{c},{v:g}\n")


def save_labels(path: str, labels: np.ndarray, class_names: list[str], encoding: str, dim: int) -> None:
    payload = {
        "format": "seqclass-labels/1",
        "encoding": encoding,
        "dim": int(dim),
        "class_names": list(class_names),
        "labels": [int(x) for x in labels],
    }
    try:
        with open(path, "w", encoding="utf-8") as f:
            json.dump(payload, f, indent=2, sort_keys=True)
            f.write("\n")
    except OSError as exc:
        raise IoFailure(f"cannot write labels {path!r}: {exc}") from exc

