import collections
import io
import json
import os
import threading
import time

import numpy as np
import pytest
import scipy.sparse as sp

from seqclass.errors import (
    EmptyCorpus,
    InvalidConfig,
    InvalidResidue,
    LengthMismatch,
    SequenceTooShort,
)
import seqclass.features as features
from seqclass.features import (
    ALPHABET,
    ALPHABET_SIZE,
    export_features_csv,
    featurize_corpus,
    kmer_counts,
    kmer_dim,
    kmer_from_index,
    kmer_index,
    kmer_matrix,
    l2_normalize_rows,
    ohe_matrix,
    save_features,
    save_labels,
    used_columns,
)
from seqclass.ingest import LabeledSequence, LabelHierarchy, SequenceRecord

from seqclass.infogain import information_gain
from seqclass.ingest import LabeledSequence, LabelHierarchy, SequenceRecord, parse_fasta

from conftest import labeled_corpus, random_sequences, read_sqfv1


def test_kmer_index_extremes():
    assert kmer_index("AAA") == 0
    assert kmer_index("YYY") == 21**3 - 1 == 9260


def test_kmer_index_positional():
    # M=10, D=2, P=12 -> 10*441 + 2*21 + 12
    assert kmer_index("MDP") == 4464


def test_kmer_index_rejects_bad_chars():
    with pytest.raises(InvalidResidue):
        kmer_index("MDZ")


def test_kmer_index_bijection(rng):
    for k in (1, 2, 3, 4, 6):
        dim = kmer_dim(k)
        for idx in rng.integers(0, dim, size=50):
            kmer = kmer_from_index(int(idx), k)
            assert len(kmer) == k
            assert kmer_index(kmer) == idx


def test_kmer_dim_guard():
    with pytest.raises(InvalidConfig):
        kmer_dim(7)
    with pytest.raises(InvalidConfig):
        kmer_dim(0)


def test_kmer_counts_mdpeg():
    assert kmer_counts("MDPEG", 3) == {"MDP": 1, "DPE": 1, "PEG": 1}
    assert kmer_counts("MDPEG", 4) == {"MDPE": 1, "DPEG": 1}
    assert kmer_counts("MDPEG", 5) == {"MDPEG": 1}


def test_kmer_overlap_counting():
    vec = kmer_matrix(["AAAA"], 3)
    assert vec.shape == (1, 9261)
    assert vec[0, 0] == 2 and vec.nnz == 1


def test_kmer_sum_property(rng):
    for k in (1, 2, 3, 5):
        for length in rng.integers(k, 50, size=10):
            seq = random_sequences(rng, 1, int(length))[0]
            vec = kmer_matrix([seq], k)
            assert vec.sum() == len(seq) - k + 1
            assert vec.shape[1] == ALPHABET_SIZE**k


def test_kmer_full_length_sequence(rng):
    seq = random_sequences(rng, 1, 1273)[0]
    vec = kmer_matrix([seq], 3)
    assert vec.sum() == 1271  # 1273 - 3 + 1


def test_kmer_counts_widen_from_uint8_as_a_count_needs(monkeypatch):
    """k = 1 on homopolymers: counts are uint8 until a count of 300 widens them to uint16,
    and one of 70 000 to uint32. Every count keeps its value, those of the chunks counted
    before a widening too."""
    monkeypatch.setattr(features, "_CHUNK_WINDOWS", 100)  # a row above 100 windows is a chunk
    cases = [(["ACA", "D" * 5], np.uint8),
             (["ACA", "C" * 300, "D" * 5], np.uint16),
             (["ACA", "C" * 300, "D" * 5, "E" * 70_000, "FF"], np.uint32)]
    for seqs, dtype in cases:
        want = [{kmer_index(residue): n for residue, n in collections.Counter(seq).items()}
                for seq in seqs]
        for workers in (1, 2):
            got = kmer_matrix(seqs, 1, workers=workers)
            assert got.dtype == dtype
            assert [dict(zip(got.indices[lo:hi].tolist(), got.data[lo:hi].tolist()))
                    for lo, hi in zip(got.indptr, got.indptr[1:])] == want


def test_kmer_too_short():
    with pytest.raises(SequenceTooShort):
        kmer_matrix(["MD"], 3)


def test_kmer_invalid_residue_names_record():
    rec = SequenceRecord("bad1", "MDPXZ")
    with pytest.raises(InvalidResidue) as err:
        kmer_matrix([rec.residues], 3, ids=[rec.id])
    assert err.value.seq_id == "bad1"
    assert err.value.position == 5


def test_ohe_single_symbol():
    vec = ohe_matrix(["A"], 1)
    assert vec.shape == (1, 21)
    assert vec[0, 0] == 1 and vec.nnz == 1


def test_ohe_positional_indices():
    # C=1 at position 0, A=0 at position 1 -> columns 1 and 21
    vec = ohe_matrix(["CA"], 2)
    assert sorted(vec.indices.tolist()) == [1, 21]


def test_ohe_expected_dim():
    assert ohe_matrix(["A" * 1273], 1273).shape == (1, 26733)


def test_ohe_length_mismatch_names_record():
    rec = SequenceRecord("short7", "MDP")
    with pytest.raises(LengthMismatch, match="short7"):
        ohe_matrix([rec.residues], 5, ids=[rec.id])


def test_ohe_exactly_one_per_position(rng):
    seqs = random_sequences(rng, 8, 30)
    mat = ohe_matrix(seqs, 30)
    assert (np.asarray(mat.sum(axis=1)).ravel() == 30).all()
    assert set(np.unique(mat.data)) == {1}


def test_ohe_inner_product_is_hamming_similarity(rng):
    L = 40
    for _ in range(10):
        a, b = random_sequences(rng, 2, L)
        agree = sum(1 for x, y in zip(a, b) if x == y)
        va, vb = ohe_matrix([a], L), ohe_matrix([b], L)
        assert (va @ vb.T)[0, 0] == agree


def test_featurize_corpus_sorted_classes():
    data = [
        LabeledSequence(SequenceRecord("x", "MDPEG"), LabelHierarchy("Europe", "France")),
        LabeledSequence(SequenceRecord("y", "MDPEG"), LabelHierarchy("Asia", "Japan")),
    ]
    feats = featurize_corpus(data, "kmers", class_level="continent")
    assert feats.class_names == ["Asia", "Europe"]
    assert feats.labels.tolist() == [1, 0]


def test_featurize_corpus_mixed_length_ohe_names_offender():
    data = [
        LabeledSequence(SequenceRecord("ok", "MDPEG"), LabelHierarchy("a", "b")),
        LabeledSequence(SequenceRecord("odd", "MDP"), LabelHierarchy("a", "c")),
    ]
    with pytest.raises(LengthMismatch, match="odd"):
        featurize_corpus(data, "ohe")


@pytest.mark.parametrize("mode", ["kmers", "ohe"])
def test_featurize_corpus_rejects_workers_below_one(mode):
    # one-hot starts no thread, yet both encodings check the same workers
    with pytest.raises(InvalidConfig, match="workers must be >= 1, got 0"):
        featurize_corpus(labeled_corpus({"a": 2, "b": 2}), mode, workers=0)


def test_featurize_corpus_empty():
    with pytest.raises(EmptyCorpus):
        featurize_corpus([], "kmers")


def test_featurize_row_order_matches_input(rng):
    data = labeled_corpus({"a": 4, "b": 4}, length=20, seed=1)
    feats = featurize_corpus(data, "kmers")
    for i, item in enumerate(data):
        row = kmer_matrix([item.record.residues], 3)
        assert (feats.matrix[i] != row).nnz == 0


def test_featurize_parallel_is_bit_identical(rng, monkeypatch):
    # so three workers are 3 threads
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)), raising=False)
    monkeypatch.setattr(features, "_CHUNK_WINDOWS", 3800)
    seqs = random_sequences(rng, 600, 40)  # 38 windows a row: 6 chunks
    one = kmer_matrix(seqs, 3, workers=1)
    for workers in (2, 3):
        many = kmer_matrix(seqs, 3, workers=workers)
        assert np.array_equal(one.indptr, many.indptr)
        assert np.array_equal(one.indices, many.indices)
        assert np.array_equal(one.data, many.data) and one.dtype == many.dtype


@pytest.mark.parametrize("encoding", ["kmers", "ohe"])
def test_used_columns_keeps_rows_and_maps_back_to_nominal_ids(rng, encoding):
    seqs = random_sequences(rng, 12, 30)  # at most 12 of the 21 residues at a position
    matrix = kmer_matrix(seqs, 3) if encoding == "kmers" else ohe_matrix(seqs, 30)
    restricted = used_columns(matrix)
    columns = np.unique(matrix.indices)  # the sorted distinct nominal ids, so the remap is monotone
    assert restricted.shape == (12, len(columns)) and len(columns) < matrix.shape[1]
    assert np.array_equal(restricted.indptr, matrix.indptr)
    assert np.array_equal(restricted.data, matrix.data)
    assert np.array_equal(restricted.sum(axis=1), matrix.sum(axis=1))
    assert np.array_equal(columns[restricted.indices], matrix.indices)
    assert restricted.has_sorted_indices
    assert np.array_equal(restricted.toarray(), matrix.toarray()[:, columns])


def test_used_columns_at_k6_allocates_no_int64_array_of_the_nominal_width(rng):
    import tracemalloc

    matrix = kmer_matrix(random_sequences(rng, 50, 20), 6)
    d = matrix.shape[1]
    tracemalloc.start()
    restricted = used_columns(matrix)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    # a d-long bool mask, freed before a d-long int32 table (4 d); an int64 one alone is 8 d
    assert 4 * d <= peak < 5 * d
    assert np.array_equal(np.unique(matrix.indices)[restricted.indices], matrix.indices)


def test_parallel_propagates_errors(rng, monkeypatch, thread_pools):
    """A worker's InvalidResidue and SequenceTooShort reach the caller intact through the pool.

    600 rows of 38 windows at 3800 windows a chunk make 6 chunks, so two
    threads count them on any host.
    """
    pools = thread_pools
    monkeypatch.setattr(features, "_CHUNK_WINDOWS", 3800)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    seqs = random_sequences(rng, 600, 40)
    ids = [f"q{i}" for i in range(len(seqs))]
    bad = list(seqs)
    bad[555] = bad[555][:-1] + "?"
    with pytest.raises(InvalidResidue) as err:
        kmer_matrix(bad, 3, workers=2, ids=ids)
    assert (err.value.seq_id, err.value.position, err.value.char) == ("q555", 40, "?")
    assert str(err.value) == "invalid residue '?' at position 40 in sequence 'q555'"
    short = list(seqs)
    short[444] = "MD"
    with pytest.raises(SequenceTooShort) as err:
        kmer_matrix(short, 3, workers=2, ids=ids)
    assert str(err.value) == "sequence 'q444' is shorter than k=3 (2 residues)"
    assert pools == [2, 2]


def _windows(ids, seqs, k):
    """int64 row ids and base-21 k-mer ids of every window inside a sequence."""
    codes, lengths = features.encode_residues(ids, seqs)
    offsets = np.concatenate(([0], np.cumsum(lengths)))
    codes = codes.astype(np.int64)
    n_windows = len(codes) - k + 1
    idx = np.zeros(n_windows, dtype=np.int64)
    for j in range(k):
        idx = idx * ALPHABET_SIZE + codes[j : n_windows + j]
    valid = np.ones(n_windows, dtype=bool)
    for boundary in offsets[1:-1]:
        valid[boundary - k + 1 : boundary] = False
    return np.repeat(np.arange(len(seqs), dtype=np.int64), lengths - k + 1), idx[valid]


def _narrow(counts):
    """Counts in the narrowest unsigned type that holds them, as kmer_matrix stores them."""
    return counts.astype(np.min_scalar_type(counts.max()))


def _dense_kmer_csr_chunk(ids, seqs, k):
    """The counter the sort-based one replaced: np.bincount over rows x 21**k counters."""
    dim = ALPHABET_SIZE**k
    rows, idx = _windows(ids, seqs, k)
    counts = np.bincount(rows * dim + idx, minlength=len(seqs) * dim)
    flat_nz = np.flatnonzero(counts)
    data = _narrow(counts[flat_nz])
    indices = (flat_nz % dim).astype(np.int32)
    indptr = np.searchsorted(flat_nz // dim, np.arange(len(seqs) + 1)).astype(np.int64)
    return sp.csr_matrix((data, indices, indptr), shape=(len(seqs), dim))


def _int64_kmer_csr_chunk(ids, seqs, k):
    """The sort of int64 (row, k-mer) keys, which int32 keys replaced below 2^31."""
    dim = ALPHABET_SIZE**k
    rows, idx = _windows(ids, seqs, k)
    keys, counts = np.unique(rows * dim + idx, return_counts=True)
    indptr = np.searchsorted(keys // dim, np.arange(len(seqs) + 1)).astype(np.int64)
    return sp.csr_matrix((_narrow(counts), (keys % dim).astype(np.int32), indptr),
                         shape=(len(seqs), dim))


def _ragged(rng, n, k, longest):
    """n sequences of random lengths in [k, longest], the one at row 700 exactly k long."""
    seqs = [random_sequences(rng, 1, int(length))[0] for length in rng.integers(k, longest + 1, n)]
    seqs[700] = seqs[700][:k]
    return seqs


def _assert_same_csr(got, want):
    assert got.shape == want.shape
    for attr in ("indptr", "indices", "data"):
        g, w = getattr(got, attr), getattr(want, attr)
        assert g.dtype == w.dtype and np.array_equal(g, w)


def _chunk_csr(ids, seqs, k):
    """features._kmer_chunk's CSR triplet as a matrix."""
    return sp.csr_matrix(features._kmer_chunk(ids, seqs, k)[::-1], shape=(len(seqs), ALPHABET_SIZE**k))


def _bounds(seqs, k):
    return features._chunk_bounds(np.array([len(seq) - k + 1 for seq in seqs]))


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_sorted_counting_matches_dense_bincount(rng, monkeypatch, k):
    seqs = _ragged(rng, 1100, k, 40)
    ids = [f"q{i}" for i in range(len(seqs))]
    # chunk by chunk: the same CSR arrays with the same dtypes
    chunks = []
    for start in range(0, len(seqs), 64):  # 64 rows keep the dense counters below 100 MB at k=4
        got = _chunk_csr(ids[start : start + 64], seqs[start : start + 64], k)
        chunks.append(_dense_kmer_csr_chunk(ids[start : start + 64], seqs[start : start + 64], k))
        _assert_same_csr(got, chunks[-1])
    # whole matrix across chunk boundaries, serial and pooled
    monkeypatch.setattr(features, "_CHUNK_WINDOWS", 4096)
    assert len(_bounds(seqs, k)) > 4  # at least four chunks of about 200 rows
    want = sp.vstack(chunks, format="csr")
    for workers in (1, 2):
        _assert_same_csr(kmer_matrix(seqs, k, workers=workers, ids=ids), want)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
def test_int32_keys_match_the_int64_sort(rng, monkeypatch, k):
    # 2^18-window chunks put a full chunk's int32 keys at k = 5 just below 2^31
    monkeypatch.setattr(features, "_CHUNK_WINDOWS", 1 << 18)
    ragged = _ragged(rng, 1100, k, 40)  # one chunk of short rows
    even = random_sequences(rng, 1100, k + 511)  # 512 windows a row: 512-row chunks
    for seqs, rows, int32_up_to in ((ragged, 1100, 4), (even, 512, 5)):
        ids = [f"q{i}" for i in range(len(seqs))]
        bounds = _bounds(seqs, k)
        assert max(np.diff(bounds)) == rows
        # a full chunk sorts int32 keys while rows * 21**k < 2^31, int64 ones above
        assert (rows * ALPHABET_SIZE**k < 2**31) == (k <= int32_up_to)
        for start, stop in zip(bounds, bounds[1:]):
            _assert_same_csr(_chunk_csr(ids[start:stop], seqs[start:stop], k),
                             _int64_kmer_csr_chunk(ids[start:stop], seqs[start:stop], k))


def test_chunks_hold_at_most_the_window_budget(monkeypatch):
    monkeypatch.setattr(features, "_CHUNK_WINDOWS", 10)
    # a row above the budget is a chunk alone; a chunk can hold exactly the budget
    assert features._chunk_bounds(np.array([3, 3, 3, 3, 25, 1, 9, 1])) == [0, 3, 4, 5, 7, 8]
    assert features._chunk_bounds(np.array([10, 10, 11, 1])) == [0, 1, 2, 3, 4]


@pytest.mark.parametrize("k", [1, 3, 6])
def test_kmer_matrix_equals_the_stacked_512_row_chunks(rng, k):
    """The preallocated arrays are those of the 512-row chunks and sp.vstack they replaced."""
    lengths = rng.integers(k, 2400, 700)
    lengths[[0, -1]] = k  # k-long rows at the corpus's edges
    # row m ends one window short of the budget, so the k-long row after it fills the
    # first chunk and the next k-long row starts the second
    ends = np.cumsum(lengths - k + 1)
    m = int(np.searchsorted(ends, features._CHUNK_WINDOWS - 1))
    lengths[m] -= ends[m] - (features._CHUNK_WINDOWS - 1)
    lengths[m + 1 : m + 3] = k
    seqs = [random_sequences(rng, 1, int(length))[0] for length in lengths]
    bounds = _bounds(seqs, k)
    assert bounds[1] == m + 2 and len(bounds) > 3  # three chunks or more
    ids = [f"q{i}" for i in range(len(seqs))]
    want = sp.vstack([_int64_kmer_csr_chunk(ids[start : start + 512], seqs[start : start + 512], k)
                      for start in range(0, len(seqs), 512)], format="csr")
    for workers in (1, 2):
        got = kmer_matrix(seqs, k, workers=workers, ids=ids)
        _assert_same_csr(got, want)
        for array in (got.indices, got.data):  # cut to the nonzeros, not views of longer arrays
            assert (array if array.base is None else array.base).size == got.nnz


def _chunked_ohe(ids, seqs, expected_len, chunk_size=512):
    """The construction the one-pass one-hot replaced: 512-row chunks of int64 indices."""
    chunks = []
    for start in range(0, len(seqs), chunk_size):
        codes, _ = features.encode_residues(ids[start : start + chunk_size],
                                            seqs[start : start + chunk_size])
        n = len(seqs[start : start + chunk_size])
        positions = np.tile(np.arange(expected_len, dtype=np.int64), n)
        indices = (positions * ALPHABET_SIZE + codes.astype(np.int64)).astype(np.int32)
        data = np.ones(n * expected_len, dtype=np.int8)
        indptr = np.arange(0, n * expected_len + 1, expected_len, dtype=np.int64)
        chunks.append(sp.csr_matrix((data, indices, indptr),
                                    shape=(n, ALPHABET_SIZE * expected_len)))
    return sp.vstack(chunks, format="csr")


def test_ohe_one_pass_matches_the_chunked_construction(rng):
    seqs = random_sequences(rng, 1100, 60)  # three 512-row chunks
    ids = [f"q{i}" for i in range(len(seqs))]
    got, want = ohe_matrix(seqs, 60, ids=ids), _chunked_ohe(ids, seqs, 60)
    assert got.shape == (1100, 21 * 60)
    _assert_same_csr(got, want)


@pytest.mark.parametrize("k", [5, 6])
def test_long_kmers_match_python_counts(rng, k):
    seqs = _ragged(rng, 800, k, 14)  # two chunks
    seqs[3] = "A" * 12 + "CA" * 5  # random rows seldom repeat a k-mer: plant overlapping repeats
    matrix = kmer_matrix(seqs, k, workers=1)
    assert matrix.shape == (len(seqs), ALPHABET_SIZE**k)
    for row, seq in enumerate(seqs):
        want = collections.Counter(seq[i : i + k] for i in range(len(seq) - k + 1))
        got = matrix.getrow(row)
        assert dict(zip(got.indices.tolist(), got.data.tolist())) == {
            kmer_index(kmer): count for kmer, count in want.items()
        }


BAD_RESIDUE_ENTRY_POINTS = ("parse_fasta", "kmer_index", "kmer_matrix/1", "kmer_matrix/2",
                            "ohe_matrix", "information_gain")


@pytest.mark.parametrize("entry", BAD_RESIDUE_ENTRY_POINTS)
@pytest.mark.parametrize("bad, position, char", [("A\u00e9AC", 2, "\u00e9"), ("MDPZ", 4, "Z"),
                                                 ("ACD-E", 4, "-")])
def test_bad_residue_reported_alike_everywhere(rng, entry, bad, position, char):
    seqs = random_sequences(rng, 600, len(bad))  # two 512-row chunks
    seqs[555] = bad
    ids = [f"q{i}" for i in range(len(seqs))]
    with pytest.raises(InvalidResidue) as err:
        if entry == "parse_fasta":
            parse_fasta(io.StringIO("".join(f">{i}\n{s}\n" for i, s in zip(ids, seqs))))
        elif entry == "kmer_index":
            kmer_index(bad)
        elif entry.startswith("kmer_matrix"):
            kmer_matrix(seqs, 3, workers=int(entry[-1]), ids=ids)
        elif entry == "ohe_matrix":
            ohe_matrix(seqs, len(bad), ids=ids)
        else:
            information_gain([
                LabeledSequence(SequenceRecord(i, s), LabelHierarchy("x", "ab"[n % 2]))
                for n, (i, s) in enumerate(zip(ids, seqs))
            ])
    seq_id = "<kmer>" if entry == "kmer_index" else "q555"
    assert (err.value.seq_id, err.value.position, err.value.char) == (seq_id, position, char)


def test_pool_is_capped_at_chunks_and_usable_cores(rng, monkeypatch, thread_pools):
    pools = thread_pools
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(features, "_CHUNK_WINDOWS", 3 * 512)  # 512 rows of 3 windows
    seqs = random_sequences(rng, 3 * 512, 5)  # three chunks
    callers = []
    chunk = features._kmer_chunk
    monkeypatch.setattr(features, "_kmer_chunk",
                        lambda *args: callers.append(threading.get_ident()) or chunk(*args))
    serial = kmer_matrix(seqs, 3, workers=1)
    assert pools == []
    assert callers == [threading.get_ident()] * 3  # one worker: each chunk in this thread
    assert (kmer_matrix(seqs, 3, workers=8) != serial).nnz == 0
    assert pools == [2]  # two usable cores
    kmer_matrix(seqs[:512], 3, workers=8)
    assert pools == [2]  # one chunk runs in this thread
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(16)), raising=False)
    kmer_matrix(seqs, 3, workers=8)
    assert pools == [2, 3]  # three chunks


def test_thread_map_starts_no_task_after_an_error(monkeypatch):
    """The first error in task order reaches the caller, and the map cancels the queued tasks,
    so a failed run or chunk does not wait for the rest to be computed."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    started = []

    def task(i):
        started.append(i)
        if i == 0:
            raise ValueError("task 0")
        time.sleep(0.5)  # holds its thread until the map has failed

    with pytest.raises(ValueError, match="task 0"):
        with features.thread_map(2, 6) as (threads, in_order):
            assert threads == 2
            list(in_order(task, range(6)))
    assert sorted(started)[:2] == [0, 1] and len(started) <= 3  # the thread freed by 0 may take 2


def test_l2_normalize_rows(rng):
    """Unit rows with the bits of a float64 copy scaled by norms of its elementwise square;
    the copy's values and their squares are all it allocates beside the norms."""
    import tracemalloc

    mat = kmer_matrix(random_sequences(rng, 1000, 300), 3)
    values = mat.astype(np.float64)
    norms = np.sqrt(np.asarray(values.multiply(values).sum(axis=1)).ravel())
    values.data *= np.repeat(1.0 / norms, np.diff(values.indptr))
    tracemalloc.start()
    normed = l2_normalize_rows(mat)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    for got, want in ((normed.indptr, values.indptr), (normed.indices, values.indices),
                      (normed.data, values.data)):
        assert np.array_equal(got, want)
    assert np.shares_memory(normed.indices, mat.indices)
    assert np.shares_memory(normed.indptr, mat.indptr)
    assert peak <= 2 * 8 * mat.nnz + 64 * mat.shape[0]  # astype and multiply: 2.2x this
    norms = np.sqrt(np.asarray(normed.multiply(normed).sum(axis=1)).ravel())
    assert np.allclose(norms, 1.0)


def test_l2_normalize_rows_is_canonical_csr(rng):
    """Sorted column indices, each row holding the values of scaling it by a diagonal
    product (whose rows come out unsorted), a row of zeros staying empty."""
    counts = kmer_matrix(random_sequences(rng, 40, 30), 3)
    empty = sp.csr_matrix((1, counts.shape[1]), dtype=counts.dtype)
    for mat in (sp.vstack([counts, empty], format="csr"),
                ohe_matrix(random_sequences(rng, 20, 12), 12)):
        normed = l2_normalize_rows(mat)
        values = mat.astype(np.float64)
        norms = np.sqrt(np.asarray(values.multiply(values).sum(axis=1)).ravel())
        scaled = sp.diags(1.0 / np.where(norms == 0.0, 1.0, norms)) @ values
        assert normed.dtype == np.float64 and normed.has_sorted_indices
        assert all((np.diff(row.indices) > 0).all() for row in normed)
        scaled.sort_indices()
        for got, want in ((normed.indptr, scaled.indptr), (normed.indices, scaled.indices),
                          (normed.data, scaled.data)):
            assert np.array_equal(got, want)


def test_feature_container_round_trip(tmp_path, rng):
    mat = kmer_matrix(random_sequences(rng, 12, 25), 3)
    path = tmp_path / "feat.sqfv"
    save_features(str(path), mat, "kmers")
    tag, shape, indptr, indices, data = read_sqfv1(path)
    assert tag == 0 and shape == mat.shape
    loaded = sp.csr_matrix((data, indices, indptr), shape=shape)
    assert (loaded != mat.astype(np.float64)).nnz == 0
    save_features(str(path), ohe_matrix(["AC", "CA"], 2), "ohe")
    assert read_sqfv1(path)[:2] == (1, (2, 42))
    with pytest.raises(InvalidConfig):
        save_features(str(path), mat, "rff")  # no command writes projected features


def test_labels_sidecar_round_trip(tmp_path):
    path = tmp_path / "labels.json"
    save_labels(str(path), np.array([0, 1, 1]), ["x", "y"], "kmers", 9261)
    assert json.loads(path.read_text()) == {"format": "seqclass-labels/1", "encoding": "kmers",
                                            "dim": 9261, "class_names": ["x", "y"],
                                            "labels": [0, 1, 1]}


def test_csv_export(rng):
    mat = sp.csr_matrix(np.array([[0, 2], [1, 0]]))
    buf = io.StringIO()
    export_features_csv(buf, mat)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "row,col,value"
    assert len(lines) == 3
    assert "0,1,2" in lines
