import struct

import numpy as np
import pytest

from seqclass import features
from seqclass.features import ALPHABET
from seqclass.ingest import LabeledSequence, LabelHierarchy, SequenceRecord

_LUT = np.frombuffer(ALPHABET.encode(), dtype=np.uint8)


def random_sequences(rng: np.random.Generator, n: int, length: int) -> list[str]:
    """Uniform random residue strings."""
    codes = rng.integers(0, len(ALPHABET), size=(n, length))
    return [bytes(_LUT[row]).decode("ascii") for row in codes]


def labeled_corpus(
    class_sizes: dict[str, int],
    length: int = 24,
    seed: int = 0,
    continent: str = "nowhere",
) -> list[LabeledSequence]:
    """Synthetic corpus with the given per-country class sizes.

    Sequences are random and carry no class signal; the label
    distribution is the only structure.
    """
    rng = np.random.default_rng(seed)
    data = []
    i = 0
    for country, size in class_sizes.items():
        for seq in random_sequences(rng, size, length):
            data.append(
                LabeledSequence(
                    record=SequenceRecord(id=f"s{i:06d}", residues=seq),
                    label=LabelHierarchy(continent=continent, country=country, state=country),
                )
            )
            i += 1
    return data


def read_sqfv1(path) -> tuple[int, tuple[int, int], np.ndarray, np.ndarray, np.ndarray]:
    """Encoding tag, shape and CSR arrays of an SQFV1 file, which no command reads back."""
    with open(path, "rb") as f:
        raw = f.read()
    assert raw[:5] == b"SQFV1"
    tag, dim, rows, nnz = struct.unpack("<BQQQ", raw[5:30])
    assert len(raw) == 30 + 8 * (rows + 1) + 12 * nnz
    indptr = np.frombuffer(raw, dtype="<i8", count=rows + 1, offset=30)
    indices = np.frombuffer(raw, dtype="<i4", count=nnz, offset=30 + 8 * (rows + 1))
    data = np.frombuffer(raw, dtype="<f8", count=nnz, offset=30 + 8 * (rows + 1) + 4 * nnz)
    return tag, (rows, dim), indptr, indices, data


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


@pytest.fixture
def thread_pools(monkeypatch):
    """The thread counts of the pools `features.thread_map` maps over, for k-mer chunks or
    runs; a pool it enters and never maps over (one thread: the tasks run in the calling
    thread) is not listed."""
    pools = []

    class RecordingPool(features.ThreadPoolExecutor):
        def __init__(self, max_workers):
            self.threads = max_workers
            super().__init__(max_workers=max_workers)

        def map(self, fn, *iterables):
            pools.append(self.threads)
            return super().map(fn, *iterables)

    monkeypatch.setattr(features, "ThreadPoolExecutor", RecordingPool)
    return pools
