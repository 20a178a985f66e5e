"""FASTA parsing, metadata joining, validation and train/test splitting.

Sequences are amino-acid strings over the 21-letter alphabet
``ACDEFGHIKLMNPQRSTVWXY``; the parser drops a single trailing ``*``
(stop) as it closes a record, so no record, and nothing downstream,
holds a stop.

Metadata is a tab-separated table ``id<TAB>continent<TAB>country<TAB>state``
(header row required; ``state`` may be empty, ``continent`` and ``country``
may not).

Residues are checked in one place, `residue_codes`: one 256-byte
``bytes.translate`` table maps each residue to its alphabet index and
every other byte to 255, whose first occurrence names the bad residue.
`parse_fasta` checks its records in blocks of about 2^22 residues, and
`encode_residues` gives the featurizers the same bytes as a numpy array.

Class ids have one owner, `class_ids`: at a chosen level (continent,
country or state), the distinct names sorted by code point, and each
sequence's id is its name's index there. Features, splits and
information gain all see these ids.

Only the functions that build arrays (`encode_residues`, `class_ids`,
`split_indices`) import numpy, so `seqclass ingest` loads none.
"""

from __future__ import annotations

import math
import struct
import sys
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from typing import IO, TYPE_CHECKING, Iterable, Sequence

if TYPE_CHECKING:
    import numpy as np

from .errors import (
    ClassTooSmall,
    DuplicateMetadataKey,
    EmptyJoin,
    InvalidConfig,
    InvalidResidue,
    IoFailure,
    MalformedFasta,
)

AMINO_ACIDS = "ACDEFGHIKLMNPQRSTVWXY"
STOP_CHAR = "*"

# byte -> alphabet index, a bytes.translate table; 255 marks every byte outside the alphabet
_CODE = bytes(AMINO_ACIDS.index(c) if c in AMINO_ACIDS else 255 for c in map(chr, range(256)))
# residues parse_fasta checks at once: about 4 MiB for each of the joined block, its
# ASCII bytes and their codes
_CHECK_RESIDUES = 1 << 22

CLASS_LEVELS = ("continent", "country", "state")


@dataclass(frozen=True)
class SequenceRecord:
    """One FASTA record: accession id plus residue string."""

    id: str
    residues: str


@dataclass(frozen=True)
class LabelHierarchy:
    continent: str
    country: str
    state: str | None = None


@dataclass(frozen=True)
class LabeledSequence:
    record: SequenceRecord
    label: LabelHierarchy


def residue_codes(ids: Sequence[str], seqs: Sequence[str]) -> bytes:
    """Alphabet index (0..20) of every residue, concatenated, one byte each.

    Raises InvalidResidue for the first character outside the alphabet,
    with its sequence's id, its 1-based position and the character as
    given (non-ASCII included: each becomes one ``?`` byte, so offsets
    stay aligned).
    """
    blob = "".join(seqs)
    codes = blob.encode("ascii", errors="replace").translate(_CODE)
    at = codes.find(255)
    if at >= 0:
        ends = list(accumulate(map(len, seqs)))
        row = bisect_right(ends, at)
        raise InvalidResidue(ids[row], at - ends[row] + len(seqs[row]) + 1, blob[at])
    return codes


def encode_residues(ids: Sequence[str], seqs: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    """`residue_codes` as a read-only uint8 array, plus the int64 per-sequence lengths."""
    import numpy as np

    codes = np.frombuffer(residue_codes(ids, seqs), dtype=np.uint8)
    lengths = np.fromiter((len(s) for s in seqs), dtype=np.int64, count=len(seqs))
    return codes, lengths


def parse_fasta(stream: Iterable[str]) -> list[SequenceRecord]:
    """Parse FASTA text into validated records, preserving input order.

    Sequence lines may be wrapped; surrounding whitespace is ignored. A
    single trailing stop is dropped from each record's last line before
    its lines are joined, so the returned records carry no stop.
    Raises MalformedFasta for sequence data before the first header,
    empty headers or bodies (a body of only the stop is empty) or
    duplicate ids; once the whole text parses, InvalidResidue for the
    first character outside the alphabet (a second stop included),
    checked in blocks of records of about _CHECK_RESIDUES residues.
    """
    records: list[SequenceRecord] = []
    seen: set[str] = set()
    header: str | None = None
    chunks: list[str] = []

    def flush() -> None:
        nonlocal header, chunks
        if header is None:
            return
        if chunks:
            chunks[-1] = chunks[-1].removesuffix(STOP_CHAR)
        body = "".join(chunks)
        if not body:  # a lone stop is no sequence either
            raise MalformedFasta(f"record {header!r} has an empty sequence body")
        if header in seen:
            raise MalformedFasta(f"duplicate sequence id {header!r}")
        seen.add(header)
        records.append(SequenceRecord(id=header, residues=body))
        header, chunks = None, []

    for raw in stream:
        line = raw.strip()
        if not line:
            continue
        if line.startswith(">"):
            flush()
            header = line[1:].strip()
            if not header:
                raise MalformedFasta("empty FASTA header")
        else:
            if header is None:
                raise MalformedFasta("sequence data before first '>' header")
            chunks.append(line)
    flush()
    start = size = 0
    for stop, rec in enumerate(records, start=1):
        size += len(rec.residues)
        if size >= _CHECK_RESIDUES or stop == len(records):
            block = records[start:stop]
            residue_codes([r.id for r in block], [r.residues for r in block])
            start, size = stop, 0
    return records


def read_metadata_tsv(stream: Iterable[str]) -> dict[str, LabelHierarchy]:
    """Read ``id<TAB>continent<TAB>country<TAB>state`` rows keyed by id."""
    table: dict[str, LabelHierarchy] = {}
    rows = iter(stream)
    header = next(rows, None)
    if header is None:
        return table
    for lineno, raw in enumerate(rows, start=2):
        line = raw.rstrip("\n")
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) < 3:
            raise IoFailure(f"metadata line {lineno}: expected at least 3 tab-separated fields")
        seq_id, continent, country = parts[0], parts[1], parts[2]
        if "" in (continent, country):  # only the state may be absent
            name = "continent" if continent == "" else "country"
            raise IoFailure(f"metadata line {lineno}: empty {name} field")
        state = parts[3] if len(parts) > 3 and parts[3] != "" else None
        if seq_id in table:
            raise DuplicateMetadataKey(f"duplicate metadata key {seq_id!r} (line {lineno})")
        table[seq_id] = LabelHierarchy(continent=continent, country=country, state=state)
    return table


def join_metadata(
    records: Iterable[SequenceRecord],
    metadata: dict[str, LabelHierarchy],
    report: IO[str] | None = None,
) -> list[LabeledSequence]:
    """Inner-join records with metadata by id, as `parse_fasta` returns them (no stripping).

    Records without a metadata row are dropped; a summary count goes to
    ``report`` (stderr by default). Raises EmptyJoin when nothing matches.
    """
    if report is None:
        report = sys.stderr
    joined: list[LabeledSequence] = []
    dropped = 0
    for rec in records:
        label = metadata.get(rec.id)
        if label is None:
            dropped += 1
            continue
        joined.append(LabeledSequence(record=rec, label=label))
    if not joined:
        raise EmptyJoin("no sequence ids matched the metadata table")
    print(f"joined {len(joined)} sequences, {dropped} dropped (no metadata)", file=report)
    return joined


def label_for_level(label: LabelHierarchy, class_level: str) -> str:
    if class_level not in CLASS_LEVELS:
        raise InvalidConfig(f"unknown class level {class_level!r} (expected one of {CLASS_LEVELS})")
    name = getattr(label, class_level)
    if name is None:
        raise InvalidConfig(
            f"class level {class_level!r} requested but a label has no {class_level}")
    return name


def class_ids(data: Sequence[LabeledSequence], class_level: str) -> tuple[np.ndarray, list[str]]:
    """Each item's class id (int64) and the sorted class names the ids index."""
    import numpy as np

    names = [label_for_level(item.label, class_level) for item in data]
    class_names = sorted(set(names))
    index = {name: i for i, name in enumerate(class_names)}
    ids = np.fromiter((index[name] for name in names), dtype=np.int64, count=len(names))
    return ids, class_names


def _round_half_up(x: float) -> int:
    return math.floor(x + 0.5)


def _largest_remainder(total: int, counts: np.ndarray) -> np.ndarray:
    """Apportion ``total`` across groups proportionally to ``counts``."""
    import numpy as np

    n = counts.sum()
    quotas = total * counts / n
    base = np.floor(quotas).astype(int)
    short = total - base.sum()
    if short > 0:
        remainders = quotas - base
        # largest remainder first, class index as the tie-break
        order = np.lexsort((np.arange(len(counts)), -remainders))
        base[order[:short]] += 1
    return base


def split_indices(
    n: int,
    train_fraction: float = 0.10,
    seed: int = 0,
    class_labels: Sequence | np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Index-level split; |train| = round(train_fraction * n), half up.

    The split is stratified exactly when ``class_labels`` (one name or
    class id per item) is given: largest-remainder apportionment of the
    train budget across classes, taken in sorted label order, so
    per-class proportions hold within rounding. Both outputs are
    sorted, disjoint and exhaustive.
    """
    import numpy as np

    if n < 1:
        raise EmptyJoin("cannot split an empty corpus")
    if not 0.0 < train_fraction < 1.0:
        raise InvalidConfig(f"train_fraction must be in (0,1), got {train_fraction}")
    n_train = _round_half_up(train_fraction * n)
    rng = np.random.default_rng(seed)

    if class_labels is None:
        perm = rng.permutation(n)
        train_idx = np.sort(perm[:n_train])
    else:
        if len(class_labels) != n:
            raise InvalidConfig("stratified split needs one class label per item")
        # object dtype compares the Python values: numpy's fixed-width strings drop trailing NULs
        labels, inverse, counts = np.unique(np.asarray(class_labels, dtype=object),
                                            return_inverse=True, return_counts=True)
        if np.any(counts == 1):
            name = labels[np.argmax(counts == 1)]
            raise ClassTooSmall(f"class {name!r} has a single member; stratified split needs >= 2")
        # each class's members in corpus order, classes in sorted label order
        members = np.split(np.argsort(inverse, kind="stable"), np.cumsum(counts)[:-1])
        takes = _largest_remainder(n_train, counts)
        train_idx = np.sort(np.concatenate(
            [idx[rng.permutation(len(idx))[:take]] for idx, take in zip(members, takes)]
        ))

    in_train = np.zeros(n, dtype=bool)
    in_train[train_idx] = True
    test_idx = np.flatnonzero(~in_train)
    return train_idx.astype(np.int64), test_idx.astype(np.int64)


# --- corpus container -------------------------------------------------------
#
# Binary layout: magic "SQCR1", u8 format version, u64 record count, then per
# record five length-prefixed UTF-8 fields (id, continent, country, state,
# residues); an absent state is encoded with length 0xFFFFFFFF, and no other
# field may be absent.

_CORPUS_MAGIC = b"SQCR1"
_ABSENT = 0xFFFFFFFF


def _write_str(handle: IO[bytes], value: str | None) -> None:
    if value is None:
        handle.write(struct.pack("<I", _ABSENT))
        return
    raw = value.encode("utf-8")
    handle.write(struct.pack("<I", len(raw)))
    handle.write(raw)


def _read_exact(handle: IO[bytes], size: int) -> bytes:
    raw = handle.read(size)
    if len(raw) != size:
        raise IoFailure(f"corpus {handle.name!r} is truncated at byte {handle.tell()}")
    return raw


def _read_str(handle: IO[bytes]) -> str | None:
    (length,) = struct.unpack("<I", _read_exact(handle, 4))
    if length == _ABSENT:
        return None
    try:
        return _read_exact(handle, length).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise IoFailure(f"corpus {handle.name!r} holds a field that is not UTF-8: {exc}") from exc


def save_corpus(path: str, data: list[LabeledSequence]) -> None:
    try:
        with open(path, "wb") as f:
            f.write(_CORPUS_MAGIC)
            f.write(struct.pack("<BQ", 1, len(data)))
            for item in data:
                _write_str(f, item.record.id)
                _write_str(f, item.label.continent)
                _write_str(f, item.label.country)
                _write_str(f, item.label.state)
                _write_str(f, item.record.residues)
    except OSError as exc:
        raise IoFailure(f"cannot write corpus {path!r}: {exc}") from exc


def load_corpus(path: str) -> list[LabeledSequence]:
    try:
        with open(path, "rb") as f:
            magic = f.read(5)
            if magic != _CORPUS_MAGIC:
                raise IoFailure(f"{path!r} is not a corpus file (bad magic)")
            version, count = struct.unpack("<BQ", _read_exact(f, 9))
            if version != 1:
                raise IoFailure(f"unsupported corpus version {version}")
            data = []
            for index in range(count):
                seq_id, continent, country, state, residues = (_read_str(f) for _ in range(5))
                required = (seq_id, continent, country, residues)
                if None in required:  # only the state may be absent
                    name = ("id", "continent", "country", "residues")[required.index(None)]
                    raise IoFailure(f"corpus {path!r} record {index + 1} of {count} has no {name}")
                # a lone stop too: ingest wrote such a body before parse_fasta rejected it
                if not residues.removesuffix(STOP_CHAR):
                    raise IoFailure(f"corpus {path!r} record {seq_id!r} has no residues")
                data.append(
                    LabeledSequence(
                        record=SequenceRecord(id=seq_id, residues=residues),
                        label=LabelHierarchy(continent=continent, country=country, state=state),
                    )
                )
            # counted by reading, so that a pipe is checked as a file is; 64 KiB reads,
            # as a 1 MiB one raised a run's peak RSS by 0.6 MB
            trailing = sum(len(chunk) for chunk in iter(lambda: f.read(1 << 16), b""))
            if trailing:
                raise IoFailure(f"corpus {path!r} holds {trailing} bytes after its {count} records")
            return data
    except OSError as exc:
        raise IoFailure(f"cannot read corpus {path!r}: {exc}") from exc
