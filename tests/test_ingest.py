import io
import re

import numpy as np
import pytest

import seqclass.ingest as ingest
from seqclass.cli import main
from seqclass.errors import (
    ClassTooSmall,
    DuplicateMetadataKey,
    EmptyJoin,
    InvalidConfig,
    InvalidResidue,
    IoFailure,
    MalformedFasta,
)
from seqclass.features import featurize_corpus
from seqclass.infogain import position_histograms
from seqclass.ingest import (
    AMINO_ACIDS,
    LabeledSequence,
    LabelHierarchy,
    SequenceRecord,
    class_ids,
    join_metadata,
    encode_residues,
    label_for_level,
    load_corpus,
    parse_fasta,
    read_metadata_tsv,
    residue_codes,
    save_corpus,
    split_indices,
)

from conftest import labeled_corpus, random_sequences


def test_parse_single_record():
    assert parse_fasta(io.StringIO(">s1\nMDPEG\n")) == [SequenceRecord("s1", "MDPEG")]


def test_parse_wrapped_lines_and_stop_char():
    records = parse_fasta(io.StringIO(">s1\nMDP\nEG\n>s2\nAAA*\n"))
    assert [r.residues for r in records] == ["MDPEG", "AAA"]
    assert [r.id for r in records] == ["s1", "s2"]


def test_parse_invalid_residue_reports_position():
    with pytest.raises(InvalidResidue) as err:
        parse_fasta(io.StringIO(">s1\nMDZ\n"))
    assert err.value.seq_id == "s1"
    assert err.value.position == 3
    assert err.value.char == "Z"


def test_parse_data_before_header():
    with pytest.raises(MalformedFasta):
        parse_fasta(io.StringIO("MDPEG\n>s1\nAAA\n"))


def test_parse_empty_body():
    with pytest.raises(MalformedFasta):
        parse_fasta(io.StringIO(">s1\n>s2\nAAA\n"))
    with pytest.raises(MalformedFasta):
        parse_fasta(io.StringIO(">s1\nAAA\n>s2\n"))
    with pytest.raises(MalformedFasta, match="record 'a' has an empty sequence body"):
        parse_fasta(io.StringIO(">a\n*\n>b\nACDE\n"))  # only the stop


def test_parse_duplicate_or_empty_header():
    with pytest.raises(MalformedFasta):
        parse_fasta(io.StringIO(">s1\nAAA\n>s1\nCCC\n"))
    with pytest.raises(MalformedFasta):
        parse_fasta(io.StringIO(">\nAAA\n"))


def test_fasta_round_trip(rng):
    seqs = random_sequences(rng, 25, 40)
    records = [SequenceRecord(f"id{i}", s) for i, s in enumerate(seqs)]
    text = "".join(f">{rec.id}\n{rec.residues}{'*' if i % 3 == 0 else ''}\n"
                   for i, rec in enumerate(records))
    assert parse_fasta(io.StringIO(text)) == records


def test_validation_accepts_exactly_the_alphabet():
    # every printable byte: valid inside the body iff it is an alphabet letter
    for code in range(33, 127):
        ch = chr(code)
        fasta = io.StringIO(f">x\nA{ch}A\n")
        if ch in AMINO_ACIDS:
            assert parse_fasta(fasta) == [SequenceRecord("x", "A" + ch + "A")]
        else:
            with pytest.raises(InvalidResidue) as err:
                parse_fasta(fasta)
            assert (err.value.seq_id, err.value.position, err.value.char) == ("x", 2, ch)
    assert parse_fasta(io.StringIO(">x\nAA*\n"))[0].residues == "AA"  # one trailing stop is dropped
    with pytest.raises(InvalidResidue) as err:
        parse_fasta(io.StringIO(">x\nAA**\n"))  # but only one
    assert (err.value.position, err.value.char) == (3, "*")


def test_structural_fault_is_reported_before_a_bad_residue():
    # residues are checked once the whole file parses
    for text in (">s1\nMDZ\n>s2\n>s3\nAAA\n", ">s1\nMDZ\n>s1\nAAA\n", ">s1\nMDZ\nAA\nQQ\n>\n"):
        with pytest.raises(MalformedFasta):
            parse_fasta(io.StringIO(text))


def _numpy_codes(text: str) -> np.ndarray:
    """The numpy table lookup that the bytes.translate table replaced."""
    table = np.full(256, 255, dtype=np.uint8)
    table[np.frombuffer(AMINO_ACIDS.encode("ascii"), dtype=np.uint8)] = np.arange(len(AMINO_ACIDS))
    return table[np.frombuffer(text.encode("ascii", errors="replace"), dtype=np.uint8)]


def test_translate_codes_equal_the_numpy_lookup(rng):
    every_byte = "".join(map(chr, range(256)))  # code points above 127 become "?"
    assert ingest._CODE[:128] == _numpy_codes(every_byte)[:128].tobytes()
    assert ingest._CODE[128:] == b"\xff" * 128
    texts = ["".join(map(chr, range(128))), AMINO_ACIDS, AMINO_ACIDS[::-1] * 3,
             "".join(rng.choice(list(AMINO_ACIDS), 5000)),
             "".join(map(chr, rng.integers(0, 128, 5000))),
             "AC\u00e9D\u4e2dE\U0001f600Y\udcff", "\u00e9" * 3 + "ACD"]
    for text in texts:
        want = _numpy_codes(text)
        assert text.encode("ascii", errors="replace").translate(ingest._CODE) == want.tobytes()
        bad = np.flatnonzero(want == 255)
        if bad.size == 0:
            codes, lengths = encode_residues(["s"], [text])
            assert codes.dtype == want.dtype and codes.tobytes() == want.tobytes()
            assert residue_codes(["s"], [text]) == want.tobytes()
            assert lengths.tolist() == [len(text)]
            continue
        for check in (residue_codes, encode_residues):
            with pytest.raises(InvalidResidue) as err:
                check(["s"], [text])
            assert (err.value.position, err.value.char) == (bad[0] + 1, text[bad[0]])


def _fasta_with(seqs, bad_row, bad):
    seqs = list(seqs)
    seqs[bad_row] = bad
    return "".join(f">q{i}\n{s}\n" for i, s in enumerate(seqs))


@pytest.mark.parametrize("bad_row, bad, position, char", [
    (299, "A" * 39 + "Z", 40, "Z"),  # the last record, in the last block
    (52, "A" * 10 + "\u00e9" + "A" * 29, 11, "\u00e9"),  # inside the second 2000-residue block
    (50, "A" * 39 + "-", 40, "-"),  # the record that carries a block past 2001 residues
    (49, "A" * 39 + "B", 40, "B"),  # its last residue is the 2000th, past a 1999 block
])
def test_parse_fasta_names_a_bad_residue_in_any_block(rng, monkeypatch, bad_row, bad,
                                                      position, char):
    """parse_fasta checks records in blocks of at least _CHECK_RESIDUES residues (here 2000,
    so 50 records of 40): a bad residue in the last block, or in the record whose residues
    carry a block past the size, is named as one check of the whole corpus names it."""
    text = _fasta_with(random_sequences(rng, 300, 40), bad_row, bad)
    reports = []
    for block in (1 << 22, 2000, 1999, 2001, 1):
        monkeypatch.setattr(ingest, "_CHECK_RESIDUES", block)
        with pytest.raises(InvalidResidue) as err:
            parse_fasta(io.StringIO(text))
        reports.append((err.value.seq_id, err.value.position, err.value.char))
    assert reports == [(f"q{bad_row}", position, char)] * 5


def test_parse_fasta_names_the_first_bad_residue_of_several_blocks(rng, monkeypatch):
    seqs = random_sequences(rng, 300, 40)
    seqs[280] = "A" * 5 + "J" + "A" * 34
    text = _fasta_with(seqs, 120, "A" * 20 + "O" + "A" * 19)
    monkeypatch.setattr(ingest, "_CHECK_RESIDUES", 2000)
    with pytest.raises(InvalidResidue) as err:
        parse_fasta(io.StringIO(text))
    assert (err.value.seq_id, err.value.position, err.value.char) == ("q120", 21, "O")


def test_round_half_up_matches_numpy_floor(rng):
    values = [0.0, 0.5, 1.5, 2.5, -0.5, -1.5, 0.49999999999999994, 2**52 + 0.5, 1e300, -1e300,
              *(rng.random(1000) * 1e6), *(np.arange(-40, 41) / 2)]
    for x in map(float, values):
        got = ingest._round_half_up(x)
        assert type(got) is int and got == int(np.floor(x + 0.5))


def test_metadata_reader_and_state_optional():
    tsv = "id\tcontinent\tcountry\tstate\na\tAsia\tJapan\t\nb\tEurope\tFrance\tIDF\n"
    table = read_metadata_tsv(io.StringIO(tsv))
    assert table["a"] == LabelHierarchy("Asia", "Japan", None)
    assert table["b"].state == "IDF"


@pytest.mark.parametrize("row, name", [("b\t\tFrance\tIDF", "continent"),
                                       ("b\tEurope\t\t", "country"),
                                       ("b\t\t", "continent")])
def test_metadata_empty_continent_or_country_is_io_failure(row, name):
    tsv = f"id\tcontinent\tcountry\tstate\na\tAsia\tJapan\t\n{row}\n"
    with pytest.raises(IoFailure, match=f"metadata line 3: empty {name} field"):
        read_metadata_tsv(io.StringIO(tsv))


def test_metadata_duplicate_key():
    tsv = "id\tcontinent\tcountry\tstate\na\tAsia\tJapan\t\na\tAsia\tJapan\t\n"
    with pytest.raises(DuplicateMetadataKey):
        read_metadata_tsv(io.StringIO(tsv))


def test_join_drops_unmatched_and_reports(capsys):
    records = [SequenceRecord(f"s{i}", "MDPEG") for i in range(3)]
    meta = {
        "s0": LabelHierarchy("Asia", "Japan"),
        "s2": LabelHierarchy("Europe", "France"),
    }
    joined = join_metadata(records, meta)
    assert [item.record.id for item in joined] == ["s0", "s2"]
    assert "1 dropped" in capsys.readouterr().err


def test_join_returns_the_parsed_records_themselves():
    records = parse_fasta(io.StringIO(">s0\nMDPEG*\n>s1\nMD\nPE*\n>s2\nMDP\n*\n"))
    meta = {f"s{i}": LabelHierarchy("Asia", "Japan") for i in range(3)}
    joined = join_metadata(records, meta, report=io.StringIO())
    assert all(item.record is rec for item, rec in zip(joined, records, strict=True))
    assert [item.record.residues for item in joined] == ["MDPEG", "MDPE", "MDP"]


def test_join_empty():
    with pytest.raises(EmptyJoin):
        join_metadata([SequenceRecord("s0", "MDPEG")], {"zzz": LabelHierarchy("a", "b")})


def test_label_for_level():
    label = LabelHierarchy("Europe", "France", "IDF")
    assert label_for_level(label, "continent") == "Europe"
    assert label_for_level(label, "country") == "France"
    assert label_for_level(label, "state") == "IDF"
    with pytest.raises(InvalidConfig, match="unknown class level 'city'"):
        label_for_level(label, "city")
    with pytest.raises(InvalidConfig, match="class level 'state' requested but a label has no state"):
        label_for_level(LabelHierarchy("Europe", "France"), "state")


def _split(data, train_fraction, seed, stratified=True):
    """Train and test items of a split (by country when stratified), each in corpus order."""
    labels = [item.label.country for item in data] if stratified else None
    train_idx, test_idx = split_indices(len(data), train_fraction, seed, labels)
    return [data[i] for i in train_idx], [data[i] for i in test_idx]


def test_split_sizes_and_determinism():
    data = labeled_corpus({"a": 50, "b": 50}, seed=3)
    train, test = _split(data, 0.10, 7)
    assert len(train) == 10 and len(test) == 90
    ids = {item.record.id for item in train}
    assert ids.isdisjoint({item.record.id for item in test})
    train2, _ = _split(data, 0.10, 7)
    assert [t.record.id for t in train] == [t.record.id for t in train2]


def test_split_stratified_rounding():
    # 0.10 of {a: 60, b: 40} must give exactly 6 + 4: enumerate memberships
    data = labeled_corpus({"a": 60, "b": 40}, seed=5)
    train, _ = _split(data, 0.10, 11)
    by_class = {"a": 0, "b": 0}
    for item in train:
        by_class[item.label.country] += 1
    assert by_class == {"a": 6, "b": 4}


def test_split_partition_property():
    rng = np.random.default_rng(0)
    for _ in range(25):
        n = int(rng.integers(10, 300))
        frac = float(rng.uniform(0.05, 0.9))
        seed = int(rng.integers(0, 10_000))
        stratified = bool(rng.integers(0, 2))
        labels = [f"c{int(x)}" for x in rng.integers(0, 3, size=n)]
        while stratified and min(labels.count(c) for c in set(labels)) < 2:
            labels = [f"c{int(x)}" for x in rng.integers(0, 3, size=n)]
        tr, te = split_indices(n, frac, seed, labels if stratified else None)
        assert len(tr) == int(np.floor(frac * n + 0.5))
        assert len(set(tr) & set(te)) == 0
        assert sorted(set(tr) | set(te)) == list(range(n))


def test_split_class_too_small():
    data = labeled_corpus({"a": 10, "b": 1}, seed=2)
    with pytest.raises(ClassTooSmall):
        _split(data, 0.5, 0, stratified=True)


def test_split_unstratified_ignores_singletons():
    data = labeled_corpus({"a": 10, "b": 1}, seed=2)
    train, test = _split(data, 0.5, 0, stratified=False)
    assert len(train) == 6 and len(test) == 5


def _reference_split(n, train_fraction, seed, class_labels):
    """The dict-of-lists stratified split that split_indices replaced, as its reference."""
    n_train = int(np.floor(train_fraction * n + 0.5))
    rng = np.random.default_rng(seed)
    class_names = sorted(set(class_labels))
    members = {name: [] for name in class_names}
    for i, name in enumerate(class_labels):
        members[name].append(i)
    for name in class_names:
        if len(members[name]) == 1:
            raise ClassTooSmall(f"class {name!r} has a single member; stratified split needs >= 2")
    counts = np.array([len(members[name]) for name in class_names])
    quotas = n_train * counts / counts.sum()
    takes = np.floor(quotas).astype(int)
    short = n_train - takes.sum()
    if short > 0:
        order = np.lexsort((np.arange(len(counts)), -(quotas - takes)))
        takes[order[:short]] += 1
    picked = []
    for name, take in zip(class_names, takes):
        idx = np.array(members[name])
        picked.extend(idx[rng.permutation(len(idx))[:take]].tolist())
    train_idx = np.sort(np.array(picked, dtype=np.int64))
    return train_idx, np.setdiff1d(np.arange(n), train_idx)


# mixed case, non-ASCII and a trailing NUL: sorted by code point, as Python sorts str
_NAMES = ["a", "A", "b", "B", "Ä", "é", "ß", "日本", "a b", "a\x00", "z"]


def _split_cases(rng, count):
    for _ in range(count):
        n = int(rng.integers(2, 200))
        classes = rng.choice(len(_NAMES), size=int(rng.integers(1, len(_NAMES) + 1)), replace=False)
        names = [_NAMES[c] for c in rng.choice(classes, size=n)]
        fraction = float(rng.uniform(0.02, 0.98))
        yield n, (fraction, int(rng.integers(0, 2**31))), names
    # largest-remainder ties: equal classes whose quotas all end in .5, or in thirds
    for sizes, fraction in (([5, 5, 5], 0.1), ([3, 3, 3, 3], 0.5), ([2, 2, 2], 0.5),
                            ([4, 4, 4, 4, 4, 4], 0.25), ([7, 7, 7], 1 / 3)):
        names = [_NAMES[c] for c, size in enumerate(sizes) for _ in range(size)]
        for seed in range(3):
            yield len(names), (fraction, seed), names


def test_split_is_bit_identical_to_reference_for_names_and_ids(rng):
    small = 0
    for n, spec, names in _split_cases(rng, 400):
        index = {name: i for i, name in enumerate(sorted(set(names)))}
        ids = np.array([index[name] for name in names], dtype=np.int64)
        try:
            want = _reference_split(n, *spec, names)
        except ClassTooSmall as exc:
            small += 1
            first = min(name for name in names if names.count(name) == 1)
            assert str(exc).startswith(f"class {first!r} ")
            with pytest.raises(ClassTooSmall, match=f"^class {re.escape(repr(first))} "):
                split_indices(n, *spec, names)
            with pytest.raises(ClassTooSmall, match=f"^class {index[first]} "):
                split_indices(n, *spec, ids)
            continue
        for labels in (names, ids, np.asarray(names, dtype=object)):
            got = split_indices(n, *spec, labels)
            assert all(g.dtype == np.int64 for g in got)
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
    assert 0 < small < 400  # both branches ran


def test_class_ids_own_the_ids_of_features_and_ig():
    data = labeled_corpus({"b": 4, "Ä": 3, "a": 5, "B": 2, "日本": 3}, length=12, seed=4)
    for level in ("country", "state"):
        ids, class_names = class_ids(data, level)
        assert ids.dtype == np.int64
        assert class_names == sorted({label_for_level(item.label, level) for item in data})
        assert [class_names[i] for i in ids] == [label_for_level(item.label, level) for item in data]
        feats = featurize_corpus(data, "kmers", k=2, class_level=level)
        assert np.array_equal(feats.labels, ids) and feats.class_names == class_names
        hist, hist_names = position_histograms(data, level)
        assert hist_names == class_names
        # the class axis of every position's histogram counts the members of each id
        assert np.array_equal(hist.sum(axis=1), np.tile(np.bincount(ids), (hist.shape[0], 1)))


def test_corpus_round_trip(tmp_path, rng):
    data = labeled_corpus({"a": 5, "b": 7}, seed=9)
    # exercise the optional-state encoding too
    path = tmp_path / "corpus.bin"
    save_corpus(str(path), data)
    assert load_corpus(str(path)) == data


@pytest.mark.parametrize("field", ["id", "continent", "country", "residues"])
def test_corpus_with_an_absent_field_other_than_state_is_io_failure(tmp_path, field):
    data = labeled_corpus({"a": 3, "b": 2}, length=6, seed=4)
    item = data[-1]
    record = SequenceRecord(None if field == "id" else item.record.id,
                            None if field == "residues" else item.record.residues)
    label = LabelHierarchy(None if field == "continent" else item.label.continent,
                           None if field == "country" else item.label.country, item.label.state)
    path = tmp_path / "corpus.bin"
    save_corpus(str(path), data[:-1] + [LabeledSequence(record, label)])
    with pytest.raises(IoFailure, match=f"corpus.bin' record 5 of 5 has no {field}$"):
        load_corpus(str(path))
    absent_state = LabeledSequence(item.record, LabelHierarchy("Europe", "France"))
    save_corpus(str(path), data[:-1] + [absent_state])
    assert load_corpus(str(path))[-1] == absent_state


def test_truncated_or_undecodable_corpus_is_io_failure(tmp_path):
    data = labeled_corpus({"a": 3, "b": 2}, length=6, seed=4)
    path = tmp_path / "corpus.bin"
    save_corpus(str(path), data)
    blob = path.read_bytes()
    cut = tmp_path / "cut.bin"
    for offset in range(len(blob)):
        cut.write_bytes(blob[:offset])
        with pytest.raises(IoFailure):
            load_corpus(str(cut))
        assert main(["run", "--corpus", str(cut)]) == 3, offset
    first_id = data[0].record.id.encode()
    cut.write_bytes(blob.replace(first_id, b"\xff" * len(first_id), 1))
    with pytest.raises(IoFailure, match="UTF-8"):
        load_corpus(str(cut))
    assert main(["run", "--corpus", str(cut)]) == 3


def test_corpus_with_bytes_after_its_records_is_io_failure(tmp_path, capsys):
    first, second = (labeled_corpus({"a": 1, "b": 1}, length=6, seed=seed) for seed in (1, 2))
    one, two = tmp_path / "one.bin", tmp_path / "two.bin"
    save_corpus(str(one), first)
    save_corpus(str(two), second)
    joined = tmp_path / "joined.bin"  # as `cat one.bin two.bin` writes it
    joined.write_bytes(one.read_bytes() + two.read_bytes())
    trailing = two.stat().st_size
    with pytest.raises(IoFailure, match=f"holds {trailing} bytes after its 2 records$"):
        load_corpus(str(joined))
    capsys.readouterr()
    assert main(["run", "--corpus", str(joined)]) == 3
    assert f"{trailing} bytes after its 2 records" in capsys.readouterr().err
    joined.write_bytes(one.read_bytes() + b"\0" * 3)
    with pytest.raises(IoFailure, match="holds 3 bytes after"):
        load_corpus(str(joined))


def test_cli_ingest_of_stop_terminated_fasta_writes_the_stop_free_corpus(tmp_path, rng):
    seqs = random_sequences(rng, 12, 30)
    metadata = tmp_path / "meta.tsv"
    metadata.write_text("id\tcontinent\tcountry\tstate\n"
                        + "".join(f"s{i}\tAsia\tc{i % 2}\t\n" for i in range(len(seqs))))

    def ingest_bytes(name, body):
        fasta, out = tmp_path / f"{name}.fa", tmp_path / f"{name}.bin"
        fasta.write_text("".join(f">s{i}\n{body(i, s)}\n" for i, s in enumerate(seqs)))
        assert main(["ingest", "--fasta", str(fasta), "--metadata", str(metadata),
                     "--out", str(out)]) == 0
        return out.read_bytes()

    # unwrapped, wrapped, and followed by an empty line: with a stop appended, the stop ends
    # the one line, ends the last line, and stands alone on the last line
    layouts = (lambda s: s, lambda s: f"{s[:10]}\n{s[10:]}", lambda s: f"{s}\n")
    stop_free = ingest_bytes("plain", lambda i, s: layouts[i % 3](s))
    stopped = ingest_bytes("stops", lambda i, s: layouts[i % 3](s) + "*")
    assert stopped == stop_free
    assert load_corpus(str(tmp_path / "plain.bin"))[0].record.residues == seqs[0]
