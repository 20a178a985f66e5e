import math

import numpy as np
import pytest

from seqclass.errors import NotNormalized, RaggedLengths, SingleClass
from seqclass.infogain import (
    entropy,
    export_histograms,
    export_ig,
    information_gain,
    position_histograms,
    subsample,
)
from seqclass.ingest import LabeledSequence, LabelHierarchy, SequenceRecord

from conftest import labeled_corpus


def _corpus(rows: list[tuple[str, str]]) -> list[LabeledSequence]:
    """rows of (residues, country)."""
    return [
        LabeledSequence(SequenceRecord(f"s{i}", seq), LabelHierarchy("x", country))
        for i, (seq, country) in enumerate(rows)
    ]


def ig_identity_oracle(data, class_level="country"):
    """IG via H(C) + H(P) - H(C,P), computed from raw dictionaries."""
    from collections import Counter

    n = len(data)
    classes = [item.label.country for item in data]
    h_c = _entropy(Counter(classes).values(), n)
    L = len(data[0].record.residues)
    out = []
    for p in range(L):
        symbols = [item.record.residues[p] for item in data]
        joint = Counter(zip(symbols, classes))
        h_p = _entropy(Counter(symbols).values(), n)
        h_cp = _entropy(joint.values(), n)
        out.append(h_c + h_p - h_cp)
    return np.array(out)


def _entropy(counts, n):
    return -sum((c / n) * math.log2(c / n) for c in counts if c > 0)


# --- entropy -------------------------------------------------------------------

def test_entropy_basic_values():
    assert entropy([0.5, 0.5]) == 1.0
    assert entropy([1.0, 0.0]) == 0.0
    assert entropy([0.25, 0.25, 0.25, 0.25]) == 2.0


def test_entropy_not_normalized():
    with pytest.raises(NotNormalized):
        entropy([0.5, 0.6])
    with pytest.raises(NotNormalized):
        entropy([1.5, -0.5])


# --- information gain ------------------------------------------------------------

def test_ig_constant_position_is_exactly_zero():
    data = _corpus([("AC", "u"), ("AD", "u"), ("AC", "v"), ("AD", "v")])
    table = information_gain(data)
    assert table.ig_bits[0] == 0.0  # column 0 is constant 'A'


def test_ig_perfect_predictor_is_class_entropy():
    data = _corpus([("CA", "u"), ("CA", "u"), ("DA", "v"), ("DA", "v"), ("EA", "w"), ("EA", "w")])
    table = information_gain(data)
    h_c = math.log2(3)
    assert table.class_entropy == pytest.approx(h_c, abs=1e-12)
    assert table.ig_bits[0] == table.class_entropy  # column 0 determines the class
    assert table.ig_bits[1] == 0.0


def test_ig_worked_four_sequence_example():
    # classes {u,u,v,v}, column symbols {A,A,A,C}:
    # IG = 1 - 0.75 * H(2/3, 1/3)
    data = _corpus([("A", "u"), ("A", "u"), ("A", "v"), ("C", "v")])
    table = information_gain(data)
    want = 1.0 - 0.75 * (-(2 / 3) * math.log2(2 / 3) - (1 / 3) * math.log2(1 / 3))
    assert table.ig_bits[0] == pytest.approx(want, abs=1e-12)
    assert table.ig_bits[0] == pytest.approx(0.3113, abs=1e-4)


def test_ig_matches_joint_identity(rng):
    for _ in range(30):
        n = int(rng.integers(4, 40))
        L = int(rng.integers(1, 12))
        n_classes = int(rng.integers(2, 4))
        rows = []
        for i in range(n):
            seq = "".join(rng.choice(list("ACDE"), size=L))
            rows.append((seq, f"c{int(rng.integers(0, n_classes))}"))
        classes = {c for _, c in rows}
        if len(classes) < 2:
            continue
        data = _corpus(rows)
        table = information_gain(data)
        want = ig_identity_oracle(data)
        assert np.allclose(table.ig_bits, want, atol=1e-9)
        assert np.all(table.ig_bits >= 0.0)
        assert np.all(table.ig_bits <= table.class_entropy + 1e-12)


def _reference_ig(hist, n):
    """The per-position, per-residue loop that information_gain replaced, as its reference."""
    def h(counts):
        total = counts.sum()
        if total <= 0:
            return 0.0
        p = counts[counts > 0] / total
        return float(-(p * np.log2(p)).sum())

    h_class = h(hist[0].sum(axis=0))
    ig = np.empty(hist.shape[0])
    for p in range(hist.shape[0]):
        conditional = 0.0
        for s in range(hist.shape[1]):
            n_s = hist[p, s].sum()
            if n_s == 0:
                continue
            conditional += (n_s / n) * h(hist[p, s])
        ig[p] = h_class - conditional
    np.clip(ig, 0.0, h_class, out=ig)
    return ig, h_class


def test_ig_matches_reference_loop(rng):
    shapes = [(4, 1, 2, "AC"), (30, 8, 3, "ACDE"), (200, 40, 6, "ACDEFGHIKLMNPQRSTVWXY"),
              (600, 120, 20, "ACDEFGHIKLMNPQRSTVWXY"), (50, 10, 2, "A")]
    for n, L, n_classes, letters in shapes * 3:
        rows = [("".join(rng.choice(list(letters), size=L)), f"c{i % n_classes}")
                for i in range(n)]
        table = information_gain(_corpus(rows))
        want, h_class = _reference_ig(table.histograms, n)
        assert table.class_entropy == h_class
        assert np.allclose(table.ig_bits, want, rtol=0.0, atol=1e-15)


def test_ig_permutation_invariant(rng):
    data = _corpus([("ACD", "u"), ("CCD", "u"), ("ACE", "v"), ("CDE", "v"), ("AAD", "w"), ("CAD", "w")])
    base = information_gain(data).ig_bits
    perm = rng.permutation(len(data))
    shuffled = [data[i] for i in perm]
    assert np.array_equal(information_gain(shuffled).ig_bits, base)


def test_ig_duplication_invariant():
    data = _corpus([("AC", "u"), ("CD", "v"), ("AD", "u"), ("CC", "v")])
    base = information_gain(data).ig_bits
    doubled = information_gain(data + data).ig_bits
    assert np.allclose(base, doubled, atol=1e-12)


def test_ig_ragged_lengths_names_ids():
    data = _corpus([("AC", "u"), ("ACD", "v")])
    with pytest.raises(RaggedLengths, match="s1"):
        information_gain(data)


def test_ig_single_class():
    data = _corpus([("AC", "u"), ("AD", "u")])
    with pytest.raises(SingleClass):
        information_gain(data)


def test_position_histograms_shape():
    data = _corpus([("AC", "u"), ("CD", "v"), ("AD", "u"), ("CC", "v")])
    hist, class_names = position_histograms(data)
    assert hist.shape == (2, 21, 2)
    assert class_names == ["u", "v"]
    assert hist.sum() == 2 * len(data)


@pytest.mark.parametrize("n_classes", [2, 20])
def test_position_histograms_match_per_column_counts(rng, n_classes):
    """The single bincount against the per-column counts it replaced."""
    letters = list("ACDEFGHIKLMNPQRSTVWXY")
    n, L = 300, 57
    rows = [("".join(rng.choice(letters, size=L)), f"c{i % n_classes:02d}") for i in range(n)]
    data = _corpus(rows)
    hist, class_names = position_histograms(data)
    y = np.array([class_names.index(country) for _, country in rows])
    codes = np.array([[letters.index(ch) for ch in seq] for seq, _ in rows])
    want = np.zeros((L, 21, n_classes), dtype=np.int64)
    for p in range(L):
        want[p] = np.bincount(codes[:, p] * n_classes + y,
                              minlength=21 * n_classes).reshape(21, n_classes)
    assert hist.dtype == want.dtype
    assert np.array_equal(hist, want)


def test_position_histograms_in_blocks_match_one_count_of_the_whole_array(rng):
    """Blocks of 21 C rows (63 here: three full blocks and an 11-row one) against the single
    bincount over the whole (n, L) key array that they replaced."""
    letters = list("ACDEFGHIKLMNPQRSTVWXY")
    n, L, C = 200, 31, 3
    rows = [("".join(rng.choice(letters, size=L)), "uvw"[i % C]) for i in range(n)]
    hist, class_names = position_histograms(_corpus(rows))
    y = np.array([class_names.index(country) for _, country in rows])
    keys = np.array([[letters.index(ch) for ch in seq] for seq, _ in rows], dtype=np.int64)
    keys += np.arange(L) * 21
    keys *= C
    keys += y[:, None]
    want = np.bincount(keys.ravel(), minlength=L * 21 * C).reshape(L, 21, C)
    assert hist.dtype == want.dtype
    assert np.array_equal(hist, want)


# --- subsampling & export -----------------------------------------------------------

def test_subsample_seeded_and_capped():
    data = labeled_corpus({"a": 30, "b": 30}, length=10, seed=1)
    small_a = subsample(data, 12, seed=9)
    small_b = subsample(data, 12, seed=9)
    assert [x.record.id for x in small_a] == [x.record.id for x in small_b]
    assert len(small_a) == 12
    with pytest.warns(UserWarning, match="whole corpus"):
        everything = subsample(data, 10_000, seed=0)
    assert len(everything) == len(data)


def test_export_ig_round_trip(tmp_path):
    data = _corpus([("ACD", "u"), ("CCD", "u"), ("ACE", "v"), ("CDE", "v")])
    table = information_gain(data)
    path = tmp_path / "ig.csv"
    export_ig(table, str(path))
    header, *rows = path.read_text().splitlines()
    assert header == "position,information_gain"
    rows = [row.split(",") for row in rows]
    assert [int(p) for p, _ in rows] == [1, 2, 3]  # 1-based positions
    assert np.allclose([float(v) for _, v in rows], table.ig_bits, atol=1e-9)


def test_export_histograms(tmp_path):
    import json

    data = _corpus([("AC", "u"), ("CD", "v"), ("AD", "u"), ("CC", "v")])
    hist, class_names = position_histograms(data)
    path = tmp_path / "hist.json"
    export_histograms(str(path), hist, class_names)
    payload = json.loads(path.read_text())
    assert payload["class_names"] == ["u", "v"]
    assert len(payload["positions"]) == 2
    assert payload["positions"][0]["position"] == 1


def _json_encoder_histograms(hist, class_names):
    """The bytes export_histograms wrote through json's indenting encoder, the reference."""
    import json

    from seqclass.ingest import AMINO_ACIDS

    positions = [
        {"position": p + 1,
         "symbol_class_counts": {AMINO_ACIDS[s]: counts for s, counts in enumerate(symbols)
                                 if any(counts)}}
        for p, symbols in enumerate(hist.tolist())
    ]
    payload = {"format": "seqclass-ig-hist/1", "class_names": class_names,
               "alphabet": AMINO_ACIDS, "positions": positions}
    return json.dumps(payload, indent=2) + "\n"


@pytest.mark.parametrize("length, class_names", [
    (1, ["u", "v"]),
    (9, ["Zürich", "東京", 'say "hi"\\']),  # non-ASCII and escaped class names
    (40, [f"c{i}" for i in range(20)]),
    (0, ["u", "v"]),
])
def test_export_histograms_writes_json_encoder_bytes(tmp_path, rng, length, class_names):
    hist = rng.poisson(0.2, size=(length, 21, len(class_names)))
    if length > 2:
        hist[1] = 0  # a position where no symbol occurs
        hist[2] = 0
        hist[2, 4, 1] = 7  # a position where only one symbol occurs
    path = tmp_path / "hist.json"
    export_histograms(str(path), hist, class_names)
    assert path.read_bytes() == _json_encoder_histograms(hist, class_names).encode("utf-8")


def test_export_histograms_of_a_corpus_writes_json_encoder_bytes(tmp_path):
    data = labeled_corpus({"a": 30, "b": 20}, length=50, seed=3)
    hist, class_names = position_histograms(data)
    path = tmp_path / "hist.json"
    export_histograms(str(path), hist, class_names)
    assert path.read_bytes() == _json_encoder_histograms(hist, class_names).encode("utf-8")
