"""Exit-code fuzz gate: whatever the bytes of its inputs or the values of its flags, a command
exits 0, 2 (config), 3 (data) or 4 (numerical), and raises nothing else.

Hypothesis mutates valid inputs: a FASTA file (with and without trailing stops), its metadata
TSV, a corpus file and a `--config` file, and the flag values of `ingest`, `run` (`nb`, and
RFF `lr`), `featurize` (k-mers and one-hot) and `ig`. Examples are derandomized, so each run
tries the same inputs. Each example builds its files in its own temporary directory, as
hypothesis rejects function-scoped fixtures under ``@given``.
"""

import contextlib
import io
import tempfile
import warnings
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from seqclass.cli import main
from seqclass.ingest import LabeledSequence, LabelHierarchy, SequenceRecord, save_corpus

from conftest import random_sequences

EXITS = {0, 2, 3, 4}
LENGTH = 16  # every sequence, so one-hot featurization and information gain accept the corpus
SEQS = random_sequences(np.random.default_rng(5), 12, LENGTH)
COUNTRIES = ("France", "Japan", "Chile")


def fuzz(examples: int):
    return settings(max_examples=examples, derandomize=True, database=None, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


def fasta_text(stops: bool) -> str:
    """Unwrapped, wrapped and stop-alone-on-a-line records."""
    shapes = (lambda s: s, lambda s: f"{s[:5]}\n{s[5:]}", lambda s: f"{s}\n")
    return "".join(f">s{i}\n{shapes[i % 3](s)}{'*' if stops else ''}\n"
                   for i, s in enumerate(SEQS))


METADATA = "id\tcontinent\tcountry\tstate\n" + "".join(
    f"s{i}\tEurope\t{COUNTRIES[i % 3]}\t{'' if i % 2 else 'x'}\n" for i in range(len(SEQS)))
CORPUS = [LabeledSequence(SequenceRecord(f"s{i}", s), LabelHierarchy("Europe", COUNTRIES[i % 3]))
          for i, s in enumerate(SEQS)]

# bytes that carry meaning in one of the formats, and any byte or two
_BYTES = st.one_of(st.sampled_from([b">", b"\n", b"\t", b"*", b"Z", b"=", b"#", b"\x00", b"\xff",
                                    b"\xef\xbb\xbf", b"-", b"9"]),
                   st.binary(min_size=1, max_size=2))


@st.composite
def mutated(draw, blob: bytes) -> bytes:
    """``blob`` after up to three edits: replace, insert or delete a byte, or truncate."""
    out = bytearray(blob)
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, max(len(out) - 1, 0)))
        edit = draw(st.sampled_from(("replace", "insert", "delete", "truncate")))
        if edit == "replace":
            out[at:at + 1] = draw(_BYTES)
        elif edit == "insert":
            out[at:at] = draw(_BYTES)
        elif edit == "delete":
            del out[at:at + 1]
        else:
            del out[at:]
    return bytes(out)


# large values only where they cost nothing: runs, iterations and widths stay small
_INT = ["0", "-1", "1", "2", "1.5", "", "x", "1e3"]
_BIG_INT = _INT + ["99999999999999999999999"]
_FLOAT = ["0", "-1", "0.5", "1", "nan", "inf", "-inf", "1e309", "1e-320", "", "x"]
_BOOL = ["true", "false", "yes", "2", ""]


@st.composite
def _flags(draw, **flags: tuple[str, list[str]]) -> list[str]:
    """``--name value`` pairs: each flag's valid value, except up to two flags that have edge
    values, each of which takes one of them or text with no digits in it."""
    bad = draw(st.sets(st.sampled_from(sorted(name for name, (_, edges) in flags.items()
                                              if edges)), max_size=2))
    argv = []
    for name, (valid, edges) in flags.items():
        value = valid
        if name in bad:
            value = draw(st.one_of(st.sampled_from(edges), st.text(
                st.characters(exclude_categories=("Nd", "Cs")), max_size=3)))
        argv += [f"--{name.replace('_', '-')}", value]
    return argv


COMMANDS = {
    "run-nb": _flags(model=("nb", ["lr", "svm", ""]), k=("2", _BIG_INT),
                     encoding=("kmers", ["ohe", "x"]), expected_len=("", _BIG_INT),
                     runs=("2", _INT), train_fraction=("0.5", _FLOAT),
                     split_seed=("0", _BIG_INT), parallel_runs=("false", _BOOL),
                     workers=("1", _BIG_INT), l2_normalize=("false", _BOOL),
                     class_level=("country", ["state", "continent", "city"])),
    "run-rff-lr": _flags(model=("lr", []), use_rff=("true", _BOOL), k=("2", _BIG_INT),
                         rff_dim=("16", _INT), rff_gamma=("", _FLOAT), rff_seed=("0", _BIG_INT),
                         lr_l2_lambda=("0.0001", _FLOAT), lr_max_iters=("20", _INT),
                         lr_tol=("0.000001", _FLOAT), runs=("1", _INT),
                         train_fraction=("0.5", _FLOAT)),
    "featurize-kmers": _flags(encoding=("kmers", []), k=("2", _BIG_INT),
                              workers=("2", _BIG_INT), class_level=("country", ["state", "city"])),
    "featurize-ohe": _flags(encoding=("ohe", []), expected_len=(str(LENGTH), _BIG_INT),
                            workers=("1", _BIG_INT)),
    "ig": _flags(subsample=("8", _BIG_INT), seed=("0", _BIG_INT),
                 class_level=("country", ["state", "city"])),
}


def exit_code(argv: list[str]) -> int:
    """`cli.main`'s exit, with argparse's own exit (2, or 0 for --help) taken as the code.
    Its output and warnings (zero-denominator metric terms, an oversized subsample) are
    dropped: only the exit is checked here."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()), \
            warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    event(f"{argv[0]} exit {code}")  # the mix of exits, under --hypothesis-show-statistics
    return code


def _argv(command: str, corpus: Path, tmp: Path) -> list[str]:
    if command.startswith("run"):
        return ["run", "--corpus", str(corpus)]
    if command == "ig":
        return ["ig", "--corpus", str(corpus), "--out", str(tmp / "ig.csv"),
                "--histograms", str(tmp / "hist.json")]
    return ["featurize", "--corpus", str(corpus), "--out-features", str(tmp / "f.bin"),
            "--out-labels", str(tmp / "l.json"), "--csv", str(tmp / "f.csv")]


@fuzz(100)
@given(stops=st.booleans(), data=st.data())
def test_ingest_of_mutated_fasta_and_metadata_exits_by_contract(stops, data):
    fasta = data.draw(mutated(fasta_text(stops).encode()), label="fasta")
    metadata = data.draw(mutated(METADATA.encode()), label="metadata")
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "in.fa").write_bytes(fasta)
        (tmp / "in.tsv").write_bytes(metadata)
        assert exit_code(["ingest", "--fasta", str(tmp / "in.fa"), "--metadata",
                          str(tmp / "in.tsv"), "--out", str(tmp / "out.bin")]) in EXITS


@fuzz(300)
@given(command=st.sampled_from(sorted(COMMANDS)), data=st.data())
def test_commands_on_a_mutated_corpus_or_flags_exit_by_contract(command, data):
    flags = data.draw(COMMANDS[command], label="flags")
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        corpus = tmp / "corpus.bin"
        save_corpus(str(corpus), CORPUS)
        if data.draw(st.booleans(), label="mutate the corpus"):  # else the flags alone
            corpus.write_bytes(data.draw(mutated(corpus.read_bytes()), label="corpus"))
        assert exit_code(_argv(command, corpus, tmp) + flags) in EXITS


@fuzz(60)
@given(model=st.sampled_from(["nb", "lr"]), data=st.data())
def test_run_with_a_mutated_config_file_exits_by_contract(model, data):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        save_corpus(str(tmp / "corpus.bin"), CORPUS)
        (tmp / "in.fa").write_text(fasta_text(stops=True))
        (tmp / "in.tsv").write_text(METADATA)
        source = (f"corpus = {tmp / 'corpus.bin'}\n" if model == "nb" else
                  f"fasta = {tmp / 'in.fa'}\nmetadata = {tmp / 'in.tsv'}\nuse_rff = true\n"
                  "rff_dim = 16\nlr_max_iters = 20\n")
        text = (f"# fuzzed\n{source}model = {model}\nk = 2\nruns = 2\ntrain_fraction = 0.5\n"
                "split_seed = 3\n")
        config = tmp / "run.cfg"
        config.write_bytes(data.draw(mutated(text.encode()), label="config"))
        assert exit_code(["run", "--config", str(config)]) in EXITS
