import json
import os
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from seqclass.cli import main
from seqclass.config import ExperimentConfig, config_from_mapping, parse_config_file
from seqclass.errors import EmptyMatrix, EmptyTrainingSet, InvalidConfig, IoFailure
from seqclass.ingest import LabeledSequence, LabelHierarchy, SequenceRecord, save_corpus
from seqclass.pipeline import (_score_block_rows, report_to_json, run_experiment, strip_timing,
                               write_report_csv)

from conftest import labeled_corpus, random_sequences, read_sqfv1

ROOT = Path(__file__).resolve().parent.parent


# each config key's kind, read off its annotation ("int", "float | None", ...)
KINDS = {f.name: f.type.split(" | ")[0] for f in fields(ExperimentConfig)}
NUMERIC_KEYS = sorted(key for key, kind in KINDS.items() if kind in ("int", "float"))


def _write_inputs(tmp_path, class_sizes, length=24, seed=0):
    """FASTA + metadata TSV + prebuilt corpus for the same synthetic data."""
    data = labeled_corpus(class_sizes, length=length, seed=seed)
    fasta = tmp_path / "seqs.fasta"
    with open(fasta, "w") as f:
        for item in data:
            f.write(f">{item.record.id}\n{item.record.residues}\n")
    meta = tmp_path / "meta.tsv"
    with open(meta, "w") as f:
        f.write("id\tcontinent\tcountry\tstate\n")
        for item in data:
            f.write(
                f"{item.record.id}\t{item.label.continent}\t{item.label.country}"
                f"\t{item.label.state or ''}\n"
            )
    corpus = tmp_path / "corpus.bin"
    save_corpus(str(corpus), data)
    return data, fasta, meta, corpus


# --- configuration -----------------------------------------------------------

def test_parse_config_file(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(
        "# comment\n"
        "model = nb\n"
        "runs=3\n"
        "use_rff = true  # inline comment\n"
        "train_fraction = 0.2\n"
    )
    config = config_from_mapping(parse_config_file(str(path)))
    assert config.model == "nb"
    assert config.runs == 3
    assert config.use_rff is True
    assert config.train_fraction == 0.2


def test_config_file_with_a_byte_order_mark_parses_as_without(tmp_path):
    text = "model = nb\nruns = 3\n"
    plain, marked = tmp_path / "plain.cfg", tmp_path / "marked.cfg"
    plain.write_text(text, encoding="utf-8")
    marked.write_text(text, encoding="utf-8-sig")  # as Windows editors save it
    assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
    assert parse_config_file(str(marked)) == parse_config_file(str(plain)) == {
        "model": "nb", "runs": "3"}


def test_cli_ingest_of_inputs_with_a_byte_order_mark_writes_the_same_corpus(tmp_path):
    _, fasta, meta, _ = _write_inputs(tmp_path, {"a": 5, "b": 5})
    marked = {}
    for path in (fasta, meta):
        marked[path] = tmp_path / f"marked-{path.name}"
        marked[path].write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    out_plain, out_marked = tmp_path / "plain.bin", tmp_path / "marked.bin"
    assert main(["ingest", "--fasta", str(fasta), "--metadata", str(meta),
                 "--out", str(out_plain)]) == 0
    assert main(["ingest", "--fasta", str(marked[fasta]), "--metadata", str(marked[meta]),
                 "--out", str(out_marked)]) == 0
    assert out_marked.read_bytes() == out_plain.read_bytes()


def test_every_field_round_trips_through_its_string():
    values = dict(
        fasta="a.fa", metadata="m.tsv", corpus="c.bin", class_level="state", encoding="ohe", k=4,
        expected_len=30, l2_normalize=True, use_rff=True, rff_dim=64, rff_gamma=0.25, rff_seed=3,
        model="nn", lr_l2_lambda=0.01, lr_max_iters=7, lr_tol=1e-3, ridge_alpha=2.5,
        nn_hidden_width=16, nn_batch_size=10, nn_epochs=3, nn_learning_rate=0.01, nn_seed=4,
        train_fraction=0.3, stratified=False, split_seed=5, runs=2, parallel_runs=True, workers=2,
        output_dir="out",
    )
    assert list(values) == list(KINDS)
    default = ExperimentConfig()
    assert all(getattr(default, key) != value for key, value in values.items())
    config = config_from_mapping({key: str(value) for key, value in values.items()})
    assert config == ExperimentConfig(**values)
    assert all(type(getattr(config, key)).__name__ == kind for key, kind in KINDS.items())


def test_config_rejects_unknown_key():
    with pytest.raises(InvalidConfig):
        config_from_mapping({"frobnicate": "1"})


def test_config_rejects_bad_values():
    with pytest.raises(InvalidConfig):
        config_from_mapping({"use_rff": "maybe"})
    with pytest.raises(InvalidConfig):
        config_from_mapping({"model": "svm"})
    with pytest.raises(InvalidConfig):
        config_from_mapping({"runs": "none"})


def test_config_optional_none():
    config = config_from_mapping({"rff_gamma": "none", "nn_hidden_width": ""})
    assert config.rff_gamma is None
    assert config.nn_hidden_width is None


# --- experiment runs ----------------------------------------------------------

def test_majority_experiment_matches_closed_form():
    data = labeled_corpus({"big": 60, "s1": 10, "s2": 10, "s3": 10, "s4": 10}, seed=7)
    config = ExperimentConfig(model="majority", class_level="country", runs=5)
    report = run_experiment(config, data)
    agg = report["aggregate"]
    assert agg["mean"]["accuracy"] == pytest.approx(0.60, abs=1e-9)
    assert agg["mean"]["precision_weighted"] == pytest.approx(0.36, abs=1e-9)
    assert agg["mean"]["f1_weighted"] == pytest.approx(0.45, abs=1e-9)
    assert agg["mean"]["f1_macro"] == pytest.approx(0.15, abs=1e-9)
    assert agg["mean"]["roc_auc_weighted_ovr"] == pytest.approx(0.50, abs=1e-9)
    assert all(v == 0.0 for v in agg["std"].values())
    assert report["runs"][1]["seeds"]["split"] == 1  # seed + run index


def test_single_run_has_zero_std():
    data = labeled_corpus({"a": 30, "b": 20}, seed=3)
    config = ExperimentConfig(model="majority", runs=1)
    report = run_experiment(config, data)
    assert report["aggregate"]["run_count"] == 1
    assert all(v == 0.0 for v in report["aggregate"]["std"].values())


def test_experiment_is_deterministic():
    data = labeled_corpus({"a": 40, "b": 30, "c": 30}, seed=5)
    config = ExperimentConfig(model="ridge", use_rff=True, rff_dim=32, runs=2)
    report_a = run_experiment(config, data)
    report_b = run_experiment(config, data)
    assert report_to_json(strip_timing(report_a)) == report_to_json(strip_timing(report_b))
    # the timing subtree is the only thing stripped
    stripped = strip_timing(report_a)
    assert "timing" not in stripped["runs"][0]
    assert "metrics" in stripped["runs"][0]
    # 10 train rows on 32 RFF columns: the dual solve
    assert stripped["runs"][0]["diagnostics"] == {"kind": "ridge", "alpha": 1.0, "solver": "dual"}


def test_rff_path_records_dims():
    data = labeled_corpus({"a": 40, "b": 40}, seed=11)
    config = ExperimentConfig(model="lr", use_rff=True, rff_dim=64,
                              lr_max_iters=50, runs=1)
    report = run_experiment(config, data)
    assert report["config"]["rff_dim"] == 64
    assert report["config"]["use_rff"] is True
    assert report["feature_dim"] == 9261


def test_rff_run_projector_rebuilds_and_projects_used_rows(monkeypatch):
    """A run's projector equals new_projector(feature_columns, D, gamma, seed), gamma
    1/(nominal width), and projects used-width rows as sqrt(2/D) cos(W x + b). The rows
    reach rff.project as dense blocks gathered from the corpus (rff.project_rows)."""
    import seqclass.rff as rff
    from seqclass.rff import new_projector, project

    calls = []

    def recording(projector, x):
        calls.append((projector, x, project(projector, x)))
        return calls[-1][2]

    monkeypatch.setattr(rff, "project", recording)
    data = labeled_corpus({"a": 30, "b": 30}, length=60, seed=5)
    config = ExperimentConfig(model="lr", k=3, use_rff=True, rff_dim=64, runs=1, lr_max_iters=20)
    report = run_experiment(config, data)
    projector, x, out = calls[-1]  # the test rows
    assert x.shape[1] == projector.input_dim == report["feature_columns"] < 9261
    assert report["feature_dim"] == 9261 and projector.gamma == 1 / 9261
    again = new_projector(report["feature_columns"], 64, 1 / 9261, config.rff_seed)
    assert np.array_equal(again.weights, projector.weights)
    assert np.array_equal(again.phases, projector.phases)
    dense = x.toarray() if sp.issparse(x) else x  # CSR rows on scipy's route
    want = np.sqrt(2.0 / 64) * np.cos(dense @ projector.weights.T + projector.phases)
    assert np.abs(out - want).max() <= 1e-12


def _generator_corpus(monkeypatch, size: int, seed: int) -> list[LabeledSequence]:
    """Spike-like sequences of benchmarks/gen.py, 20 Zipf-sized classes of 2 or more."""
    monkeypatch.syspath_prepend(str(ROOT / "benchmarks"))
    from gen import CorpusSpec, make_corpus

    corpus = make_corpus(CorpusSpec(size=size), seed)
    return [LabeledSequence(SequenceRecord(i, seq), LabelHierarchy(continent, country))
            for i, seq, continent, country in zip(corpus.ids, corpus.sequences,
                                                  corpus.continents, corpus.countries)]


@pytest.mark.parametrize("k, gemm", [(2, True), (4, False)])
def test_benchmark_tracer_checks_rff_runs_on_either_route(tmp_path, monkeypatch, k, gemm):
    """benchmarks/tracer.py wraps rff.project, takes (projector, x) from its calls and checks
    sampled rows against sqrt(2/D) cos(W x + b) after the run: dense blocks that
    rff.project_rows gathers (k = 2 on generator sequences), or CSR rows on scipy's route
    (random length-200 sequences at k = 4)."""
    import subprocess
    import sys

    from seqclass.features import featurize_corpus, used_columns
    from seqclass.rff import uses_gemm

    data = (_generator_corpus(monkeypatch, 60, seed=1) if gemm
            else labeled_corpus({"a": 30, "b": 30}, length=200, seed=4))
    matrix = used_columns(featurize_corpus(data, "kmers", k=k).matrix)
    assert uses_gemm(matrix.nnz, *matrix.shape) == gemm
    corpus, out = tmp_path / "corpus.bin", tmp_path / "spans.json"
    save_corpus(str(corpus), data)
    command = ["run", "--corpus", str(corpus), "--model", "lr", "--k", str(k), "--use-rff",
               "true", "--rff-dim", "64", "--runs", "1", "--train-fraction", "0.5"]
    done = subprocess.run([sys.executable, "benchmarks/tracer.py", "--out", str(out),
                           "--sample-seed", "1", "--", *command], cwd=ROOT,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    payload = json.loads(out.read_text())
    assert payload["rc"] == 0
    assert "RFF rows equal sqrt(2/D)cos(Wx+b)" in payload["checks"]
    assert {name: found for name, found in payload["checks"].items() if found} == {}
    assert any(span["name"] == "rff.project" for span in payload["spans"])


def test_rbf_kernel_of_nominal_rows_is_that_of_their_used_columns():
    """Columns no row touches add 0 to ||a - b||^2, so RFF on the used columns estimates
    the nominal rows' kernel, within C4's RMSE bound."""
    from seqclass.features import featurize_corpus, used_columns
    from seqclass.rff import exact_kernel, new_projector, project

    nominal = featurize_corpus(labeled_corpus({"a": 15, "b": 15}, length=60, seed=5),
                               "kmers", k=3).matrix
    used = used_columns(nominal)
    assert used.shape[1] < nominal.shape[1]
    gamma = 0.01  # kernels of 0.30 to 0.33 at these rows' squared distances
    proj = new_projector(used.shape[1], 4096, gamma, seed=3)
    z = project(proj, used)
    pairs = [(i, j) for i in range(30) for j in range(i + 1, 30)]
    errors = []
    for i, j in pairs:
        exact = exact_kernel(nominal[i].toarray(), nominal[j].toarray(), gamma)
        assert exact == exact_kernel(used[i].toarray(), used[j].toarray(), gamma)
        errors.append(z[i] @ z[j] - exact)
    assert np.sqrt(np.mean(np.square(errors))) < 0.1


@pytest.mark.parametrize("k", [4, 5, 6])
def test_rff_lr_runs_at_long_kmers(k):
    data = labeled_corpus({"a": 20, "b": 20}, length=80, seed=k)
    config = ExperimentConfig(model="lr", k=k, use_rff=True, rff_dim=64, runs=1, lr_max_iters=30)
    report = run_experiment(config, data)
    assert report["feature_dim"] == 21**k
    assert 0 < report["feature_columns"] <= 40 * (80 - k + 1)
    assert 0.0 <= report["runs"][0]["metrics"]["accuracy"] <= 1.0


def test_every_model_runs_end_to_end():
    data = labeled_corpus({"a": 30, "b": 30}, seed=13)
    for model, kind, extra in (
        ("majority", "majority", {}),
        ("nb", "gnb", {}),
        ("lr", "logreg", {}),
        ("ridge", "ridge", {}),
        ("nn", "nn", {"nn_hidden_width": 8, "nn_epochs": 2}),
    ):
        config = ExperimentConfig(model=model, runs=1, use_rff=True, rff_dim=16, **extra)
        report = run_experiment(config, data)
        metrics = report["runs"][0]["metrics"]
        assert 0.0 <= metrics["accuracy"] <= 1.0
        assert 0.0 <= metrics["roc_auc_weighted_ovr"] <= 1.0
        assert report["runs"][0]["diagnostics"]["kind"] == kind
    assert report["runs"][0]["diagnostics"]["hidden_width"] == 8
    assert report["runs"][0]["diagnostics"]["epochs"] == 2


def test_lr_runs_report_convergence():
    data = labeled_corpus({"a": 40, "b": 30, "c": 30}, seed=5)
    for use_rff, max_iters in ((False, 1000), (True, 1000), (False, 4)):
        config = ExperimentConfig(model="lr", k=2, runs=2, train_fraction=0.3,
                                  use_rff=use_rff, rff_dim=64, lr_max_iters=max_iters)
        report = run_experiment(config, data)
        for run in report["runs"]:
            diagnostics = run["diagnostics"]
            assert diagnostics["converged"] is (max_iters == 1000)
            assert (diagnostics["grad_norm"] <= config.lr_tol) is diagnostics["converged"]
            assert diagnostics["n_iters"] <= max_iters


def test_parallel_runs_match_sequential():
    data = labeled_corpus({"a": 30, "b": 30}, seed=17)
    # raw nb, and RFF lr, whose projectors are built inside the pool's workers
    for base in (ExperimentConfig(model="nb", runs=3, workers=2),
                 ExperimentConfig(model="lr", use_rff=True, rff_dim=64, runs=3, workers=2)):
        seq_report = run_experiment(base, data)
        par_report = run_experiment(replace(base, parallel_runs=True), data)
        # same numbers; only the echoed config (the parallel flag itself) may differ
        for key in ("runs", "aggregate", "class_names", "feature_dim", "feature_columns"):
            assert strip_timing(seq_report[key]) == strip_timing(par_report[key])


def test_parallel_runs_pool_is_capped_at_usable_cores(monkeypatch, inline_pool):
    import os
    from dataclasses import replace

    import seqclass.pipeline as pipeline

    InlinePool, pools = inline_pool
    monkeypatch.setattr(pipeline, "ProcessPoolExecutor", InlinePool)
    data = labeled_corpus({"a": 30, "b": 30}, seed=17)
    config = ExperimentConfig(model="nb", runs=3, workers=8, parallel_runs=True)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    inline = run_experiment(config, data)
    assert pools == []  # one usable core: the runs stay in this process
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    pooled = run_experiment(config, data)
    assert pools == [2]
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(16)), raising=False)
    run_experiment(config, data)
    run_experiment(replace(config, workers=2), data)
    run_experiment(replace(config, parallel_runs=False), data)
    assert pools == [2, 3, 2]  # capped by runs, then by workers; no pool without parallel_runs
    assert pooled["config"]["workers"] == inline["config"]["workers"] == 8
    assert strip_timing(pooled["runs"]) == strip_timing(inline["runs"])


def test_errors_carry_stage_names():
    # ragged corpus under one-hot encoding fails in the featurize stage
    data = labeled_corpus({"a": 5, "b": 5}, length=20, seed=21)
    data2 = labeled_corpus({"a": 2, "b": 2}, length=10, seed=22)
    from seqclass.errors import LengthMismatch

    with pytest.raises(LengthMismatch, match=r"\[stage:featurize\]"):
        run_experiment(ExperimentConfig(model="majority", encoding="ohe", runs=1), data + data2)


def test_nn_rejects_single_class_corpus():
    from seqclass.errors import DegenerateLabels

    data = labeled_corpus({"only": 30}, seed=23)
    config = ExperimentConfig(model="nn", runs=1, nn_hidden_width=4, stratified=False)
    with pytest.raises(DegenerateLabels):
        run_experiment(config, data)


def test_report_csv_layout(tmp_path):
    data = labeled_corpus({"a": 30, "b": 30}, seed=19)
    config = ExperimentConfig(model="majority", runs=2)
    report = run_experiment(config, data)
    import io

    buf = io.StringIO()
    write_report_csv(buf, [report])
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == (
        "embedding,algorithm,accuracy,precision,recall,"
        "f1_weighted,f1_macro,roc_auc,train_runtime_sec"
    )
    assert lines[1].startswith("kmers,majority,")
    assert "±" in lines[1]


# --- CLI ------------------------------------------------------------------------

def test_cli_end_to_end(tmp_path, capsys):
    _, fasta, meta, _ = _write_inputs(tmp_path, {"a": 30, "b": 30})
    corpus = tmp_path / "built.corpus"
    assert main(["ingest", "--fasta", str(fasta), "--metadata", str(meta),
                 "--out", str(corpus)]) == 0
    assert "60 sequences" in capsys.readouterr().out

    feats = tmp_path / "feat.sqfv"
    labels = tmp_path / "labels.json"
    assert main(["featurize", "--corpus", str(corpus), "--out-features", str(feats),
                 "--out-labels", str(labels)]) == 0
    assert feats.exists() and labels.exists()

    cfg = tmp_path / "exp.cfg"
    out_dir = tmp_path / "out"
    cfg.write_text(
        f"corpus = {corpus}\nmodel = majority\nruns = 2\noutput_dir = {out_dir}\n"
    )
    assert main(["run", "--config", str(cfg)]) == 0
    report = json.loads((out_dir / "report.json").read_text())
    assert report["aggregate"]["run_count"] == 2
    assert report["timing"]["created_utc"]  # the run's date, outside the determinism check
    assert (out_dir / "report.csv").exists()

    ig_csv = tmp_path / "ig.csv"
    assert main(["ig", "--corpus", str(corpus), "--out", str(ig_csv)]) == 0
    assert ig_csv.read_text().startswith("position,information_gain")

    merged = tmp_path / "merged.csv"
    assert main(["report", str(out_dir / "report.json"), "--out", str(merged)]) == 0
    assert merged.read_text().count("\n") == 2  # header + one row


def test_cli_flag_overrides(tmp_path):
    _, _, _, corpus = _write_inputs(tmp_path, {"a": 30, "b": 30})
    out_dir = tmp_path / "out2"
    code = main([
        "run", "--corpus", str(corpus), "--model", "majority",
        "--runs", "1", "--output-dir", str(out_dir),
    ])
    assert code == 0
    report = json.loads((out_dir / "report.json").read_text())
    assert report["config"]["runs"] == 1


def _exit_code_and_scipy_modules(argv: list[str]) -> str:
    """Run a CLI command in a fresh interpreter; its exit code and the scipy modules it loaded."""
    import os
    import subprocess
    import sys

    import seqclass

    src = os.path.dirname(os.path.dirname(seqclass.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = (f"import sys; from seqclass.cli import main; code = main({argv!r}); "
            "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    return out.stdout.splitlines()[-1]


def test_cli_ingest_leaves_scipy_out(tmp_path):
    """ingest, all of the benchmark's set-up time, loads neither scipy nor the modules that need it."""
    _, fasta, meta, _ = _write_inputs(tmp_path, {"a": 5, "b": 5})
    argv = ["ingest", "--fasta", str(fasta), "--metadata", str(meta), "--out", str(tmp_path / "c")]
    assert _exit_code_and_scipy_modules(argv) == "0 []"


def test_cli_ig_leaves_scipy_out(tmp_path):
    """ig counts residues by class with numpy alone: no scipy, no features module."""
    _, _, _, corpus = _write_inputs(tmp_path, {"a": 5, "b": 5}, length=12)
    argv = ["ig", "--corpus", str(corpus), "--out", str(tmp_path / "ig.csv"),
            "--histograms", str(tmp_path / "hist.json")]
    assert _exit_code_and_scipy_modules(argv) == "0 []"


def test_cli_run_lr_leaves_scipy_optimize_out(tmp_path):
    """lr is fitted by linear_models' own L-BFGS, raw and on RFF features."""
    _, _, _, corpus = _write_inputs(tmp_path, {"a": 10, "b": 10})
    for flags in ([], ["--use-rff", "true", "--rff-dim", "16"]):
        out = _exit_code_and_scipy_modules(["run", "--corpus", str(corpus), "--model", "lr",
                                            "--runs", "1", *flags])
        assert out.startswith("0 ['scipy'")
        assert "scipy.optimize" not in out


def test_cli_run_ridge_leaves_scipy_linalg_out(tmp_path):
    """ridge's dual solve is numpy's: neither scipy.linalg nor scipy.sparse.linalg is loaded."""
    _, _, _, corpus = _write_inputs(tmp_path, {"a": 10, "b": 10})
    out = _exit_code_and_scipy_modules(["run", "--corpus", str(corpus), "--model", "ridge",
                                        "--runs", "1"])  # 2 train rows on 3-mers: the dual
    assert out.startswith("0 ['scipy'")
    assert "scipy.linalg" not in out and "scipy.sparse.linalg" not in out


def test_cli_run_with_a_one_member_class_names_it(tmp_path, capsys):
    _, _, _, corpus = _write_inputs(tmp_path, {"a": 10, "Zürich": 1, "b": 6})
    assert main(["run", "--corpus", str(corpus), "--model", "majority", "--runs", "1"]) == 3
    err = capsys.readouterr().err
    assert "[stage:split] class 'Zürich' has a single member" in err


@pytest.mark.parametrize("model", ["majority", "nb", "lr", "ridge", "nn"])
def test_empty_train_split_is_one_data_error_for_every_model(tmp_path, capsys, monkeypatch,
                                                              model):
    """A split with no train row, or (train every row) no test row, fails before any fit."""
    import seqclass.pipeline as pipeline

    monkeypatch.setattr(pipeline, "_single_run", None)  # checked before any split or fit
    _, _, _, corpus = _write_inputs(tmp_path, {"a": 4, "b": 4})
    for fraction, side, error in [(0.05, "train", EmptyTrainingSet), (0.95, "test", EmptyMatrix)]:
        for stratified in ("true", "false"):
            argv = ["run", "--corpus", str(corpus), "--model", model,
                    "--train-fraction", str(fraction), "--stratified", stratified]
            assert main(argv) == 3
            err = capsys.readouterr().err
            assert (f"[stage:split] --train-fraction {fraction} leaves no {side} rows "
                    f"of 8 sequences") in err
            with pytest.raises(error):
                run_experiment(ExperimentConfig(model=model, train_fraction=fraction,
                                                stratified=stratified == "true"),
                               labeled_corpus({"a": 4, "b": 4}, length=24))


def test_unwritable_output_dir_is_io_failure(tmp_path, capsys):
    _, _, _, corpus = _write_inputs(tmp_path, {"a": 10, "b": 10})
    blocker = tmp_path / "a_file"
    blocker.write_text("")
    for out_dir in (blocker, blocker / "below"):  # a regular file, and a directory below one
        config = ExperimentConfig(corpus=str(corpus), model="majority", runs=1,
                                  output_dir=str(out_dir))
        with pytest.raises(IoFailure, match="cannot write the report to"):
            run_experiment(config, labeled_corpus({"a": 10, "b": 10}, length=24))
        argv = ["run", "--corpus", str(corpus), "--model", "majority", "--runs", "1",
                "--output-dir", str(out_dir)]
        assert main(argv) == 3
        assert f"cannot write the report to {str(out_dir)!r}" in capsys.readouterr().err


def test_every_export_resolves():
    import seqclass

    for name in seqclass.__all__:
        assert getattr(seqclass, name) is not None, name
    with pytest.raises(AttributeError):
        getattr(seqclass, "no_such_name")


def test_cli_exit_codes(tmp_path, capsys):
    data, fasta, meta, corpus = _write_inputs(tmp_path, {"a": 10, "b": 10})
    last = data[-1]
    save_corpus(str(tmp_path / "no_residues.bin"),
                data[:-1] + [LabeledSequence(SequenceRecord(last.record.id, None), last.label)])
    save_corpus(str(tmp_path / "no_country.bin"),
                data[:-1] + [LabeledSequence(last.record, LabelHierarchy("Europe", None))])
    for name, residues in (("only_stop.bin", "*"), ("empty_residues.bin", "")):
        # as ingest wrote a record whose body was only the stop, before it rejected one
        save_corpus(str(tmp_path / name),
                    [LabeledSequence(SequenceRecord("s0", residues), data[0].label), *data[1:]])
    files = {
        "latin1.fa": b">s1\nMD\xe9PEG\n",
        "latin1.tsv": b"id\tcontinent\tcountry\tstate\ns1\tEurope\tFran\xe7e\t\n",
        "no_country.tsv": b"id\tcontinent\tcountry\tstate\ns1\tEurope\t\t\n",
        "only_stop.fa": b">a\n*\n>b\nACDE\n>c\nACDF\n>d\nACDG\n",
        "only_stop.tsv": b"id\tcontinent\tcountry\tstate\n"
                         + b"".join(b"%s\tEurope\tFrance\t\n" % i for i in (b"a", b"b", b"c", b"d")),
        "latin1.cfg": b"model = nb  # caf\xe9\n",
        "latin1.json": b'{"format": "seqclass-report/1", "note": "\xe9"}',
        "object.json": b'{"a": 1}',
        "list.json": b"[1]",
        "text.json": b"not json",
        "bare.json": b'{"format": "seqclass-report/1"}',
        "empty.json": b'{"format": "seqclass-report/1", "aggregate": {}, "config": {}}',
    }
    for name, raw in files.items():
        (tmp_path / name).write_bytes(raw)

    def path(name):
        return str(tmp_path / name)

    out = path("out")
    # argv, exit code, and text the error message must hold
    table = [
        (["ingest", "--fasta", path("nope.fa"), "--metadata", path("nope.tsv"), "--out", out],
         3, "nope.fa"),
        (["run", "--corpus", str(corpus), "--model", "svm"], 2, "model must be one of"),
        (["run", "--corpus", str(corpus), "--encoding", "onehot"], 2, "got 'onehot'"),
        (["run", "--corpus", str(corpus), "--class-level", "city"], 2,
         "class_level must be one of"),
        (["run", "--model", "majority"], 2, "run needs either"),
        (["ig", "--corpus", str(corpus), "--subsample", "-5", "--out", out], 2, "got -5"),
        (["ig", "--corpus", str(corpus), "--subsample", "0", "--out", out], 2, "got 0"),
        (["report", path("object.json"), "--out", out], 3, "object.json"),
        (["report", path("list.json"), "--out", out], 3, "list.json"),
        (["report", path("text.json"), "--out", out], 3, "text.json"),
        (["report", path("latin1.json"), "--out", out], 3, "latin1.json"),
        (["ingest", "--fasta", path("latin1.fa"), "--metadata", str(meta), "--out", out],
         3, "latin1.fa"),
        (["run", "--fasta", path("latin1.fa"), "--metadata", str(meta)], 3, "latin1.fa"),
        (["ingest", "--fasta", str(fasta), "--metadata", path("latin1.tsv"), "--out", out],
         3, "latin1.tsv"),
        (["run", "--config", path("latin1.cfg"), "--corpus", str(corpus)], 3, "latin1.cfg"),
        (["ingest", "--fasta", str(fasta), "--metadata", path("no_country.tsv"), "--out", out],
         3, "metadata line 2: empty country field"),
        (["run", "--corpus", path("no_residues.bin"), "--model", "majority"],
         3, "no_residues.bin' record 20 of 20 has no residues"),
        (["ig", "--corpus", path("no_residues.bin"), "--out", out],
         3, "no_residues.bin' record 20 of 20 has no residues"),
        (["ingest", "--fasta", path("only_stop.fa"), "--metadata", path("only_stop.tsv"),
          "--out", out], 3, "record 'a' has an empty sequence body"),
        (["run", "--corpus", path("only_stop.bin"), "--model", "nb", "--encoding", "ohe"],
         3, "only_stop.bin' record 's0' has no residues"),
        (["ig", "--corpus", path("only_stop.bin"), "--out", out],
         3, "only_stop.bin' record 's0' has no residues"),
        (["run", "--corpus", path("empty_residues.bin"), "--model", "majority"],
         3, "empty_residues.bin' record 's0' has no residues"),
        (["run", "--corpus", path("no_country.bin"), "--model", "majority"],
         3, "no_country.bin' record 20 of 20 has no country"),
        (["report", path("bare.json"), "--out", out], 3, "bare.json' lacks the key 'aggregate'"),
        (["report", path("empty.json"), "--out", out], 3, "empty.json' lacks the key 'encoding'"),
    ]
    for argv, code, named in table:
        assert main(argv) == code, argv
        assert named in capsys.readouterr().err, argv


def test_cli_singular_ridge_solve_exits_4(tmp_path, capsys):
    """Duplicated train rows make the dual system singular at an alpha that rounds away."""
    data = labeled_corpus({"a": 10, "b": 10}, length=24)
    twins = [LabeledSequence(SequenceRecord(f"{item.record.id}x", item.record.residues),
                             item.label) for item in data]
    corpus = tmp_path / "corpus.bin"
    save_corpus(str(corpus), data + twins)
    assert main(["run", "--corpus", str(corpus), "--model", "ridge", "--runs", "1",
                 "--train-fraction", "0.5", "--ridge-alpha", "1e-300"]) == 4
    assert "ridge's system is singular at alpha 1e-300" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_cli_nn_that_diverges_on_its_last_step_exits_4(tmp_path, capsys):
    """One batch an epoch: the loss is checked before the only update, whose ~1e300
    weights are finite but overflow into NaN scores."""
    _, _, _, corpus = _write_inputs(tmp_path, {"a": 20, "b": 20})
    assert main(["run", "--corpus", str(corpus), "--model", "nn", "--runs", "1",
                 "--train-fraction", "0.5", "--nn-learning-rate", "1e300",
                 "--nn-hidden-width", "8", "--nn-epochs", "1"]) == 4
    assert "[stage:fit] the nn model scored NaN" in capsys.readouterr().err


def test_cli_featurize_csv_holds_the_sqfv1_matrix(tmp_path):
    _, _, _, corpus = _write_inputs(tmp_path, {"a": 5, "b": 4})
    feats, labels, table = tmp_path / "f.sqfv", tmp_path / "l.json", tmp_path / "f.csv"
    assert main(["featurize", "--corpus", str(corpus), "--k", "2", "--out-features", str(feats),
                 "--out-labels", str(labels), "--csv", str(table)]) == 0
    _, shape, indptr, indices, values = read_sqfv1(feats)
    lines = table.read_text().splitlines()
    assert lines[0] == "row,col,value"
    rows = np.repeat(np.arange(shape[0]), np.diff(indptr))
    assert lines[1:] == [f"{r},{c},{v:g}" for r, c, v in zip(rows, indices, values)]


def test_cli_ig_subsample_and_histograms(tmp_path, monkeypatch):
    import seqclass.cli as cli
    import seqclass.infogain as infogain

    passes = []
    original = infogain.position_histograms

    def counted(*args, **kwargs):
        passes.append(1)
        return original(*args, **kwargs)

    # wherever the histograms are looked up: by infogain, and by the CLI if it imports them
    monkeypatch.setattr(infogain, "position_histograms", counted)
    monkeypatch.setattr(cli, "position_histograms", counted, raising=False)
    _, _, _, corpus = _write_inputs(tmp_path, {"a": 20, "b": 20}, length=12)
    out = tmp_path / "ig.csv"
    hist = tmp_path / "hist.json"
    assert main(["ig", "--corpus", str(corpus), "--subsample", "10",
                 "--seed", "3", "--out", str(out), "--histograms", str(hist)]) == 0
    assert len(out.read_text().strip().splitlines()) == 13  # header + 12 positions
    payload = json.loads(hist.read_text())
    assert payload["class_names"] == ["a", "b"]
    for position in payload["positions"]:
        assert sum(map(sum, position["symbol_class_counts"].values())) == 10
    assert len(passes) == 1


@pytest.mark.parametrize("key", NUMERIC_KEYS)
def test_cli_non_numeric_config_value_is_config_error(tmp_path, capsys, key):
    flag = f"--{key.replace('_', '-')}"
    assert main(["run", "--corpus", str(tmp_path / "unread.bin"), flag, "abc"]) == 2
    assert f"config key {key!r}" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["inf", "-inf"])
@pytest.mark.parametrize("key", NUMERIC_KEYS)
def test_cli_infinite_config_value_is_config_error(tmp_path, capsys, key, value):
    flag = f"--{key.replace('_', '-')}"
    assert main(["run", "--corpus", str(tmp_path / "unread.bin"), f"{flag}={value}"]) == 2
    assert f"config key {key!r}" in capsys.readouterr().err


def test_cli_rff_gamma_whose_weights_overflow_is_config_error(tmp_path, capsys):
    _, _, _, corpus = _write_inputs(tmp_path, {"a": 10, "b": 10})
    assert main(["run", "--corpus", str(corpus), "--model", "lr", "--use-rff", "true",
                 "--rff-gamma", "1e308"]) == 2
    assert "[stage:rff] gamma must be positive with sqrt(2 gamma) finite" in capsys.readouterr().err


def test_nb_run_with_a_class_no_train_row_never_predicts_it(tmp_path, monkeypatch):
    """Class c's 2 rows are both test rows: gnb's log prior for c is -inf, every c score
    ties at -inf, and the run scores and reports like any other."""
    import seqclass.pipeline as pipeline

    predicted = []
    original = pipeline.confusion

    def recorded(y_true, y_pred, class_count):
        predicted.append(np.asarray(y_pred))
        return original(y_true, y_pred, class_count)

    monkeypatch.setattr(pipeline, "confusion", recorded)
    _, _, _, corpus = _write_inputs(tmp_path, {"a": 30, "b": 30, "c": 2}, length=40)
    out = tmp_path / "out"
    assert main(["run", "--corpus", str(corpus), "--model", "nb", "--k", "2", "--runs", "2",
                 "--output-dir", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert [run["train_size"] for run in report["runs"]] == [6, 6]
    assert len(predicted) == 2 and not any((p == 2).any() for p in predicted)
    assert all(np.isfinite(run["metrics"]["roc_auc_weighted_ovr"]) for run in report["runs"])


@pytest.mark.parametrize("flag", ["--lr-l2-lambda", "--lr-tol", "--lr-max-iters"])
def test_cli_negative_lr_penalty_or_tol_is_config_error(tmp_path, capsys, monkeypatch, flag):
    import seqclass.pipeline as pipeline

    monkeypatch.setattr(pipeline, "_single_run", None)  # reaching a run is a failure too
    _, _, _, corpus = _write_inputs(tmp_path, {"a": 10, "b": 10})
    key = flag[2:].replace("-", "_")
    bound = 1 if key == "lr_max_iters" else 0  # 0 iterations would return the zero weights
    for value in range(-1, bound):
        assert main(["run", "--corpus", str(corpus), "--model", "lr", flag, str(value)]) == 2
        shown = value if KINDS[key] == "int" else float(value)
        assert f"{key} must be >= {bound}, got {shown}" in capsys.readouterr().err


@pytest.mark.parametrize("key, flags", [("split_seed", ()),
                                        ("rff_seed", ("--use-rff", "true", "--model", "lr")),
                                        ("nn_seed", ("--model", "nn"))])
def test_cli_negative_seed_is_config_error(tmp_path, capsys, monkeypatch, key, flags):
    import seqclass.pipeline as pipeline

    monkeypatch.setattr(pipeline, "_single_run", None)  # reaching a run is a failure too
    _, _, _, corpus = _write_inputs(tmp_path, {"a": 10, "b": 10})
    flag = f"--{key.replace('_', '-')}"
    assert main(["run", "--corpus", str(corpus), *flags, flag, "-1"]) == 2
    assert f"{key} must be >= 0, got -1" in capsys.readouterr().err


def test_cli_ig_negative_seed_is_config_error(tmp_path, capsys):
    _, _, _, corpus = _write_inputs(tmp_path, {"a": 10, "b": 10})
    assert main(["ig", "--corpus", str(corpus), "--subsample", "5", "--seed", "-1",
                 "--out", str(tmp_path / "ig.csv")]) == 2
    assert "subsample seed must be >= 0, got -1" in capsys.readouterr().err
    assert not (tmp_path / "ig.csv").exists()


def _sweep_flags(key: str) -> list[str]:
    """Flags of a small run whose model reads ``key``."""
    if key.startswith("lr_"):
        flags = ["--model", "lr"]
    elif key == "ridge_alpha":
        flags = ["--model", "ridge"]
    elif key.startswith("nn_"):
        flags = ["--model", "nn", "--nn-epochs", "2"]
    elif key.startswith("rff_"):
        flags = ["--model", "lr", "--use-rff", "true", "--rff-dim", "16"]
    elif key == "expected_len":
        flags = ["--model", "nb", "--encoding", "ohe"]
    else:
        flags = ["--model", "nb"]
    return ["--runs", "1", "--k", "2", *flags]


@pytest.mark.parametrize("value", ["-1", "0"])
@pytest.mark.parametrize("key", NUMERIC_KEYS)
def test_cli_numeric_key_at_minus_one_or_zero_exits_0_or_2(tmp_path, key, value):
    """Every numeric key at -1 and 0, on a model that reads it: a run or a config error,
    never a raised exception."""
    _, _, _, corpus = _write_inputs(tmp_path, {"a": 10, "b": 10})
    flag = f"--{key.replace('_', '-')}"  # the last of a repeated flag wins
    assert main(["run", "--corpus", str(corpus), *_sweep_flags(key), flag, value]) in (0, 2)


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_cli_workers_below_one_is_config_error(tmp_path, workers):
    _, _, _, corpus = _write_inputs(tmp_path, {"a": 10, "b": 10})
    assert main(["run", "--corpus", str(corpus), "--workers", workers]) == 2
    assert main(["featurize", "--corpus", str(corpus), "--workers", workers,
                 "--out-features", str(tmp_path / "f"), "--out-labels", str(tmp_path / "l")]) == 2


# --- scoring in blocks of test rows ------------------------------------------------


def _blocked_and_whole_scores(monkeypatch, config, data, rows=None):
    """One _single_run's test scores, the heights of the blocks it scored, and its
    model's scores of the whole test split at once; ``rows`` fixes the block height."""
    import seqclass.pipeline as pipeline
    from seqclass.features import featurize_corpus, used_columns
    from seqclass.rff import project

    feats = featurize_corpus(data, config.encoding, k=config.k)
    if not config.use_rff:
        feats = replace(feats, matrix=used_columns(feats.matrix))
    seen = {"blocks": []}

    def recording(name, fn):
        def wrapper(*args, **kwargs):
            seen[name] = fn(*args, **kwargs)
            return seen[name]
        monkeypatch.setattr(pipeline, name, wrapper)

    def fit(*args):
        model, scores, diagnostics = fit_model(*args)

        def block_scores(model, X):
            seen["blocks"].append(X.shape[0])
            return scores(model, X)

        seen["model"], seen["scores"] = model, scores
        return model, block_scores, diagnostics

    fit_model = pipeline._fit
    monkeypatch.setattr(pipeline, "_fit", fit)
    recording("split_indices", pipeline.split_indices)
    recording("new_projector", pipeline.new_projector)
    if rows is not None:
        monkeypatch.setattr(pipeline, "_score_block_rows", lambda *args: rows)
    monkeypatch.setattr(pipeline, "roc_auc_ovr_weighted",
                        lambda scores, y: seen.update(blocked=scores.copy()) or 0.5)
    pipeline._single_run(config, feats, 0)
    X_test = feats.matrix[seen["split_indices"][1]]
    if config.use_rff:
        X_test = project(seen["new_projector"], X_test)
    return seen["blocked"], seen["scores"](seen["model"], X_test), seen["blocks"]


@pytest.mark.parametrize("rows", [1, 4])
@pytest.mark.parametrize("model", ["majority", "nb", "lr", "ridge"])
def test_raw_csr_scores_in_blocks_are_bit_identical(monkeypatch, model, rows):
    """scipy's CSR products score each row on its own, so every block height agrees."""
    data = labeled_corpus({"a": 20, "b": 15, "c": 15}, length=30, seed=4)
    config = ExperimentConfig(model=model, k=2, train_fraction=0.3, lr_max_iters=30)
    blocked, whole, blocks = _blocked_and_whole_scores(monkeypatch, config, data, rows)
    # 35 test rows: 1-row blocks, or 4-row ones whose 3-row remainder joins the last
    assert blocks == ([1] * 35 if rows == 1 else [4] * 7 + [7])
    assert np.array_equal(blocked, whole)


DENSE_SCORING = [("nn", False)] + [(model, True) for model in ("majority", "nb", "lr", "ridge", "nn")]


@pytest.mark.parametrize("model, use_rff", DENSE_SCORING,
                         ids=[f"{m}-{'rff' if r else 'raw'}" for m, r in DENSE_SCORING])
def test_dense_scores_in_blocks(monkeypatch, model, use_rff):
    """A dense GEMM rounds by its height: bit-identical at the blocks of D = 1000, and
    within 1e-14 of the largest score (at least 1) at 7-row blocks."""
    data = labeled_corpus({"a": 1200, "b": 900, "c": 900}, length=40, seed=4)  # 2700 test rows
    config = ExperimentConfig(model=model, k=2, use_rff=use_rff, nn_hidden_width=16, nn_epochs=2,
                              lr_max_iters=30)
    rows = _score_block_rows(config, 3000, 441, 0) if use_rff else 1048
    assert rows == 1048
    blocked, whole, blocks = _blocked_and_whole_scores(monkeypatch, config, data, rows)
    assert blocks == [1048, 1652]  # the 604-row remainder joins the last block
    assert np.array_equal(blocked, whole)
    blocked, whole, blocks = _blocked_and_whole_scores(monkeypatch, config, data, 7)
    assert blocks == [7] * 384 + [12]
    assert np.abs(blocked - whole).max() <= 1e-14 * max(1.0, np.abs(whole).max())


def test_score_block_rows():
    # 8 MiB over a row's 8 D projected bytes, over raw nn's 8 bytes a used column,
    # or over 12 bytes a CSR nonzero
    rff = ExperimentConfig(use_rff=True, rff_dim=1000)
    assert _score_block_rows(rff, 3000, 441, 10**6) == 1048
    assert _score_block_rows(replace(rff, model="nn"), 3000, 441, 10**6) == 1048
    assert _score_block_rows(ExperimentConfig(use_rff=True, rff_dim=3000), 1, 441, 0) == 349
    assert _score_block_rows(ExperimentConfig(), 1000, 5339, 37_000) == (8 << 20) // (12 * 37)
    assert _score_block_rows(ExperimentConfig(model="nn"), 1000, 5339, 37_000) == 196
    assert _score_block_rows(ExperimentConfig(use_rff=True, rff_dim=2 << 20), 1, 441, 0) == 1
    assert _score_block_rows(ExperimentConfig(model="nn"), 1, 2 << 20, 0) == 1


def test_raw_nb_run_holds_less_than_the_test_split(monkeypatch):
    """Scoring 64 KiB blocks, raw nb's run peaks below one float64 CSR copy of its test split."""
    import tracemalloc

    import seqclass.pipeline as pipeline
    from seqclass.features import featurize_corpus, used_columns

    data = labeled_corpus({"a": 800, "b": 600, "c": 600}, length=300, seed=2)
    feats = featurize_corpus(data, "kmers", k=2)
    feats = replace(feats, matrix=used_columns(feats.matrix))
    config = ExperimentConfig(model="nb", k=2)
    _, test_idx = pipeline.split_indices(2000, config.train_fraction, config.split_seed)
    test = feats.matrix[test_idx].astype(np.float64)
    split_bytes = test.data.nbytes + test.indices.nbytes + test.indptr.nbytes
    del test
    monkeypatch.setattr(pipeline, "GEMM_BLOCK_BYTES", 64 << 10)
    tracemalloc.start()
    pipeline._single_run(config, feats, 0)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak < split_bytes


# --- memory pre-flight -----------------------------------------------------------

# id: (model, use_rff, the train split's rows, columns and density)
TRACED_PEAK_CASES = {
    "nb-False": ("nb", False, 60, 20000, 0.005),
    "lr-False": ("lr", False, 60, 20000, 0.005),
    "nn-False": ("nn", False, 60, 20000, 0.005),
    "majority-True": ("majority", True, 60, 20000, 0.005),
    # a dense n x n dual Gram matrix that outweighs the C x d weights
    "ridge-False": ("ridge", False, 1000, 3000, 0.05),
    # n > d: the primal solve, whose one block of rows with their 1s outweighs
    # the (d + 1)^2 Gram matrix
    "ridge-primal": ("ridge", False, 4000, 300, 0.9),
}


@pytest.mark.parametrize("model, use_rff, n, d, density", TRACED_PEAK_CASES.values(),
                         ids=TRACED_PEAK_CASES.keys())
def test_memory_estimate_matches_traced_peak(model, use_rff, n, d, density):
    """The C x d (h x d, D x d, Gram) array count of the estimate, against tracemalloc's peak."""
    import tracemalloc

    import scipy.sparse as sp

    import seqclass.linear_models as lm
    import seqclass.neural_net as nnet
    from seqclass.pipeline import memory_estimate
    from seqclass.rff import new_projector, project

    C, D, h = 20, 40, 64
    X = sp.random(n, d, density=density, format="csr", random_state=3)
    y = np.arange(n) % C
    config = ExperimentConfig(model=model, use_rff=use_rff, rff_dim=D, nn_hidden_width=h,
                              train_fraction=0.5)
    # n train rows, and a test split as dense as X
    estimate, _ = memory_estimate(config, d, C, corpus_size=2 * n, corpus_nnz=2 * X.nnz)
    tracemalloc.start()
    if model == "ridge":
        lm.ridge_scores(lm.ridge_fit(X, y, class_count=C), X)
    elif use_rff:
        project(new_projector(d, D, 1.0 / d, 0), X)
    elif model == "nb":
        lm.gnb_scores(lm.gnb_fit(X, y, C), X)
    elif model == "nn":
        nnet.nn_scores(nnet.nn_train(X, y, C, hidden_width=h, epochs=2), X)
    else:
        model = lm.logreg_fit(X, y, max_iters=50, class_count=C)
        assert model.n_iters > lm.LBFGS_MEMORY  # the (s, y) history is full
        lm.logreg_proba(model, X)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert 0.75 * estimate <= peak <= 1.05 * estimate


@pytest.mark.parametrize("model", ["lr", "ridge", "nb"])
def test_memory_estimate_covers_traced_rff_run(model):
    """The CSR copies that RFF makes of the corpus's nonzeros are counted too."""
    import tracemalloc

    from seqclass.features import featurize_corpus
    from seqclass.pipeline import memory_estimate

    data = labeled_corpus({"a": 1000, "b": 1000, "c": 1000}, length=60, seed=1)
    config = ExperimentConfig(model=model, k=2, use_rff=True, rff_dim=2000, lr_max_iters=20,
                              runs=1)
    matrix = featurize_corpus(data, "kmers", k=2).matrix
    estimate, _ = memory_estimate(config, matrix.shape[1], 3, corpus_size=matrix.shape[0],
                                  corpus_nnz=matrix.nnz)
    tracemalloc.start()
    run_experiment(config, data)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak <= estimate <= 1.25 * peak


def test_memory_estimate_at_long_kmers():
    from seqclass.pipeline import memory_estimate

    d5, d6 = 21**5, 21**6
    assert memory_estimate(ExperimentConfig(model="nb", k=5), d5, 20) == (4 * 20 * d5 * 8, "--k")
    assert memory_estimate(ExperimentConfig(model="lr", k=6), d6, 20)[0] == 15 * 20 * d6 * 8
    assert memory_estimate(ExperimentConfig(model="ridge", k=6), d6, 20)[0] == 0
    # RFF draws weights for the used columns alone (12043 of 21^6 on the benchmark's
    # 1000-sequence corpus). With no rows given, one dense block of project's GEMM
    # route is counted
    rff = memory_estimate(ExperimentConfig(model="nb", k=6, use_rff=True), d6, 20, 12043)
    assert rff == (1000 * 12043 * 8 + (8 << 20) + 4 * 20 * 1000 * 8, "--rff-dim or --k")
    # 3000 rows: the dense 300-row train split, and the largest block of the 2700
    # test rows (2 x 1048 + 604, the 604 joining a block) with nb's square of it;
    # with no nonzeros project takes scipy's route, which densifies no block
    rff = memory_estimate(ExperimentConfig(model="nb", k=2, use_rff=True), 441, 20, corpus_size=3000)
    assert rff == (1000 * (441 + 300) * 8 + 2 * 1652 * 1000 * 8 + 4 * 20 * 1000 * 8,
                   "--rff-dim or --k")
    lr = ExperimentConfig(model="lr", k=2, use_rff=True)
    rff = memory_estimate(lr, 441, 20, corpus_size=3000)
    assert rff[0] == 1000 * (441 + 300) * 8 + 1652 * 1000 * 8
    # with 50 nonzeros a row (11 % dense: the GEMM route and its 8 MiB gather buffer),
    # no CSR copy: beside the block and its projection, or beside the 2700-row train
    # split, which takes two GEMMs of up to 2377 rows, one GEMM's projection
    rff = memory_estimate(lr, 441, 20, corpus_size=3000, corpus_nnz=3000 * 50)
    assert rff[0] == 1000 * (441 + 300) * 8 + (8 << 20) + 1652 * 1000 * 8
    wide = replace(lr, train_fraction=0.9)
    rff = memory_estimate(wide, 441, 20, corpus_size=3000, corpus_nnz=3000 * 50)
    assert rff[0] == 1000 * (441 + 2700) * 8 + (8 << 20) + 2377 * 1000 * 8
    # on 4432 of 21^3 columns at 13 nonzeros a row (0.3 % dense): scipy's route
    rff = memory_estimate(replace(lr, k=3), 9261, 20, 4432, 3000, 3000 * 13)
    assert rff[0] == 1000 * (4432 + 300) * 8 + 1652 * (1000 * 8 + 24 * 13)
    # 200 classes: lr's 15 C x D arrays outweigh either block
    assert memory_estimate(lr, 441, 200, corpus_size=3000)[0] == (
        1000 * (441 + 300) * 8 + 15 * 200 * 1000 * 8)


def test_memory_estimate_of_nn_counts_hidden_by_input():
    from seqclass.pipeline import memory_estimate

    d = 1273 * 21  # one-hot on length-1273 sequences
    # the default width is the input dimension: 4 arrays of 5.7 GB each
    assert memory_estimate(ExperimentConfig(model="nn", encoding="ohe"), d, 20) == (
        4 * d * d * 8, "--nn-hidden-width")
    # on 6746 used columns the default width is 6746 too
    assert memory_estimate(ExperimentConfig(model="nn", encoding="ohe"), d, 20, 6746) == (
        4 * 6746 * 6746 * 8, "--nn-hidden-width")
    narrow = ExperimentConfig(model="nn", encoding="ohe", nn_hidden_width=64)
    assert memory_estimate(narrow, d, 20) == (4 * 64 * d * 8, "--nn-hidden-width")
    # 3000 rows: the fit densifies batches of 100 of the 300 train rows; scoring densifies
    # blocks of 8 MiB / (8 * 5339) = 196 test rows, the last with the 2700 % 196 = 152
    # rows of the remainder, beside w1
    columns = 5339
    assert memory_estimate(narrow, d, 20, columns, 3000) == (
        (64 + 196 + 152) * columns * 8, "--nn-hidden-width")
    # a 40-row corpus trains in one batch of its 4 train rows and scores its 36 test rows at once
    assert memory_estimate(narrow, d, 20, columns, 40)[0] == (4 * 64 + 4) * columns * 8
    # with RFF the width is D, and the fit's 4 D x D arrays beside the weights
    rff = memory_estimate(ExperimentConfig(model="nn", use_rff=True, rff_dim=1000), d, 20)
    assert rff == (1000 * d * 8 + 4 * 1000 * 1000 * 8, "--nn-hidden-width or --rff-dim")


def test_preflight_counts_every_parallel_run(monkeypatch):
    import seqclass.pipeline as pipeline

    config = ExperimentConfig(model="nb")
    per_run, _ = pipeline.memory_estimate(config, 9261, 20)
    monkeypatch.setattr(pipeline, "physical_memory_bytes", lambda: int(1.5 * per_run))
    pipeline._preflight_memory(config, 9261, 20, processes=1)
    with pytest.raises(InvalidConfig, match="lower --k"):
        pipeline._preflight_memory(config, 9261, 20, processes=2)
    monkeypatch.setattr(pipeline, "physical_memory_bytes", lambda: None)  # unknown: no check
    pipeline._preflight_memory(config, 9261, 20, processes=2)


@pytest.mark.parametrize("model, flags", [("nb", []), ("lr", []), ("nb", ["--use-rff", "true"])])
def test_cli_k6_over_physical_memory_is_config_error(tmp_path, capsys, monkeypatch, model, flags):
    import seqclass.pipeline as pipeline

    # Raw nb and lr hold C x used-columns arrays: at most 20 x 1140 here,
    # 0.7 and 2.7 MB, so a 256 KiB host is below them. With RFF the weights
    # of those columns are D x 1140 here, 9.1 MB, above a 4 MiB host.
    available = 2**22 if flags else 2**18
    monkeypatch.setattr(pipeline, "physical_memory_bytes", lambda: available)
    monkeypatch.setattr(pipeline, "_single_run", None)  # reaching a run is a failure too
    _, _, _, corpus = _write_inputs(tmp_path, {f"c{i:02d}": 3 for i in range(20)})
    assert main(["run", "--corpus", str(corpus), "--k", "6", "--model", model, *flags]) == 2
    err = capsys.readouterr().err
    assert f"{available / 2**30:.1f} GiB of physical memory" in err
    assert ("lower --rff-dim or --k" if flags else "lower --k") in err


@pytest.mark.parametrize("model", ["nb", "lr", "nn"])
def test_cli_raw_k6_runs_in_the_used_columns(tmp_path, capsys, model):
    """21^6 nominal columns, but the models hold only the few the corpus uses."""
    _, _, _, corpus = _write_inputs(tmp_path, {f"c{i:02d}": 3 for i in range(20)})
    out = tmp_path / "out"
    assert main(["run", "--corpus", str(corpus), "--k", "6", "--model", model, "--runs", "1",
                 "--train-fraction", "0.5", "--output-dir", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["feature_dim"] == 21**6
    assert 0 < report["feature_columns"] <= 60 * (24 - 6 + 1)


def test_cli_nn_at_default_width_over_physical_memory_is_config_error(tmp_path, capsys, monkeypatch):
    import seqclass.pipeline as pipeline

    # One-hot on six length-1273 sequences: the default width is the 6746
    # used columns, so four h x used-columns arrays need 4 * 6746^2 * 8
    # bytes = 1.36 GiB, above 1 GiB.
    monkeypatch.setattr(pipeline, "physical_memory_bytes", lambda: 2**30)
    monkeypatch.setattr(pipeline, "_single_run", None)  # reaching a run is a failure too
    _, _, _, corpus = _write_inputs(tmp_path, {"a": 3, "b": 3}, length=1273)
    assert main(["run", "--corpus", str(corpus), "--model", "nn", "--encoding", "ohe"]) == 2
    err = capsys.readouterr().err
    assert "1.0 GiB of physical memory" in err and "lower --nn-hidden-width" in err


@pytest.mark.parametrize("k", [5, 6])
def test_cli_featurize_long_kmers(tmp_path, k):
    data, _, _, corpus = _write_inputs(tmp_path, {"a": 300, "b": 300})  # two chunks
    feats, labels = tmp_path / "f.sqfv", tmp_path / "l.json"
    assert main(["featurize", "--corpus", str(corpus), "--encoding", "kmers", "--k", str(k),
                 "--workers", "2", "--out-features", str(feats), "--out-labels", str(labels)]) == 0
    tag, shape, indptr, _, data_values = read_sqfv1(feats)
    assert tag == 0 and shape == (600, 21**k)
    row_sums = np.add.reduceat(data_values, indptr[:-1]).tolist()
    assert row_sums == [len(item.record.residues) - k + 1 for item in data]


@pytest.mark.parametrize("flags, features_sha256, labels_sha256", [
    (["--encoding", "kmers", "--k", "2"],
     "6eeaef91fd45d578dfd7e3a1f0510e43759efe2ae94745db6e9cd8eb25c57e9e",
     "954d09feb0982706955521f29fb59d9345eb21753fb67209afe7908f919eb33b"),
    (["--encoding", "ohe"],
     "cb41f31bc6d0f8b6c5de3858cd9fd5edc53a2e48c921f17e65f14d625772d68a",
     "81b4a24cde2736a7060744fd25afd0cfa86d4b0d2be1df2e08c3ccd138f1bb0d"),
], ids=["kmers", "ohe"])
def test_cli_featurize_golden_bytes(tmp_path, flags, features_sha256, labels_sha256):
    """The SQFV1 container and labels sidecar of a 3-sequence corpus, byte for byte."""
    import hashlib

    from seqclass.ingest import LabeledSequence, LabelHierarchy, SequenceRecord

    corpus, feats, labels = tmp_path / "c.bin", tmp_path / "f.sqfv", tmp_path / "l.json"
    save_corpus(str(corpus), [
        LabeledSequence(SequenceRecord(seq_id, residues), LabelHierarchy("c", country, None))
        for seq_id, residues, country in [("s1", "ACDEFA", "x"), ("s2", "WYACDW", "y"),
                                          ("s3", "ACACAC", "x")]
    ])
    assert main(["featurize", "--corpus", str(corpus), *flags, "--out-features", str(feats),
                 "--out-labels", str(labels)]) == 0
    assert hashlib.sha256(feats.read_bytes()).hexdigest() == features_sha256
    assert hashlib.sha256(labels.read_bytes()).hexdigest() == labels_sha256