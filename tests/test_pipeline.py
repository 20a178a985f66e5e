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
from seqclass.pipeline import (_score_blocks, report_to_json, run_experiment, strip_timing,
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


@pytest.mark.parametrize("use_rff", [False, True])
def test_runs_time_each_stage(monkeypatch, use_rff):
    """Each run's timing gives the seconds of its split, rff, fit and metrics stages as flat
    keys, then the process's peak RSS; the fit stage holds the fit that
    train_runtime_seconds times, and scoring."""
    import seqclass.pipeline as pipeline

    clock = iter(range(1000))
    monkeypatch.setattr(pipeline.time, "perf_counter", lambda: float(next(clock)))
    data = labeled_corpus({"a": 40, "b": 30, "c": 30}, seed=5)
    config = ExperimentConfig(model="nb", use_rff=use_rff, rff_dim=32, runs=2)
    report = run_experiment(config, data)
    for run in report["runs"]:
        timing = run["timing"]
        assert list(timing) == ["train_runtime_seconds", "split_seconds", "rff_seconds",
                                "fit_seconds", "metrics_seconds", "peak_rss_mb"]
        assert all(isinstance(value, float) and value > 0 for key, value in timing.items()
                   if key != "rff_seconds")
        assert (timing["rff_seconds"] > 0) == use_rff
        assert timing["fit_seconds"] > timing["train_runtime_seconds"]
    assert list(report["aggregate"]["timing"]) == ["train_runtime_seconds_mean",
                                                   "train_runtime_seconds_std"]


def test_runs_report_the_process_peak_rss():
    """peak_rss_mb is ru_maxrss when the run ends: positive, never lower in a later serial
    run, and under timing, so stripped reports do not carry it."""
    import resource

    data = labeled_corpus({"a": 40, "b": 30, "c": 30}, seed=5)
    report = run_experiment(ExperimentConfig(model="nb", use_rff=True, rff_dim=32, runs=3), data)
    peaks = [run["timing"]["peak_rss_mb"] for run in report["runs"]]
    assert all(isinstance(peak, float) and peak > 0 for peak in peaks)
    assert peaks == sorted(peaks)
    assert peaks[-1] <= resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    assert "peak_rss_mb" not in json.dumps(strip_timing(report))


def test_peak_rss_is_none_without_the_resource_module(monkeypatch):
    import sys

    import seqclass.pipeline as pipeline

    monkeypatch.setitem(sys.modules, "resource", None)  # import resource raises ImportError
    assert pipeline._peak_rss_mb() is None


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


def _generator_corpus(monkeypatch, size: int, seed: int,
                      deletion_share: float = 0.0) -> list[LabeledSequence]:
    """Spike-like sequences of benchmarks/gen.py, 20 Zipf-sized classes of 2 or more."""
    monkeypatch.syspath_prepend(str(ROOT / "benchmarks"))
    from gen import CorpusSpec, make_corpus

    corpus = make_corpus(CorpusSpec(size=size, deletion_share=deletion_share), seed)
    return [LabeledSequence(SequenceRecord(i, seq), LabelHierarchy(continent, country))
            for i, seq, continent, country in zip(corpus.ids, corpus.sequences,
                                                  corpus.continents, corpus.countries)]


def _traced_run(tmp_path, data, flags) -> dict:
    """benchmarks/tracer.py's payload for `seqclass run` on ``data`` with ``flags``."""
    import subprocess
    import sys

    corpus, out = tmp_path / "corpus.bin", tmp_path / "spans.json"
    save_corpus(str(corpus), data)
    command = ["run", "--corpus", str(corpus), "--runs", "1", "--train-fraction", "0.5", *flags]
    done = subprocess.run([sys.executable, "benchmarks/tracer.py", "--out", str(out),
                           "--sample-seed", "1", "--", *command], cwd=ROOT,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    payload = json.loads(out.read_text())
    assert payload["rc"] == 0
    assert {name: found for name, found in payload["checks"].items() if found} == {}
    return payload


@pytest.mark.parametrize("k, gemm", [(2, True), (4, False)])
def test_benchmark_tracer_checks_rff_runs_on_either_route(tmp_path, monkeypatch, k, gemm):
    """benchmarks/tracer.py wraps rff.project, takes (projector, x) from its calls and checks
    sampled rows against sqrt(2/D) cos(W x + b) after the run: dense blocks that
    rff.project_rows gathers (k = 2 on generator sequences), or CSR rows on scipy's route
    (random length-200 sequences at k = 4)."""
    from seqclass.features import featurize_corpus, used_columns
    from seqclass.rff import uses_gemm

    data = (_generator_corpus(monkeypatch, 60, seed=1) if gemm
            else labeled_corpus({"a": 30, "b": 30}, length=200, seed=4))
    matrix = used_columns(featurize_corpus(data, "kmers", k=k).matrix)
    assert uses_gemm(matrix.nnz, *matrix.shape) == gemm
    payload = _traced_run(tmp_path, data, ["--model", "lr", "--k", str(k), "--use-rff", "true",
                                           "--rff-dim", "64"])
    assert "RFF rows equal sqrt(2/D)cos(Wx+b)" in payload["checks"]
    assert any(span["name"] == "rff.project" for span in payload["spans"])


@pytest.mark.parametrize("model", ["ridge", "nb"])
def test_benchmark_tracer_checks_raw_kmer_runs(tmp_path, monkeypatch, model):
    """On uint8 k-mer counts, the tracer's feature oracle checks sampled rows against a
    plain-Python count, and ridge's fit against its normal equations."""
    from seqclass.features import featurize_corpus

    data = _generator_corpus(monkeypatch, 60, seed=1)
    assert featurize_corpus(data, "kmers", k=3).matrix.dtype == np.uint8
    checks = _traced_run(tmp_path, data, ["--model", model, "--k", "3"])["checks"]
    assert any(name.startswith("kmers rows vs plain-Python count") for name in checks)
    assert any(name.startswith("ridge normal equations") for name in checks) == (model == "ridge")


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


def _exit_code_and_modules(argv: list[str] | None, package: str = "scipy") -> str:
    """Run a CLI command in a fresh interpreter; its exit code and the modules of ``package``
    it loaded. With no ``argv``, the exit code is 0 and the modules are those that importing
    seqclass.cli loads."""
    import os
    import subprocess
    import sys

    import seqclass

    src = os.path.dirname(os.path.dirname(seqclass.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    run = "code = 0" if argv is None else f"code = main({argv!r})"
    code = (f"import sys; from seqclass.cli import main; {run}; "
            f"print(code, sorted(m for m in sys.modules if m.split('.')[0] == {package!r}))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    return out.stdout.splitlines()[-1]


def test_cli_ingest_leaves_scipy_out(tmp_path):
    """ingest, all of the benchmark's set-up time, loads neither scipy nor numpy nor the modules
    that need them; nor does importing the CLI."""
    _, fasta, meta, _ = _write_inputs(tmp_path, {"a": 5, "b": 5})
    argv = ["ingest", "--fasta", str(fasta), "--metadata", str(meta), "--out", str(tmp_path / "c")]
    for package in ("scipy", "numpy"):
        assert _exit_code_and_modules(argv, package) == "0 []"
        assert _exit_code_and_modules(None, package) == "0 []"


def test_cli_featurize_counts_on_threads_not_processes(tmp_path):
    """featurize --workers 2 counts a corpus of several chunks on threads: no child process,
    so neither concurrent.futures.process nor multiprocessing is loaded."""
    _, _, _, corpus = _write_inputs(tmp_path, {"a": 60, "b": 60}, length=1273)  # 3 chunks at k = 3
    argv = ["featurize", "--corpus", str(corpus), "--workers", "2",
            "--out-features", str(tmp_path / "f.sqfv"), "--out-labels", str(tmp_path / "l.json")]
    out = _exit_code_and_modules(argv, "concurrent")
    assert out.startswith("0 [") and "'concurrent.futures.thread'" in out
    assert "concurrent.futures.process" not in out
    assert _exit_code_and_modules(argv, "multiprocessing") == "0 []"


def test_cli_ig_leaves_scipy_out(tmp_path):
    """ig counts residues by class with numpy alone: no scipy, no features module."""
    _, _, _, corpus = _write_inputs(tmp_path, {"a": 5, "b": 5}, length=12)
    argv = ["ig", "--corpus", str(corpus), "--out", str(tmp_path / "ig.csv"),
            "--histograms", str(tmp_path / "hist.json")]
    assert _exit_code_and_modules(argv) == "0 []"


def test_cli_run_lr_leaves_scipy_optimize_out(tmp_path):
    """lr is fitted by linear_models' own L-BFGS, raw and on RFF features."""
    _, _, _, corpus = _write_inputs(tmp_path, {"a": 10, "b": 10})
    for flags in ([], ["--use-rff", "true", "--rff-dim", "16"]):
        out = _exit_code_and_modules(["run", "--corpus", str(corpus), "--model", "lr",
                                            "--runs", "1", *flags])
        assert out.startswith("0 ['scipy'")
        assert "scipy.optimize" not in out


def test_cli_run_ridge_leaves_scipy_linalg_out(tmp_path):
    """ridge's dual solve is numpy's: neither scipy.linalg nor scipy.sparse.linalg is loaded."""
    _, _, _, corpus = _write_inputs(tmp_path, {"a": 10, "b": 10})
    out = _exit_code_and_modules(["run", "--corpus", str(corpus), "--model", "ridge",
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
    if rows is not None:  # dense blocks are gemm_rows tall, CSR ones GEMM_BLOCK_BYTES over
        # the bytes of the longest row's nonzeros (a value, an index, a copy and its square)
        monkeypatch.setattr(pipeline, "gemm_rows", lambda width: rows)
        row_bytes = int(np.diff(feats.matrix.indptr).max()) * (feats.matrix.data.itemsize + 20)
        monkeypatch.setattr(pipeline, "GEMM_BLOCK_BYTES", rows * row_bytes)
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
    # 35 test rows: 1-row blocks, or 4-row ones and a block of the 3-row remainder
    assert blocks == ([1] * 35 if rows == 1 else [4] * 8 + [3])
    assert np.array_equal(blocked, whole)


DENSE_SCORING = [("nn", False)] + [(model, True) for model in ("majority", "nb", "lr", "ridge", "nn")]


@pytest.mark.parametrize("model, use_rff", DENSE_SCORING,
                         ids=[f"{m}-{'rff' if r else 'raw'}" for m, r in DENSE_SCORING])
def test_dense_scores_in_blocks(monkeypatch, model, use_rff):
    """A dense GEMM rounds by its height: bit-identical at the blocks of D = 1000, and
    within 1e-14 of the largest score (at least 1) at 7-row blocks. Dense blocks differ in
    height by at most one row."""
    data = labeled_corpus({"a": 1200, "b": 900, "c": 900}, length=40, seed=4)  # 2700 test rows
    config = ExperimentConfig(model=model, k=2, use_rff=use_rff, nn_hidden_width=16, nn_epochs=2,
                              lr_max_iters=30)
    rows = _block_rows(config, 441, 39, 1) if use_rff else 1048
    assert rows == 1048
    blocked, whole, blocks = _blocked_and_whole_scores(monkeypatch, config, data, rows)
    assert blocks == [900] * 3
    assert np.array_equal(blocked, whole)
    blocked, whole, blocks = _blocked_and_whole_scores(monkeypatch, config, data, 7)
    assert sorted(blocks) == [6] * 2 + [7] * 384  # 2700 rows
    assert np.abs(blocked - whole).max() <= 1e-14 * max(1.0, np.abs(whole).max())


# test rows around the RFF step: multiples of it, 1 and 2 rows above and below one, and
# step - 1 above or below one
RFF_STEP = 150
RFF_TEST_ROWS = [300, 301, 302, 299, 298, 449, 151]


@pytest.mark.parametrize("classes", [20, 3])
@pytest.mark.parametrize("n_test", RFF_TEST_ROWS)
@pytest.mark.parametrize("model", ["majority", "nb", "lr", "ridge", "nn"])
def test_rff_scores_in_blocks_are_bit_identical_to_the_whole_split(monkeypatch, model, n_test,
                                                                   classes):
    """RFF test rows are scored in ceil(n_test / step) blocks whose heights differ by at
    most one row, each one GEMM, so none is shorter than half a GEMM. At 20 classes their
    scores are bit for bit those of the whole test split, projected by project and scored
    at once; at 3, within 1e-14 of the largest score (at least 1).

    Bit-identity rests on BLAS giving a product's rows the same bits at any height from
    some number of rows on: on a 2-core host's OpenBLAS (Haswell kernels), 2 rows for the
    441 x 1000 projection, 51 for a 1000 x 20 score product and 61 for nn's 64 x 20
    layer, while products of 3 columns differ at heights of hundreds of rows. So D is
    1000 and the step, set through GEMM_BLOCK_BYTES, keeps every block at least 75 rows
    tall: enough at 20 classes, not at 3."""
    import seqclass.rff as rff

    total = 100 + n_test
    sizes = {f"c{i:02d}": total // classes + (i < total % classes) for i in range(classes)}
    data = labeled_corpus(sizes, length=40, seed=n_test)
    config = ExperimentConfig(model=model, k=2, use_rff=True, rff_dim=1000, nn_hidden_width=64,
                              nn_epochs=2, lr_max_iters=30, train_fraction=100 / total)
    # 1000 projected columns are more than the 441 used ones, and set the step
    monkeypatch.setattr(rff, "GEMM_BLOCK_BYTES", RFF_STEP * 8 * 1000)
    blocked, whole, blocks = _blocked_and_whole_scores(monkeypatch, config, data)
    assert sum(blocks) == n_test and len(blocks) == -(-n_test // RFF_STEP)
    assert max(blocks) - min(blocks) <= 1 and max(blocks) <= RFF_STEP
    if classes == 20:
        assert np.array_equal(blocked, whole)
    assert np.abs(blocked - whole).max() <= 1e-14 * max(1.0, np.abs(whole).max())


def _block_rows(config, columns: int, longest_row: int, value_bytes: int) -> int:
    """The most test rows that _score_blocks scores in one block, on a corpus of ``columns``
    used columns whose longest row holds ``longest_row`` nonzeros of ``value_bytes`` bytes:
    up to that many test rows make one block, and one more makes two."""
    dtype = {1: np.uint8, 8: np.float64}[value_bytes]
    matrix = sp.csr_matrix((np.ones(longest_row, dtype), np.zeros(longest_row, np.int32),
                            [0, longest_row]), shape=(1, columns))
    low, high = 1, 1 << 15
    while low < high:
        middle = (low + high + 1) // 2
        if len(_score_blocks(config, matrix, middle)[0]) == 2:
            low = middle
        else:
            high = middle - 1
    return low


def test_score_block_rows():
    # With RFF, 8 MiB over a row's 8 bytes a used column or a projected one, whichever are
    # more: one GEMM, whose projection is 8 MiB at most. Raw nn: 8 bytes a used column
    rff = ExperimentConfig(use_rff=True, rff_dim=1000)
    assert _block_rows(rff, 441, 39, 1) == 1048
    assert _block_rows(rff, 4432, 39, 1) == 236
    assert _block_rows(replace(rff, model="nn"), 441, 39, 1) == 1048
    assert _block_rows(ExperimentConfig(use_rff=True, rff_dim=3000), 441, 0, 1) == 349
    assert _block_rows(ExperimentConfig(model="nn"), 5339, 37, 1) == 196
    assert _block_rows(ExperimentConfig(use_rff=True, rff_dim=2 << 20), 441, 0, 1) == 1
    assert _block_rows(ExperimentConfig(use_rff=True, rff_dim=64), 2 << 20, 0, 1) == 1
    assert _block_rows(ExperimentConfig(model="nn"), 2 << 20, 0, 1) == 1
    # A CSR block: 8 MiB over the longest row's nonzeros, each its value, its int32
    # index, a float64 copy and nb's square of it; every CSR model gets nb's blocks
    for model in ("majority", "nb", "lr", "ridge"):
        config = ExperimentConfig(model=model)
        assert _block_rows(config, 5339, 37, 1) == (8 << 20) // (21 * 37)
    assert _block_rows(ExperimentConfig(), 5339, 37, 8) == (8 << 20) // (28 * 37)
    assert _block_rows(ExperimentConfig(), 5339, 1 << 20, 1) == 1  # a row above 8 MiB


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


@pytest.mark.parametrize("model", ["ridge", "nb"])
def test_raw_csr_scoring_holds_at_most_one_block_budget(monkeypatch, model):
    """Beside the n_test x C score array, raw scoring holds at most GEMM_BLOCK_BYTES beyond
    the matrix and the model: a block's uint8 rows, their float64 copy and nb's square of
    it, sized by the longest row. Memory is traced from the end of the fit to each block's
    scores."""
    import tracemalloc

    import seqclass.pipeline as pipeline
    from seqclass.features import featurize_corpus, used_columns

    data = labeled_corpus({"a": 800, "b": 600, "c": 600}, length=300, seed=2)
    feats = featurize_corpus(data, "kmers", k=2)
    feats = replace(feats, matrix=used_columns(feats.matrix))
    assert feats.matrix.dtype == np.uint8
    budget = 1 << 20
    monkeypatch.setattr(pipeline, "GEMM_BLOCK_BYTES", budget)
    seen = {"blocks": 0}
    fit_model = pipeline._fit

    def fit(*args):
        fitted, scores, diagnostics = fit_model(*args)

        def block_scores(fitted, X):
            out = scores(fitted, X)
            seen["blocks"] += 1
            seen["peak"] = tracemalloc.get_traced_memory()[1]
            return out

        tracemalloc.start()
        return fitted, block_scores, diagnostics

    monkeypatch.setattr(pipeline, "_fit", fit)
    try:
        pipeline._single_run(ExperimentConfig(model=model, k=2), feats, 0)
    finally:
        tracemalloc.stop()
    assert seen["blocks"] > 4
    assert seen["peak"] - 1800 * 3 * 8 <= budget


@pytest.mark.parametrize("model", ["lr", "nb"])
def test_rff_scoring_projects_each_block_in_one_gemm_and_scores_what_project_returns(
        monkeypatch, model):
    """Each block of test rows is one rff.project call on rows gathered into a buffer of
    the block's height, and the array it returns is scored as it is. So, traced from the
    end of the fit, scoring holds at most one gather buffer, one block's projection (nb:
    and its square, and dense copies of its score terms), the block's score arrays and the
    n_test x C scores: no n_block x D array is assembled."""
    import tracemalloc

    import seqclass.pipeline as pipeline
    import seqclass.rff as rff
    from seqclass.features import featurize_corpus, used_columns

    data = labeled_corpus({"a": 800, "b": 600, "c": 600}, length=300, seed=2)
    feats = featurize_corpus(data, "kmers", k=2)
    feats = replace(feats, matrix=used_columns(feats.matrix))
    columns, D, C, n_test = feats.matrix.shape[1], 64, 3, 1800
    monkeypatch.setattr(rff, "GEMM_BLOCK_BYTES", 1 << 20)
    step = rff.gemm_rows(columns)  # 297 rows of 441 columns: 8 times a block's projection
    assert rff.uses_gemm(feats.matrix.nnz, *feats.matrix.shape)
    project, gathered, seen = rff.project, [], {"blocks": []}

    def recording(projector, x):
        gathered.append(x.base.shape)  # the buffer the rows were gathered into
        seen["projected"] = project(projector, x)
        return seen["projected"]

    monkeypatch.setattr(rff, "project", recording)
    fit_model = pipeline._fit

    def fit(*args):
        fitted, scores, diagnostics = fit_model(*args)

        def block_scores(fitted, X):
            assert X is seen.pop("projected")
            out = scores(fitted, X)
            seen["blocks"].append(len(X))
            seen["peak"] = tracemalloc.get_traced_memory()[1]
            return out

        tracemalloc.start()
        return fitted, block_scores, diagnostics

    monkeypatch.setattr(pipeline, "_fit", fit)
    try:
        pipeline._single_run(ExperimentConfig(model=model, k=2, use_rff=True, rff_dim=D), feats, 0)
    finally:
        tracemalloc.stop()
    blocks = seen["blocks"]
    assert len(blocks) == len(gathered) - 1 == -(-n_test // step) and max(blocks) <= step
    # the train split's 200 rows, then each block's, in a buffer of their height
    assert gathered == [(n, columns) for n in [200, *blocks]]
    block = max(blocks)
    squared = model == "nb"
    held = 8 * (columns * block + D * block * (1 + squared) + C * (n_test + 4 * block)
                + 2 * D * C * squared
                # numpy's buffer for a ufunc over a broadcast operand (project adds the phases)
                + np.getbufsize())
    assert seen["peak"] <= held


@pytest.mark.parametrize("model", ["majority", "ridge"])
def test_raw_scoring_holds_no_train_split(monkeypatch, model):
    """Nothing reads the train split after the fit, so the run frees it before scoring.
    On the ragged 3000-sequence generator corpus at k = 3 with 90 % of the rows in the
    train split, the traced peak from the first block's scores on falls by about the
    split's bytes against a run that keeps it."""
    import tracemalloc

    import seqclass.pipeline as pipeline
    from seqclass.features import featurize_corpus, used_columns

    data = [LabeledSequence(SequenceRecord(item.record.id, item.record.residues[:150]),
                            item.label) if row >= 2000 else item
            for row, item in enumerate(_generator_corpus(monkeypatch, 3000, 1, 1 / 3))]
    feats = featurize_corpus(data, "kmers", k=3)
    feats = replace(feats, matrix=used_columns(feats.matrix))
    config = ExperimentConfig(model=model, k=3, train_fraction=0.9, runs=1)
    train_idx, _ = pipeline.split_indices(3000, 0.9, config.split_seed,
                                          np.asarray(feats.class_names, dtype=object)[feats.labels])
    split = feats.matrix[train_idx]
    split_bytes = split.data.nbytes + split.indices.nbytes + split.indptr.nbytes
    del split
    fit_model = pipeline._fit

    def scoring_peak(keep_split: bool) -> int:
        kept, seen = [], []

        def fit(config, X_train, *args):
            if keep_split:
                kept.append(X_train)  # held through scoring, as runs once held it
            fitted, scores, diagnostics = fit_model(config, X_train, *args)

            def block_scores(fitted, X):
                if not seen:
                    tracemalloc.reset_peak()
                seen.append(X.shape[0])
                return scores(fitted, X)

            return fitted, block_scores, diagnostics

        monkeypatch.setattr(pipeline, "_fit", fit)
        tracemalloc.start()
        try:
            pipeline._single_run(config, feats, 0)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    freed, held = scoring_peak(False), scoring_peak(True)
    assert freed < split_bytes
    assert 0.95 * split_bytes <= held - freed <= 1.05 * split_bytes


# --- memory pre-flight -----------------------------------------------------------


def _rows(rows, columns, per_row=0, dtype=np.float64):
    """A CSR corpus matrix of rows holding per_row nonzeros each, in their first columns."""
    return sp.csr_matrix((np.ones(rows * per_row, dtype), np.tile(np.arange(per_row), rows),
                          np.arange(rows + 1) * per_row), shape=(rows, columns))


def _estimate_grid_matrices():
    """The grid's corpus matrices on their used columns, by name, with their class counts:
    k = 2, 3 and 6 counts of a ragged corpus (40 to 200 residues), one-hot on an aligned
    one, and the k = 3 counts L2-normalized to float64."""
    from seqclass.features import featurize_corpus, used_columns

    sizes = {"a": 240, "b": 180, "c": 120, "d": 60}
    aligned = labeled_corpus(sizes, length=80, seed=7)
    ragged = [LabeledSequence(SequenceRecord(item.record.id,
                                             item.record.residues[:40 + 37 * row % 161]), item.label)
              for row, item in enumerate(labeled_corpus(sizes, length=200, seed=7))]
    spec = {"k2": (ragged, "kmers", 2, False), "k3": (ragged, "kmers", 3, False),
            "k6": (ragged, "kmers", 6, False), "ohe": (aligned, "ohe", 3, False),
            "k3-l2": (ragged, "kmers", 3, True)}
    for name, (data, encoding, k, l2) in spec.items():
        feats = featurize_corpus(data, encoding, k=k, l2_normalize=l2)
        yield name, used_columns(feats.matrix), len(feats.class_names)


K, TF, H = "--k", "--train-fraction", "--nn-hidden-width"
RK, HR = "--rff-dim or --k", "--nn-hidden-width or --rff-dim"
# (matrix, model, use_rff): memory_estimate at train fractions 0.1, 0.5 and 0.9, with D =
# 1000 and nn64 the nn at width 64. Printed by this grid at commit 0672eab, where
# pipeline.memory_estimate still worked out every term itself, before each term moved
# beside the function that allocates it; the nn rows printed again once
# neural_net.score_bytes counted w1 for dense input and _forward's two activations.
FROZEN_ESTIMATES = {
    ("k2", "majority", False): [(1602354, K), (1036674, K), (611064, K)],
    ("k2", "majority", True): [(10242630, RK), (7437510, RK), (10156230, RK)],
    ("k2", "nb", False): [(2360658, K), (1470498, K), (1554456, K)],
    ("k2", "nb", True): [(14690630, RK), (9965510, RK), (10156230, RK)],
    ("k2", "lr", False): [(1616466, K), (1050786, K), (1266216, K)],
    ("k2", "lr", True): [(10274630, RK), (7469510, RK), (10156230, RK)],
    ("k2", "ridge", False): [(8932157, TF), (10940107, TF), (12586248, K)],
    ("k2", "ridge", True): [(12859238, RK), (16169318, RK), (21322598, RK)],
    ("k2", "nn", False): [(7687182, H), (7062151, H), (7187256, H)],
    ("k2", "nn", True): [(36891110, HR), (39131110, HR), (41051110, HR)],
    ("k2", "nn64", False): [(3099846, H), (1968966, H), (1867032, H)],
    ("k2", "nn64", True): [(11307590, HR), (9179110, HR), (11099110, HR)],
    ("k3", "majority", False): [(1849764, K), (1193604, K), (694344, K)],
    ("k3", "majority", True): [(75684036, RK), (77683140, RK), (80220900, RK)],
    ("k3", "nb", False): [(3297636, K), (2299608, K), (2892552, K)],
    ("k3", "nb", True): [(76676036, RK), (77683140, RK), (80220900, RK)],
    ("k3", "lr", False): [(4909192, K), (5276984, K), (5644776, K)],
    ("k3", "lr", True): [(75716036, RK), (77683140, RK), (80220900, RK)],
    ("k3", "ridge", False): [(8997912, TF), (11093512, TF), (15032312, TF)],
    ("k3", "ridge", True): [(83439068, RK), (86749148, RK), (91902428, RK)],
    ("k3", "nn", False): [(2747590952, H), (2750696152, H), (2750838792, H)],
    ("k3", "nn", True): [(107470940, HR), (109710940, HR), (111630940, HR)],
    ("k3", "nn64", False): [(23813288, H), (26918488, H), (27061128, H)],
    ("k3", "nn64", True): [(77518940, HR), (79758940, HR), (81678940, HR)],
    ("k6", "majority", False): [(1822209, K), (1175409, K), (681999, K)],
    ("k6", "majority", True): [(553296545, RK), (555824945, RK), (558353345, RK)],
    ("k6", "nb", False): [(9347999, K), (9930023, K), (10512047, K)],
    ("k6", "nb", True): [(553296545, RK), (555824945, RK), (558353345, RK)],
    ("k6", "lr", False): [(33590607, K), (33951639, K), (34312671, K)],
    ("k6", "lr", True): [(553624445, RK), (555824945, RK), (558353345, RK)],
    ("k6", "ridge", False): [(8988167, TF), (11070767, TF), (14996567, TF)],
    ("k6", "ridge", True): [(561592573, RK), (564902653, RK), (570055933, RK)],
    ("k6", "nn", False): [(152509208447, H), (152531437447, H), (152531577487, H)],
    ("k6", "nn", True): [(585624445, HR), (587864445, HR), (589784445, HR)],
    ("k6", "nn64", False): [(174904703, H), (197133703, H), (197273743, H)],
    ("k6", "nn64", True): [(555672445, HR), (557912445, HR), (559832445, HR)],
    ("ohe", "majority", False): [(909604, K), (621604, K), (481924, K)],
    ("ohe", "majority", True): [(18743140, RK), (16535140, RK), (18656740, RK)],
    ("ohe", "nb", False): [(1362724, K), (983044, K), (1388164, K)],
    ("ohe", "nb", True): [(23191140, RK), (19063140, RK), (18656740, RK)],
    ("ohe", "lr", False): [(1130884, K), (1382404, K), (1633924, K)],
    ("ohe", "lr", True): [(18775140, RK), (16655140, RK), (18656740, RK)],
    ("ohe", "ridge", False): [(8830212, TF), (10702212, TF), (14417412, TF)],
    ("ohe", "ridge", True): [(22703268, RK), (26013348, RK), (31166628, RK)],
    ("ohe", "nn", False): [(91409284, H), (92044804, H), (92142724, H)],
    ("ohe", "nn", True): [(46735140, HR), (48975140, HR), (50895140, HR)],
    ("ohe", "nn64", False): [(9018724, H), (5508964, H), (5266564, H)],
    ("ohe", "nn64", True): [(19808100, HR), (19023140, HR), (20943140, HR)],
    ("k3-l2", "majority", False): [(3090724, K), (2101924, K), (1630132, K)],
    ("k3-l2", "majority", True): [(76326244, RK), (78591460, RK), (81461860, RK)],
    ("k3-l2", "nb", False): [(4538596, K), (3169636, K), (3321748, K)],
    ("k3-l2", "nb", True): [(77318244, RK), (78591460, RK), (81461860, RK)],
    ("k3-l2", "lr", False): [(5394676, K), (5734324, K), (6073972, K)],
    ("k3-l2", "lr", True): [(76358244, RK), (78591460, RK), (81461860, RK)],
    ("k3-l2", "ridge", False): [(9483396, TF), (11550852, TF), (15461508, TF)],
    ("k3-l2", "ridge", True): [(83931588, RK), (87241668, RK), (92394948, RK)],
    ("k3-l2", "nn", False): [(2748132724, H), (2751434932, H), (2751774580, H)],
    ("k3-l2", "nn", True): [(107963460, HR), (110203460, HR), (112123460, HR)],
    ("k3-l2", "nn64", False): [(24355060, H), (27657268, H), (27996916, H)],
    ("k3-l2", "nn64", True): [(78011460, HR), (80251460, HR), (82171460, HR)],
}


def test_memory_estimate_is_unchanged():
    from seqclass.pipeline import memory_estimate

    got = {}
    for name, matrix, class_count in _estimate_grid_matrices():
        for variant in ("majority", "nb", "lr", "ridge", "nn", "nn64"):
            for use_rff in (False, True):
                config = ExperimentConfig(model=variant[:2] if variant == "nn64" else variant,
                                          use_rff=use_rff, rff_dim=1000,
                                          nn_hidden_width=64 if variant == "nn64" else None)
                got[name, variant, use_rff] = [
                    memory_estimate(replace(config, train_fraction=fraction), class_count, matrix)
                    for fraction in (0.1, 0.5, 0.9)]
    assert got == FROZEN_ESTIMATES


@pytest.mark.parametrize("model", ["lr", "ridge", "nb"])
def test_memory_estimate_covers_traced_rff_run(model):
    """The CSR copies that RFF makes of the corpus's nonzeros are counted too."""
    import tracemalloc

    from seqclass.features import featurize_corpus, used_columns
    from seqclass.pipeline import memory_estimate

    data = labeled_corpus({"a": 1000, "b": 1000, "c": 1000}, length=60, seed=1)
    config = ExperimentConfig(model=model, k=2, use_rff=True, rff_dim=2000, lr_max_iters=20,
                              runs=1)
    # the run's own estimate: on the used columns, of the longest row and uint8 counts
    matrix = used_columns(featurize_corpus(data, "kmers", k=2).matrix)
    estimate, _ = memory_estimate(config, 3, matrix)
    tracemalloc.start()
    run_experiment(config, data)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak <= estimate <= 1.25 * peak


def test_memory_estimate_covers_a_ragged_rff_block_on_scipys_route(monkeypatch):
    """A ragged corpus (the 3000-sequence generator corpus, a third with one deletion and
    its last third cut to 150 residues) is 6.8 % dense on its 13166 used columns at k = 4:
    the train split and the first block of test rows take the GEMM route, and the last
    block, 1652 rows at 5.0 %, takes scipy's. The estimate bounds that block's nonzeros by
    its rows times the longest row."""
    import tracemalloc

    import seqclass.pipeline as pipeline
    from seqclass.features import featurize_corpus, used_columns
    from seqclass.rff import uses_gemm

    data = [LabeledSequence(SequenceRecord(item.record.id, item.record.residues[:150]),
                            item.label) if row >= 2000 else item
            for row, item in enumerate(_generator_corpus(monkeypatch, 3000, 1, 1 / 3))]
    config = ExperimentConfig(k=4, use_rff=True, runs=1)
    feats = featurize_corpus(data, "kmers", k=4)
    feats = replace(feats, matrix=used_columns(feats.matrix))
    matrix = feats.matrix
    _, test_idx = pipeline.split_indices(3000, config.train_fraction, config.split_seed)
    last = matrix[test_idx[1048:]]
    assert uses_gemm(matrix.nnz, *matrix.shape) and not uses_gemm(last.nnz, *last.shape)
    estimate, _ = pipeline.memory_estimate(config, len(feats.class_names), matrix)
    del last
    tracemalloc.start()
    pipeline._single_run(config, feats, 0)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak <= estimate


def test_memory_estimate_covers_the_raw_train_split_and_its_fit_copies(monkeypatch):
    """A raw run holds its CSR train split throughout, and nb, lr and ridge fit a float64
    copy of its counts (nb its square and a scaled copy for scipy's mean too). On the
    ragged 3000-sequence generator corpus at k = 3, no estimate falls below 0.9 of the
    traced peak of the run, with 10 % or 90 % of the rows in the train split."""
    import tracemalloc

    import seqclass.pipeline as pipeline
    from seqclass.features import featurize_corpus, used_columns

    data = [LabeledSequence(SequenceRecord(item.record.id, item.record.residues[:150]),
                            item.label) if row >= 2000 else item
            for row, item in enumerate(_generator_corpus(monkeypatch, 3000, 1, 1 / 3))]
    feats = featurize_corpus(data, "kmers", k=3)
    feats = replace(feats, matrix=used_columns(feats.matrix))
    assert feats.matrix.dtype == np.uint8
    short = {}
    for fraction in (0.1, 0.9):
        for model in ("majority", "nb", "lr", "ridge"):
            config = ExperimentConfig(model=model, k=3, train_fraction=fraction, runs=1,
                                      lr_max_iters=20)  # past LBFGS_MEMORY iterations
            estimate, _ = pipeline.memory_estimate(config, len(feats.class_names), feats.matrix)
            tracemalloc.start()
            pipeline._single_run(config, feats, 0)
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            if estimate < 0.9 * peak:
                short[model, fraction] = (estimate, peak)
    assert short == {}


def _held(matrix, rff_dim=0):
    """What a run holds throughout beside its model: the corpus matrix, 32 bytes a row (its
    labels, the split's indices and labels and the class names it reads) and, with RFF,
    the D phases and numpy's buffer for the ufunc that adds them to a projection."""
    held = (matrix.data.nbytes + matrix.indices.nbytes + matrix.indptr.nbytes
            + 32 * matrix.shape[0])
    return held + (8 * rff_dim + 8 * np.getbufsize() if rff_dim else 0)


def test_memory_estimate_at_long_kmers():
    from seqclass.pipeline import memory_estimate

    d5, d6 = 21**5, 21**6
    assert memory_estimate(ExperimentConfig(model="nb", k=5), 20, _rows(0, d5)) == (
        4 * 20 * d5 * 8 + _held(_rows(0, d5)), "--k")
    assert memory_estimate(ExperimentConfig(model="lr", k=6), 20, _rows(0, d6))[0] == (
        15 * 20 * d6 * 8 + _held(_rows(0, d6)))
    assert memory_estimate(ExperimentConfig(model="ridge", k=6), 20, _rows(0, d6))[0] == (
        _held(_rows(0, d6)))
    # RFF draws weights for the used columns alone (12043 of 21^6 on the benchmark's
    # 1000-sequence corpus). With no rows given, no block is counted
    rff = memory_estimate(ExperimentConfig(model="nb", k=6, use_rff=True), 20, _rows(0, 12043))
    assert rff == (1000 * 12043 * 8 + 4 * 20 * 1000 * 8 + _held(_rows(0, 12043), 1000),
                   "--rff-dim or --k")
    # 3000 rows: the dense 300-row train split beside the fit, or the largest block of
    # the 2700 test rows (3 blocks of 900: D = 1000 is wider than the 441 columns) with
    # nb's square of it, beside nb's 4 C x D arrays (lr's and ridge's weights: 1) and the
    # scores: the 2700 x C scores and 4 block x C arrays. With no nonzeros every call
    # takes scipy's route, which gathers no rows
    scores, weights = 8 * 20 * (2700 + 4 * 900), 20 * 1000 * 8
    empty = _rows(3000, 441)
    rff = memory_estimate(ExperimentConfig(model="nb", k=2, use_rff=True), 20, empty)
    assert rff == (1000 * 441 * 8 + 2 * 900 * 1000 * 8 + 4 * weights + scores
                   + _held(empty, 1000), "--rff-dim or --k")
    lr = ExperimentConfig(model="lr", k=2, use_rff=True)
    rff = memory_estimate(lr, 20, empty)
    assert rff[0] == 1000 * 441 * 8 + 900 * 1000 * 8 + weights + scores + _held(empty, 1000)
    # with 50 nonzeros a row (11 % dense) a call can take the GEMM route: projecting a
    # 900-row block, one GEMM, holds a gather buffer of 900 rows beside its output. Had the
    # block taken scipy's route, its copies would hold under 0.05 x 441 nonzeros a row at
    # 20 bytes each
    rows50 = _rows(3000, 441, 50)
    rff = memory_estimate(lr, 20, rows50)
    assert rff[0] == (441 * (1000 + 900) * 8 + 900 * 1000 * 8 + weights + scores
                      + _held(rows50, 1000))
    # the 2700-row train split takes two GEMMs of up to 2377 rows: projecting it holds a
    # 2377-row buffer and one GEMM's projection beside the split's
    wide = replace(lr, train_fraction=0.9)
    rff = memory_estimate(wide, 20, rows50)
    assert rff[0] == (441 * 1000 * 8 + 2700 * 1000 * 8 + 2377 * (441 + 1000) * 8
                      + _held(rows50, 1000))
    # on 4432 of 21^3 columns at 13 nonzeros a row (0.3 % dense): scipy's route, whose
    # copies of 225-row blocks (12 GEMMs' worth of 2700 rows) are below the fit's: lr's
    # 15 C x D arrays beside the dense 300-row train split
    for dtype in (np.float64, np.uint8):
        rows13 = _rows(3000, 4432, 13, dtype)
        rff = memory_estimate(replace(lr, k=3), 20, rows13)
        assert rff[0] == 1000 * 4432 * 8 + 300 * 1000 * 8 + 15 * weights + _held(rows13, 1000)
    # rows of 1100 nonzeros on 4432 columns (25 % dense): a call of them takes scipy's route
    # only below 5 % density, so its copies hold fewer than 0.05 x 4432 = 221.6 nonzeros a
    # row at 13 bytes each (uint8 counts). The 2700-row train split's copies, 7.8 MB, are
    # below the GEMM route's 236-row buffer and one GEMM's projection, which lie beside the
    # split's projection and the weights
    rows1100 = _rows(3000, 4432, 1100, np.uint8)
    rff = memory_estimate(replace(wide, k=3), 20, rows1100)
    assert rff[0] == (4432 * 1000 * 8 + 2700 * 1000 * 8 + 236 * (4432 + 1000) * 8
                      + _held(rows1100, 1000))
    # 1000 classes: lr's 15 C x D arrays outweigh the scoring of any block
    assert memory_estimate(lr, 1000, empty)[0] == (
        1000 * (441 + 300) * 8 + 15 * 1000 * 1000 * 8 + _held(empty, 1000))


def test_memory_estimate_of_nn_counts_hidden_by_input():
    from seqclass.pipeline import memory_estimate

    d = 1273 * 21  # one-hot on length-1273 sequences
    # the default width is the input dimension: 4 arrays of 5.7 GB each
    assert memory_estimate(ExperimentConfig(model="nn", encoding="ohe"), 20, _rows(0, d)) == (
        4 * d * d * 8 + _held(_rows(0, d)), "--nn-hidden-width")
    # on 6746 used columns the default width is 6746 too
    assert memory_estimate(ExperimentConfig(model="nn", encoding="ohe"), 20, _rows(0, 6746)) == (
        4 * 6746 * 6746 * 8 + _held(_rows(0, 6746)), "--nn-hidden-width")
    narrow = ExperimentConfig(model="nn", encoding="ohe", nn_hidden_width=64)
    assert memory_estimate(narrow, 20, _rows(0, d)) == (4 * 64 * d * 8 + _held(_rows(0, d)),
                                                        "--nn-hidden-width")
    # 3000 rows: the fit densifies batches of 100 of the 300 train rows beside its 4
    # h x d arrays and the CSR train split (row pointers of 8 bytes a train row: these
    # rows hold no nonzeros). That outweighs scoring, which densifies 14 balanced blocks
    # of at most 8 MiB / (8 * 5339) = 196 of the 2700 test rows (193 at most) beside w1,
    # two block x h activations and the scores (2700 x C, and 4 block x C arrays)
    columns = 5339
    corpus = _rows(3000, columns)
    assert ((64 + 193) * columns * 8 + 2 * 193 * 64 * 8 + 8 * 20 * (2700 + 4 * 193)
            < (4 * 64 + 100) * columns * 8)
    assert memory_estimate(narrow, 20, corpus) == (
        (4 * 64 + 100) * columns * 8 + 8 * 300 + _held(corpus), "--nn-hidden-width")
    # a 40-row corpus trains in one batch of its 4 train rows and scores its 36 test rows at once
    corpus = _rows(40, columns)
    assert memory_estimate(narrow, 20, corpus)[0] == (
        (4 * 64 + 4) * columns * 8 + 8 * 4 + _held(corpus))
    # with RFF the width is D, and the fit's 4 D x D arrays beside the weights
    rff = memory_estimate(ExperimentConfig(model="nn", use_rff=True, rff_dim=1000), 20,
                          _rows(0, d))
    assert rff == (1000 * d * 8 + 4 * 1000 * 1000 * 8 + _held(_rows(0, d), 1000),
                   "--nn-hidden-width or --rff-dim")


def test_preflight_counts_every_parallel_run(monkeypatch):
    import seqclass.pipeline as pipeline

    config = ExperimentConfig(model="nb")
    matrix = _rows(0, 9261)
    per_run, _ = pipeline.memory_estimate(config, 20, matrix)
    monkeypatch.setattr(pipeline, "physical_memory_bytes", lambda: int(1.5 * per_run))
    pipeline._preflight_memory(config, 9261, 20, 1, matrix)
    with pytest.raises(InvalidConfig, match="lower --k"):
        pipeline._preflight_memory(config, 9261, 20, 2, matrix)
    # each pool process unpickles its own corpus, and the parent keeps its own
    monkeypatch.setattr(pipeline, "physical_memory_bytes", lambda: 2 * per_run + _held(matrix) - 1)
    with pytest.raises(InvalidConfig, match="lower --k"):
        pipeline._preflight_memory(config, 9261, 20, 2, matrix)
    monkeypatch.setattr(pipeline, "physical_memory_bytes", lambda: None)  # unknown: no check
    pipeline._preflight_memory(config, 9261, 20, 2, matrix)


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
def test_cli_featurize_long_kmers(tmp_path, monkeypatch, k):
    """600 rows of 24 residues hold 20 or 19 windows each: 3 chunks at 5000 windows a chunk,
    which --workers 2 counts off the calling thread."""
    import threading

    from seqclass import features

    monkeypatch.setattr(features, "_CHUNK_WINDOWS", 5000)
    monkeypatch.setattr(features, "_usable_cores", lambda: 2)
    counted_on, count = [], features._kmer_chunk
    monkeypatch.setattr(features, "_kmer_chunk", lambda ids, seqs, k: counted_on.append(
        threading.get_ident()) or count(ids, seqs, k))
    data, _, _, corpus = _write_inputs(tmp_path, {"a": 300, "b": 300})
    feats, labels = tmp_path / "f.sqfv", tmp_path / "l.json"
    assert main(["featurize", "--corpus", str(corpus), "--encoding", "kmers", "--k", str(k),
                 "--workers", "2", "--out-features", str(feats), "--out-labels", str(labels)]) == 0
    tag, shape, indptr, _, data_values = read_sqfv1(feats)
    assert tag == 0 and shape == (600, 21**k)
    row_sums = np.add.reduceat(data_values, indptr[:-1]).tolist()
    assert row_sums == [len(item.record.residues) - k + 1 for item in data]
    assert len(counted_on) == 3 and threading.get_ident() not in counted_on


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