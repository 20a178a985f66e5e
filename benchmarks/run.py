"""seqclass benchmark: seeded spike-like corpora driven through the real CLI.

    python3 benchmarks/run.py --workload kmer3-rff-lr --seed 1 --seconds 30 --trace 0

With ``--trace 0`` every CLI command runs as its own process, untraced,
and the run reports the end-to-end metrics: ``setup_s`` (``seqclass
ingest``), ``analysis_s`` (``seqclass run``, then ``seqclass ig`` where
the workload has it) and ``peak_rss_mb`` (largest peak resident set of an
analysis process or of a worker it started, from ``os.wait4``). A round
runs INGESTS_PER_ROUND ingests and then the analysis commands; rounds
repeat while one more fits in ``--seconds``, at least MIN_ROUNDS times.
``setup_s`` is the median over every ingest of the run, the others the
median over the rounds.

With ``--trace 1`` each round runs the commands traced (``tracer.py``), at
least once, and the run reports the per-layer metrics, the medians over
rounds. The tracing overhead is the number of spans times the cost of one
wrapper, which each traced process measures for itself.

Every output is checked against computations made apart from the
program (``oracles.py``). The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}. Details of each
run go to ``benchmarks/results/`` (git-ignored). ``--workload all`` runs
every workload in turn.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
import oracles  # noqa: E402
from gen import REFERENCE_LENGTH, CorpusSpec, make_corpus, write_inputs  # noqa: E402
from tracer import PER_LAYER, layer_metrics, median_metrics  # noqa: E402

MIN_ROUNDS = 3
INGESTS_PER_ROUND = 2  # an ingest is short and mostly start-up, so it is sampled more often
TRAIN_FRACTION = 0.10  # seqclass's default, which the workloads keep
MIN_AUC = 0.95

END_TO_END = {"setup_s": "s", "analysis_s": "s", "peak_rss_mb": "MB"}


@dataclass(frozen=True)
class Workload:
    corpus: CorpusSpec
    run_flags: tuple[str, ...]
    k: int | None  # None: one-hot features
    runs: int
    ig: bool
    accuracy_margin: float  # accuracy must beat the majority share by this much
    expected_spans: tuple[str, ...]  # the traced run fails if one never fires


COMMON_SPANS = ("ingest.parse_fasta", "ingest.load_corpus", "ingest.split_indices",
                "features.featurize_corpus", "metrics.confusion", "metrics.summarize",
                "metrics.roc_auc_ovr_weighted", "pipeline.run_experiment")

# Sizes keep a round at 7-11 s on a 2-core host. With 12 variant sites per class
# the k-mer models reach 0.98-1.0 accuracy, so their floor (majority + 0.6, about
# 0.87) fails a model that loses a tenth of it. The width-64 nn needs 36 sites:
# with 12, it predicted only the majority class on some seeds.
WORKLOADS = {
    "kmer3-rff-lr": Workload(
        CorpusSpec(size=1000, deletion_share=1 / 3),
        ("--model", "lr", "--use-rff", "true", "--rff-dim", "1000"),
        k=3, runs=2, ig=False, accuracy_margin=0.6,
        expected_spans=COMMON_SPANS + ("rff.new_projector", "rff.project",
                                       "linear_models.logreg_fit",
                                       "linear_models.logreg_loss_grad",
                                       "linear_models.logreg_proba")),
    "kmer3-ridge": Workload(
        CorpusSpec(size=1000, deletion_share=1 / 3),
        ("--model", "ridge"),
        k=3, runs=1, ig=False, accuracy_margin=0.6,
        expected_spans=COMMON_SPANS + ("linear_models.ridge_fit", "linear_models.ridge_scores")),
    "kmer4-nb": Workload(
        CorpusSpec(size=3072, deletion_share=1 / 3),
        ("--model", "nb", "--workers", "2"),
        k=4, runs=2, ig=False, accuracy_margin=0.6,
        expected_spans=COMMON_SPANS + ("linear_models.gnb_fit", "linear_models.gnb_scores")),
    "ohe-nn-ig": Workload(
        CorpusSpec(size=3000, sites_per_class=36),
        ("--model", "nn", "--encoding", "ohe", "--nn-hidden-width", "64"),
        k=None, runs=1, ig=True, accuracy_margin=0.2,
        expected_spans=COMMON_SPANS + ("neural_net.nn_train", "neural_net.adam_step",
                                       "neural_net.nn_scores", "infogain.information_gain",
                                       "infogain.position_histograms", "infogain.export_ig",
                                       "infogain.export_histograms")),
}


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def check(self, name: str, problems: list[str]) -> None:
        self.problems += [f"{name}: {p}" for p in problems]


class Paths:
    def __init__(self, work: Path):
        self.work = work
        self.fasta = work / "corpus.fa"
        self.metadata = work / "corpus.tsv"
        self.corpus = work / "corpus.sqc"
        self.out = work / "out"
        self.ig = work / "ig.csv"
        self.hist = work / "ig-hist.json"
        self.log = work / "cli.log"


def cli_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(argv: list[str], log: Path) -> tuple[int, float, float]:
    """Run one process to its end: (exit code, wall seconds, peak RSS in MB).

    The peak comes from wait4's rusage, which covers the process and every
    child it waited for, so featurize workers count too.
    """
    with open(log, "ab") as out:
        tic = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=cli_env(), stdout=out, stderr=subprocess.STDOUT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - tic
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def ingest_args(p: Paths) -> list[str]:
    return ["ingest", "--fasta", str(p.fasta), "--metadata", str(p.metadata), "--out", str(p.corpus)]


def analysis_args(w: Workload, p: Paths) -> list[list[str]]:
    k_flag = ["--k", str(w.k)] if w.k else []
    commands = [["run", "--corpus", str(p.corpus), "--output-dir", str(p.out),
                 "--runs", str(w.runs), *w.run_flags, *k_flag]]
    if w.ig:
        commands.append(["ig", "--corpus", str(p.corpus), "--out", str(p.ig),
                         "--histograms", str(p.hist)])
    return commands


def run_commands(commands: list[list[str]], p: Paths, tally: Tally, trace_dir: Path | None = None,
                 seed: int = 0) -> tuple[list[float], list[float], list[dict]]:
    """Run commands in order, each as a process: (wall s, peak MB, traces), one per command.

    A command after a failed one is counted as failed without running, so
    every round attempts the same operations.
    """
    walls, peaks, traces = [], [], []
    for i, args in enumerate(commands):
        tally.attempted += 1
        if len(walls) < i:
            tally.failed += 1
            continue
        if trace_dir is None:
            argv = [sys.executable, "-m", "seqclass.cli", *args]
        else:
            spans_path = trace_dir / f"{i}.json"
            argv = [sys.executable, str(BENCH / "tracer.py"), "--out", str(spans_path),
                    "--sample-seed", str(seed), "--", *args]
        rc, wall, rss = spawn(argv, p.log)
        if rc != 0:
            tally.failed += 1
            tail = p.log.read_text(errors="replace")[-2000:]
            print(f"seqclass {args[0]} exited {rc}:\n{tail}", file=sys.stderr)
            continue
        if trace_dir is not None:
            traces.append(json.loads(spans_path.read_text()))
        walls.append(wall)
        peaks.append(rss)
    return walls, peaks, traces


def more_rounds(durations: list[float], deadline: float, minimum: int) -> bool:
    """At least ``minimum`` rounds; then another only if a typical round ends before the deadline."""
    if len(durations) < minimum:
        return True
    return time.perf_counter() + statistics.median(durations) <= deadline


# --- checks of the outputs ------------------------------------------------------------

def check_report(w: Workload, corpus, report: dict) -> list[str]:
    n = w.corpus.size
    problems = []
    dim = 21 ** w.k if w.k else 21 * REFERENCE_LENGTH
    if report["feature_dim"] != dim:
        problems.append(f"feature_dim {report['feature_dim']} != {dim}")
    if report["corpus_size"] != n:
        problems.append(f"corpus_size {report['corpus_size']} != {n}")
    if len(report["runs"]) != w.runs:
        problems.append(f"{len(report['runs'])} runs reported, {w.runs} asked for")
    n_train = oracles.round_half_up(TRAIN_FRACTION * n)
    for run in report["runs"]:
        m = run["metrics"]
        if run["train_size"] != n_train or run["train_size"] + run["test_size"] != n:
            problems.append(f"run {run['run_index']}: train/test {run['train_size']}/"
                            f"{run['test_size']}, expected {n_train}/{n - n_train}")
        if abs(m["recall_weighted"] - m["accuracy"]) > 1e-12:
            problems.append(f"run {run['run_index']}: recall_weighted != accuracy")
        if m["accuracy"] < corpus.majority_share + w.accuracy_margin:
            problems.append(f"run {run['run_index']}: accuracy {m['accuracy']:.4f} is not "
                            f"{w.accuracy_margin} above the majority share {corpus.majority_share:.4f}")
        if m["roc_auc_weighted_ovr"] < MIN_AUC:
            problems.append(f"run {run['run_index']}: weighted OvR AUC "
                            f"{m['roc_auc_weighted_ovr']:.4f} < {MIN_AUC}")
    return problems


def check_ig_outputs(corpus, p: Paths) -> list[str]:
    ids, seqs = oracles.read_fasta(str(p.fasta))
    countries = oracles.read_countries(str(p.metadata))
    expected, h_class, joint = oracles.information_gain(seqs, [countries[i] for i in ids])
    with open(p.ig, encoding="utf-8") as f:
        next(f)
        program = [float(line.split(",")[1]) for line in f]
    problems = oracles.check_ig(program, expected, h_class, corpus.planted_sites)
    hist = json.loads(p.hist.read_text())
    got = np.zeros_like(joint)
    for pos in hist["positions"]:
        for symbol, counts in pos["symbol_class_counts"].items():
            got[pos["position"] - 1, oracles.ALPHABET.index(symbol)] = counts
    if not np.array_equal(got, joint):
        problems.append("IG histograms differ from the joint counts of the FASTA")
    return problems


def stripped_report(p: Paths) -> bytes:
    report = json.loads((p.out / "report.json").read_text())
    return json.dumps(oracles.strip_timing(report), sort_keys=True).encode()


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class OutputChecks:
    """Full checks on the first outputs; later outputs must be byte-identical."""

    def __init__(self, w: Workload, corpus, p: Paths, tally: Tally):
        self.w, self.corpus, self.p, self.tally = w, corpus, p, tally
        self.first: dict[str, object] | None = None

    def __call__(self, label: str) -> None:
        p = self.p
        seen = {"report": stripped_report(p)}
        if self.w.ig:
            seen["ig"] = digest(p.ig)
            seen["hist"] = digest(p.hist)
        if self.first is None:
            self.first = seen
            report = json.loads((p.out / "report.json").read_text())
            self.tally.check(f"{label} report", check_report(self.w, self.corpus, report))
            if self.w.ig:
                self.tally.check(f"{label} IG", check_ig_outputs(self.corpus, p))
            return
        for key, value in seen.items():
            if value != self.first[key]:
                self.tally.check(label, [f"{key} differs from the first round's under strip_timing"])


# --- the two kinds of run ---------------------------------------------------------------

def measure(w: Workload, corpus, p: Paths, deadline: float, tally: Tally) -> dict:
    """Rounds of ingests + analysis commands; set-up samples spread over the whole run."""
    checks = OutputChecks(w, corpus, p, tally)
    commands = [ingest_args(p)] * INGESTS_PER_ROUND + analysis_args(w, p)
    setups, analyses, peaks, durations, digests = [], [], [], [], set()
    while more_rounds(durations, deadline, MIN_ROUNDS):
        tic = time.perf_counter()
        walls, rss, _ = run_commands(commands, p, tally)
        durations.append(time.perf_counter() - tic)
        if len(walls) < len(commands):
            continue
        setups += walls[:INGESTS_PER_ROUND]
        analyses.append(sum(walls[INGESTS_PER_ROUND:]))
        peaks.append(max(rss[INGESTS_PER_ROUND:]))
        digests.add(digest(p.corpus))
        checks(f"round {len(durations)}")
    if len(digests) > 1:
        tally.check("ingest", ["repeated ingests wrote different corpus files"])
    samples = {"setup_s": setups, "analysis_s": analyses, "peak_rss_mb": peaks}
    return {"metrics": {k: statistics.median(v) for k, v in samples.items() if v},
            "samples": samples}


def traced(name: str, w: Workload, corpus, p: Paths, deadline: float, seed: int,
           tally: Tally) -> dict:
    checks = OutputChecks(w, corpus, p, tally)
    rounds = []
    trace_dir = p.work / "traces"
    commands = [ingest_args(p), *analysis_args(w, p)]
    durations = []
    while more_rounds(durations, deadline, 1):
        tic = time.perf_counter()
        failed = tally.failed
        shutil.rmtree(trace_dir, ignore_errors=True)
        trace_dir.mkdir()
        _, _, traces = run_commands(commands, p, tally, trace_dir, seed)
        durations.append(time.perf_counter() - tic)
        if tally.failed != failed:
            continue
        checks(f"round {len(durations)}")
        fired = {s["name"] for t in traces for s in t["spans"]}
        missing = [s for s in w.expected_spans if s not in fired]
        if missing:
            raise SystemExit(f"{name}: expected spans never fired: {', '.join(missing)}")
        for t in traces:
            for check, problems in t["checks"].items():
                tally.check(f"traced {check}", problems)
        if not rounds:
            (BENCH / "results").mkdir(exist_ok=True)
            (BENCH / "results" / f"{name}-seed{seed}-spans.json").write_text(json.dumps(traces))
            tally.check("traced checks ran", [] if any(t["checks"] for t in traces)
                        else ["no captured value was checked"])
        rounds.append(layer_metrics(traces))
    if not rounds:
        return {"metrics": {}, "samples": {}}
    return {"metrics": median_metrics(rounds), "samples": {"rounds": rounds}}


def host() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    mem = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    return {"nproc": os.cpu_count(), "usable_cpus": len(os.sched_getaffinity(0)),
            "mem_gib": round(mem / 2**30, 1), "python": platform.python_version(),
            "numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_config": blas.get("openblas configuration")}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    w = WORKLOADS[name]
    work = BENCH / "work" / f"{name}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    p = Paths(work)
    tally = Tally()
    try:
        corpus = make_corpus(w.corpus, seed)
        write_inputs(corpus, str(p.fasta), str(p.metadata))
        deadline = time.perf_counter() + seconds
        if trace:
            result = traced(name, w, corpus, p, deadline, seed, tally)
        else:
            result = measure(w, corpus, p, deadline, tally)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result.update(workload=name, seed=seed, seconds=seconds, trace=trace,
                  corpus=asdict(w.corpus), majority_share=corpus.majority_share,
                  attempted=tally.attempted, failed=tally.failed, problems=tally.problems,
                  host=host())
    (BENCH / "results").mkdir(exist_ok=True)
    out = BENCH / "results" / f"{name}-seed{seed}-trace{int(trace)}.json"
    out.write_text(json.dumps(result, indent=1) + "\n")
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="seqclass benchmark")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "seqclass" / "cli.py").is_file():
        print(f"no seqclass sources under {ROOT / 'src'}; run from a checkout of the repository",
              file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    units = {name: unit for name, (unit, _) in PER_LAYER.items()} if args.trace else END_TO_END
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        for problem in result["problems"]:
            print(f"{name}: CHECK FAILED: {problem}", file=sys.stderr)
        correct = correct and not result["problems"]
        attempted += result["attempted"]
        failed += result["failed"]
        prefix = f"{name}." if len(names) > 1 else ""
        print(f"{name}: attempted {result['attempted']}, failed {result['failed']}")
        for metric, unit in units.items():
            value = result["metrics"].get(metric, 0.0)
            metrics[prefix + metric] = {"value": value, "unit": unit}
            print(f"{name}: {metric} = {value:.6g} {unit}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
