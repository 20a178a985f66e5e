"""Reports, test scores, features and IG outputs pinned by SHA-256, so "byte-identical" is
a check.

Each case runs `run_experiment` on a small corpus and compares the
digest of its report under `strip_timing` and the digest of every test
score block its model returned, in order. A report's metrics can absorb
a change in the last bit of a score, so the scores are pinned too. A
change that means to move outputs updates these digests and says which
cases moved and why.

The digests belong to the host that computed them: BLAS may round by
CPU and thread count. If they differ on another host, record that; do
not loosen the check.
"""

import hashlib

import pytest

import seqclass.linear_models as lm
import seqclass.neural_net as nnet
from seqclass.cli import main
from seqclass.config import MODELS, ExperimentConfig
from seqclass.infogain import export_histograms, export_ig, information_gain
from seqclass.ingest import save_corpus
from seqclass.pipeline import report_to_json, run_experiment, strip_timing

from conftest import labeled_corpus

SCORE_FUNCTIONS = [(lm, "majority_scores"), (lm, "gnb_scores"), (lm, "logreg_proba"),
                   (lm, "ridge_scores"), (nnet, "nn_scores")]

# (model, encoding, use_rff) -> (report digest, scores digest); k = 2, D = 64
PINNED = {
    ("majority", "kmers", False): (
        "c2f4e468eaee6323c953766408c87c9358f2c527409b851bf21b683855743ae6",
        "70207928453fbc7950e58c399dc5afdb6f55df5cdf638b7b890bfa2e2254bc4d"),
    ("majority", "kmers", True): (
        "c7ceff1e9e4a28a12503242c0c49a51529ad1330f373d4395499c98e3d87c16f",
        "70207928453fbc7950e58c399dc5afdb6f55df5cdf638b7b890bfa2e2254bc4d"),
    ("majority", "ohe", False): (
        "9719368de5a5143f0485aae599b3eac8646927346c24cc696d00d4a3e14963a2",
        "70207928453fbc7950e58c399dc5afdb6f55df5cdf638b7b890bfa2e2254bc4d"),
    ("majority", "ohe", True): (
        "1b7bcbb7ace3d56de67b6ad875a4b2580fa63a7c921a1e42e6a10326cecd6b97",
        "70207928453fbc7950e58c399dc5afdb6f55df5cdf638b7b890bfa2e2254bc4d"),
    ("nb", "kmers", False): (
        "fc24fcd66f8df4edcf26176bfdc0017d4cbffbb5dfb5cda7bb3a700ecb7940b3",
        "841ec3bf6e9fdf874baaf6bd588ff0ea6bcdec02f7bcbdd3fa5d831e810a7239"),
    ("nb", "kmers", True): (
        "a3e631bd55424fdaa863986d11faccb1784677047ce85343c5a4449b42cf8ba9",
        "478cdce54f90341d96ee7c3181e854551880b3db5f48517eef575a505b12a358"),
    ("nb", "ohe", False): (
        "da293ae8fd9f24825bd5f8fa44837bb692c69565908961b422edde4f8d8ee361",
        "171a4f918bbf007a27dc7ce2250d89efb1837cb4f447a486a28167981253c009"),
    ("nb", "ohe", True): (
        "304549857cfeb34fa3e6b3e36a2c22e30f1a23c83118453966a9505f46ac82a5",
        "1fc659f0c5ea1de759e09063244aa4e0e1a3bd71d12fbceb3d82a51fae5e0f6d"),
    ("lr", "kmers", False): (
        "c6ab17a7f6d4921edc85facd964099df1b982406044ca8a57fa12ddefbf230fb",
        "396b41fb5b13823b4fa19c29ec0ea3b0c07831672750a11eef5641c26198ba4a"),
    ("lr", "kmers", True): (
        "5acee7824d866f27dd475b534745a31d92fad930d6e48867c37b1af95ebf1d15",
        "69c3ecbf28ad2618d1331806d087870ac438becffd69b3c866ce912db293d171"),
    ("lr", "ohe", False): (
        "0bac896f3f5a8109c694c3320d0892e39524d8ee8fd93390cfbc04dad759a449",
        "c65c61b86bc0968393883cc04a4ab5289f6828357de60cc1aedc2014a2055acd"),
    ("lr", "ohe", True): (
        "ca0b66e821a4d78737013314519ecd80237f2579ebaf7c952dad2344f679ee18",
        "537d5c7da556528b451423947a95e6062682b8722f42cb8bf8bbdd86b688d7f8"),
    ("ridge", "kmers", False): (
        "070c6d835300af902ff50641ca3611e28a116a3dc38365b360c5bc3148dd515a",
        "5999598e7ff980a053141d7ea606ad6b7c81727b79457e7baf3b0487ac903e5e"),
    ("ridge", "kmers", True): (
        "2906406185c1e8b612368f073764cfb0e0fbd35a7e2369b8dbdf9a0ece7272a8",
        "789a5e0ced9ae88879a61a5d22792b39c579faa838d41b37440ee87f0b8e684f"),
    ("ridge", "ohe", False): (
        "55894fe0a05ac94082b57652a6b18fb1e8edc16a8493cf165ba02944cce1bbc1",
        "3078cc810d37187988eaced2ecf922a9119153cfa793bcab5d6dd61b35f76ac2"),
    ("ridge", "ohe", True): (
        "d5d9d9aad5c93300530984ab874915e29f643b53ce914253fa5bfbf41f272b5d",
        "c6aa334c96550b34160a80c426e7401d8304cbbe82ba298b628fe18bd859ee44"),
    ("nn", "kmers", False): (
        "d26723c8f7423f3f32b17cf21a09966039402d4e413ec0ed449160cd31e6a0d4",
        "4217b147a65b80df72754a449bd7eb9c303e2675f7820a3b7b97f5a855fa7a13"),
    ("nn", "kmers", True): (
        "a290982d090ab3d3871cafbe9b38f9c7fd620397ee05bc44d69e85788bdc1001",
        "c26a15490bf839ad467a723c892b5ad6447c17fcbe586d1f836ea6edb08eca9f"),
    ("nn", "ohe", False): (
        "715f61fddca3a3642a7f5508261a2869e6768535db8ec17e69bc16bd77e4e741",
        "7d57a4c5b119ef83a0f7167c29e47b2b6fbb47caabb0e0c1db63490242acc3fe"),
    ("nn", "ohe", True): (
        "aaf49d4ecf5b44ae845a66ed373b80764d1f824f08949300dda841c48cc973f2",
        "59d706744a8270a48fda675705d83e3f5a55c6d010a4c7eb171e7e21a30431c2"),
}
# RFF nb at 7 classes of 20: its score bytes move with one rounding of gnb_scores
PINNED_NB_7 = ("08966f119392bc39b400277c84c871df7e7fa8bd939e971ace51f081f59f2514",
               "d67897b53526f160fe986e990f6b753674b0ef6e2b6817d3694981dc715c4397")
# `seqclass featurize` of the module's corpus: SQFV1 container, labels sidecar, COO CSV
PINNED_FEATURES = {
    "kmers": ("9031105086a9afcc5affd7b3b861836c92c7b5e48fc04a875417c1e0e1f093de",
              "24438fb1d5724b805fe673a432e34286181f181ac7244a121e84e7801a48cb7c",
              "e283834c6d474327036a5dfc8b25413532a9b35c3330158f1a80be97cbfd614c"),
    "ohe": ("4b1347c8c3732a4b80c87102581211647a2c28cd8ad9e782cf0a1c843e75ddf8",
            "ac8d97efef2fb4351be023566b1f3a235b25582548d084a80a3a78328dc1a869",
            "f4a853a80f2f25196c13584428ec2455d9c8780b7b120179fb20cd61a61c3f8a"),
}
IG_CSV = "3780a0781c2a1c5aeb2e8a135969c58fedd17e92dd5b1fa17e7f351cf8c31b69"
IG_HISTOGRAMS = "20678e1a68b134fca1f5f675fab36febaff3d7053dc917d262405d2e2929bf1e"


def _sha(raw: bytes) -> str:
    return hashlib.sha256(raw).hexdigest()


def _digests(monkeypatch, config: ExperimentConfig, data) -> tuple[str, str]:
    """The run's stripped report and its test score blocks, digested."""
    blocks = []

    def recording(score):
        def scores(model, X):
            out = score(model, X)
            blocks.append(out.tobytes())
            return out
        return scores

    for module, name in SCORE_FUNCTIONS:  # pipeline._fit looks them up at call time
        monkeypatch.setattr(module, name, recording(getattr(module, name)))
    report = run_experiment(config, data)
    return _sha(report_to_json(strip_timing(report)).encode()), _sha(b"".join(blocks))


def _config(model: str, encoding: str, use_rff: bool) -> ExperimentConfig:
    return ExperimentConfig(model=model, encoding=encoding, k=2, use_rff=use_rff, rff_dim=64,
                            runs=2, train_fraction=0.5, nn_hidden_width=16)


@pytest.fixture(scope="module")
def corpus():
    return labeled_corpus({"a": 40, "b": 30, "c": 30}, length=30, seed=5)


@pytest.mark.filterwarnings("ignore:.*zero-denominator:UserWarning")
@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("encoding", ["kmers", "ohe"])
@pytest.mark.parametrize("use_rff", [False, True], ids=["raw", "rff"])
def test_pinned_report_and_scores(monkeypatch, corpus, model, encoding, use_rff):
    got = _digests(monkeypatch, _config(model, encoding, use_rff), corpus)
    assert got == PINNED[model, encoding, use_rff]


def test_pinned_rff_nb_scores_at_seven_classes(monkeypatch):
    data = labeled_corpus({name: 20 for name in "abcdefg"}, length=30, seed=5)
    assert _digests(monkeypatch, _config("nb", "kmers", True), data) == PINNED_NB_7


@pytest.mark.parametrize("encoding", ["kmers", "ohe"])
def test_pinned_featurize_outputs(tmp_path, corpus, encoding):
    """The container stores float64 values whatever the matrix's count type."""
    save_corpus(str(tmp_path / "corpus.bin"), corpus)
    outputs = [tmp_path / name for name in ("features.sqfv", "labels.json", "features.csv")]
    assert main(["featurize", "--corpus", str(tmp_path / "corpus.bin"), "--encoding", encoding,
                 "--k", "2", "--out-features", str(outputs[0]), "--out-labels", str(outputs[1]),
                 "--csv", str(outputs[2])]) == 0
    assert tuple(_sha(path.read_bytes()) for path in outputs) == PINNED_FEATURES[encoding]


def test_pinned_ig_csv_and_histograms(tmp_path, corpus):
    table = information_gain(corpus)
    export_ig(table, str(tmp_path / "ig.csv"))
    export_histograms(str(tmp_path / "hist.json"), table.histograms, table.class_names)
    assert _sha((tmp_path / "ig.csv").read_bytes()) == IG_CSV
    assert _sha((tmp_path / "hist.json").read_bytes()) == IG_HISTOGRAMS
