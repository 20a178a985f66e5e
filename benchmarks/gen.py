"""Seeded generator of spike-like labelled protein corpora.

Every corpus starts from one random reference of length 1273 (the length
of the SARS-CoV-2 spike protein). Each class (a country) gets its own
variant sites: positions where its members carry a class-specific
residue with probability CARRY. On top of that, every sequence gets
sparse point mutations, and optionally a short deletion, as real spike
sequences do. Class sizes follow a Zipf law, with at least 2 members per
class so a stratified split always works.

The generator knows the truth the benchmark checks against: the planted
variant sites and the majority share.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

RESIDUES = "ACDEFGHIKLMNPQRSTVWY"  # the 20 standard amino acids; X is never generated
_LUT = np.frombuffer(RESIDUES.encode("ascii"), dtype=np.uint8)
REFERENCE_LENGTH = 1273
FASTA_WIDTH = 60
# Synthetic choices with no source behind them; every corpus uses them.
ZIPF_EXPONENT = 1.0
CARRY = 0.9  # chance that a member carries its class's residue at a variant site
MUTATION_RATE = 1e-3  # per residue
MAX_DELETION = 6


@dataclass(frozen=True)
class CorpusSpec:
    size: int
    classes: int = 20
    sites_per_class: int = 12
    deletion_share: float = 0.0  # share of sequences with one deletion


@dataclass
class Corpus:
    ids: list[str]
    sequences: list[str]
    countries: list[str]
    continents: list[str]
    planted_sites: np.ndarray  # sorted 0-based positions in the reference
    majority_share: float


def zipf_sizes(total: int, classes: int) -> np.ndarray:
    """Zipf class sizes summing to ``total``, each at least 2, largest first."""
    if total < 2 * classes:
        raise ValueError(f"{total} sequences cannot give {classes} classes 2 members each")
    weights = 1.0 / np.arange(1, classes + 1) ** ZIPF_EXPONENT
    spare = total - 2 * classes
    quotas = spare * weights / weights.sum()
    sizes = np.floor(quotas).astype(np.int64)
    short = spare - int(sizes.sum())
    sizes[np.argsort(-(quotas - sizes), kind="stable")[:short]] += 1
    return sizes + 2


def make_corpus(spec: CorpusSpec, seed: int) -> Corpus:
    rng = np.random.default_rng([seed, spec.size, spec.classes])
    L = REFERENCE_LENGTH
    A = len(RESIDUES)
    reference = rng.integers(0, A, size=L)

    sizes = zipf_sizes(spec.size, spec.classes)
    labels = rng.permutation(np.repeat(np.arange(spec.classes), sizes))
    n = spec.size
    codes = np.tile(reference, (n, 1))

    sites = rng.choice(L, size=(spec.classes, spec.sites_per_class), replace=False)
    # a class residue differs from the reference: shift by 1..A-1
    class_residue = (reference[sites] + rng.integers(1, A, size=sites.shape)) % A
    carries = rng.random((n, spec.sites_per_class)) < CARRY
    rows = np.repeat(np.arange(n), spec.sites_per_class)
    cols = sites[labels].ravel()
    vals = class_residue[labels].ravel()
    keep = carries.ravel()
    codes[rows[keep], cols[keep]] = vals[keep]

    mutated = rng.random((n, L)) < MUTATION_RATE
    shift = rng.integers(1, A, size=int(mutated.sum()))
    codes[mutated] = (codes[mutated] + shift) % A

    letters = _LUT[codes]
    deleted = rng.random(n) < spec.deletion_share
    del_len = rng.integers(1, MAX_DELETION + 1, size=n)
    del_start = rng.integers(0, L - MAX_DELETION, size=n)
    sequences = []
    for i in range(n):
        row = letters[i]
        if deleted[i]:
            row = np.concatenate((row[: del_start[i]], row[del_start[i] + del_len[i]:]))
        sequences.append(row.tobytes().decode("ascii"))

    countries = [f"country{c:02d}" for c in labels]
    continents = [f"continent{c % 4}" for c in labels]
    return Corpus(
        ids=[f"seq{i:06d}" for i in range(n)],
        sequences=sequences,
        countries=countries,
        continents=continents,
        planted_sites=np.sort(sites.ravel()),
        majority_share=float(sizes.max() / n),
    )


def write_inputs(corpus: Corpus, fasta_path: str, metadata_path: str) -> None:
    """FASTA with wrapped lines, plus the id/continent/country/state TSV."""
    with open(fasta_path, "w", encoding="ascii") as f:
        for seq_id, seq in zip(corpus.ids, corpus.sequences):
            f.write(f">{seq_id}\n")
            for start in range(0, len(seq), FASTA_WIDTH):
                f.write(seq[start : start + FASTA_WIDTH])
                f.write("\n")
    with open(metadata_path, "w", encoding="ascii") as f:
        f.write("id\tcontinent\tcountry\tstate\n")
        for seq_id, continent, country in zip(corpus.ids, corpus.continents, corpus.countries):
            f.write(f"{seq_id}\t{continent}\t{country}\t\n")
