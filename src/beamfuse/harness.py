"""End-to-end benchmarking: data preparation, WER scoring, and policy sweeps.

Everything runs hermetically from a seeded synthetic corpus when no corpus
file is supplied: the generator produces English-like sentences from a
seeded Markov chain, which gives the n-gram model enough structure to
actually disambiguate noisy acoustics.  Results land in a fixed-schema CSV;
only ``decode_seconds``, the measured compute, varies between identical runs.
``lm_emulated_seconds`` is a remote LM's latency modelled from the LM counts.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import math
import random
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .acoustic import EmissionMatrix, synth_emissions, write_emissions
from .decoder import MODES, POLICY_KINDS, DecodeConfig, FusionPolicy, LMSpec, _is_count, decode
from .lm import train_ngram
from .tokenization import Tokenizer, build_vocab


class HarnessError(ValueError):
    """Raised for invalid benchmark configurations or inputs."""


# -- word error rate -----------------------------------------------------------


@dataclass(frozen=True)
class WerResult:
    wer: float
    substitutions: int
    insertions: int
    deletions: int

    @property
    def errors(self) -> int:
        return self.substitutions + self.insertions + self.deletions


def wer(reference: Sequence[str], hypothesis: Sequence[str]) -> WerResult:
    """Levenshtein word alignment with unit costs.

    Ties are resolved in the fixed order substitution < deletion <
    insertion, so the S/I/D split is deterministic.  An empty reference
    counts insertions over a denominator of 1.
    """
    n, m = len(reference), len(hypothesis)
    # cost[i][j]: best (cost, S, I, D) aligning reference[:i] to hypothesis[:j]
    cost = [[(0, 0, 0, 0)] * (m + 1) for _ in range(n + 1)]
    for j in range(1, m + 1):
        cost[0][j] = (j, 0, j, 0)
    for i in range(1, n + 1):
        cost[i][0] = (i, 0, 0, i)
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            if reference[i - 1] == hypothesis[j - 1]:
                cost[i][j] = cost[i - 1][j - 1]
                continue
            ds, dd, di = cost[i - 1][j - 1], cost[i - 1][j], cost[i][j - 1]
            best = (ds[0] + 1, ds[1] + 1, ds[2], ds[3])
            if dd[0] + 1 < best[0]:
                best = (dd[0] + 1, dd[1], dd[2], dd[3] + 1)
            if di[0] + 1 < best[0]:
                best = (di[0] + 1, di[1], di[2] + 1, di[3])
            cost[i][j] = best
    total, subs, ins, dels = cost[n][m]
    return WerResult(total / max(1, n), subs, ins, dels)


# -- synthetic corpus -----------------------------------------------------------

_ONSETS = ["b", "d", "f", "g", "k", "l", "m", "n", "p", "r", "s", "t", "v", "z"]
_VOWELS = ["a", "e", "i", "o", "u"]
_CODAS = ["", "", "n", "r", "s", "l", "t"]


def generate_corpus(
    seed: int, sentences: int = 2000, vocabulary: int = 180
) -> list[str]:
    """Seeded English-like corpus with strong word-order structure.

    Words come from a syllable generator; each word gets a small set of
    likely successors, and sentences are walks over that chain, so the text
    is highly predictable for an n-gram model while still using a varied
    wordpiece alphabet.  Sentences are distinct, making disjoint train/eval
    splits trivial.
    """
    if vocabulary < 4:
        # the starter and successor draws take up to 4 distinct words
        raise HarnessError(f"corpus vocabulary must be >= 4 words, got {vocabulary}")
    rng = random.Random(seed)
    words: list[str] = []
    seen = set()
    while len(words) < vocabulary:
        syllables = rng.randint(1, 3)
        word = "".join(
            rng.choice(_ONSETS) + rng.choice(_VOWELS) + rng.choice(_CODAS)
            for _ in range(syllables)
        )
        if word not in seen:
            seen.add(word)
            words.append(word)

    successors = {
        word: rng.sample(words, rng.randint(2, 4)) for word in words
    }
    starters = rng.sample(words, max(4, vocabulary // 10))

    out: list[str] = []
    used = set()
    attempts = 0
    while len(out) < sentences:
        attempts += 1
        if attempts > sentences * 50:
            raise HarnessError("corpus generator failed to produce enough distinct sentences")
        length = rng.randint(4, 10)
        word = rng.choice(starters)
        sent = [word]
        for _ in range(length - 1):
            word = rng.choice(successors[word])
            sent.append(word)
        line = " ".join(sent)
        if line not in used:
            used.add(line)
            out.append(line)
    return out


def split_corpus(lines: Sequence[str], eval_fraction: float = 0.2) -> tuple[list[str], list[str]]:
    """Deterministic train/eval split; distinct lines keep the sets disjoint."""
    cut = int(len(lines) * (1.0 - eval_fraction))
    return list(lines[:cut]), list(lines[cut:])


# -- dataset generation -----------------------------------------------------------


@dataclass(frozen=True)
class Utterance:
    utt_id: str
    reference: str
    emissions: EmissionMatrix


def synth_dataset(
    sentences: Sequence[str],
    asr_tok: Tokenizer,
    count: int,
    noise: float,
    frames_per_token: tuple[int, int],
    seed: int,
) -> list[Utterance]:
    """Sample sentences and synthesize one emission matrix per utterance."""
    if count < 1:
        raise HarnessError("count must be >= 1")
    if count > len(sentences):
        raise HarnessError(
            f"corpus too small: {len(sentences)} sentences for {count} utterances"
        )
    if seed < 0:
        raise HarnessError(f"seed must be >= 0, got {seed}")
    if not (noise >= 0 and math.isfinite(noise)):
        raise HarnessError(f"noise must be a finite number >= 0, got {noise}")
    rng = np.random.default_rng(seed)
    picks = rng.choice(len(sentences), size=count, replace=False)
    out = []
    for i, idx in enumerate(picks):
        reference = sentences[int(idx)]
        ids = asr_tok.encode(reference)
        em = synth_emissions(
            ids,
            asr_tok.vocab.size,
            frames_per_token=frames_per_token,
            noise=noise,
            seed=int(rng.integers(2**31)),
        )
        out.append(Utterance(f"utt{i:04d}", reference, em))
    return out


def gen_dataset(
    sentences: Sequence[str],
    asr_tok: Tokenizer,
    out_dir: str,
    count: int,
    noise: float,
    frames_per_token: tuple[int, int],
    seed: int,
) -> list[tuple[str, str, str]]:
    """Write emission files plus a manifest; returns (id, path, reference) rows."""
    utts = synth_dataset(sentences, asr_tok, count, noise, frames_per_token, seed)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    for utt in utts:
        path = out / f"{utt.utt_id}.em"
        write_emissions(utt.emissions, str(path))
        rows.append((utt.utt_id, str(path), utt.reference))
    write_manifest(rows, str(out / "manifest.tsv"))
    return rows


def write_manifest(rows: Sequence[tuple[str, str, str]], path: str) -> None:
    """One ``id <TAB> emission path <TAB> reference`` line per utterance."""
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write("\t".join(row) + "\n")


def read_manifest(path: str) -> list[tuple[str, str, str]]:
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            parts = line.rstrip("\n").split("\t")
            if len(parts) != 3:
                raise HarnessError(f"bad manifest line: {line!r}")
            rows.append((parts[0], parts[1], parts[2]))
    return rows


# -- benchmark -----------------------------------------------------------------


@dataclass
class BenchConfig:
    """One sweep.  ``per_call_ms`` and ``per_token_ms`` price a remote LM; nothing sleeps."""

    seed: int = 0
    corpus_path: str | None = None
    corpus_sentences: int = 2000
    corpus_vocabulary: int = 180
    utterances: int = 50
    noise: float = 0.5
    frames_per_token: tuple[int, int] = (1, 3)
    policies: tuple[str, ...] = ("never", "shortest")
    beams: tuple[int, ...] = (10,)
    intervals: tuple[int, ...] = (16, 32, 64)
    asr_vocab_size: int = 64
    lm_vocab_size: int = 160
    lm_order: int = 3
    lm_discount: float = 0.4
    lm_weight: float = 0.5
    per_call_ms: float = 0.0
    per_token_ms: float = 0.0
    mode: str = "ctc"

    def __post_init__(self) -> None:
        if self.utterances < 1:
            raise HarnessError("utterances must be >= 1")
        if not self.policies:
            raise HarnessError("at least one policy required")
        if not self.beams:
            raise HarnessError("at least one beam required")
        for name in ("beams", "intervals"):
            bad = [v for v in getattr(self, name) if not _is_count(v)]
            if bad:
                raise HarnessError(f"{name} must be ints >= 1, got {bad[0]!r}")
        if "interval" in self.policies and not self.intervals:
            raise HarnessError("policy interval needs at least one interval")
        # a repeat would decode the same cell twice; unknown policies fail per cell
        known = [p for p in self.policies if p in POLICY_KINDS or p == "baseline"]
        sweep = (("beams", self.beams), ("intervals", self.intervals), ("policies", known))
        for name, values in sweep:
            repeated = next((v for v in values if values.count(v) > 1), None)
            if repeated is not None:
                raise HarnessError(f"{name} lists {repeated} more than once")
        if self.mode not in MODES:
            raise HarnessError(f"mode must be {' or '.join(MODES)}, got {self.mode!r}")
        for name in ("per_call_ms", "per_token_ms"):
            if not getattr(self, name) >= 0:
                raise HarnessError(f"{name} must be >= 0, got {getattr(self, name)!r}")
        lo, hi = self.frames_per_token
        if not 1 <= lo <= hi:
            raise HarnessError(
                f"frames_per_token must be lo:hi with 1 <= lo <= hi, got {lo}:{hi}"
            )


@dataclass
class BenchRow:
    policy: str
    beam: int
    interval: int | None
    utterances: int
    ref_words: int = 0
    wer: float = 0.0
    substitutions: int = 0
    insertions: int = 0
    deletions: int = 0
    lm_calls: int = 0
    lm_tokens: int = 0
    lm_hypotheses: int = 0
    decode_seconds: float = 0.0
    lm_emulated_seconds: float = 0.0
    status: str = "ok"

    def as_csv(self) -> list[str]:
        return [_CSV_FORMATS.get(name, str)(getattr(self, name)) for name in CSV_COLUMNS]


# the CSV has one column per ``BenchRow`` field, in field order
CSV_COLUMNS = [f.name for f in dataclasses.fields(BenchRow)]
TIME_COLUMNS = ("decode_seconds", "lm_emulated_seconds")
_CSV_FORMATS = {
    "interval": lambda value: "" if value is None else str(value),
    "wer": "{:.6f}".format,
    "decode_seconds": "{:.4f}".format,
    "lm_emulated_seconds": "{:.4f}".format,
}


@dataclass
class BenchAssets:
    """Everything a sweep needs, prepared once per configuration.

    ``scorer`` is the cross-vocabulary LM used by the fusion policies;
    ``asr_scorer`` is a matched-vocabulary model for the shallow-fusion
    baseline, which charges every candidate token and therefore needs a
    model trained on the acoustic piece inventory to be a fair reference.
    """

    asr_tok: Tokenizer
    lm_tok: Tokenizer
    scorer: object
    asr_scorer: object
    utts: list[Utterance]
    train_lines: list[str]
    eval_lines: list[str]


def prepare_bench(cfg: BenchConfig) -> BenchAssets:
    if cfg.corpus_path:
        with open(cfg.corpus_path, "r", encoding="utf-8") as fh:
            lines = [line.strip() for line in fh if line.strip()]
    else:
        lines = generate_corpus(cfg.seed, cfg.corpus_sentences, cfg.corpus_vocabulary)
    train_lines, eval_lines = split_corpus(lines)

    asr_tok = Tokenizer(build_vocab(train_lines, cfg.asr_vocab_size))
    lm_tok = Tokenizer(build_vocab(train_lines, cfg.lm_vocab_size))
    model = train_ngram(
        [lm_tok.encode(line) for line in train_lines],
        lm_tok.vocab,
        order=cfg.lm_order,
        discount=cfg.lm_discount,
    )
    asr_model = train_ngram(
        [asr_tok.encode(line) for line in train_lines],
        asr_tok.vocab,
        order=cfg.lm_order,
        discount=cfg.lm_discount,
    )
    utts = synth_dataset(
        eval_lines, asr_tok, cfg.utterances, cfg.noise, cfg.frames_per_token, cfg.seed
    )
    return BenchAssets(asr_tok, lm_tok, model, asr_model, utts, train_lines, eval_lines)


def _cells(cfg: BenchConfig) -> list[tuple[str, int, int | None]]:
    cells: list[tuple[str, int, int | None]] = []
    for beam in cfg.beams:
        cells.append(("baseline", beam, None))
        cells.append(("shallow", beam, None))
        for policy in cfg.policies:
            if policy == "interval":
                for interval in cfg.intervals:
                    cells.append((policy, beam, interval))
            elif policy in ("baseline", "shallow"):
                continue  # already present as fixed baselines
            else:
                cells.append((policy, beam, None))
    return cells


def emulated_lm_seconds(
    calls: int, tokens: int, per_call_ms: float, per_token_ms: float
) -> float:
    """Modelled latency of a remote LM: a cost per call plus a cost per new token."""
    return (per_call_ms * calls + per_token_ms * tokens) / 1000.0


def run_cell(
    assets: BenchAssets, cfg: BenchConfig, policy: str, beam: int, interval: int | None
) -> BenchRow:
    row = BenchRow(policy, beam, interval, len(assets.utts))
    if policy == "baseline":
        lms = []
        fusion = FusionPolicy("never")
    elif policy == "shallow":
        lms = [LMSpec(assets.asr_scorer, assets.asr_tok, cfg.lm_weight)]
        fusion = FusionPolicy("shallow")
    else:
        lms = [LMSpec(assets.scorer, assets.lm_tok, cfg.lm_weight)]
        fusion = FusionPolicy(policy, interval or 0)
    config = DecodeConfig(beam=beam, policy=fusion, lms=lms, mode=cfg.mode)

    started = time.perf_counter()
    for utt in assets.utts:
        result = decode(utt.emissions, config, assets.asr_tok)
        ref_words = utt.reference.split()
        measured = wer(ref_words, result.best.text.split())
        row.ref_words += len(ref_words)
        row.substitutions += measured.substitutions
        row.insertions += measured.insertions
        row.deletions += measured.deletions
        row.lm_calls += result.counters.lm_calls
        row.lm_tokens += result.counters.lm_tokens
        row.lm_hypotheses += result.counters.lm_hypotheses
    row.decode_seconds = time.perf_counter() - started
    row.lm_emulated_seconds = emulated_lm_seconds(
        row.lm_calls, row.lm_tokens, cfg.per_call_ms, cfg.per_token_ms
    )
    errors = row.substitutions + row.insertions + row.deletions
    row.wer = errors / max(1, row.ref_words)
    return row


def run_bench(cfg: BenchConfig, out_path: str | None = None) -> list[BenchRow]:
    """Decode every utterance for every sweep cell; failed cells are recorded."""
    assets = prepare_bench(cfg)
    rows = []
    for policy, beam, interval in _cells(cfg):
        try:
            rows.append(run_cell(assets, cfg, policy, beam, interval))
        except Exception as exc:  # a broken cell must not kill the sweep
            failed = BenchRow(policy, beam, interval, len(assets.utts))
            failed.status = f"error: {exc}"
            rows.append(failed)
    if out_path:
        write_bench_csv(rows, out_path)
    return rows


def write_bench_csv(rows: Sequence[BenchRow], path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(bench_csv_text(rows))


def bench_csv_text(rows: Sequence[BenchRow]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(CSV_COLUMNS)
    for row in rows:
        writer.writerow(row.as_csv())
    return buf.getvalue()


# -- key=value config files -------------------------------------------------------


def parse_bench_config(path: str) -> BenchConfig:
    """Parse a key = value file (one pair per line, # comments); unknown keys are errors."""
    raw: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            if "=" not in text:
                raise HarnessError(f"{path}:{lineno}: expected key = value, got {line!r}")
            key, _, value = text.partition("=")
            raw[key.strip()] = value.strip()

    # a key is a field's name, but ``corpus`` sets ``corpus_path``
    fields = {
        "corpus" if f.name == "corpus_path" else f.name: f
        for f in dataclasses.fields(BenchConfig)
    }
    unknown = sorted(set(raw) - set(fields))
    if unknown:
        raise HarnessError(f"{path}: unknown key(s): {', '.join(unknown)}")

    def convert(key, conv, text):
        try:
            return conv(text)
        except ValueError:
            raise HarnessError(
                f"{path}: {key} = {raw[key]!r}: expected {conv.__name__} values"
            ) from None

    # each value takes its field default's type; lists split on commas
    values = {}
    for key, f in fields.items():
        if key not in raw:
            continue
        text = raw[key]
        if key == "corpus":
            value = text or None
        elif key == "frames_per_token":
            lo, _, hi = text.partition(":")
            value = (convert(key, int, lo), convert(key, int, hi or lo))
        elif isinstance(f.default, tuple):
            parts = (part.strip() for part in text.split(","))
            value = tuple(convert(key, type(f.default[0]), part) for part in parts if part)
        else:
            value = convert(key, type(f.default), text)
        values[f.name] = value
    try:
        return BenchConfig(**values)
    except HarnessError as exc:
        raise HarnessError(f"{path}: {exc}") from None
