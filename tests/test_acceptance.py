"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The statistical trend
test (criterion 8) decodes 20 seeds x 50 utterances per policy and is the
slowest item; the whole module stays well inside its ten-minute budget on a
laptop-class machine.
"""

import csv
import io
import math
import time

import numpy as np
import pytest

from beamfuse.acoustic import (
    NEG_INF,
    EmissionMatrix,
    enumerate_collapse_table,
    forward_ctc,
)
from beamfuse.decoder import DecodeConfig, FusionPolicy, LMSpec, decode
from beamfuse.harness import (
    CSV_COLUMNS,
    TIME_COLUMNS,
    BenchConfig,
    bench_csv_text,
    emulated_lm_seconds,
    generate_corpus,
    run_bench,
    split_corpus,
    synth_dataset,
    wer,
)
from beamfuse.lm import (
    ScoreRequest,
    read_arpa,
    train_ngram,
    write_arpa,
)
from beamfuse.tokenization import (
    BOS_ID,
    EOS_ID,
    Tokenizer,
    build_vocab,
    tokenizable_prefix_len,
)

from conftest import advanced_view, make_vocab, random_emissions
from test_acoustic import prefix_dp


class World:
    """The calibrated desk-scale setup shared by the acceptance tests."""

    def __init__(self):
        lines = generate_corpus(11, 2000, 180)
        self.train, self.eval_lines = split_corpus(lines)
        self.asr_tok = Tokenizer(build_vocab(self.train, 64))
        self.lm_tok = Tokenizer(build_vocab(self.train, 160))
        self.lm = train_ngram(
            [self.lm_tok.encode(line) for line in self.train], self.lm_tok.vocab, 3, 0.4
        )
        self.asr_lm = train_ngram(
            [self.asr_tok.encode(line) for line in self.train], self.asr_tok.vocab, 3, 0.4
        )
        self.noise = 0.47  # calibrated: no-LM beam decode lands in 10..30% WER
        self.beam = 6
        self.weight = 0.5

    def spec(self, scorer=None, tokenizer=None, weight=None, **kwargs):
        return LMSpec(
            scorer or self.lm, tokenizer or self.lm_tok, weight or self.weight, **kwargs
        )

    def utterances(self, count, seed, words=None, frames=(1, 2), noise=None):
        lines = self.eval_lines
        if words is not None:
            lines = [" ".join(l.split()[:words]) for l in lines]
        return synth_dataset(
            lines, self.asr_tok, count, self.noise if noise is None else noise, frames, seed
        )


@pytest.fixture(scope="module")
def world():
    return World()


def test_c01_ctc_correctness():
    started = time.perf_counter()
    rng = np.random.default_rng(101)
    checked_prefixes = 0
    for case in range(50):
        T = int(rng.integers(2, 9))
        V = int(rng.integers(3, 6)) if T <= 5 else 3
        em = EmissionMatrix(random_emissions(rng, T, V))
        pairs = prefix_dp(em)
        table = enumerate_collapse_table(em)
        for prefix, pair in pairs.items():
            expected = table.get(prefix, NEG_INF)
            got = pair.total()
            if expected == NEG_INF:
                assert got == NEG_INF
            else:
                assert abs(got - expected) < 1e-9
            checked_prefixes += 1
        for labels in list(table)[:20]:
            assert abs(forward_ctc(em, labels) - table[labels]) < 1e-9
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    print(
        f"\nACCEPTANCE PASS [1] CTC correctness: 50 instances, "
        f"{checked_prefixes} prefixes vs enumeration, enumeration vs forward DP, "
        f"all within 1e-9 in {elapsed:.1f}s"
    )


def test_c02_degenerate_policy_equals_rescoring(world):
    utts = world.utterances(20, seed=202)
    worst = 0.0
    for utt in utts:
        fused = decode(
            utt.emissions,
            DecodeConfig(beam=8, policy=FusionPolicy("never"), lms=[world.spec()]),
            world.asr_tok,
        )
        plain = decode(
            utt.emissions,
            DecodeConfig(beam=8, policy=FusionPolicy("never"), lms=[]),
            world.asr_tok,
        )
        rescored = []
        for hyp in plain.nbest:
            lm_ids = (BOS_ID,) + tuple(world.lm_tok.encode(hyp.text)) + (EOS_ID,)
            comb = hyp.e2e_score + world.weight * world.lm.sequence_logprob(lm_ids)
            rescored.append((comb, hyp.tokens))
        rescored.sort(key=lambda e: (-e[0], len(e[1]), e[1]))
        assert [h.tokens for h in fused.nbest] == [t for _, t in rescored]
        for hyp, (comb, _) in zip(fused.nbest, rescored):
            worst = max(worst, abs(hyp.combined_score - comb))
        assert worst <= 1e-12
    print(
        f"\nACCEPTANCE PASS [2] policy 'never' == explicit n-best rescoring on "
        f"{len(utts)} utterances (hypotheses identical, worst score delta {worst:.1e})"
    )


def test_c03_no_pruning_invariance():
    vocab = make_vocab("▁a", "▁b", "c")
    tok = Tokenizer(vocab)
    corpus = ["a b", "ac b a", "b ac", "a", "b a", "ac a"] * 3
    lm = train_ngram([tok.encode(s) for s in corpus], vocab, 2, 0.4)
    weight = 0.5
    rng = np.random.default_rng(303)
    policies = [
        FusionPolicy("always"),
        FusionPolicy("shortest"),
        FusionPolicy("interval", 2),
        FusionPolicy("never"),
    ]
    for case in range(3):
        T = int(rng.integers(4, 7))
        em = EmissionMatrix(random_emissions(rng, T, vocab.size))

        best = None
        real = list(vocab.real_ids())
        stack = [()]
        while stack:
            seq = stack.pop()
            if len(seq) < T:
                stack.extend(seq + (c,) for c in reversed(real))
            e2e = forward_ctc(em, seq)
            if e2e == NEG_INF:
                continue
            text = tok.decode(seq)
            lm_ids = (BOS_ID,) + tuple(tok.encode(text)) + (EOS_ID,)
            comb = e2e + weight * lm.sequence_logprob(lm_ids)
            key = (-comb, len(seq), seq)
            if best is None or key < best[0]:
                best = (key, comb, text)

        for policy in policies:
            cfg = DecodeConfig(beam=None, policy=policy, lms=[LMSpec(lm, tok, weight)])
            result = decode(em, cfg, tok)
            assert result.best.text == best[2], policy.kind
            assert abs(result.best.combined_score - best[1]) < 1e-9
        label = decode(
            em,
            DecodeConfig(
                beam=None, policy=FusionPolicy("shortest"), lms=[LMSpec(lm, tok, weight)],
                mode="labelsync",
            ),
            tok,
        )
        assert label.best.text == best[2]
        assert abs(label.best.combined_score - best[1]) < 1e-9
    print(
        "\nACCEPTANCE PASS [3] no-pruning invariance: always/shortest/interval(2)/never "
        "and label-sync all select the exhaustive argmax (scores within 1e-9)"
    )


def test_c04_incremental_cache_exactness(world):
    rng = np.random.default_rng(404)
    vsize = world.lm_tok.vocab.size
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(3, 30))
        seq = tuple(int(x) for x in rng.integers(4, vsize, size=n)) + (EOS_ID,)
        rounds = sorted(set(int(x) for x in rng.integers(1, len(seq), size=int(rng.integers(0, 6)))))
        cache = world.lm.fresh_cache()
        cum = 0.0
        for end in rounds + [len(seq)]:
            res = world.lm.score_batch_incremental([ScoreRequest(seq[:end], cache)])[0]
            cache, cum = res.cache, res.cum_logprob
        reference = world.lm.sequence_logprob((BOS_ID,) + seq)
        worst = max(worst, abs(cum - reference))
        assert worst < 1e-9
    print(
        f"\nACCEPTANCE PASS [4] incremental cache exactness: 100 partitioned "
        f"histories match from-scratch scores (worst delta {worst:.1e})"
    )


def test_c05_call_bounds(world):
    # shortest-hypothesis: loop calls bounded by the shortest final length
    for utt in world.utterances(20, seed=505):
        result = decode(
            utt.emissions,
            DecodeConfig(beam=world.beam, policy=FusionPolicy("shortest"), lms=[world.spec()]),
            world.asr_tok,
        )
        loop_calls = result.counters.lm_calls - result.counters.lm_calls_final
        shortest_final = min(len(world.lm_tok.encode(h.text)) for h in result.nbest)
        assert loop_calls <= shortest_final
        assert result.counters.lm_calls_final == 1

    # fixed-interval: per-utterance ceiling and monotone aggregate calls
    utts = world.utterances(6, seed=506, frames=(4, 6))
    totals = {}
    for interval in (16, 32, 64):
        total = 0
        for utt in utts:
            result = decode(
                utt.emissions,
                DecodeConfig(
                    beam=world.beam,
                    policy=FusionPolicy("interval", interval),
                    lms=[world.spec()],
                ),
                world.asr_tok,
            )
            loop_calls = result.counters.lm_calls - result.counters.lm_calls_final
            assert loop_calls <= math.ceil(utt.emissions.num_frames / interval)
            total += loop_calls
        totals[interval] = total
    assert totals[16] >= totals[32] >= totals[64]
    print(
        f"\nACCEPTANCE PASS [5] call bounds: shortest-hyp loop calls within the "
        f"shortest-final-length bound; interval loop calls {totals} non-increasing in I"
    )


def test_c06_work_reduction_vs_shallow(world):
    # wall time is compute plus a remote LM's modelled 5 ms per call and 0.1 ms per token
    utts = world.utterances(20, seed=606, words=3, frames=(1, 1))
    stats = {}
    for kind in ("shallow", "shortest"):
        calls = tokens = hyps = 0
        wall = 0.0
        for utt in utts:
            cfg = DecodeConfig(
                beam=3,
                policy=FusionPolicy(kind),
                lms=[LMSpec(world.asr_lm, world.asr_tok, world.weight)],
            )
            result = decode(utt.emissions, cfg, world.asr_tok)
            calls += result.counters.lm_calls
            tokens += result.counters.lm_tokens
            hyps += result.counters.lm_hypotheses
            wall += result.counters.wall_seconds
        stats[kind] = (tokens, hyps, wall + emulated_lm_seconds(calls, tokens, 5.0, 0.1))
    assert stats["shortest"][0] < stats["shallow"][0]
    assert stats["shortest"][1] < stats["shallow"][1]
    assert stats["shortest"][2] < stats["shallow"][2]
    print(
        f"\nACCEPTANCE PASS [6] work reduction: shortest-hyp scored "
        f"{stats['shortest'][0]} tokens vs shallow {stats['shallow'][0]}; wall "
        f"{stats['shortest'][2]:.2f}s vs {stats['shallow'][2]:.2f}s with 5ms/0.1ms latency"
    )


def test_c07_retokenization_invariants(world):
    rng = np.random.default_rng(707)
    real = list(world.asr_tok.vocab.real_ids())
    for _ in range(1000):
        n = int(rng.integers(1, 18))
        ids = [real[int(i)] for i in rng.integers(0, len(real), size=n)]
        cut = int(rng.integers(0, n))
        short = advanced_view(ids[:cut], world.asr_tok, world.lm_tok).lm_tokens
        whole = advanced_view(ids, world.asr_tok, world.lm_tok)
        stepwise = advanced_view(ids, world.asr_tok, world.lm_tok, stepwise=True)
        assert whole.lm_tokens[: len(short)] == short
        k = tokenizable_prefix_len(ids, world.asr_tok.vocab)
        expected = (k, tuple(world.lm_tok.encode(world.asr_tok.decode(ids[:k]))))
        assert (whole.consumed, whole.lm_tokens) == expected
        assert (stepwise.consumed, stepwise.lm_tokens) == expected
        assert k <= len(ids)
        assert not any(world.asr_tok.vocab.is_word_begin(t) for t in ids[k + 1 :])
    for line in world.train:
        assert world.asr_tok.decode(world.asr_tok.encode(line)) == " ".join(line.split())
    print(
        "\nACCEPTANCE PASS [7] re-tokenization: prefix stability and boundary "
        "correctness on 1000 random sequences; corpus round trip exact"
    )


def test_c08_trend_reproduction(world):
    started = time.perf_counter()
    policies = {
        "baseline": (FusionPolicy("never"), False),
        "never": (FusionPolicy("never"), True),
        "interval64": (FusionPolicy("interval", 64), True),
        "shortest": (FusionPolicy("shortest"), True),
    }
    errors = {name: 0 for name in policies}
    words = 0
    for seed in range(20):
        for utt in world.utterances(50, seed=seed):
            ref = utt.reference.split()
            words += len(ref)
            for name, (policy, with_lm) in policies.items():
                cfg = DecodeConfig(
                    beam=world.beam,
                    policy=policy,
                    lms=[world.spec()] if with_lm else [],
                )
                result = decode(utt.emissions, cfg, world.asr_tok)
                errors[name] += wer(ref, result.best.text.split()).errors
    rates = {name: errors[name] / words for name in policies}
    elapsed = time.perf_counter() - started

    assert 0.10 <= rates["baseline"] <= 0.30  # calibrated operating point
    for name in ("never", "interval64", "shortest"):
        relative = (rates["baseline"] - rates[name]) / rates["baseline"]
        assert relative >= 0.03, (name, rates)
    assert rates["shortest"] <= rates["never"]
    # 0.5-point tolerance band around the shortest <= interval <= never ordering
    assert rates["shortest"] <= rates["interval64"] + 0.005
    assert rates["interval64"] <= rates["never"] + 0.005
    assert elapsed < 600.0
    print(
        f"\nACCEPTANCE PASS [8] trend reproduction over 20 seeds x 50 utterances "
        f"({words} words, {elapsed:.0f}s): baseline {rates['baseline']:.3f} > "
        f"never {rates['never']:.3f} >= interval64 {rates['interval64']:.3f} >= "
        f"shortest {rates['shortest']:.3f}"
    )


def test_c09_arpa_round_trip(world, tmp_path):
    path = tmp_path / "round.arpa"
    write_arpa(world.lm, str(path))
    loaded = read_arpa(str(path))
    rng = np.random.default_rng(909)
    vsize = world.lm_tok.vocab.size
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 25))
        seq = (BOS_ID,) + tuple(int(x) for x in rng.integers(4, vsize, size=n)) + (EOS_ID,)
        worst = max(worst, abs(world.lm.sequence_logprob(seq) - loaded.sequence_logprob(seq)))
    assert worst < 1e-9
    print(
        f"\nACCEPTANCE PASS [9] ARPA round trip: 100 random sequences score "
        f"identically (worst delta {worst:.1e})"
    )


def test_c10_bench_determinism():
    cfg = dict(
        seed=42,
        corpus_sentences=500,
        corpus_vocabulary=100,
        utterances=4,
        noise=0.47,
        policies=("never", "shortest", "interval"),
        beams=(5,),
        intervals=(16, 32),
        lm_vocab_size=128,
    )
    first = bench_csv_text(run_bench(BenchConfig(**cfg)))
    second = bench_csv_text(run_bench(BenchConfig(**cfg)))
    time_idx = [CSV_COLUMNS.index(c) for c in TIME_COLUMNS]

    def strip(text):
        return [
            [v for i, v in enumerate(row) if i not in time_idx]
            for row in csv.reader(io.StringIO(text))
        ]

    assert strip(first) == strip(second)
    print(
        "\nACCEPTANCE PASS [10] determinism: two full bench runs produce "
        "identical CSVs outside the time columns"
    )
