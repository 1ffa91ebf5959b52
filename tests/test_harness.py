import csv
import functools
import hashlib
import io

import numpy as np
import pytest

from beamfuse.acoustic import read_emissions
from beamfuse.decoder import DecodeConfig, FusionPolicy, LMSpec, decode
from beamfuse.harness import (
    CSV_COLUMNS,
    TIME_COLUMNS,
    BenchConfig,
    HarnessError,
    bench_csv_text,
    emulated_lm_seconds,
    gen_dataset,
    generate_corpus,
    parse_bench_config,
    prepare_bench,
    read_corpus,
    read_manifest,
    run_bench,
    run_cell,
    split_corpus,
    synth_dataset,
    wer,
    write_manifest,
)
from beamfuse.tokenization import BOS_ID, EOS_ID

from conftest import CountingScorer, greedy_labels


def _reference_wer(reference, hypothesis):
    """Memoized recursion over the alignment recurrence (independent path)."""

    @functools.lru_cache(maxsize=None)
    def go(i, j):
        if i == 0:
            return (j, 0, j, 0)
        if j == 0:
            return (i, 0, 0, i)
        if reference[i - 1] == hypothesis[j - 1]:
            return go(i - 1, j - 1)
        sub = go(i - 1, j - 1)
        dele = go(i - 1, j)
        ins = go(i, j - 1)
        best = (sub[0] + 1, sub[1] + 1, sub[2], sub[3])
        if dele[0] + 1 < best[0]:
            best = (dele[0] + 1, dele[1], dele[2], dele[3] + 1)
        if ins[0] + 1 < best[0]:
            best = (ins[0] + 1, ins[1], ins[2] + 1, ins[3])
        return best

    total, s, i_, d = go(len(reference), len(hypothesis))
    return total / max(1, len(reference)), s, i_, d


class TestWer:
    def test_identical(self):
        assert wer(["a", "b"], ["a", "b"]).wer == 0.0

    def test_single_substitution(self):
        result = wer("a b c".split(), "a x c".split())
        assert (result.wer, result.substitutions) == (pytest.approx(1 / 3), 1)
        assert (result.insertions, result.deletions) == (0, 0)

    def test_empty_reference_counts_insertions(self):
        result = wer([], ["x", "y"])
        assert result.insertions == 2
        assert result.wer == 2.0

    def test_empty_hypothesis_counts_deletions(self):
        result = wer(["x", "y"], [])
        assert result.deletions == 2
        assert result.wer == 1.0

    def test_matches_independent_reference(self):
        rng = np.random.default_rng(37)
        alphabet = list("abcde")
        for _ in range(100):
            ref = [alphabet[int(i)] for i in rng.integers(0, 5, size=int(rng.integers(0, 9)))]
            hyp = [alphabet[int(i)] for i in rng.integers(0, 5, size=int(rng.integers(0, 9)))]
            got = wer(ref, hyp)
            expected = _reference_wer(tuple(ref), tuple(hyp))
            assert (got.wer, got.substitutions, got.insertions, got.deletions) == (
                pytest.approx(expected[0]),
                expected[1],
                expected[2],
                expected[3],
            )


class TestCorpus:
    def test_deterministic(self):
        assert generate_corpus(5, 100, 60) == generate_corpus(5, 100, 60)

    def test_distinct_sentences(self):
        lines = generate_corpus(5, 200, 60)
        assert len(set(lines)) == len(lines)

    def test_split_disjoint(self):
        train, eval_lines = split_corpus(generate_corpus(5, 200, 60))
        assert not set(train) & set(eval_lines)
        assert train and eval_lines

    def test_read_corpus_strips_and_drops_blank_lines(self, tmp_path):
        path = tmp_path / "corpus.txt"
        path.write_bytes(b"  ka lo \r\n\r\n\tmi  su\r\n   \r\nne\n\n")
        assert read_corpus(str(path)) == ["ka lo", "mi  su", "ne"]


class TestDataset:
    def test_manifest_stable_across_runs(self, asr_tok, corpus_split, tmp_path):
        _, eval_lines = corpus_split

        def digest(out_dir):
            rows = gen_dataset(eval_lines, asr_tok, str(out_dir), 3, 0.4, (1, 2), 9)
            h = hashlib.sha256()
            for utt_id, path, ref in rows:
                h.update(utt_id.encode())
                h.update(ref.encode())
                h.update(open(path, "rb").read())
            return h.hexdigest()

        assert digest(tmp_path / "a") == digest(tmp_path / "b")

    def test_manifest_round_trip(self, asr_tok, corpus_split, tmp_path):
        _, eval_lines = corpus_split
        rows = gen_dataset(eval_lines, asr_tok, str(tmp_path / "d"), 2, 0.4, (1, 2), 9)
        assert read_manifest(str(tmp_path / "d" / "manifest.tsv")) == rows

    def test_clean_dataset_greedy_exact(self, asr_tok, corpus_split):
        _, eval_lines = corpus_split
        for utt in synth_dataset(eval_lines, asr_tok, 5, 0.0, (1, 2), 3):
            decoded = asr_tok.decode(list(greedy_labels(utt.emissions)))
            assert decoded == utt.reference

    def test_count_too_large(self, asr_tok):
        with pytest.raises(HarnessError, match="too small"):
            synth_dataset(["a b"], asr_tok, 5, 0.2, (1, 2), 0)

    def test_inner_tabs_read_back(self, asr_tok, corpus_split, tmp_path):
        # ``read_corpus`` strips a line's ends but keeps the whitespace inside it
        _, eval_lines = corpus_split
        sentences = [line.replace(" ", "\t", 1) for line in eval_lines[:4]]
        rows = gen_dataset(sentences, asr_tok, str(tmp_path / "d"), 4, 0.4, (1, 2), 9)
        assert read_manifest(str(tmp_path / "d" / "manifest.tsv")) == rows
        words = {tuple(line.split()) for line in sentences}
        assert {tuple(ref.split()) for _, _, ref in rows} == words
        assert all(ref == " ".join(ref.split()) for _, _, ref in rows)

    @pytest.mark.parametrize("bad", ["a\tb", "a\nb", "a\rb"])
    @pytest.mark.parametrize("column", [0, 1, 2])
    def test_manifest_field_with_a_tab_or_line_break_rejected(self, tmp_path, bad, column):
        row = ["utt0000", "d/utt0000.em", "ka lo"]
        row[column] = bad
        path = tmp_path / "manifest.tsv"
        with pytest.raises(HarnessError, match="cannot hold a tab or a line break"):
            write_manifest([("utt0001", "d/utt0001.em", "mi"), tuple(row)], str(path))
        assert not path.exists()

    def test_emission_files_load(self, asr_tok, corpus_split, tmp_path):
        _, eval_lines = corpus_split
        rows = gen_dataset(eval_lines, asr_tok, str(tmp_path / "d"), 1, 0.4, (1, 2), 9)
        em = read_emissions(rows[0][1])
        assert em.vocab_size == asr_tok.vocab.size


def _tiny_cfg(**overrides):
    base = dict(
        seed=5,
        corpus_sentences=300,
        corpus_vocabulary=80,
        utterances=3,
        noise=0.45,
        frames_per_token=(1, 2),
        policies=("never", "shortest"),
        beams=(4,),
        intervals=(8,),
        asr_vocab_size=64,
        lm_vocab_size=96,
    )
    base.update(overrides)
    return BenchConfig(**base)


class TestBench:
    def test_rows_and_schema(self, tmp_path):
        out = tmp_path / "bench.csv"
        rows = run_bench(_tiny_cfg(), str(out))
        policies = [row.policy for row in rows]
        assert policies == ["baseline", "shallow", "never", "shortest"]
        with open(out) as fh:
            reader = csv.reader(fh)
            header = next(reader)
            assert header == CSV_COLUMNS
            assert all(len(line) == len(CSV_COLUMNS) for line in reader)
        assert all(row.status == "ok" for row in rows)

    def test_deterministic_except_time_columns(self):
        first = bench_csv_text(run_bench(_tiny_cfg()))
        second = bench_csv_text(run_bench(_tiny_cfg()))
        time_idx = [CSV_COLUMNS.index(c) for c in TIME_COLUMNS]

        def strip(text):
            rows = list(csv.reader(io.StringIO(text)))
            return [
                [v for i, v in enumerate(row) if i not in time_idx] for row in rows
            ]

        assert strip(first) == strip(second)

    def test_never_row_matches_manual_rescoring(self):
        cfg = _tiny_cfg(policies=("never",))
        assets = prepare_bench(cfg)
        row = run_cell(assets, cfg, "never", 4, None)

        errors = words = 0
        plain = DecodeConfig(beam=4, policy=FusionPolicy("never"), lms=[])
        for utt in assets.utts:
            result = decode(utt.emissions, plain, assets.asr_tok)
            rescored = []
            for hyp in result.nbest:
                lm_ids = (BOS_ID,) + tuple(assets.lm_tok.encode(hyp.text)) + (EOS_ID,)
                comb = hyp.e2e_score + cfg.lm_weight * assets.scorer.sequence_logprob(lm_ids)
                rescored.append((comb, hyp.tokens, hyp.text))
            rescored.sort(key=lambda e: (-e[0], len(e[1]), e[1]))
            best_text = rescored[0][2]
            ref = utt.reference.split()
            errors += wer(ref, best_text.split()).errors
            words += len(ref)
        assert row.wer == pytest.approx(errors / words)

    def test_interval_calls_non_increasing(self):
        cfg = _tiny_cfg(
            policies=("interval",),
            intervals=(16, 32, 64),
            frames_per_token=(4, 6),
            utterances=3,
            noise=0.4,
        )
        rows = [r for r in run_bench(cfg) if r.policy == "interval"]
        calls = {r.interval: r.lm_calls for r in rows}
        assert calls[16] >= calls[32] >= calls[64]

    def test_counter_audit(self):
        cfg = _tiny_cfg(policies=("shortest",))
        assets = prepare_bench(cfg)
        assets.scorer = CountingScorer(assets.scorer)
        row = run_cell(assets, cfg, "shortest", 4, None)
        assert assets.scorer.counts() == (row.lm_calls, row.lm_hypotheses, row.lm_tokens)

    def test_failed_cell_recorded_without_aborting(self):
        rows = run_bench(_tiny_cfg(policies=("bogus", "never")))
        bad = [r for r in rows if r.policy == "bogus"]
        assert bad and bad[0].status.startswith("error:")
        assert all(r.status == "ok" for r in rows if r.policy != "bogus")

    def test_validation(self):
        with pytest.raises(HarnessError):
            BenchConfig(utterances=0)
        with pytest.raises(HarnessError):
            BenchConfig(policies=())

    @pytest.mark.parametrize(
        "field, value, message",
        [
            # direct construction; tests/test_cli.py covers the config-file spellings
            ("beams", (True,), "beams must be ints >= 1, got True"),
            ("intervals", (16, 2.5), "intervals must be ints >= 1, got 2.5"),
            ("per_token_ms", float("nan"), "per_token_ms must be >= 0"),
            ("beams", (5, 10, 5), "beams lists 5 more than once"),
            ("intervals", (16, 16), "intervals lists 16 more than once"),
            ("policies", ("never", "shortest", "never"), "policies lists never more than once"),
            ("policies", ("shallow", "shallow"), "policies lists shallow more than once"),
        ],
    )
    def test_sweep_validation(self, field, value, message):
        with pytest.raises(HarnessError, match=message):
            BenchConfig(**{field: value})

    def test_interval_policy_needs_intervals(self):
        with pytest.raises(HarnessError, match="policy interval needs at least one interval"):
            BenchConfig(policies=("interval",), intervals=())
        BenchConfig(policies=("never",), intervals=())  # unused intervals may be empty

    def test_prepare_bench_reads_corpus_file(self, tmp_path):
        lines = generate_corpus(3, 300, 80)
        path = tmp_path / "corpus.txt"
        path.write_text("\n".join(lines) + "\n")
        assets = prepare_bench(_tiny_cfg(corpus_path=str(path)))
        assert assets.eval_lines == split_corpus(lines)[1]
        assert len(assets.utts) == 3


class TestEmulatedLatency:
    """A remote LM's latency is modelled from the counts; nothing sleeps."""

    def test_zero_cost_adds_nothing(self):
        assert emulated_lm_seconds(7, 300, 0.0, 0.0) == 0.0

    def test_per_call_and_per_token_cost(self):
        assert emulated_lm_seconds(7, 0, 10.0, 0.0) == pytest.approx(0.070)
        assert emulated_lm_seconds(7, 300, 10.0, 0.5) == pytest.approx(0.220)

    def test_bench_row_prices_its_counts(self):
        cfg = _tiny_cfg(policies=("shortest",), per_call_ms=5.0, per_token_ms=0.1)
        assets = prepare_bench(cfg)
        free = _tiny_cfg(policies=("shortest",))
        for policy in ("baseline", "shallow", "shortest"):
            row = run_cell(assets, cfg, policy, 4, None)
            expected = (5.0 * row.lm_calls + 0.1 * row.lm_tokens) / 1000
            assert row.lm_emulated_seconds == pytest.approx(expected, rel=1e-12)
            assert (row.lm_emulated_seconds > 0) == (policy != "baseline")
            assert run_cell(assets, free, policy, 4, None).lm_emulated_seconds == 0.0

    def test_negative_cost_rejected(self):
        for field in ("per_call_ms", "per_token_ms"):
            with pytest.raises(HarnessError, match=field):
                BenchConfig(**{field: -1.0})


class TestOperatingPoint:
    def test_noise_half_gives_usable_error_rate(self, asr_tok, corpus_split):
        # calibration: at noise 0.5 the no-LM decode is degraded but not broken
        _, eval_lines = corpus_split
        utts = synth_dataset(eval_lines, asr_tok, 100, 0.5, (1, 2), 77)
        cfg = DecodeConfig(beam=6, policy=FusionPolicy("never"), lms=[])
        errors = words = 0
        for utt in utts:
            ref = utt.reference.split()
            result = decode(utt.emissions, cfg, asr_tok)
            errors += wer(ref, result.best.text.split()).errors
            words += len(ref)
        rate = errors / words
        assert 0.0 < rate < 0.5

    def test_shortest_beats_rescoring_across_beams(
        self, asr_tok, lm_tok, trigram, corpus_split
    ):
        _, eval_lines = corpus_split
        spec = LMSpec(trigram, lm_tok, 0.5)
        for beam in (5, 10):
            errs = {"never": 0, "shortest": 0}
            words = 0
            for seed in range(20):
                for utt in synth_dataset(eval_lines, asr_tok, 10, 0.47, (1, 2), 1000 + seed):
                    ref = utt.reference.split()
                    words += len(ref)
                    for kind in errs:
                        cfg = DecodeConfig(beam=beam, policy=FusionPolicy(kind), lms=[spec])
                        result = decode(utt.emissions, cfg, asr_tok)
                        errs[kind] += wer(ref, result.best.text.split()).errors
            assert errs["shortest"] / words <= errs["never"] / words, beam


class TestBenchConfigFile:
    def test_parse_round_trip(self, tmp_path):
        path = tmp_path / "bench.cfg"
        path.write_text(
            "# sweep configuration\n"
            "seed = 9\n"
            "utterances = 12\n"
            "noise = 0.47\n"
            "frames_per_token = 1:2\n"
            "policies = never, shortest, interval\n"
            "beams = 5, 10\n"
            "intervals = 16,32,64\n"
            "lm_weight = 0.6\n"
        )
        cfg = parse_bench_config(str(path))
        assert cfg.seed == 9
        assert cfg.utterances == 12
        assert cfg.noise == pytest.approx(0.47)
        assert cfg.frames_per_token == (1, 2)
        assert cfg.policies == ("never", "shortest", "interval")
        assert cfg.beams == (5, 10)
        assert cfg.intervals == (16, 32, 64)
        assert cfg.lm_weight == pytest.approx(0.6)

    def test_hash_inside_a_value_is_kept(self, tmp_path):
        # a comment starts at a "#" that begins the line or follows whitespace
        path = tmp_path / "hash.cfg"
        path.write_text(
            "  # indented comment\n"
            "corpus = /data/run#2/corpus.txt  # an inline comment\n"
            "seed = 9\t# a tab before it\n"
        )
        cfg = parse_bench_config(str(path))
        assert cfg.corpus_path == "/data/run#2/corpus.txt"
        assert cfg.seed == 9

    def test_bad_line_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("seed 9\n")
        with pytest.raises(HarnessError):
            parse_bench_config(str(path))

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "typo.cfg"
        path.write_text("seed = 9\nbeam = 5\nfrequency = 3\n")
        with pytest.raises(HarnessError, match="unknown key\\(s\\): beam, frequency"):
            parse_bench_config(str(path))

    def test_every_documented_key_accepted(self, tmp_path):
        path = tmp_path / "full.cfg"
        path.write_text(
            "seed = 1\ncorpus =\ncorpus_sentences = 300\ncorpus_vocabulary = 80\n"
            "utterances = 2\nnoise = 0.4\nframes_per_token = 1:2\npolicies = never\n"
            "beams = 3\nintervals = 8\nasr_vocab_size = 64\nlm_vocab_size = 96\n"
            "lm_order = 2\nlm_discount = 0.3\nlm_weight = 0.4\nper_call_ms = 5\n"
            "per_token_ms = 0.1\nmode = labelsync\n"
        )
        cfg = parse_bench_config(str(path))
        assert (cfg.lm_order, cfg.per_call_ms, cfg.per_token_ms, cfg.mode) == (
            2,
            5.0,
            0.1,
            "labelsync",
        )
