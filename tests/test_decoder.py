import math

import numpy as np
import pytest

from beamfuse.acoustic import NEG_INF, CtcPrefixScorer, EmissionMatrix, synth_emissions
from beamfuse.decoder import (
    DecodeConfig,
    DecodeError,
    FusionPolicy,
    Hypothesis,
    LMSpec,
    LMView,
    _Cand,
    _PolicyState,
    apply_lm_scores,
    decode,
    extend_frame,
    fusable,
    make_root_hypothesis,
    prune_frame_candidates,
)
from beamfuse.harness import wer
from beamfuse.lm import PrefixCacheEntry, train_ngram, wrap_with_latency
from beamfuse.tokenization import BOS_ID, EOS_ID, UNK_ID, Tokenizer

from conftest import make_vocab, random_emissions

MODES = ("ctc", "labelsync")


@pytest.fixture(scope="module")
def tiny():
    """A three-piece vocabulary with a matching bigram model."""
    vocab = make_vocab("▁a", "▁b", "c")
    tok = Tokenizer(vocab)
    corpus = ["a b", "ac b a", "b ac", "a", "b a"] * 3
    model = train_ngram([tok.encode(s) for s in corpus], vocab, 2, 0.4)
    return tok, model


def utterances(asr_tok, corpus_split, count, noise, seed0=500):
    _, eval_lines = corpus_split
    out = []
    for i, line in enumerate(eval_lines[:count]):
        ids = asr_tok.encode(line)
        em = synth_emissions(ids, asr_tok.vocab.size, (1, 2), noise=noise, seed=seed0 + i)
        out.append((line, em))
    return out


class TestGreedyCleanDecode:
    def test_recovers_reference(self, asr_tok, corpus_split):
        for line, em in utterances(asr_tok, corpus_split, 5, noise=0.0):
            cfg = DecodeConfig(beam=1, policy=FusionPolicy.never(), lms=[], mode="ctc")
            result = decode(em, cfg, asr_tok)
            assert result.best.text == line


class TestExtend:
    def test_candidate_count(self, tiny):
        tok, _ = tiny
        em = EmissionMatrix(random_emissions(np.random.default_rng(0), 1, tok.vocab.size))
        beam = [make_root_hypothesis([], "ctc")]
        cands = extend_frame(beam, em.log_probs[0], list(tok.vocab.real_ids()))
        assert len(cands) == 4  # stay + one extension per ordinary token

    def test_duplicate_prefixes_merged(self, tiny):
        tok, _ = tiny
        rng = np.random.default_rng(1)
        em = EmissionMatrix(random_emissions(rng, 1, tok.vocab.size))
        a = tok.vocab.token_id("▁a")
        root = make_root_hypothesis([], "ctc")
        grown = Hypothesis((BOS_ID, a), log_blank=-1.0, log_nonblank=-2.0)
        cands = extend_frame([root, grown], em.log_probs[0], list(tok.vocab.real_ids()))
        # raw expansion is 2 * 4 = 8; (bos, a) appears as both stay and extension
        assert len(cands) == 7
        merged = cands[(BOS_ID, a)]
        stay = -1.0  # contributions below reconstruct the merge by hand
        row = em.log_probs[0]
        stay_blank = math.log(math.exp(-1.0) + math.exp(-2.0)) + row[0]
        stay_nonblank = -2.0 + row[a]
        ext_nonblank = 0.0 + row[a]  # root total is log(1)
        assert merged.log_blank == pytest.approx(stay_blank, abs=1e-12)
        assert merged.log_nonblank == pytest.approx(
            math.log(math.exp(stay_nonblank) + math.exp(ext_nonblank)), abs=1e-12
        )


class TestPrune:
    def _cand(self, tokens, log_nonblank):
        return tokens, _Cand(NEG_INF, log_nonblank, [], ())

    def test_no_pruning_when_beam_large(self):
        cands = dict(self._cand((BOS_ID, i), -float(i)) for i in range(4, 10))
        kept = prune_frame_candidates(cands, 100, [])
        assert len(kept) == 6

    def test_tie_prefers_shorter_then_lexicographic(self):
        cands = dict(
            [
                self._cand((BOS_ID, 5, 6), -1.0),
                self._cand((BOS_ID, 5), -1.0),
                self._cand((BOS_ID, 4, 7), -1.0),
            ]
        )
        kept = prune_frame_candidates(cands, 2, [])
        assert kept[0].tokens == (BOS_ID, 5)
        assert kept[1].tokens == (BOS_ID, 4, 7)

    def test_matches_reference_sort(self):
        rng = np.random.default_rng(2)
        cands = {}
        for _ in range(50):
            tokens = (BOS_ID,) + tuple(int(x) for x in rng.integers(4, 9, size=3))
            if tokens in cands:
                continue
            cands[tokens] = _Cand(float(rng.normal()), float(rng.normal()), [], ())
        kept = prune_frame_candidates(dict(cands), 10, [])
        def combined(rec):
            return math.log(math.exp(rec.log_blank) + math.exp(rec.log_nonblank))
        expected = sorted(
            cands.items(), key=lambda kv: (-combined(kv[1]), len(kv[0]), kv[0])
        )[:10]
        assert [h.tokens for h in kept] == [k for k, _ in expected]


def _view_hyp(scored_len, lm_len, cum=-1.0):
    view = LMView(0, tuple(range(100, 100 + lm_len)), PrefixCacheEntry(scored_len, cum, ()))
    return Hypothesis((BOS_ID,), views=[view])


class TestFusable:
    def test_never_and_shallow(self):
        beam = [_view_hyp(0, 3)]
        assert not fusable(FusionPolicy.never(), beam, 5, _PolicyState())
        assert not fusable(FusionPolicy.shallow(), beam, 5, _PolicyState())

    def test_always(self):
        assert fusable(FusionPolicy.always(), [_view_hyp(0, 0)], 1, _PolicyState())

    def test_fixed_interval_grid(self):
        policy = FusionPolicy.fixed_interval(4)
        state = _PolicyState()
        beam = [_view_hyp(scored_len=0, lm_len=2)]  # always has unscored words
        fired = [t for t in range(1, 17) if fusable(policy, beam, t, state)]
        assert fired == [4, 8, 12, 16]

    def test_fixed_interval_requires_change(self):
        policy = FusionPolicy.fixed_interval(4)
        beam = [_view_hyp(scored_len=2, lm_len=2)]  # fully scored
        assert not fusable(policy, beam, 4, _PolicyState())

    def test_shortest_fires_on_growth_only(self):
        policy = FusionPolicy.shortest()
        state = _PolicyState()
        lengths = [0, 0, 1, 1, 2, 2, 2, 4]
        fired = [
            fusable(policy, [_view_hyp(0, n)], t, state)
            for t, n in enumerate(lengths, start=1)
        ]
        assert fired == [False, False, True, False, True, False, False, True]

    def test_interval_validation(self):
        with pytest.raises(DecodeError):
            FusionPolicy.fixed_interval(0)
        with pytest.raises(DecodeError):
            FusionPolicy("bogus")


class TestApplyLmScores:
    def test_nothing_new_scores_no_tokens(self, tiny):
        tok, model = tiny
        spec = LMSpec(model, tok, 0.5)
        hyp = make_root_hypothesis([spec], "ctc")
        before = model.counters.snapshot()
        apply_lm_scores([hyp], [spec])
        after = model.counters.snapshot()
        assert after[0] == before[0] + 1
        assert after[2] == before[2]  # zero tokens

    def test_scores_cover_current_words(self, tiny):
        tok, model = tiny
        spec = LMSpec(model, tok, 0.5)
        a, b = tok.vocab.token_id("▁a"), tok.vocab.token_id("▁b")
        hyp = Hypothesis(
            (BOS_ID, a, b), views=[LMView(1, (a,), model.fresh_cache())]
        )
        apply_lm_scores([hyp], [spec])
        view = hyp.views[0]
        assert view.cache.scored_len == 1
        assert view.cache.cum_logprob == pytest.approx(
            model.sequence_logprob((BOS_ID, a)), abs=1e-12
        )


class TestPolicyEquivalences:
    def test_always_equals_from_scratch_shallow_at_full_beam(self, tiny):
        tok, model = tiny
        em = EmissionMatrix(random_emissions(np.random.default_rng(3), 5, tok.vocab.size))
        for mode in MODES:
            cfg = DecodeConfig(
                beam=None, policy=FusionPolicy.always(), lms=[LMSpec(model, tok, 0.5)],
                mode=mode,
            )
            result = decode(em, cfg, tok)
            for hyp in result.nbest:
                lm_ids = (BOS_ID,) + tuple(tok.encode(hyp.text)) + (EOS_ID,)
                expected = hyp.e2e_score + 0.5 * model.sequence_logprob(lm_ids)
                assert hyp.combined_score == pytest.approx(expected, abs=1e-9)

    def test_never_equals_explicit_rescoring(self, asr_tok, lm_tok, trigram, corpus_split):
        spec = LMSpec(trigram, lm_tok, 0.5)
        for line, em in utterances(asr_tok, corpus_split, 3, noise=0.45):
            fused = decode(
                em,
                DecodeConfig(beam=5, policy=FusionPolicy.never(), lms=[spec]),
                asr_tok,
            )
            plain = decode(
                em, DecodeConfig(beam=5, policy=FusionPolicy.never(), lms=[]), asr_tok
            )
            rescored = []
            for hyp in plain.nbest:
                lm_ids = (BOS_ID,) + tuple(lm_tok.encode(hyp.text)) + (EOS_ID,)
                lm_score = trigram.sequence_logprob(lm_ids)
                rescored.append((hyp.e2e_score + 0.5 * lm_score, hyp.tokens, lm_score))
            rescored.sort(key=lambda e: (-e[0], len(e[1]), e[1]))
            assert [h.tokens for h in fused.nbest] == [t for _, t, _ in rescored]
            for hyp, (comb, _, lm_score) in zip(fused.nbest, rescored):
                assert hyp.combined_score == comb
                assert hyp.lm_scores[0] == lm_score

    def test_final_lm_score_covers_unclosed_word(self, asr_tok, lm_tok, trigram, corpus_split):
        spec = LMSpec(trigram, lm_tok, 0.5)
        for _, em in utterances(asr_tok, corpus_split, 3, noise=0.4):
            result = decode(
                em,
                DecodeConfig(beam=5, policy=FusionPolicy.shortest(), lms=[spec]),
                asr_tok,
            )
            for hyp in result.nbest:
                lm_ids = (BOS_ID,) + tuple(lm_tok.encode(hyp.text)) + (EOS_ID,)
                assert hyp.lm_scores[0] == pytest.approx(
                    trigram.sequence_logprob(lm_ids), abs=1e-9
                )


class TestTwoLMs:
    def test_raw_scores_unweighted_combined_weighted(self, tiny):
        tok, model = tiny
        em = EmissionMatrix(random_emissions(np.random.default_rng(4), 4, tok.vocab.size))
        specs = [LMSpec(model, tok, 0.15), LMSpec(model, tok, 0.15)]
        result = decode(
            em, DecodeConfig(beam=None, policy=FusionPolicy.always(), lms=specs), tok
        )
        for hyp in result.nbest:
            lm_ids = (BOS_ID,) + tuple(tok.encode(hyp.text)) + (EOS_ID,)
            raw = model.sequence_logprob(lm_ids)
            assert hyp.lm_scores == pytest.approx((raw, raw), abs=1e-9)
            assert hyp.combined_score == pytest.approx(
                hyp.e2e_score + 0.3 * raw, abs=1e-9
            )

    def test_use_in_final_excludes_scorer_from_selection(self, tiny):
        tok, model = tiny
        em = EmissionMatrix(random_emissions(np.random.default_rng(5), 5, tok.vocab.size))

        def run(second_weight):
            specs = [
                LMSpec(model, tok, 0.4),
                LMSpec(model, tok, second_weight, use_in_final=False),
            ]
            cfg = DecodeConfig(beam=None, policy=FusionPolicy.always(), lms=specs)
            return decode(em, cfg, tok)

        small, large = run(0.05), run(0.9)
        assert small.best.tokens == large.best.tokens
        assert small.best.combined_score == pytest.approx(
            large.best.combined_score, abs=1e-9
        )


class TestStaleScores:
    def test_prune_consumes_last_fused_values(self, asr_tok, lm_tok, trigram, corpus_split):
        spec = LMSpec(trigram, lm_tok, 0.5)
        _, em = utterances(asr_tok, corpus_split, 1, noise=0.5)[0]
        for mode in MODES:
            cfg = DecodeConfig(
                beam=5,
                policy=FusionPolicy.fixed_interval(5),
                lms=[spec],
                mode=mode,
                keep_trace=True,
            )
            result = decode(em, cfg, asr_tok)
            assert result.trace
            assert any(step.fused for step in result.trace)
            # each step records the per-hypothesis (scored_len, cum) after any
            # fusion; a step that did not fuse may only carry inherited values,
            # i.e. pruning between fusion events consumed the stale scores
            seen = {(0, 0.0)}
            for step in result.trace:
                if not step.fused:
                    assert set(step.lm_state) <= seen
                seen.update(step.lm_state)

    def test_trace_disabled_by_default(self, asr_tok, corpus_split):
        _, em = utterances(asr_tok, corpus_split, 1, noise=0.3)[0]
        cfg = DecodeConfig(beam=4, policy=FusionPolicy.never(), lms=[])
        assert decode(em, cfg, asr_tok).trace is None


class TestDeterminism:
    def test_identical_runs(self, asr_tok, lm_tok, trigram, corpus_split):
        spec = LMSpec(trigram, lm_tok, 0.5)
        _, em = utterances(asr_tok, corpus_split, 1, noise=0.5)[0]
        cfg = DecodeConfig(beam=6, policy=FusionPolicy.shortest(), lms=[spec])
        first = decode(em, cfg, asr_tok)
        second = decode(em, cfg, asr_tok)
        assert [h.tokens for h in first.nbest] == [h.tokens for h in second.nbest]
        assert [h.combined_score for h in first.nbest] == [
            h.combined_score for h in second.nbest
        ]
        assert first.counters.lm_calls == second.counters.lm_calls


class TestCallBehaviour:
    def test_shortest_calls_bounded_by_shortest_length(
        self, asr_tok, lm_tok, trigram, corpus_split
    ):
        spec = LMSpec(trigram, lm_tok, 0.5)
        for _, em in utterances(asr_tok, corpus_split, 5, noise=0.5):
            cfg = DecodeConfig(beam=5, policy=FusionPolicy.shortest(), lms=[spec])
            result = decode(em, cfg, asr_tok)
            loop_calls = result.counters.lm_calls - result.counters.lm_calls_final
            shortest_final = min(len(lm_tok.encode(h.text)) + 1 for h in result.nbest)
            assert loop_calls <= shortest_final
            assert result.counters.lm_calls_final == 1

    def test_work_reduction_vs_shallow(self, asr_tok, asr_trigram, corpus_split):
        spec_kwargs = dict(scorer=asr_trigram, tokenizer=asr_tok, weight=0.5)
        totals = {}
        for kind in ("shallow", "shortest"):
            calls = tokens = hyps = 0
            for _, em in utterances(asr_tok, corpus_split, 2, noise=0.5):
                cfg = DecodeConfig(
                    beam=4, policy=FusionPolicy(kind), lms=[LMSpec(**spec_kwargs)]
                )
                result = decode(em, cfg, asr_tok)
                calls += result.counters.lm_calls
                tokens += result.counters.lm_tokens
                hyps += result.counters.lm_hypotheses
            totals[kind] = (calls, tokens, hyps)
        assert totals["shortest"][1] < totals["shallow"][1]
        assert totals["shortest"][2] < totals["shallow"][2]

    def test_latency_wrapper_orders_wall_time(self, asr_tok, asr_trigram, corpus_split):
        wrapped = wrap_with_latency(asr_trigram, 2.0, 0.01)
        walls = {}
        for kind in ("shallow", "shortest"):
            total = 0.0
            for _, em in utterances(asr_tok, corpus_split, 2, noise=0.5):
                cfg = DecodeConfig(
                    beam=4, policy=FusionPolicy(kind), lms=[LMSpec(wrapped, asr_tok, 0.5)]
                )
                total += decode(em, cfg, asr_tok).counters.wall_seconds
            walls[kind] = total
        assert walls["shortest"] < walls["shallow"]


class TestLabelSync:
    def test_clean_decode_recovers_reference(self, asr_tok, corpus_split):
        for line, em in utterances(asr_tok, corpus_split, 3, noise=0.0):
            cfg = DecodeConfig(beam=2, policy=FusionPolicy.never(), lms=[], mode="labelsync")
            result = decode(em, cfg, asr_tok)
            assert result.best.text == line

    def test_fusion_helps_at_moderate_noise(
        self, asr_tok, lm_tok, trigram, corpus_split
    ):
        spec = LMSpec(trigram, lm_tok, 0.5)
        plain_errs = fused_errs = words = 0
        for line, em in utterances(asr_tok, corpus_split, 6, noise=0.2, seed0=900):
            ref = line.split()
            words += len(ref)
            plain = decode(
                em,
                DecodeConfig(beam=4, policy=FusionPolicy.never(), lms=[], mode="labelsync"),
                asr_tok,
            )
            fused = decode(
                em,
                DecodeConfig(
                    beam=4, policy=FusionPolicy.shortest(), lms=[spec], mode="labelsync"
                ),
                asr_tok,
            )
            plain_errs += wer(ref, plain.best.text.split()).errors
            fused_errs += wer(ref, fused.best.text.split()).errors
        assert fused_errs <= plain_errs

    def test_ended_hypotheses_terminate_loop(self, asr_tok, corpus_split):
        line, em = utterances(asr_tok, corpus_split, 1, noise=0.0)[0]
        cfg = DecodeConfig(beam=2, policy=FusionPolicy.never(), lms=[], mode="labelsync")
        result = decode(em, cfg, asr_tok)
        # the loop must exit on the all-ended condition, well before the cap
        assert result.counters.steps < em.num_frames
        assert result.best.tokens[-1] == EOS_ID

    def test_max_label_steps_cap(self, asr_tok, corpus_split):
        _, em = utterances(asr_tok, corpus_split, 1, noise=0.4)[0]
        cfg = DecodeConfig(
            beam=3,
            policy=FusionPolicy.never(),
            lms=[],
            mode="labelsync",
            max_label_steps=2,
        )
        result = decode(em, cfg, asr_tok)
        assert result.counters.steps <= 2
        assert all(h.tokens[-1] == EOS_ID for h in result.nbest)

    def test_full_beam_matches_frame_sync_argmax(self, tiny):
        tok, model = tiny
        rng = np.random.default_rng(6)
        em = EmissionMatrix(random_emissions(rng, 5, tok.vocab.size))
        spec = LMSpec(model, tok, 0.5)
        frame = decode(
            em, DecodeConfig(beam=None, policy=FusionPolicy.never(), lms=[spec]), tok
        )
        label = decode(
            em,
            DecodeConfig(
                beam=None, policy=FusionPolicy.never(), lms=[spec], mode="labelsync"
            ),
            tok,
        )
        assert label.best.text == frame.best.text
        assert label.best.combined_score == pytest.approx(
            frame.best.combined_score, abs=1e-9
        )

    def test_shallow_label_sync_full_beam_matches_never(self, tiny):
        # with no pruning the pre-pruning scores cannot change the outcome
        tok, model = tiny
        rng = np.random.default_rng(8)
        em = EmissionMatrix(random_emissions(rng, 4, tok.vocab.size))
        spec = LMSpec(model, tok, 0.5)
        for mode in MODES:
            runs = {}
            for kind in ("never", "shallow"):
                cfg = DecodeConfig(beam=None, policy=FusionPolicy(kind), lms=[spec], mode=mode)
                runs[kind] = decode(em, cfg, tok)
            assert runs["shallow"].best.tokens == runs["never"].best.tokens
            assert runs["shallow"].best.combined_score == pytest.approx(
                runs["never"].best.combined_score, abs=1e-9
            )
            assert runs["shallow"].counters.lm_tokens > runs["never"].counters.lm_tokens

    def test_shallow_label_sync_builds_states_for_survivors_only(
        self, asr_tok, asr_trigram, corpus_split
    ):
        _, em = utterances(asr_tok, corpus_split, 1, noise=0.5)[0]
        scorer = _CountingScorer(CtcPrefixScorer(em, EOS_ID, disallowed=(BOS_ID, UNK_ID)))
        cfg = DecodeConfig(
            beam=4,
            policy=FusionPolicy.shallow(),
            lms=[LMSpec(asr_trigram, asr_tok, 0.5)],
            mode="labelsync",
        )
        result = decode(scorer, cfg, asr_tok)
        assert scorer.child_labels
        assert EOS_ID not in scorer.child_labels
        # every state built belongs to a live survivor, so exactly one later
        # request for next-token scores consumes it: the next step's
        # expansion, or the closing </s>
        assert len(scorer.child_labels) == len(scorer.scored_states) - 1
        assert set(scorer.built_states) == set(scorer.scored_states[1:])
        assert len(scorer.child_labels) <= cfg.beam * result.counters.steps
        assert result.counters.hyps_expanded > len(scorer.child_labels)

    def test_all_ended_beam_passes_through(self, asr_tok, corpus_split):
        line, em = utterances(asr_tok, corpus_split, 1, noise=0.0)[0]
        cfg = DecodeConfig(beam=3, policy=FusionPolicy.never(), lms=[], mode="labelsync")
        result = decode(em, cfg, asr_tok)
        assert all(h.tokens[-1] == EOS_ID for h in result.nbest)
        assert result.best.text == line


class _CountingScorer:
    """Prefix-scorer proxy that records which states are built and scored."""

    def __init__(self, inner):
        self.inner = inner
        self.T = inner.T
        self.child_labels = []
        self.built_states = []
        self.scored_states = []

    def root(self):
        return self.inner.root()

    def child(self, state, label):
        self.child_labels.append(label)
        out = self.inner.child(state, label)
        self.built_states.append(id(out))
        return out

    def candidate_scores(self, state):
        self.scored_states.append(id(state))
        return self.inner.candidate_scores(state)


class TestValidation:
    def test_vocab_size_mismatch(self, asr_tok):
        em = EmissionMatrix(random_emissions(np.random.default_rng(7), 3, 8))
        cfg = DecodeConfig(beam=2, policy=FusionPolicy.never(), lms=[])
        with pytest.raises(DecodeError, match="vocabulary"):
            decode(em, cfg, asr_tok)

    def test_frame_mode_requires_emissions(self, asr_tok):
        cfg = DecodeConfig(beam=2, policy=FusionPolicy.never(), lms=[])
        with pytest.raises(DecodeError):
            decode(object(), cfg, asr_tok)

    def test_beam_validation(self):
        with pytest.raises(DecodeError):
            DecodeConfig(beam=0, policy=FusionPolicy.never(), lms=[])

    @pytest.mark.parametrize(
        "field, value",
        [
            ("beam", 2.5),
            ("beam", True),
            ("beam", "3"),
            ("nbest", 0),
            ("nbest", 1.0),
            ("max_label_steps", 2.5),
            ("max_label_steps", 0),
            ("max_label_steps", False),
        ],
    )
    def test_counts_must_be_positive_ints(self, field, value):
        kwargs = dict(beam=2, policy=FusionPolicy.never(), lms=[])
        kwargs[field] = value
        with pytest.raises(DecodeError, match=field):
            DecodeConfig(**kwargs)

    def test_mode_validation(self):
        with pytest.raises(DecodeError):
            DecodeConfig(beam=2, policy=FusionPolicy.never(), lms=[], mode="nope")

    def test_weight_validation(self, tiny):
        tok, model = tiny
        with pytest.raises(DecodeError):
            DecodeConfig(
                beam=2,
                policy=FusionPolicy.never(),
                lms=[LMSpec(model, tok, float("nan"))],
            )
