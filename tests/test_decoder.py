import dataclasses
import math

import numpy as np
import pytest

from beamfuse.acoustic import NEG_INF, CtcPrefixScorer, EmissionMatrix, lse2, synth_emissions
from hypothesis import given, settings
from hypothesis import strategies as st

from beamfuse.decoder import (
    DecodeConfig,
    DecodeCounters,
    DecodeError,
    FrameCandidates,
    FusionPolicy,
    Hypothesis,
    LMSpec,
    LMView,
    _FrameStep,
    _LabelStep,
    _PolicyState,
    _shallow_scores,
    advance_views,
    apply_lm_scores,
    decode,
    extend_frame,
    fusable,
    make_root_hypothesis,
    prune_frame_candidates,
)
from beamfuse.harness import emulated_lm_seconds, wer
from beamfuse.lm import PrefixCacheEntry, train_ngram
from beamfuse.tokenization import (
    BOS_ID,
    EOS_ID,
    NUM_SPECIALS,
    UNK_ID,
    Tokenizer,
    tokenizable_prefix_len,
)

from conftest import (
    CountingScorer,
    make_vocab,
    random_emissions,
    reference_frame_candidates,
    reference_frame_step,
    reference_label_entries,
    reference_label_step,
    reference_shallow_step,
)

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


def _lm_counts(counters: DecodeCounters) -> tuple[int, int, int]:
    return (counters.lm_calls, counters.lm_hypotheses, counters.lm_tokens)


class TestGreedyCleanDecode:
    def test_recovers_reference(self, asr_tok, corpus_split):
        for line, em in utterances(asr_tok, corpus_split, 5, noise=0.0):
            cfg = DecodeConfig(beam=1, policy=FusionPolicy("never"), lms=[], mode="ctc")
            result = decode(em, cfg, asr_tok)
            assert result.best.text == line


def _extend(beam, frame, real_ids):
    real_ids = list(real_ids)
    return extend_frame(beam, frame, np.asarray(real_ids), {c: j for j, c in enumerate(real_ids)})


def _by_tokens(cands: FrameCandidates) -> dict:
    return {cands.tokens(j): cands.hypothesis(j) for j in np.flatnonzero(cands.valid).tolist()}


class TestExtend:
    def test_candidate_count(self, tiny):
        tok, _ = tiny
        em = EmissionMatrix(random_emissions(np.random.default_rng(0), 1, tok.vocab.size))
        beam = [make_root_hypothesis([], "ctc")]
        cands = _extend(beam, em.log_probs[0], tok.vocab.real_ids())
        assert len(cands) == 4  # stay + one extension per ordinary token

    def test_duplicate_prefixes_merged(self, tiny):
        tok, _ = tiny
        rng = np.random.default_rng(1)
        em = EmissionMatrix(random_emissions(rng, 1, tok.vocab.size))
        a = tok.vocab.token_id("▁a")
        root = make_root_hypothesis([], "ctc")
        grown = Hypothesis((BOS_ID, a), log_blank=-1.0, log_nonblank=-2.0)
        cands = _extend([root, grown], em.log_probs[0], tok.vocab.real_ids())
        # raw expansion is 2 * 4 = 8; (bos, a) appears as both stay and extension
        assert len(cands) == 7
        merged = _by_tokens(cands)[(BOS_ID, a)]
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
    def _cands(self, entries):
        """Stay-only candidates: (tokens, log_blank, log_nonblank) each, no LM views."""
        beam = [Hypothesis(tokens) for tokens, _, _ in entries]
        n = len(beam)
        return FrameCandidates(
            beam,
            np.array([], dtype=int),
            [b for _, b, _ in entries],
            [nb for _, _, nb in entries],
            [[] for _ in beam],
            np.empty((n, 0)),
            [None] * n,
            np.ones(n, dtype=bool),
        )

    def test_no_pruning_when_beam_large(self):
        cands = self._cands([((BOS_ID, i), NEG_INF, -float(i)) for i in range(4, 10)])
        kept = prune_frame_candidates(cands, 100, [])
        assert len(kept) == 6

    def test_tie_prefers_shorter_then_lexicographic(self):
        cands = self._cands(
            [
                ((BOS_ID, 5, 6), NEG_INF, -1.0),
                ((BOS_ID, 5), NEG_INF, -1.0),
                ((BOS_ID, 4, 7), NEG_INF, -1.0),
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
            cands[tokens] = (float(rng.normal()), float(rng.normal()))
        kept = prune_frame_candidates(
            self._cands([(tokens, b, nb) for tokens, (b, nb) in cands.items()]), 10, []
        )
        def combined(rec):
            return math.log(math.exp(rec[0]) + math.exp(rec[1]))
        expected = sorted(
            cands.items(), key=lambda kv: (-combined(kv[1]), len(kv[0]), kv[0])
        )[:10]
        assert [h.tokens for h in kept] == [k for k, _ in expected]


def _random_views(rng, n_lms):
    """Fresh cache objects, with keys drawn from a small range so they tie and differ."""
    return [
        LMView(
            int(rng.integers(0, 2)),
            (),
            PrefixCacheEntry(int(rng.integers(0, 2)), float(rng.choice([-1.0, -2.0, -3.5])), ()),
        )
        for _ in range(n_lms)
    ]


def _random_beam(rng, vocab_size, size, n_lms, extend_share=0.5, neg_inf_share=0.0):
    """Distinct prefixes; about ``extend_share`` of them extend another entry by one token."""
    real = range(NUM_SPECIALS, vocab_size)
    seen: dict = {}
    while len(seen) < size:
        if seen and rng.random() < extend_share:
            base = list(seen)[int(rng.integers(len(seen)))]
        else:
            base = (BOS_ID,) + tuple(int(c) for c in rng.choice(real, size=int(rng.integers(0, 3))))
        tokens = base + (int(rng.choice(real)),) if base in seen else base
        seen.setdefault(tokens, None)
    beam = []
    for tokens in seen:
        # few distinct score levels, so combined scores tie exactly
        pb, pnb = (float(x) for x in rng.choice([-1.0, -2.0, -4.0], size=2))
        if rng.random() < neg_inf_share:
            pnb = NEG_INF
            if rng.random() < 0.5:
                pb = NEG_INF
        beam.append(Hypothesis(tokens, pb, pnb, views=_random_views(rng, n_lms)))
    return beam


def _tied_frame(rng, vocab_size):
    """A normalized row whose ordinary tokens share a few exactly equal values."""
    logits = rng.choice([0.0, 1.0, 2.5], size=vocab_size)
    return logits - np.log(np.exp(logits).sum())


def _bits(x: float) -> str:
    return float(x).hex()


def assert_same_step(beam, frame, real_ids, beam_size, weights):
    """The array step and the reference keep the same survivors, bit for bit."""
    real_ids = list(real_ids)
    cands = _extend(beam, frame, real_ids)
    assert len(cands) == len(reference_frame_candidates(beam, frame, real_ids))
    got = prune_frame_candidates(cands, beam_size, weights)
    want = reference_frame_step(beam, frame, real_ids, beam_size, weights)
    assert [h.tokens for h in got] == [h.tokens for h in want]
    for g, w in zip(got, want):
        assert _bits(g.log_blank) == _bits(w.log_blank)
        assert _bits(g.log_nonblank) == _bits(w.log_nonblank)
        assert [(v.consumed, v.lm_tokens) for v in g.views] == [
            (v.consumed, v.lm_tokens) for v in w.views
        ]
        assert len(g.views) == len(w.views)
        assert all(a.cache is b.cache for a, b in zip(g.views, w.views))
    return cands


class TestFrameStepMatchesReference:
    VOCAB = 9

    def test_merges(self):
        rng = np.random.default_rng(10)
        merged = 0
        for seed in range(30):
            beam = _random_beam(rng, self.VOCAB, 12, 1, extend_share=0.8)
            frame = random_emissions(rng, 1, self.VOCAB)[0]
            cands = assert_same_step(beam, frame, range(NUM_SPECIALS, self.VOCAB), 6, [0.5])
            merged += cands.valid.size - len(cands)
        assert merged > 30

    def test_ties_at_the_cut(self):
        rng = np.random.default_rng(11)
        ties = 0
        for _ in range(40):
            beam = _random_beam(rng, self.VOCAB, 8, 0)
            frame = _tied_frame(rng, self.VOCAB)
            real_ids = range(NUM_SPECIALS, self.VOCAB)
            for k in (3, 7, 12):
                assert_same_step(beam, frame, real_ids, k, [])
                scores = sorted(
                    lse2(rec.log_blank, rec.log_nonblank)
                    for rec in reference_frame_candidates(beam, frame, real_ids).values()
                )[::-1]
                ties += scores[k - 1] == scores[k]
        assert ties > 20

    def test_neg_inf_stay_scores(self):
        rng = np.random.default_rng(12)
        for _ in range(30):
            beam = _random_beam(rng, self.VOCAB, 10, 1, neg_inf_share=0.6)
            frame = _tied_frame(rng, self.VOCAB)
            assert_same_step(beam, frame, range(NUM_SPECIALS, self.VOCAB), 5, [0.3])
            # a beam that keeps everything also keeps the -inf candidates
            assert_same_step(beam, frame, range(NUM_SPECIALS, self.VOCAB), None, [0.3])

    def test_beam_one_and_beam_covering_all_candidates(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            beam = _random_beam(rng, self.VOCAB, 6, 1)
            frame = random_emissions(rng, 1, self.VOCAB)[0]
            real_ids = range(NUM_SPECIALS, self.VOCAB)
            count = len(reference_frame_candidates(beam, frame, real_ids))
            for k in (1, count - 1, count, count + 5, None):
                assert_same_step(beam, frame, real_ids, k, [0.7])

    @pytest.mark.parametrize("n_lms", [0, 1, 2])
    def test_lm_views_with_different_keys(self, n_lms):
        rng = np.random.default_rng(14 + n_lms)
        weights = [0.5, -0.25][:n_lms]
        for _ in range(30):
            beam = _random_beam(rng, self.VOCAB, 10, n_lms, extend_share=0.7)
            frame = _tied_frame(rng, self.VOCAB)
            assert_same_step(beam, frame, range(NUM_SPECIALS, self.VOCAB), 7, weights)


_scores = st.sampled_from([0.0, -1.0, -2.5, float("-inf")]) | st.floats(-40.0, 0.0)


@st.composite
def _frame_steps(draw):
    real = draw(st.integers(1, 4))
    vocab_size = NUM_SPECIALS + real
    prefixes = draw(
        st.lists(
            st.lists(st.integers(NUM_SPECIALS, vocab_size - 1), max_size=3).map(tuple),
            min_size=1,
            max_size=8,
            unique=True,
        )
    )
    n_lms = draw(st.integers(0, 2))
    beam = []
    for prefix in prefixes:
        views = [
            LMView(
                draw(st.integers(0, 2)),
                (),
                PrefixCacheEntry(draw(st.integers(0, 2)), draw(st.floats(-20.0, 0.0)), ()),
            )
            for _ in range(n_lms)
        ]
        beam.append(Hypothesis((BOS_ID,) + prefix, draw(_scores), draw(_scores), views=views))
    logits = np.array(draw(st.lists(st.floats(-5.0, 5.0), min_size=vocab_size, max_size=vocab_size)))
    m = logits.max()
    frame = logits - (m + np.log(np.exp(logits - m).sum()))
    weights = draw(st.lists(st.floats(-2.0, 2.0), min_size=n_lms, max_size=n_lms))
    beam_size = draw(st.none() | st.integers(1, len(beam) * (1 + real) + 2))
    return beam, frame, range(NUM_SPECIALS, vocab_size), beam_size, weights


class TestFrameStepProperty:
    @settings(max_examples=300, deadline=None)
    @given(_frame_steps())
    def test_array_step_equals_reference(self, case):
        assert_same_step(*case)


def _label_setup(rng, frames, n_pieces, tie=False):
    """A tokenizer and a counting scorer; ``tie`` copies one token's emission column."""
    tok = Tokenizer(make_vocab(*(f"▁p{i}" for i in range(n_pieces))))
    logits = rng.normal(size=(frames, tok.vocab.size))
    if tie:
        # two ordinary tokens with identical emissions score identically
        logits[:, NUM_SPECIALS + 1] = logits[:, NUM_SPECIALS]
    m = logits.max(axis=1, keepdims=True)
    rows = logits - (m + np.log(np.exp(logits - m).sum(axis=1, keepdims=True)))
    em = EmissionMatrix(rows)
    scorer = _CountingScorer(CtcPrefixScorer(em, EOS_ID, disallowed=(BOS_ID, UNK_ID)))
    return tok, scorer


def _label_beams(rng, tok, scorer, n_lms, steps, width=8):
    """Beams reached by the reference step, with fresh LM caches of a few tying values."""
    ids = list(tok.vocab.real_ids()) + [EOS_ID]
    root = Hypothesis((BOS_ID,), e2e=0.0, state=scorer.root())
    root.views = _random_views(rng, n_lms)
    beam = [root]
    for _ in range(steps):
        yield beam
        pairs = reference_label_step(scorer, beam, ids, None, [0.5, -0.25][:n_lms])
        if not pairs:
            return
        pick = sorted(rng.choice(len(pairs), size=min(width, len(pairs)), replace=False))
        beam = []
        for j in pick:
            hyp = pairs[int(j)][0]
            if not hyp.ended:
                hyp.views = _random_views(rng, n_lms)
            beam.append(hyp)


def assert_same_label_step(tok, scorer, beam, beam_size, weights):
    """The array label step and the reference keep the same survivors, bit for bit."""
    lms = [LMSpec(None, tok, w) for w in weights]
    cfg = DecodeConfig(beam=beam_size, policy=FusionPolicy("never"), lms=lms, mode="labelsync")
    step = _LabelStep(scorer, cfg, tok)
    ids = step.candidate_ids

    cands = step.expand(beam, 1)
    entries = reference_label_entries(scorer, beam, ids, weights)
    assert len(cands) == len(entries)
    # every candidate, as the shallow path materializes it, matches one entry
    want_entries = {tokens: (score, p, s) for score, tokens, (p, s) in entries}
    got_entries = {}
    for j in np.flatnonzero(cands.valid).tolist():
        hyp, parent = cands.candidate(j)
        assert hyp.tokens == cands.tokens(j)
        got_entries[hyp.tokens] = (cands.scores[j], hyp, parent)
    assert got_entries.keys() == want_entries.keys()
    for tokens, (score, hyp, parent) in got_entries.items():
        want_score, want_parent, s = want_entries[tokens]
        assert _bits(score) == _bits(want_score)
        if s is None:
            assert hyp is want_parent and parent is None
        else:
            assert parent is want_parent and _bits(hyp.e2e) == _bits(want_parent.e2e + s)

    def children():
        # (parent state, label) of each child built since the last call
        out = list(zip(scorer.parent_states, scorer.child_labels))
        scorer.parent_states.clear()
        scorer.child_labels.clear()
        return out

    children()
    got = step.prune(cands, None)
    got_children = children()
    want = reference_label_step(scorer, beam, ids, beam_size, weights)
    assert children() == got_children
    assert [h.tokens for h in got] == [h.tokens for h, _ in want]
    for g, (w, parent) in zip(got, want):
        if parent is None:
            assert g is w
            continue
        assert _bits(g.e2e) == _bits(w.e2e)
        assert type(g.e2e) is type(w.e2e)
        assert g.ended == w.ended
        assert (g.state is None) == (w.state is None)
        assert len(g.views) == len(w.views)
        assert all(a.cache is b.cache for a, b in zip(g.views, w.views))
        assert all(a.cache is b.cache for a, b in zip(g.views, parent.views))
    return cands


class TestLabelStepMatchesReference:
    PIECES = 5

    @pytest.mark.parametrize("n_lms", [0, 1, 2])
    def test_random_beams(self, n_lms):
        rng = np.random.default_rng(30 + n_lms)
        weights = [0.5, -0.25][:n_lms]
        ended = 0
        for _ in range(6):
            tok, scorer = _label_setup(rng, int(rng.integers(3, 9)), self.PIECES)
            for beam in _label_beams(rng, tok, scorer, n_lms, steps=6):
                ended += sum(h.ended for h in beam)
                assert_same_label_step(tok, scorer, beam, 5, weights)
        assert ended > 10

    def test_ties_at_the_cut(self):
        rng = np.random.default_rng(33)
        ties = 0
        for _ in range(10):
            tok, scorer = _label_setup(rng, 6, self.PIECES, tie=True)
            ids = list(tok.vocab.real_ids()) + [EOS_ID]
            for beam in _label_beams(rng, tok, scorer, 1, steps=4):
                entries = reference_label_entries(scorer, beam, ids, [0.5])
                scores = sorted((e[0] for e in entries), reverse=True)
                for k in (1, 3, 6):
                    assert_same_label_step(tok, scorer, beam, k, [0.5])
                    ties += k < len(scores) and scores[k - 1] == scores[k]
        assert ties > 10

    def test_neg_inf_candidates(self):
        rng = np.random.default_rng(34)
        masked = 0
        for _ in range(10):
            # few frames: deep prefixes and repeats run out of paths
            tok, scorer = _label_setup(rng, 3, self.PIECES)
            for beam in _label_beams(rng, tok, scorer, 1, steps=5):
                cands = assert_same_label_step(tok, scorer, beam, 4, [0.5])
                masked += cands.valid.size - len(cands)
                assert_same_label_step(tok, scorer, beam, None, [0.5])
        assert masked > 20

    def test_beam_one_none_and_covering_all_candidates(self):
        rng = np.random.default_rng(35)
        for _ in range(6):
            tok, scorer = _label_setup(rng, 7, self.PIECES)
            ids = list(tok.vocab.real_ids()) + [EOS_ID]
            for beam in _label_beams(rng, tok, scorer, 2, steps=4):
                count = len(reference_label_entries(scorer, beam, ids, [0.5, -0.25]))
                for k in (1, max(1, count - 1), count, count + 5, None):
                    assert_same_label_step(tok, scorer, beam, k, [0.5, -0.25])


@pytest.fixture(scope="module")
def shallow_world():
    """An ASR tokenizer and its LM sets: matched, cross-vocabulary, and both.

    Neither LM has seen ``x`` or ``y``, so extensions by ``▁x`` and ``▁y``
    score alike and tie wherever their emissions do.
    """
    tok = Tokenizer(make_vocab("▁a", "▁b", "c", "▁x", "▁y"))
    cross_tok = Tokenizer(make_vocab("▁a", "▁b", "▁c", "a", "b", "c", "▁ac"))
    corpus = ["a b", "ac b a", "b ac", "a", "b a", "c"] * 3
    matched = train_ngram([tok.encode(s) for s in corpus], tok.vocab, 2, 0.4)
    cross = train_ngram([cross_tok.encode(s) for s in corpus], cross_tok.vocab, 2, 0.4)
    matched_spec, cross_spec = LMSpec(matched, tok, 0.5), LMSpec(cross, cross_tok, -0.25)
    return tok, {
        "matched": [matched_spec],
        "cross": [cross_spec],
        "both": [matched_spec, cross_spec],
    }


def _shallow_views(hyp, tok, lms):
    """Views as a shallow search leaves them: advanced over ``hyp``, caches fresh."""
    k = tokenizable_prefix_len(hyp.tokens, tok.vocab)
    text = tok.decode(hyp.tokens[1 : 1 + k])
    return [
        LMView(k, tuple(spec.tokenizer.encode(text)), spec.scorer.fresh_cache()) for spec in lms
    ]


def assert_same_shallow_step(mode, source, beam, tok, lms, beam_size):
    """One shallow step of the search loop equals the from-scratch reference, bit for bit."""
    lms = [dataclasses.replace(spec, scorer=CountingScorer(spec.scorer)) for spec in lms]
    for hyp in beam:
        hyp.views = _shallow_views(hyp, tok, lms)
    cfg = DecodeConfig(beam=beam_size, policy=FusionPolicy("shallow"), lms=lms, mode=mode)
    if mode == "ctc":
        step = _FrameStep(EmissionMatrix(source[None, :]), cfg, tok)
    else:
        step = _LabelStep(source, cfg, tok)
    want, want_deltas = reference_shallow_step(mode, source, beam, tok, lms, beam_size)

    counters = DecodeCounters()
    cands = step.expand(beam, 1)
    got = step.prune(cands, _shallow_scores(cands, lms, tok, counters))
    for hyp in got:
        advance_views(hyp, tok, lms)
    deltas = [spec.scorer.counts() for spec in lms]

    assert deltas == want_deltas
    assert _lm_counts(counters) == tuple(map(sum, zip(*deltas)))
    assert_requests_retokenize(cands, lms, tok)
    assert [h.tokens for h in got] == [h.tokens for h in want]
    for g, w in zip(got, want):
        assert _bits(g.log_blank) == _bits(w.log_blank)
        assert _bits(g.log_nonblank) == _bits(w.log_nonblank)
        assert _bits(g.e2e) == _bits(w.e2e)
        assert g.ended == w.ended
        assert [(v.consumed, v.lm_tokens) for v in g.views] == [
            (v.consumed, v.lm_tokens) for v in w.views
        ]
        assert all(a.cache is b.cache for a, b in zip(g.views, w.views))
    return cands


def assert_requests_retokenize(cands, lms, tok) -> int:
    """Each LM's last requests are its views plus ``encode(decode(tail))``, in candidate order.

    That equals re-tokenizing the candidate's whole content, because views
    end at a word boundary.  Returns the most words any tail held.
    """
    kept = np.flatnonzero(cands.valid).tolist()
    most = 0
    for i, spec in enumerate(lms):
        requests = spec.scorer.last_requests
        assert len(requests) == len(kept)
        for j, req in zip(kept, requests):
            view = cands.views(j)[i]
            tail = tok.decode(cands.tokens(j)[1 + view.consumed :])
            assert req.cache is view.cache
            assert req.tokens == view.lm_tokens + tuple(spec.tokenizer.encode(tail))
            assert req.tokens == tuple(spec.tokenizer.encode(tok.decode(cands.tokens(j))))
            most = max(most, len(tail.split()))
    return most


def _shallow_ties(mode, source, beam, tok, lms) -> list[int]:
    """Cuts ``k`` at which the full shallow scores of the k-th and (k+1)-th candidates tie."""
    for hyp in beam:
        hyp.views = _shallow_views(hyp, tok, lms)
    ranked, _ = reference_shallow_step(mode, source, beam, tok, lms, None)
    scores = [
        (lse2(h.log_blank, h.log_nonblank) if mode == "ctc" else h.e2e)
        + sum(
            spec.weight
            * spec.scorer.sequence_logprob((BOS_ID, *spec.tokenizer.encode(tok.decode(h.tokens))))
            for spec in lms
        )
        for h in ranked
    ]
    return [k for k in range(1, len(scores)) if scores[k - 1] == scores[k] > NEG_INF]


class TestShallowStepMatchesReference:
    """The shallow score term on the shared cut equals scoring every candidate from scratch."""

    LM_SETS = ("matched", "cross", "both")

    @pytest.mark.parametrize("lm_set", LM_SETS)
    def test_frame_step(self, shallow_world, lm_set):
        tok, lm_sets = shallow_world
        lms = lm_sets[lm_set]
        rng = np.random.default_rng(40)
        ties = merged = 0
        for _ in range(15):
            beam = _random_beam(rng, tok.vocab.size, 6, 0, extend_share=0.7, neg_inf_share=0.3)
            frame = _tied_frame(rng, tok.vocab.size)
            count = len(reference_frame_candidates(beam, frame, tok.vocab.real_ids()))
            tied = _shallow_ties("ctc", frame, beam, tok, lms)
            ties += len(tied)
            for k in (1, 3, count, count + 4, None, *tied):
                cands = assert_same_shallow_step("ctc", frame, beam, tok, lms, k)
            merged += cands.valid.size - len(cands)
        assert merged > 10
        assert ties > 10

    @pytest.mark.parametrize("lm_set", LM_SETS)
    def test_label_step(self, shallow_world, lm_set):
        tok, lm_sets = shallow_world
        lms = lm_sets[lm_set]
        rng = np.random.default_rng(41)
        ids = list(tok.vocab.real_ids()) + [EOS_ID]
        x, y = tok.vocab.token_id("▁x"), tok.vocab.token_id("▁y")
        ended = masked = ties = 0
        for frames in (2, 3, 5, 7):
            rows = random_emissions(rng, frames, tok.vocab.size)
            rows[:, y] = rows[:, x]
            rows -= np.logaddexp.reduce(rows, axis=1, keepdims=True)
            scorer = CtcPrefixScorer(EmissionMatrix(rows), EOS_ID, disallowed=(BOS_ID, UNK_ID))
            for beam in _label_beams(rng, tok, scorer, 0, steps=5):
                ended += sum(h.ended for h in beam)
                count = len(reference_label_entries(scorer, beam, ids, []))
                tied = _shallow_ties("labelsync", scorer, beam, tok, lms)
                ties += len(tied)
                for k in (1, 3, count, count + 4, None, *tied):
                    cands = assert_same_shallow_step("labelsync", scorer, beam, tok, lms, k)
                masked += cands.valid.size - len(cands)
        assert ended > 5
        assert masked > 5
        assert ties > 10


class TestShallowRequests:
    @pytest.mark.parametrize("lm_set", TestShallowStepMatchesReference.LM_SETS)
    def test_multi_word_tails(self, shallow_world, lm_set):
        # views that lag several words behind leave multi-word tails to re-tokenize
        tok, lm_sets = shallow_world
        lms = [dataclasses.replace(s, scorer=CountingScorer(s.scorer)) for s in lm_sets[lm_set]]
        cfg = DecodeConfig(beam=4, policy=FusionPolicy("shallow"), lms=lms)
        real = list(tok.vocab.real_ids())
        rng = np.random.default_rng(43)
        most = 0
        for _ in range(20):
            prefixes = {
                (BOS_ID, *(int(c) for c in rng.choice(real, size=int(rng.integers(0, 10)))))
                for _ in range(5)
            }
            beam = []
            for tokens in sorted(prefixes):
                cut = 1 + int(rng.integers(0, len(tokens)))
                k = tokenizable_prefix_len(tokens[:cut], tok.vocab)
                text = tok.decode(tokens[1 : 1 + k])
                views = [
                    LMView(k, tuple(spec.tokenizer.encode(text)), spec.scorer.fresh_cache())
                    for spec in lms
                ]
                beam.append(Hypothesis(tokens, -1.0, -2.0, views=views))
            step = _FrameStep(EmissionMatrix(random_emissions(rng, 1, tok.vocab.size)), cfg, tok)
            cands = step.expand(beam, 1)
            _shallow_scores(cands, lms, tok, DecodeCounters())
            most = max(most, assert_requests_retokenize(cands, lms, tok))
        assert most >= 4


def _view_hyp(scored_len, lm_len, cum=-1.0):
    view = LMView(0, tuple(range(100, 100 + lm_len)), PrefixCacheEntry(scored_len, cum, ()))
    return Hypothesis((BOS_ID,), views=[view])


class TestFusable:
    def test_never_and_shallow(self):
        beam = [_view_hyp(0, 3)]
        assert not fusable(FusionPolicy("never"), beam, 5, _PolicyState())
        assert not fusable(FusionPolicy("shallow"), beam, 5, _PolicyState())

    def test_always(self):
        assert fusable(FusionPolicy("always"), [_view_hyp(0, 0)], 1, _PolicyState())

    def test_fixed_interval_grid(self):
        policy = FusionPolicy("interval", 4)
        state = _PolicyState()
        beam = [_view_hyp(scored_len=0, lm_len=2)]  # always has unscored words
        fired = [t for t in range(1, 17) if fusable(policy, beam, t, state)]
        assert fired == [4, 8, 12, 16]

    def test_fixed_interval_requires_change(self):
        policy = FusionPolicy("interval", 4)
        beam = [_view_hyp(scored_len=2, lm_len=2)]  # fully scored
        assert not fusable(policy, beam, 4, _PolicyState())

    def test_shortest_fires_on_growth_only(self):
        policy = FusionPolicy("shortest")
        state = _PolicyState()
        lengths = [0, 0, 1, 1, 2, 2, 2, 4]
        fired = [
            fusable(policy, [_view_hyp(0, n)], t, state)
            for t, n in enumerate(lengths, start=1)
        ]
        assert fired == [False, False, True, False, True, False, False, True]

    def test_interval_validation(self):
        with pytest.raises(DecodeError):
            FusionPolicy("interval", 0)
        with pytest.raises(DecodeError):
            FusionPolicy("bogus")
        for bad in ("3", 2.5, True, False, -1, None):
            with pytest.raises(DecodeError, match="interval policy needs interval >= 1"):
                FusionPolicy("interval", bad)
        assert FusionPolicy("interval", 3).interval == 3


class TestApplyLmScores:
    def test_nothing_new_scores_no_tokens(self, tiny):
        tok, model = tiny
        spec = LMSpec(model, tok, 0.5)
        hyp = make_root_hypothesis([spec], "ctc")
        counters = DecodeCounters()
        apply_lm_scores([hyp], [spec], counters)
        assert _lm_counts(counters) == (1, 0, 0)  # one call, zero hypotheses and tokens

    def test_scores_cover_current_words(self, tiny):
        tok, model = tiny
        spec = LMSpec(model, tok, 0.5)
        a, b = tok.vocab.token_id("▁a"), tok.vocab.token_id("▁b")
        hyp = Hypothesis(
            (BOS_ID, a, b), views=[LMView(1, (a,), model.fresh_cache())]
        )
        counters = DecodeCounters()
        apply_lm_scores([hyp], [spec], counters)
        assert _lm_counts(counters) == (1, 1, 1)
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
                beam=None, policy=FusionPolicy("always"), lms=[LMSpec(model, tok, 0.5)],
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
                DecodeConfig(beam=5, policy=FusionPolicy("never"), lms=[spec]),
                asr_tok,
            )
            plain = decode(
                em, DecodeConfig(beam=5, policy=FusionPolicy("never"), lms=[]), asr_tok
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
                DecodeConfig(beam=5, policy=FusionPolicy("shortest"), lms=[spec]),
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
            em, DecodeConfig(beam=None, policy=FusionPolicy("always"), lms=specs), tok
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
            cfg = DecodeConfig(beam=None, policy=FusionPolicy("always"), lms=specs)
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
                policy=FusionPolicy("interval", 5),
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
        cfg = DecodeConfig(beam=4, policy=FusionPolicy("never"), lms=[])
        assert decode(em, cfg, asr_tok).trace is None


class TestDeterminism:
    def test_identical_runs(self, asr_tok, lm_tok, trigram, corpus_split):
        spec = LMSpec(trigram, lm_tok, 0.5)
        _, em = utterances(asr_tok, corpus_split, 1, noise=0.5)[0]
        cfg = DecodeConfig(beam=6, policy=FusionPolicy("shortest"), lms=[spec])
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
            cfg = DecodeConfig(beam=5, policy=FusionPolicy("shortest"), lms=[spec])
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
        # compute plus a remote LM's latency (2 ms per call, 0.01 ms per token)
        walls = {}
        for kind in ("shallow", "shortest"):
            total = 0.0
            for _, em in utterances(asr_tok, corpus_split, 2, noise=0.5):
                cfg = DecodeConfig(
                    beam=4, policy=FusionPolicy(kind), lms=[LMSpec(asr_trigram, asr_tok, 0.5)]
                )
                c = decode(em, cfg, asr_tok).counters
                total += c.wall_seconds + emulated_lm_seconds(c.lm_calls, c.lm_tokens, 2.0, 0.01)
            walls[kind] = total
        assert walls["shortest"] < walls["shallow"]


class TestDecoderCounters:
    """The decoder's LM counters equal what a counting double sees at the scorer boundary."""

    POLICIES = (
        FusionPolicy("always"),
        FusionPolicy("never"),
        FusionPolicy("shortest"),
        FusionPolicy("interval", 3),
        FusionPolicy("shallow"),
    )

    @staticmethod
    def _lm_sets(asr_tok, lm_tok, trigram, asr_trigram):
        return {
            "matched": [(asr_trigram, asr_tok, 0.5)],
            "cross": [(trigram, lm_tok, 0.5)],
            "both": [(trigram, lm_tok, 0.5), (asr_trigram, asr_tok, 0.3)],
        }

    @pytest.mark.parametrize("mode", MODES)
    def test_counts_equal_scorer_boundary(
        self, mode, asr_tok, lm_tok, trigram, asr_trigram, corpus_split
    ):
        lm_sets = self._lm_sets(asr_tok, lm_tok, trigram, asr_trigram)
        utts = utterances(asr_tok, corpus_split, 2, noise=0.5, seed0=1300)
        for policy in self.POLICIES:
            for name, specs in lm_sets.items():
                for _, em in utts:
                    lms = [LMSpec(CountingScorer(m), tok, w) for m, tok, w in specs]
                    cfg = DecodeConfig(beam=4, policy=policy, lms=lms, mode=mode)
                    counters = decode(em, cfg, asr_tok).counters
                    seen = [spec.scorer.counts() for spec in lms]
                    assert _lm_counts(counters) == tuple(map(sum, zip(*seen))), (
                        policy,
                        name,
                    )
                    assert counters.lm_calls_final == len(lms)
                    assert counters.lm_tokens > 0

    @pytest.mark.parametrize("kind", ["shortest", "shallow"])
    def test_nested_decode_on_shared_scorer(self, kind, asr_tok, asr_trigram, corpus_split):
        _, em = utterances(asr_tok, corpus_split, 1, noise=0.5)[0]

        def config(scorer):
            return DecodeConfig(
                beam=4, policy=FusionPolicy(kind), lms=[LMSpec(scorer, asr_tok, 0.5)]
            )

        alone = decode(em, config(CountingScorer(asr_trigram)), asr_tok).counters
        inner = []
        shared = CountingScorer(asr_trigram)
        # the first call on the shared scorer runs a whole second decode on it
        shared.on_call = lambda n: n == 1 and inner.append(decode(em, config(shared), asr_tok))
        outer = decode(em, config(shared), asr_tok).counters

        assert len(inner) == 1
        assert _lm_counts(outer) == _lm_counts(alone)
        assert _lm_counts(inner[0].counters) == _lm_counts(alone)
        assert shared.counts() == tuple(2 * n for n in _lm_counts(alone))


class TestLabelSync:
    def test_clean_decode_recovers_reference(self, asr_tok, corpus_split):
        for line, em in utterances(asr_tok, corpus_split, 3, noise=0.0):
            cfg = DecodeConfig(beam=2, policy=FusionPolicy("never"), lms=[], mode="labelsync")
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
                DecodeConfig(beam=4, policy=FusionPolicy("never"), lms=[], mode="labelsync"),
                asr_tok,
            )
            fused = decode(
                em,
                DecodeConfig(
                    beam=4, policy=FusionPolicy("shortest"), lms=[spec], mode="labelsync"
                ),
                asr_tok,
            )
            plain_errs += wer(ref, plain.best.text.split()).errors
            fused_errs += wer(ref, fused.best.text.split()).errors
        assert fused_errs <= plain_errs

    def test_ended_hypotheses_terminate_loop(self, asr_tok, corpus_split):
        line, em = utterances(asr_tok, corpus_split, 1, noise=0.0)[0]
        cfg = DecodeConfig(beam=2, policy=FusionPolicy("never"), lms=[], mode="labelsync")
        result = decode(em, cfg, asr_tok)
        # the loop must exit on the all-ended condition, well before the cap
        assert result.counters.steps < em.num_frames
        assert result.best.tokens[-1] == EOS_ID

    def test_max_label_steps_cap(self, asr_tok, corpus_split):
        _, em = utterances(asr_tok, corpus_split, 1, noise=0.4)[0]
        cfg = DecodeConfig(
            beam=3,
            policy=FusionPolicy("never"),
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
            em, DecodeConfig(beam=None, policy=FusionPolicy("never"), lms=[spec]), tok
        )
        label = decode(
            em,
            DecodeConfig(
                beam=None, policy=FusionPolicy("never"), lms=[spec], mode="labelsync"
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
            policy=FusionPolicy("shallow"),
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
        cfg = DecodeConfig(beam=3, policy=FusionPolicy("never"), lms=[], mode="labelsync")
        result = decode(em, cfg, asr_tok)
        assert all(h.tokens[-1] == EOS_ID for h in result.nbest)
        assert result.best.text == line


class _CountingScorer:
    """Prefix-scorer proxy that records which states are built and scored."""

    def __init__(self, inner):
        self.inner = inner
        self.T = inner.T
        self.child_labels = []
        self.parent_states = []
        self.built_states = []
        self.scored_states = []

    def root(self):
        return self.inner.root()

    def child(self, state, label):
        self.child_labels.append(label)
        self.parent_states.append(id(state))
        out = self.inner.child(state, label)
        self.built_states.append(id(out))
        return out

    def candidate_scores(self, state):
        self.scored_states.append(id(state))
        return self.inner.candidate_scores(state)


class TestValidation:
    def test_vocab_size_mismatch(self, asr_tok):
        em = EmissionMatrix(random_emissions(np.random.default_rng(7), 3, 8))
        cfg = DecodeConfig(beam=2, policy=FusionPolicy("never"), lms=[])
        with pytest.raises(DecodeError, match="vocabulary"):
            decode(em, cfg, asr_tok)

    def test_frame_mode_requires_emissions(self, asr_tok):
        cfg = DecodeConfig(beam=2, policy=FusionPolicy("never"), lms=[])
        with pytest.raises(DecodeError):
            decode(object(), cfg, asr_tok)

    def test_beam_validation(self):
        with pytest.raises(DecodeError):
            DecodeConfig(beam=0, policy=FusionPolicy("never"), lms=[])

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
        kwargs = dict(beam=2, policy=FusionPolicy("never"), lms=[])
        kwargs[field] = value
        with pytest.raises(DecodeError, match=field):
            DecodeConfig(**kwargs)

    def test_mode_validation(self):
        with pytest.raises(DecodeError):
            DecodeConfig(beam=2, policy=FusionPolicy("never"), lms=[], mode="nope")

    def test_lm_vocab_must_match_scorer(self, tiny, asr_tok):
        tok, model = tiny
        def config(scorer, lm_tok):
            lms = [LMSpec(scorer, lm_tok, 0.5)]
            return DecodeConfig(beam=2, policy=FusionPolicy("never"), lms=lms)

        for scorer in (model, CountingScorer(model)):
            with pytest.raises(DecodeError, match="does not match"):
                config(scorer, asr_tok)
            config(scorer, tok)
        # a scorer without a vocabulary is not checked
        config(None, asr_tok)

    def test_weight_validation(self, tiny):
        tok, model = tiny
        with pytest.raises(DecodeError):
            DecodeConfig(
                beam=2,
                policy=FusionPolicy("never"),
                lms=[LMSpec(model, tok, float("nan"))],
            )
