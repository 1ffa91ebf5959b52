import dataclasses
import inspect
import math
import re
from collections import Counter

import numpy as np
import pytest

import beamfuse.decoder as decoder_mod
from beamfuse.acoustic import (
    NEG_INF,
    CtcPrefixScorer,
    EmissionMatrix,
    end_scores,
    forward_ctc,
    lse2,
    synth_emissions,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from beamfuse.decoder import (
    MODES,
    POLICY_KINDS,
    DecodeConfig,
    DecodeCounters,
    DecodeError,
    FrameCandidates,
    FusionPolicy,
    Hypothesis,
    LabelCandidates,
    LMSpec,
    LMView,
    _FrameStep,
    _LabelStep,
    _family_requests,
    _score,
    _shallow_scores,
    advance_views,
    apply_lm_scores,
    decode,
    extend_frame,
    fusable,
    prune_frame_candidates,
)
from beamfuse.harness import emulated_lm_seconds, wer
from beamfuse.lm import (
    FamilyBatch,
    PrefixCacheEntry,
    ScoreRequest,
    read_arpa,
    train_ngram,
    write_arpa,
)
from beamfuse.tokenization import (
    BLANK_ID,
    BOS_ID,
    EOS_ID,
    NUM_SPECIALS,
    UNK_ID,
    Tokenizer,
    build_vocab,
    tokenizable_prefix_len,
)

from conftest import (
    ODD_PIECES,
    CountingScorer,
    as_families,
    block_rows,
    candidate_views,
    clear_memos,
    ctc_hypothesis,
    join_blocks,
    make_vocab,
    random_emissions,
    reference_decode,
    reference_frame_candidates,
    reference_frame_step,
    reference_label_entries,
    reference_label_step,
    reference_shallow_requests,
    reference_shallow_step,
    score_caches,
)


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


def _root(step, lms) -> Hypothesis:
    """The first beam's hypothesis, as ``decode`` builds it for ``step``."""
    views = [LMView(0, (), spec.scorer.fresh_cache()) for spec in lms]
    return Hypothesis((BOS_ID,), 0.0, views, step.root_state, k=0)


class TestGreedyCleanDecode:
    def test_recovers_reference(self, asr_tok, corpus_split):
        for line, em in utterances(asr_tok, corpus_split, 5, noise=0.0):
            cfg = DecodeConfig(beam=1, policy=FusionPolicy("never"), lms=[], mode="ctc")
            result = decode(em, cfg, asr_tok)
            assert result.best.text == line


def _by_tokens(cands: FrameCandidates) -> dict:
    valid = np.flatnonzero(cands.valid).tolist()
    return {t: cands.survivor(j, t) for j, t in zip(valid, map(cands.tokens, valid))}


class TestExtend:
    def test_candidate_count(self, tiny):
        tok, _ = tiny
        em = EmissionMatrix(random_emissions(np.random.default_rng(0), 1, tok.vocab.size))
        beam = [ctc_hypothesis((BOS_ID,), 0.0, NEG_INF, [], k=0)]
        cands = extend_frame(beam, em.log_probs[0], tok.begins)
        assert len(cands) == 4  # stay + one extension per ordinary token

    def test_duplicate_prefixes_merged(self, tiny):
        tok, _ = tiny
        rng = np.random.default_rng(1)
        em = EmissionMatrix(random_emissions(rng, 1, tok.vocab.size))
        a = tok.vocab.token_id("▁a")
        root = ctc_hypothesis((BOS_ID,), 0.0, NEG_INF, [], k=0)
        k = tokenizable_prefix_len((BOS_ID, a), tok.vocab)
        grown = ctc_hypothesis((BOS_ID, a), -1.0, -2.0, [], k=k)
        cands = extend_frame([root, grown], em.log_probs[0], tok.begins)
        # raw expansion is 2 * 4 = 8; (bos, a) appears as both stay and extension
        assert len(cands) == 7
        merged = _by_tokens(cands)[(BOS_ID, a)]
        stay = -1.0  # contributions below reconstruct the merge by hand
        row = em.log_probs[0]
        stay_blank = math.log(math.exp(-1.0) + math.exp(-2.0)) + row[0]
        stay_nonblank = -2.0 + row[a]
        ext_nonblank = 0.0 + row[a]  # root total is log(1)
        log_blank, log_nonblank = merged.state
        assert log_blank == pytest.approx(stay_blank, abs=1e-12)
        assert log_nonblank == pytest.approx(
            math.log(math.exp(stay_nonblank) + math.exp(ext_nonblank)), abs=1e-12
        )
        assert merged.e2e == lse2(log_blank, log_nonblank)


class TestTokenizerTables:
    @pytest.mark.parametrize("mode", MODES)
    def test_steps_hold_the_tokenizer_tables(self, asr_tok, mode):
        # the per-id tables are built once per tokenizer, not once per decode
        em = EmissionMatrix(random_emissions(np.random.default_rng(9), 4, asr_tok.vocab.size))
        cfg = DecodeConfig(beam=2, policy=FusionPolicy("never"), lms=[], mode=mode)
        step = (_FrameStep if mode == "ctc" else _LabelStep)(em, cfg, asr_tok)
        cands = step.expand([_root(step, [])], 1)
        assert step.begins is asr_tok.begins
        assert cands.begins is asr_tok.begins
        # block column c extends by id c; only the reserved ids other than
        # ``</s>`` in label mode are no extensions of the root
        assert cands.valid.size == len(cands.singles) + len(cands.parents) * asr_tok.vocab.size
        kept = np.flatnonzero(cands.valid).tolist()[len(cands.singles) :]
        labels = [cands.tokens(j)[-1] for j in kept]
        ordinary = list(range(NUM_SPECIALS, asr_tok.vocab.size))
        assert labels == (ordinary if mode == "ctc" else [EOS_ID, *ordinary])


class TestPrune:
    def _cands(self, entries):
        """Stay-only candidates: (tokens, log_blank, log_nonblank) each, no LM views.

        With no extensions, each ``k`` only passes to its stay; it is 0.
        """
        beam = [Hypothesis(tokens, k=0) for tokens, _, _ in entries]
        n = len(beam)
        stays = [(b, nb) for _, b, nb in entries]
        return FrameCandidates(
            beam,
            [[] for _ in beam],
            [lse2(*pair) for pair in stays],
            stays,
            beam,
            np.empty((n, 0)),
            np.ones(n, dtype=bool),
            (),  # an empty table: a block of width 0, so no extensions
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
    """Distinct prefixes; about ``extend_share`` of them extend another entry by one token.

    Every ``k`` is 0, right for a word-begin table in which no id begins a
    word; a caller with a tokenizer sets ``k`` itself.
    """
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
        beam.append(ctc_hypothesis(tokens, pb, pnb, _random_views(rng, n_lms), k=0))
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
    # these beams have no tokenizer; no id begins a word, and ``k`` is not checked here
    cands = extend_frame(beam, frame, (False,) * len(frame))
    assert len(cands) == len(reference_frame_candidates(beam, frame, real_ids))
    got = prune_frame_candidates(cands, beam_size, weights)
    want = reference_frame_step(beam, frame, real_ids, beam_size, weights)
    assert [h.tokens for h in got] == [h.tokens for h in want]
    for g, w in zip(got, want):
        assert list(map(_bits, g.state)) == list(map(_bits, w.state))
        assert _bits(g.e2e) == _bits(w.e2e)
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
        # no id begins a word in the table ``assert_same_step`` passes, so ``k`` is 0
        beam.append(ctc_hypothesis((BOS_ID,) + prefix, draw(_scores), draw(_scores), views, k=0))
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
    ids = list(range(NUM_SPECIALS, tok.vocab.size)) + [EOS_ID]
    root = Hypothesis((BOS_ID,), e2e=0.0, state=scorer.root(), k=0)
    root.views = _random_views(rng, n_lms)
    beam = [root]
    for _ in range(steps):
        yield beam
        pairs = reference_label_step(scorer, beam, ids, None, [0.5, -0.25][:n_lms], tok.vocab)
        if not pairs:
            return
        pick = sorted(rng.choice(len(pairs), size=min(width, len(pairs)), replace=False))
        beam = []
        for j in pick:
            hyp = pairs[int(j)][0]
            if not hyp.ended:
                hyp.views = _random_views(rng, n_lms)
            beam.append(hyp)


def _on_step(step, beam) -> list[Hypothesis]:
    """``beam`` as the label step holds it, for a beam whose live states are 1-row blocks.

    ``step.block`` stacks the live hypotheses' blocks in beam order, and each
    live hypothesis becomes a copy whose state is its row; an ended one is
    itself.  The reference keeps stepping the original beam.
    """
    live = [h for h in beam if not h.ended]
    step.block = join_blocks([h.state for h in live]) if live else block_rows(step.block, [])
    rows = {id(h): r for r, h in enumerate(live)}
    return [
        h if h.ended else Hypothesis(h.tokens, h.e2e, h.views, rows[id(h)], k=h.k) for h in beam
    ]


def _row_bytes(block, r: int) -> tuple:
    """Row ``r`` of a prefix block, every field, as bytes."""
    fields = (block.r_blank, block.r_nonblank, block.last_label, block.both)
    return tuple(f[r].tobytes() for f in fields)


def assert_carried(got, ended):
    """``got`` is the ended hypothesis ``ended`` carried over: a new one with its fields."""
    assert got is not ended
    assert got.tokens == ended.tokens and _bits(got.e2e) == _bits(ended.e2e)
    assert got.views is ended.views and got.state is ended.state and got.k == ended.k


class UncalledScorer:
    """An LM scorer with no vocabulary, for a config whose LMs are never called."""

    def fresh_cache(self):
        raise AssertionError("not called")

    def score_batch_incremental(self, batch):
        raise AssertionError("not called")


def assert_same_label_step(tok, scorer, beam, beam_size, weights):
    """The array label step and the reference keep the same survivors, bit for bit."""
    lms = [LMSpec(UncalledScorer(), tok, w) for w in weights]
    cfg = DecodeConfig(beam=beam_size, policy=FusionPolicy("never"), lms=lms, mode="labelsync")
    step = _LabelStep(scorer, cfg, tok)
    ids = list(range(NUM_SPECIALS, tok.vocab.size)) + [EOS_ID]
    held = _on_step(step, beam)
    row_of = {id(h): g.state for h, g in zip(beam, held)}

    cands = step.expand(held, 1)
    entries = reference_label_entries(scorer, beam, ids, weights)
    assert len(cands) == len(entries)
    # every candidate, as the shallow path materializes it, matches one entry
    want_entries = {tokens: (score, p, s) for score, tokens, (p, s) in entries}
    scores = cands.scores(weights)
    got_entries = {}
    for j in np.flatnonzero(cands.valid).tolist():
        hyp = cands.survivor(j, cands.tokens(j))
        got_entries[hyp.tokens] = (scores[j], hyp)
    assert got_entries.keys() == want_entries.keys()
    for tokens, (score, hyp) in got_entries.items():
        want_score, want_parent, s = want_entries[tokens]
        assert _bits(score) == _bits(want_score)
        if s is None:
            assert_carried(hyp, want_parent)
        else:
            # a new survivor holds its parent's views and, if live, its parent's
            # row; its ``e2e`` is its label score
            assert hyp.views is want_parent.views and _bits(hyp.e2e) == _bits(s)
            assert hyp.state == (None if hyp.ended else row_of[id(want_parent)])

    def children():
        # (parent row's values, label) of each child row built since the last call
        out = list(zip(scorer.parent_rows, scorer.child_labels))
        scorer.parent_rows.clear()
        scorer.child_labels.clear()
        return out

    children()
    got = step.prune(cands, None)
    got_children = children()
    want = reference_label_step(scorer, beam, ids, beam_size, weights, tok.vocab)
    assert children() == got_children
    assert [h.tokens for h in got] == [h.tokens for h, _ in want]
    # child builds exactly one row per live survivor, numbered in beam order
    live = [g for g in got if not g.ended]
    assert [g.state for g in live] == list(range(len(live)))
    if live:
        assert step.block.r_blank.shape[0] == len(live)
    for g, (w, parent) in zip(got, want):
        if parent is None:
            assert_carried(g, w)
            continue
        assert _bits(g.e2e) == _bits(w.e2e)
        assert type(g.e2e) is type(w.e2e)
        assert g.ended == w.ended
        assert g.k == w.k
        assert (g.state is None) == (w.state is None)
        if not g.ended:
            assert _row_bytes(step.block, g.state) == _row_bytes(w.state, 0)
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
            ids = list(range(NUM_SPECIALS, tok.vocab.size)) + [EOS_ID]
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
            ids = list(range(NUM_SPECIALS, tok.vocab.size)) + [EOS_ID]
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
    """Views as a shallow search leaves them: advanced over ``hyp``, caches fresh.

    Sets ``hyp.k`` too.
    """
    k = hyp.k = tokenizable_prefix_len(hyp.tokens, tok.vocab)
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
        held = beam
    else:
        step = _LabelStep(source, cfg, tok)
        held = _on_step(step, beam)
    want, want_deltas = reference_shallow_step(mode, source, beam, tok, lms, beam_size)

    counters = DecodeCounters()
    cands = step.expand(held, 1)
    extra = _shallow_scores(cands, lms, tok, {}, counters)
    got = step.prune(cands, extra)
    for hyp in got:
        advance_views(hyp, tok, lms)
    deltas = [spec.scorer.counts() for spec in lms]

    assert deltas == want_deltas
    assert _lm_counts(counters) == tuple(map(sum, zip(*deltas)))
    assert_requests_retokenize(cands, lms, tok)
    assert [h.tokens for h in got] == [h.tokens for h in want]
    for g, w in zip(got, want):
        if mode == "ctc":
            assert list(map(_bits, g.state)) == list(map(_bits, w.state))
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
            view = candidate_views(cands, j)[i]
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
        h.e2e
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
            real_ids = range(NUM_SPECIALS, tok.vocab.size)
            count = len(reference_frame_candidates(beam, frame, real_ids))
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
        ids = list(range(NUM_SPECIALS, tok.vocab.size)) + [EOS_ID]
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
        real = list(range(NUM_SPECIALS, tok.vocab.size))
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
                k = tokenizable_prefix_len(tokens, tok.vocab)
                beam.append(ctc_hypothesis(tokens, -1.0, -2.0, views, k=k))
            step = _FrameStep(EmissionMatrix(random_emissions(rng, 1, tok.vocab.size)), cfg, tok)
            cands = step.expand(beam, 1)
            _shallow_scores(cands, lms, tok, {}, DecodeCounters())
            most = max(most, assert_requests_retokenize(cands, lms, tok))
        assert most >= 4


def _request_beam(pick, tok, lms) -> list[Hypothesis]:
    """Distinct prefixes, some extending another entry, with views lagging by a drawn cut.

    ``pick(n)`` draws an int in ``range(n)``.  Each hypothesis gets its own
    cache objects, with a drawn ``scored_len`` that decides which views a
    merged stay keeps.
    """
    real = list(range(NUM_SPECIALS, tok.vocab.size))
    seen: dict = {}
    for _ in range(1 + pick(6)):
        if seen and pick(2):
            tokens = list(seen)[pick(len(seen))] + (real[pick(len(real))],)
        else:
            tokens = (BOS_ID, *(real[pick(len(real))] for _ in range(pick(8))))
        seen.setdefault(tokens, None)
    beam = []
    for tokens in seen:
        k = tokenizable_prefix_len(tokens[: 1 + pick(len(tokens))], tok.vocab)
        text = tok.decode(tokens[1 : 1 + k])
        views = [
            LMView(k, tuple(spec.tokenizer.encode(text)), PrefixCacheEntry(pick(3), 0.0, ()))
            for spec in lms
        ]
        k = tokenizable_prefix_len(tokens, tok.vocab)
        beam.append(ctc_hypothesis(tokens, -1.0, -2.0, views, k=k))
    return beam


def _request_blocks(pick, tok, beam) -> list:
    """The beam's frame block and a label block over it, about a quarter masked out."""
    mask = np.random.default_rng(pick(2**16))
    uniform = np.full(tok.vocab.size, -math.log(tok.vocab.size))
    frame = extend_frame(beam, uniform, tok.begins)
    frame.valid &= mask.random(frame.valid.size) < 0.75
    ends = [pick(3) == 0 for _ in beam]
    ended = [
        Hypothesis(
            h.tokens + (EOS_ID,),
            e2e=-1.0,
            views=h.views,
            k=tokenizable_prefix_len(h.tokens + (EOS_ID,), tok.vocab),
        )
        for h, end in zip(beam, ends)
        if end
    ]
    live = [h for h, end in zip(beam, ends) if not end]
    # one column per id, the ids a prefix scorer bans at -inf
    label_scores = np.where(mask.random((len(live), tok.vocab.size)) < 0.75, -1.0, NEG_INF)
    label_scores[:, [BLANK_ID, BOS_ID, UNK_ID]] = NEG_INF
    valid = np.concatenate([np.ones(len(ended), dtype=bool), (label_scores > NEG_INF).ravel()])
    ended_fields = [h.views for h in ended], [h.e2e for h in ended], [h.state for h in ended]
    label = LabelCandidates(ended, *ended_fields, live, label_scores, valid, tok.begins)
    return [frame, label]


def _request_shapes(cands, tok) -> Counter:
    """What the block asks of the builder: each group's kind, and each child's kind of piece.

    A single item is a stay or an ended hypothesis, labelled blank, with its
    own entry's views or another's.  A continuation piece either joins the
    parent's open word, alone or with more words after it, or brings new
    words: after an empty or closed tail (``last`` None), or after the open
    word, which it leaves closed.
    """
    own_views = {h.tokens: h.views for h in cands.singles}
    shapes = Counter()
    for tokens, views, labels in cands.families():
        tail = tokens[1 + views[0].consumed :]
        opened = bool(tail) and tok.pieces[tail[-1]][2]
        if labels == (BLANK_ID,):
            shapes["ended" if tokens[-1] == EOS_ID else "stay" + " in an open word" * opened] += 1
            shapes["stay with another entry's views"] += views is not own_views[tokens]
            continue
        for c in labels:
            glue, more, _ = tok.pieces[c]
            if c == EOS_ID:
                kind = "</s>"
            elif tok.vocab.is_word_begin(c):
                kind = "word begin"
            elif not opened:
                kind = "new words after a closed tail" if tail else "new words"
            elif glue is None:
                kind = "new words after the open word"
            elif len(more) > 1:
                kind = "joins the open word with more words"
            else:
                kind = "joins the open word"
            shapes[kind + ("" if tail else " after an empty tail")] += 1
    return shapes


def _open_word(tokens, views, tok):
    """A group's closed words and its open last word (None if its tail ends between words)."""
    tail = tokens[1 + views[0].consumed :]
    words = tok.decode(tail).split()
    return words, (words.pop() if tail and tok.pieces[tail[-1]][2] else None)


def assert_requests_match_reference(cands, lms, tok, held) -> tuple[list, list[str]]:
    """The families' requests are the flat reference's: type, tokens, cache objects and order.

    ``held`` is the builder's one table, passed from block to block as a
    decode passes it; after the call it holds exactly this block's groups,
    keyed by their tokens and the id of their views, each entry with its
    group's views, and each group's family is a tuple of its entry's base
    and a tuple of the tails of its labels, the very family its entry's
    slot for the group's kind (stay or family) last sent with these labels.
    Each base ends with its open word's fixed pieces, and each tail is what
    follows them: the slot of its label in its stub's ``tail_rows`` row, a
    stay's included, which is ``encode_rest(stub)`` (or empty).
    Returns the batches and the words the builder asked the LM tokenizers'
    ``encode_word`` for, in call order.
    """
    encoded = []
    with pytest.MonkeyPatch.context() as patch:
        for lm_tok in {id(spec.tokenizer): spec.tokenizer for spec in lms}.values():
            patch.setattr(lm_tok, "encode_word", lambda word, plain=lm_tok.encode_word:
                          encoded.append(word) or plain(word))
        got = _family_requests(cands.families(), lms, tok, held)
    want = reference_shallow_requests(cands, lms, tok)
    assert len(got) == len(want) == len(lms)
    for batch, ref in zip(got, want):
        assert type(batch) is FamilyBatch
        reqs = list(batch)
        assert all(type(r) is ScoreRequest for r in reqs)
        assert [r.tokens for r in reqs] == [tokens for tokens, _ in ref]
        assert all(r.cache is cache for r, (_, cache) in zip(reqs, ref))
    groups = cands.families()
    assert held.keys() == {(tokens, id(views)) for tokens, views, _ in groups}
    for g, (tokens, views, labels) in enumerate(groups):
        held_views, bases, stubs, sent = held[tokens, id(views)]
        assert held_views is views and len(bases) == len(stubs) == len(lms)
        stay = labels == (BLANK_ID,)
        sent_labels, sent_families = sent[stay]
        assert sent_labels == labels and len(sent_families) == len(lms)
        words, last = _open_word(tokens, views, tok)
        for i, batch in enumerate(got):
            family = batch.families[g]
            cache, base, family_tails = family
            assert type(family) is tuple and family is sent_families[i]
            assert cache is views[i].cache and base is bases[i]
            lm_tok = lms[i].tokenizer
            fixed, stub = lm_tok.open_word(last) if last else ((), None)
            assert base == views[i].lm_tokens + tuple(lm_tok.encode(" ".join(words))) + fixed
            assert stubs[i] == stub
            assert type(family_tails) is tuple and len(family_tails) == len(labels)
            row = lm_tok.tail_rows(tok)(stub)
            assert all(tail is row[c] for tail, c in zip(family_tails, labels))
            if stay:
                assert family_tails == ((() if stub is None else lm_tok.encode_rest(stub)),)
    return got, encoded


@pytest.fixture(scope="module")
def request_worlds(shallow_world):
    """LM sets by name over two ASR tokenizers: the shallow world's and one over ``ODD_PIECES``.

    The builder reads only the LM tokenizers; the scorers let a test decode
    in either world.  The ``ODD_PIECES`` world's matched LM is trained on
    decoded random id sequences.
    """
    tok, lm_sets = shallow_world
    odd = Tokenizer(make_vocab(*ODD_PIECES))
    cross = lm_sets["cross"][0]
    ids = np.random.default_rng(62).integers(NUM_SPECIALS, odd.vocab.size, size=(40, 6))
    texts = [text for text in map(odd.decode, ids.tolist()) if text.split()]
    matched = train_ngram([odd.encode(t) for t in texts], odd.vocab, 2, 0.4)
    odd_sets = {
        "matched": [LMSpec(matched, odd, 0.5)],
        "cross": [cross],
        "both": [LMSpec(matched, odd, 0.5), cross],
    }
    return {"world": (tok, lm_sets), "odd": (odd, odd_sets)}


class TestShallowRequestsPerParent:
    """Requests built once per parent equal the flat one-candidate-at-a-time builder."""

    @pytest.mark.parametrize("world", ("world", "odd"))
    @pytest.mark.parametrize("lm_set", TestShallowStepMatchesReference.LM_SETS)
    def test_every_shape(self, request_worlds, world, lm_set):
        tok, lm_sets = request_worlds[world]
        lms = lm_sets[lm_set]
        rng = np.random.default_rng(48)
        # one ``held`` across every block, as in a decode: a label block's live parents are its frame block's, so
        # they reuse requests, and a new beam's equal prefixes have new views
        held = {}
        shapes = Counter()
        for _ in range(40):
            beam = _request_beam(lambda n: int(rng.integers(n)), tok, lms)
            for cands in _request_blocks(lambda n: int(rng.integers(n)), tok, beam):
                assert_requests_match_reference(cands, lms, tok, held)
                shapes += _request_shapes(cands, tok)
        for kind in ("word begin", "</s>"):
            assert shapes[kind] > 10 and shapes[kind + " after an empty tail"] > 0
        assert shapes["joins the open word"] > 10
        assert shapes["new words after an empty tail"] > 0
        if world == "odd":  # only ``ODD_PIECES`` has pieces that close or span words
            assert shapes["new words after a closed tail"] > 0
            assert shapes["new words after the open word"] > 0
            assert shapes["joins the open word with more words"] > 0
        assert shapes["stay"] > 0 and shapes["stay in an open word"] > 10
        assert shapes["ended"] > 10
        assert shapes["stay with another entry's views"] > 5

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), world=st.sampled_from(("world", "odd")),
           lm_set=st.sampled_from(TestShallowStepMatchesReference.LM_SETS))
    def test_fuzzed_beams(self, request_worlds, data, world, lm_set):
        tok, lm_sets = request_worlds[world]
        lms = lm_sets[lm_set]
        pick = lambda n: data.draw(st.integers(0, n - 1))  # noqa: E731
        held = {}
        for cands in _request_blocks(pick, tok, _request_beam(pick, tok, lms)):
            assert_requests_match_reference(cands, lms, tok, held)


def _children_by_group(cands, held) -> dict:
    """Each group's children by its tokens: ``{label: (views, held entry, per-LM (base, stub))}``.

    A CTC stay and its parent's family have the same tokens, and the stay
    is label ``BLANK_ID``, which no extension is.
    """
    out = {}
    for tokens, views, labels in cands.families():
        entry = held[tokens, id(views)]
        by_label = out.setdefault(tokens, {})
        for c in labels:
            by_label[c] = (views, entry, list(zip(*entry[1:3])))
    return out


def _base_words(cands, tok) -> set:
    """The words of every group's base: its tail's words, less an open last word."""
    out = set()
    for tokens, views, _ in cands.families():
        tail = tokens[1 + views[0].consumed :]
        words = tok.decode(tail).split()
        out.update(words[:-1] if tail and tok.pieces[tail[-1]][2] else words)
    return out


def _family_views(by_label: dict):
    """The views of the family among a token's groups, or None if it has none."""
    return next((views for c, (views, *_) in by_label.items() if c != BLANK_ID), None)


class TestShallowRequestsAcrossSteps:
    """Families held from one step to the next equal the reference, and only a parent or
    single item that came back with the same views gets its base and tails back."""

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("world", ("world", "odd"))
    @pytest.mark.parametrize("lm_set", TestShallowStepMatchesReference.LM_SETS)
    def test_consecutive_blocks_of_real_decodes(
        self, request_worlds, world, lm_set, mode, monkeypatch
    ):
        # blocks of shallow decodes, where views stay as they are, and of
        # fusing decodes, where fusion and merges give a parent new views
        tok, lm_sets = request_worlds[world]
        lms = lm_sets[lm_set]
        step_type = _FrameStep if mode == "ctc" else _LabelStep
        expand = step_type.expand
        decodes = []

        def record(step, beam, t):
            cands = expand(step, beam, t)
            decodes[-1].append(cands)
            return cands

        monkeypatch.setattr(step_type, "expand", record)
        rng = np.random.default_rng(51)
        policies = (FusionPolicy("shallow"), FusionPolicy("shortest"), FusionPolicy("interval", 2))
        for policy in policies:
            for frames, beam in ((10, 3), (16, 6), (16, 10)):
                em = EmissionMatrix(random_emissions(rng, frames, tok.vocab.size))
                decodes.append([])
                decode(em, DecodeConfig(beam, policy, lms, mode=mode), tok)

        shapes, stays, families = Counter(), Counter(), Counter()
        piece_words = {word for _, words, _ in tok.pieces for word in words}
        for blocks in decodes:
            held, previous, sent_before = {}, {}, {}
            for cands in blocks:
                got, encoded = assert_requests_match_reference(cands, lms, tok, held)
                # a group whose views and labels are the previous block's gets back the very
                # families sent then, one per LM; any other group gets new ones
                sent_now, earlier = {}, {id(f) for *_, fams in sent_before.values() for f in fams}
                for g, (tokens, views, labels) in enumerate(cands.families()):
                    fams = [batch.families[g] for batch in got]
                    key = (tokens, id(views), labels == (BLANK_ID,))
                    before = sent_before.get(key)
                    if before is not None and before[0] is views and before[1] == labels:
                        assert all(f is b for f, b in zip(fams, before[2], strict=True)), tokens
                        families["reused"] += 1
                    else:
                        assert not any(id(f) in earlier for f in fams), tokens
                        families["new"] += 1
                    sent_now[key] = (views, labels, fams)
                sent_before = sent_now
                # only complete words are encoded whole: no joined or open word
                complete = piece_words | _base_words(cands, tok)
                assert set(encoded) <= complete, sorted(set(encoded) - complete)[:5]
                now = _children_by_group(cands, held)
                shapes["blocks"] += 1
                for tokens in now.keys() & previous.keys():
                    by_label, old = now[tokens], previous[tokens]
                    views, before = _family_views(by_label), _family_views(old)
                    if views is not None and before is not None:
                        if views is before:
                            kind = "same views"
                        else:
                            # in a frame block the stay took other views in a merge
                            swapped = BLANK_ID in old and old[BLANK_ID][0] is not before
                            kind = "swapped views" if swapped else "new views"
                        shapes[kind] += 1
                    for c in by_label.keys() & old.keys():
                        (views, entry, now_lms), (views_before, old_entry, old_lms) = (
                            by_label[c], old[c])
                        # the same views get the same entry back, with the same base
                        # objects and stubs; other views get a new entry
                        same = views is views_before
                        assert (entry is old_entry) == same, (tokens, c)
                        if same:
                            assert all(base is old_base and stub == old_stub
                                       for (base, stub), (old_base, old_stub)
                                       in zip(now_lms, old_lms)), (tokens, c)
                        counts = stays if c == BLANK_ID else shapes
                        counts["reused" if same else "rebuilt"] += 1
                previous = now
        assert shapes.pop("blocks") > 50
        assert families["new"] > 50
        if mode == "ctc":
            assert families["reused"] > 100
            assert shapes["same views"] > 20 and shapes["reused"] > 100
            assert shapes["swapped views"] > 0 and shapes["new views"] > 20
            assert shapes["rebuilt"] > 50
            assert stays["reused"] > 100 and stays["rebuilt"] > 20
        else:
            # every live label-sync survivor is a new extension: no parent comes
            # back, though an ended hypothesis carried over is a single item again
            assert not shapes


class TestOneRequestTable:
    """A stay is its own blank-labelled group in the one table ``held``."""

    @staticmethod
    def _merged_block(shallow_world):
        """A frame block whose stay of ``b`` merges ``a``'s extension and takes ``a``'s views.

        ``a``'s caches have scored more, so its views win the merge.
        """
        tok, lm_sets = shallow_world
        lms = lm_sets["both"]
        x, y = tok.vocab.token_id("▁x"), tok.vocab.token_id("▁y")

        def views(scored):
            return [LMView(0, (), PrefixCacheEntry(scored, 0.0, ())) for _ in lms]

        a = ctc_hypothesis((BOS_ID, x), -1.0, -2.0, views(2), k=0)
        b = ctc_hypothesis((BOS_ID, x, y), -1.0, -2.0, views(0), k=1)
        frame = np.full(tok.vocab.size, -math.log(tok.vocab.size))
        cands = extend_frame([a, b], frame, tok.begins)
        assert cands.single_views == [a.views, a.views]
        return tok, lms, a, b, cands

    def test_stay_shares_its_family_entry(self, shallow_world):
        tok, lms, a, _, cands = self._merged_block(shallow_world)
        held = {}
        got = _family_requests(cands.families(), lms, tok, held)
        entry = held[a.tokens, id(a.views)]
        labels = _children_by_group(cands, held)[a.tokens]
        assert BLANK_ID in labels and len(labels) > 1
        assert all(e is entry for _, e, _ in labels.values())
        # the groups are the stays of ``a`` and ``b``, then ``a``'s family and ``b``'s
        family_labels = cands.families()[2][2]
        for i, batch in enumerate(got):
            lm_tok, stub = lms[i].tokenizer, entry[2][i]
            assert stub == lm_tok.open_word("x")[1]
            stay, family = batch.families[0], batch.families[2]
            assert stay[1] is family[1] is entry[1][i]
            row = lm_tok.tail_rows(tok)(stub)
            assert stay[2] == (row[BLANK_ID],) == (lm_tok.encode_rest(stub),)
            assert all(t is row[c] for t, c in zip(family[2], family_labels, strict=True))
            # the entry's slots keep what the stay and the family last sent, apart
            stay_sent, family_sent = entry[3][True], entry[3][False]
            assert stay_sent[1][i] is stay and family_sent[1][i] is family
        assert stay_sent[0] == (BLANK_ID,) and family_sent[0] == family_labels
        assert len(held) == 3

    def test_stay_with_other_views_gets_its_own_entry(self, shallow_world):
        tok, lms, a, b, cands = self._merged_block(shallow_world)
        held = {}
        got = _family_requests(cands.families(), lms, tok, held)
        stay, family = held[b.tokens, id(a.views)], held[b.tokens, id(b.views)]
        assert stay is not family and stay is not held[a.tokens, id(a.views)]
        assert stay[0] is a.views and family[0] is b.views
        for i, batch in enumerate(got):
            # the stay of ``b`` is the second group; its entry sent that tail alone
            lm_tok = lms[i].tokenizer
            assert batch.families[1][1] is stay[1][i]
            assert batch.families[1][2] == (lm_tok.tail_rows(tok)(stay[2][i])[BLANK_ID],)
            # ``a``'s views have consumed nothing, so the stay's base holds the word "x"
            assert stay[1][i] == tuple(lm_tok.encode("x")) + lm_tok.open_word("y")[0]
            assert stay[3][False] is None and family[3][True] is None


class TestFamilyCounts:
    """``_score`` counts a ``FamilyBatch`` exactly as it counts the requests it stands for.

    Both equal the per-request rule: a request with ``n > 0`` tokens past
    its cache's ``scored_len`` is one hypothesis with ``n`` new tokens.
    """

    @staticmethod
    def _scored(spec, batch):
        counters = DecodeCounters()
        answers = _score(spec, batch, counters)
        return answers, (counters.lm_calls, counters.lm_hypotheses, counters.lm_tokens)

    @staticmethod
    def _assert_counts_as_requests(spec, batch):
        # the requests it stands for, each sent as a one-child family
        (_, scores), counted = TestFamilyCounts._scored(spec, batch)
        (caches, _), want = TestFamilyCounts._scored(spec, as_families(batch))
        new = [n for r in batch if (n := len(r.tokens) - r.cache.scored_len) > 0]
        assert counted == want == (1, len(new), sum(new))
        assert scores == [cache.cum_logprob for cache in caches]
        return counted

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_a_family_batch_counts_as_its_requests(self, shallow_world, data):
        tok, lm_sets = shallow_world
        spec = data.draw(st.sampled_from(lm_sets["both"]))
        ids = st.integers(NUM_SPECIALS, spec.tokenizer.vocab.size - 1)
        seqs = st.lists(ids, max_size=3).map(tuple)
        fresh = spec.scorer.fresh_cache()
        scored = score_caches(spec.scorer, [ScoreRequest(data.draw(seqs), fresh)])
        families = []
        for _ in range(data.draw(st.integers(0, 4))):
            # a base that adds nothing to its cache is as likely as one that does
            cache = data.draw(st.sampled_from([fresh, scored[0]]))
            base = cache.tokens + (data.draw(seqs) if data.draw(st.booleans()) else ())
            families.append((cache, base, tuple(data.draw(st.lists(seqs, max_size=4)))))
        self._assert_counts_as_requests(spec, FamilyBatch(families))

    def test_children_with_no_new_tokens_count_nothing(self, shallow_world):
        tok, lm_sets = shallow_world
        spec = lm_sets["matched"][0]
        a, b = tok.vocab.token_id("▁a"), tok.vocab.token_id("▁b")
        fresh = spec.scorer.fresh_cache()
        scored = score_caches(spec.scorer, [ScoreRequest((a,), fresh)])[0]
        # the root's blank stay: an empty base, an empty tail and a fresh cache
        assert self._assert_counts_as_requests(spec, FamilyBatch([(fresh, (), ((),))])) == (1, 0, 0)
        batch = FamilyBatch([(scored, (a,), ((), (b,), (), (b, a))), (fresh, (a,), ((), (b,)))])
        assert self._assert_counts_as_requests(spec, batch) == (1, 4, 6)


@pytest.fixture(scope="module")
def decode_worlds() -> dict:
    """Two small ASR tokenizers by name, each with a matched and a cross-vocabulary LM.

    ``built`` is a ``build_vocab`` vocabulary over a four-letter corpus;
    ``odd`` is ``ODD_PIECES``, whose LM corpus is decoded random id
    sequences.  Both are small enough for exhaustive beams at T <= 3.
    """
    corpus = ["ab ba", "cab d", "bad ab", "dc ba ab", "a b c", "dab", "ca ad bc"] * 2
    odd = Tokenizer(make_vocab(*ODD_PIECES))
    rng = np.random.default_rng(61)
    ids = rng.integers(NUM_SPECIALS, odd.vocab.size, size=(40, 6)).tolist()
    odd_corpus = [text for text in map(odd.decode, ids) if text.split()]
    worlds = {}
    for name, tok, texts, cross_size in (
        ("built", Tokenizer(build_vocab(corpus, 16)), corpus, 22),
        ("odd", odd, odd_corpus, 28),
    ):
        cross_tok = Tokenizer(build_vocab(texts, cross_size))
        matched = train_ngram([tok.encode(t) for t in texts], tok.vocab, 2, 0.4)
        cross = train_ngram([cross_tok.encode(t) for t in texts], cross_tok.vocab, 3, 0.4)
        worlds[name] = (tok, {"matched": (matched, tok), "cross": (cross, cross_tok)})
    return worlds


def _result_record(result) -> tuple:
    """A decode result as plain values, every float as its hex; ``wall_seconds`` left out."""
    def hexes(values):
        return tuple(float(x).hex() for x in values)

    assert result.best is result.nbest[0]
    nbest = [
        (h.text, h.tokens, hexes([h.e2e_score, h.combined_score]), hexes(h.lm_scores))
        for h in result.nbest
    ]
    counters = dataclasses.replace(result.counters, wall_seconds=0.0)
    trace = [
        (s.step, s.fused, s.shortest_len, [(n, float(cum).hex()) for n, cum in s.lm_state])
        for s in result.trace
    ]
    return nbest, counters, trace


class TestDecodeMatchesReference:
    """``decode`` equals ``conftest.reference_decode`` exactly on drawn small worlds.

    The reference composes the per-step references one candidate at a time,
    so this checks how ``decode``'s loop composes its steps: expand, prune,
    view advance, the policy, the delayed pass, the trace, the all-ended exit
    and finalization.
    """

    LM_SETS = ((), ("matched",), ("cross",), ("matched", "cross"), ("cross", "matched"))

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_decode_equals_reference(self, decode_worlds, data):
        draw = data.draw
        tok, models = decode_worlds[draw(st.sampled_from(("built", "odd")))]
        frames = draw(st.integers(1, 10))
        beam = draw(st.integers(1, 6) | (st.none() if frames <= 3 else st.nothing()))
        kind = draw(st.sampled_from(POLICY_KINDS))
        policy = FusionPolicy(kind, draw(st.integers(1, 3)) if kind == "interval" else 0)
        lms = [
            LMSpec(*models[name], draw(st.sampled_from([0.5, 1.5, 3.0])), draw(st.booleans()))
            for name in draw(st.sampled_from(self.LM_SETS))
        ]
        mode = draw(st.sampled_from(MODES))
        # sharper emissions end label-sync hypotheses early and make longer words
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        logits = rng.normal(size=(frames, tok.vocab.size)) * draw(st.sampled_from([1.0, 4.0]))
        m = logits.max(axis=1, keepdims=True)
        em = EmissionMatrix(logits - (m + np.log(np.exp(logits - m).sum(axis=1, keepdims=True))))

        config = DecodeConfig(beam, policy, lms, mode=mode, keep_trace=True)
        got = _result_record(decode(em, config, tok))
        assert got == _result_record(reference_decode(em, config, tok))

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("name", ("matched", "cross"))
    def test_two_specs_sharing_one_scorer(self, decode_worlds, name, mode):
        # the scorer remembers only its previous call, which was the other spec's
        tok, models = decode_worlds["built"]
        lms = [LMSpec(*models[name], 0.5), LMSpec(*models[name], 1.5, False)]
        rng = np.random.default_rng(57)
        for kind in ("shallow", "always"):
            for frames in (4, 8, 10):
                em = EmissionMatrix(random_emissions(rng, frames, tok.vocab.size))
                config = DecodeConfig(4, FusionPolicy(kind), lms, mode=mode, keep_trace=True)
                got = _result_record(decode(em, config, tok))
                assert got == _result_record(reference_decode(em, config, tok))


def _deep_len(value, seen) -> int:
    """Entries in ``value`` and in every dict, list, set or tuple inside it."""
    if not isinstance(value, (dict, list, set, tuple)) or id(value) in seen:
        return 0
    seen.add(id(value))
    items = [*value.keys(), *value.values()] if isinstance(value, dict) else value
    return len(value) + sum(_deep_len(item, seen) for item in items)


def _decoder_containers() -> dict:
    """Sizes of the containers the decoder module keeps between calls.

    Module globals, class attributes and default arguments, counted deeply:
    where a memo that outlives a decode would live.  The encoding memos
    and the ``tail_rows`` memos, each tokenizer's own, are not in the
    module, and ``TestColdAndWarmMemos`` checks that they change no
    decode.
    """
    sizes = {}
    for name, value in vars(decoder_mod).items():
        places = {name: value}
        if inspect.isclass(value):
            places.update((f"{name}.{k}", v) for k, v in vars(value).items())
        if inspect.isfunction(value):
            places.update((f"{name}()", v) for v in value.__defaults__ or ())
        for key, v in places.items():
            if not key.startswith("__"):
                sizes[key] = _deep_len(v, set())
    return sizes


class TestWordMemoPerDecode:
    def test_decode_order_does_not_matter(self):
        # the encoding memos outlive a decode, so one decode could depend on another;
        # letters no other test uses keep them from holding these words already
        tok = Tokenizer(make_vocab("▁m", "▁n", "o", "▁p"))
        cross_tok = Tokenizer(make_vocab("▁m", "▁n", "▁o", "m", "n", "o", "p", "▁mo"))
        corpus = ["m n", "mo n m", "n mo", "p", "m p o", "o"] * 3
        matched = train_ngram([tok.encode(s) for s in corpus], tok.vocab, 2, 0.4)
        cross = train_ngram([cross_tok.encode(s) for s in corpus], cross_tok.vocab, 2, 0.4)
        specs = [LMSpec(matched, tok, 0.5), LMSpec(cross, cross_tok, -0.25)]
        lm_sets = {"matched": specs[:1], "cross": specs[1:], "both": specs}
        rng = np.random.default_rng(49)
        ems = [EmissionMatrix(random_emissions(rng, frames, tok.vocab.size)) for frames in (9, 14)]
        before = _decoder_containers()
        for mode in MODES:
            for lm_set in TestShallowStepMatchesReference.LM_SETS:
                cfg = DecodeConfig(4, FusionPolicy("shallow"), lm_sets[lm_set], mode=mode)
                runs = []
                for order in ((0, 1), (1, 0)):
                    results = {}
                    for i in order:
                        result = decode(ems[i], cfg, tok)
                        result.counters.wall_seconds = 0.0
                        results[i] = repr(result)
                    runs.append(results)
                assert runs[0] == runs[1]
        assert _decoder_containers() == before


class TestColdAndWarmMemos:
    """The encoding memos kept between decodes change no decode."""

    @pytest.mark.parametrize("mode", MODES)
    def test_a_cold_and_a_warm_memo_decode_alike(
        self, asr_tok, lm_tok, asr_trigram, trigram, corpus_split, mode
    ):
        # the matched LM and the cross-vocabulary one, whose tail rows differ
        lms = [LMSpec(asr_trigram, asr_tok, 0.4), LMSpec(trigram, lm_tok, 0.3)]
        (_, em), = utterances(asr_tok, corpus_split, 1, noise=0.4, seed0=540)
        for kind in ("shallow", "shortest"):
            cfg = DecodeConfig(6, FusionPolicy(kind), lms, mode=mode, keep_trace=True)
            clear_memos(asr_tok, lm_tok)
            cold, warm = decode(em, cfg, asr_tok), decode(em, cfg, asr_tok)
            assert all(t.encode_word.cache_info().hits > 0 for t in (asr_tok, lm_tok))
            cold.counters.wall_seconds = warm.counters.wall_seconds = 0.0
            assert repr(cold) == repr(warm)


class TestWarmRowsDecodeAlike:
    """A scorer's sibling rows, kept between decodes, change no decode."""

    @pytest.mark.parametrize("mode", MODES)
    def test_warm_and_fresh_scorers_decode_alike(
        self, asr_tok, asr_trigram, corpus_split, tmp_path, mode
    ):
        # two reads of one ARPA file score bit for bit alike
        path = str(tmp_path / "lm.arpa")
        write_arpa(asr_trigram, path)
        (_, em), (_, other) = utterances(asr_tok, corpus_split, 2, noise=0.4)

        def record(model, emissions):
            lms = [LMSpec(model, asr_tok, 0.5)]
            config = DecodeConfig(10, FusionPolicy("shallow"), lms, mode=mode, keep_trace=True)
            return _result_record(decode(emissions, config, asr_tok))

        fresh = record(read_arpa(path), em)
        scorer = read_arpa(path)
        # another utterance fills rows first, some of them rows this one steps from
        record(scorer, other)
        assert scorer._rows
        # the second decode also runs on the rows the first filled
        assert record(scorer, em) == fresh
        assert record(scorer, em) == fresh


class TestRetokenizeDecodesOnce:
    """A hypothesis's views share ``consumed``, so its rest is decoded once for every LM."""

    def test_one_decode_per_item_with_two_lms(self, shallow_world, monkeypatch):
        # finalization's requests: the builder's blank-labelled groups, each tail with </s>
        tok, lm_sets = shallow_world
        lms = lm_sets["both"]
        decoded = []
        plain_decode = tok.decode
        monkeypatch.setattr(tok, "decode", lambda ids: decoded.append(ids) or plain_decode(ids))
        rng = np.random.default_rng(44)
        real = list(range(NUM_SPECIALS, tok.vocab.size))
        beam = []
        for size in (3, 5, 8, 8):
            views = [LMView(0, (), spec.scorer.fresh_cache()) for spec in lms]
            tokens = (BOS_ID, *rng.choice(real, size=size).tolist())
            k = tokenizable_prefix_len(tokens, tok.vocab)
            beam.append(Hypothesis(tokens, views=views, k=k))

        # each hypothesis with its fresh views and with views advanced past its closed words
        groups = []
        for hyp in beam:
            ahead = Hypothesis(hyp.tokens, views=hyp.views, k=hyp.k)
            advance_views(ahead, tok, lms)
            groups += [(hyp.tokens, hyp.views, (BLANK_ID,)), (hyp.tokens, ahead.views, (BLANK_ID,))]
        assert sum(bool(views[0].lm_tokens) for _, views, _ in groups) >= 3
        decoded.clear()
        batches = _family_requests(groups, lms, tok, {})
        assert len(decoded) == len(groups)
        for i, (spec, batch) in enumerate(zip(lms, batches)):
            own = [(tokens, [views[i]], labels) for tokens, views, labels in groups]
            alone = _family_requests(own, [spec], tok, {})[0]
            assert batch.families == alone.families
            # each tail closed by ``</s>``, as finalization closes it
            batch = FamilyBatch([(cache, base, (tails[0] + (EOS_ID,),))
                                 for cache, base, tails in batch.families])
            want = []
            for tokens, views, _ in groups:
                view = views[i]
                words = spec.tokenizer.encode(tok.decode(tokens[1 + view.consumed :]))
                want.append(ScoreRequest(view.lm_tokens + tuple(words) + (EOS_ID,), view.cache))
            got = list(batch)
            assert got == want
            assert all(g.cache is w.cache for g, w in zip(got, want))

        decoded.clear()
        advanced = 0
        for hyp in beam:
            alone = []
            for i, spec in enumerate(lms):
                single = Hypothesis(hyp.tokens, views=[hyp.views[i]], k=hyp.k)
                advance_views(single, tok, [spec])
                alone.append(single.views[0])
            decoded.clear()
            advance_views(hyp, tok, lms)
            assert hyp.views == alone
            assert len(decoded) == (hyp.views[0].consumed > 0)
            advanced += len(decoded)
        assert advanced >= 3


def _every_policy() -> list[FusionPolicy]:
    return [FusionPolicy(kind, 2 if kind == "interval" else 0) for kind in POLICY_KINDS]


def _one_step_each_mode(pick, tok, lms) -> tuple[list, Counter]:
    """One frame step and one label step, keeping every candidate, over a drawn beam.

    The beam's ``k`` are right.  Returns the survivors of both steps and
    counts of the cases a wrong rule would get wrong: each kind of extension,
    merged stays holding another entry's views whose ``k`` differs, and
    ended hypotheses carried over.
    """
    beam = _request_beam(pick, tok, lms)
    rows = random_emissions(np.random.default_rng(pick(2**16)), 12, tok.vocab.size)
    shapes = Counter()

    never = FusionPolicy("never")
    frame_step = _FrameStep(EmissionMatrix(rows), DecodeConfig(None, never, lms), tok)
    cands = frame_step.expand(beam, 1)
    survivors = frame_step.prune(cands, None)
    by_tokens = {h.tokens: h for h in beam}
    for j, hyp in enumerate(beam):
        partner = by_tokens.get(hyp.tokens[:-1])
        if cands.single_views[j] is not hyp.views and partner.k != hyp.k:
            shapes["stay with another entry's views and k"] += 1

    scorer = CtcPrefixScorer(EmissionMatrix(rows), EOS_ID, disallowed=(BOS_ID, UNK_ID))
    label_step = _LabelStep(scorer, DecodeConfig(None, never, lms, "labelsync"), tok)
    for hyp in beam:
        hyp.state = scorer.root()
        for c in hyp.tokens[1:]:
            hyp.state = scorer.child(hyp.state, [0], [c])
        if pick(3) == 0:
            hyp.tokens += (EOS_ID,)
    labelled = label_step.prune(label_step.expand(_on_step(label_step, beam), 1), None)
    ended = {h.tokens for h in beam if h.ended}
    shapes["carried ended"] += sum(h.tokens in ended for h in labelled)
    extensions = [h for h in survivors if h.tokens not in by_tokens]
    for c in (h.tokens[-1] for h in extensions + [h for h in labelled if h.tokens not in ended]):
        word_begin = tok.vocab.is_word_begin(c)
        shapes["</s>" if c == EOS_ID else "word begin" if word_begin else "continuation"] += 1
    return survivors + labelled, shapes


class TestCarriedWordLength:
    """Every hypothesis's ``k``, set by the step that builds it, equals the scan of its tokens."""

    @pytest.mark.parametrize("mode", MODES)
    def test_every_survivor_of_real_decodes(self, shallow_world, mode, monkeypatch):
        # checked where the search hands each survivor to ``advance_views`` and
        # the final beam to ``finalize_beam``
        tok, lm_sets = shallow_world
        seen = Counter()
        advance, finalize = decoder_mod.advance_views, decoder_mod.finalize_beam
        label_prune = _LabelStep.prune
        frame_prune = decoder_mod.prune_frame_candidates

        def check(hyp):
            assert hyp.k == tokenizable_prefix_len(hyp.tokens, tok.vocab), hyp.tokens
            if mode == "ctc":
                # ``e2e`` is the total of the state pair, bit for bit, as Python floats
                assert all(type(x) is float for x in (hyp.e2e, *hyp.state))
                assert _bits(hyp.e2e) == _bits(lse2(*hyp.state)), hyp.tokens
            seen["checked"] += 1

        def checked_advance(hyp, *args):
            check(hyp)
            return advance(hyp, *args)

        def checked_finalize(beam, *args):
            for hyp in beam:
                check(hyp)
            return finalize(beam, *args)

        def counted_frame_prune(cands, *args):
            survivors = frame_prune(cands, *args)
            stays = {h.tokens: j for j, h in enumerate(cands.singles)}
            for hyp in survivors:
                j = stays.get(hyp.tokens)
                foreign = j is not None and cands.single_views[j] is not cands.singles[j].views
                seen["stay with another entry's views"] += foreign
            return survivors

        def counted_label_prune(step, cands, extra):
            # the expansion's label scores, from the same block
            label_scores = step.scorer.candidate_scores(step.block)
            survivors = label_prune(step, cands, extra)
            ended = {e.tokens: e for e in cands.singles}
            parents = {h.tokens: r for r, h in enumerate(cands.parents)}
            for hyp in survivors:
                if hyp.tokens in ended:
                    seen["carried ended"] += 1
                    assert _bits(hyp.e2e) == _bits(ended[hyp.tokens].e2e)
                    continue
                # a live extension's ``e2e`` is its label score: its prefix log-probability
                r = parents[hyp.tokens[:-1]]
                want = label_scores.item(r, hyp.tokens[-1])
                assert _bits(hyp.e2e) == _bits(want), hyp.tokens
                seen["extension"] += 1
            return survivors

        monkeypatch.setattr(decoder_mod, "advance_views", checked_advance)
        monkeypatch.setattr(decoder_mod, "finalize_beam", checked_finalize)
        monkeypatch.setattr(decoder_mod, "prune_frame_candidates", counted_frame_prune)
        monkeypatch.setattr(_LabelStep, "prune", counted_label_prune)
        rng = np.random.default_rng(47)
        ems = [EmissionMatrix(random_emissions(rng, frames, tok.vocab.size)) for frames in (7, 12)]
        for policy in _every_policy():
            for lms in ([], *lm_sets.values()):
                for beam in (3, 8):
                    for em in ems:
                        decode(em, DecodeConfig(beam, policy, lms, mode=mode), tok)
        assert seen["checked"] > 1000
        if mode == "ctc":
            assert seen["stay with another entry's views"] > 10
        else:
            assert seen["carried ended"] > 10 and seen["extension"] > 1000

    @pytest.mark.parametrize("world", ("world", "odd"))
    def test_drawn_beams(self, request_worlds, world):
        tok, lm_sets = request_worlds[world]
        rng = np.random.default_rng(50)
        shapes = Counter()
        for lms in ([], *lm_sets.values()):
            for _ in range(25):
                survivors, more = _one_step_each_mode(lambda n: int(rng.integers(n)), tok, lms)
                for hyp in survivors:
                    assert hyp.k == tokenizable_prefix_len(hyp.tokens, tok.vocab)
                shapes += more
        for kind in ("word begin", "continuation", "</s>", "carried ended"):
            assert shapes[kind] > 10
        assert shapes["stay with another entry's views and k"] > 5

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), world=st.sampled_from(("world", "odd")),
           lm_set=st.sampled_from(("none", *TestShallowStepMatchesReference.LM_SETS)))
    def test_fuzzed_beams(self, request_worlds, data, world, lm_set):
        tok, lm_sets = request_worlds[world]
        pick = lambda n: data.draw(st.integers(0, n - 1))  # noqa: E731
        survivors, _ = _one_step_each_mode(pick, tok, lm_sets.get(lm_set, []))
        for hyp in survivors:
            assert hyp.k == tokenizable_prefix_len(hyp.tokens, tok.vocab)

    @pytest.mark.parametrize("mode", MODES)
    def test_decodes_never_scan(self, shallow_world, mode, monkeypatch):
        tok, lm_sets = shallow_world
        calls = []
        monkeypatch.setattr(decoder_mod, "tokenizable_prefix_len", lambda *a: calls.append(a))
        em = EmissionMatrix(random_emissions(np.random.default_rng(48), 12, tok.vocab.size))
        fused = 0
        for policy in _every_policy():
            result = decode(em, DecodeConfig(5, policy, lm_sets["both"], mode=mode), tok)
            fused += result.counters.lm_calls
        assert fused > 10
        assert calls == []


class TestFinalization:
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("lm_set", TestShallowStepMatchesReference.LM_SETS)
    def test_requests_equal_from_scratch_retokenization(self, shallow_world, lm_set, mode):
        # the final pass resumes from each hypothesis's views, yet must request
        # exactly what re-tokenizing the whole hypothesis from scratch gives
        tok, lm_sets = shallow_world
        rng = np.random.default_rng(44)
        resumed = long = 0
        for policy in _every_policy():
            for beam, frames in ((1, 6), (4, 9), (6, 14)):
                lms = [
                    dataclasses.replace(spec, scorer=CountingScorer(spec.scorer))
                    for spec in lm_sets[lm_set]
                ]
                em = EmissionMatrix(random_emissions(rng, frames, tok.vocab.size))
                result = decode(em, DecodeConfig(beam, policy, lms, mode=mode), tok)
                for spec in lms:
                    requests = spec.scorer.last_requests
                    want = [
                        tuple(spec.tokenizer.encode(tok.decode(h.tokens))) + (EOS_ID,)
                        for h in result.nbest
                    ]
                    assert Counter(req.tokens for req in requests) == Counter(want)
                    resumed += sum(req.cache.scored_len > 0 for req in requests)
                long += sum(len(h.text.split()) >= 3 for h in result.nbest)
        assert resumed > 10
        assert long > 10


class TestPythonFloats:
    def test_scores_and_survivor_pairs(self, shallow_world):
        # a numpy scalar would leak from the emission row into the stay pairs
        tok, lm_sets = shallow_world
        em = EmissionMatrix(random_emissions(np.random.default_rng(45), 10, tok.vocab.size))
        for mode in MODES:
            for policy in _every_policy():
                for beam in (1, 5):
                    cfg = DecodeConfig(beam, policy, lm_sets["both"], mode=mode)
                    for hyp in decode(em, cfg, tok).nbest:
                        for x in (hyp.e2e_score, hyp.combined_score, *hyp.lm_scores):
                            assert type(x) is float
        step = _FrameStep(em, DecodeConfig(5, FusionPolicy("never"), lm_sets["both"]), tok)
        beam = [_root(step, lm_sets["both"])]
        for t in range(1, step.limit + 1):
            beam = step.prune(step.expand(beam, t), None)
            for hyp in beam:
                assert all(type(x) is float for x in (hyp.e2e, *hyp.state))


def _view_hyp(scored_len, lm_len, cum=-1.0):
    view = LMView(0, tuple(range(100, 100 + lm_len)), PrefixCacheEntry(scored_len, cum, ()))
    return Hypothesis((BOS_ID,), views=[view], k=0)


class TestFusable:
    def test_never_and_shallow(self):
        beam = [_view_hyp(0, 3)]
        assert not fusable(FusionPolicy("never"), beam, 5, 3, 0)
        assert not fusable(FusionPolicy("shallow"), beam, 5, 3, 0)

    def test_always(self):
        assert fusable(FusionPolicy("always"), [_view_hyp(0, 0)], 1, 0, 0)

    def test_fixed_interval_grid(self):
        policy = FusionPolicy("interval", 4)
        beam = [_view_hyp(scored_len=0, lm_len=2)]  # always has unscored words
        fired = [t for t in range(1, 17) if fusable(policy, beam, t, 2, 2)]
        assert fired == [4, 8, 12, 16]

    def test_fixed_interval_requires_change(self):
        policy = FusionPolicy("interval", 4)
        beam = [_view_hyp(scored_len=2, lm_len=2)]  # fully scored
        assert not fusable(policy, beam, 4, 2, 0)

    def test_shortest_fires_on_growth_only(self):
        policy = FusionPolicy("shortest")
        lengths = [0, 0, 1, 1, 2, 2, 2, 4]
        fired = [
            fusable(policy, [_view_hyp(0, n)], t, n, prev)
            for t, (prev, n) in enumerate(zip([0, *lengths], lengths), start=1)
        ]
        assert fired == [False, False, True, False, True, False, False, True]

    @pytest.mark.parametrize("mode", MODES)
    def test_search_carries_the_shortest_prefix(self, shallow_world, mode):
        # the loop passes each step the beam's shortest prefix and the one before it
        tok, lm_sets = shallow_world
        rng = np.random.default_rng(46)
        fired = 0
        for frames in (8, 12, 16):
            em = EmissionMatrix(random_emissions(rng, frames, tok.vocab.size))
            cfg = DecodeConfig(4, FusionPolicy("shortest"), lm_sets["both"], mode, keep_trace=True)
            prev = 0
            for step in decode(em, cfg, tok).trace:
                assert step.fused == (step.shortest_len > prev)
                prev = step.shortest_len
                fired += step.fused
        assert fired >= 3

    def test_interval_validation(self):
        with pytest.raises(DecodeError):
            FusionPolicy("interval", 0)
        with pytest.raises(DecodeError):
            FusionPolicy("bogus")
        for bad in ("3", 2.5, True, False, -1, None):
            with pytest.raises(DecodeError, match="interval policy needs interval >= 1"):
                FusionPolicy("interval", bad)
        assert FusionPolicy("interval", 3).interval == 3


def _fusing_step(step, beam, t, tok, lms, counters):
    """One full search step: expand, prune, advance every survivor, fuse."""
    survivors = step.prune(step.expand(beam, t), None)
    for hyp in survivors:
        advance_views(hyp, tok, lms)
    apply_lm_scores(survivors, lms, counters)
    return survivors


def _fields(views) -> list[tuple]:
    return [(v.consumed, v.lm_tokens, v.cache) for v in views]


class TestValueSemantics:
    """LM views are shared values: nothing that updates one hypothesis touches another."""

    def test_lm_view_fields_cannot_be_assigned(self):
        view = LMView(0, (), None)
        for name in ("consumed", "lm_tokens", "cache"):
            with pytest.raises(AttributeError):
                setattr(view, name, 1)

    def _pair(self, tiny):
        tok, model = tiny
        a, b = tok.vocab.token_id("▁a"), tok.vocab.token_id("▁b")
        views = [LMView(0, (), model.fresh_cache())]
        k = tokenizable_prefix_len((BOS_ID, a, b), tok.vocab)
        first, second = (Hypothesis((BOS_ID, a, b), views=views, k=k) for _ in range(2))
        return LMSpec(model, tok, 0.5), views, _fields(views), first, second

    def test_advance_views_leaves_a_sharing_hypothesis_alone(self, tiny):
        spec, views, before, first, second = self._pair(tiny)
        advance_views(first, spec.tokenizer, [spec])
        assert first.views[0].consumed == 1
        assert second.views is views and _fields(views) == before

    def test_apply_lm_scores_leaves_a_sharing_hypothesis_alone(self, tiny):
        spec, views, before, first, second = self._pair(tiny)
        advance_views(first, spec.tokenizer, [spec])
        second.views = first.views
        shared, advanced = first.views, _fields(first.views)
        apply_lm_scores([first], [spec], DecodeCounters())
        assert first.views[0].cache.scored_len == 1
        assert second.views is shared and _fields(shared) == advanced

    @pytest.mark.parametrize("step_type", [_FrameStep, _LabelStep])
    def test_a_full_step_leaves_its_input_beam_alone(self, tiny, step_type):
        tok, model = tiny
        lms = [LMSpec(model, tok, 0.5)]
        em = EmissionMatrix(random_emissions(np.random.default_rng(12), 8, tok.vocab.size))
        mode = "ctc" if step_type is _FrameStep else "labelsync"
        step = step_type(em, DecodeConfig(beam=4, policy=FusionPolicy("always"), lms=lms, mode=mode), tok)
        counters = DecodeCounters()
        beam = [_root(step, lms)]
        for t in range(1, 4):
            beam = _fusing_step(step, beam, t, tok, lms, counters)
        snapshot = [(h, h.views, _fields(h.views)) for h in beam]

        survivors = step.prune(step.expand(beam, 4), None)
        # survivors share their parents' view lists: nothing was copied
        assert any(s.views is h.views for s in survivors for h in beam if s is not h)
        for hyp in survivors:
            advance_views(hyp, tok, lms)
        apply_lm_scores(survivors, lms, counters)

        assert any(s.views[0].cache.scored_len > 0 for s in survivors)
        # every survivor is a new hypothesis, an ended label-sync one carried over too
        assert not any(s is h for s in survivors for h in beam)
        for hyp, views, before in snapshot:
            assert _fields(views) == before
            assert hyp.views is views


class TestHypothesisCarrier:
    def test_k_is_required(self):
        with pytest.raises(TypeError):
            Hypothesis((BOS_ID,))
        with pytest.raises(TypeError):
            Hypothesis((BOS_ID,), 0.0, [], None, 0)  # k is keyword-only

    def test_identity_equality_and_slots(self):
        # beam code tells entries apart by identity: ``h in beam``, ``s is not h``
        views = [LMView(0, (), None)]
        first, second = (ctc_hypothesis((BOS_ID, 5), -1.0, -2.0, views, k=0) for _ in range(2))
        assert first != second and first == first
        assert len({first, second}) == 2
        assert first in [first] and first not in [second]
        assert not hasattr(first, "__dict__")
        with pytest.raises(AttributeError):
            first.label = 5

    def test_one_shape_for_both_modes(self):
        # the acoustic score and the mode's recursion state, nothing per mode beside them
        names = [f.name for f in dataclasses.fields(Hypothesis)]
        assert names == ["tokens", "e2e", "views", "state", "k"]

    def test_ended_is_read_from_the_tokens(self):
        # nothing can set ``ended`` apart from the tokens it describes
        hyp = Hypothesis((BOS_ID, 5, EOS_ID), k=0)
        assert hyp.ended
        assert not Hypothesis((BOS_ID,), k=0).ended
        assert not Hypothesis((BOS_ID, 5), k=0).ended
        with pytest.raises(AttributeError):
            hyp.ended = False
        hyp.tokens = (BOS_ID, 5)
        assert not hyp.ended


class TestApplyLmScores:
    def test_nothing_new_scores_no_tokens(self, tiny):
        tok, model = tiny
        spec = LMSpec(model, tok, 0.5)
        views = [LMView(0, (), model.fresh_cache())]
        hyp = Hypothesis((BOS_ID,), views=views, k=0)
        counters = DecodeCounters()
        apply_lm_scores([hyp], [spec], counters)
        assert _lm_counts(counters) == (1, 0, 0)  # one call, zero hypotheses and tokens

    def test_scores_cover_current_words(self, tiny):
        tok, model = tiny
        spec = LMSpec(model, tok, 0.5)
        a, b = tok.vocab.token_id("▁a"), tok.vocab.token_id("▁b")
        hyp = Hypothesis(
            (BOS_ID, a, b),
            views=[LMView(1, (a,), model.fresh_cache())],
            k=tokenizable_prefix_len((BOS_ID, a, b), tok.vocab),
        )
        counters = DecodeCounters()
        apply_lm_scores([hyp], [spec], counters)
        assert _lm_counts(counters) == (1, 1, 1)
        view = hyp.views[0]
        assert view.cache.scored_len == 1
        assert view.cache.cum_logprob == pytest.approx(
            model.sequence_logprob((BOS_ID, a)), abs=1e-12
        )

    @pytest.mark.parametrize("step_type", [_FrameStep, _LabelStep])
    def test_batch_iterates_to_the_plain_requests(self, tiny, step_type):
        # each view is sent as a family of one empty tail, which stands for the view's request
        tok, model = tiny
        lms = [LMSpec(CountingScorer(model), tok, 0.5), LMSpec(CountingScorer(model), tok, 0.3)]
        em = EmissionMatrix(random_emissions(np.random.default_rng(14), 16, tok.vocab.size))
        mode = "ctc" if step_type is _FrameStep else "labelsync"
        config = DecodeConfig(beam=4, policy=FusionPolicy("always"), lms=lms, mode=mode)
        step, counters = step_type(em, config, tok), DecodeCounters()
        beam, resumed = [_root(step, lms)], 0
        for t in range(1, step.limit + 1):
            beam = step.prune(step.expand(beam, t), None)
            for hyp in beam:
                advance_views(hyp, tok, lms)
            want = [[ScoreRequest(h.views[i].lm_tokens, h.views[i].cache) for h in beam]
                    for i in range(len(lms))]
            apply_lm_scores(beam, lms, counters)
            for spec, plain in zip(lms, want):
                got = spec.scorer.last_requests
                assert got == plain
                assert all(type(r) is ScoreRequest and type(r.tokens) is tuple for r in got)
                assert all(g.cache is p.cache for g, p in zip(got, plain))
                resumed += sum(r.cache.scored_len > 0 for r in got)
            if all(h.ended for h in beam):
                break
        assert resumed > 0


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

    @pytest.mark.parametrize("beam", [1, 5, 10])
    def test_every_nbest_e2e_is_its_ctc_probability(
        self, asr_tok, lm_tok, trigram, corpus_split, beam
    ):
        # an ended hypothesis's ``e2e`` is the exact CTC log-probability of its
        # labels, whether it chose ``</s>`` or was closed at the frame cap
        spec = LMSpec(trigram, lm_tok, 0.5)
        ems = [em for _, em in utterances(asr_tok, corpus_split, 3, noise=0.5, seed0=700)]
        rng = np.random.default_rng(beam)
        ems += [EmissionMatrix(random_emissions(rng, 3, asr_tok.vocab.size)) for _ in range(3)]
        sizes, capped = [], 0
        for em in ems:
            cfg = DecodeConfig(beam, FusionPolicy("shortest"), [spec], mode="labelsync")
            nbest = decode(em, cfg, asr_tok).nbest
            for hyp in nbest:
                assert hyp.tokens[0] == BOS_ID and hyp.tokens[-1] == EOS_ID
                want = forward_ctc(em, hyp.tokens[1:-1])
                assert hyp.e2e_score == pytest.approx(want, abs=1e-9), hyp.tokens
                capped += len(hyp.tokens) - 2 == em.num_frames
            sizes.append(len(nbest))
        assert sizes == [beam] * 6 and capped > 0

    def test_ended_hypotheses_terminate_loop(self, asr_tok, corpus_split):
        line, em = utterances(asr_tok, corpus_split, 1, noise=0.0)[0]
        cfg = DecodeConfig(beam=2, policy=FusionPolicy("never"), lms=[], mode="labelsync")
        result = decode(em, cfg, asr_tok)
        # the loop must exit on the all-ended condition, well before the cap
        assert result.counters.steps < em.num_frames
        assert result.best.tokens[-1] == EOS_ID

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
        self, asr_tok, asr_trigram, corpus_split, monkeypatch
    ):
        _, em = utterances(asr_tok, corpus_split, 1, noise=0.5)[0]
        scorer = _CountingScorer(CtcPrefixScorer(em, EOS_ID, disallowed=(BOS_ID, UNK_ID)))
        monkeypatch.setattr(decoder_mod, "end_scores", scorer.end_scores)
        prune, live_rows = _LabelStep.prune, []

        def recorded_prune(step, cands, extra):
            survivors = prune(step, cands, extra)
            live_rows.append([h.state for h in survivors if not h.ended])
            return survivors

        monkeypatch.setattr(_LabelStep, "prune", recorded_prune)
        cfg = DecodeConfig(
            beam=4,
            policy=FusionPolicy("shallow"),
            lms=[LMSpec(asr_trigram, asr_tok, 0.5)],
            mode="labelsync",
        )
        result = decode(scorer, cfg, asr_tok)
        assert scorer.child_labels
        assert EOS_ID not in scorer.child_labels
        # states for survivors only: each prune with live survivors makes one
        # child call, whose block has exactly one row per live survivor,
        # numbered 0..n-1 in beam order
        sizes = [len(rows) for rows in live_rows if rows]
        assert all(rows == list(range(len(rows))) for rows in live_rows)
        assert [b.r_blank.shape[0] for b in scorer.built] == sizes
        # and exactly one later request for next-token scores reads each
        # block: the next step's expansion, or the closing </s> scores
        assert len(scorer.scored) == len(scorer.built) + 1
        assert all(s is b for s, b in zip(scorer.scored[1:], scorer.built))
        assert len(scorer.child_labels) <= cfg.beam * result.counters.steps
        assert result.counters.hyps_expanded > len(scorer.child_labels)

    @pytest.mark.parametrize("kind", ["never", "shortest", "shallow"])
    def test_one_scorer_call_per_step(self, asr_tok, asr_trigram, corpus_split, kind, monkeypatch):
        # expand scores the beam in one call and prune builds the live
        # survivors' states in at most one; close scores what is left with
        # one end_scores call, never a full candidate_scores block
        ems = [em for _, em in utterances(asr_tok, corpus_split, 3, noise=0.5)]
        # random emissions leave hypotheses unfinished at the step cap
        rng = np.random.default_rng(12)
        ems += [EmissionMatrix(random_emissions(rng, 6, asr_tok.vocab.size)) for _ in range(2)]
        closed = batched = 0
        for em in ems:
            scorer = _CountingScorer(CtcPrefixScorer(em, EOS_ID, disallowed=(BOS_ID, UNK_ID)))
            monkeypatch.setattr(decoder_mod, "end_scores", scorer.end_scores)
            lms = [LMSpec(asr_trigram, asr_tok, 0.5)]
            cfg = DecodeConfig(beam=6, policy=FusionPolicy(kind), lms=lms, mode="labelsync")
            steps = decode(scorer, cfg, asr_tok).counters.steps
            letter = {"candidate_scores": "s", "child": "c", "end_scores": "e"}
            calls = "".join(letter[name] for name, _ in scorer.calls)
            assert re.fullmatch("(sc?)+e?", calls)
            assert calls.count("s") == steps
            assert all(size > 0 for name, size in scorer.calls if name != "candidate_scores")
            closed += calls.count("e")
            batched += max(size for _, size in scorer.calls) > 1
        assert closed > 0
        assert batched == len(ems)

    def test_all_ended_beam_passes_through(self, asr_tok, corpus_split):
        line, em = utterances(asr_tok, corpus_split, 1, noise=0.0)[0]
        cfg = DecodeConfig(beam=3, policy=FusionPolicy("never"), lms=[], mode="labelsync")
        result = decode(em, cfg, asr_tok)
        assert all(h.tokens[-1] == EOS_ID for h in result.nbest)
        assert result.best.text == line


class _CountingScorer:
    """Prefix-scorer proxy that records each call, each child row's parent, and the blocks.

    ``built`` holds the blocks ``child`` returned and ``scored`` those that
    ``candidate_scores`` or ``end_scores`` read, in call order.
    """

    def __init__(self, inner):
        self.inner = inner
        self.T = inner.T
        self.calls = []
        self.child_labels = []
        self.parent_rows = []
        self.built = []
        self.scored = []

    def root(self):
        return self.inner.root()

    def child(self, block, rows, labels):
        self.calls.append(("child", len(rows)))
        self.child_labels.extend(labels)
        self.parent_rows.extend(_row_bytes(block, r) for r in rows)
        out = self.inner.child(block, rows, labels)
        self.built.append(out)
        return out

    def candidate_scores(self, block):
        self.calls.append(("candidate_scores", len(block.last_label)))
        self.scored.append(block)
        return self.inner.candidate_scores(block)

    def end_scores(self, block):
        """Stands in for ``decoder.end_scores``, which reads the block alone."""
        self.calls.append(("end_scores", len(block.last_label)))
        self.scored.append(block)
        return end_scores(block)


class TestValidation:
    @pytest.mark.parametrize("extra", [2, -2])
    def test_label_scorer_rows_must_cover_every_id(self, asr_tok, extra):
        # block column c is id c, so a wider block would leave ids unread and
        # a narrower one index past it; the proxy has no ``V``, as
        # perfbench's traced scorer has none, so the block's width is checked
        width = asr_tok.vocab.size + extra
        em = EmissionMatrix(random_emissions(np.random.default_rng(8), 6, width))
        scorer = _CountingScorer(CtcPrefixScorer(em, EOS_ID, disallowed=(BOS_ID, UNK_ID)))
        assert not hasattr(scorer, "V")
        cfg = DecodeConfig(beam=2, policy=FusionPolicy("never"), lms=[], mode="labelsync")
        message = f"prefix scorer rows have {width} scores, not {asr_tok.vocab.size}"
        with pytest.raises(DecodeError, match=message):
            decode(scorer, cfg, asr_tok)

    @pytest.mark.parametrize("mode", MODES)
    def test_vocab_size_mismatch(self, asr_tok, mode):
        em = EmissionMatrix(random_emissions(np.random.default_rng(7), 3, 8))
        cfg = DecodeConfig(beam=2, policy=FusionPolicy("never"), lms=[], mode=mode)
        message = f"emissions have 8 columns but the vocabulary has {asr_tok.vocab.size} tokens"
        with pytest.raises(DecodeError, match=message):
            decode(em, cfg, asr_tok)

    def test_frame_mode_requires_emissions(self, asr_tok):
        # neither mode takes a source that is no emissions; ctc takes no prefix scorer
        em = EmissionMatrix(random_emissions(np.random.default_rng(7), 3, asr_tok.vocab.size))
        scorer = CtcPrefixScorer(em, EOS_ID, disallowed=(BOS_ID, UNK_ID))
        for mode, source in (("ctc", object()), ("labelsync", object()), ("ctc", scorer)):
            cfg = DecodeConfig(beam=2, policy=FusionPolicy("never"), lms=[], mode=mode)
            with pytest.raises(DecodeError, match=f"mode {mode} needs emissions"):
                decode(source, cfg, asr_tok)

    def test_beam_validation(self):
        with pytest.raises(DecodeError):
            DecodeConfig(beam=0, policy=FusionPolicy("never"), lms=[])

    @pytest.mark.parametrize(
        "field, value",
        [
            ("beam", 2.5),
            ("beam", True),
            ("beam", "3"),
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
        config(UncalledScorer(), asr_tok)

    def test_weight_validation(self, tiny):
        tok, model = tiny
        with pytest.raises(DecodeError):
            DecodeConfig(
                beam=2,
                policy=FusionPolicy("never"),
                lms=[LMSpec(model, tok, float("nan"))],
            )

    @pytest.mark.parametrize("policy", ["never", None, ("shortest", 0), FusionPolicy])
    def test_policy_must_be_a_fusion_policy(self, policy):
        # a policy name used to pass here and fail inside decode
        with pytest.raises(DecodeError, match="policy must be a FusionPolicy"):
            DecodeConfig(beam=2, policy=policy, lms=[])

    @pytest.mark.parametrize("weight", ["x", "0.5", None, True, False, 1j, float("inf"), [0.5]])
    def test_weight_must_be_a_finite_real_number(self, tiny, weight):
        tok, model = tiny
        with pytest.raises(DecodeError, match="LM 1: weight must be a finite real number"):
            DecodeConfig(
                beam=2,
                policy=FusionPolicy("never"),
                lms=[LMSpec(model, tok, 0.5), LMSpec(model, tok, weight)],
            )

    @pytest.mark.parametrize("weight", [0, 1, -0.25, np.float64(0.5), np.int64(2)])
    def test_real_weights_are_accepted(self, tiny, weight):
        tok, model = tiny
        DecodeConfig(beam=2, policy=FusionPolicy("never"), lms=[LMSpec(model, tok, weight)])

    # each of these used to pass here and fail inside decode, or fail with another error
    @pytest.mark.parametrize("lms", [None, {}, "lm", iter(())])
    def test_lms_must_be_a_list_or_tuple(self, lms):
        with pytest.raises(DecodeError, match="lms must be a list or tuple of LMSpec"):
            DecodeConfig(beam=2, policy=FusionPolicy("never"), lms=lms)

    @pytest.mark.parametrize("entry", [object(), None, ("scorer", "tokenizer", 0.5)])
    def test_each_lm_must_be_an_lm_spec(self, tiny, entry):
        tok, model = tiny
        with pytest.raises(DecodeError, match="LM 1: expected an LMSpec"):
            DecodeConfig(beam=2, policy=FusionPolicy("never"),
                         lms=[LMSpec(model, tok, 0.5), entry])

    @pytest.mark.parametrize("tokenizer", ["tok", None, make_vocab("▁a", "▁b", "c")])
    def test_the_tokenizer_must_be_a_tokenizer(self, tiny, tokenizer):
        _, model = tiny
        with pytest.raises(DecodeError, match="LM 0: tokenizer must be a Tokenizer"):
            DecodeConfig(beam=2, policy=FusionPolicy("never"), lms=[LMSpec(model, tokenizer, 0.5)])

    @pytest.mark.parametrize("method", ["score_batch_incremental", "fresh_cache"])
    def test_the_scorer_must_score_batches_and_give_fresh_caches(self, tiny, method):
        tok, _ = tiny
        other = "fresh_cache" if method == "score_batch_incremental" else "score_batch_incremental"
        # a scorer without the method, or with it as data, is no scorer
        lacking = type("Lacking", (), {other: lambda self, *args: None})()
        as_data = type("AsData", (), {other: lambda self, *args: None, method: 1})()
        for scorer in (lacking, as_data):
            with pytest.raises(DecodeError, match=f"LM 0: the scorer has no {method}"):
                DecodeConfig(beam=2, policy=FusionPolicy("never"), lms=[LMSpec(scorer, tok, 0.5)])

    def test_a_missing_scorer_is_no_scorer(self, tiny):
        tok, _ = tiny
        with pytest.raises(DecodeError, match="LM 0: the scorer has no score_batch_incremental"):
            DecodeConfig(beam=2, policy=FusionPolicy("never"), lms=[LMSpec(None, tok, 0.5)])

    @pytest.mark.parametrize("flag", ["no", "yes", 0, 1, None, np.bool_(True)])
    def test_use_in_final_must_be_a_bool(self, tiny, flag):
        tok, model = tiny
        with pytest.raises(DecodeError, match="LM 0: use_in_final must be a bool"):
            DecodeConfig(beam=2, policy=FusionPolicy("never"),
                         lms=[LMSpec(model, tok, 0.5, use_in_final=flag)])

    @pytest.mark.parametrize("flag", ["no", "", 0, 1, None, np.bool_(False)])
    def test_keep_trace_must_be_a_bool(self, flag):
        # "no" used to be accepted, and kept a trace
        with pytest.raises(DecodeError, match="keep_trace must be a bool"):
            DecodeConfig(beam=2, policy=FusionPolicy("never"), lms=[], keep_trace=flag)

    @pytest.mark.parametrize("asr_tok", ["tok", None, make_vocab("▁a")])
    def test_decode_needs_a_tokenizer(self, asr_tok):
        # a string used to fail inside decode with an AttributeError
        em = EmissionMatrix(random_emissions(np.random.default_rng(7), 3, 8))
        cfg = DecodeConfig(beam=2, policy=FusionPolicy("never"), lms=[])
        with pytest.raises(DecodeError, match="asr_tok must be a Tokenizer"):
            decode(em, cfg, asr_tok)

    @pytest.mark.parametrize("config", [None, {"beam": 2, "mode": "ctc"}, "ctc"])
    def test_decode_needs_a_decode_config(self, asr_tok, config):
        # a dict used to fail inside decode with an AttributeError
        em = EmissionMatrix(random_emissions(np.random.default_rng(7), 3, asr_tok.vocab.size))
        with pytest.raises(DecodeError, match="config must be a DecodeConfig"):
            decode(em, config, asr_tok)

    def test_scorer_proxies_and_tuples_of_specs_are_accepted(self, tiny):
        tok, model = tiny
        for scorer in (model, CountingScorer(model), UncalledScorer()):
            for use_in_final in (True, False):
                spec = LMSpec(scorer, tok, 0.5, use_in_final)
                DecodeConfig(beam=2, policy=FusionPolicy("never"), lms=(spec, spec))
                DecodeConfig(beam=2, policy=FusionPolicy("never"), lms=[spec])
