from dataclasses import dataclass
from typing import Sequence

import numpy as np
import pytest

from beamfuse.acoustic import (
    BLANK_ID,
    NEG_INF,
    CtcPrefixScorer,
    EmissionMatrix,
    PrefixBlock,
    collapse_path,
    enumerate_collapse_table,
    lse2,
)
from beamfuse.decoder import (
    DecodeCounters,
    DecodeResult,
    Hypothesis,
    LMSpec,
    LMView,
    ScoredHypothesis,
    StepTrace,
    _select_top,
    advance_views,
)
from beamfuse.harness import generate_corpus, split_corpus
from beamfuse.lm import FamilyBatch, LMError, PrefixCacheEntry, ScoreRequest, train_ngram
from beamfuse.tokenization import (
    BOS_ID,
    EOS_ID,
    NUM_SPECIALS,
    SPECIAL_TOKENS,
    UNK_ID,
    Tokenizer,
    Vocabulary,
    build_vocab,
    tokenizable_prefix_len,
)


@pytest.fixture(scope="session")
def corpus():
    return generate_corpus(11, 800, 140)


@pytest.fixture(scope="session")
def corpus_split(corpus):
    return split_corpus(corpus)


@pytest.fixture(scope="session")
def asr_tok(corpus_split):
    return Tokenizer(build_vocab(corpus_split[0], 64))


@pytest.fixture(scope="session")
def lm_tok(corpus_split):
    return Tokenizer(build_vocab(corpus_split[0], 160))


@pytest.fixture(scope="session")
def trigram(corpus_split, lm_tok):
    train, _ = corpus_split
    return train_ngram([lm_tok.encode(line) for line in train], lm_tok.vocab, 3, 0.4)


@pytest.fixture(scope="session")
def asr_trigram(corpus_split, asr_tok):
    train, _ = corpus_split
    return train_ngram([asr_tok.encode(line) for line in train], asr_tok.vocab, 3, 0.4)


def make_vocab(*pieces: str) -> Vocabulary:
    """Vocabulary with the reserved ids followed by the given pieces."""
    return Vocabulary(SPECIAL_TOKENS + tuple(pieces))


# An odd ASR vocabulary: a marker-only piece, pieces with spaces inside,
# before and after (one a non-ASCII space), and unmarked pieces that
# continue a word.
ODD_PIECES = ("▁a", "b", "▁", "c d", "▁e f", "g\u3000", " h", "▁ab", "i")


def clear_memos(*toks: Tokenizer) -> None:
    """Empty the memos that outlive a decode: ``toks``' encodings and every ``tail_rows`` memo.

    Each tokenizer's map of ``tail_rows`` memos is emptied whole, so the
    next decode builds each memo anew, its pieces' words included.
    """
    for tok in toks:
        for memo in (tok.encode_word, tok.encode_rest, tok.open_word):
            memo.cache_clear()
        tok._tail_rows.clear()


def random_emissions(rng: np.random.Generator, frames: int, vocab: int) -> np.ndarray:
    """Normalized random log-probability rows."""
    logits = rng.normal(size=(frames, vocab))
    m = logits.max(axis=1, keepdims=True)
    return logits - (m + np.log(np.exp(logits - m).sum(axis=1, keepdims=True)))


class CountingScorer:
    """LM scorer double that counts at the scorer boundary what it is asked to do.

    ``calls`` counts batches; ``hypotheses`` the requests with tokens past
    their cache's ``scored_len``, and ``tokens`` those tokens.  ``on_call``,
    if set, runs before each call is served with the call's number (from 1).
    ``last_requests`` are the requests of the latest call.
    """

    def __init__(self, inner):
        self.inner = inner
        self.vocab = inner.vocab
        self.on_call = None
        self.calls = self.hypotheses = self.tokens = 0
        self.last_requests = []

    def counts(self) -> tuple[int, int, int]:
        return (self.calls, self.hypotheses, self.tokens)

    def fresh_cache(self):
        return self.inner.fresh_cache()

    def sequence_logprob(self, seq):
        return self.inner.sequence_logprob(seq)

    def score_batch_incremental(self, requests):
        self.calls += 1
        self.last_requests = list(requests)
        if self.on_call is not None:
            self.on_call(self.calls)
        for req in requests:
            new = len(req.tokens) - req.cache.scored_len
            if new > 0:
                self.hypotheses += 1
                self.tokens += new
        return self.inner.score_batch_incremental(requests)


def as_families(requests) -> FamilyBatch:
    """Plain requests as one-child families ``(cache, tokens, ((),))``, in request order."""
    return FamilyBatch([(req.cache, req.tokens, ((),)) for req in requests])


def score_caches(scorer, requests) -> list:
    """The new caches for plain requests, each sent to ``scorer`` as a one-child family."""
    return scorer.score_batch_incremental(as_families(requests))[0]


def reference_score_batch(model, requests) -> list:
    """``NGramModel.score_batch_incremental`` one request at a time, nothing shared.

    Each request is checked, then its unscored suffix is scored token by
    token from its own cache with ``logprob``.  A context is read as its
    last order-1 ids, a tuple, before the first token and after each one.
    Returns the new caches.
    """

    def last(ids) -> tuple:
        return tuple(ids)[-(model.order - 1) :] if model.order > 1 else ()

    caches = []
    for req in requests:
        tokens = tuple(req.tokens)
        cache = req.cache
        if cache.scored_len > len(tokens):
            raise LMError(f"cache covers {cache.scored_len} tokens but sequence has {len(tokens)}")
        if tokens[: cache.scored_len] != cache.tokens:
            raise LMError("cached prefix is not a prefix of the submitted sequence")
        cum = cache.cum_logprob
        ctx = last(cache.context)
        for token in tokens[cache.scored_len :]:
            cum += model.logprob(ctx, token)
            ctx = last(ctx + (token,))
        caches.append(PrefixCacheEntry(len(tokens), cum, ctx, tokens))
    return caches


# -- test-only CTC oracles -----------------------------------------------------


def brute_force_ctc_prefix(em: EmissionMatrix, prefix: Sequence[int]) -> float:
    """log P(paths collapsing to any labelling that starts with ``prefix``)."""
    table = enumerate_collapse_table(em)
    want = tuple(prefix)
    acc = NEG_INF
    for key, logp in table.items():
        if key[: len(want)] == want:
            acc = lse2(acc, logp)
    return acc


def greedy_labels(em: EmissionMatrix) -> tuple[int, ...]:
    """Collapse of the per-frame argmax."""
    return collapse_path(np.argmax(em.log_probs, axis=1).tolist())


# -- the CTC prefix recursion, one (prefix, label) pair at a time ---------------


@dataclass(frozen=True)
class CTCScorePair:
    """Path probabilities for one prefix, split by blank / non-blank ending."""

    log_blank: float
    log_nonblank: float

    def total(self) -> float:
        return lse2(self.log_blank, self.log_nonblank)


EMPTY_PREFIX_PAIR = CTCScorePair(0.0, NEG_INF)


def ctc_hypothesis(tokens, log_blank, log_nonblank, views, *, k) -> Hypothesis:
    """A ``ctc`` hypothesis: state ``(log_blank, log_nonblank)``, ``e2e`` their total."""
    return Hypothesis(tokens, lse2(log_blank, log_nonblank), views, (log_blank, log_nonblank), k=k)


def plus_stale_lm(score: float, weights, views) -> float:
    """``score`` plus each LM's ``weight * cum_logprob``, added one LM at a time in LM order."""
    for w, view in zip(weights, views):
        score += w * view.cache.cum_logprob
    return score


def ctc_step_extend(
    pair: CTCScorePair,
    frame: Sequence[float],
    last_label: int | None,
    new_label: int | None,
) -> CTCScorePair:
    """One frame of the prefix recursion.

    ``new_label=None`` is the stay case: the prefix absorbs a blank or a
    repeat of its last label.  Otherwise the prefix is extended by
    ``new_label``; extending by the same label again is only possible from
    blank-ending paths.
    """
    if new_label is None:
        log_blank = pair.total() + frame[BLANK_ID]
        if last_label is None:
            log_nonblank = NEG_INF
        else:
            log_nonblank = pair.log_nonblank + frame[last_label]
        return CTCScorePair(log_blank, log_nonblank)
    if not 0 < new_label < len(frame):
        raise ValueError(f"invalid label id {new_label}")
    if new_label == last_label:
        log_nonblank = pair.log_blank + frame[new_label]
    else:
        log_nonblank = pair.total() + frame[new_label]
    return CTCScorePair(NEG_INF, log_nonblank)


def advanced_view(ids, asr_tok: Tokenizer, lm_tok: Tokenizer, stepwise: bool = False) -> LMView:
    """The LM view that ``advance_views`` builds for a hypothesis (``<s>`` excluded).

    ``stepwise`` advances after every ASR token, as the decoder does while a
    hypothesis grows; otherwise the view is advanced once over all of ``ids``.
    """
    spec = LMSpec(None, lm_tok, 1.0)
    hyp = Hypothesis((BOS_ID,), views=[LMView(0, (), None)], k=0)
    for end in range(1, len(ids) + 1) if stepwise else [len(ids)]:
        hyp.tokens = (BOS_ID, *ids[:end])
        hyp.k = tokenizable_prefix_len(hyp.tokens, asr_tok.vocab)
        advance_views(hyp, asr_tok, [spec])
    return hyp.views[0]


class _RefCand:
    __slots__ = ("log_blank", "log_nonblank", "views", "views_key")

    def __init__(self, log_blank, log_nonblank, views, views_key):
        self.log_blank = log_blank
        self.log_nonblank = log_nonblank
        self.views = views
        self.views_key = views_key


def _merge(cands, key, pair, views, views_key) -> None:
    rec = cands.get(key)
    if rec is None:
        cands[key] = _RefCand(pair.log_blank, pair.log_nonblank, views, views_key)
        return
    rec.log_blank = lse2(rec.log_blank, pair.log_blank)
    rec.log_nonblank = lse2(rec.log_nonblank, pair.log_nonblank)
    if views_key > rec.views_key:
        rec.views = views
        rec.views_key = views_key


def reference_frame_candidates(beam, frame, real_ids) -> dict:
    """The frame step one (hypothesis, token) pair at a time: tokens -> merged record.

    Each hypothesis adds its stay case and one extension per ordinary token,
    in beam order; a prefix reached twice is merged by log-sum and keeps the
    views with the larger (scored_len, consumed) key, the first one on a tie.
    """
    cands: dict = {}
    for hyp in beam:
        pair = CTCScorePair(*hyp.state)
        last = hyp.tokens[-1] if len(hyp.tokens) > 1 else None
        vkey = tuple((v.cache.scored_len, v.consumed) for v in hyp.views)
        _merge(cands, hyp.tokens, ctc_step_extend(pair, frame, last, None), hyp.views, vkey)
        for c in real_ids:
            ext = ctc_step_extend(pair, frame, last, c)
            _merge(cands, hyp.tokens + (c,), ext, hyp.views, vkey)
    return cands


def reference_frame_step(beam, frame, real_ids, beam_size, weights) -> list[Hypothesis]:
    """Reference for ``extend_frame`` + ``prune_frame_candidates``: full sort of every candidate.

    Its beams have no word-begin ids, so every survivor's ``k`` is 0.
    """
    entries = []
    for tokens, rec in reference_frame_candidates(beam, frame, real_ids).items():
        comb = plus_stale_lm(lse2(rec.log_blank, rec.log_nonblank), weights, rec.views)
        entries.append((comb, tokens, rec))
    entries.sort(key=lambda e: (-e[0], len(e[1]), e[1]))
    if beam_size is not None:
        entries = entries[:beam_size]
    return [
        ctc_hypothesis(tokens, rec.log_blank, rec.log_nonblank, rec.views, k=0)
        for _, tokens, rec in entries
    ]


def block_rows(block: PrefixBlock, idx) -> PrefixBlock:
    """The rows ``idx`` of ``block``, in that order, as a block of their own."""
    idx = np.asarray(idx, dtype=np.intp)
    return PrefixBlock(block.r_blank[idx], block.r_nonblank[idx], block.last_label[idx])


def join_blocks(blocks: Sequence[PrefixBlock]) -> PrefixBlock:
    """The rows of ``blocks``, in order, as one block: a beam of single-row states."""
    fields = ("r_blank", "r_nonblank", "last_label")
    return PrefixBlock(*(np.concatenate([getattr(b, f) for b in blocks]) for f in fields))


def one_row(r_blank, r_nonblank, last_label: int) -> PrefixBlock:
    """A 1-row block from one prefix's 1-D forward variables."""
    return PrefixBlock(r_blank[None], r_nonblank[None], np.array([last_label]))


def _single(state: PrefixBlock) -> tuple:
    """A 1-row block's 1-D ``r_blank`` and ``r_nonblank``, and its ``last_label``."""
    (r_blank,), (r_nonblank,) = state.r_blank, state.r_nonblank
    return r_blank, r_nonblank, int(state.last_label[0])


def reference_child(scorer, state: PrefixBlock, label: int) -> PrefixBlock:
    """``CtcPrefixScorer.child`` of a 1-row block as the frame-by-frame recursion over T."""
    r_blank, r_nonblank, last = _single(state)
    if label == last:
        phi = r_blank[:-1]
    else:
        phi = np.logaddexp(r_blank[:-1], r_nonblank[:-1])
    emit = scorer.frames[:, label]
    r_nb = np.full(scorer.T + 1, NEG_INF)
    r_b = np.full(scorer.T + 1, NEG_INF)
    for t in range(1, scorer.T + 1):
        r_nb[t] = emit[t - 1] + lse2(float(phi[t - 1]), float(r_nb[t - 1]))
        r_b[t] = scorer.frames[t - 1, BLANK_ID] + lse2(float(r_b[t - 1]), float(r_nb[t - 1]))
    return one_row(r_b, r_nb, label)


def _cumsum0(column: np.ndarray) -> np.ndarray:
    """Cumulative sums of ``column`` with a leading 0: entry t sums the first t values."""
    out = np.empty(column.size + 1)
    out[0] = 0.0
    np.cumsum(column, out=out[1:])
    return out


def closed_form_child(scorer, state: PrefixBlock, label: int) -> PrefixBlock:
    """``CtcPrefixScorer.child`` for a 1-row block: the same closed form over 1-D arrays.

    The batched rows must equal this bit for bit; ``reference_child`` is the
    loop it drifts from by rounding only.
    """
    r_blank, r_nonblank, last = _single(state)
    if label == last:
        phi = r_blank[:-1]
    else:
        phi = np.logaddexp(r_blank[:-1], r_nonblank[:-1])
    emit = scorer.frames[:, label]
    cum = _cumsum0(emit)
    bc = _cumsum0(scorer.frames[:, BLANK_ID])
    r_nb = np.empty(scorer.T + 1)
    r_nb[0] = NEG_INF
    r_nb[1:] = cum[1:] + np.logaddexp.accumulate(phi - cum[:-1])
    r_b = np.empty(scorer.T + 1)
    r_b[0] = NEG_INF
    r_b[1:] = bc[1:] + np.logaddexp.accumulate(r_nb[:-1] - bc[:-1])
    return one_row(r_b, r_nb, label)


def reference_candidate_scores(scorer, state: PrefixBlock) -> np.ndarray:
    """``CtcPrefixScorer.candidate_scores`` of a 1-row block, over every frame's (T, V) matrix.

    Column ``c`` is log ψ of the prefix extended by ``c``, the log-space sum
    over frames, and ``</s>`` the exact-labelling log-probability by ``lse2``.
    """
    r_blank, r_nonblank, last = _single(state)
    both = np.logaddexp(r_blank[:-1], r_nonblank[:-1])
    phi = np.broadcast_to(both[:, None], (scorer.T, scorer.V)).copy()
    if last >= 0:
        phi[:, last] = r_blank[:-1]
    acc = phi + scorer.frames
    m = acc.max(axis=0)
    safe_m = np.where(np.isfinite(m), m, 0.0)
    with np.errstate(divide="ignore"):
        scores = safe_m + np.log(np.exp(acc - safe_m).sum(axis=0))
    scores[~np.isfinite(m)] = NEG_INF
    scores[scorer.eos_id] = lse2(float(r_nonblank[scorer.T]), float(r_blank[scorer.T]))
    scores[scorer._banned] = NEG_INF
    return scores


def reference_label_entries(scorer, beam, candidate_ids, weights) -> list:
    """The label step one (hypothesis, token) pair at a time.

    Each live hypothesis's state is its own 1-row block.  Entries are
    ``(stale combined score, tokens, (parent, label score))``; an ended
    hypothesis is carried over as itself with label score ``None``, and
    an extension whose label score is -inf is no candidate.  A label score
    is the extension's acoustic score, its prefix log-probability, and the
    stale combined score is that plus ``plus_stale_lm``'s LM terms.
    """
    entries = []
    for hyp in beam:
        if hyp.ended:
            entries.append((plus_stale_lm(hyp.e2e, weights, hyp.views), hyp.tokens, (hyp, None)))
            continue
        scores = scorer.candidate_scores(hyp.state)[0]
        for c in candidate_ids:
            s = float(scores[c])
            if s == NEG_INF:
                continue
            comb = plus_stale_lm(s, weights, hyp.views)
            entries.append((comb, hyp.tokens + (c,), (hyp, s)))
    return entries


def reference_label_step(scorer, beam, candidate_ids, beam_size, weights, vocab) -> list:
    """Reference for the label step's expand + prune: full sort of every entry.

    Returns ``(survivor, parent)`` pairs; a carried-over ended hypothesis is
    its own survivor with parent ``None``, and only live survivors get a
    prefix-scorer state, a 1-row block from ``scorer.child``.  A new
    survivor's ``k`` is scanned over ``vocab``.
    """
    out = []
    entries = reference_label_entries(scorer, beam, candidate_ids, weights)
    for _, tokens, (parent, s) in _select_top(entries, beam_size):
        if s is None:
            out.append((parent, None))
            continue
        hyp = Hypothesis(tokens, e2e=s, views=parent.views, k=tokenizable_prefix_len(tokens, vocab))
        if not hyp.ended:
            hyp.state = scorer.child(parent.state, [0], [tokens[-1]])
        out.append((hyp, parent))
    return out


def reference_shallow_step(mode, source, beam, asr_tok, lms, beam_size):
    """Reference for one shallow-fusion step: expand, score from scratch, sort, advance.

    ``source`` is the emission row (``ctc``) or the prefix scorer
    (``labelsync``).  Every candidate's LM score is the from-scratch
    ``sequence_logprob`` of its whole re-tokenized text, added to its stale
    combined score before a full sort.  Returns the survivors, whose views
    are re-tokenized from scratch over their complete words and keep the
    cache they inherited, and each LM's expected (calls, hypotheses, tokens)
    counter delta.
    """
    weights = [spec.weight for spec in lms]
    entries = []
    if mode == "ctc":
        real_ids = range(NUM_SPECIALS, asr_tok.vocab.size)
        for tokens, rec in reference_frame_candidates(beam, source, real_ids).items():
            comb = plus_stale_lm(lse2(rec.log_blank, rec.log_nonblank), weights, rec.views)
            k = tokenizable_prefix_len(tokens, asr_tok.vocab)
            hyp = ctc_hypothesis(tokens, rec.log_blank, rec.log_nonblank, rec.views, k=k)
            entries.append((comb, tokens, hyp))
    else:
        ids = list(range(NUM_SPECIALS, asr_tok.vocab.size)) + [EOS_ID]
        for comb, tokens, (parent, s) in reference_label_entries(source, beam, ids, weights):
            e2e = parent.e2e if s is None else s
            k = tokenizable_prefix_len(tokens, asr_tok.vocab)
            hyp = Hypothesis(tokens, e2e=e2e, views=parent.views, k=k)
            entries.append((comb, tokens, hyp))

    lm_totals = [0.0] * len(entries)
    deltas = []
    for spec in lms:
        seqs = [tuple(spec.tokenizer.encode(asr_tok.decode(tokens))) for _, tokens, _ in entries]
        for j, seq in enumerate(seqs):
            lm_totals[j] += spec.weight * spec.scorer.sequence_logprob((BOS_ID, *seq))
        deltas.append((1, sum(1 for seq in seqs if seq), sum(len(seq) for seq in seqs)))
    ranked = [(comb + lm, tokens, hyp) for (comb, tokens, hyp), lm in zip(entries, lm_totals)]

    survivors = []
    for _, tokens, hyp in _select_top(ranked, beam_size):
        k = tokenizable_prefix_len(tokens, asr_tok.vocab)
        text = asr_tok.decode(tokens[1 : 1 + k])
        hyp.views = [
            LMView(k, tuple(spec.tokenizer.encode(text)), view.cache)
            for spec, view in zip(lms, hyp.views)
        ]
        survivors.append(hyp)
    return survivors, deltas


def candidate_views(cands, j: int) -> list:
    """Candidate ``j``'s views, read from the block's fields."""
    n = len(cands.singles)
    return cands.single_views[j] if j < n else cands.parents[(j - n) // len(cands.begins)].views


def reference_shallow_requests(cands, lms, asr_tok) -> list:
    """Each LM's shallow requests built one flat candidate at a time.

    Every valid candidate ``j``, in index order, is decoded from its views'
    ``consumed`` on and re-tokenized with ``Tokenizer.extend``: the request builder
    as it was before requests were built per parent.  Returns each LM's
    ``(lm_tokens, cache)`` pairs.
    """
    out = [[] for _ in lms]
    for j in np.flatnonzero(cands.valid).tolist():
        tokens, views = cands.tokens(j), candidate_views(cands, j)
        words = asr_tok.decode(tokens[1 + views[0].consumed :]).split()
        for spec, view, reqs in zip(lms, views, out):
            reqs.append((spec.tokenizer.extend(view.lm_tokens, words), view.cache))
    return out


# -- a whole decode, one candidate at a time -------------------------------------


def _count_requests(counters, requests) -> None:
    """One LM call: each request with tokens past its cache's ``scored_len``, and those tokens."""
    new = [len(r.tokens) - r.cache.scored_len for r in requests]
    counters.lm_calls += 1
    counters.lm_hypotheses += sum(1 for n in new if n > 0)
    counters.lm_tokens += sum(n for n in new if n > 0)


def _reference_fires(policy, beam, t, shortest, prev_shortest) -> bool:
    """Each policy's definition: whether the delayed pass runs after step ``t``."""
    if policy.kind == "always":
        return True
    if policy.kind == "shortest":
        return shortest > prev_shortest
    if policy.kind == "interval":
        unscored = any(v.cache.scored_len < len(v.lm_tokens) for h in beam for v in h.views)
        return t % policy.interval == 0 and unscored
    return False  # never, shallow


def _reference_label_survivors(scorer, beam, ids, beam_size, weights) -> list:
    """The label step's survivors from ``reference_label_entries`` and a full sort, ``k`` unset.

    An ended hypothesis is carried over as itself; an extension gets its
    parent's views and its own state from ``closed_form_child`` if it is live.
    """
    survivors = []
    entries = reference_label_entries(scorer, beam, ids, weights)
    for _, tokens, (parent, s) in _select_top(entries, beam_size):
        if s is None:
            survivors.append(parent)
            continue
        hyp = Hypothesis(tokens, e2e=s, views=parent.views, k=0)
        if not hyp.ended:
            hyp.state = closed_form_child(scorer, parent.state, tokens[-1])
        survivors.append(hyp)
    return survivors


def reference_decode(source, config, asr_tok: Tokenizer) -> DecodeResult:
    """``decode`` composed from the per-step references, one candidate at a time.

    ``source`` is an ``EmissionMatrix``, and every scorer is an ``NGramModel``.
    Each step expands and prunes with ``reference_frame_step`` or
    ``reference_label_entries`` (``reference_shallow_step`` for shallow
    fusion) and sets each survivor's ``k`` with ``tokenizable_prefix_len``.
    Views are advanced from scratch with ``lm_tok.encode(asr_tok.decode(...))``.
    Fusion is decided from each policy's definition and scored with
    ``reference_score_batch``.  A label-sync state is a 1-row block, each
    child's from ``closed_form_child``, and an extension's ``e2e`` is its
    label score.  The last beam is closed by setting each unfinished
    hypothesis's ``e2e`` to ``reference_candidate_scores``'s ``</s>``
    column.  Finalization scores
    every whole hypothesis plus ``</s>`` from a fresh cache.
    """
    lms, beam_size = config.lms, config.beam
    weights = [spec.weight for spec in lms]
    vocab = asr_tok.vocab
    real_ids = range(NUM_SPECIALS, vocab.size)
    shallow = config.policy.kind == "shallow" and bool(lms)
    views = [LMView(0, (), spec.scorer.fresh_cache()) for spec in lms]
    if config.mode == "ctc":
        limit = source.num_frames
        beam = [ctc_hypothesis((BOS_ID,), 0.0, NEG_INF, views, k=0)]
    else:
        scorer = CtcPrefixScorer(source, EOS_ID, disallowed=(BOS_ID, UNK_ID))
        limit = scorer.T
        beam = [Hypothesis((BOS_ID,), views=views, state=scorer.root(), k=0)]
    counters = DecodeCounters()
    trace = []
    prev_shortest = 0
    for t in range(1, limit + 1):
        counters.steps += 1
        if config.mode == "ctc":
            frame = source.log_probs[t - 1]
            counters.hyps_expanded += len(reference_frame_candidates(beam, frame, real_ids))
            if shallow:
                survivors, deltas = reference_shallow_step(
                    "ctc", frame, beam, asr_tok, lms, beam_size
                )
            else:
                survivors = reference_frame_step(beam, frame, real_ids, beam_size, weights)
        else:
            ids = [*real_ids, EOS_ID]
            counters.hyps_expanded += len(reference_label_entries(scorer, beam, ids, weights))
            if shallow:
                parents = {h.tokens: h for h in beam}
                survivors, deltas = reference_shallow_step(
                    "labelsync", scorer, beam, asr_tok, lms, beam_size
                )
                for hyp in survivors:
                    if not hyp.ended:
                        parent = parents[hyp.tokens[:-1]]
                        hyp.state = closed_form_child(scorer, parent.state, hyp.tokens[-1])
            else:
                survivors = _reference_label_survivors(scorer, beam, ids, beam_size, weights)
        if shallow:
            for calls, hyps, tokens in deltas:
                counters.lm_calls += calls
                counters.lm_hypotheses += hyps
                counters.lm_tokens += tokens
        beam = survivors
        for hyp in beam:
            hyp.k = k = tokenizable_prefix_len(hyp.tokens, vocab)
            text = asr_tok.decode(hyp.tokens[1 : 1 + k])
            hyp.views = [
                LMView(k, tuple(spec.tokenizer.encode(text)), view.cache)
                for spec, view in zip(lms, hyp.views)
            ]
        fired, shortest = False, None
        if lms:
            shortest = min(len(h.views[0].lm_tokens) for h in beam)
            fired = _reference_fires(config.policy, beam, t, shortest, prev_shortest)
            prev_shortest = shortest
        if fired:
            for i, spec in enumerate(lms):
                requests = [ScoreRequest(h.views[i].lm_tokens, h.views[i].cache) for h in beam]
                _count_requests(counters, requests)
                for hyp, cache in zip(beam, reference_score_batch(spec.scorer, requests)):
                    view = hyp.views[i]
                    hyp.views = [*hyp.views[:i], view._replace(cache=cache), *hyp.views[i + 1 :]]
        if config.keep_trace and not shallow:
            lm_state = ()
            if lms:
                caches = [h.views[0].cache for h in beam]
                lm_state = tuple((c.scored_len, c.cum_logprob) for c in caches)
            trace.append(StepTrace(t, fired, shortest, lm_state))
        if all(h.ended for h in beam):
            break

    for hyp in beam:
        if config.mode == "ctc":
            hyp.e2e = lse2(*hyp.state)
        elif not hyp.ended:
            hyp.e2e = float(reference_candidate_scores(scorer, hyp.state)[EOS_ID])
            hyp.tokens += (EOS_ID,)
    entries = []
    lm_scores = [[] for _ in beam]
    for i, spec in enumerate(lms):
        requests = []
        for hyp, scores in zip(beam, lm_scores):
            seq = (*spec.tokenizer.encode(asr_tok.decode(hyp.tokens)), EOS_ID)
            fresh = ScoreRequest(seq, spec.scorer.fresh_cache())
            (cache,) = reference_score_batch(spec.scorer, [fresh])
            scores.append(cache.cum_logprob)
            requests.append(ScoreRequest(seq, hyp.views[i].cache))
        _count_requests(counters, requests)
        counters.lm_calls_final += 1
    for hyp, scores in zip(beam, lm_scores):
        total = hyp.e2e
        for spec, raw in zip(lms, scores):
            if spec.use_in_final:
                total += spec.weight * raw
        entries.append((total, hyp.tokens, tuple(scores), hyp.e2e))
    nbest = [
        ScoredHypothesis(asr_tok.decode(tokens), tokens, e2e, scores, total)
        for total, tokens, scores, e2e in _select_top(entries, None)
    ]
    return DecodeResult(nbest[0], nbest, counters, trace if config.keep_trace else None)
