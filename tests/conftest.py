import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
import pytest

from beamfuse.acoustic import (
    BLANK_ID,
    NEG_INF,
    EmissionMatrix,
    PrefixState,
    collapse_path,
    enumerate_collapse_table,
    lse2,
)
from beamfuse.decoder import (
    Hypothesis,
    LMSpec,
    LMView,
    _retokenize,
    _select_top,
    advance_views,
)
from beamfuse.harness import generate_corpus, split_corpus
from beamfuse.lm import LMError, PrefixCacheEntry, train_ngram
from beamfuse.tokenization import (
    BOS_ID,
    EOS_ID,
    SPECIAL_TOKENS,
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
        pair = CTCScorePair(hyp.log_blank, hyp.log_nonblank)
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
        comb = lse2(rec.log_blank, rec.log_nonblank)
        for w, view in zip(weights, rec.views):
            comb += w * view.cache.cum_logprob
        entries.append((comb, tokens, rec))
    entries.sort(key=lambda e: (-e[0], len(e[1]), e[1]))
    if beam_size is not None:
        entries = entries[:beam_size]
    return [
        Hypothesis(
            tokens, log_blank=rec.log_blank, log_nonblank=rec.log_nonblank, views=rec.views, k=0
        )
        for _, tokens, rec in entries
    ]


def reference_child(scorer, state: PrefixState, label: int) -> PrefixState:
    """``CtcPrefixScorer.child`` as the frame-by-frame recursion over T."""
    if label == state.last_label:
        phi = state.r_blank[:-1]
    else:
        phi = np.logaddexp(state.r_blank[:-1], state.r_nonblank[:-1])
    emit = scorer.frames[:, label]
    r_nb = np.full(scorer.T + 1, NEG_INF)
    r_b = np.full(scorer.T + 1, NEG_INF)
    for t in range(1, scorer.T + 1):
        r_nb[t] = emit[t - 1] + lse2(float(phi[t - 1]), float(r_nb[t - 1]))
        r_b[t] = scorer.frames[t - 1, BLANK_ID] + lse2(float(r_b[t - 1]), float(r_nb[t - 1]))
    acc = phi + emit
    m = float(acc.max())
    pp = m + math.log(np.exp(acc - m).sum()) if m > NEG_INF else NEG_INF
    return PrefixState(r_nb, r_b, pp, label)


def _cumsum0(column: np.ndarray) -> np.ndarray:
    """Cumulative sums of ``column`` with a leading 0: entry t sums the first t values."""
    out = np.empty(column.size + 1)
    out[0] = 0.0
    np.cumsum(column, out=out[1:])
    return out


def closed_form_child(scorer, state: PrefixState, label: int) -> PrefixState:
    """``CtcPrefixScorer.child`` for one state: the same closed form over 1-D arrays.

    The batched rows must equal this bit for bit; ``reference_child`` is the
    loop it drifts from by rounding only.
    """
    if label == state.last_label:
        phi = state.r_blank[:-1]
    else:
        phi = np.logaddexp(state.r_blank[:-1], state.r_nonblank[:-1])
    emit = scorer.frames[:, label]
    cum = _cumsum0(emit)
    bc = _cumsum0(scorer.frames[:, BLANK_ID])
    r_nb = np.empty(scorer.T + 1)
    r_nb[0] = NEG_INF
    r_nb[1:] = cum[1:] + np.logaddexp.accumulate(phi - cum[:-1])
    r_b = np.empty(scorer.T + 1)
    r_b[0] = NEG_INF
    r_b[1:] = bc[1:] + np.logaddexp.accumulate(r_nb[:-1] - bc[:-1])
    acc = phi + emit
    m = float(acc.max())
    pp = m + math.log(np.exp(acc - m).sum()) if m > NEG_INF else NEG_INF
    return PrefixState(r_nb, r_b, pp, label)


def reference_candidate_scores(scorer, state: PrefixState) -> np.ndarray:
    """One state's row of ``CtcPrefixScorer.candidate_scores``, over every frame's (T, V) matrix."""
    if state.prefix_logprob == NEG_INF:
        return np.full(scorer.V, NEG_INF)
    both = np.logaddexp(state.r_blank[:-1], state.r_nonblank[:-1])
    phi = np.broadcast_to(both[:, None], (scorer.T, scorer.V)).copy()
    if state.last_label is not None:
        phi[:, state.last_label] = state.r_blank[:-1]
    acc = phi + scorer.frames
    m = acc.max(axis=0)
    safe_m = np.where(np.isfinite(m), m, 0.0)
    with np.errstate(divide="ignore"):
        pp_new = safe_m + np.log(np.exp(acc - safe_m).sum(axis=0))
    pp_new[~np.isfinite(m)] = NEG_INF
    scores = pp_new - state.prefix_logprob
    scores[scorer.eos_id] = (
        lse2(float(state.r_nonblank[scorer.T]), float(state.r_blank[scorer.T]))
        - state.prefix_logprob
    )
    scores[scorer._banned] = NEG_INF
    return scores


def reference_label_entries(scorer, beam, candidate_ids, weights) -> list:
    """The label step one (hypothesis, token) pair at a time.

    Entries are ``(stale combined score, tokens, (parent, label score))``; an
    ended hypothesis is carried over as itself with label score ``None``, and
    an extension whose label score is -inf is no candidate.
    """
    entries = []
    for hyp in beam:
        base_lm = hyp.lm_combined(weights)
        if hyp.ended:
            entries.append((hyp.e2e + base_lm, hyp.tokens, (hyp, None)))
            continue
        scores = scorer.candidate_scores([hyp.state])[0]
        for c in candidate_ids:
            s = float(scores[c])
            if s == NEG_INF:
                continue
            entries.append((hyp.e2e + s + base_lm, hyp.tokens + (c,), (hyp, s)))
    return entries


def reference_label_step(scorer, beam, candidate_ids, beam_size, weights, vocab) -> list:
    """Reference for the label step's expand + prune: full sort of every entry.

    Returns ``(survivor, parent)`` pairs; a carried-over ended hypothesis is
    its own survivor with parent ``None``, and only live survivors get a
    prefix-scorer state.  A new survivor's ``k`` is scanned over ``vocab``.
    """
    out = []
    entries = reference_label_entries(scorer, beam, candidate_ids, weights)
    for _, tokens, (parent, s) in _select_top(entries, beam_size):
        if s is None:
            out.append((parent, None))
            continue
        hyp = Hypothesis(
            tokens,
            e2e=parent.e2e + s,
            ended=tokens[-1] == EOS_ID,
            views=parent.views,
            k=tokenizable_prefix_len(tokens, vocab),
        )
        if not hyp.ended:
            hyp.state = scorer.child([parent.state], [tokens[-1]])[0]
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
        real_ids = asr_tok.vocab.real_ids()
        for tokens, rec in reference_frame_candidates(beam, source, real_ids).items():
            comb = lse2(rec.log_blank, rec.log_nonblank)
            for w, view in zip(weights, rec.views):
                comb += w * view.cache.cum_logprob
            k = tokenizable_prefix_len(tokens, asr_tok.vocab)
            hyp = Hypothesis(tokens, rec.log_blank, rec.log_nonblank, views=rec.views, k=k)
            entries.append((comb, tokens, hyp))
    else:
        ids = list(asr_tok.vocab.real_ids()) + [EOS_ID]
        for comb, tokens, (parent, s) in reference_label_entries(source, beam, ids, weights):
            e2e = parent.e2e if s is None else parent.e2e + s
            k = tokenizable_prefix_len(tokens, asr_tok.vocab)
            hyp = Hypothesis(tokens, e2e=e2e, ended=tokens[-1] == EOS_ID, views=parent.views, k=k)
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


def reference_shallow_requests(cands, lms, asr_tok) -> list:
    """Each LM's shallow requests built one flat candidate at a time.

    Every valid candidate ``j``, in index order, is decoded from its views'
    ``consumed`` on and re-tokenized with ``_retokenize``: the request builder
    as it was before requests were built per parent.  Returns each LM's
    ``(lm_tokens, cache)`` pairs.
    """
    out = [[] for _ in lms]
    for j in np.flatnonzero(cands.valid).tolist():
        tokens, views = cands.tokens(j), cands.views(j)
        words = asr_tok.decode(tokens[1 + views[0].consumed :]).split()
        for spec, view, reqs in zip(lms, views, out):
            reqs.append((_retokenize(view.lm_tokens, words, spec.tokenizer, {}), view.cache))
    return out
