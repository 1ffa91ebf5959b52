"""Beam search with policy-timed external LM fusion.

One search loop serves both decoding modes.  Each step it expands the beam,
prunes the candidates to the beam size by the combined score (acoustic plus
weighted LM scores, the LM part possibly stale), advances the survivors' LM
views over their newly completed words, and — if the fusion policy fires —
re-scores those words with one batched LM call per model.  Finalization
re-tokenizes every full hypothesis, asks the LM for whatever it has not
seen yet plus ``</s>``, and selects the best hypothesis using only the
scorers flagged for final selection.

The decoder counts the LM work it requests: every LM call goes through
``_score``, which adds it to the decode's own ``DecodeCounters``.  Scorers
count nothing.

Policies:

* ``always``    — fuse after pruning at every step
* ``never``     — fuse only at finalization (n-best rescoring)
* ``shortest``  — fuse when the shortest re-tokenized prefix in the beam grew
* ``interval``  — fuse every I steps if any hypothesis has unscored words
* ``shallow``   — reference baseline: score every candidate before pruning

Both modes prune through one cut, ``_top_k``: ``np.partition`` finds the
k-th best combined score, only the candidates at or above it (every tie) are
sorted, and hypotheses are built for the survivors only.  What differs
between the modes lives in a small step object:

* ``_FrameStep`` (mode ``ctc``) advances one acoustic frame per step.
  ``extend_frame`` computes the CTC prefix recursion for the whole beam as
  arrays: each hypothesis's blank/non-blank stay pair plus a (beam, ordinary
  tokens) block of extension scores, with duplicate prefixes folded into
  the stay pair of the beam entry they equal.
* ``_LabelStep`` (mode ``labelsync``) advances one label per step from a
  CTC prefix scorer, so all live hypotheses share a length.  ``expand``
  returns ``LabelCandidates``: ended hypotheses carried over as single
  candidates, and one (live hypotheses, ordinary tokens + ``</s>``) block
  of combined scores with the impossible extensions masked out.
  Prefix-scorer states are built for survivors only, and unfinished
  hypotheses are closed with ``</s>``.

Both candidate blocks answer ``valid``, ``tokens(j)`` and ``views(j)`` for a
flat candidate index ``j``.  The shallow baseline is one more score term on
the same cut: every valid candidate's full current content is scored from
scratch, and those scores are added before the prune.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .acoustic import (
    BLANK_ID,
    NEG_INF,
    CtcPrefixScorer,
    EmissionMatrix,
    lse2,
)
from .lm import ScoreRequest
from .tokenization import BOS_ID, EOS_ID, UNK_ID, Tokenizer, tokenizable_prefix_len

POLICY_KINDS = ("always", "never", "shortest", "interval", "shallow")


class DecodeError(ValueError):
    """Raised for invalid decode configurations or inputs."""


def _is_count(value) -> bool:
    """An ``int`` (not a ``bool``) of at least 1."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= 1


@dataclass(frozen=True)
class FusionPolicy:
    kind: str
    interval: int = 0

    def __post_init__(self) -> None:
        if self.kind not in POLICY_KINDS:
            raise DecodeError(f"unknown policy {self.kind!r}, expected one of {POLICY_KINDS}")
        if self.kind == "interval" and not _is_count(self.interval):
            raise DecodeError(
                f"interval policy needs interval >= 1 (an int), got {self.interval!r}"
            )


@dataclass
class LMSpec:
    """One external LM: its scorer, its tokenizer, and how it is combined."""

    scorer: object
    tokenizer: Tokenizer
    weight: float
    use_in_final: bool = True


@dataclass
class DecodeConfig:
    beam: int | None
    policy: FusionPolicy
    lms: list[LMSpec] = field(default_factory=list)
    mode: str = "ctc"
    max_label_steps: int | None = None
    nbest: int | None = None
    keep_trace: bool = False

    def __post_init__(self) -> None:
        for name in ("beam", "nbest", "max_label_steps"):
            value = getattr(self, name)
            if value is not None and not _is_count(value):
                raise DecodeError(f"{name} must be an int >= 1 or None, got {value!r}")
        if self.mode not in ("ctc", "labelsync"):
            raise DecodeError(f"unknown mode {self.mode!r}")
        for i, spec in enumerate(self.lms):
            if not np.isfinite(spec.weight):
                raise DecodeError("LM weights must be finite")
            # scorers without a vocabulary (proxies, test doubles) are not checked
            vocab = getattr(spec.scorer, "vocab", None)
            if vocab is not None and spec.tokenizer.vocab.tokens != vocab.tokens:
                raise DecodeError(
                    f"LM {i}: the tokenizer's vocabulary does not match the scorer's"
                )


@dataclass
class DecodeCounters:
    """What one decode did, counted by the decoder itself.

    ``lm_calls`` counts every LM call, finalization's included, and
    ``lm_calls_final`` those alone.  ``lm_hypotheses`` and ``lm_tokens``
    count the requests that carried tokens their cache had not scored, and
    those tokens: the work the decoder asked for, whatever the scorer does
    to serve it.  A scorer shared with another decode does not change them.
    """

    steps: int = 0
    hyps_expanded: int = 0
    lm_calls: int = 0
    lm_calls_final: int = 0
    lm_hypotheses: int = 0
    lm_tokens: int = 0
    wall_seconds: float = 0.0

    def as_dict(self) -> dict:
        return dict(self.__dict__)


@dataclass(frozen=True)
class StepTrace:
    """What each prune consumed: per-hypothesis (scored_len, cum_logprob)."""

    step: int
    fused: bool
    shortest_len: int | None
    lm_state: tuple[tuple[int, float], ...]


@dataclass(frozen=True)
class ScoredHypothesis:
    text: str
    tokens: tuple[int, ...]
    e2e_score: float
    lm_scores: tuple[float, ...]
    combined_score: float


@dataclass
class DecodeResult:
    best: ScoredHypothesis
    nbest: list[ScoredHypothesis]
    counters: DecodeCounters
    trace: list[StepTrace] | None = None


class LMView:
    """A hypothesis's re-tokenized complete-word prefix for one LM.

    ``consumed`` source tokens map to ``lm_tokens``; ``cache`` records how
    many of those the LM has actually scored.
    """

    __slots__ = ("consumed", "lm_tokens", "cache")

    def __init__(self, consumed: int, lm_tokens: tuple[int, ...], cache):
        self.consumed = consumed
        self.lm_tokens = lm_tokens
        self.cache = cache

    def clone(self) -> "LMView":
        return LMView(self.consumed, self.lm_tokens, self.cache)


class Hypothesis:
    """One beam entry; ``tokens`` starts at ``<s>``."""

    __slots__ = ("tokens", "log_blank", "log_nonblank", "e2e", "ended", "views", "state")

    def __init__(
        self,
        tokens: tuple[int, ...],
        log_blank: float = NEG_INF,
        log_nonblank: float = NEG_INF,
        e2e: float = 0.0,
        ended: bool = False,
        views: list[LMView] | None = None,
        state=None,
    ):
        self.tokens = tokens
        self.log_blank = log_blank
        self.log_nonblank = log_nonblank
        self.e2e = e2e
        self.ended = ended
        self.views = views if views is not None else []
        self.state = state

    def e2e_total(self, mode: str) -> float:
        if mode == "ctc":
            return lse2(self.log_blank, self.log_nonblank)
        return self.e2e

    def lm_combined(self, weights: Sequence[float]) -> float:
        total = 0.0
        for w, view in zip(weights, self.views):
            total += w * view.cache.cum_logprob
        return total


def make_root_hypothesis(lms: Sequence[LMSpec], mode: str) -> Hypothesis:
    views = [LMView(0, (), spec.scorer.fresh_cache()) for spec in lms]
    if mode == "ctc":
        return Hypothesis((BOS_ID,), log_blank=0.0, log_nonblank=NEG_INF, views=views)
    return Hypothesis((BOS_ID,), e2e=0.0, views=views)


# -- frame-synchronous expansion ---------------------------------------------


@dataclass(slots=True, eq=False)
class FrameCandidates:
    """One frame's candidates: a stay pair per hypothesis and a (B, R) extension block.

    Candidate ``i`` (``i < B``) is ``beam[i]`` absorbing a blank or a repeat of
    its last label, with pair ``(stay_blank[i], stay_nonblank[i])`` and LM views
    ``stay_views[i]``.  Candidate ``B + i * R + col`` is ``beam[i]`` extended by
    ``real_ids[col]``: non-blank score ``ext[i, col]``, blank score -inf, and the
    views of ``beam[i]``.  An extension that equals another beam entry lives in
    that entry's stay pair instead, and ``valid`` masks it out.
    """

    beam: Sequence[Hypothesis]
    real_ids: np.ndarray
    stay_blank: list[float]
    stay_nonblank: list[float]
    stay_views: list[list[LMView]]
    ext: np.ndarray
    # (column, score) of each row's repeat extension, or None
    repeat: list[tuple[int, float] | None]
    valid: np.ndarray

    def __len__(self) -> int:
        return int(np.count_nonzero(self.valid))

    def extension(self, i: int, col: int) -> float:
        # the repeat column keeps the scalar it was computed as; the rest are floats
        rep = self.repeat[i]
        return rep[1] if rep is not None and rep[0] == col else self.ext.item(i, col)

    def tokens(self, j: int) -> tuple[int, ...]:
        n = len(self.beam)
        if j < n:
            return self.beam[j].tokens
        i, col = divmod(j - n, len(self.real_ids))
        return self.beam[i].tokens + (self.real_ids.item(col),)

    def views(self, j: int) -> list[LMView]:
        n = len(self.beam)
        return self.stay_views[j] if j < n else self.beam[(j - n) // len(self.real_ids)].views

    def hypothesis(self, j: int) -> Hypothesis:
        n = len(self.beam)
        if j < n:
            log_blank, log_nonblank = self.stay_blank[j], self.stay_nonblank[j]
            views = self.stay_views[j]
        else:
            i, col = divmod(j - n, len(self.real_ids))
            log_blank, log_nonblank = NEG_INF, self.extension(i, col)
            views = self.beam[i].views
        return Hypothesis(
            self.tokens(j),
            log_blank=log_blank,
            log_nonblank=log_nonblank,
            views=[v.clone() for v in views],
        )

    def scores(self, weights: Sequence[float]) -> np.ndarray:
        """Acoustic plus weighted LM score of every index, -inf where not valid."""
        stay = np.array([lse2(b, nb) for b, nb in zip(self.stay_blank, self.stay_nonblank)])
        ext = self.ext
        for k, w in enumerate(weights):
            stay = stay + w * np.array([views[k].cache.cum_logprob for views in self.stay_views])
            lm = w * np.array([h.views[k].cache.cum_logprob for h in self.beam])
            ext = ext + lm[:, None]
        scores = np.concatenate([stay, ext.ravel()])
        scores[~self.valid] = NEG_INF
        return scores


def _views_key(views: Sequence[LMView]) -> tuple:
    return tuple((v.cache.scored_len, v.consumed) for v in views)


def extend_frame(
    beam: Sequence[Hypothesis],
    frame: np.ndarray,
    real_ids: np.ndarray,
    columns: dict[int, int],
) -> FrameCandidates:
    """One frame of the CTC prefix recursion over the whole beam at once.

    ``columns`` maps each id in ``real_ids`` to its position.  Row ``i`` of
    the extension block is ``tot_i + frame[real_ids]``, except that the last
    label's column holds ``pb_i + frame[last]``: only blank-ending paths can
    emit a label twice.  An extension that equals another beam entry is
    folded into that entry's stay pair by log-sum and masked out, and the
    merged candidate keeps the views with the larger ``_views_key`` (the lower
    beam index on a tie).
    """
    tots = [lse2(h.log_blank, h.log_nonblank) for h in beam]
    ext = np.add.outer(tots, frame[real_ids])
    blank = frame[BLANK_ID]
    stay_blank, stay_nonblank, repeat = [], [], []
    for i, (tot, hyp) in enumerate(zip(tots, beam)):
        stay_blank.append(tot + blank)
        rep = None
        if len(hyp.tokens) > 1:
            last = hyp.tokens[-1]
            stay_nonblank.append(hyp.log_nonblank + frame[last])
            col = columns.get(last)
            if col is not None:
                rep = (col, hyp.log_blank + frame[last])
                ext[i, col] = rep[1]
        else:
            stay_nonblank.append(NEG_INF)
        repeat.append(rep)

    stay_views = [h.views for h in beam]
    valid = np.ones(len(beam) + ext.size, dtype=bool)
    cands = FrameCandidates(
        beam, real_ids, stay_blank, stay_nonblank, stay_views, ext, repeat, valid
    )
    parents = {h.tokens: i for i, h in enumerate(beam)}
    for j, hyp in enumerate(beam):
        i = parents.get(hyp.tokens[:-1]) if len(hyp.tokens) > 1 else None
        col = columns.get(hyp.tokens[-1])
        if i is None or col is None:
            continue
        stay_blank[j] = lse2(stay_blank[j], NEG_INF)
        stay_nonblank[j] = lse2(stay_nonblank[j], cands.extension(i, col))
        if (_views_key(beam[i].views), -i) > (_views_key(hyp.views), -j):
            stay_views[j] = beam[i].views
        valid[len(beam) + i * len(real_ids) + col] = False
    return cands


def _select_top(entries: list, beam_size: int | None) -> list:
    """Deterministic pruning: score desc, then shorter, then lexicographic."""
    entries.sort(key=lambda e: (-e[0], len(e[1]), e[1]))
    if beam_size is None:
        return entries
    return entries[:beam_size]


def _top_k(cands, scores: np.ndarray, extra, beam_size: int | None) -> list[int]:
    """Indices of the ``beam_size`` best valid candidates, in ``_select_top`` order.

    ``extra`` (the shallow LM scores, or None) is added to ``scores`` first.
    ``np.partition`` finds the k-th best score; only the valid candidates at
    or above it (every tie included) are sorted, and only their tokens are
    built.
    """
    if extra is not None:
        scores = scores + extra
    valid = cands.valid
    if beam_size is None or beam_size >= np.count_nonzero(valid):
        kept = np.flatnonzero(valid)
    else:
        cut = scores.size - beam_size
        threshold = np.partition(scores, cut)[cut]
        kept = np.flatnonzero(valid & (scores >= threshold))
    tokens = cands.tokens
    entries = [(scores.item(j), tokens(j), j) for j in kept.tolist()]
    return [j for _, _, j in _select_top(entries, beam_size)]


def prune_frame_candidates(
    cands: FrameCandidates,
    beam_size: int | None,
    weights: Sequence[float],
    extra: np.ndarray | None = None,
) -> list[Hypothesis]:
    """Keep the ``beam_size`` best candidates by acoustic plus weighted LM score.

    Hypotheses are built for the survivors only.
    """
    kept = _top_k(cands, cands.scores(weights), extra, beam_size)
    return [cands.hypothesis(j) for j in kept]


# -- label-synchronous expansion ---------------------------------------------


@dataclass(slots=True, eq=False)
class LabelCandidates:
    """One label step's candidates: ended hypotheses and an (L, C) extension block.

    Candidate ``i`` (``i < E``) is the ended hypothesis ``ended[i]``, carried
    over as itself.  Candidate ``E + r * C + col`` is live hypothesis
    ``live[r]`` extended by ``ids[col]`` with label score
    ``label_scores[r, col]``.  ``scores`` holds every index's stale combined
    score: ``e2e + LM`` for an ended hypothesis, ``e2e + label score + LM``
    for an extension.  Extensions whose label score is -inf are not
    candidates, and ``valid`` masks them out.
    """

    ids: list[int]
    ended: list[Hypothesis]
    live: list[Hypothesis]
    label_scores: np.ndarray
    scores: np.ndarray
    valid: np.ndarray

    def __len__(self) -> int:
        return int(np.count_nonzero(self.valid))

    def tokens(self, j: int) -> tuple[int, ...]:
        n = len(self.ended)
        if j < n:
            return self.ended[j].tokens
        r, col = divmod(j - n, len(self.ids))
        return self.live[r].tokens + (self.ids[col],)

    def views(self, j: int) -> list[LMView]:
        n = len(self.ended)
        return self.ended[j].views if j < n else self.live[(j - n) // len(self.ids)].views

    def candidate(self, j: int) -> tuple[Hypothesis, Hypothesis | None]:
        """Candidate ``j`` as (hypothesis, parent); an ended one has no parent."""
        n = len(self.ended)
        if j < n:
            return self.ended[j], None
        r, col = divmod(j - n, len(self.ids))
        parent = self.live[r]
        label = self.ids[col]
        child = Hypothesis(
            parent.tokens + (label,),
            e2e=parent.e2e + self.label_scores.item(r, col),
            ended=label == EOS_ID,
            views=[v.clone() for v in parent.views],
        )
        return child, parent


# -- LM bookkeeping ------------------------------------------------------------


def advance_views(hyp: Hypothesis, asr_tok: Tokenizer, lms: Sequence[LMSpec]) -> None:
    """Extend each LM view with the hypothesis's newly completed words.

    Only complete words are mapped, and each word encodes on its own, so
    advancing a growing hypothesis step by step gives the same LM tokens as
    re-tokenizing its whole complete-word prefix at once.
    """
    if not lms:
        return
    k = tokenizable_prefix_len(hyp.tokens, asr_tok.vocab)
    for view, spec in zip(hyp.views, lms):
        if k > view.consumed:
            text = asr_tok.decode(hyp.tokens[1 + view.consumed : 1 + k])
            view.lm_tokens = view.lm_tokens + tuple(spec.tokenizer.encode(text))
            view.consumed = k


class _PolicyState:
    __slots__ = ("prev_shortest",)

    def __init__(self):
        self.prev_shortest = 0


def fusable(
    policy: FusionPolicy, beam: Sequence[Hypothesis], t: int, state: _PolicyState
) -> bool:
    """Decide whether this step triggers LM scoring (views must be current)."""
    if policy.kind == "always":
        return True
    if policy.kind in ("never", "shallow"):
        return False
    if policy.kind == "shortest":
        shortest = min(len(h.views[0].lm_tokens) for h in beam)
        fire = shortest > state.prev_shortest
        state.prev_shortest = shortest
        return fire
    # interval: fire on the grid, but only if someone has unscored words
    if t % policy.interval != 0:
        return False
    return any(
        view.cache.scored_len < len(view.lm_tokens) for h in beam for view in h.views
    )


def _score(spec: LMSpec, requests: list[ScoreRequest], counters: DecodeCounters) -> list:
    """One batched LM call, counted after it returns.

    The call counts once; each request with tokens past its cache's
    ``scored_len`` counts as one hypothesis, and those tokens as new tokens.
    """
    results = spec.scorer.score_batch_incremental(requests)
    new = [n for n in (len(r.tokens) - r.cache.scored_len for r in requests) if n > 0]
    counters.lm_calls += 1
    counters.lm_hypotheses += len(new)
    counters.lm_tokens += sum(new)
    return results


def apply_lm_scores(
    beam: Sequence[Hypothesis], lms: Sequence[LMSpec], counters: DecodeCounters
) -> None:
    """One batched incremental call per LM over the current hypotheses."""
    for i, spec in enumerate(lms):
        requests = [ScoreRequest(h.views[i].lm_tokens, h.views[i].cache) for h in beam]
        results = _score(spec, requests, counters)
        for hyp, res in zip(beam, results):
            hyp.views[i].cache = res.cache


# -- per-mode steps ---------------------------------------------------------------
#
# ``root`` is the first beam's hypothesis and ``limit`` the step count cap.
# ``expand`` returns a step's candidates, sized by the step's expansion count;
# ``prune(cands, extra)`` keeps the best by the stale combined score plus
# ``extra`` (the shallow LM scores, or None) and builds the survivors.
# ``close`` finishes the last beam.


class _FrameStep:
    """Frame-synchronous CTC prefix search: one emission row per step."""

    def __init__(self, em, config: DecodeConfig, asr_tok: Tokenizer):
        if not isinstance(em, EmissionMatrix):
            raise DecodeError("frame-synchronous decoding needs an EmissionMatrix")
        if em.vocab_size != asr_tok.vocab.size:
            raise DecodeError(
                f"emissions have {em.vocab_size} columns but the vocabulary "
                f"has {asr_tok.vocab.size} tokens"
            )
        self.rows = em.log_probs
        self.limit = em.num_frames
        self.real_ids = np.asarray(asr_tok.vocab.real_ids())
        self.columns = {c: col for col, c in enumerate(asr_tok.vocab.real_ids())}
        self.lms = config.lms
        self.beam_size = config.beam
        self.weights = [spec.weight for spec in config.lms]

    def root(self) -> Hypothesis:
        return make_root_hypothesis(self.lms, "ctc")

    def expand(self, beam, t):
        return extend_frame(beam, self.rows[t - 1], self.real_ids, self.columns)

    def prune(self, cands, extra) -> list[Hypothesis]:
        return prune_frame_candidates(cands, self.beam_size, self.weights, extra)

    def close(self, beam: list[Hypothesis]) -> list[Hypothesis]:
        return beam


class _LabelStep:
    """Label-synchronous search: one label per step from a CTC prefix scorer.

    ``expand`` gathers each live hypothesis's next-token scores into one
    ``LabelCandidates`` block; ``prune`` builds prefix-scorer states for the
    survivors only.
    """

    def __init__(self, source, config: DecodeConfig, asr_tok: Tokenizer):
        scorer = source if hasattr(source, "candidate_scores") else None
        if scorer is None:
            if not isinstance(source, EmissionMatrix):
                raise DecodeError("label-synchronous decoding needs emissions or a scorer")
            if source.vocab_size != asr_tok.vocab.size:
                raise DecodeError("emissions do not match the vocabulary size")
            scorer = CtcPrefixScorer(source, EOS_ID, disallowed=(BOS_ID, UNK_ID))
        limit = config.max_label_steps
        cap = getattr(scorer, "T", None)
        if limit is None:
            limit = cap
        elif cap is not None:
            limit = min(limit, cap)
        if limit is None:
            raise DecodeError("label-synchronous decoding needs max_label_steps")
        self.scorer = scorer
        self.limit = limit
        self.candidate_ids = list(asr_tok.vocab.real_ids()) + [EOS_ID]
        self.id_index = np.asarray(self.candidate_ids)
        self.lms = config.lms
        self.beam_size = config.beam
        self.weights = [spec.weight for spec in config.lms]

    def root(self) -> Hypothesis:
        root = make_root_hypothesis(self.lms, "labelsync")
        root.state = self.scorer.root()
        return root

    def expand(self, beam, t) -> LabelCandidates:
        ended = [h for h in beam if h.ended]
        live = [h for h in beam if not h.ended]
        label_scores = np.empty((len(live), len(self.candidate_ids)))
        for r, hyp in enumerate(live):
            label_scores[r] = self.scorer.candidate_scores(hyp.state)[self.id_index]
        e2e = np.array([h.e2e for h in live])
        base_lm = np.array([h.lm_combined(self.weights) for h in live])
        # the same operation order as e2e + label score + LM, one candidate at a time
        block = e2e[:, None] + label_scores + base_lm[:, None]
        scores = np.concatenate(
            [[h.e2e + h.lm_combined(self.weights) for h in ended], block.ravel()]
        )
        valid = np.concatenate(
            [np.ones(len(ended), dtype=bool), (label_scores > NEG_INF).ravel()]
        )
        return LabelCandidates(self.candidate_ids, ended, live, label_scores, scores, valid)

    def prune(self, cands: LabelCandidates, extra) -> list[Hypothesis]:
        survivors = []
        for j in _top_k(cands, cands.scores, extra, self.beam_size):
            hyp, parent = cands.candidate(j)
            if parent is not None and not hyp.ended:
                hyp.state = self.scorer.child(parent.state, hyp.tokens[-1])
            survivors.append(hyp)
        return survivors

    def close(self, beam: list[Hypothesis]) -> list[Hypothesis]:
        """End every unfinished hypothesis with its ``</s>`` score."""
        for hyp in beam:
            if not hyp.ended:
                hyp.e2e += float(self.scorer.candidate_scores(hyp.state)[EOS_ID])
                hyp.tokens = hyp.tokens + (EOS_ID,)
                hyp.ended = True
                hyp.state = None
        return beam


# -- decode ---------------------------------------------------------------------


def decode(source, config: DecodeConfig, asr_tok: Tokenizer) -> DecodeResult:
    """Run beam search over emissions (or a label-sync scorer) and finalize."""
    counters = DecodeCounters()
    started = time.perf_counter()
    step_type = _FrameStep if config.mode == "ctc" else _LabelStep
    beam, trace = _search(step_type(source, config, asr_tok), config, asr_tok, counters)
    nbest = finalize_beam(beam, config, asr_tok, counters)
    counters.wall_seconds = time.perf_counter() - started

    best = nbest[0]
    return DecodeResult(best, nbest, counters, trace if config.keep_trace else None)


def _search(step, config, asr_tok, counters):
    """The search loop of every policy: expand, prune, advance views, fuse, trace."""
    beam = [step.root()]
    state = _PolicyState()
    trace: list[StepTrace] = []
    shallow = config.policy.kind == "shallow" and bool(config.lms)

    for t in range(1, step.limit + 1):
        cands = step.expand(beam, t)
        counters.steps += 1
        counters.hyps_expanded += len(cands)
        extra = _shallow_scores(cands, config.lms, asr_tok, counters) if shallow else None
        beam = step.prune(cands, extra)
        # free the candidates before the next expansion builds new ones
        del cands
        for hyp in beam:
            advance_views(hyp, asr_tok, config.lms)
        fired = bool(config.lms) and fusable(config.policy, beam, t, state)
        if fired:
            apply_lm_scores(beam, config.lms, counters)
        if config.keep_trace and not shallow:
            trace.append(_trace_step(t, fired, beam, config))
        # only label-synchronous hypotheses ever end
        if all(h.ended for h in beam):
            break
    return step.close(beam), trace


def _shallow_scores(
    cands, lms: Sequence[LMSpec], asr_tok: Tokenizer, counters: DecodeCounters
) -> np.ndarray:
    """Reference baseline: weighted LM scores of every valid candidate, 0 elsewhere.

    Classic shallow fusion charges each candidate token as it is emitted,
    which across mismatched vocabularies means re-tokenizing and scoring the
    candidate's entire current content from scratch every step — including
    the still-growing final word, whose tokenization is tentative.  Nothing
    is cached (the views' caches stay fresh, so the stale LM term in the
    candidate scores is 0), and the decoder's LM counters reflect the full
    price of pre-pruning fusion.  A candidate's views are its parent's and
    end at a word boundary, so its LM tokens are theirs plus the rest's
    words, each encoded on its own; that is ``encode(decode(rest))``, and the
    siblings of one parent share most of those words, so each distinct word
    is encoded once per call and LM.
    """
    kept = np.flatnonzero(cands.valid).tolist()
    extra = np.zeros(cands.valid.size)
    for i, spec in enumerate(lms):
        encoded: dict[str, tuple[int, ...]] = {}
        requests = []
        for j in kept:
            view = cands.views(j)[i]
            full = view.lm_tokens
            tail = cands.tokens(j)[1 + view.consumed :]
            if tail:
                for word in asr_tok.decode(tail).split():
                    pieces = encoded.get(word)
                    if pieces is None:
                        pieces = encoded[word] = tuple(spec.tokenizer.encode_word(word))
                    full = full + pieces
            requests.append(ScoreRequest(full, view.cache))
        results = _score(spec, requests, counters)
        extra[kept] += spec.weight * np.array([res.cum_logprob for res in results])
    return extra


def _trace_step(t, fired, beam, config) -> StepTrace:
    if config.lms:
        shortest = min(len(h.views[0].lm_tokens) for h in beam)
        lm_state = tuple(
            (h.views[0].cache.scored_len, h.views[0].cache.cum_logprob) for h in beam
        )
    else:
        shortest = None
        lm_state = ()
    return StepTrace(t, fired, shortest, lm_state)


def finalize_beam(beam, config, asr_tok, counters) -> list[ScoredHypothesis]:
    """Full re-tokenization, one last LM pass with ``</s>``, final selection."""
    if not beam:
        raise DecodeError("empty beam at finalization")
    texts = [asr_tok.decode(h.tokens) for h in beam]
    e2e = [h.e2e_total(config.mode) for h in beam]
    raws = [[0.0] * len(config.lms) for _ in beam]
    for i, spec in enumerate(config.lms):
        requests = []
        for hyp, text in zip(beam, texts):
            full = tuple(spec.tokenizer.encode(text)) + (EOS_ID,)
            requests.append(ScoreRequest(full, hyp.views[i].cache))
        results = _score(spec, requests, counters)
        counters.lm_calls_final += 1
        for j, res in enumerate(results):
            raws[j][i] = res.cum_logprob

    combined = []
    for j in range(len(beam)):
        total = e2e[j]
        for i, spec in enumerate(config.lms):
            if spec.use_in_final:
                total += spec.weight * raws[j][i]
        combined.append(total)

    order = sorted(
        range(len(beam)), key=lambda j: (-combined[j], len(beam[j].tokens), beam[j].tokens)
    )
    scored = [
        ScoredHypothesis(texts[j], beam[j].tokens, e2e[j], tuple(raws[j]), combined[j])
        for j in order
    ]
    limit = config.nbest if config.nbest is not None else len(scored)
    return scored[:limit]
