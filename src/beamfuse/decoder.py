"""Beam search with policy-timed external LM fusion.

One search loop serves both decoding modes.  Each step it expands the beam,
prunes the candidates to the beam size by the combined score (acoustic plus
weighted LM scores, the LM part possibly stale), advances the survivors' LM
views over their newly completed words, and — if the fusion policy fires —
re-scores those words with one batched LM call per model.  Finalization
re-tokenizes every full hypothesis, charges the LM for whatever it has not
seen yet plus ``</s>``, and selects the best hypothesis using only the
scorers flagged for final selection.

Policies:

* ``always``    — fuse after pruning at every step
* ``never``     — fuse only at finalization (n-best rescoring)
* ``shortest``  — fuse when the shortest re-tokenized prefix in the beam grew
* ``interval``  — fuse every I steps if any hypothesis has unscored words
* ``shallow``   — reference baseline: score every candidate before pruning

What differs between the modes lives in a small step object:

* ``_FrameStep`` (mode ``ctc``) advances one acoustic frame per step.
  ``extend_frame`` keeps the blank/non-blank score pair per collapsed label
  prefix and merges duplicate prefixes; ``prune_frame_candidates`` keeps
  the best.
* ``_LabelStep`` (mode ``labelsync``) advances one label per step from a
  CTC prefix scorer, so all live hypotheses share a length.  It builds
  prefix-scorer states for survivors only and closes unfinished
  hypotheses with ``</s>``.

The shallow baseline replaces the prune for both modes alike: every
candidate is materialized, scored from scratch, and only then pruned.
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


@dataclass(frozen=True)
class FusionPolicy:
    kind: str
    interval: int = 0

    def __post_init__(self) -> None:
        if self.kind not in POLICY_KINDS:
            raise DecodeError(f"unknown policy {self.kind!r}, expected one of {POLICY_KINDS}")
        if self.kind == "interval" and self.interval < 1:
            raise DecodeError("interval policy needs interval >= 1")

    @classmethod
    def always(cls) -> "FusionPolicy":
        return cls("always")

    @classmethod
    def never(cls) -> "FusionPolicy":
        return cls("never")

    @classmethod
    def shortest(cls) -> "FusionPolicy":
        return cls("shortest")

    @classmethod
    def fixed_interval(cls, interval: int) -> "FusionPolicy":
        return cls("interval", interval)

    @classmethod
    def shallow(cls) -> "FusionPolicy":
        return cls("shallow")


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
            if value is None:
                continue
            if not isinstance(value, int) or isinstance(value, bool) or value < 1:
                raise DecodeError(f"{name} must be an int >= 1 or None, got {value!r}")
        if self.mode not in ("ctc", "labelsync"):
            raise DecodeError(f"unknown mode {self.mode!r}")
        for spec in self.lms:
            if not np.isfinite(spec.weight):
                raise DecodeError("LM weights must be finite")


@dataclass
class DecodeCounters:
    steps: int = 0
    hyps_expanded: int = 0
    lm_calls: int = 0
    lm_calls_final: int = 0
    lm_hypotheses: int = 0
    lm_tokens: int = 0
    wall_seconds: float = 0.0
    lm_emulated_seconds: float = 0.0

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


class _Cand:
    __slots__ = ("log_blank", "log_nonblank", "views", "views_key")

    def __init__(self, log_blank, log_nonblank, views, views_key):
        self.log_blank = log_blank
        self.log_nonblank = log_nonblank
        self.views = views
        self.views_key = views_key


def _views_key(views: Sequence[LMView]) -> tuple:
    return tuple((v.cache.scored_len, v.consumed) for v in views)


def extend_frame(
    beam: Sequence[Hypothesis], frame: np.ndarray, real_ids: Sequence[int]
) -> dict[tuple[int, ...], _Cand]:
    """One frame of candidate generation with duplicate-prefix merging.

    Every hypothesis contributes its stay case (blank or repeated last
    label) plus one extension per ordinary token; candidates that collapse
    to the same prefix are merged by log-sum, keeping the freshest LM view.
    """
    cands: dict[tuple[int, ...], _Cand] = {}
    real_list = list(real_ids)
    frame_real = frame[np.asarray(real_list)]
    for hyp in beam:
        pb, pnb = hyp.log_blank, hyp.log_nonblank
        tot = lse2(pb, pnb)
        last = hyp.tokens[-1] if len(hyp.tokens) > 1 else None
        vkey = _views_key(hyp.views)

        stay_b = tot + frame[BLANK_ID]
        stay_nb = pnb + frame[last] if last is not None else NEG_INF
        _merge(cands, hyp.tokens, stay_b, stay_nb, hyp.views, vkey)

        ext = (tot + frame_real).tolist()
        for pos, c in enumerate(real_list):
            val = ext[pos] if c != last else pb + frame[last]
            _merge(cands, hyp.tokens + (c,), NEG_INF, val, hyp.views, vkey)
    return cands


def _merge(cands, key, log_blank, log_nonblank, views, views_key) -> None:
    rec = cands.get(key)
    if rec is None:
        cands[key] = _Cand(log_blank, log_nonblank, views, views_key)
        return
    rec.log_blank = lse2(rec.log_blank, log_blank)
    rec.log_nonblank = lse2(rec.log_nonblank, log_nonblank)
    if views_key > rec.views_key:
        rec.views = views
        rec.views_key = views_key


def _select_top(entries: list, beam_size: int | None) -> list:
    """Deterministic pruning: score desc, then shorter, then lexicographic."""
    entries.sort(key=lambda e: (-e[0], len(e[1]), e[1]))
    if beam_size is None:
        return entries
    return entries[:beam_size]


def _frame_hypothesis(tokens: tuple[int, ...], rec: _Cand) -> Hypothesis:
    return Hypothesis(
        tokens,
        log_blank=rec.log_blank,
        log_nonblank=rec.log_nonblank,
        views=[v.clone() for v in rec.views],
    )


def prune_frame_candidates(
    cands: dict[tuple[int, ...], _Cand],
    beam_size: int | None,
    weights: Sequence[float],
) -> list[Hypothesis]:
    entries = []
    for tokens, rec in cands.items():
        comb = lse2(rec.log_blank, rec.log_nonblank)
        for w, view in zip(weights, rec.views):
            comb += w * view.cache.cum_logprob
        entries.append((comb, tokens, rec))
    kept = _select_top(entries, beam_size)
    return [_frame_hypothesis(tokens, rec) for _, tokens, rec in kept]


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


def apply_lm_scores(beam: Sequence[Hypothesis], lms: Sequence[LMSpec]) -> None:
    """One batched incremental call per LM over the current hypotheses."""
    for i, spec in enumerate(lms):
        requests = [ScoreRequest(h.views[i].lm_tokens, h.views[i].cache) for h in beam]
        results = spec.scorer.score_batch_incremental(requests)
        for hyp, res in zip(beam, results):
            hyp.views[i].cache = res.cache


# -- per-mode steps ---------------------------------------------------------------
#
# ``expand`` returns a step's candidates, sized by the step's expansion count;
# ``prune`` keeps the best by the stale combined score.  For the shallow
# baseline, ``hypotheses`` materializes every candidate as a (hypothesis,
# parent) pair and ``survivor`` completes a pair that survived.  ``close``
# finishes the last beam.


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
        self.real_ids = list(asr_tok.vocab.real_ids())
        self.lms = config.lms
        self.beam_size = config.beam
        self.weights = [spec.weight for spec in config.lms]

    def root(self) -> Hypothesis:
        return make_root_hypothesis(self.lms, "ctc")

    def expand(self, beam, t):
        return extend_frame(beam, self.rows[t - 1], self.real_ids)

    def prune(self, cands) -> list[Hypothesis]:
        return prune_frame_candidates(cands, self.beam_size, self.weights)

    def hypotheses(self, cands) -> list[tuple[Hypothesis, None]]:
        return [(_frame_hypothesis(tokens, rec), None) for tokens, rec in cands.items()]

    def survivor(self, hyp: Hypothesis, parent: None) -> Hypothesis:
        return hyp

    def close(self, beam: list[Hypothesis]) -> list[Hypothesis]:
        return beam


class _LabelStep:
    """Label-synchronous search: one label per step from a CTC prefix scorer.

    Candidates are entries ``(stale combined score, tokens, (parent, label
    score))``; an ended hypothesis is carried over as itself with label
    score ``None``.  Prefix-scorer states are built for survivors only.
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
        self.lms = config.lms
        self.beam_size = config.beam
        self.weights = [spec.weight for spec in config.lms]

    def root(self) -> Hypothesis:
        root = make_root_hypothesis(self.lms, "labelsync")
        root.state = self.scorer.root()
        return root

    def expand(self, beam, t) -> list:
        entries = []
        for hyp in beam:
            base_lm = hyp.lm_combined(self.weights)
            if hyp.ended:
                entries.append((hyp.e2e + base_lm, hyp.tokens, (hyp, None)))
                continue
            scores = self.scorer.candidate_scores(hyp.state)
            for c in self.candidate_ids:
                s = float(scores[c])
                if s == NEG_INF:
                    continue
                entries.append((hyp.e2e + s + base_lm, hyp.tokens + (c,), (hyp, s)))
        return entries

    def prune(self, entries) -> list[Hypothesis]:
        return [
            self.survivor(*self._hypothesis(entry))
            for entry in _select_top(entries, self.beam_size)
        ]

    def hypotheses(self, entries) -> list[tuple[Hypothesis, Hypothesis | None]]:
        return [self._hypothesis(entry) for entry in entries]

    def _hypothesis(self, entry) -> tuple[Hypothesis, Hypothesis | None]:
        _, tokens, (parent, s) = entry
        if s is None:
            return parent, None
        child = Hypothesis(
            tokens,
            e2e=parent.e2e + s,
            ended=tokens[-1] == EOS_ID,
            views=[v.clone() for v in parent.views],
        )
        return child, parent

    def survivor(self, hyp: Hypothesis, parent: Hypothesis | None) -> Hypothesis:
        if parent is not None and not hyp.ended:
            hyp.state = self.scorer.child(parent.state, hyp.tokens[-1])
        return hyp

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
    snap_counts = [spec.scorer.counters.snapshot() for spec in config.lms]
    snap_emul = [getattr(spec.scorer, "emulated_seconds", 0.0) for spec in config.lms]

    step_type = _FrameStep if config.mode == "ctc" else _LabelStep
    beam, trace = _search(step_type(source, config, asr_tok), config, asr_tok, counters)
    nbest = finalize_beam(beam, config, asr_tok, counters)

    for snap, spec in zip(snap_counts, config.lms):
        calls, hyps, toks = spec.scorer.counters.snapshot()
        counters.lm_calls += calls - snap[0]
        counters.lm_hypotheses += hyps - snap[1]
        counters.lm_tokens += toks - snap[2]
    for snap, spec in zip(snap_emul, config.lms):
        counters.lm_emulated_seconds += getattr(spec.scorer, "emulated_seconds", 0.0) - snap
    counters.wall_seconds = time.perf_counter() - started

    best = nbest[0]
    return DecodeResult(best, nbest, counters, trace if config.keep_trace else None)


def _search(step, config, asr_tok, counters):
    """The search loop of both modes: expand, prune, advance views, fuse, trace."""
    beam = [step.root()]
    state = _PolicyState()
    trace: list[StepTrace] = []
    shallow = config.policy.kind == "shallow" and bool(config.lms)

    for t in range(1, step.limit + 1):
        cands = step.expand(beam, t)
        counters.steps += 1
        counters.hyps_expanded += len(cands)

        if shallow:
            beam = _shallow_prune(step, cands, config, asr_tok)
        else:
            beam = step.prune(cands)
            for hyp in beam:
                advance_views(hyp, asr_tok, config.lms)
            fired = bool(config.lms) and fusable(config.policy, beam, t, state)
            if fired:
                apply_lm_scores(beam, config.lms)
            if config.keep_trace:
                trace.append(_trace_step(t, fired, beam, config))
        # free the candidates before the next expansion builds new ones
        del cands
        # only label-synchronous hypotheses ever end
        if all(h.ended for h in beam):
            break
    return step.close(beam), trace


def _shallow_prune(step, cands, config, asr_tok) -> list[Hypothesis]:
    """Reference baseline: score every candidate before pruning.

    Classic shallow fusion charges each candidate token as it is emitted,
    which across mismatched vocabularies means re-tokenizing and scoring the
    candidate's entire current content from scratch every step — including
    the still-growing final word, whose tokenization is tentative.  Nothing
    is cached, so the LM cost counters reflect the full price of pre-pruning
    fusion.
    """
    items = step.hypotheses(cands)
    hyps = [hyp for hyp, _ in items]
    for hyp in hyps:
        advance_views(hyp, asr_tok, config.lms)
    lm_totals = _shallow_scores(hyps, config.lms, asr_tok)
    ranked = [
        (hyp.e2e_total(config.mode) + lm_totals[j], hyp.tokens, items[j])
        for j, hyp in enumerate(hyps)
    ]
    return [step.survivor(*item) for _, _, item in _select_top(ranked, config.beam)]


def _shallow_scores(
    items: Sequence[Hypothesis], lms: Sequence[LMSpec], asr_tok: Tokenizer
) -> list[float]:
    """Weighted LM scores of each candidate's full current content, uncached."""
    totals = [0.0] * len(items)
    for i, spec in enumerate(lms):
        requests = []
        for hyp in items:
            view = hyp.views[i]
            full = view.lm_tokens
            tail = hyp.tokens[1 + view.consumed :]
            if tail:
                tail_text = asr_tok.decode(tail)
                if tail_text:
                    full = full + tuple(spec.tokenizer.encode(tail_text))
            requests.append(ScoreRequest(full, view.cache))
        results = spec.scorer.score_batch_incremental(requests)
        for j, res in enumerate(results):
            totals[j] += spec.weight * res.cum_logprob
    return totals


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
        results = spec.scorer.score_batch_incremental(requests)
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
