"""Beam search with policy-timed external LM fusion.

One search loop serves both decoding modes.  Each step it expands the beam,
prunes the candidates to the beam size by the combined score (acoustic plus
weighted LM scores, the LM part possibly stale), advances the survivors' LM
views over their newly completed words, and — if the fusion policy fires —
scores those words with one batched LM call per model: the delayed pass.
The whole-hypothesis requests (``_whole_requests``) resume each
hypothesis's views with its re-tokenized rest; finalization scores them for
the last beam with ``</s>`` and ranks by the scorers flagged for final
selection.

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

Both candidate blocks are ``Candidates``, single items then one extension
block, answering ``valid``, ``tokens(j)`` and ``views(j)`` for a flat index
``j``; ``families(kept)`` groups the extension block by parent.  The shallow baseline is one more score term on the same
cut: every valid candidate's whole content is scored, and those scores are
added before the prune.  Its requests are built once per parent
(``_ShallowRequests``): the parent's rest is decoded and re-tokenized once
and each child adds only its piece, with one word memo per LM that lives
for one decode.  The step objects own every other mode difference too: the
root hypothesis, the step count, and closing the last beam with each
hypothesis's end-to-end score ``e2e``.

Hypothesis state is plain values.  An ``LMView`` is an immutable tuple, and
a view list is never changed in place: a candidate and its survivor share
their parent's list, and advancing or fusing assigns the hypothesis a new
one.  No beam entry can change another's LM state, so nothing is copied.

A hypothesis also carries ``k``, the length of its complete-word prefix, set
in O(1) by the step that builds it from a per-id word-begin table.  An
extension by a word-begin piece has its parent's length less ``<s>``; a
continuation or ``</s>`` keeps its parent's ``k``; a stay, and an ended
hypothesis carried over, keep their own.  ``advance_views`` re-tokenizes
only when ``k`` passed the views' ``consumed``, so no survivor is rescanned.
Every re-tokenization of one decode shares one word memo per LM.
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import KW_ONLY, dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .acoustic import (
    BLANK_ID,
    NEG_INF,
    CtcPrefixScorer,
    EmissionMatrix,
    end_scores,
    lse2,
)
from .lm import ScoreRequest
# tokenizable_prefix_len is not called here: perfbench/layertrace.py patches
# ``decoder.tokenizable_prefix_len`` and perfbench/tests/test_reconcile.py reads it
# (ROADMAP item 7)
from .tokenization import BOS_ID, EOS_ID, NUM_SPECIALS, UNK_ID, Tokenizer, tokenizable_prefix_len

POLICY_KINDS = ("always", "never", "shortest", "interval", "shallow")
MODES = ("ctc", "labelsync")


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
    keep_trace: bool = False

    def __post_init__(self) -> None:
        if self.beam is not None and not _is_count(self.beam):
            raise DecodeError(f"beam must be an int >= 1 or None, got {self.beam!r}")
        if not isinstance(self.policy, FusionPolicy):
            raise DecodeError(f"policy must be a FusionPolicy, got {self.policy!r}")
        if self.mode not in MODES:
            raise DecodeError(f"unknown mode {self.mode!r}")
        for i, spec in enumerate(self.lms):
            w = spec.weight
            if isinstance(w, bool) or not isinstance(w, numbers.Real) or not math.isfinite(w):
                raise DecodeError(f"LM {i}: weight must be a finite real number, got {w!r}")
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
    """``nbest`` is the whole final beam, best first; ``best`` is its head."""

    best: ScoredHypothesis
    nbest: list[ScoredHypothesis]
    counters: DecodeCounters
    trace: list[StepTrace] | None = None


class LMView(NamedTuple):
    """A hypothesis's re-tokenized complete-word prefix for one LM, as a value.

    ``consumed`` source tokens map to ``lm_tokens``; ``cache`` records how
    many of those the LM has actually scored.  Views are immutable, so a
    child shares its parent's views until it advances or fuses, and a stale
    cache is inherited without a copy.
    """

    consumed: int
    lm_tokens: tuple[int, ...]
    cache: object


@dataclass(slots=True, eq=False)
class Hypothesis:
    """One beam entry; ``tokens`` starts at ``<s>``.

    ``k`` is the complete-word source length, ``<s>`` not counted: what
    ``tokenizable_prefix_len(tokens)`` gives.  It is required: a step sets
    it in O(1) for each hypothesis it builds, and a hand-built one passes it.
    """

    tokens: tuple[int, ...]
    log_blank: float = NEG_INF
    log_nonblank: float = NEG_INF
    e2e: float = 0.0
    ended: bool = False
    views: list[LMView] = field(default_factory=list)
    state: object = None
    _: KW_ONLY
    k: int

    def lm_combined(self, weights: Sequence[float]) -> float:
        total = 0.0
        for w, view in zip(weights, self.views):
            total += w * view.cache.cum_logprob
        return total


# -- candidate blocks ----------------------------------------------------------


@dataclass(slots=True, eq=False)
class Candidates:
    """One step's candidates: single items, then a (P, C) extension block.

    Candidate ``i`` (``i < S``) is ``singles[i]`` with LM views
    ``single_views[i]``.  Candidate ``S + r * C + col`` is ``parents[r]``
    extended by ``ids[col]``, with the views of ``parents[r]``.  ``valid``
    masks out the indices that are no candidates, and ``begins``, the per-id
    word-begin table, sets each extension's ``k``.  Each mode adds its
    scores and builds its hypotheses.
    """

    singles: Sequence[Hypothesis]
    single_views: Sequence[list[LMView]]
    parents: Sequence[Hypothesis]
    ids: np.ndarray
    valid: np.ndarray
    begins: Sequence[bool]

    def __len__(self) -> int:
        return int(np.count_nonzero(self.valid))

    def tokens(self, j: int) -> tuple[int, ...]:
        n = len(self.singles)
        if j < n:
            return self.singles[j].tokens
        r, col = divmod(j - n, len(self.ids))
        return self.parents[r].tokens + (self.ids.item(col),)

    def views(self, j: int) -> list[LMView]:
        n = len(self.singles)
        return self.single_views[j] if j < n else self.parents[(j - n) // len(self.ids)].views

    def families(self, kept: np.ndarray) -> tuple[list[int], list]:
        """Split ascending candidate indices into single items and per-parent families.

        Returns the single indices in ``kept`` and ``(parent, labels)`` for
        each parent with a kept extension, so the singles followed by each
        family's labels in turn are ``kept`` in order.
        """
        n, ids, parents = len(self.singles), self.ids, self.parents
        split = int(np.searchsorted(kept, n))
        rows, cols = np.divmod(kept[split:] - n, len(ids))
        labels = ids[cols].tolist()
        families, start = [], 0
        for parent, count in zip(parents, np.bincount(rows, minlength=len(parents)).tolist()):
            if count:
                families.append((parent, labels[start : start + count]))
                start += count
        return kept[:split].tolist(), families

    def _extension(self, j: int, tokens: tuple[int, ...]) -> tuple[Hypothesis, int, int, int]:
        """Extension ``j``, whose tokens are ``tokens``: parent, block row, column and ``k``.

        A word-begin label closes the parent's last word; a continuation or
        ``</s>`` keeps the parent's ``k``.
        """
        r, col = divmod(j - len(self.singles), len(self.ids))
        parent = self.parents[r]
        k = len(parent.tokens) - 1 if self.begins[tokens[-1]] else parent.k
        return parent, r, col, k


# -- frame-synchronous expansion ---------------------------------------------


@dataclass(slots=True, eq=False)
class FrameCandidates(Candidates):
    """One frame's candidates: a stay pair per hypothesis and a (B, R) extension block.

    The singles and the parents are both the beam.  Candidate ``i``
    (``i < B``) is ``beam[i]`` absorbing a blank or a repeat of its last
    label, with pair ``(stay_blank[i], stay_nonblank[i])``.  Candidate
    ``B + i * R + col`` is ``beam[i]`` extended by the ordinary token
    ``ids[col]``: non-blank score ``ext[i, col]`` and blank score -inf.  An
    extension that equals another beam entry lives in that entry's stay pair
    instead, and ``valid`` masks it out.
    """

    stay_blank: list[float]
    stay_nonblank: list[float]
    ext: np.ndarray

    def hypothesis(self, j: int, tokens: tuple[int, ...]) -> Hypothesis:
        """Candidate ``j``, whose tokens are ``tokens``, as a new hypothesis.

        It shares its parent's views.  A stay keeps its own entry's ``k``,
        even when a merge gave it another entry's views.
        """
        if j < len(self.singles):
            log_blank, log_nonblank = self.stay_blank[j], self.stay_nonblank[j]
            return Hypothesis(
                tokens, log_blank, log_nonblank, views=self.single_views[j], k=self.singles[j].k
            )
        parent, i, col, k = self._extension(j, tokens)
        return Hypothesis(tokens, NEG_INF, self.ext.item(i, col), views=parent.views, k=k)

    def scores(self, weights: Sequence[float]) -> np.ndarray:
        """Acoustic plus weighted LM score of every index, -inf where not valid."""
        stay = np.array([lse2(b, nb) for b, nb in zip(self.stay_blank, self.stay_nonblank)])
        ext = self.ext
        for k, w in enumerate(weights):
            stay = stay + w * np.array([views[k].cache.cum_logprob for views in self.single_views])
            lm = w * np.array([h.views[k].cache.cum_logprob for h in self.parents])
            ext = ext + lm[:, None]
        scores = np.concatenate([stay, ext.ravel()])
        scores[~self.valid] = NEG_INF
        return scores


def _word_begins(asr_tok: Tokenizer) -> list[bool]:
    """Whether each ASR id begins a word; reserved ids, ``</s>`` among them, never do."""
    return [asr_tok.vocab.is_word_begin(c) for c in range(asr_tok.vocab.size)]


def _views_key(views: Sequence[LMView]) -> tuple:
    return tuple((v.cache.scored_len, v.consumed) for v in views)


def extend_frame(
    beam: Sequence[Hypothesis],
    frame: np.ndarray,
    real_ids: np.ndarray,
    columns: dict[int, int],
    begins: Sequence[bool],
) -> FrameCandidates:
    """One frame of the CTC prefix recursion over the whole beam at once.

    ``columns`` maps each id in ``real_ids`` to its position, and ``begins``
    is the word-begin table the candidates set ``k`` from.  Row ``i`` of the
    extension block is ``tot_i + frame[real_ids]``, except that the last
    label's column holds ``pb_i + frame[last]``: only blank-ending paths can
    emit a label twice.  An extension that equals another beam entry is
    folded into that entry's stay pair by log-sum and masked out, and the
    merged candidate keeps the views with the larger ``_views_key`` (the lower
    beam index on a tie).
    """
    tots = [lse2(h.log_blank, h.log_nonblank) for h in beam]
    ext = np.add.outer(tots, frame[real_ids])
    row = frame.tolist()  # Python floats, as ``ext.item`` gives the extensions
    blank = row[BLANK_ID]
    stay_blank, stay_nonblank = [], []
    for i, (tot, hyp) in enumerate(zip(tots, beam)):
        stay_blank.append(tot + blank)
        if len(hyp.tokens) > 1:
            last = hyp.tokens[-1]
            stay_nonblank.append(hyp.log_nonblank + row[last])
            col = columns.get(last)
            if col is not None:
                ext[i, col] = hyp.log_blank + row[last]
        else:
            stay_nonblank.append(NEG_INF)

    stay_views = [h.views for h in beam]
    valid = np.ones(len(beam) + ext.size, dtype=bool)
    cands = FrameCandidates(
        beam, stay_views, beam, real_ids, valid, begins, stay_blank, stay_nonblank, ext
    )
    parents = {h.tokens: i for i, h in enumerate(beam)}
    for j, hyp in enumerate(beam):
        i = parents.get(hyp.tokens[:-1]) if len(hyp.tokens) > 1 else None
        col = columns.get(hyp.tokens[-1])
        if i is None or col is None:
            continue
        stay_nonblank[j] = lse2(stay_nonblank[j], ext.item(i, col))
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


def _top_k(cands, scores: np.ndarray, extra, beam_size: int | None) -> list[tuple]:
    """``(index, tokens)`` of the ``beam_size`` best valid candidates, in ``_select_top`` order.

    ``extra`` (the shallow LM scores, or None) is added to ``scores`` first.
    ``np.partition`` finds the k-th best score; only the valid candidates at
    or above it (every tie included) are sorted, and only their tokens are
    built, once: the survivors are built from them.
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
    return [(j, tokens) for _, tokens, j in _select_top(entries, beam_size)]


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
    return [cands.hypothesis(j, tokens) for j, tokens in kept]


# -- label-synchronous expansion ---------------------------------------------


@dataclass(slots=True, eq=False)
class LabelCandidates(Candidates):
    """One label step's candidates: ended hypotheses and an (L, C) extension block.

    The singles are the ended hypotheses, each carried over as itself, and
    the parents are the live ones.  Extension ``(r, col)`` has label score
    ``label_scores[r, col]``.  ``scores`` holds every index's stale combined
    score: ``e2e + LM`` for an ended hypothesis, ``e2e + label score + LM``
    for an extension.  Extensions whose label score is -inf are not
    candidates, and ``valid`` masks them out.
    """

    label_scores: np.ndarray
    scores: np.ndarray

    def candidate(self, j: int, tokens: tuple[int, ...]) -> tuple[Hypothesis, Hypothesis | None]:
        """Candidate ``j``, whose tokens are ``tokens``, as (hypothesis, parent).

        An ended candidate is itself, with its own ``k``, and no parent.  An
        extension is a new hypothesis sharing its parent's views.
        """
        if j < len(self.singles):
            return self.singles[j], None
        parent, r, col, k = self._extension(j, tokens)
        child = Hypothesis(
            tokens,
            e2e=parent.e2e + self.label_scores.item(r, col),
            ended=tokens[-1] == EOS_ID,
            views=parent.views,
            k=k,
        )
        return child, parent


# -- LM bookkeeping ------------------------------------------------------------


def _retokenize(lm_tokens: tuple, words, lm_tok: Tokenizer, memo) -> tuple:
    """``lm_tokens`` plus ``words``, each encoded once per ``memo``.

    The decoder's one map from ASR to LM tokens.  Given a view's LM tokens
    and the words of ``asr_tok.decode(tokens[1 + view.consumed : end])``, it
    re-tokenizes ``tokens[1:end]``, since a view ends at a word boundary.  A
    hypothesis's views advance together and share ``consumed``, so callers
    decode once for every LM.
    """
    for word in words:
        if word not in memo:
            memo[word] = tuple(lm_tok.encode_word(word))
        lm_tokens += memo[word]
    return lm_tokens


def advance_views(
    hyp: Hypothesis, asr_tok: Tokenizer, lms: Sequence[LMSpec], memos=None
) -> None:
    """Give the hypothesis new LM views extended by its newly completed words.

    Only complete words are mapped, so advancing a growing hypothesis step by step
    gives the same LM tokens as re-tokenizing its whole complete-word prefix at
    once.  The words end at ``hyp.k``, which the step that built the hypothesis
    set, so nothing is rescanned.  ``memos`` are the decode's word memos, one
    per LM (fresh ones if omitted).  The old views, which other hypotheses
    may share, are left as they are.
    """
    if not lms:
        return
    k = hyp.k
    consumed = hyp.views[0].consumed
    if k > consumed:
        words = asr_tok.decode(hyp.tokens[1 + consumed : 1 + k]).split()
        if memos is None:
            memos = [{} for _ in lms]
        new = [
            _retokenize(v.lm_tokens, words, s.tokenizer, memo)
            for v, s, memo in zip(hyp.views, lms, memos)
        ]
        hyp.views = [LMView(k, lm_tokens, v.cache) for v, lm_tokens in zip(hyp.views, new)]


def fusable(
    policy: FusionPolicy, beam: Sequence[Hypothesis], t: int, shortest: int, prev_shortest: int
) -> bool:
    """Decide whether this step triggers LM scoring (views must be current).

    ``shortest`` is the beam's shortest LM-token prefix now and
    ``prev_shortest`` the one the search saw at its previous step (0 at first).
    """
    if policy.kind == "always":
        return True
    if policy.kind in ("never", "shallow"):
        return False
    if policy.kind == "shortest":
        return shortest > prev_shortest
    # interval: fire on the grid, but only if someone has unscored words
    if t % policy.interval != 0:
        return False
    return any(
        view.cache.scored_len < len(view.lm_tokens) for h in beam for view in h.views
    )


def _score(spec: LMSpec, requests: list[ScoreRequest], counters: DecodeCounters) -> list:
    """One batched LM call, counted after it returns; the new caches, in request order.

    The call counts once; each request with tokens past its cache's
    ``scored_len`` counts as one hypothesis, and those tokens as new tokens.
    """
    caches = spec.scorer.score_batch_incremental(requests)
    new = [n for n in (len(r.tokens) - r.cache.scored_len for r in requests) if n > 0]
    counters.lm_calls += 1
    counters.lm_hypotheses += len(new)
    counters.lm_tokens += sum(new)
    return caches


def apply_lm_scores(
    beam: Sequence[Hypothesis], lms: Sequence[LMSpec], counters: DecodeCounters
) -> None:
    """One batched incremental call per LM; each hypothesis gets views with the new caches."""
    caches = []
    for i, spec in enumerate(lms):
        requests = [ScoreRequest(h.views[i].lm_tokens, h.views[i].cache) for h in beam]
        caches.append(_score(spec, requests, counters))
    for hyp, new in zip(beam, zip(*caches)):
        hyp.views = [LMView(v.consumed, v.lm_tokens, cache) for v, cache in zip(hyp.views, new)]


# -- per-mode steps ---------------------------------------------------------------
#
# ``root`` is the first beam's hypothesis and ``limit`` the step count cap.
# ``expand`` returns a step's candidates, sized by the step's expansion count;
# ``prune(cands, extra)`` keeps the best by the stale combined score plus
# ``extra`` (the shallow LM scores, or None) and builds the survivors as new
# hypotheses.  ``close`` finishes the last beam: each hypothesis's ``e2e``
# becomes its end-to-end score.


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
        self.begins = _word_begins(asr_tok)
        self.lms = config.lms
        self.beam_size = config.beam
        self.weights = [spec.weight for spec in config.lms]

    def root(self) -> Hypothesis:
        views = [LMView(0, (), spec.scorer.fresh_cache()) for spec in self.lms]
        return Hypothesis((BOS_ID,), log_blank=0.0, views=views, k=0)

    def expand(self, beam, t):
        return extend_frame(beam, self.rows[t - 1], self.real_ids, self.columns, self.begins)

    def prune(self, cands, extra) -> list[Hypothesis]:
        return prune_frame_candidates(cands, self.beam_size, self.weights, extra)

    def close(self, beam: list[Hypothesis]) -> list[Hypothesis]:
        for hyp in beam:
            hyp.e2e = lse2(hyp.log_blank, hyp.log_nonblank)
        return beam


class _LabelStep:
    """Label-synchronous search: one label per step from a CTC prefix scorer.

    ``expand`` and ``prune`` each make at most one prefix-scorer call for
    the whole beam; ``prune`` builds states for live survivors only, and
    ``close`` reads the ``</s>`` scores from the states with ``end_scores``.
    """

    def __init__(self, source, config: DecodeConfig, asr_tok: Tokenizer):
        scorer = source if hasattr(source, "candidate_scores") else None
        if scorer is None:
            if not isinstance(source, EmissionMatrix):
                raise DecodeError("label-synchronous decoding needs emissions or a scorer")
            if source.vocab_size != asr_tok.vocab.size:
                raise DecodeError("emissions do not match the vocabulary size")
            scorer = CtcPrefixScorer(source, EOS_ID, disallowed=(BOS_ID, UNK_ID))
        self.scorer = scorer
        self.limit = scorer.T
        self.id_index = np.asarray([*asr_tok.vocab.real_ids(), EOS_ID])
        self.begins = _word_begins(asr_tok)
        self.lms = config.lms
        self.beam_size = config.beam
        self.weights = [spec.weight for spec in config.lms]

    def root(self) -> Hypothesis:
        views = [LMView(0, (), spec.scorer.fresh_cache()) for spec in self.lms]
        return Hypothesis((BOS_ID,), views=views, state=self.scorer.root(), k=0)

    def expand(self, beam, t) -> LabelCandidates:
        ended = [h for h in beam if h.ended]
        live = [h for h in beam if not h.ended]
        label_scores = self.scorer.candidate_scores([h.state for h in live])[:, self.id_index]
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
        ended_views = [h.views for h in ended]
        return LabelCandidates(
            ended, ended_views, live, self.id_index, valid, self.begins, label_scores, scores
        )

    def prune(self, cands: LabelCandidates, extra) -> list[Hypothesis]:
        kept = _top_k(cands, cands.scores, extra, self.beam_size)
        pairs = [cands.candidate(j, tokens) for j, tokens in kept]
        growing = [(h, p.state) for h, p in pairs if p is not None and not h.ended]
        if growing:
            hyps, parents = zip(*growing)
            for hyp, state in zip(hyps, self.scorer.child(parents, [h.tokens[-1] for h in hyps])):
                hyp.state = state
        return [h for h, _ in pairs]

    def close(self, beam: list[Hypothesis]) -> list[Hypothesis]:
        """End every unfinished hypothesis with its ``</s>`` score."""
        live = [h for h in beam if not h.ended]
        if live:
            ends = end_scores([h.state for h in live]).tolist()
            for hyp, end in zip(live, ends):
                hyp.e2e += end
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
    # one word memo per LM for every re-tokenization of this decode
    memos = [{} for _ in config.lms]
    beam, trace = _search(step_type(source, config, asr_tok), config, asr_tok, counters, memos)
    nbest = finalize_beam(beam, config, asr_tok, counters, memos)
    counters.wall_seconds = time.perf_counter() - started

    return DecodeResult(nbest[0], nbest, counters, trace if config.keep_trace else None)


def _search(step, config, asr_tok, counters, memos):
    """The search loop of every policy: expand, prune, advance views, fuse, trace.

    ``memos`` are the decode's word memos, one per LM.
    """
    beam = [step.root()]
    prev_shortest = 0
    trace: list[StepTrace] = []
    shallow = None
    if config.policy.kind == "shallow" and config.lms:
        shallow = _ShallowRequests(config.lms, asr_tok, memos)

    for t in range(1, step.limit + 1):
        cands = step.expand(beam, t)
        counters.steps += 1
        counters.hyps_expanded += len(cands)
        extra = None if shallow is None else _shallow_scores(cands, shallow, counters)
        beam = step.prune(cands, extra)
        # free the candidates before the next expansion builds new ones
        del cands
        for hyp in beam:
            advance_views(hyp, asr_tok, config.lms, memos)
        fired, shortest = False, None
        if config.lms:
            shortest = min((len(h.views[0].lm_tokens) for h in beam), default=0)
            fired = fusable(config.policy, beam, t, shortest, prev_shortest)
            prev_shortest = shortest
        if fired:
            apply_lm_scores(beam, config.lms, counters)
        if config.keep_trace and shallow is None:
            trace.append(_trace_step(t, fired, shortest, beam))
        # only label-synchronous hypotheses ever end
        if all(h.ended for h in beam):
            break
    return step.close(beam), trace


def _piece_words(asr_tok: Tokenizer) -> list[tuple]:
    """Per ASR id, ``(glue, words, opens)`` for its piece's text, markers read as spaces.

    ``words`` are the text's words, ``glue`` the first of them if it joins the
    word before it, and ``opens`` whether text ending with it ends inside a
    word.  Reserved ids decode to nothing.  With a one-character marker,
    ``decode`` is these texts concatenated, stripped.
    """
    table = []
    for c, piece in enumerate(asr_tok.vocab.tokens):
        text = "" if c < NUM_SPECIALS else piece.replace(asr_tok.vocab.marker, " ")
        words = tuple(text.split())
        glue = words[0] if words and not text[0].isspace() else None
        table.append((glue, words, bool(text) and not text[-1].isspace()))
    return table


class _ShallowRequests:
    """Shallow fusion's LM requests, built once per parent.

    ``_search`` makes one per decode and hands it the decode's word memos,
    one per LM, so each distinct word is encoded once per decode and nothing
    is kept between decodes.
    """

    def __init__(self, lms: Sequence[LMSpec], asr_tok: Tokenizer, memos: list[dict]):
        self.lms = lms
        self.asr_tok = asr_tok
        self.memos = memos
        self.pieces = _piece_words(asr_tok)

    def __call__(self, cands, kept: np.ndarray) -> list[list[ScoreRequest]]:
        """Each LM's requests for the candidates ``kept``, in their order.

        Single items go through ``_whole_requests``.  Per family, the parent's
        tail is decoded once into ``words`` and an open ``last`` word (None if
        the tail ends between words), re-tokenized once per LM as ``base`` and
        ``closed``.  A child whose piece joins ``last`` gets ``base`` plus the
        joined word, any other ``closed`` plus its piece's words: either way
        the words of ``decode(tail + (c,))``.
        """
        lms, asr_tok, memos, pieces = self.lms, self.asr_tok, self.memos, self.pieces
        singles, families = cands.families(kept)
        items = ((cands.tokens(j), cands.views(j)) for j in singles)
        requests = _whole_requests(items, lms, asr_tok, memos)
        for parent, labels in families:
            tail = parent.tokens[1 + parent.views[0].consumed :]
            words = asr_tok.decode(tail).split()
            # a parent's tail holds ordinary ids only: ``</s>`` ends a hypothesis
            last = words.pop() if tail and pieces[tail[-1]][2] else None
            for view, spec, memo, reqs in zip(parent.views, lms, memos, requests):
                lm_tok, cache = spec.tokenizer, view.cache
                base = _retokenize(view.lm_tokens, words, lm_tok, memo)
                closed = base if last is None else _retokenize(base, (last,), lm_tok, memo)
                for c in labels:
                    glue, more, _ = pieces[c]
                    if glue is None or last is None:
                        lm_tokens = _retokenize(closed, more, lm_tok, memo)
                    else:
                        lm_tokens = _retokenize(base, (last + glue, *more[1:]), lm_tok, memo)
                    reqs.append(ScoreRequest(lm_tokens, cache))
        return requests


def _shallow_scores(cands, shallow: _ShallowRequests, counters: DecodeCounters) -> np.ndarray:
    """Reference baseline: weighted LM scores of every valid candidate, 0 elsewhere.

    Classic shallow fusion charges each candidate token as it is emitted,
    which across mismatched vocabularies means re-tokenizing and scoring the
    candidate's entire current content every step — including the
    still-growing final word, whose tokenization is tentative.  Nothing is
    cached (the views' caches stay fresh, so the stale LM term in the
    candidate scores is 0), and the decoder's LM counters reflect the full
    price of pre-pruning fusion.  ``shallow`` builds the same requests, in
    the same order, as ``_whole_requests`` over every candidate would.
    """
    kept = np.flatnonzero(cands.valid)
    extra = np.zeros(cands.valid.size)
    for spec, requests in zip(shallow.lms, shallow(cands, kept)):
        caches = _score(spec, requests, counters)
        extra[kept] += spec.weight * np.array([cache.cum_logprob for cache in caches])
    return extra


def _whole_requests(items, lms: Sequence[LMSpec], asr_tok: Tokenizer, memos, close=()) -> list:
    """Each LM's requests for every item's whole content plus ``close``, in item order.

    ``items`` yields ``(tokens, views)``, read once; each request resumes its view's cache.
    """
    requests = [[] for _ in lms]
    for tokens, views in items:
        words = asr_tok.decode(tokens[1 + views[0].consumed :]).split() if lms else ()
        for spec, view, memo, reqs in zip(lms, views, memos, requests):
            lm_tokens = _retokenize(view.lm_tokens, words, spec.tokenizer, memo)
            reqs.append(ScoreRequest(lm_tokens + close, view.cache))
    return requests


def _trace_step(t, fired, shortest, beam) -> StepTrace:
    lm_state = ()
    if shortest is not None:
        lm_state = tuple(
            (h.views[0].cache.scored_len, h.views[0].cache.cum_logprob) for h in beam
        )
    return StepTrace(t, fired, shortest, lm_state)


def finalize_beam(beam, config, asr_tok, counters, memos) -> list[ScoredHypothesis]:
    """One last LM pass over every whole hypothesis with ``</s>``; the whole beam ranked.

    ``memos`` are the decode's word memos, one per LM.
    """
    if not beam:
        raise DecodeError("empty beam at finalization")
    items = ((h.tokens, h.views) for h in beam)
    requests = _whole_requests(items, config.lms, asr_tok, memos, (EOS_ID,))
    caches = [_score(spec, reqs, counters) for spec, reqs in zip(config.lms, requests)]
    counters.lm_calls_final += len(config.lms)

    entries = []
    for j, hyp in enumerate(beam):
        lm_scores = tuple(per_lm[j].cum_logprob for per_lm in caches)
        total = hyp.e2e
        for spec, raw in zip(config.lms, lm_scores):
            if spec.use_in_final:
                total += spec.weight * raw
        entries.append((total, hyp.tokens, lm_scores, hyp.e2e))
    return [
        ScoredHypothesis(asr_tok.decode(tokens), tokens, e2e, lm_scores, total)
        for total, tokens, lm_scores, e2e in _select_top(entries, None)
    ]
