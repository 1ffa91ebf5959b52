"""Beam search with policy-timed external LM fusion.

One search loop (``decode``) serves both modes.  Each step it expands the beam,
prunes the candidates to the beam size by the combined score (acoustic plus
weighted LM scores, the LM part possibly stale), advances the survivors' LM
views over their newly completed words, and — if the fusion policy fires —
scores those words with one batched LM call per model: the delayed pass,
which sends each hypothesis's view as a family of one empty tail and keeps
the caches the scorer answers with.
Every request for a hypothesis's whole content comes from one builder,
``_family_requests``, which resumes its views with its re-tokenized rest;
finalization scores the last beam's with ``</s>`` and ranks by the scorers
flagged for final selection.

The decoder counts the LM work it requests: every LM call goes through
``_score``, which adds it to the decode's own ``DecodeCounters``.  Scorers
count nothing.

Policies:

* ``always``    — fuse after pruning at every step
* ``never``     — fuse only at finalization (n-best rescoring)
* ``shortest``  — fuse when the shortest re-tokenized prefix in the beam grew
* ``interval``  — fuse every I steps if any hypothesis has unscored words
* ``shallow``   — reference baseline: score every candidate before pruning

Both modes prune through one cut, ``_survivors``: ``np.partition`` finds the
k-th best combined score, only the candidates at or above it (every tie) are
sorted, and the block's ``survivor`` builds hypotheses for the survivors only.
A hypothesis has one shape in both modes: ``e2e`` is its acoustic score so
far and ``state`` the mode's recursion state.  What differs between the
modes lives in a small step object:

* ``_FrameStep`` (mode ``ctc``) advances one acoustic frame per step.
  ``extend_frame`` computes the CTC prefix recursion for the whole beam as
  arrays: each hypothesis's blank/non-blank stay pair plus a (beam, vocabulary)
  block of extension scores, with the reserved ids masked out and duplicate
  prefixes folded into the stay pair of the beam entry they equal.  The
  state is the blank/non-blank pair, and ``e2e`` their total.
* ``_LabelStep`` (mode ``labelsync``) advances one label per step from a
  CTC prefix scorer, so all live hypotheses share a length.  ``expand``
  returns ``LabelCandidates``: ended hypotheses carried over as single
  candidates, and the scorer's (live hypotheses, vocabulary) block of each
  extension's prefix log-probability, with the impossible extensions
  masked out.  The step holds the live beam's forward variables as one
  ``PrefixBlock``, and a live hypothesis's state is its row there.  A live
  survivor holds its parent's row until ``prune`` builds the survivors'
  block in one call, and unfinished hypotheses are closed with ``</s>``,
  whose score replaces their ``e2e``.

Both candidate blocks are ``Candidates``: single items, each with its own
acoustic score and state, then one block of acoustic extension scores
whose column ``c`` extends by token id ``c``.  The base answers ``valid``,
``scores(weights)``, and ``tokens(j)`` and ``survivor(j, tokens)`` for a flat
index ``j``; ``families()`` groups the valid candidates: each parent with
its labels, and each single item labelled blank.  A mode's block supplies
only the state an extension grows.  The shallow baseline is one more score
term on the same cut: every valid candidate's whole content is scored, and
those scores are added before the prune.  Each group is one family per LM
(``_family_requests``): its rest is decoded and re-tokenized once into a
base, and each child adds only its piece as a short tail: a child that
joins the open word gets the open word's fixed pieces plus the greedy
pieces of the rest after them and the piece's glue.  The LM tokenizers
memoize every encoding across decodes, so the decoder keeps no table of
its own.  Each LM scores its families in one ``FamilyBatch``
call and answers with a float per child.  The decoder keeps no LM score
between steps, but it keeps the built bases and tails and the families
last sent, in one table keyed by a group's tokens and views list, for one
step: a CTC prefix that stays in the beam by a blank or a repeat comes
back with its views, while a label-sync parent never does.  A group that
comes back with the same labels sends the very families it sent before,
which the scorer answers from its memo of its previous call.
Finalization sends the last beam through the same builder, each
hypothesis a group labelled blank whose one tail gets ``</s>``.  The step
objects own every other mode difference too: the root hypothesis's state,
the step count, and closing the last beam (label-sync hypotheses end with
``</s>``).

Hypothesis state is plain values.  An ``LMView`` is an immutable tuple, and
a view list is never changed in place: a candidate and its survivor share
their parent's list, and advancing or fusing assigns the hypothesis a new
one.  No beam entry can change another's LM state, so nothing is copied.

A hypothesis also carries ``k``, the length of its complete-word prefix, set
in O(1) by the step that builds it from ``Tokenizer.begins``.  An extension
by a word-begin piece has its parent's length less ``<s>``; a continuation
or ``</s>`` keeps its parent's ``k``; a stay, and an ended hypothesis
carried over, keep their own.  ``advance_views`` re-tokenizes only when
``k`` passed the views' ``consumed``, so no survivor is rescanned.
"""

from __future__ import annotations

import math
import numbers
import time
import weakref
from dataclasses import KW_ONLY, dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .acoustic import (
    NEG_INF,
    CtcPrefixScorer,
    EmissionMatrix,
    end_scores,
    lse2,
)
from .lm import FamilyBatch
from .tokenization import BLANK_ID, BOS_ID, EOS_ID, NUM_SPECIALS, UNK_ID, Tokenizer
# not called here: perfbench/layertrace.py patches ``decoder.tokenizable_prefix_len``
# and perfbench/tests/test_reconcile.py reads it (ROADMAP items 6 and 8)
from .tokenization import tokenizable_prefix_len

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
    """One beam entry; ``tokens`` starts at ``<s>``, and ``ended`` says if they end at ``</s>``.

    Both modes give it one shape.  ``e2e`` is its acoustic log-probability
    so far: in ``ctc`` the prefix total ``lse2(*state)``, in ``labelsync``
    its CTC prefix log-probability log ψ, and once ended its exact CTC
    log-probability.  ``state`` is the mode's recursion state: the
    ``(log_blank, log_nonblank)`` pair in ``ctc``, in ``labelsync`` its row
    in the label step's ``PrefixBlock`` (None once ended).  ``k`` is
    the complete-word source length, ``<s>`` not counted: what
    ``tokenizable_prefix_len(tokens)`` gives.  It is required: a step sets
    it in O(1) for each hypothesis it builds, and a hand-built one passes it.
    """

    tokens: tuple[int, ...]
    e2e: float = 0.0
    views: list[LMView] = field(default_factory=list)
    state: object = None
    _: KW_ONLY
    k: int

    @property
    def ended(self) -> bool:
        return self.tokens[-1] == EOS_ID


# -- candidate blocks ----------------------------------------------------------


@dataclass(slots=True, eq=False)
class Candidates:
    """One step's candidates: single items, then a (P, V) extension block.

    Candidate ``i`` (``i < S``) is ``singles[i]`` with LM views
    ``single_views[i]``, acoustic score ``single_scores[i]`` and recursion
    state ``single_states[i]``.  Candidate ``S + r * V + c`` is
    ``parents[r]``, with its views, extended by id ``c``, with acoustic
    score ``block[r, c]``; ``V`` is ``len(begins)``, the per-id word-begin
    table that sets each extension's ``k``.  ``valid`` masks out the indices
    that are no candidates.  Each mode supplies only ``_grown``, the state
    an extension grows, so one ``scores`` and one ``survivor`` serve the one
    cut (``_survivors``) of both.
    """

    singles: Sequence[Hypothesis]
    single_views: Sequence[list[LMView]]
    single_scores: list[float]
    single_states: Sequence
    parents: Sequence[Hypothesis]
    block: np.ndarray
    valid: np.ndarray
    begins: Sequence[bool]

    def __len__(self) -> int:
        return int(np.count_nonzero(self.valid))

    def tokens(self, j: int) -> tuple[int, ...]:
        n = len(self.singles)
        if j < n:
            return self.singles[j].tokens
        r, c = divmod(j - n, len(self.begins))
        return self.parents[r].tokens + (c,)

    def families(self) -> list[tuple]:
        """The valid candidates as groups ``(tokens, views, labels)``, in index order.

        Each parent with a valid extension is a family: its tokens and views
        and the labels of those extensions.  Each valid single item is a
        group of its own, its tokens and views labelled ``BLANK_ID``, whose
        piece is empty text: a stay is its hypothesis extended by blank.  So
        the groups' labels in turn are the valid indices in order.
        """
        n, parents = len(self.singles), self.parents
        kept = np.flatnonzero(self.valid)
        split = int(np.searchsorted(kept, n))
        groups = [
            (self.singles[j].tokens, self.single_views[j], (BLANK_ID,))
            for j in kept[:split].tolist()
        ]
        rows, labels = np.divmod(kept[split:] - n, len(self.begins))
        labels, start = labels.tolist(), 0
        for parent, count in zip(parents, np.bincount(rows, minlength=len(parents)).tolist()):
            if count:
                groups.append((parent.tokens, parent.views, labels[start : start + count]))
                start += count
        return groups

    def scores(self, weights: Sequence[float]) -> np.ndarray:
        """Acoustic plus weighted LM score of every index, -inf where not valid.

        The LM part is stale: each LM's weighted ``cum_logprob`` of the
        candidate's views, added one LM at a time in LM order.
        """
        single, block = np.array(self.single_scores), self.block
        for k, w in enumerate(weights):
            single = single + w * np.array([v[k].cache.cum_logprob for v in self.single_views])
            lm = w * np.array([h.views[k].cache.cum_logprob for h in self.parents])
            block = block + lm[:, None]
        scores = np.concatenate([single, block.ravel()])
        scores[~self.valid] = NEG_INF
        return scores

    def survivor(self, j: int, tokens: tuple[int, ...]) -> Hypothesis:
        """Candidate ``j``, whose tokens are ``tokens``, as a new hypothesis.

        A single item keeps its own entry's ``k``, even when a merge gave it
        another entry's views.  An extension shares its parent's views; a
        word-begin label closes the parent's last word, and a continuation
        or ``</s>`` keeps the parent's ``k``.
        """
        n = len(self.singles)
        if j < n:
            views, state = self.single_views[j], self.single_states[j]
            return Hypothesis(tokens, self.single_scores[j], views, state, k=self.singles[j].k)
        r, c = divmod(j - n, len(self.begins))
        parent = self.parents[r]
        k = len(parent.tokens) - 1 if self.begins[c] else parent.k
        score = self.block.item(r, c)
        return Hypothesis(tokens, score, parent.views, self._grown(parent, c, score), k=k)


# -- frame-synchronous expansion ---------------------------------------------


@dataclass(slots=True, eq=False)
class FrameCandidates(Candidates):
    """One frame's candidates: a stay pair per hypothesis and a (B, V) extension block.

    The singles and the parents are both the beam.  Candidate ``i``
    (``i < B``) is ``beam[i]`` absorbing a blank or a repeat of its last
    label: its state is its stay pair ``(log_blank, log_nonblank)`` and its
    score their total.  Candidate ``B + i * V + c`` is ``beam[i]`` extended
    by token id ``c``: non-blank score ``block[i, c]`` and blank score -inf.
    Reserved ids are no extensions, and an extension that equals another
    beam entry lives in that entry's stay pair instead; ``valid`` masks both
    out.
    """

    def _grown(self, parent: Hypothesis, c: int, score: float) -> tuple[float, float]:
        return (NEG_INF, score)


def _views_key(views: Sequence[LMView]) -> tuple:
    return tuple((v.cache.scored_len, v.consumed) for v in views)


def extend_frame(
    beam: Sequence[Hypothesis], frame: np.ndarray, begins: Sequence[bool]
) -> FrameCandidates:
    """One frame of the CTC prefix recursion over the whole beam at once.

    ``begins`` is the word-begin table the candidates set ``k`` from.  Row
    ``i`` of the extension block is ``tot_i + frame``, except that the last
    label's column holds ``pb_i + frame[last]``: only blank-ending paths can
    emit a label twice.  An extension that equals another beam entry is
    folded into that entry's stay pair by log-sum and masked out, and the
    merged candidate keeps the views with the larger ``_views_key`` (the lower
    beam index on a tie).
    """
    tots = [h.e2e for h in beam]
    ext = np.add.outer(tots, frame)
    row = frame.tolist()  # Python floats, as ``ext.item`` gives the extensions
    blank = row[BLANK_ID]
    stay_blank, stay_nonblank = [], []
    for i, (tot, hyp) in enumerate(zip(tots, beam)):
        stay_blank.append(tot + blank)
        if len(hyp.tokens) > 1:
            last = hyp.tokens[-1]
            log_blank, log_nonblank = hyp.state
            stay_nonblank.append(log_nonblank + row[last])
            ext[i, last] = log_blank + row[last]
        else:
            stay_nonblank.append(NEG_INF)

    stay_views = [h.views for h in beam]
    valid = np.ones(len(beam) + ext.size, dtype=bool)
    valid[len(beam) :].reshape(ext.shape)[:, :NUM_SPECIALS] = False  # reserved ids: no extensions
    parents = {h.tokens: i for i, h in enumerate(beam)}
    for j, hyp in enumerate(beam):
        i = parents.get(hyp.tokens[:-1]) if len(hyp.tokens) > 1 else None
        if i is None:
            continue
        last = hyp.tokens[-1]
        stay_nonblank[j] = lse2(stay_nonblank[j], ext.item(i, last))
        if (_views_key(beam[i].views), -i) > (_views_key(hyp.views), -j):
            stay_views[j] = beam[i].views
        valid[len(beam) + i * len(frame) + last] = False
    stays = list(zip(stay_blank, stay_nonblank))
    stay_scores = [lse2(*pair) for pair in stays]
    return FrameCandidates(beam, stay_views, stay_scores, stays, beam, ext, valid, begins)


def _select_top(entries: list, beam_size: int | None) -> list:
    """Deterministic pruning: score desc, then shorter, then lexicographic."""
    entries.sort(key=lambda e: (-e[0], len(e[1]), e[1]))
    if beam_size is None:
        return entries
    return entries[:beam_size]


def _survivors(cands, scores: np.ndarray, extra, beam_size: int | None) -> list[Hypothesis]:
    """The ``beam_size`` best valid candidates as ``cands.survivor``, in ``_select_top`` order.

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
    entries = [(scores.item(j), cands.tokens(j), j) for j in kept.tolist()]
    return [cands.survivor(j, tokens) for _, tokens, j in _select_top(entries, beam_size)]


def prune_frame_candidates(
    cands: FrameCandidates,
    beam_size: int | None,
    weights: Sequence[float],
    extra: np.ndarray | None = None,
) -> list[Hypothesis]:
    """Keep the ``beam_size`` best candidates by acoustic plus weighted LM score."""
    return _survivors(cands, cands.scores(weights), extra, beam_size)


# -- label-synchronous expansion ---------------------------------------------


@dataclass(slots=True, eq=False)
class LabelCandidates(Candidates):
    """One label step's candidates: ended hypotheses and an (L, V) extension block.

    The singles are the ended hypotheses, each carried over with its own
    score, views and state, and the parents are the live ones.  Extension
    ``(r, c)`` scores ``block[r, c]``, the prefix scorer's log ψ of its
    parent's prefix extended by ``c`` (for ``</s>``, the parent's exact CTC
    log-probability).  Extensions scored -inf are not candidates, and
    ``valid`` masks them out.
    """

    def _grown(self, parent: Hypothesis, c: int, score: float) -> int | None:
        # a live extension holds its parent's row until the prune builds its own
        return None if c == EOS_ID else parent.state


# -- LM bookkeeping ------------------------------------------------------------


def _retokenize(lm_tokens: tuple, words, lm_tok: Tokenizer) -> tuple:
    """``lm_tokens`` plus the LM tokens of ``words``, from ``lm_tok``'s word memo.

    The decoder's one map from ASR to LM tokens.  Given a view's LM tokens
    and the words of ``asr_tok.decode(tokens[1 + view.consumed : end])``, it
    re-tokenizes ``tokens[1:end]``, since a view ends at a word boundary.  A
    hypothesis's views advance together and share ``consumed``, so callers
    decode once for every LM.
    """
    for word in words:
        lm_tokens += lm_tok.encode_word(word)
    return lm_tokens


# ASR tokenizer -> LM tokenizer -> ``_piece_table``; an entry dies with either tokenizer
_PIECE_TABLES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _piece_table(asr_tok: Tokenizer, lm_tok: Tokenizer) -> tuple:
    """Per ASR id ``c``: its piece's glue and the LM tokens of its words, all and after the first.

    One table per pair of tokenizers, kept while both live.
    """
    by_lm = _PIECE_TABLES.get(asr_tok)
    if by_lm is None:
        by_lm = _PIECE_TABLES[asr_tok] = weakref.WeakKeyDictionary()
    table = by_lm.get(lm_tok)
    if table is None:
        table = by_lm[lm_tok] = tuple(
            (glue, _retokenize((), words, lm_tok), _retokenize((), words[1:], lm_tok))
            for glue, words, _ in asr_tok.pieces
        )
    return table


def advance_views(hyp: Hypothesis, asr_tok: Tokenizer, lms: Sequence[LMSpec]) -> None:
    """Give the hypothesis new LM views extended by its newly completed words.

    Only complete words are mapped, so advancing a growing hypothesis step by step
    gives the same LM tokens as re-tokenizing its whole complete-word prefix at
    once.  The words end at ``hyp.k``, which the step that built the hypothesis
    set, so nothing is rescanned.  The old views, which other hypotheses
    may share, are left as they are.
    """
    if not lms:
        return
    k = hyp.k
    consumed = hyp.views[0].consumed
    if k > consumed:
        words = asr_tok.decode(hyp.tokens[1 + consumed : 1 + k]).split()
        new = [_retokenize(v.lm_tokens, words, s.tokenizer) for v, s in zip(hyp.views, lms)]
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


def _score(spec: LMSpec, batch: FamilyBatch, counters: DecodeCounters) -> tuple[list, list]:
    """One batched LM call, counted after it returns; its ``(caches, scores)``.

    The call counts once; each request the batch stands for with tokens past
    its cache's ``scored_len`` counts as one hypothesis, and those tokens as
    new tokens.  The batch is counted per family from the lengths.  A
    family's base covers its cache (the scorer checks it), so it has
    ``d >= 0`` new tokens: with ``d > 0`` every child counts, and with
    ``d == 0`` only the children with a non-empty tail.
    """
    answers = spec.scorer.score_batch_incremental(batch)
    hypotheses = tokens = 0
    for cache, base, tails in batch.families:
        d = len(base) - cache.scored_len
        hypotheses += len(tails) if d > 0 else len(tails) - tails.count(())
        tokens += d * len(tails) + sum(map(len, tails))
    counters.lm_calls += 1
    counters.lm_hypotheses += hypotheses
    counters.lm_tokens += tokens
    return answers


def apply_lm_scores(
    beam: Sequence[Hypothesis], lms: Sequence[LMSpec], counters: DecodeCounters
) -> None:
    """One batched incremental call per LM; each hypothesis gets views with the new caches.

    Each hypothesis's view is a family of one empty tail, ``(cache,
    lm_tokens, ((),))``, whose cache after its base is the view's new cache.
    """
    caches = []
    for i, spec in enumerate(lms):
        batch = FamilyBatch([(h.views[i].cache, h.views[i].lm_tokens, ((),)) for h in beam])
        caches.append(_score(spec, batch, counters)[0])
    for hyp, new in zip(beam, zip(*caches)):
        hyp.views = [LMView(v.consumed, v.lm_tokens, cache) for v, cache in zip(hyp.views, new)]


# -- per-mode steps ---------------------------------------------------------------
#
# ``root_state`` is the root hypothesis's state and ``limit`` the step count cap.
# ``expand`` returns a step's candidates, sized by the step's expansion count;
# ``prune(cands, extra)`` keeps the best by the stale combined score plus
# ``extra`` (the shallow LM scores, or None) and builds the survivors as new
# hypotheses.  ``close`` finishes the last beam, whose ``e2e`` then is each
# hypothesis's end-to-end score: a frame beam's already is, and a label
# beam's unfinished hypotheses end with ``</s>``.


class _FrameStep:
    """Frame-synchronous CTC prefix search: one emission row per step."""

    root_state = (0.0, NEG_INF)

    def __init__(self, em: EmissionMatrix, config: DecodeConfig, asr_tok: Tokenizer):
        self.rows = em.log_probs
        self.limit = em.num_frames
        self.begins = asr_tok.begins
        self.beam_size = config.beam
        self.weights = [spec.weight for spec in config.lms]

    def expand(self, beam, t):
        return extend_frame(beam, self.rows[t - 1], self.begins)

    def prune(self, cands, extra) -> list[Hypothesis]:
        return prune_frame_candidates(cands, self.beam_size, self.weights, extra)

    def close(self, beam: list[Hypothesis]) -> list[Hypothesis]:
        """Nothing to do: each hypothesis's ``e2e`` is already its prefix total."""
        return beam


class _LabelStep:
    """Label-synchronous search: one label per step from a CTC prefix scorer.

    ``block`` holds the live beam's forward variables, and each live
    hypothesis's ``state`` is its row, in beam order.  ``expand`` and
    ``prune`` each make at most one prefix-scorer call for the whole beam:
    ``prune`` builds the next block with one row per live survivor, which
    it numbers 0..n-1, and ``close`` reads the ``</s>`` scores from the
    block with ``end_scores``.  The scorer's rows hold one score per ASR
    id, -inf for an id that cannot be a label, as ``CtcPrefixScorer`` does;
    another width is a ``DecodeError``.
    """

    root_state = 0

    def __init__(self, source, config: DecodeConfig, asr_tok: Tokenizer):
        if isinstance(source, EmissionMatrix):
            source = CtcPrefixScorer(source, EOS_ID, disallowed=(BOS_ID, UNK_ID))
        self.scorer = source
        self.block = source.root()
        self.limit = source.T
        self.begins = asr_tok.begins
        self.beam_size = config.beam
        self.weights = [spec.weight for spec in config.lms]

    def expand(self, beam, t) -> LabelCandidates:
        ended = [h for h in beam if h.ended]
        live = [h for h in beam if not h.ended]
        label_scores = self.scorer.candidate_scores(self.block)
        if label_scores.shape[1] != len(self.begins):
            raise DecodeError(
                f"prefix scorer rows have {label_scores.shape[1]} scores, not {len(self.begins)}"
            )
        valid = np.concatenate(
            [np.ones(len(ended), dtype=bool), (label_scores > NEG_INF).ravel()]
        )
        singles = ([h.views for h in ended], [h.e2e for h in ended], [h.state for h in ended])
        return LabelCandidates(ended, *singles, live, label_scores, valid, self.begins)

    def prune(self, cands: LabelCandidates, extra) -> list[Hypothesis]:
        survivors = _survivors(cands, cands.scores(self.weights), extra, self.beam_size)
        # every live survivor is a new extension, holding its parent's row
        live = [h for h in survivors if not h.ended]
        if live:
            rows, labels = [h.state for h in live], [h.tokens[-1] for h in live]
            self.block = self.scorer.child(self.block, rows, labels)
            for row, hyp in enumerate(live):
                hyp.state = row
        return survivors

    def close(self, beam: list[Hypothesis]) -> list[Hypothesis]:
        """End every unfinished hypothesis; its ``</s>`` score is its ``e2e``."""
        live = [h for h in beam if not h.ended]
        if live:
            ends = end_scores(self.block).tolist()
            for hyp in live:
                hyp.e2e = ends[hyp.state]
                hyp.tokens = hyp.tokens + (EOS_ID,)
                hyp.state = None
        return beam


# -- decode ---------------------------------------------------------------------


def decode(source, config: DecodeConfig, asr_tok: Tokenizer) -> DecodeResult:
    """Run the search loop over emissions (or a label-sync scorer) and finalize."""
    if isinstance(source, EmissionMatrix):
        if source.vocab_size != asr_tok.vocab.size:
            raise DecodeError(
                f"emissions have {source.vocab_size} columns but the vocabulary "
                f"has {asr_tok.vocab.size} tokens"
            )
    elif not (config.mode == "labelsync" and hasattr(source, "candidate_scores")):
        raise DecodeError(f"mode {config.mode} needs emissions or, in labelsync, a prefix scorer")
    counters = DecodeCounters()
    started = time.perf_counter()
    step_type = _FrameStep if config.mode == "ctc" else _LabelStep
    step = step_type(source, config, asr_tok)
    # shallow fusion's requests per candidate group, held for one step
    held = {}
    views = [LMView(0, (), spec.scorer.fresh_cache()) for spec in config.lms]
    beam = [Hypothesis((BOS_ID,), 0.0, views, step.root_state, k=0)]
    prev_shortest = 0
    trace: list[StepTrace] = []
    shallow = config.policy.kind == "shallow" and bool(config.lms)

    for t in range(1, step.limit + 1):
        cands = step.expand(beam, t)
        counters.steps += 1
        counters.hyps_expanded += len(cands)
        extra = None
        if shallow:
            extra = _shallow_scores(cands, config.lms, asr_tok, held, counters)
        beam = step.prune(cands, extra)
        # free the candidates before the next expansion builds new ones
        del cands
        for hyp in beam:
            advance_views(hyp, asr_tok, config.lms)
        fired, shortest = False, None
        if config.lms:
            shortest = min((len(h.views[0].lm_tokens) for h in beam), default=0)
            fired = fusable(config.policy, beam, t, shortest, prev_shortest)
            prev_shortest = shortest
        if fired:
            apply_lm_scores(beam, config.lms, counters)
        if config.keep_trace and not shallow:
            trace.append(_trace_step(t, fired, shortest, beam))
        # only label-synchronous hypotheses ever end
        if all(h.ended for h in beam):
            break
    nbest = finalize_beam(step.close(beam), config, asr_tok, counters)
    counters.wall_seconds = time.perf_counter() - started
    return DecodeResult(nbest[0], nbest, counters, trace if config.keep_trace else None)


def _family_requests(groups, lms, asr_tok, held) -> list[FamilyBatch]:
    """Each group's family per LM, one ``FamilyBatch`` per LM, in group order.

    A group ``(tokens, views, labels)`` is a hypothesis, its views and the
    labels of its children: a parent with its extensions' labels, or a
    hypothesis alone labelled blank, whose one child is its whole content.
    Shallow fusion passes ``cands.families()``, so the batches' requests
    come in candidate index order; finalization passes the last beam.
    ``lms`` may not be empty.  A group's tail is decoded once into
    ``words`` and an open ``last`` word (None if the tail ends between
    words, as after ``</s>``): the family's ``base`` is the view's LM tokens
    plus ``words``.  A child whose piece joins ``last`` by ``glue`` has the
    joined word's pieces, ``last``'s fixed ones plus ``encode_rest(stub +
    glue)``, and the LM tokens of the piece's further words; any other has
    ``last``'s pieces and those of its piece's words, read from
    ``_piece_table``.  Either way ``base + tail`` is ``decode(tokens +
    (c,))`` re-tokenized, and only complete words are encoded whole.

    ``held`` keeps the built bases and tails from one call to the next, in
    one dict keyed by ``(tokens, id(views))``.  Its value is ``(views,
    bases, tails, sent)``, where ``bases[i]`` is LM ``i``'s base and
    ``tails[i][c]`` its tail for label ``c``, or None if not built; holding
    the views keeps their id unique.  A family depends only on the tokens
    and the views, and a child also on its label, and a views list is never
    changed in place, so a group whose tokens and views object are both
    held gets back the same base and tails: a CTC prefix that stays in the
    beam by a blank or a repeat comes back with its views.  A CTC stay and
    its own family share an entry, the stay in slot ``BLANK_ID``, which no
    extension fills; a merged stay that took another entry's views gets an
    entry of its own.  ``sent[True]`` is the stay's and ``sent[False]`` the
    family's ``(labels, families)``: the labels last built and the family
    tuple sent to each LM.  A group whose labels are those gets the same
    tuples back, with no tail looked up; otherwise only the labels whose
    slots are None are built, and new family tuples are sent.  Each call
    leaves ``held`` holding exactly its own groups, at most two per beam
    entry.
    """
    pieces = asr_tok.pieces
    tables = [_piece_table(asr_tok, spec.tokenizer) for spec in lms]
    batches = [FamilyBatch() for _ in lms]
    kept = {}
    for tokens, views, labels in groups:
        key = (tokens, id(views))
        entry = kept.get(key) or held.get(key) or (
            views, [None] * len(lms), [[None] * len(pieces) for _ in lms], [None, None])
        kept[key] = entry
        _, bases, tails, sent = entry
        stay = labels[0] == BLANK_ID
        last_sent = sent[stay]
        if last_sent is None or last_sent[0] != labels:
            missing = [c for c in labels if tails[0][c] is None]
            if missing:
                tail = tokens[1 + views[0].consumed :]
                words = asr_tok.decode(tail).split()
                last = words.pop() if tail and pieces[tail[-1]][2] else None
                for i, (view, spec, table) in enumerate(zip(views, lms, tables)):
                    lm_tok, built = spec.tokenizer, tails[i]
                    if bases[i] is None:
                        bases[i] = _retokenize(view.lm_tokens, words, lm_tok)
                    fixed, stub = lm_tok.open_word(last) if last else ((), "")
                    opened = fixed + lm_tok.encode_rest(stub)
                    for c in missing:
                        glue, whole, rest = table[c]
                        if glue is None or last is None:
                            built[c] = opened + whole
                        else:
                            built[c] = fixed + lm_tok.encode_rest(stub + glue) + rest
            families = [(view.cache, base, tuple([built[c] for c in labels]))
                        for view, base, built in zip(views, bases, tails)]
            last_sent = sent[stay] = (labels, families)
        for batch, family in zip(batches, last_sent[1]):
            batch.families.append(family)
    held.clear()
    held.update(kept)
    return batches


def _shallow_scores(cands, lms, asr_tok, held, counters: DecodeCounters) -> np.ndarray:
    """Reference baseline: weighted LM scores of every valid candidate, 0 elsewhere.

    Classic shallow fusion charges each candidate token as it is emitted,
    which across mismatched vocabularies means re-tokenizing and scoring the
    candidate's entire current content every step — including the
    still-growing final word, whose tokenization is tentative.  No LM score
    is kept between steps (the views' caches stay fresh, so the stale LM
    term in the candidate scores is 0), and the decoder's LM counters
    reflect the full price of pre-pruning fusion.  Each LM gets one
    ``FamilyBatch`` (``_family_requests`` over ``cands.families()``), whose
    requests are every valid candidate's whole content re-tokenized, in
    index order, and answers with one score per candidate.  Only the built
    bases and tails and the families sent are kept, for one step, in
    ``held``.
    """
    extra = np.zeros(cands.valid.size)
    batches = _family_requests(cands.families(), lms, asr_tok, held)
    for spec, batch in zip(lms, batches):
        extra[cands.valid] += spec.weight * np.array(_score(spec, batch, counters)[1], float)
    return extra


def _trace_step(t, fired, shortest, beam) -> StepTrace:
    lm_state = ()
    if shortest is not None:
        lm_state = tuple(
            (h.views[0].cache.scored_len, h.views[0].cache.cum_logprob) for h in beam
        )
    return StepTrace(t, fired, shortest, lm_state)


def finalize_beam(beam, config, asr_tok, counters) -> list[ScoredHypothesis]:
    """One last LM pass over every whole hypothesis with ``</s>``; the whole beam ranked.

    Each hypothesis is a group of its own labelled blank for
    ``_family_requests``, so its family's base plus its one tail is its
    whole content re-tokenized; the family is sent as a new one whose tail
    ends with ``</s>``.  Each LM answers with one score per hypothesis.
    """
    if not beam:
        raise DecodeError("empty beam at finalization")
    scores = []
    if config.lms:
        groups = [(h.tokens, h.views, (BLANK_ID,)) for h in beam]
        batches = _family_requests(groups, config.lms, asr_tok, {})
        for spec, batch in zip(config.lms, batches):
            closed = FamilyBatch([(cache, base, (tails[0] + (EOS_ID,),))
                                  for cache, base, tails in batch.families])
            scores.append(_score(spec, closed, counters)[1])
        counters.lm_calls_final += len(config.lms)

    entries = []
    for j, hyp in enumerate(beam):
        lm_scores = tuple(per_lm[j] for per_lm in scores)
        total = hyp.e2e
        for spec, raw in zip(config.lms, lm_scores):
            if spec.use_in_final:
                total += spec.weight * raw
        entries.append((total, hyp.tokens, lm_scores, hyp.e2e))
    return [
        ScoredHypothesis(asr_tok.decode(tokens), tokens, e2e, lm_scores, total)
        for total, tokens, lm_scores, e2e in _select_top(entries, None)
    ]
