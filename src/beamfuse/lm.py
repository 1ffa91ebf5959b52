"""Backoff n-gram language model with prefix-cached incremental batch scoring.

The scorer interface is what the decoder fuses against: a batch of
(token sequence, cache) requests comes in, only the unscored suffix of each
sequence is scored, and the new caches are the whole answer: each holds its
sequence's score and lets the next round resume where this one stopped, as
an incremental LLM server answers with the new KV-cache state.  The n-gram
realization keeps that contract exact: the chain rule makes any
incremental partition of a sequence sum to the same total as scoring it
from scratch.  Requests and caches are immutable ``NamedTuple`` values,
cheap to build by the hundred thousand.

Within one call, requests that resume from the same cache object share the
work on their common prefix, as an LLM server shares KV-cache blocks across
requests with a common prefix: each (prefix, next token) pair is scored
once, and its running sum is the same left-to-right addition a lone request
would make, so every result is bit-identical.  Shallow fusion sends its
candidates as runs of siblings that differ only in their last token, so a
request that resumes the previous request's cache and repeats its
``tokens[:-1]`` steps one token from where that request's walk stood.

The trie lives for one call.  Only the sibling step keeps anything between
calls: one row per context it steps from, ``vocab.size`` slots long, whose
slot ``t`` holds log P(t | context) once a sibling step has asked for it.
An LLM gets the same row, every next token's score, from one forward pass
per context.  The rows are cleared at the start of a call once they hold
more than ``_ROW_LIMIT`` contexts, which bounds their memory.  Nothing else
reads or fills them: training calls ``logprob`` while its tables still
fill, and ``logprob`` is the reference batch scoring is tested against.

Scorers keep no counters and add no latency.  The decoder counts the work it
requests (calls, requests with unscored tokens, and those tokens), not what
prefix sharing saves, so the counts stand for a model without it and the
benchmark models a remote model's latency from them.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Iterable, NamedTuple, Sequence

from .tokenization import BOS_ID, EOS_ID, Vocabulary

LN10 = math.log(10.0)
# the sibling rows are cleared past this many contexts; a benchmark pool fills at most about 620
_ROW_LIMIT = 2**10


class LMError(ValueError):
    """Raised for invalid training parameters or scoring requests."""


class ArpaFormatError(ValueError):
    """Raised when an ARPA file is malformed."""


class PrefixCacheEntry(NamedTuple):
    """Per-hypothesis record of how much of its sequence is already scored.

    ``cum_logprob`` always equals the from-scratch log-probability of the
    first ``scored_len`` tokens, which are exactly ``tokens``; ``context`` is
    whatever state the scorer needs to resume (for an n-gram, the last
    order-1 ids).
    """

    scored_len: int
    cum_logprob: float
    context: tuple[int, ...]
    tokens: tuple[int, ...] = ()


class ScoreRequest(NamedTuple):
    """A full token sequence (no leading ``<s>``) plus its inherited cache."""

    tokens: tuple[int, ...]
    cache: PrefixCacheEntry


class NGramModel:
    """Absolute-discounting backoff model over a closed vocabulary.

    Every unigram has a finite probability (unseen tokens share the
    discounted mass uniformly), so any backoff chain terminates with a
    finite score and per-context continuation probabilities sum to one.
    """

    def __init__(
        self,
        order: int,
        vocab: Vocabulary,
        probs: dict[tuple[int, ...], float],
        backoffs: dict[tuple[int, ...], float],
    ):
        self.order = order
        self.vocab = vocab
        self._probs = probs
        self._backoffs = backoffs
        # context -> slot t holds ``_next(context, t)[0]`` or None, for the sibling step only
        self._rows: dict[tuple[int, ...], list[float | None]] = {}

    # -- core scoring ---------------------------------------------------

    def logprob(self, context: Sequence[int], token: int) -> float:
        """log P(token | context), backing off until a stored entry is hit."""
        return self._next(self._context(context), token)[0]

    def _context(self, context: Sequence[int]) -> tuple[int, ...]:
        """The last order-1 ids of ``context`` as a tuple: what the model conditions on."""
        return tuple(context[-(self.order - 1):]) if self.order > 1 else ()

    def _next(self, ctx: tuple[int, ...], token: int) -> tuple[float, tuple[int, ...]]:
        """``(log P(token | ctx), the context after token)``; ``ctx`` holds at most order-1 ids.

        The backoff walk adds each backoff weight left to right and the
        stored log-probability last, dropping the oldest id on each miss.
        """
        key = ctx + (token,)
        after = key[1:] if len(key) == self.order else key
        acc = 0.0
        while True:
            p = self._probs.get(key)
            if p is not None:
                return acc + p, after
            if len(key) == 1:
                raise LMError(f"token id {token} missing from unigram table")
            acc += self._backoffs.get(key[:-1], 0.0)
            key = key[1:]

    def fresh_cache(self) -> PrefixCacheEntry:
        return PrefixCacheEntry(0, 0.0, self._context((BOS_ID,)))

    def sequence_logprob(self, seq: Sequence[int]) -> float:
        """From-scratch log-probability of a sequence starting with ``<s>``."""
        if not seq or seq[0] != BOS_ID:
            raise LMError("sequence must start with <s>")
        cum = 0.0
        ctx = self._context((BOS_ID,))
        for token in seq[1:]:
            lp, ctx = self._next(ctx, token)
            cum += lp
        return cum

    # -- batch interface --------------------------------------------------

    def score_batch_incremental(self, requests: Sequence[ScoreRequest]) -> list[PrefixCacheEntry]:
        """Score the unscored suffix of every request; the new caches, in request order.

        A request's score is its new cache's ``cum_logprob``.  The requests
        resuming from one cache object walk a token trie that lives for this
        call only; a node is ``(children, cum, context)`` after the tokens on
        its path, so a prefix shared by several requests is scored once.  A
        cache's ``context`` is read as its last order-1 ids, as ``logprob``
        reads a context, and every new cache holds that tuple.

        Sibling step: the call remembers the cache, ``tokens[:-1]`` and the
        node before the last token of the previous request that walked at
        least one token.  A request on the same cache object that has tokens
        past its ``scored_len`` and the same ``tokens[:-1]`` takes its last
        token from that node instead of walking from the root.  The walk ran
        both checks on that cache and stem, so they hold and are skipped.
        The step reads the node's context's row, filling a slot the first
        time, and its cache is built from the node and the row, with no trie
        leaf.  A token outside the vocabulary is stepped as the walk steps
        it, which raises the walk's ``LMError``.
        """
        step = self._next
        rows = self._rows
        if len(rows) > _ROW_LIMIT:
            rows.clear()
        size = self.vocab.size
        keeps = self.order > 1  # an order-1 model's context is always ()
        # id(cache) -> (cache, root); holding the cache keeps its id unique
        roots: dict[int, tuple[PrefixCacheEntry, tuple]] = {}
        last_cache = last_stem = last_node = row = None
        caches = []
        for tokens, cache in requests:
            tokens = tuple(tokens)
            if cache is last_cache and cache.scored_len < len(tokens) and tokens[:-1] == last_stem:
                if row is None:  # the run's first sibling
                    ctx, cum = last_node[2], last_node[1]
                    row = rows.get(ctx)
                    if row is None:
                        row = rows[ctx] = [None] * size
                    head = ctx[1:] if len(ctx) == self.order - 1 else ctx
                token = tokens[-1]
                if 0 <= token < size:
                    lp = row[token]
                    if lp is None:
                        lp = row[token] = step(ctx, token)[0]
                else:
                    lp = step(ctx, token)[0]
                context = head + (token,) if keeps else ()
                caches.append(PrefixCacheEntry(len(tokens), cum + lp, context, tokens))
                continue
            start = cache.scored_len
            if start > len(tokens):
                raise LMError(f"cache covers {start} tokens but sequence has {len(tokens)}")
            if tokens[:start] != cache.tokens:
                raise LMError(
                    "cached prefix is not a prefix of the submitted sequence "
                    f"({cache.tokens} vs {tokens[:start]})"
                )
            entry = roots.get(id(cache))
            if entry is None:
                root = ({}, cache.cum_logprob, self._context(cache.context))
                entry = roots[id(cache)] = (cache, root)
            node, parent = entry[1], None
            for token in tokens[start:]:
                parent = node
                child = node[0].get(token)
                if child is None:
                    lp, after = step(node[2], token)
                    child = node[0][token] = ({}, node[1] + lp, after)
                node = child
            if parent is not None:
                last_cache, last_stem, last_node, row = cache, tokens[:-1], parent, None
            caches.append(PrefixCacheEntry(len(tokens), node[1], node[2], tokens))
        return caches


def train_ngram(
    sequences: Iterable[Sequence[int]],
    vocab: Vocabulary,
    order: int = 3,
    discount: float = 0.4,
) -> NGramModel:
    """Train an absolute-discounting backoff model.

    ``sequences`` are plain token-id sentences; ``<s>`` and ``</s>`` are
    added internally.  ``<s>`` is used as context but never counted as an
    event, so it only ever receives the uniform floor mass, which in turn
    guarantees every backoff weight is well defined.
    """
    if not 1 <= order <= 5:
        raise LMError(f"order must be in 1..5, got {order}")
    if not 0.0 < discount < 1.0:
        raise LMError(f"discount must be in (0, 1), got {discount}")

    counts: list[dict[tuple[int, ...], int]] = [defaultdict(int) for _ in range(order + 1)]
    n_sentences = 0
    for seq in sequences:
        n_sentences += 1
        padded = (BOS_ID, *seq, EOS_ID)
        for i in range(1, len(padded)):
            for k in range(1, order + 1):
                if i - k + 1 >= 0:
                    counts[k][padded[i - k + 1 : i + 1]] += 1
    if n_sentences == 0:
        raise LMError("empty corpus")

    vsize = vocab.size
    probs: dict[tuple[int, ...], float] = {}
    backoffs: dict[tuple[int, ...], float] = {}

    total = sum(counts[1].values())
    seen_types = len(counts[1])
    floor = discount * seen_types / (total * vsize)
    for token in range(vsize):
        c = counts[1].get((token,), 0)
        p = floor + (c - discount) / total if c > 0 else floor
        probs[(token,)] = math.log(p)

    # the model reads the tables as they fill: order k's backoffs need k-1's scores
    model = NGramModel(order, vocab, probs, backoffs)
    for k in range(2, order + 1):
        by_context: dict[tuple[int, ...], list[tuple[int, int]]] = defaultdict(list)
        for gram, c in counts[k].items():
            by_context[gram[:-1]].append((gram[-1], c))
        for ctx, continuations in by_context.items():
            ctx_total = sum(c for _, c in continuations)
            for token, c in continuations:
                probs[ctx + (token,)] = math.log((c - discount) / ctx_total)
            released = discount * len(continuations) / ctx_total
            lower = sum(math.exp(model.logprob(ctx[1:], token)) for token, _ in continuations)
            denom = 1.0 - lower
            if denom <= 0.0:
                raise LMError(f"degenerate backoff mass for context {ctx}")
            backoffs[ctx] = math.log(released / denom)
    return model


# -- ARPA serialization ----------------------------------------------------


def write_arpa(model: NGramModel, path: str) -> None:
    """Write the model in ARPA text format (log10 probabilities).

    The unigram section lists the whole vocabulary in id order, so a reader
    can reconstruct the vocabulary and id layout from the file alone.
    """
    by_order: list[list[tuple[tuple[int, ...], float]]] = [[] for _ in range(model.order)]
    for gram, logp in model._probs.items():
        by_order[len(gram) - 1].append((gram, logp))
    for entries in by_order:
        entries.sort(key=lambda item: item[0])

    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\\data\\\n")
        for k in range(model.order):
            fh.write(f"ngram {k + 1}={len(by_order[k])}\n")
        fh.write("\n")
        for k in range(model.order):
            fh.write(f"\\{k + 1}-grams:\n")
            for gram, logp in by_order[k]:
                line = f"{logp / LN10:.12g}\t" + " ".join(model.vocab.token(i) for i in gram)
                bow = model._backoffs.get(gram)
                if bow is not None and k + 1 < model.order:
                    line += f"\t{bow / LN10:.12g}"
                fh.write(line + "\n")
            fh.write("\n")
        fh.write("\\end\\\n")


def _arpa_number(kind, text: str, line: str):
    """``kind(text)``, or an ``ArpaFormatError`` naming the line it came from."""
    try:
        return kind(text)
    except ValueError:
        raise ArpaFormatError(f"expected {kind.__name__} {text!r} in line {line!r}") from None


def read_arpa(path: str) -> NGramModel:
    """Read an ARPA file back into a model that scores identically."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [line.rstrip("\n") for line in fh]

    header: dict[int, int] = {}
    i = 0
    while i < len(lines) and lines[i].strip() != "\\data\\":
        i += 1
    if i == len(lines):
        raise ArpaFormatError("missing \\data\\ header")
    i += 1
    while i < len(lines) and lines[i].strip():
        part = lines[i].strip()
        if not part.startswith("ngram "):
            raise ArpaFormatError(f"bad header line: {part!r}")
        spec, _, count = part[len("ngram "):].partition("=")
        header[_arpa_number(int, spec, part)] = _arpa_number(int, count, part)
        i += 1
    if not header:
        raise ArpaFormatError("header lists no n-gram orders")
    order = len(header)
    if sorted(header) != list(range(1, order + 1)):
        raise ArpaFormatError(f"header orders not contiguous: {sorted(header)}")

    sections: dict[int, list[tuple[float, list[str], float | None]]] = {k: [] for k in header}
    current: int | None = None
    for line in lines[i:]:
        text = line.strip()
        if not text:
            continue
        if text == "\\end\\":
            current = None
            continue
        if text.startswith("\\") and text.endswith("-grams:"):
            current = _arpa_number(int, text[1:-len("-grams:")], text)
            if current not in sections:
                raise ArpaFormatError(f"unexpected section for order {current}")
            continue
        if current is None:
            raise ArpaFormatError(f"entry outside any section: {text!r}")
        fields = text.split()
        want = current + 1
        if len(fields) == want:
            toks, bow = fields[1:], None
        elif len(fields) == want + 1:
            toks, bow = fields[1:-1], _arpa_number(float, fields[-1], text)
        else:
            raise ArpaFormatError(f"bad {current}-gram line: {text!r}")
        sections[current].append((_arpa_number(float, fields[0], text), toks, bow))

    for k, count in header.items():
        if len(sections[k]) != count:
            raise ArpaFormatError(
                f"order {k}: header promises {count} entries, body has {len(sections[k])}"
            )
    if not sections[1]:
        raise ArpaFormatError("empty \\1-grams section")

    vocab = Vocabulary(tuple(toks[0] for _, toks, _ in sections[1]))
    ids = {tok: i for i, tok in enumerate(vocab.tokens)}

    probs: dict[tuple[int, ...], float] = {}
    backoffs: dict[tuple[int, ...], float] = {}
    for k in range(1, order + 1):
        for logp, toks, bow in sections[k]:
            try:
                gram = tuple(ids[t] for t in toks)
            except KeyError as exc:
                raise ArpaFormatError(f"order {k}: unknown token {exc.args[0]!r}") from exc
            probs[gram] = logp * LN10
            if bow is not None:
                backoffs[gram] = bow * LN10

    return NGramModel(order, vocab, probs, backoffs)
