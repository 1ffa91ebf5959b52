"""Backoff n-gram language model with prefix-cached incremental batch scoring.

The scorer interface is what the decoder fuses against: a batch of
(token sequence, cache) requests comes in, only the unscored suffix of each
sequence is scored, and the returned caches let the next round resume where
this one stopped.  The n-gram realization keeps that contract exact: the
chain rule makes any incremental partition of a sequence sum to the same
total as scoring it from scratch.

Within one call, requests that resume from the same cache object share the
work on their common prefix, as an LLM server shares KV-cache blocks across
requests with a common prefix: each (prefix, next token) pair is scored
once, and its running sum is the same left-to-right addition a lone request
would make, so every result is bit-identical.  Nothing is kept between calls.

Scorers keep no counters and add no latency.  The decoder counts the work it
requests (calls, requests with unscored tokens, and those tokens), not what
prefix sharing saves, so the counts stand for a model without it and the
benchmark models a remote model's latency from them.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable, Sequence

from .tokenization import BOS_ID, EOS_ID, Vocabulary

LN10 = math.log(10.0)


class LMError(ValueError):
    """Raised for invalid training parameters or scoring requests."""


class ArpaFormatError(ValueError):
    """Raised when an ARPA file is malformed."""


@dataclass(frozen=True)
class PrefixCacheEntry:
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


@dataclass(frozen=True)
class ScoreRequest:
    """A full token sequence (no leading ``<s>``) plus its inherited cache."""

    tokens: tuple[int, ...]
    cache: PrefixCacheEntry


@dataclass(frozen=True)
class ScoreResult:
    cum_logprob: float
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

    # -- core scoring ---------------------------------------------------

    def logprob(self, context: Sequence[int], token: int) -> float:
        """log P(token | context), backing off until a stored entry is hit."""
        ctx = tuple(context[-(self.order - 1):]) if self.order > 1 else ()
        acc = 0.0
        while True:
            p = self._probs.get(ctx + (token,))
            if p is not None:
                return acc + p
            if not ctx:
                raise LMError(f"token id {token} missing from unigram table")
            acc += self._backoffs.get(ctx, 0.0)
            ctx = ctx[1:]

    def _context_after(self, tokens: Sequence[int]) -> tuple[int, ...]:
        if self.order == 1:
            return ()
        full = (BOS_ID, *tokens)
        return full[-(self.order - 1):]

    def fresh_cache(self) -> PrefixCacheEntry:
        return PrefixCacheEntry(0, 0.0, self._context_after(()))

    def sequence_logprob(self, seq: Sequence[int]) -> float:
        """From-scratch log-probability of a sequence starting with ``<s>``."""
        if not seq or seq[0] != BOS_ID:
            raise LMError("sequence must start with <s>")
        cum = 0.0
        ctx = self._context_after(())
        for token in seq[1:]:
            cum += self.logprob(ctx, token)
            ctx = self._push(ctx, token)
        return cum

    def _push(self, ctx: tuple[int, ...], token: int) -> tuple[int, ...]:
        if self.order == 1:
            return ()
        return (ctx + (token,))[-(self.order - 1):]

    # -- batch interface --------------------------------------------------

    def score_batch_incremental(self, requests: Sequence[ScoreRequest]) -> list[ScoreResult]:
        """Score the unscored suffix of every request; results in request order.

        The requests resuming from one cache object walk a token trie that
        lives for this call only; a node is ``(children, cum, context)``
        after the tokens on its path, so a prefix shared by several requests
        is scored once.
        """
        # id(cache) -> (cache, root); holding the cache keeps its id unique
        roots: dict[int, tuple[PrefixCacheEntry, tuple]] = {}
        results = []
        for req in requests:
            tokens = tuple(req.tokens)
            cache = req.cache
            if cache.scored_len > len(tokens):
                raise LMError(
                    f"cache covers {cache.scored_len} tokens but sequence has {len(tokens)}"
                )
            if tokens[: cache.scored_len] != cache.tokens:
                raise LMError(
                    "cached prefix is not a prefix of the submitted sequence "
                    f"({cache.tokens} vs {tokens[: cache.scored_len]})"
                )
            root = roots.get(id(cache))
            if root is None:
                root = roots[id(cache)] = (cache, ({}, cache.cum_logprob, cache.context))
            node = root[1]
            for token in tokens[cache.scored_len:]:
                child = node[0].get(token)
                if child is None:
                    _, cum, ctx = node
                    child = ({}, cum + self.logprob(ctx, token), self._push(ctx, token))
                    node[0][token] = child
                node = child
            _, cum, ctx = node
            results.append(ScoreResult(cum, PrefixCacheEntry(len(tokens), cum, ctx, tokens)))
        return results


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

    def cond_logprob(ctx: tuple[int, ...], token: int) -> float:
        acc = 0.0
        while True:
            p = probs.get(ctx + (token,))
            if p is not None:
                return acc + p
            acc += backoffs.get(ctx, 0.0)
            ctx = ctx[1:]

    for k in range(2, order + 1):
        by_context: dict[tuple[int, ...], list[tuple[int, int]]] = defaultdict(list)
        for gram, c in counts[k].items():
            by_context[gram[:-1]].append((gram[-1], c))
        for ctx, continuations in by_context.items():
            ctx_total = sum(c for _, c in continuations)
            for token, c in continuations:
                probs[ctx + (token,)] = math.log((c - discount) / ctx_total)
            released = discount * len(continuations) / ctx_total
            lower = sum(math.exp(cond_logprob(ctx[1:], token)) for token, _ in continuations)
            denom = 1.0 - lower
            if denom <= 0.0:
                raise LMError(f"degenerate backoff mass for context {ctx}")
            backoffs[ctx] = math.log(released / denom)

    return NGramModel(order, vocab, probs, backoffs)


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
        header[int(spec)] = int(count)
        i += 1
    if not header:
        raise ArpaFormatError("header lists no n-gram orders")
    order = max(header)
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
            current = int(text[1:-len("-grams:")])
            if current not in sections:
                raise ArpaFormatError(f"unexpected section for order {current}")
            continue
        if current is None:
            raise ArpaFormatError(f"entry outside any section: {text!r}")
        fields = text.split()
        want = current + 1
        if len(fields) == want:
            logp, toks, bow = float(fields[0]), fields[1:], None
        elif len(fields) == want + 1:
            logp, toks, bow = float(fields[0]), fields[1:-1], float(fields[-1])
        else:
            raise ArpaFormatError(f"bad {current}-gram line: {text!r}")
        sections[current].append((logp, toks, bow))

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
