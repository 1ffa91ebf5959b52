"""Per-layer tracing of a beamfuse decode, applied from outside the package.

Each traced call records a span (id, parent id, request id, name, start,
end) and adds its self time -- its duration minus the traced calls it
contains and their bookkeeping -- to a per-name total.  Counts that make ratios (candidates,
survivors, LM requests and tokens, fusion decisions) are taken at the same
boundaries.

Only public names are wrapped:

* ``beamfuse.decoder`` module functions that ``decode`` looks up at call
  time, patched for the duration of a ``patched`` block and then restored;
* ``Tokenizer.encode`` / ``Tokenizer.decode``, patched on the instances in
  use, not on the class;
* the LM scorer and the label-synchronous prefix scorer, replaced by
  proxies passed through ``LMSpec`` and ``decode``'s ``source`` argument.

``acoustic.lse2`` is deliberately not wrapped: it runs hundreds of
thousands of times per decode, and a span around it would cost more than
the work it measures.
"""

from __future__ import annotations

import contextlib
import time
from collections import Counter, defaultdict

import beamfuse.decoder as decoder_mod

DECODER_FUNCTIONS = (
    "extend_frame",
    "prune_frame_candidates",
    "advance_views",
    "fusable",
    "apply_lm_scores",
    "finalize_beam",
)


class Tracer:
    """Spans and counts for one traced run, kept in memory until written."""

    def __init__(self, max_spans: int = 50_000):
        self.max_spans = max_spans
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.spans: list[tuple] = []
        self.dropped_spans = 0
        self.request = None
        self._stack: list[list] = []
        self._next_id = 0

    def wrap(self, name: str, fn, after=None):
        """Return ``fn`` timed as span ``name``; ``after(args, result)`` counts."""
        clock = time.perf_counter
        stack = self._stack

        def traced(*args, **kwargs):
            entered = clock()
            frame = [self._next_id, 0.0]
            self._next_id += 1
            parent = stack[-1] if stack else None
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
            self.self_s[name] += end - start - frame[1]
            self.calls[name] += 1
            if len(self.spans) < self.max_spans:
                parent_id = parent[0] if parent else None
                self.spans.append((frame[0], parent_id, self.request, name, start, end))
            else:
                self.dropped_spans += 1
            if after is not None:
                after(args, result)
            if parent is not None:
                # the parent's self time excludes this span and its bookkeeping
                parent[1] += clock() - entered
            return result

        return traced

    # -- counting hooks ---------------------------------------------------

    def _count_extend(self, args, cands) -> None:
        self.counts["decoder.candidates"] += len(cands)
        self.counts["decoder.frame_beam_in"] += len(args[0])

    def _count_finalize(self, args, _result) -> None:
        if args[1].mode == "ctc":
            self.counts["decoder.frame_beam_out"] += len(args[0])
            self.counts["decoder.frame_decodes"] += 1

    def _count_fusable(self, _args, fired) -> None:
        self.counts["decoder.fused"] += bool(fired)

    def _count_lm(self, args, _result) -> None:
        for req in args[0]:
            new = len(req.tokens) - req.cache.scored_len
            self.counts["lm.requests"] += 1
            self.counts["lm.tokens_scored"] += new
            self.counts["lm.useful_requests"] += new > 0

    # -- patching ---------------------------------------------------------

    @contextlib.contextmanager
    def patched(self, tokenizers):
        """Trace decoder functions and the given tokenizers inside the block."""
        originals = {name: getattr(decoder_mod, name) for name in DECODER_FUNCTIONS}
        originals["tokenizable_prefix_len"] = decoder_mod.tokenizable_prefix_len
        hooks = {
            "extend_frame": self._count_extend,
            "finalize_beam": self._count_finalize,
            "fusable": self._count_fusable,
        }
        toks = list({id(tok): tok for tok in tokenizers}.values())
        try:
            for name in DECODER_FUNCTIONS:
                setattr(
                    decoder_mod,
                    name,
                    self.wrap(f"decoder.{name}", originals[name], hooks.get(name)),
                )
            decoder_mod.tokenizable_prefix_len = self.wrap(
                "tokenization.tokenizable_prefix_len", originals["tokenizable_prefix_len"]
            )
            for tok in toks:
                tok.encode = self.wrap("tokenization.encode", tok.encode)
                tok.decode = self.wrap("tokenization.decode", tok.decode)
            yield
        finally:
            for name, fn in originals.items():
                setattr(decoder_mod, name, fn)
            for tok in toks:
                tok.__dict__.pop("encode", None)
                tok.__dict__.pop("decode", None)

    def lm_proxy(self, scorer) -> "TracedScorer":
        return TracedScorer(scorer, self.wrap("lm.score_batch_incremental",
                                              scorer.score_batch_incremental,
                                              self._count_lm))

    # -- results ----------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer values, named as in BENCHMARK.json's ``per_layer``."""
        s, c, k = self.self_s, self.calls, self.counts
        out = {
            f"{name}.self_s": s.get(name, 0.0)
            for name in (
                "decoder.decode",
                *(f"decoder.{n}" for n in DECODER_FUNCTIONS),
                "tokenization.encode",
                "tokenization.decode",
                "tokenization.tokenizable_prefix_len",
                "lm.score_batch_incremental",
                "acoustic.child",
                "acoustic.candidate_scores",
                "harness.wer",
            )
        }
        candidates = k["decoder.candidates"]
        # every beam passed into a frame step, except each decode's root,
        # plus each final beam, survived a prune
        survivors = (
            k["decoder.frame_beam_in"] - k["decoder.frame_decodes"] + k["decoder.frame_beam_out"]
        )
        lm_time = s.get("lm.score_batch_incremental", 0.0)
        out.update(
            {
                "decoder.candidates": candidates,
                "decoder.prune_keep_ratio": survivors / candidates if candidates else 0.0,
                "decoder.fusable.calls": c["decoder.fusable"],
                "decoder.fuse_ratio": (
                    k["decoder.fused"] / c["decoder.fusable"] if c["decoder.fusable"] else 0.0
                ),
                "lm.calls": c["lm.score_batch_incremental"],
                "lm.requests": k["lm.requests"],
                "lm.tokens_scored": k["lm.tokens_scored"],
                "lm.tokens_per_s": k["lm.tokens_scored"] / lm_time if lm_time else 0.0,
                "lm.request_useful_ratio": (
                    k["lm.useful_requests"] / k["lm.requests"] if k["lm.requests"] else 0.0
                ),
            }
        )
        return out

    def dump(self) -> dict:
        return {
            "self_s": dict(self.self_s),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
            "span_fields": ["id", "parent", "request", "name", "start_s", "end_s"],
            "spans": self.spans,
            "dropped_spans": self.dropped_spans,
        }


class TracedScorer:
    """LM scorer proxy: times and counts ``score_batch_incremental``."""

    def __init__(self, inner, traced_score):
        self.inner = inner
        self.score_batch_incremental = traced_score

    @property
    def counters(self):
        return self.inner.counters

    def fresh_cache(self):
        return self.inner.fresh_cache()


class TracedPrefixScorer:
    """``CtcPrefixScorer`` proxy for ``decode(source=...)`` in label-sync mode."""

    def __init__(self, inner, tracer: Tracer):
        self.T = inner.T
        self.root = inner.root
        self.child = tracer.wrap("acoustic.child", inner.child)
        self.candidate_scores = tracer.wrap("acoustic.candidate_scores", inner.candidate_scores)
