import functools
import math
from collections import defaultdict

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import beamfuse.lm as lm_mod
from beamfuse.lm import (
    ArpaFormatError,
    FamilyBatch,
    LMError,
    NGramModel,
    PrefixCacheEntry,
    ScoreRequest,
    read_arpa,
    train_ngram,
    write_arpa,
)
from beamfuse.tokenization import BOS_ID, EOS_ID, NUM_SPECIALS

from conftest import (
    CountingScorer,
    as_families,
    make_vocab,
    reference_score_batch,
    score_caches,
)


def fresh_trigram(corpus_split, lm_tok):
    train, _ = corpus_split
    return train_ngram([lm_tok.encode(line) for line in train[:300]], lm_tok.vocab, 3, 0.4)


class TestTraining:
    def test_unigram_dominated_by_seen_token(self):
        vocab = make_vocab("▁a", "▁b")
        a, b = vocab.token_id("▁a"), vocab.token_id("▁b")
        model = train_ngram([[a]], vocab, order=1, discount=0.4)
        assert model.logprob((), a) > model.logprob((), b)
        assert math.exp(model.logprob((), b)) > 0.0

    def test_bigram_orders_continuations(self):
        vocab = make_vocab("▁a", "▁b", "▁c")
        a, b, c = (vocab.token_id(t) for t in ("▁a", "▁b", "▁c"))
        model = train_ngram([[a, b], [a, b], [c, a, b]], vocab, order=2, discount=0.4)
        assert model.logprob((a,), b) > model.logprob((), b)
        assert model.logprob((a,), b) > model.logprob((a,), c)

    def test_context_sums_to_one(self, corpus_split, lm_tok, trigram):
        rng = np.random.default_rng(3)
        vsize = trigram.vocab.size
        train, _ = corpus_split
        encoded = [lm_tok.encode(line) for line in train]
        contexts = []
        for _ in range(60):  # contexts that occurred in training
            seq = encoded[int(rng.integers(0, len(encoded)))]
            if len(seq) < 3:
                continue
            i = int(rng.integers(0, len(seq) - 2))
            contexts.append(tuple(seq[i : i + 2]))
        for _ in range(40):  # arbitrary (mostly unseen) contexts
            contexts.append(tuple(int(x) for x in rng.integers(4, vsize, size=2)))
        for ctx in contexts:
            total = sum(math.exp(trigram.logprob(ctx, t)) for t in range(vsize))
            assert abs(total - 1.0) < 1e-6

    def test_stored_probabilities_negative_and_finite(self, trigram):
        for logp in trigram._probs.values():
            assert math.isfinite(logp) and logp < 0.0

    def test_invalid_parameters(self, lm_tok):
        with pytest.raises(LMError):
            train_ngram([], lm_tok.vocab, 3, 0.4)
        with pytest.raises(LMError):
            train_ngram([[5]], lm_tok.vocab, 0, 0.4)
        with pytest.raises(LMError):
            train_ngram([[5]], lm_tok.vocab, 6, 0.4)
        with pytest.raises(LMError):
            train_ngram([[5]], lm_tok.vocab, 3, 0.0)
        with pytest.raises(LMError):
            train_ngram([[5]], lm_tok.vocab, 3, 1.0)


def _reference_conditional(counts, uni_total, uni_types, vsize, discount):
    """Linear-space absolute-discounting backoff, recomputed from raw counts."""

    def prob(ctx, token):
        if not ctx:
            c = counts[1].get((token,), 0)
            floor = discount * uni_types / (uni_total * vsize)
            return floor + (c - discount) / uni_total if c > 0 else floor
        order = len(ctx) + 1
        continuations = {
            g[-1]: c for g, c in counts[order].items() if g[:-1] == ctx
        }
        ctx_total = sum(continuations.values())
        if ctx_total == 0:
            return prob(ctx[1:], token)
        if token in continuations:
            return (continuations[token] - discount) / ctx_total
        released = discount * len(continuations) / ctx_total
        lower_seen = sum(prob(ctx[1:], u) for u in continuations)
        return released / (1.0 - lower_seen) * prob(ctx[1:], token)

    return prob


class TestScoring:
    def test_bos_alone_scores_zero(self, trigram):
        assert trigram.sequence_logprob((BOS_ID,)) == 0.0

    def test_requires_bos(self, trigram):
        with pytest.raises(LMError):
            trigram.sequence_logprob((5, 6))

    def test_chain_rule(self, trigram, lm_tok, corpus_split):
        _, eval_lines = corpus_split
        seq = tuple(lm_tok.encode(eval_lines[0])) + (EOS_ID,)
        total = trigram.sequence_logprob((BOS_ID,) + seq)
        stepwise = 0.0
        ctx = trigram.fresh_cache().context
        for token in seq:
            stepwise += trigram.logprob(ctx, token)
            ctx = (ctx + (token,))[-2:]
        assert total == pytest.approx(stepwise, abs=1e-12)

    def test_matches_count_reference(self, corpus_split, lm_tok):
        train, _ = corpus_split
        lines = train[:120]
        encoded = [lm_tok.encode(line) for line in lines]
        model = train_ngram(encoded, lm_tok.vocab, 3, 0.4)

        counts = {1: defaultdict(int), 2: defaultdict(int), 3: defaultdict(int)}
        for seq in encoded:
            padded = (BOS_ID, *seq, EOS_ID)
            for i in range(1, len(padded)):
                for k in (1, 2, 3):
                    if i - k + 1 >= 0:
                        counts[k][padded[i - k + 1 : i + 1]] += 1
        ref = _reference_conditional(
            counts, sum(counts[1].values()), len(counts[1]), lm_tok.vocab.size, 0.4
        )

        rng = np.random.default_rng(7)
        for _ in range(20):
            seq = tuple(int(x) for x in rng.integers(4, lm_tok.vocab.size, size=12))
            expected = 0.0
            ctx = (BOS_ID,)
            for token in seq:
                expected += math.log(ref(ctx[-2:], token))
                ctx = ctx + (token,)
            got = model.sequence_logprob((BOS_ID,) + seq)
            assert got == pytest.approx(expected, abs=1e-9)

    def test_monotone_nonincreasing(self, trigram, lm_tok, corpus_split):
        _, eval_lines = corpus_split
        seq = tuple(lm_tok.encode(eval_lines[1]))
        cache = trigram.fresh_cache()
        prev = 0.0
        for end in range(1, len(seq) + 1):
            res = score_caches(trigram, [ScoreRequest(seq[:end], cache)])[0]
            assert res.cum_logprob < prev
            prev = res.cum_logprob
            cache = res


class TestBatchIncremental:
    def test_nothing_new_scores_nothing(self, corpus_split, lm_tok):
        model = fresh_trigram(corpus_split, lm_tok)
        seq = (5, 6, 7)
        full = score_caches(model, [ScoreRequest(seq, model.fresh_cache())])[0]
        again = score_caches(model, [ScoreRequest(seq, full)])[0]
        assert again == full

    def test_single_fresh_request_equals_from_scratch(self, trigram, lm_tok, corpus_split):
        _, eval_lines = corpus_split
        seq = tuple(lm_tok.encode(eval_lines[2])) + (EOS_ID,)
        res = score_caches(trigram, [ScoreRequest(seq, trigram.fresh_cache())])[0]
        assert res.cum_logprob == trigram.sequence_logprob((BOS_ID,) + seq)
        assert res.scored_len == len(seq)

    def test_rounds_match_from_scratch(self, trigram, lm_tok, corpus_split):
        _, eval_lines = corpus_split
        rng = np.random.default_rng(13)
        for line in eval_lines[:6]:
            seq = tuple(lm_tok.encode(line)) + (EOS_ID,)
            cuts = sorted(set(int(x) for x in rng.integers(1, len(seq), size=2)))
            caches = [trigram.fresh_cache()]
            cum = None
            for end in cuts + [len(seq)]:
                res = score_caches(trigram, [ScoreRequest(seq[:end], caches[-1])])[0]
                caches.append(res)
                cum = res.cum_logprob
            assert cum == trigram.sequence_logprob((BOS_ID,) + seq)

    def test_results_in_request_order(self, trigram, lm_tok, corpus_split):
        _, eval_lines = corpus_split
        seqs = [tuple(lm_tok.encode(line)) for line in eval_lines[:5]]
        requests = [ScoreRequest(s, trigram.fresh_cache()) for s in seqs]
        caches, scores = trigram.score_batch_incremental(as_families(requests))
        assert scores == [cache.cum_logprob for cache in caches]
        for seq, res in zip(seqs, caches):
            assert res.cum_logprob == trigram.sequence_logprob((BOS_ID,) + seq)

    def test_cache_sequence_mismatch_rejected(self, trigram):
        # the second pair shares the cached context tail (20, 30) but not
        # the sequence the cache was built for
        for scored, submitted in [((5, 6, 7), (5, 9, 7, 8)), ((10, 20, 30), (40, 20, 30, 50))]:
            first = score_caches(trigram, [ScoreRequest(scored, trigram.fresh_cache())])[0]
            with pytest.raises(LMError):
                score_caches(trigram, [ScoreRequest(submitted, first)])

    def test_cache_longer_than_sequence_rejected(self, trigram):
        bad = PrefixCacheEntry(5, -1.0, (6, 7))
        with pytest.raises(LMError):
            score_caches(trigram, [ScoreRequest((5,), bad)])

    def test_bad_request_after_good_one_on_the_same_cache(self, trigram):
        # the good request creates the shared walk; the bad one must still be checked
        cache = score_caches(trigram, [ScoreRequest((5, 6, 7), trigram.fresh_cache())])[0]
        good = ScoreRequest((5, 6, 7, 8), cache)
        for bad, message in [((5, 9, 7, 8), "not a prefix"), ((5, 6), "cache covers 3 tokens")]:
            with pytest.raises(LMError, match=message):
                score_caches(trigram, [good, ScoreRequest(bad, cache)])

    def test_counters_match_scored_lengths(self, corpus_split, lm_tok):
        # the new tokens of successive requests add up to what the cache covers
        model = CountingScorer(fresh_trigram(corpus_split, lm_tok))
        _, eval_lines = corpus_split
        seq = tuple(lm_tok.encode(eval_lines[3]))
        cache = model.fresh_cache()
        for end in (2, 5, len(seq)):
            cache = score_caches(model, [ScoreRequest(seq[:end], cache)])[0]
        assert model.tokens == cache.scored_len == len(seq)
        assert model.counts() == (3, 3, len(seq))


# a small vocabulary, so random batches share prefixes and hit stored n-grams
_PIECES = ("▁a", "▁b", "c", "d", "▁e")
_TOKENS = st.integers(min_value=2, max_value=NUM_SPECIALS + len(_PIECES) - 1)
_SEQS = st.lists(_TOKENS, max_size=6).map(tuple)


@functools.cache
def _small_model(order):
    vocab = make_vocab(*_PIECES)
    a, b, c, d, e = (vocab.token_id(p) for p in _PIECES)
    corpus = [[a, c, b], [a, b, d], [e, a, c], [b, d, e, a], [a, c, b, d]] * 2
    return train_ngram(corpus, vocab, order, 0.4)


class TestSharedPrefixProperty:
    """One call's shared-prefix walk equals scoring each request on its own, exactly."""

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from([1, 2, 3]), st.data())
    def test_batch_equals_reference(self, order, data):
        model = _small_model(order)
        seqs = data.draw(st.lists(_SEQS, max_size=3))
        earlier = score_caches(model, [ScoreRequest(seq, model.fresh_cache()) for seq in seqs])
        pool = [model.fresh_cache(), model.fresh_cache()]  # equal, distinct objects
        for res in earlier:
            pool += [res, res._replace()]
        stems = data.draw(st.lists(_SEQS, min_size=1, max_size=3))
        requests = []
        for _ in range(data.draw(st.integers(1, 12))):
            if requests and data.draw(st.booleans()):
                requests.append(data.draw(st.sampled_from(requests)))  # a duplicate
                continue
            cache = data.draw(st.sampled_from(pool))
            suffix = data.draw(st.sampled_from(stems + [()])) + tuple(
                data.draw(st.lists(_TOKENS, max_size=2))
            )
            requests.append(ScoreRequest(cache.tokens + suffix, cache))
        got, scores = model.score_batch_incremental(as_families(requests))
        want = reference_score_batch(model, requests)
        assert got == want
        assert scores == [cache.cum_logprob for cache in want]
        # tuple equality ignores the type: every cache is a ``PrefixCacheEntry``
        assert all(type(c) is PrefixCacheEntry for c in got)

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from([1, 2, 3]), _SEQS, st.lists(st.integers(0, 6), max_size=4), _SEQS)
    def test_any_split_equals_from_scratch(self, order, seq, cuts, sibling):
        # each round also carries a sibling request that shares the round's cache
        model = _small_model(order)
        cache = model.fresh_cache()
        for end in sorted(min(c, len(seq)) for c in cuts) + [len(seq)]:
            res, _ = score_caches(
                model, [ScoreRequest(seq[:end], cache), ScoreRequest(cache.tokens + sibling, cache)]
            )
            cache = res
        assert res.cum_logprob == model.sequence_logprob((BOS_ID, *seq))
        assert cache.tokens == seq


def _bits(caches) -> list[tuple]:
    """Every field of every cache, floats by ``repr``: equal only when bit-identical."""
    return [
        (c.scored_len, repr(c.cum_logprob), type(c.context), c.context, c.tokens) for c in caches
    ]


@st.composite
def _family_batches(draw, order=None):
    """``(order, FamilyBatch)``: families over a mixed cache pool, whose tails share stems.

    ``order`` is drawn unless given.  The pool holds equal but distinct
    fresh and scored caches, and hand-built ones whose context is a list or
    longer than order-1 and which share ``cum_logprob`` and context while
    their scored prefixes differ.  A family's base is its cache's tokens
    plus up to three more, so some bases add nothing.  Its tails come in
    runs: an empty tail, or a stem from a short list (``()`` among them)
    followed by several last tokens, so neighbouring tails share their
    stem or not.  Families may repeat and share cache objects.
    """
    order = draw(st.sampled_from([1, 2, 3])) if order is None else order
    model = _small_model(order)
    earlier = score_caches(
        model, [ScoreRequest(seq, model.fresh_cache()) for seq in draw(st.lists(_SEQS, max_size=3))]
    )
    fresh = [model.fresh_cache(), model.fresh_cache()]
    pool = fresh + [c for res in earlier for c in (res, res._replace())]
    ids = draw(st.lists(_TOKENS | st.just(BOS_ID), min_size=order, max_size=order + 2))
    context = draw(st.sampled_from([ids, tuple(ids)]))
    cum = draw(st.floats(-20.0, 0.0))
    for prefix in draw(st.lists(_SEQS, max_size=3)):
        pool.append(PrefixCacheEntry(len(prefix), cum, context, prefix))
    stems = [()] + draw(st.lists(st.lists(_TOKENS, min_size=1, max_size=3).map(tuple), max_size=3))
    families = []
    for _ in range(draw(st.integers(1, 5))):
        if families and draw(st.booleans()):
            families.append(draw(st.sampled_from(families)))  # a duplicate
            continue
        cache = draw(st.sampled_from(pool))
        base = cache.tokens + tuple(draw(st.lists(_TOKENS, max_size=3)))
        tails = []
        for _ in range(draw(st.integers(0, 4))):
            if draw(st.booleans()):
                tails.append(())
            else:
                stem = draw(st.sampled_from(stems))
                lasts = draw(st.lists(_TOKENS, min_size=1, max_size=5))
                tails += [stem + (last,) for last in lasts]
        families.append((cache, base, tuple(tails)))
    return order, FamilyBatch(families)


def _answer_bits(model, batch) -> tuple[list, list[str]]:
    """``batch``'s caches by ``_bits`` and each child's score by ``repr``, types checked first.

    Every cache is a ``PrefixCacheEntry`` whose context is a tuple of at
    most order-1 ids, and every score a float.
    """
    caches, scores = model.score_batch_incremental(batch)
    assert all(type(c) is PrefixCacheEntry for c in caches)
    assert all(type(c.context) is tuple and len(c.context) <= model.order - 1 for c in caches)
    assert all(type(score) is float for score in scores)
    return _bits(caches), [repr(score) for score in scores]


def _reference_bits(model, batch) -> tuple[list, list[str]]:
    """``reference_score_batch`` on each family's base, and on the requests ``batch`` stands for.

    The first are the families' caches by ``_bits``, the second each
    child's score by ``repr``.
    """
    bases = [ScoreRequest(base, cache) for cache, base, _ in batch.families]
    children = reference_score_batch(model, list(batch))
    return _bits(reference_score_batch(model, bases)), [repr(c.cum_logprob) for c in children]


# Two caches with equal cum and context but different scored prefixes grow
# equal tries: B's root equals A's root, though it is another root.  The
# last family repeats the stem A's family left behind, from B's base.
_X, _Y, _Z, _W = range(NUM_SPECIALS, NUM_SPECIALS + 4)
_A = PrefixCacheEntry(1, -1.0, (_X,), (_X,))
_B = PrefixCacheEntry(2, -1.0, (_X,), (_X, _Y))
_EQUAL_ROOTS = FamilyBatch([
    (_B, (_X, _Y), ((_Y, _Z),)),
    (_A, (_X,), ((_Y, _Z),)),
    (_B, (_X, _Y), ((_Y, _W), (_Z, _W))),
])


# An empty tail after a one-token tail of the same family: its stem, (),
# repeats that tail's, but it has no last token to step.
_FRESH = PrefixCacheEntry(0, 0.0, (BOS_ID,))
_EMPTY_AFTER_ONE = FamilyBatch([(_FRESH, (), ((_X,), ()))])


class TestSiblingShortcut:
    """A family's cache and its children's scores are one request at a time's, bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(_family_batches())
    @example((3, _EQUAL_ROOTS))
    @example((3, _EMPTY_AFTER_ONE))
    def test_batch_equals_reference(self, drawn):
        order, batch = drawn
        model = _small_model(order)
        assert _answer_bits(model, batch) == _reference_bits(model, batch)

    def test_carriers_are_immutable(self):
        cache = PrefixCacheEntry(0, 0.0, ())
        request = ScoreRequest((), cache)
        for carrier, name in [(cache, "scored_len"), (cache, "context"), (request, "cache")]:
            with pytest.raises(AttributeError):
                setattr(carrier, name, getattr(carrier, name))


class TestFamilyBatch:
    """The one request shape: it iterates as its requests, and its bases are checked."""

    def test_it_iterates_as_its_requests(self):
        model = _small_model(2)
        fresh = model.fresh_cache()
        scored = score_caches(model, [ScoreRequest((_X, _Y), fresh)])[0]
        batch = FamilyBatch([(fresh, (_X,), ((), (_Y,), (_Z, _W))), (scored, (_X, _Y), ()),
                             (scored, (_X, _Y), ((_Z,),))])
        requests = list(batch)
        assert requests == [ScoreRequest((_X,), fresh), ScoreRequest((_X, _Y), fresh),
                            ScoreRequest((_X, _Z, _W), fresh), ScoreRequest((_X, _Y, _Z), scored)]
        assert all(type(r) is ScoreRequest for r in requests)
        assert all(r.cache is c for r, c in zip(requests, [fresh, fresh, fresh, scored]))
        assert list(batch) == requests  # it iterates again
        assert model.score_batch_incremental(FamilyBatch()) == ([], [])

    def test_anything_else_raises(self):
        model = _small_model(2)
        fresh = model.fresh_cache()
        batch = as_families([ScoreRequest((_X,), fresh), ScoreRequest((_X, _Y), fresh)])
        for other in (list(batch), [], batch.families, tuple(batch), iter(batch)):
            with pytest.raises(LMError, match="expected a FamilyBatch"):
                model.score_batch_incremental(other)

    def test_a_base_short_of_its_cache_raises(self):
        # ``base + tail`` covers the cache, which a plain request allows; the base alone does not
        model = _small_model(2)
        cache = score_caches(model, [ScoreRequest((_X, _Y), model.fresh_cache())])[0]
        reference_score_batch(model, [ScoreRequest((_X, _Y, _Z), cache)])
        with pytest.raises(LMError, match="cache covers 2 tokens but sequence has 1"):
            model.score_batch_incremental(FamilyBatch([(cache, (_X,), ((_Y, _Z),))]))

    def test_a_base_that_is_not_a_tuple_raises(self):
        # a list base would fail the prefix check as "not a prefix"; its own message names it
        model = _small_model(2)
        fresh = model.fresh_cache()
        with pytest.raises(LMError, match="a family's base must be a tuple, got list"):
            model.score_batch_incremental(FamilyBatch([(fresh, [_X], ((),))]))

    def test_tails_that_are_not_a_tuple_raise(self):
        # a family is answered from memory only because it cannot change, so its
        # tails must be a tuple; the tails themselves are only indexed
        model = _cold(2)
        fresh = model.fresh_cache()
        for tails in ([(_Y,)], [()], []):
            with pytest.raises(LMError, match="a family's tails must be a tuple, got list"):
                model.score_batch_incremental(FamilyBatch([(fresh, (_X,), tails)]))
        listed = model.score_batch_incremental(FamilyBatch([(fresh, (_X,), ([_Y],))]))[1]
        assert listed == model.score_batch_incremental(FamilyBatch([(fresh, (_X,), ((_Y,),))]))[1]

    def test_a_base_whose_head_differs_from_the_cache_raises(self):
        # the exact-tokens check: the base ends as the cache's tokens do, but starts otherwise
        model = _small_model(3)
        cache = score_caches(model, [ScoreRequest((_X, _Y), model.fresh_cache())])[0]
        batch = FamilyBatch([(cache, (_Z, _Y), ((_W,),))])
        with pytest.raises(LMError, match="not a prefix"):
            reference_score_batch(model, list(batch))
        with pytest.raises(LMError, match="not a prefix"):
            model.score_batch_incremental(batch)


def _spied(model, monkeypatch) -> list:
    """The trie steps and token steps ``model`` makes from now on, as ``(name, args)``."""
    made = []
    for name in ("_walk", "_next"):
        plain = getattr(model, name)
        monkeypatch.setattr(model, name,
                            lambda *args, name=name, plain=plain: made.append((name, args))
                            or plain(*args))
    return made


class TestAnswerMemo:
    """A family the previous call answered is answered again from memory, and nothing else is."""

    @settings(max_examples=150, deadline=None)
    @given(_family_batches())
    def test_a_batch_sent_twice(self, drawn):
        order, batch = drawn
        model = _cold(order)
        want = _reference_bits(model, batch)
        assert _answer_bits(model, batch) == want
        with pytest.MonkeyPatch.context() as patch:
            made = _spied(model, patch)
            assert _answer_bits(model, batch) == want
        # only a family of one empty tail, a delayed-pass view, is walked again: one walk each
        views = sum(tails == ((),) for _, _, tails in batch.families)
        assert len([m for m in made if m[0] == "_walk"]) == views
        assert views or not made

    def test_a_family_is_walked_again_only_when_it_is_new(self, monkeypatch):
        model = _cold(3)
        fresh = model.fresh_cache()
        first = FamilyBatch([(fresh, (_X,), ((_Y,), (_Z, _W))), (fresh, (_Y, _Z), ((_X,),))])
        answer = model.score_batch_incremental(first)
        made = _spied(model, monkeypatch)
        assert model.score_batch_incremental(FamilyBatch(first.families)) == answer
        assert made == []
        # equal by value, but new objects: walked, with the same answer
        equal = FamilyBatch([(fresh, (_X,), ((_Y,), (_Z, _W))), (fresh, (_Y, _Z), ((_X,),))])
        assert model.score_batch_incremental(equal) == answer
        assert len([m for m in made if m[0] == "_walk"]) >= 2
        # only the previous call is remembered: ``first`` came two calls ago
        made.clear()
        assert model.score_batch_incremental(first) == answer
        assert made

    def test_a_reused_id_gets_its_own_answer(self):
        # the memo holds the families it answered, so no new family can take the id of one;
        # were an answered family freed, CPython would hand its id to the next tuple of its size
        model = _cold(2)
        fresh = model.fresh_cache()
        family = (fresh, (_X,), ((_Y,),))
        model.score_batch_incremental(FamilyBatch([family]))
        freed = id(family)
        del family
        for _ in range(100):
            other = (fresh, (_Z,), ((_W,), (_X,)))
            if id(other) == freed:
                break
        batch = FamilyBatch([other])
        assert _answer_bits(model, batch) == _reference_bits(model, batch)


def _filled(model) -> int:
    """The slots the model's next-token rows hold."""
    return sum(slot is not None for row in model._rows.values() for slot in row)


def _cold(order) -> NGramModel:
    """``_small_model(order)``'s tables behind empty next-token rows."""
    model = _small_model(order)
    return NGramModel(order, model.vocab, model._probs, model._backoffs)


@st.composite
def _row_calls(draw):
    """``(order, batches)``: 2-4 family batches for one model, the last one a repeat."""
    order = draw(st.sampled_from([1, 2, 3]))
    batches = [b for _, b in draw(st.lists(_family_batches(order), min_size=1, max_size=3))]
    return order, batches + [draw(st.sampled_from(batches))]


class TestSiblingRows:
    """The next-token rows outlive a call, stay bounded, and only the family walk uses them."""

    @pytest.mark.parametrize("limit", [None, 1])
    @settings(max_examples=150, deadline=None)
    @given(calls=_row_calls())
    def test_calls_equal_reference(self, limit, calls):
        order, batches = calls
        model = _cold(order)
        with pytest.MonkeyPatch.context() as patch:
            if limit is not None:
                patch.setattr(lm_mod, "_ROW_LIMIT", limit)
            bound = lm_mod._ROW_LIMIT
            for batch in batches:
                assert _answer_bits(model, batch) == _reference_bits(model, batch)
                # a call adds at most one row per child
                assert len(model._rows) <= bound + len(list(batch))

    @settings(max_examples=50, deadline=None)
    @given(calls=_row_calls())
    def test_every_filled_slot_is_the_step(self, calls):
        order, batches = calls
        model = _cold(order)
        for batch in batches:
            model.score_batch_incremental(batch)
        for ctx, row in model._rows.items():
            assert len(row) == model.vocab.size and any(slot is not None for slot in row)
            for t, slot in enumerate(row):
                assert slot is None or repr(slot) == repr(model._next(ctx, t)[0])

    def test_a_warm_step_makes_no_next_call(self, monkeypatch):
        model = _cold(2)
        a, b, c = range(NUM_SPECIALS, NUM_SPECIALS + 3)
        cache = model.fresh_cache()
        cold = model.score_batch_incremental(FamilyBatch([(cache, (a,), ((a,), (b,), (c,)))]))
        assert list(model._rows) == [(a,)] and _filled(model) == 3
        steps, step = [], model._next
        monkeypatch.setattr(model, "_next", lambda ctx, t: steps.append((ctx, t)) or step(ctx, t))
        # an equal family, but another object: walked, not remembered
        warm = model.score_batch_incremental(FamilyBatch([(cache, (a,), ((a,), (b,), (c,)))]))
        assert steps == [((BOS_ID,), a)]  # the base's walk only
        assert warm == cold

    def test_the_limit_clears_the_rows(self, monkeypatch):
        monkeypatch.setattr(lm_mod, "_ROW_LIMIT", 1)
        model = _cold(2)
        a, b, c = range(NUM_SPECIALS, NUM_SPECIALS + 3)
        cache = model.fresh_cache()
        for first in (a, b):
            model.score_batch_incremental(FamilyBatch([(cache, (first,), ((a,), (c,)))]))
        assert list(model._rows) == [(a,), (b,)]  # one row was not past the limit
        model.score_batch_incremental(FamilyBatch([(cache, (c,), ((a,), (b,)))]))
        assert list(model._rows) == [(c,)] and _filled(model) == 2
        assert model._rows[(c,)][b] == model._next((c,), b)[0]

    def test_oracles_leave_them_empty(self, tmp_path):
        vocab = make_vocab(*_PIECES)
        a, b, c, d, e = (vocab.token_id(p) for p in _PIECES)
        model = train_ngram([[a, c, b], [a, b, d], [e, a, c]], vocab, 3, 0.4)
        model.logprob((BOS_ID, a), c)
        model.sequence_logprob((BOS_ID, a, c, b, EOS_ID))
        # one-child families with empty tails walk the trie alone, siblings too
        cache = model.fresh_cache()
        score_caches(model, [ScoreRequest((a, c, last), cache) for last in (a, b, b)])
        write_arpa(model, str(tmp_path / "lm.arpa"))
        back = read_arpa(str(tmp_path / "lm.arpa"))
        back.sequence_logprob((BOS_ID, b, d, EOS_ID))
        for scorer in (model, back):
            assert scorer._rows == {}

    @pytest.mark.parametrize("order", [1, 2, 3])
    @pytest.mark.parametrize("outside", ["negative", "past the end"])
    def test_a_token_outside_the_vocabulary_raises_on_either_path(self, order, outside):
        model = _cold(order)
        size = model.vocab.size
        bad = -1 if outside == "negative" else size
        a = NUM_SPECIALS
        cache = model.fresh_cache()
        with pytest.raises(LMError) as walked:
            score_caches(model, [ScoreRequest((a, bad), cache)])
        with pytest.raises(LMError) as referenced:
            reference_score_batch(model, [ScoreRequest((a, bad), cache)])
        # in a base, in a tail's stem, and last after two children filled
        # their slots, the last id's among them, which index -1 would read
        families = [(cache, (a, bad), ((),)), (cache, (a,), ((bad, a),)),
                    (cache, (a,), ((a,), (size - 1,), (bad,)))]
        for family in families:
            with pytest.raises(LMError) as stepped:
                model.score_batch_incremental(FamilyBatch([family]))
            assert str(stepped.value) == str(walked.value) == str(referenced.value)
        assert _filled(model) == 2  # the row steps ran


class TestArpa:
    def test_round_trip_scoring(self, trigram, tmp_path):
        path = tmp_path / "model.arpa"
        write_arpa(trigram, str(path))
        loaded = read_arpa(str(path))
        assert loaded.vocab.tokens == trigram.vocab.tokens
        rng = np.random.default_rng(19)
        worst = 0.0
        for _ in range(100):
            seq = (BOS_ID,) + tuple(
                int(x) for x in rng.integers(4, trigram.vocab.size, size=12)
            ) + (EOS_ID,)
            worst = max(worst, abs(trigram.sequence_logprob(seq) - loaded.sequence_logprob(seq)))
        assert worst < 1e-9

    def test_empty_unigram_section(self, tmp_path):
        path = tmp_path / "bad.arpa"
        path.write_text("\\data\\\nngram 1=0\n\n\\1-grams:\n\n\\end\\\n")
        with pytest.raises(ArpaFormatError, match="1-grams"):
            read_arpa(str(path))

    def test_header_count_mismatch_names_order(self, trigram, tmp_path):
        path = tmp_path / "model.arpa"
        write_arpa(trigram, str(path))
        lines = path.read_text().splitlines()
        lines[2] = "ngram 2=1"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ArpaFormatError, match="order 2"):
            read_arpa(str(path))

    def test_missing_header(self, tmp_path):
        path = tmp_path / "junk.arpa"
        path.write_text("not an arpa file\n")
        with pytest.raises(ArpaFormatError):
            read_arpa(str(path))

    def test_entry_outside_section(self, tmp_path):
        path = tmp_path / "bad.arpa"
        path.write_text("\\data\\\nngram 1=1\n\n-1.0\t<s>\n\\end\\\n")
        with pytest.raises(ArpaFormatError):
            read_arpa(str(path))

    def test_unknown_token_in_higher_order(self, trigram, tmp_path):
        path = tmp_path / "model.arpa"
        write_arpa(trigram, str(path))
        text = path.read_text()
        marker = "\\2-grams:\n"
        at = text.index(marker) + len(marker)
        end = text.index("\n", at)
        fields = text[at:end].split("\t")
        fields[1] = "nonexistent-token"
        path.write_text(text[:at] + "\t".join(fields) + text[end:])
        with pytest.raises(ArpaFormatError, match="unknown token"):
            read_arpa(str(path))
