import numpy as np
import pytest

from beamfuse.decoder import Hypothesis, LMSpec, LMView, advance_views
from beamfuse.harness import generate_corpus, split_corpus
from beamfuse.lm import train_ngram
from beamfuse.tokenization import BOS_ID, SPECIAL_TOKENS, Tokenizer, Vocabulary, build_vocab


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


def advanced_view(ids, asr_tok: Tokenizer, lm_tok: Tokenizer, stepwise: bool = False) -> LMView:
    """The LM view that ``advance_views`` builds for a hypothesis (``<s>`` excluded).

    ``stepwise`` advances after every ASR token, as the decoder does while a
    hypothesis grows; otherwise the view is advanced once over all of ``ids``.
    """
    spec = LMSpec(None, lm_tok, 1.0)
    hyp = Hypothesis((BOS_ID,), views=[LMView(0, (), None)])
    for end in range(1, len(ids) + 1) if stepwise else [len(ids)]:
        hyp.tokens = (BOS_ID, *ids[:end])
        advance_views(hyp, asr_tok, [spec])
    return hyp.views[0]
