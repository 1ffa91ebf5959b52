"""Every file reader either round-trips what its writer wrote or raises its own typed error.

Each reader is given valid files (which must read back as written), the
same files with one line dropped, replaced, duplicated or edited, and
arbitrary text.  The only exception a reader may raise is its typed error,
which the CLI reports as ``error: ...`` with exit code 2.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beamfuse.acoustic import EmissionError, EmissionMatrix, read_emissions, write_emissions
from beamfuse.harness import HarnessError, read_manifest, write_manifest
from beamfuse.lm import ArpaFormatError, read_arpa, train_ngram, write_arpa
from beamfuse.tokenization import (
    SPECIAL_TOKENS,
    WORD_MARKER,
    Tokenizer,
    Vocabulary,
    VocabularyError,
    read_vocab,
    write_vocab,
)

# characters a text-mode line can hold: no line breaks, no lone surrogates
_LINE_CHARS = st.characters(blacklist_categories=("Cs",), blacklist_characters="\n\r")
# the characters the formats are made of, so edits often stay almost valid
_FORMAT_CHARS = st.sampled_from(list("0123456789-+.eEinfa \t=\\<>/sk") + [WORD_MARKER])


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("readers") / "file"


def _read_or_typed_error(reader, error, path) -> None:
    try:
        reader(str(path))
    except error:
        pass


@st.composite
def _edited(draw, text: str) -> str:
    """``text`` with one line dropped, replaced, duplicated, or one character changed."""
    lines = text.split("\n")
    i = draw(st.integers(0, len(lines) - 1))
    edit = draw(st.sampled_from(["drop", "replace", "duplicate", "char"]))
    if edit == "drop":
        del lines[i]
    elif edit == "replace":
        lines[i] = draw(st.text(_FORMAT_CHARS | _LINE_CHARS, max_size=30))
    elif edit == "duplicate":
        lines.insert(i, lines[i])
    else:
        line = lines[i]
        j = draw(st.integers(0, len(line)))
        lines[i] = line[:j] + draw(st.text(_FORMAT_CHARS, min_size=1, max_size=3)) + line[j + 1 :]
    return "\n".join(lines)


def _any_text():
    return st.text(_FORMAT_CHARS | _LINE_CHARS | st.just("\n"), max_size=200)


# -- vocabularies ----------------------------------------------------------------

_pieces = st.lists(
    st.builds(
        lambda begin, body: WORD_MARKER + body if begin else body,
        st.booleans(),
        st.text(_LINE_CHARS.filter(lambda c: c != WORD_MARKER), min_size=1, max_size=4),
    ).filter(lambda piece: piece not in SPECIAL_TOKENS),
    unique=True,
    max_size=12,
)


class TestVocabulary:
    @settings(max_examples=100, deadline=None)
    @given(_pieces)
    def test_round_trip(self, scratch, pieces):
        vocab = Vocabulary(SPECIAL_TOKENS + tuple(pieces))
        write_vocab(vocab, str(scratch))
        assert read_vocab(str(scratch)) == vocab

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_edited_or_arbitrary_text(self, scratch, data):
        write_vocab(Vocabulary(SPECIAL_TOKENS + tuple(data.draw(_pieces))), str(scratch))
        text = data.draw(_edited(scratch.read_text(encoding="utf-8")) | _any_text())
        scratch.write_text(text, encoding="utf-8")
        _read_or_typed_error(read_vocab, VocabularyError, scratch)


# -- emissions -------------------------------------------------------------------


@st.composite
def _emissions(draw) -> EmissionMatrix:
    frames, vocab = draw(st.integers(1, 5)), draw(st.integers(2, 6))
    seed = draw(st.integers(0, 2**32 - 1))
    logits = np.random.default_rng(seed).normal(scale=3.0, size=(frames, vocab))
    m = logits.max(axis=1, keepdims=True)
    return EmissionMatrix(logits - (m + np.log(np.exp(logits - m).sum(axis=1, keepdims=True))))


class TestEmissions:
    @settings(max_examples=100, deadline=None)
    @given(_emissions())
    def test_round_trip(self, scratch, em):
        write_emissions(em, str(scratch))
        loaded = read_emissions(str(scratch))
        assert loaded.log_probs.shape == em.log_probs.shape
        # nine significant digits on disk, re-normalized on reading
        assert np.allclose(loaded.log_probs, em.log_probs, rtol=1e-8, atol=1e-8)

    @settings(max_examples=50, deadline=None)
    @given(_emissions(), st.data())
    def test_duplicated_row_rejected(self, scratch, em, data):
        # a row past the header's frame count used to be dropped silently
        write_emissions(em, str(scratch))
        lines = scratch.read_text(encoding="utf-8").splitlines()
        i = data.draw(st.integers(1, len(lines) - 1))
        lines.insert(i, lines[i])
        scratch.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(EmissionError, match="more rows than"):
            read_emissions(str(scratch))

    def test_trailing_blank_lines_allowed(self, scratch):
        scratch.write_text("1 2\n-0.5 -0.9327521295671886\n\n  \n", encoding="utf-8")
        assert read_emissions(str(scratch)).num_frames == 1

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_edited_or_arbitrary_text(self, scratch, data):
        write_emissions(data.draw(_emissions()), str(scratch))
        text = data.draw(_edited(scratch.read_text(encoding="utf-8")) | _any_text())
        scratch.write_text(text, encoding="utf-8")
        _read_or_typed_error(read_emissions, EmissionError, scratch)


# -- ARPA models -----------------------------------------------------------------

_ARPA_TOK = Tokenizer(Vocabulary(SPECIAL_TOKENS + ("▁a", "▁b", "c", "▁d")))


@st.composite
def _models(draw):
    words = st.lists(st.sampled_from(["a", "b", "ac", "d", "dc"]), min_size=1, max_size=5)
    corpus = draw(st.lists(words.map(" ".join), min_size=1, max_size=6))
    order = draw(st.integers(1, 3))
    discount = draw(st.sampled_from([0.2, 0.4, 0.7]))
    sequences = [_ARPA_TOK.encode(line) for line in corpus]
    return train_ngram(sequences, _ARPA_TOK.vocab, order, discount)


class TestArpa:
    @settings(max_examples=60, deadline=None)
    @given(_models())
    def test_round_trip(self, scratch, model):
        write_arpa(model, str(scratch))
        loaded = read_arpa(str(scratch))
        assert loaded.order == model.order and loaded.vocab == model.vocab
        for table in ("_probs", "_backoffs"):
            want, got = getattr(model, table), getattr(loaded, table)
            assert got.keys() == want.keys()
            # twelve significant log10 digits on disk
            assert all(math.isclose(got[k], want[k], rel_tol=1e-10, abs_tol=1e-10) for k in want)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_edited_or_arbitrary_text(self, scratch, data):
        write_arpa(data.draw(_models()), str(scratch))
        text = data.draw(_edited(scratch.read_text(encoding="utf-8")) | _any_text())
        scratch.write_text(text, encoding="utf-8")
        # the unigram section is checked as a vocabulary, with the vocabulary's error
        _read_or_typed_error(read_arpa, (ArpaFormatError, VocabularyError), scratch)

    def test_repeated_ngram_rejected(self, scratch):
        # one 2-gram line takes another's tokens: the header count still holds
        corpus = [_ARPA_TOK.encode(line) for line in ("a b", "ac d", "b a d", "dc a")]
        write_arpa(train_ngram(corpus, _ARPA_TOK.vocab, 2, 0.4), str(scratch))
        lines = scratch.read_text(encoding="utf-8").split("\n")
        start = lines.index("\\2-grams:") + 1
        repeated = lines[start].split("\t")[1]
        second = lines[start + 1].split("\t")
        second[1] = repeated
        lines[start + 1] = "\t".join(second)
        scratch.write_text("\n".join(lines), encoding="utf-8")
        with pytest.raises(ArpaFormatError, match=f"n-gram {repeated!r} listed twice"):
            read_arpa(str(scratch))

    @staticmethod
    def _bigram_lines(scratch) -> list[str]:
        corpus = [_ARPA_TOK.encode(line) for line in ("a b", "ac d", "b a d", "dc a")]
        write_arpa(train_ngram(corpus, _ARPA_TOK.vocab, 2, 0.4), str(scratch))
        return scratch.read_text(encoding="utf-8").split("\n")

    def test_repeated_header_order_rejected(self, scratch):
        # a count for order 1 before the true one would otherwise be overwritten by it
        lines = self._bigram_lines(scratch)
        true = lines.index("\\data\\") + 1
        assert lines[true].startswith("ngram 1=")
        lines.insert(true, "ngram 1=99")
        scratch.write_text("\n".join(lines), encoding="utf-8")
        with pytest.raises(ArpaFormatError, match="header lists order 1 twice"):
            read_arpa(str(scratch))

    def test_repeated_section_rejected(self, scratch):
        # the unigram section split in two would otherwise read as one
        lines = self._bigram_lines(scratch)
        start = lines.index("\\1-grams:") + 1
        lines.insert(start + 2, "\\1-grams:")
        scratch.write_text("\n".join(lines), encoding="utf-8")
        with pytest.raises(ArpaFormatError, match=r"section \\1-grams: appears twice"):
            read_arpa(str(scratch))


# -- manifests -------------------------------------------------------------------

_field = st.text(_LINE_CHARS.filter(lambda c: c != "\t"), max_size=8)
_rows = st.lists(st.tuples(_field, _field, _field), max_size=5)


class TestManifest:
    @settings(max_examples=100, deadline=None)
    @given(_rows)
    def test_round_trip(self, scratch, rows):
        write_manifest(rows, str(scratch))
        assert read_manifest(str(scratch)) == rows

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_edited_or_arbitrary_text(self, scratch, data):
        write_manifest(data.draw(_rows), str(scratch))
        text = data.draw(_edited(scratch.read_text(encoding="utf-8")) | _any_text())
        scratch.write_text(text, encoding="utf-8")
        _read_or_typed_error(read_manifest, HarnessError, scratch)

