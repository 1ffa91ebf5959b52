import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beamfuse.decoder import Hypothesis, LMSpec, LMView, advance_views
from beamfuse.tokenization import (
    BOS_ID,
    SPECIAL_TOKENS,
    UNK_ID,
    Tokenizer,
    Vocabulary,
    VocabularyError,
    build_vocab,
    read_vocab,
    tokenizable_prefix_len,
    write_vocab,
)

from conftest import advanced_view, make_vocab


class TestBuildVocab:
    def test_single_letter_corpus_contains_marked_char(self):
        vocab = build_vocab(["a a a"], 8)
        assert "▁a" in vocab.tokens
        assert vocab.tokens[:4] == SPECIAL_TOKENS
        assert vocab.size <= 8

    def test_deterministic_files(self, corpus_split, tmp_path):
        train, _ = corpus_split
        a, b = tmp_path / "a.vocab", tmp_path / "b.vocab"
        write_vocab(build_vocab(train, 96), str(a))
        write_vocab(build_vocab(list(train), 96), str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_corpus_encodes_without_unknowns(self, corpus_split):
        train, _ = corpus_split
        lines = train[:200]
        tok = Tokenizer(build_vocab(lines, 64))
        for line in lines:
            assert UNK_ID not in tok.encode(line)

    def test_empty_corpus_rejected(self):
        with pytest.raises(VocabularyError):
            build_vocab(["", "   "], 32)

    def test_target_size_too_small(self):
        with pytest.raises(VocabularyError, match="too small"):
            build_vocab(["abc def"], 8)

    def test_respects_target_size(self, corpus_split):
        train, _ = corpus_split
        assert build_vocab(train, 50).size <= 50


class TestTokenizer:
    def test_encode_empty(self, asr_tok):
        assert asr_tok.encode("") == []

    def test_encode_single_char_word(self):
        tok = Tokenizer(build_vocab(["a a a"], 8))
        assert tok.encode("a") == [tok.vocab.token_id("▁a")]

    def test_marked_token_per_word(self, asr_tok, corpus_split):
        _, eval_lines = corpus_split
        line = " ".join(eval_lines[0].split()[:5])
        ids = asr_tok.encode(line)
        marked = sum(asr_tok.vocab.is_word_begin(i) for i in ids)
        assert marked == len(line.split())

    def test_unknown_character_fallback(self, asr_tok):
        ids = asr_tok.encode("Ω")
        assert ids == [UNK_ID]

    def test_decode_empty(self, asr_tok):
        assert asr_tok.decode([]) == ""

    def test_round_trip(self, asr_tok, corpus_split):
        _, eval_lines = corpus_split
        for line in eval_lines[:50]:
            assert asr_tok.decode(asr_tok.encode(line)) == " ".join(line.split())

    def test_decode_constructed_pieces(self):
        vocab = make_vocab("▁ab", "c", "▁d")
        tok = Tokenizer(vocab)
        ids = [vocab.token_id("▁ab"), vocab.token_id("c"), vocab.token_id("▁d")]
        assert tok.decode(ids) == "abc d"

    def test_decode_skips_specials(self, asr_tok):
        ids = asr_tok.encode("a")
        assert asr_tok.decode([BOS_ID] + ids + [2]) == asr_tok.decode(ids)

    def test_decode_invalid_id(self, asr_tok):
        with pytest.raises(VocabularyError):
            asr_tok.decode([asr_tok.vocab.size])

    def test_encoding_deterministic(self, asr_tok, corpus_split):
        train, _ = corpus_split
        words = {w for line in train[:100] for w in line.split()}
        for word in sorted(words)[:100]:
            first = asr_tok.encode_word(word)
            assert first == asr_tok.encode_word(word)
            assert asr_tok.encode(word) == first


class TestVocabularyValidation:
    def test_duplicate_tokens_rejected(self):
        with pytest.raises(VocabularyError):
            make_vocab("x", "x")

    def test_marker_inside_token_rejected(self):
        with pytest.raises(VocabularyError):
            make_vocab("a▁b")

    @pytest.mark.parametrize("marker", ("", "@@"))
    def test_marker_must_be_one_character(self, marker):
        # with "@@", pieces "a@" and "@b" would decode to "a b", not "a@" + "@b"
        with pytest.raises(VocabularyError, match="marker must be one character"):
            Vocabulary(("<blank>", "<s>", "</s>", "<unk>", "a@", "@b"), marker)
        with pytest.raises(VocabularyError, match="marker must be one character"):
            build_vocab(["ab ba"], 20, marker)

    def test_specials_enforced(self):
        with pytest.raises(VocabularyError):
            Vocabulary(("<blank>", "<s>", "</s>", "oops", "x"))

    def test_file_round_trip(self, tmp_path, asr_tok):
        path = tmp_path / "v.vocab"
        write_vocab(asr_tok.vocab, str(path))
        assert read_vocab(str(path)).tokens == asr_tok.vocab.tokens

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.vocab"
        path.write_text("")
        with pytest.raises(VocabularyError):
            read_vocab(str(path))


def _reference_prefix_len(ids, vocab):
    """Group tokens into words, count the tokens of all closed words."""
    groups = []
    for token in ids:
        if vocab.is_word_begin(token) or not groups:
            groups.append(0)
        groups[-1] += 1
    if len(groups) <= 1:
        return 0
    return sum(groups[:-1])


class TestTokenizablePrefix:
    def test_single_open_word(self):
        vocab = make_vocab("▁he", "llo", "▁wor")
        ids = [vocab.token_id("▁he"), vocab.token_id("llo")]
        assert tokenizable_prefix_len(ids, vocab) == 0

    def test_word_closed_by_next_word_begin(self):
        vocab = make_vocab("▁he", "llo", "▁wor")
        ids = [vocab.token_id("▁he"), vocab.token_id("llo"), vocab.token_id("▁wor")]
        assert tokenizable_prefix_len(ids, vocab) == 2

    def test_every_marked_token_closes_previous(self):
        vocab = make_vocab("▁a", "▁b", "▁c")
        ids = [vocab.token_id("▁a"), vocab.token_id("▁b"), vocab.token_id("▁c")]
        assert tokenizable_prefix_len(ids, vocab) == 2

    def test_leading_bos_not_counted(self):
        vocab = make_vocab("▁a", "▁b")
        ids = [BOS_ID, vocab.token_id("▁a"), vocab.token_id("▁b")]
        assert tokenizable_prefix_len(ids, vocab) == 1

    def test_matches_reference_scan(self, asr_tok):
        rng = np.random.default_rng(17)
        real = list(asr_tok.vocab.real_ids())
        for _ in range(300):
            n = int(rng.integers(0, 14))
            ids = [real[int(i)] for i in rng.integers(0, len(real), size=n)]
            assert tokenizable_prefix_len(ids, asr_tok.vocab) == _reference_prefix_len(
                ids, asr_tok.vocab
            )


class TestRetokenize:
    """Re-tokenization as the decoder does it, through ``advance_views``."""

    def test_empty(self, asr_tok, lm_tok):
        view = advanced_view([], asr_tok, lm_tok)
        assert (view.consumed, view.lm_tokens) == (0, ())

    def test_identity_tokenizers(self, asr_tok, corpus_split):
        _, eval_lines = corpus_split
        ids = asr_tok.encode(eval_lines[0])
        view = advanced_view(ids, asr_tok, asr_tok)
        assert list(view.lm_tokens) == ids[: view.consumed]

    def test_full_sentence_with_sentinel(self, asr_tok, lm_tok, corpus_split):
        _, eval_lines = corpus_split
        for line in eval_lines[:20]:
            sentence = " ".join(line.split()[:10])
            ids = asr_tok.encode(sentence)
            sentinel = next(
                i for i in asr_tok.vocab.real_ids() if asr_tok.vocab.is_word_begin(i)
            )
            view = advanced_view(ids + [sentinel], asr_tok, lm_tok)
            assert list(view.lm_tokens) == lm_tok.encode(sentence)
            assert asr_tok.decode(ids[: view.consumed]) == sentence

    def test_prefix_stability(self, asr_tok, lm_tok):
        rng = np.random.default_rng(23)
        real = list(asr_tok.vocab.real_ids())
        for _ in range(200):
            n = int(rng.integers(1, 16))
            ids = [real[int(i)] for i in rng.integers(0, len(real), size=n)]
            cut = int(rng.integers(0, n))
            short = advanced_view(ids[:cut], asr_tok, lm_tok).lm_tokens
            whole = advanced_view(ids, asr_tok, lm_tok)
            stepwise = advanced_view(ids, asr_tok, lm_tok, stepwise=True)
            assert whole.lm_tokens[: len(short)] == short
            assert (stepwise.consumed, stepwise.lm_tokens) == (whole.consumed, whole.lm_tokens)

    def test_boundary_correctness(self, asr_tok, lm_tok):
        rng = np.random.default_rng(29)
        real = list(asr_tok.vocab.real_ids())
        for _ in range(200):
            n = int(rng.integers(0, 16))
            ids = [real[int(i)] for i in rng.integers(0, len(real), size=n)]
            k = tokenizable_prefix_len(ids, asr_tok.vocab)
            assert k <= len(ids)
            # everything after the cut belongs to one final word
            assert not any(asr_tok.vocab.is_word_begin(t) for t in ids[k + 1 :])
            view = advanced_view(ids, asr_tok, lm_tok)
            assert view.consumed == k
            assert list(view.lm_tokens) == lm_tok.encode(asr_tok.decode(ids[:k]))

    @pytest.mark.parametrize("lm", ["matched", "cross"])
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_growing_equals_from_scratch(self, asr_tok, lm_tok, lm, data):
        # ordinary pieces plus </s> and <unk>, which decode to nothing
        ids = data.draw(st.lists(st.integers(2, asr_tok.vocab.size - 1), max_size=24))
        spec = LMSpec(None, asr_tok if lm == "matched" else lm_tok, 1.0)
        hyp = Hypothesis((BOS_ID,), views=[LMView(0, (), None)], k=0)
        for token in ids:
            hyp.tokens += (token,)
            k = hyp.k = tokenizable_prefix_len(hyp.tokens, asr_tok.vocab)
            advance_views(hyp, asr_tok, [spec])
            view = hyp.views[0]
            assert view.consumed == k
            assert view.lm_tokens == tuple(
                spec.tokenizer.encode(asr_tok.decode(hyp.tokens[1 : 1 + k]))
            )
