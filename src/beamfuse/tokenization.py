"""Deterministic wordpiece vocabularies, greedy tokenization, and re-tokenization.

Two tokenizers over different vocabularies create the mismatch this package
resolves at decode time: hypothesis prefixes produced with one inventory are
mapped into another by detokenizing the longest complete-word prefix
(``tokenizable_prefix_len``) and re-encoding it, which the decoder does
incrementally in ``advance_views``.  The decoder does not scan for that
prefix: the step that builds a hypothesis sets its length in O(1) from the
parent's and whether the new piece begins a word, and
``tokenizable_prefix_len`` defines what that length must be.  Everything
here is deterministic: the same corpus always yields the same vocabulary
file, and every word always encodes to the same piece sequence.
"""

from __future__ import annotations

import functools
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

# "▁" (U+2581), SentencePiece's word marker, starts each word-initial piece; it is fixed,
# as vocabulary files do not store it.  As one character it makes decoding a plain
# concatenation of piece texts, which ``Tokenizer.pieces`` and ``_family_requests`` use.
WORD_MARKER = "▁"

BLANK_ID = 0
BOS_ID = 1
EOS_ID = 2
UNK_ID = 3

SPECIAL_TOKENS = ("<blank>", "<s>", "</s>", "<unk>")
NUM_SPECIALS = len(SPECIAL_TOKENS)

# entries each encoding memo keeps: a decoder's distinct hypothesis words keep growing
MEMO_SIZE = 2**14


class VocabularyError(ValueError):
    """Raised for malformed vocabularies or vocabulary files."""


@dataclass(frozen=True)
class Vocabulary:
    """An ordered wordpiece inventory; a token's index is its id.

    Ids 0..3 are reserved: blank, ``<s>``, ``</s>``, ``<unk>``.  The blank
    slot is only meaningful on the acoustic side; language-model
    vocabularies keep it as an inert placeholder so that the file format
    and id layout are identical on both sides.  ``WORD_MARKER`` may only
    start a piece, and such a piece begins a word.
    """

    tokens: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.tokens) < NUM_SPECIALS:
            raise VocabularyError("vocabulary must contain the four reserved tokens")
        # a vocabulary file holds one token per line, and reading it splits at \n and \r
        broken = [tok for tok in self.tokens if "\n" in tok or "\r" in tok]
        if broken:
            raise VocabularyError(f"a token may not contain a line break: {broken[0]!r}")
        # id 0 is blank: a real piece there would be dropped as blank in decoding
        if self.tokens[:NUM_SPECIALS] != SPECIAL_TOKENS:
            raise VocabularyError(
                f"tokens 0..3 must be {SPECIAL_TOKENS}, got {self.tokens[:NUM_SPECIALS]}"
            )
        if len(set(self.tokens)) != len(self.tokens):
            raise VocabularyError("token strings must be unique")
        for tok in self.tokens[NUM_SPECIALS:]:
            if WORD_MARKER in tok[1:]:
                raise VocabularyError(f"marker may only start a token: {tok!r}")
            if not tok:
                raise VocabularyError("empty token string")
        object.__setattr__(self, "_index", {s: i for i, s in enumerate(self.tokens)})

    @property
    def size(self) -> int:
        return len(self.tokens)

    def token(self, token_id: int) -> str:
        if not 0 <= token_id < len(self.tokens):
            raise VocabularyError(f"token id {token_id} out of range 0..{len(self.tokens) - 1}")
        return self.tokens[token_id]

    def token_id(self, token: str) -> int | None:
        return self._index.get(token)  # type: ignore[attr-defined]

    def is_word_begin(self, token_id: int) -> bool:
        return self.token(token_id).startswith(WORD_MARKER)


def build_vocab(corpus: Iterable[str], target_size: int) -> Vocabulary:
    """Build a wordpiece vocabulary of at most ``target_size`` tokens.

    The inventory always contains the four reserved tokens plus every seen
    character alone and after ``WORD_MARKER``, so that encoding corpus text
    never needs the unknown token.  Remaining slots go to the most frequent
    multi-character pieces, ties broken lexically, so identical corpora
    produce byte-identical vocabularies.
    """
    word_counts: Counter[str] = Counter()
    for line in corpus:
        word_counts.update(line.split())
    if not word_counts:
        raise VocabularyError("empty corpus")

    chars = sorted({ch for word in word_counts for ch in word})
    singles = [WORD_MARKER + ch for ch in chars] + chars
    required = NUM_SPECIALS + len(singles)
    if target_size < required:
        raise VocabularyError(
            f"target_size {target_size} too small to cover the alphabet "
            f"({len(chars)} characters need {required} tokens)"
        )

    piece_counts: Counter[str] = Counter()
    for word, count in word_counts.items():
        marked = WORD_MARKER + word
        for start in range(len(marked)):
            # marked pieces carry the marker plus >= 2 characters; unmarked
            # pieces are any >= 2 character substring not touching the marker
            min_end = start + (3 if start == 0 else 2)
            for end in range(min_end, len(marked) + 1):
                piece_counts[marked[start:end]] += count

    taken = set(SPECIAL_TOKENS) | set(singles)
    ranked = sorted(
        (piece for piece in piece_counts if piece not in taken),
        key=lambda piece: (-piece_counts[piece], piece),
    )
    room = target_size - required
    tokens = list(SPECIAL_TOKENS) + singles + ranked[:room]
    return Vocabulary(tuple(tokens))


def write_vocab(vocab: Vocabulary, path: str) -> None:
    """Write one token per line; the line number is the token id."""
    with open(path, "w", encoding="utf-8") as fh:
        for tok in vocab.tokens:
            fh.write(tok + "\n")


def read_vocab(path: str) -> Vocabulary:
    with open(path, "r", encoding="utf-8") as fh:
        tokens = [line.rstrip("\n") for line in fh]
    while tokens and tokens[-1] == "":
        tokens.pop()
    if not tokens:
        raise VocabularyError(f"empty vocabulary file: {path}")
    return Vocabulary(tuple(tokens))


class Tokenizer:
    """Greedy longest-match wordpiece tokenizer over a fixed vocabulary.

    ``encode`` is total on whitespace-delimited text: characters outside the
    vocabulary's alphabet map to the unknown token instead of erroring.
    Each distinct word always encodes to the same piece sequence.  One
    greedy loop serves every entry: ``encode_rest`` runs it over a text from
    its start, ``encode_word`` over a marked word, and ``open_word`` stops
    it where the rest of a growing word could still change a piece.  Greedy
    at an offset reads only the text from there on, so a word that grows by
    more text is its open word's fixed pieces plus ``encode_rest`` of the
    unfixed rest and the new text (the suffix reuse of Fast WordPiece,
    without its trie).  The three answer tuples and are memoized, each in
    a memo of this tokenizer's own that keeps its ``MEMO_SIZE`` most recent
    entries: a decoder asks again for free, and its ever new words stay
    bounded.  A memo holds only the tables greedy reads, so it dies with
    its tokenizer, and ``__wrapped__`` is its uncached function.

    ``encode_rest(text)`` is the pieces greedy takes over ``text`` from its
    start: a marked word or, after ``open_word``'s fixed pieces, the rest
    of one; a rest that starts the word keeps its marker.
    ``encode_word(word)`` is ``encode_rest(WORD_MARKER + word)``.
    ``open_word(word)`` is ``(fixed, stub)``: the pieces of
    ``encode_word(word)`` that every ``encode_word(word + more)`` starts
    with, and the rest of ``WORD_MARKER + word`` after them, so that
    ``fixed + encode_rest(stub + more)`` is ``encode_word(word + more)``.
    A piece is fixed when it starts at least ``_max_piece`` characters
    before the end, since nothing after that is read to choose it, and at
    least two, since an unknown marker takes the character after it.  So
    ``len(stub) < max(_max_piece, 2)``.

    Two per-id tables serve the decoder, which indexes its candidates by id:
    ``begins[c]`` is whether id ``c`` begins a word (reserved ids, ``</s>``
    among them, never do), and ``pieces[c]`` is ``(glue, words, opens)`` for
    the text of piece ``c``, ``WORD_MARKER`` read as a space and reserved ids
    empty.  ``words`` are the text's words, ``glue`` the first of them if it
    joins the word before it, and ``opens`` whether text ending with it ends
    inside a word.  ``decode`` is these texts concatenated, stripped.
    """

    def __init__(self, vocab: Vocabulary):
        self.vocab = vocab
        self._index = vocab._index  # type: ignore[attr-defined]
        real = vocab.tokens[NUM_SPECIALS:]
        self._max_piece = max((len(s) for s in real), default=1)
        self.begins = tuple(vocab.is_word_begin(c) for c in range(vocab.size))
        pieces = []
        for c, piece in enumerate(vocab.tokens):
            text = "" if c < NUM_SPECIALS else piece.replace(WORD_MARKER, " ")
            words = tuple(text.split())
            glue = words[0] if words and not text[0].isspace() else None
            pieces.append((glue, words, bool(text) and not text[-1].isspace()))
        self.pieces = tuple(pieces)
        # each memo holds the tables greedy reads, not the tokenizer, so it dies with it
        memo = functools.lru_cache(maxsize=MEMO_SIZE)
        greedy = functools.partial(_greedy, self._index, self._max_piece)
        self.encode_rest = memo(functools.partial(_encode_rest, greedy))
        self.encode_word = memo(functools.partial(_encode_word, greedy))
        self.open_word = memo(functools.partial(_open_word, greedy, max(self._max_piece, 2)))

    def encode(self, text: str) -> list[int]:
        out: list[int] = []
        for word in text.split():
            out.extend(self.encode_word(word))
        return out

    def decode(self, ids: Sequence[int]) -> str:
        tokens = self.vocab.tokens
        size = len(tokens)
        parts = []
        for token_id in ids:
            if not 0 <= token_id < size:
                raise VocabularyError(f"token id {token_id} out of range")
            if token_id < NUM_SPECIALS:
                continue
            parts.append(tokens[token_id])
        return "".join(parts).replace(WORD_MARKER, " ").strip()


def _greedy(index: dict, max_piece: int, text: str, stop: int) -> tuple[list[int], int]:
    """Greedy longest match over ``text`` from its start: the pieces that start
    before ``stop``, and the offset after the last of them.

    ``index`` maps a piece to its id, and a piece starting at ``i`` reads at
    most ``text[i : i + max_piece]``.
    """
    n = len(text)
    out: list[int] = []
    i = 0
    while i < stop:
        end = min(n, i + max_piece)
        token_id = None
        while end > i:
            token_id = index.get(text[i:end])
            if token_id is not None:
                break
            end -= 1
        if token_id is None:
            out.append(UNK_ID)
            # at the word start the marker and the offending character
            # are consumed together
            i += 2 if text[i] == WORD_MARKER else 1
        else:
            out.append(token_id)
            i = end
    return out, i


def _encode_rest(greedy, text: str) -> tuple[int, ...]:
    return tuple(greedy(text, len(text))[0])


def _encode_word(greedy, word: str) -> tuple[int, ...]:
    return _encode_rest(greedy, WORD_MARKER + word)


def _open_word(greedy, reach: int, word: str) -> tuple[tuple[int, ...], str]:
    """``Tokenizer.open_word``: a piece is fixed when it starts ``reach`` or more characters
    before the end of ``WORD_MARKER + word``."""
    text = WORD_MARKER + word
    fixed, offset = greedy(text, len(text) - reach + 1)
    return tuple(fixed), text[offset:]


def tokenizable_prefix_len(ids: Sequence[int], vocab: Vocabulary) -> int:
    """Length of the longest prefix made only of complete words.

    A word is complete once a word-begin token follows it, so the trailing
    (possibly still growing) word is always excluded.  A leading ``<s>``
    is not counted.
    """
    seq = ids[1:] if ids and ids[0] == BOS_ID else ids
    for j in range(len(seq) - 1, 0, -1):
        if vocab.is_word_begin(seq[j]):
            return j
    return 0
