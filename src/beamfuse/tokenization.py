"""Deterministic wordpiece vocabularies, greedy tokenization, and re-tokenization.

Two tokenizers over different vocabularies create the mismatch this package
resolves at decode time: hypothesis prefixes produced with one inventory are
mapped into another by detokenizing the longest complete-word prefix
(``tokenizable_prefix_len``) and re-encoding it, which the decoder does
incrementally in ``advance_views``.  Everything here is deterministic: the
same corpus always yields the same vocabulary file, and every word always
encodes to the same piece sequence.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

WORD_MARKER = "▁"  # "▁", prefixes every word-initial piece

BLANK_ID = 0
BOS_ID = 1
EOS_ID = 2
UNK_ID = 3

SPECIAL_TOKENS = ("<blank>", "<s>", "</s>", "<unk>")
NUM_SPECIALS = len(SPECIAL_TOKENS)


class VocabularyError(ValueError):
    """Raised for malformed vocabularies or vocabulary files."""


@dataclass(frozen=True)
class Vocabulary:
    """An ordered wordpiece inventory; a token's index is its id.

    Ids 0..3 are reserved: blank, ``<s>``, ``</s>``, ``<unk>``.  The blank
    slot is only meaningful on the acoustic side; language-model
    vocabularies keep it as an inert placeholder so that the file format
    and id layout are identical on both sides.
    """

    tokens: tuple[str, ...]
    marker: str = WORD_MARKER

    def __post_init__(self) -> None:
        if len(self.tokens) < NUM_SPECIALS:
            raise VocabularyError("vocabulary must contain the four reserved tokens")
        if self.tokens[1:NUM_SPECIALS] != SPECIAL_TOKENS[1:]:
            raise VocabularyError(
                f"tokens 1..3 must be {SPECIAL_TOKENS[1:]}, got {self.tokens[1:NUM_SPECIALS]}"
            )
        if len(set(self.tokens)) != len(self.tokens):
            raise VocabularyError("token strings must be unique")
        for tok in self.tokens[NUM_SPECIALS:]:
            if self.marker in tok[1:]:
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
        return self.token(token_id).startswith(self.marker)

    def real_ids(self) -> range:
        """Ids of ordinary (non-reserved) tokens."""
        return range(NUM_SPECIALS, len(self.tokens))


def build_vocab(
    corpus: Iterable[str], target_size: int, marker: str = WORD_MARKER
) -> Vocabulary:
    """Build a wordpiece vocabulary of at most ``target_size`` tokens.

    The inventory always contains the four reserved tokens plus the marked
    and unmarked single-character variants of every character seen, so that
    encoding corpus text never needs the unknown token.  Remaining slots go
    to the most frequent multi-character pieces, ties broken lexically, so
    identical corpora produce byte-identical vocabularies.
    """
    word_counts: Counter[str] = Counter()
    for line in corpus:
        word_counts.update(line.split())
    if not word_counts:
        raise VocabularyError("empty corpus")

    chars = sorted({ch for word in word_counts for ch in word})
    singles = [marker + ch for ch in chars] + chars
    required = NUM_SPECIALS + len(singles)
    if target_size < required:
        raise VocabularyError(
            f"target_size {target_size} too small to cover the alphabet "
            f"({len(chars)} characters need {required} tokens)"
        )

    piece_counts: Counter[str] = Counter()
    for word, count in word_counts.items():
        marked = marker + word
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
    return Vocabulary(tuple(tokens), marker)


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
    Each distinct word always encodes to the same piece sequence.
    """

    def __init__(self, vocab: Vocabulary):
        self.vocab = vocab
        self._index = {s: i for i, s in enumerate(vocab.tokens)}
        real = vocab.tokens[NUM_SPECIALS:]
        self._max_piece = max((len(s) for s in real), default=1)

    def encode_word(self, word: str) -> list[int]:
        marker = self.vocab.marker
        text = marker + word
        out: list[int] = []
        i = 0
        n = len(text)
        while i < n:
            end = min(n, i + self._max_piece)
            token_id = None
            while end > i:
                token_id = self._index.get(text[i:end])
                if token_id is not None:
                    break
                end -= 1
            if token_id is None:
                out.append(UNK_ID)
                # at the word start the marker and the offending character
                # are consumed together
                i += 2 if text[i] == marker else 1
            else:
                out.append(token_id)
                i = end
        return out

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
        return "".join(parts).replace(self.vocab.marker, " ").strip()


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
