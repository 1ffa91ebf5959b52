"""Emission matrices, the label-synchronous CTC prefix scorer, and exact oracles.

All scores are natural-log probabilities.  Impossible events are IEEE -inf;
the two-way log-sum is guarded so -inf never produces a NaN.  Blank is id 0
everywhere, as the reserved-id layout in ``tokenization`` defines it.

Two independent oracles back the CTC prefix recursion (frame by frame in
``decoder.extend_frame``) on small instances: exhaustive path enumeration
and the classic interleaved-blank forward algorithm.  The
label-synchronous scorer turns the same recursion into prefix
log-probabilities: for each extension c of a prefix g, log ψ(g·c), the
probability that the full utterance's labelling starts with g·c, and for
``</s>`` the probability that it is exactly g.  It computes a child
prefix's forward variables over all frames at once, in closed form with
log-space cumulative sums rather than a loop over frames.  The two differ
by rounding only: 1.4e-13 at T=60, 8.0e-13 at T=200 and 6.8e-12 at
T=1,000 on benchmark emissions.  With emissions down to -700 the sums
reach -5e5 at T=1,000 and differ by up to 1.3e-9 (2.3e-15 relative); the
loop is as far from the exact value there.  Extension scores for a whole beam come from one product of
rescaled probabilities, (rows, T) by (T, V), with a log-space sum for
any entry whose product falls below 1e-250; they differ from a log-space
sum over frames by rounding only: at most 1.1e-13 relative, over 15,442
random rows with T up to 1,000, logit scales up to 30 and V from 4 to 65.

The scorer holds a whole beam as one ``PrefixBlock``, one row per prefix,
and selects survivor rows by index, as ESPnet's ``CTCPrefixScoreTH`` does
(Seki et al., Interspeech 2019).  Each row is bit-identical to that row
scored alone (see ``CtcPrefixScorer``).  ``both`` and ``end_scores`` rely
on ``np.logaddexp`` equalling ``lse2`` bit for bit, which tests pin.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .tokenization import BLANK_ID

NEG_INF = float("-inf")


class EmissionError(ValueError):
    """Raised for malformed emission matrices or files."""


def lse2(a: float, b: float) -> float:
    """log(exp(a) + exp(b)), safe when either side is -inf."""
    if a < b:
        a, b = b, a
    if a == NEG_INF:
        return NEG_INF
    return a + math.log1p(math.exp(b - a))


class EmissionMatrix:
    """Per-frame log-probability rows over the acoustic vocabulary.

    Rows must be normalized (logsumexp 0 within 1e-6) and finite.
    """

    ROW_TOLERANCE = 1e-6

    def __init__(self, log_probs: np.ndarray):
        arr = np.asarray(log_probs, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 2:
            raise EmissionError(f"expected a (frames, vocab) matrix, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise EmissionError("emission log-probabilities must be finite")
        row_lse = _logsumexp_rows(arr)
        worst = float(np.max(np.abs(row_lse)))
        if worst > self.ROW_TOLERANCE:
            raise EmissionError(f"rows not normalized (worst |logsumexp| = {worst:.3g})")
        self.log_probs = arr

    @property
    def num_frames(self) -> int:
        return self.log_probs.shape[0]

    @property
    def vocab_size(self) -> int:
        return self.log_probs.shape[1]


def _logsumexp_rows(arr: np.ndarray) -> np.ndarray:
    """log(sum(exp(row))) for each row of a 2-D block; a row of -inf gives -inf."""
    m = arr.max(axis=1)
    safe_m = np.where(m > NEG_INF, m, 0.0)
    with np.errstate(divide="ignore"):
        return safe_m + np.log(np.exp(arr - safe_m[:, None]).sum(axis=1))


# -- exact oracles (exponential; small instances only) -----------------------

_MAX_ORACLE_FRAMES = 12
_MAX_ORACLE_VOCAB = 8


def _check_oracle_size(em: EmissionMatrix) -> None:
    if em.num_frames > _MAX_ORACLE_FRAMES or em.vocab_size > _MAX_ORACLE_VOCAB:
        raise EmissionError(
            f"instance too large for enumeration: T={em.num_frames}, V={em.vocab_size}"
        )


def collapse_path(path: Sequence[int]) -> tuple[int, ...]:
    """Merge repeats, then drop blanks."""
    out = []
    prev = -1
    for s in path:
        if s != prev and s != BLANK_ID:
            out.append(s)
        prev = s
    return tuple(out)


def enumerate_collapse_table(em: EmissionMatrix) -> dict[tuple[int, ...], float]:
    """Total log-probability of every reachable labelling, by full enumeration."""
    _check_oracle_size(em)
    rows = em.log_probs.tolist()
    table: dict[tuple[int, ...], float] = {}
    for path in itertools.product(range(em.vocab_size), repeat=em.num_frames):
        logp = 0.0
        for t, s in enumerate(path):
            logp += rows[t][s]
        key = collapse_path(path)
        old = table.get(key)
        table[key] = logp if old is None else lse2(old, logp)
    return table


def brute_force_ctc(em: EmissionMatrix, labels: Sequence[int]) -> float:
    """log P(paths collapsing to exactly ``labels``), by enumeration."""
    table = enumerate_collapse_table(em)
    return table.get(tuple(labels), NEG_INF)


def forward_ctc(em: EmissionMatrix, labels: Sequence[int]) -> float:
    """log P(collapse == labels) via the interleaved-blank forward trellis.

    Independent of both the enumeration oracle and the prefix recursion.
    """
    for label in labels:
        if not 0 < label < em.vocab_size:
            raise ValueError(f"invalid label id {label}")
    ext = [BLANK_ID]
    for label in labels:
        ext.extend((label, BLANK_ID))
    S = len(ext)
    rows = em.log_probs
    alpha = [NEG_INF] * S
    alpha[0] = rows[0][BLANK_ID]
    if S > 1:
        alpha[1] = rows[0][ext[1]]
    for t in range(1, em.num_frames):
        new = [NEG_INF] * S
        for s in range(S):
            acc = alpha[s]
            if s >= 1:
                acc = lse2(acc, alpha[s - 1])
            if s >= 2 and ext[s] != BLANK_ID and ext[s] != ext[s - 2]:
                acc = lse2(acc, alpha[s - 2])
            new[s] = acc + rows[t][ext[s]]
        alpha = new
    if S == 1:
        return alpha[0]
    return lse2(alpha[-1], alpha[-2])


# -- label-synchronous prefix scoring ----------------------------------------


@dataclass(slots=True, eq=False)
class PrefixBlock:
    """Forward variables of a beam of prefixes for label-synchronous scoring, one row each.

    ``r_nonblank[s, t]`` / ``r_blank[s, t]`` hold the probability that the
    first t frames collapse to exactly prefix ``s``, ending non-blank /
    blank, and ``last_label[s]`` is its last label (-1 for the root).  A row
    of all -inf is a dead prefix, one no path reaches.  ``both`` is set from
    the others once, at construction: ``logaddexp(r_blank, r_nonblank)``
    over frames ``[:-1]``.  The prefix's own log-probability is not kept:
    the hypothesis holds it, as the ``candidate_scores`` entry it came from.
    """

    r_blank: np.ndarray
    r_nonblank: np.ndarray
    last_label: np.ndarray
    both: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        self.both = np.logaddexp(self.r_blank[:, :-1], self.r_nonblank[:, :-1])


def end_scores(block: PrefixBlock) -> np.ndarray:
    """Each row's ``</s>`` score: the log-probability that the labelling is exactly its prefix.

    The ``</s>`` column of ``CtcPrefixScorer.candidate_scores``, bit for
    bit, from one ``np.logaddexp`` over the last frame; a dead row scores
    -inf.
    """
    return np.logaddexp(block.r_nonblank[:, -1], block.r_blank[:, -1])


class CtcPrefixScorer:
    """Prefix log-probabilities over the vocabulary from CTC emissions, a beam at a time.

    The score of extending a prefix g with c is log ψ(g·c), where ψ is the
    starts-with probability (Watanabe et al., IEEE JSTSP 2017); the
    end-of-sequence score is the exact-labelling probability of g, its total
    CTC log-probability.  Scores are absolute, not increments, so a
    hypothesis's acoustic score is the entry it was chosen from.

    The beam is one ``PrefixBlock``: ``root`` gives a 1-row block,
    ``candidate_scores`` scores every row, and ``child`` builds the next
    block from the rows it selects, so a label step makes one call of each
    whatever the beam size.  Every sum over frames is taken per row, all T
    frames in an order that does not depend on the batch: along the row's
    contiguous frames, or as the ``np.einsum`` product of
    ``candidate_scores``; so every row is bit-identical to that row scored
    alone.
    """

    # a product below this is recomputed in log space (see candidate_scores)
    PRODUCT_FLOOR = 1e-250

    def __init__(self, em: EmissionMatrix, eos_id: int, disallowed: Sequence[int] = ()):
        self.eos_id = eos_id
        self.frames = em.log_probs
        self.T = em.num_frames
        self.V = em.vocab_size
        banned = set(disallowed) | {BLANK_ID}
        banned.discard(eos_id)
        self._banned = sorted(banned)
        # _cum[c, t]: cumulative log-probability of label c over the first t frames
        self._cum = np.zeros((self.V, self.T + 1))
        np.cumsum(self.frames.T, axis=1, out=self._cum[:, 1:])
        self._blank_cum = self._cum[BLANK_ID]
        # each emission column scaled by its max: frames == _col_max + log(_exp_frames)
        self._col_max = self.frames.max(axis=0)
        self._exp_frames = np.exp(self.frames - self._col_max)

    def root(self) -> PrefixBlock:
        """The empty prefix as a 1-row block."""
        r_nb = np.full((1, self.T + 1), NEG_INF)
        return PrefixBlock(self._blank_cum[None].copy(), r_nb, np.full(1, -1))

    def candidate_scores(self, block: PrefixBlock) -> np.ndarray:
        """One (rows, V) block of prefix log-probabilities; disallowed ids are -inf.

        Entry ``(s, c)`` is log ψ of row ``s``'s prefix extended by ``c``,
        and the ``</s>`` column is ``end_scores``.  With ``both[s, t]`` the
        log-probability that row ``s``'s prefix is complete after t frames,
        the starts-with probability of ``s`` extended by ``c`` is
        ``sum_t exp(both[s, t] + F[t, c])``.  Each row of ``both`` is
        scaled by its max ``m_s`` and each emission column by its max
        ``M_c`` (once, in ``__init__``), so it is
        ``m_s + M_c + log(sum_t exp(both[s, t] - m_s) * exp(F[t, c] - M_c))``:
        one (S, T) x (T, V) product of numbers in [0, 1], as Graves et al.
        rescale the CTC forward-backward.  The column of a row's last
        label, which only a blank-ending path may extend, is one gathered
        log-space sum over ``r_blank``.  ``both`` is the block's own, set
        when the block was built.

        A term lost to underflow in the product is below e^-745 (5e-324)
        relative to ``e^(m_s + M_c)``; once the sum is at least 1e-250,
        each lost term is below 5e-74 of the sum, so their total is
        negligible next to its rounding.  An entry whose product is
        smaller (zero included) is recomputed in log space.

        The product is ``np.einsum``, which sums every output entry over
        the row's frames in the same order whatever the batch, where a
        BLAS ``@`` may not; so every row is bit-identical to that row
        scored alone.  A dead row's ``both`` is all -inf, so its product is
        0 and its log-space sums -inf: it gets a row of -inf.
        """
        r_b, both = block.r_blank, block.both
        m = both.max(axis=1, initial=NEG_INF)
        safe_m = np.where(m > NEG_INF, m, 0.0)
        product = np.einsum("st,tv->sv", np.exp(both - safe_m[:, None]), self._exp_frames)
        with np.errstate(divide="ignore"):
            scores = (safe_m[:, None] + self._col_max) + np.log(product)
        low_r, low_c = np.nonzero(product < self.PRODUCT_FLOOR)
        if low_r.size:  # rare: underflow, a dead row, or one complete at no frame before T
            scores[low_r, low_c] = _logsumexp_rows(both[low_r] + self.frames[:, low_c].T)
        # repeating the last label extends only the paths that end in blank
        rows = np.flatnonzero(block.last_label >= 0)
        lasts = block.last_label[rows]
        scores[rows, lasts] = _logsumexp_rows(r_b[rows, :-1] + self.frames[:, lasts].T)
        scores[:, self.eos_id] = end_scores(block)
        scores[:, self._banned] = NEG_INF
        return scores

    def child(self, block: PrefixBlock, rows: Sequence[int], labels: Sequence[int]) -> PrefixBlock:
        """The block whose row ``i`` is ``block``'s row ``rows[i]`` extended by ``labels[i]``.

        The recursion ``r_nb[t] = emit[t-1] + lse(phi[t-1], r_nb[t-1])`` and
        ``r_b[t] = blank[t-1] + lse(r_b[t-1], r_nb[t-1])`` is computed in
        closed form, one (S, T) block for the whole batch: with ``E`` the
        cumulative sum of ``emit`` (``E[0] = 0``),
        ``r_nb[1:] = E[1:] + logaddexp.accumulate(phi - E[:-1])``, and the
        same with the cumulative blank column for ``r_b``.  ``phi`` is the
        parent's ``both`` row, gathered, or its ``r_blank`` for a repeated
        label.  The sums drift from the frame-by-frame loop by rounding
        only: at most 1.4e-13 at T=60, 8.0e-13 at T=200 and 6.8e-12 at
        T=1,000 on benchmark emissions.
        """
        labels = np.array(labels, dtype=np.intp)
        if not np.all((labels > 0) & (labels < self.V) & (labels != self.eos_id)):
            raise ValueError(f"invalid extension label in {labels.tolist()}")
        rows = np.array(rows, dtype=np.intp)
        phi = block.both[rows]
        repeat = np.flatnonzero(block.last_label[rows] == labels)
        phi[repeat] = block.r_blank[rows[repeat], :-1]
        cum, bc = self._cum[labels], self._blank_cum
        new_nb, new_b = np.full((2, len(rows), self.T + 1), NEG_INF)
        new_nb[:, 1:] = cum[:, 1:] + np.logaddexp.accumulate(phi - cum[:, :-1], axis=1)
        new_b[:, 1:] = bc[1:] + np.logaddexp.accumulate(new_nb[:, :-1] - bc[:-1], axis=1)
        return PrefixBlock(new_b, new_nb, labels)


# -- synthetic emissions ------------------------------------------------------


def synth_emissions(
    reference: Sequence[int],
    vocab_size: int,
    frames_per_token: tuple[int, int] = (1, 3),
    noise: float = 0.0,
    seed: int = 0,
    blank_frames: tuple[int, int] = (0, 1),
) -> EmissionMatrix:
    """Seeded emissions that peak on a reference token sequence.

    Each token occupies a random number of frames in ``frames_per_token``;
    random blank runs separate tokens (a blank frame is forced between equal
    neighbours so the collapse rule cannot merge them).  Logits are a peak
    of 1/max(noise, 1e-3) on the true token plus Gaussian perturbation of
    scale ``noise``, then softmax-normalized.  Deterministic per seed.
    """
    if not reference:
        raise ValueError("reference must be non-empty")
    lo, hi = frames_per_token
    if not 1 <= lo <= hi:
        raise ValueError(f"invalid frames_per_token range {frames_per_token}")
    blo, bhi = blank_frames
    if not 0 <= blo <= bhi:
        raise ValueError(f"invalid blank_frames range {blank_frames}")
    if noise < 0:
        raise ValueError("noise must be non-negative")
    for token in reference:
        if not 0 < token < vocab_size:
            raise ValueError(f"reference token {token} out of range")

    rng = np.random.default_rng(seed)
    peak = 1.0 / max(noise, 1e-3)
    rows = []

    def emit(target: int, count: int) -> None:
        for _ in range(count):
            logits = noise * rng.standard_normal(vocab_size)
            logits[target] += peak
            m = logits.max()
            rows.append(logits - (m + np.log(np.exp(logits - m).sum())))

    prev: int | None = None
    for token in reference:
        gap = int(rng.integers(blo, bhi + 1))
        if prev == token and gap == 0:
            gap = 1
        if prev is not None and gap:
            emit(BLANK_ID, gap)
        emit(token, int(rng.integers(lo, hi + 1)))
        prev = token
    return EmissionMatrix(np.vstack(rows))


# -- file format ---------------------------------------------------------------


def write_emissions(em: EmissionMatrix, path: str) -> None:
    """Text format: a "T V" header, then one row of log-probabilities per frame."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{em.num_frames} {em.vocab_size}\n")
        for row in em.log_probs:
            fh.write(" ".join(f"{x:.9g}" for x in row) + "\n")


def read_emissions(path: str) -> EmissionMatrix:
    """Read and re-normalize rows; a row off by more than 1e-3 is an error.

    The header's frame count is exact: a missing row, or any non-blank line
    after the last row, is an ``EmissionError``.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            T, V = (int(x) for x in fh.readline().split())
        except ValueError:
            raise EmissionError(f"bad emissions header in {path}") from None
        if T < 1 or V < 2:
            raise EmissionError(f"emissions need T >= 1 frames and V >= 2 tokens, got {T} {V}")
        rows = []
        for t in range(T):
            fields = fh.readline().split()
            if len(fields) != V:
                raise EmissionError(f"frame {t}: expected {V} values, got {len(fields)}")
            try:
                rows.append([float(x) for x in fields])
            except ValueError as exc:
                raise EmissionError(f"frame {t}: {exc}") from None
        if any(line.strip() for line in fh):
            raise EmissionError(f"more rows than the header's {T} frames")
    arr = np.asarray(rows, dtype=np.float64)
    lse = _logsumexp_rows(arr)
    worst = float(np.max(np.abs(lse)))
    if worst > 1e-3:
        raise EmissionError(f"row normalization off by {worst:.3g} (limit 1e-3)")
    return EmissionMatrix(arr - lse[:, None])
