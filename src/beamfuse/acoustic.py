"""Emission matrices, the label-synchronous CTC prefix scorer, and exact oracles.

All scores are natural-log probabilities.  Impossible events are IEEE -inf;
the two-way log-sum is guarded so -inf never produces a NaN.  Blank is id 0
everywhere.

Two independent oracles back the CTC prefix recursion (frame by frame in
``decoder.extend_frame``) on small instances: exhaustive path enumeration
and the classic interleaved-blank forward algorithm.  The
label-synchronous scorer turns the same recursion into next-token scores by
tracking, per prefix, the probability that the full utterance's labelling
starts with that prefix.  It computes a child prefix's forward variables
over all frames at once, in closed form with log-space cumulative sums
rather than a loop over frames.  The two differ by rounding only: 1.4e-13
at T=60, 8.0e-13 at T=200 and 6.8e-12 at T=1,000 on benchmark emissions.
With emissions down to -700 the sums reach -5e5 at T=1,000 and differ by
up to 1.3e-9 (2.3e-15 relative); the loop is as far from the exact value
there.

The scorer works on a whole beam per call, one row per state, and each
row is bit-identical to its state scored alone (see ``CtcPrefixScorer``).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

BLANK_ID = 0
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
    m = arr.max(axis=1, keepdims=True)
    return (m + np.log(np.exp(arr - m).sum(axis=1, keepdims=True))).ravel()


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
        prev = -1
        key = []
        for t, s in enumerate(path):
            logp += rows[t][s]
            if s != prev and s != BLANK_ID:
                key.append(s)
            prev = s
        tkey = tuple(key)
        old = table.get(tkey)
        table[tkey] = logp if old is None else lse2(old, logp)
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


@dataclass
class PrefixState:
    """Per-prefix forward variables for label-synchronous scoring.

    ``r_nonblank[t]`` / ``r_blank[t]`` hold the probability that the first t
    frames collapse to exactly this prefix, ending non-blank / blank.
    ``prefix_logprob`` is the probability that the whole utterance's
    labelling starts with this prefix.
    """

    r_nonblank: np.ndarray
    r_blank: np.ndarray
    prefix_logprob: float
    last_label: int | None


def end_scores(states: Sequence[PrefixState]) -> np.ndarray:
    """Each state's ``</s>`` score: the exact-labelling log-probability minus ``prefix_logprob``.

    The ``</s>`` column of ``CtcPrefixScorer.candidate_scores``, bit for
    bit, read from the states alone; a dead state (``prefix_logprob``
    -inf) scores -inf.
    """
    ends = np.array([lse2(float(s.r_nonblank[-1]), float(s.r_blank[-1])) for s in states])
    prefix = np.array([s.prefix_logprob for s in states])
    with np.errstate(invalid="ignore"):
        scores = ends - prefix
    scores[prefix == NEG_INF] = NEG_INF
    return scores


class CtcPrefixScorer:
    """Next-token log-scores over the vocabulary from CTC emissions, a batch at a time.

    The score of extending a prefix g with c is
    log pp(g·c) - log pp(g), where pp is the starts-with probability; the
    end-of-sequence score closes the telescope with the exact-labelling
    probability, so the per-step scores of a finished hypothesis sum to its
    total CTC log-probability.

    Both methods take a batch of states and return one row per state, so a
    label step makes one call of each whatever the beam size.  A row holds
    -inf on frames its prefix cannot reach yet, which ``exp`` turns into
    exact zeros, and each sum over frames runs along the row's contiguous
    frames or adds frames in order, as for one state; so every row is
    bit-identical to its state scored alone.
    """

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

    def root(self) -> PrefixState:
        r_nb = np.full(self.T + 1, NEG_INF)
        return PrefixState(r_nb, self._blank_cum.copy(), 0.0, None)

    def _stack(self, states: Sequence[PrefixState]) -> tuple[np.ndarray, np.ndarray]:
        """The states' blank and non-blank forward variables as two (S, T + 1) blocks."""
        shape = (len(states), self.T + 1)
        r_b = np.array([s.r_blank for s in states]).reshape(shape)
        return r_b, np.array([s.r_nonblank for s in states]).reshape(shape)

    def candidate_scores(self, states: Sequence[PrefixState]) -> np.ndarray:
        """One (len(states), V) block of next-token scores; disallowed ids are -inf.

        Frames before the first one any path of the batch can reach
        contribute exact zeros to every sum, so they are skipped; a row that
        starts later holds -inf on the frames before its own start.  A dead
        state (``prefix_logprob`` -inf) gets a row of -inf.
        """
        r_b, r_nb = self._stack(states)
        prefix = np.array([s.prefix_logprob for s in states])
        both = np.logaddexp(r_b[:, :-1], r_nb[:, :-1])
        reached = np.flatnonzero((both > NEG_INF).any(axis=0))
        start = reached[0] if reached.size else self.T
        # a new label at frame t follows any path of the prefix, or only a
        # blank-ending one when it repeats the last label
        acc = both[:, start:, None] + self.frames[start:]
        rows = [r for r, s in enumerate(states) if s.last_label is not None]
        lasts = [states[r].last_label for r in rows]
        acc[rows, :, lasts] = r_b[rows, start:-1] + self.frames[start:, lasts].T
        m = acc.max(axis=1, initial=NEG_INF)
        safe_m = np.where(np.isfinite(m), m, 0.0)
        acc -= safe_m[:, None]
        with np.errstate(divide="ignore", invalid="ignore"):
            pp_new = safe_m + np.log(np.exp(acc, out=acc).sum(axis=1))
            pp_new[~np.isfinite(m)] = NEG_INF
            scores = pp_new - prefix[:, None]
        scores[:, self.eos_id] = end_scores(states)
        scores[:, self._banned] = NEG_INF
        scores[prefix == NEG_INF] = NEG_INF
        return scores

    def child(self, states: Sequence[PrefixState], labels: Sequence[int]) -> list[PrefixState]:
        """Forward variables for each prefix ``states[i]`` extended by ``labels[i]``.

        The recursion ``r_nb[t] = emit[t-1] + lse(phi[t-1], r_nb[t-1])`` and
        ``r_b[t] = blank[t-1] + lse(r_b[t-1], r_nb[t-1])`` is computed in
        closed form, one (S, T) block for the whole batch: with ``E`` the
        cumulative sum of ``emit`` (``E[0] = 0``),
        ``r_nb[1:] = E[1:] + logaddexp.accumulate(phi - E[:-1])``, and the
        same with the cumulative blank column for ``r_b``.  The sums drift
        from the frame-by-frame loop by rounding only: at most 1.4e-13 at
        T=60, 8.0e-13 at T=200 and 6.8e-12 at T=1,000 on benchmark
        emissions.
        """
        labels = list(labels)
        if not all(0 < c < self.V and c != self.eos_id for c in labels):
            raise ValueError(f"invalid extension label in {labels}")
        r_b, r_nb = self._stack(states)
        repeat = np.array([s.last_label == c for s, c in zip(states, labels)], dtype=bool)
        phi = np.where(repeat[:, None], r_b[:, :-1], np.logaddexp(r_b[:, :-1], r_nb[:, :-1]))
        cum, bc = self._cum[labels], self._blank_cum
        new_nb, new_b = np.full((2, *r_b.shape), NEG_INF)
        new_nb[:, 1:] = cum[:, 1:] + np.logaddexp.accumulate(phi - cum[:, :-1], axis=1)
        new_b[:, 1:] = bc[1:] + np.logaddexp.accumulate(new_nb[:, :-1] - bc[:-1], axis=1)
        acc = phi + self.frames.T[labels]
        m = acc.max(axis=1)
        with np.errstate(invalid="ignore"):
            sums = np.exp(acc - m[:, None]).sum(axis=1).tolist()
        # math.log per row, as np.log can differ from it in the last bit
        pp = [a + math.log(b) if a > NEG_INF else NEG_INF for a, b in zip(m.tolist(), sums)]
        return [PrefixState(*row) for row in zip(new_nb, new_b, pp, labels)]


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
