"""Emission matrices, the CTC prefix-score recursion, and exact oracles.

All scores are natural-log probabilities.  Impossible events are IEEE -inf;
the two-way log-sum is guarded so -inf never produces a NaN.  Blank is id 0
everywhere.

Two independent oracles back the recursion on small instances: exhaustive
path enumeration and the classic interleaved-blank forward algorithm.  The
label-synchronous scorer turns the same recursion into next-token scores by
tracking, per prefix, the probability that the full utterance's labelling
starts with that prefix.
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


@dataclass(frozen=True)
class CTCScorePair:
    """Path probabilities for one prefix, split by blank / non-blank ending."""

    log_blank: float
    log_nonblank: float

    def total(self) -> float:
        return lse2(self.log_blank, self.log_nonblank)


EMPTY_PREFIX_PAIR = CTCScorePair(0.0, NEG_INF)


def ctc_step_extend(
    pair: CTCScorePair,
    frame: Sequence[float],
    last_label: int | None,
    new_label: int | None,
) -> CTCScorePair:
    """One frame of the prefix recursion.

    ``new_label=None`` is the stay case: the prefix absorbs a blank or a
    repeat of its last label.  Otherwise the prefix is extended by
    ``new_label``; extending by the same label again is only possible from
    blank-ending paths.
    """
    if new_label is None:
        log_blank = pair.total() + frame[BLANK_ID]
        if last_label is None:
            log_nonblank = NEG_INF
        else:
            log_nonblank = pair.log_nonblank + frame[last_label]
        return CTCScorePair(log_blank, log_nonblank)
    if not 0 < new_label < len(frame):
        raise ValueError(f"invalid label id {new_label}")
    if new_label == last_label:
        log_nonblank = pair.log_blank + frame[new_label]
    else:
        log_nonblank = pair.total() + frame[new_label]
    return CTCScorePair(NEG_INF, log_nonblank)


# -- exact oracles (exponential; small instances only) -----------------------

_MAX_ORACLE_FRAMES = 12
_MAX_ORACLE_VOCAB = 8


def _check_oracle_size(em: EmissionMatrix) -> None:
    if em.num_frames > _MAX_ORACLE_FRAMES or em.vocab_size > _MAX_ORACLE_VOCAB:
        raise ValueError(
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


def brute_force_ctc_prefix(em: EmissionMatrix, prefix: Sequence[int]) -> float:
    """log P(paths collapsing to any labelling that starts with ``prefix``)."""
    table = enumerate_collapse_table(em)
    want = tuple(prefix)
    acc = NEG_INF
    for key, logp in table.items():
        if key[: len(want)] == want:
            acc = lse2(acc, logp)
    return acc


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


class CtcPrefixScorer:
    """Next-token log-scores over the vocabulary from CTC emissions.

    The score of extending a prefix g with c is
    log pp(g·c) - log pp(g), where pp is the starts-with probability; the
    end-of-sequence score closes the telescope with the exact-labelling
    probability, so the per-step scores of a finished hypothesis sum to its
    total CTC log-probability.
    """

    def __init__(self, em: EmissionMatrix, eos_id: int, disallowed: Sequence[int] = ()):
        self.em = em
        self.eos_id = eos_id
        self.frames = em.log_probs
        self.T = em.num_frames
        self.V = em.vocab_size
        banned = set(disallowed) | {BLANK_ID}
        banned.discard(eos_id)
        self._banned = sorted(banned)

    def root(self) -> PrefixState:
        r_nb = np.full(self.T + 1, NEG_INF)
        r_b = np.empty(self.T + 1)
        r_b[0] = 0.0
        r_b[1:] = np.cumsum(self.frames[:, BLANK_ID])
        return PrefixState(r_nb, r_b, 0.0, None)

    def _phi(self, state: PrefixState) -> np.ndarray:
        """(T, V) matrix of paths able to accept a new label at each frame."""
        both = np.logaddexp(state.r_blank[:-1], state.r_nonblank[:-1])
        phi = np.broadcast_to(both[:, None], (self.T, self.V)).copy()
        if state.last_label is not None:
            phi[:, state.last_label] = state.r_blank[:-1]
        return phi

    def candidate_scores(self, state: PrefixState) -> np.ndarray:
        """Vector of next-token scores; disallowed ids are -inf."""
        if state.prefix_logprob == NEG_INF:
            return np.full(self.V, NEG_INF)
        phi = self._phi(state)
        acc = phi + self.frames
        m = acc.max(axis=0)
        safe_m = np.where(np.isfinite(m), m, 0.0)
        with np.errstate(divide="ignore"):
            pp_new = safe_m + np.log(np.exp(acc - safe_m).sum(axis=0))
        pp_new[~np.isfinite(m)] = NEG_INF
        scores = pp_new - state.prefix_logprob
        scores[self.eos_id] = (
            lse2(float(state.r_nonblank[self.T]), float(state.r_blank[self.T]))
            - state.prefix_logprob
        )
        scores[self._banned] = NEG_INF
        return scores

    def child(self, state: PrefixState, label: int) -> PrefixState:
        """Forward variables for the prefix extended by ``label``."""
        if not 0 < label < self.V or label == self.eos_id:
            raise ValueError(f"invalid extension label {label}")
        if label == state.last_label:
            phi = state.r_blank[:-1]
        else:
            phi = np.logaddexp(state.r_blank[:-1], state.r_nonblank[:-1])
        emit = self.frames[:, label]
        r_nb = np.full(self.T + 1, NEG_INF)
        r_b = np.full(self.T + 1, NEG_INF)
        for t in range(1, self.T + 1):
            r_nb[t] = emit[t - 1] + lse2(float(phi[t - 1]), float(r_nb[t - 1]))
            r_b[t] = self.frames[t - 1, BLANK_ID] + lse2(float(r_b[t - 1]), float(r_nb[t - 1]))
        acc = phi + emit
        m = float(acc.max())
        pp = m + math.log(np.exp(acc - m).sum()) if m > NEG_INF else NEG_INF
        return PrefixState(r_nb, r_b, pp, label)


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


def greedy_labels(em: EmissionMatrix) -> tuple[int, ...]:
    """Collapse of the per-frame argmax."""
    return collapse_path(np.argmax(em.log_probs, axis=1).tolist())


# -- file format ---------------------------------------------------------------


def write_emissions(em: EmissionMatrix, path: str) -> None:
    """Text format: a "T V" header, then one row of log-probabilities per frame."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{em.num_frames} {em.vocab_size}\n")
        for row in em.log_probs:
            fh.write(" ".join(f"{x:.9g}" for x in row) + "\n")


def read_emissions(path: str) -> EmissionMatrix:
    """Read and re-normalize rows; a row off by more than 1e-3 is an error."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().split()
        if len(header) != 2:
            raise EmissionError(f"bad emissions header in {path}")
        T, V = int(header[0]), int(header[1])
        rows = []
        for t in range(T):
            fields = fh.readline().split()
            if len(fields) != V:
                raise EmissionError(f"frame {t}: expected {V} values, got {len(fields)}")
            rows.append([float(x) for x in fields])
    arr = np.asarray(rows, dtype=np.float64)
    if arr.shape != (T, V):
        raise EmissionError(f"expected {T} frames, got {arr.shape[0]}")
    lse = _logsumexp_rows(arr)
    worst = float(np.max(np.abs(lse)))
    if worst > 1e-3:
        raise EmissionError(f"row normalization off by {worst:.3g} (limit 1e-3)")
    return EmissionMatrix(arr - lse[:, None])
