import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beamfuse.acoustic import (
    BLANK_ID,
    NEG_INF,
    CtcPrefixScorer,
    EmissionError,
    EmissionMatrix,
    brute_force_ctc,
    brute_force_ctc_prefix,
    collapse_path,
    enumerate_collapse_table,
    forward_ctc,
    greedy_labels,
    lse2,
    read_emissions,
    synth_emissions,
    write_emissions,
)

from conftest import (
    EMPTY_PREFIX_PAIR,
    CTCScorePair,
    ctc_step_extend,
    random_emissions,
    reference_candidate_scores,
    reference_child,
)


def prefix_dp(em: EmissionMatrix) -> dict[tuple[int, ...], CTCScorePair]:
    """Full dynamic program over all prefixes, built from ctc_step_extend.

    Duplicate prefixes produced by different transitions are merged by
    element-wise log-sum, mirroring the decoder's merge rule.
    """
    pairs = {(): EMPTY_PREFIX_PAIR}
    labels = range(1, em.vocab_size)
    for t in range(em.num_frames):
        frame = em.log_probs[t]
        new: dict[tuple[int, ...], CTCScorePair] = {}

        def add(key, pair):
            old = new.get(key)
            if old is None:
                new[key] = pair
            else:
                new[key] = CTCScorePair(
                    lse2(old.log_blank, pair.log_blank),
                    lse2(old.log_nonblank, pair.log_nonblank),
                )

        for prefix, pair in pairs.items():
            last = prefix[-1] if prefix else None
            add(prefix, ctc_step_extend(pair, frame, last, None))
            for c in labels:
                add(prefix + (c,), ctc_step_extend(pair, frame, last, c))
        pairs = new
    return pairs


class TestStepExtend:
    def test_empty_prefix_single_frame_stay(self):
        em = EmissionMatrix(random_emissions(np.random.default_rng(0), 1, 4))
        pair = ctc_step_extend(EMPTY_PREFIX_PAIR, em.log_probs[0], None, None)
        assert pair.log_blank == em.log_probs[0][BLANK_ID]
        assert pair.log_nonblank == NEG_INF

    def test_two_frame_hand_enumeration(self):
        rng = np.random.default_rng(1)
        em = EmissionMatrix(random_emissions(rng, 2, 3))
        rows = em.log_probs
        a = 1
        pairs = prefix_dp(em)
        # paths collapsing to [a]: a·blank, a·a, blank·a
        expected = lse2(
            lse2(rows[0][a] + rows[1][BLANK_ID], rows[0][a] + rows[1][a]),
            rows[0][BLANK_ID] + rows[1][a],
        )
        assert pairs[(a,)].total() == pytest.approx(expected, abs=1e-12)

    def test_dp_matches_enumeration_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            T = int(rng.integers(2, 6))
            V = int(rng.integers(2, 5))
            em = EmissionMatrix(random_emissions(rng, T, V))
            pairs = prefix_dp(em)
            table = enumerate_collapse_table(em)
            for prefix, pair in pairs.items():
                assert pair.total() == pytest.approx(
                    table.get(prefix, NEG_INF), abs=1e-9
                )

    def test_invalid_label_rejected(self):
        em = EmissionMatrix(random_emissions(np.random.default_rng(3), 1, 4))
        with pytest.raises(ValueError):
            ctc_step_extend(EMPTY_PREFIX_PAIR, em.log_probs[0], None, BLANK_ID)
        with pytest.raises(ValueError):
            ctc_step_extend(EMPTY_PREFIX_PAIR, em.log_probs[0], None, 9)


class TestOracles:
    def test_empty_labels_is_all_blank_path(self):
        rng = np.random.default_rng(4)
        em = EmissionMatrix(random_emissions(rng, 4, 3))
        expected = float(em.log_probs[:, BLANK_ID].sum())
        assert brute_force_ctc(em, []) == pytest.approx(expected, abs=1e-9)
        assert forward_ctc(em, []) == pytest.approx(expected, abs=1e-9)

    def test_single_frame_single_label(self):
        rng = np.random.default_rng(5)
        em = EmissionMatrix(random_emissions(rng, 1, 3))
        assert brute_force_ctc(em, [2]) == pytest.approx(em.log_probs[0][2], abs=1e-12)

    def test_enumeration_vs_forward(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            em = EmissionMatrix(random_emissions(rng, 4, 4))
            labels = [int(x) for x in rng.integers(1, 4, size=int(rng.integers(0, 4)))]
            assert forward_ctc(em, labels) == pytest.approx(
                brute_force_ctc(em, labels), abs=1e-9
            )

    def test_prefix_oracle_counts_extensions(self):
        rng = np.random.default_rng(7)
        em = EmissionMatrix(random_emissions(rng, 3, 3))
        table = enumerate_collapse_table(em)
        want = sum(math.exp(lp) for key, lp in table.items() if key[:1] == (1,))
        assert brute_force_ctc_prefix(em, [1]) == pytest.approx(math.log(want), abs=1e-9)

    def test_too_large_rejected(self):
        em = EmissionMatrix(random_emissions(np.random.default_rng(8), 13, 3))
        with pytest.raises(ValueError, match="too large"):
            brute_force_ctc(em, [1])

    def test_collapse_rule(self):
        assert collapse_path([0, 1, 1, 0, 1, 2, 2]) == (1, 1, 2)


class TestLabelSyncScorer:
    def test_eos_from_empty_prefix(self):
        rng = np.random.default_rng(9)
        em = EmissionMatrix(random_emissions(rng, 5, 4))
        eos = 3
        scorer = CtcPrefixScorer(em, eos)
        score = float(scorer.candidate_scores(scorer.root())[eos])
        assert score == pytest.approx(float(em.log_probs[:, BLANK_ID].sum()), abs=1e-9)

    def test_telescoping_to_full_ctc_probability(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            em = EmissionMatrix(random_emissions(rng, 5, 5))
            eos = 4
            seq = [int(x) for x in rng.integers(1, 4, size=3)]
            scorer = CtcPrefixScorer(em, eos)
            state = scorer.root()
            total = 0.0
            for c in seq:
                total += float(scorer.candidate_scores(state)[c])
                state = scorer.child(state, c)
            total += float(scorer.candidate_scores(state)[eos])
            assert total == pytest.approx(brute_force_ctc(em, seq), abs=1e-9)

    def test_prefix_probability_matches_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(8):
            em = EmissionMatrix(random_emissions(rng, 4, 4))
            eos = 3
            scorer = CtcPrefixScorer(em, eos)
            state = scorer.root()
            prefix = []
            for c in [int(x) for x in rng.integers(1, 3, size=2)]:
                state = scorer.child(state, c)
                prefix.append(c)
                assert state.prefix_logprob == pytest.approx(
                    brute_force_ctc_prefix(em, prefix), abs=1e-9
                )

    def test_candidate_scores_subnormalized(self):
        rng = np.random.default_rng(12)
        em = EmissionMatrix(random_emissions(rng, 5, 5))
        scorer = CtcPrefixScorer(em, 4)
        state = scorer.child(scorer.root(), 1)
        scores = scorer.candidate_scores(state)
        finite = scores[np.isfinite(scores)]
        total = float(np.log(np.exp(finite - finite.max()).sum()) + finite.max())
        assert total <= 1e-9

    def test_blank_disallowed(self):
        rng = np.random.default_rng(14)
        em = EmissionMatrix(random_emissions(rng, 3, 4))
        scorer = CtcPrefixScorer(em, 3)
        assert scorer.candidate_scores(scorer.root())[BLANK_ID] == NEG_INF
        with pytest.raises(ValueError):
            scorer.child(scorer.root(), BLANK_ID)


def _peaked_emissions(rng, frames, vocab, peak=700.0):
    """Normalized rows with one token per frame ahead by ``peak``: the rest near -peak."""
    logits = rng.normal(size=(frames, vocab))
    logits[np.arange(frames), rng.integers(0, vocab, size=frames)] += peak
    m = logits.max(axis=1, keepdims=True)
    return logits - (m + np.log(np.exp(logits - m).sum(axis=1, keepdims=True)))


def _label_chain(rng, labels, depth):
    """``depth`` labels drawn from ``labels``; every third one repeats its predecessor."""
    out = []
    for i in range(depth):
        out.append(out[-1] if out and i % 3 == 2 else int(rng.choice(labels)))
    return out


def _same_neg_inf(a, b) -> bool:
    return np.array_equal(a == NEG_INF, b == NEG_INF)


def _drift(got, want) -> float:
    """Largest |got - want| over the finite entries, relative to max(1, |want|)."""
    got, want = np.atleast_1d(got), np.atleast_1d(want)
    finite = want > NEG_INF
    if not finite.any():
        return 0.0
    return float(np.max(np.abs(got[finite] - want[finite]) / np.maximum(1.0, np.abs(want[finite]))))


class TestScorerMatchesReference:
    """The closed-form ``child`` and trimmed ``candidate_scores`` against the loops."""

    def test_candidate_scores_bit_equal_at_every_depth(self):
        rng = np.random.default_rng(20)
        dead = 0
        for frames in (1, 2, 3, 5, 9):
            em = EmissionMatrix(random_emissions(rng, frames, 6))
            scorer = CtcPrefixScorer(em, 5, disallowed=(4,))
            for _ in range(4):
                # deeper than T, so the chain reaches -inf prefix probabilities
                state = scorer.root()
                for label in [None] + _label_chain(rng, [1, 2, 3], frames + 2):
                    if label is not None:
                        state = scorer.child(state, label)
                    got = scorer.candidate_scores(state)
                    want = reference_candidate_scores(scorer, state)
                    assert got.tobytes() == want.tobytes()
                    dead += state.prefix_logprob == NEG_INF
        assert dead > 0

    def test_candidate_scores_bit_equal_on_reference_states(self):
        rng = np.random.default_rng(21)
        em = EmissionMatrix(random_emissions(rng, 12, 7))
        scorer = CtcPrefixScorer(em, 6)
        for _ in range(10):
            state = scorer.root()
            for label in _label_chain(rng, [1, 2, 3, 4, 5], 8):
                state = reference_child(scorer, state, label)
                got = scorer.candidate_scores(state)
                assert got.tobytes() == reference_candidate_scores(scorer, state).tobytes()

    def test_repeat_with_no_blank_ending_path_is_impossible(self):
        # at T=1 the prefix (1,) only ends non-blank, so (1, 1) cannot be reached
        em = EmissionMatrix(random_emissions(np.random.default_rng(22), 1, 4))
        scorer = CtcPrefixScorer(em, 3)
        state = scorer.child(scorer.child(scorer.root(), 1), 1)
        assert state.prefix_logprob == NEG_INF
        got = scorer.candidate_scores(state)
        assert got.tobytes() == reference_candidate_scores(scorer, state).tobytes()
        assert np.all(got == NEG_INF)

    @pytest.mark.parametrize("frames", [1, 2, 60, 200, 1000])
    @pytest.mark.parametrize("peaked", [False, True], ids=["random", "peaked"])
    def test_child_agrees_with_loop(self, frames, peaked):
        rng = np.random.default_rng(23 + frames)
        vocab = 8
        rows = _peaked_emissions(rng, frames, vocab) if peaked else random_emissions(
            rng, frames, vocab
        )
        if peaked:
            assert rows.min() < -690
        scorer = CtcPrefixScorer(EmissionMatrix(rows), vocab - 1)
        for _ in range(3):
            got = want = scorer.root()
            for label in _label_chain(rng, range(1, vocab - 1), min(frames + 1, 12)):
                got = scorer.child(got, label)
                want = reference_child(scorer, want, label)
                for a, b in (
                    (got.r_nonblank, want.r_nonblank),
                    (got.r_blank, want.r_blank),
                    (got.prefix_logprob, want.prefix_logprob),
                ):
                    assert _same_neg_inf(a, b)
                    # rounding grows with the magnitude of the sums, so the
                    # bound is relative above 1 (values reach -7e5 when peaked)
                    assert _drift(a, b) <= 1e-9


@st.composite
def _chains(draw):
    frames = draw(st.integers(1, 40))
    vocab = draw(st.integers(3, 6))
    seed = draw(st.integers(0, 2**32 - 1))
    scale = draw(st.sampled_from([0.5, 1.0, 4.0, 12.0]))
    logits = scale * np.random.default_rng(seed).normal(size=(frames, vocab))
    m = logits.max(axis=1, keepdims=True)
    rows = logits - (m + np.log(np.exp(logits - m).sum(axis=1, keepdims=True)))
    # ids 1 .. vocab-2 are labels, vocab-1 is </s>; few labels force repeats
    labels = draw(st.lists(st.integers(1, vocab - 2), max_size=min(frames + 1, 8)))
    return EmissionMatrix(rows), labels


class TestScorerProperty:
    @settings(max_examples=200, deadline=None)
    @given(_chains())
    def test_closed_form_chain_matches_loop_and_forward(self, case):
        em, labels = case
        eos = em.vocab_size - 1
        scorer = CtcPrefixScorer(em, eos)
        got = want = scorer.root()
        total = 0.0
        for label in labels:
            total += float(scorer.candidate_scores(got)[label])
            got = scorer.child(got, label)
            want = reference_child(scorer, want, label)
            for a, b in (
                (got.r_nonblank, want.r_nonblank),
                (got.r_blank, want.r_blank),
                (got.prefix_logprob, want.prefix_logprob),
            ):
                assert _same_neg_inf(a, b)
                finite = np.atleast_1d(b) > NEG_INF
                assert np.all(np.abs(np.atleast_1d(a)[finite] - np.atleast_1d(b)[finite]) <= 1e-9)
        total += float(scorer.candidate_scores(got)[eos])
        expected = forward_ctc(em, labels)
        if expected == NEG_INF:
            assert total == NEG_INF
        else:
            assert total == pytest.approx(expected, abs=1e-9)


class TestSynthEmissions:
    def test_clean_greedy_recovers_reference(self):
        ref = [5, 9, 4, 11, 6]
        em = synth_emissions(ref, 16, (1, 1), noise=0.0, seed=1, blank_frames=(0, 0))
        assert greedy_labels(em) == tuple(ref)
        assert em.num_frames == len(ref)

    def test_repeated_tokens_get_blank_separation(self):
        ref = [5, 5, 5]
        em = synth_emissions(ref, 8, (1, 1), noise=0.0, seed=2, blank_frames=(0, 0))
        assert greedy_labels(em) == tuple(ref)

    def test_seed_determinism(self):
        a = synth_emissions([4, 5], 8, (1, 3), noise=0.4, seed=7)
        b = synth_emissions([4, 5], 8, (1, 3), noise=0.4, seed=7)
        c = synth_emissions([4, 5], 8, (1, 3), noise=0.4, seed=8)
        assert np.array_equal(a.log_probs, b.log_probs)
        assert not np.array_equal(a.log_probs, c.log_probs)

    def test_rows_normalized(self):
        em = synth_emissions([4, 5, 6], 8, (2, 4), noise=1.0, seed=3)
        sums = np.exp(em.log_probs).sum(axis=1)
        assert np.allclose(sums, 1.0, atol=1e-9)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            synth_emissions([], 8, (1, 2), seed=0)
        with pytest.raises(ValueError):
            synth_emissions([4], 8, (3, 2), seed=0)
        with pytest.raises(ValueError):
            synth_emissions([4], 8, (1, 2), noise=-0.1, seed=0)
        with pytest.raises(ValueError):
            synth_emissions([0], 8, (1, 2), seed=0)
        with pytest.raises(ValueError):
            synth_emissions([9], 8, (1, 2), seed=0)


class TestEmissionIO:
    def test_round_trip(self, tmp_path):
        em = synth_emissions([4, 5, 6], 8, (1, 2), noise=0.7, seed=5)
        path = tmp_path / "utt.em"
        write_emissions(em, str(path))
        loaded = read_emissions(str(path))
        assert loaded.log_probs.shape == em.log_probs.shape
        assert np.max(np.abs(loaded.log_probs - em.log_probs)) < 1e-6

    def test_rows_renormalized_on_load(self, tmp_path):
        em = synth_emissions([4, 5], 8, (1, 1), noise=0.5, seed=6)
        path = tmp_path / "utt.em"
        with open(path, "w") as fh:
            fh.write(f"{em.num_frames} {em.vocab_size}\n")
            for row in em.log_probs:
                fh.write(" ".join(f"{x + 5e-4:.9g}" for x in row) + "\n")
        loaded = read_emissions(str(path))
        sums = np.exp(loaded.log_probs).sum(axis=1)
        assert np.allclose(sums, 1.0, atol=1e-9)

    def test_corrupt_row_rejected(self, tmp_path):
        em = synth_emissions([4, 5], 8, (1, 1), noise=0.5, seed=6)
        path = tmp_path / "utt.em"
        with open(path, "w") as fh:
            fh.write(f"{em.num_frames} {em.vocab_size}\n")
            for row in em.log_probs:
                fh.write(" ".join(f"{x * 2:.9g}" for x in row) + "\n")
        with pytest.raises(EmissionError, match="normalization"):
            read_emissions(str(path))

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.em"
        path.write_text("nonsense\n")
        with pytest.raises(EmissionError):
            read_emissions(str(path))

    def test_unnormalized_matrix_rejected(self):
        with pytest.raises(EmissionError):
            EmissionMatrix(np.zeros((2, 4)))
        with pytest.raises(EmissionError):
            EmissionMatrix(np.full((2, 4), np.nan))
