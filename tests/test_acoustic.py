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
    collapse_path,
    end_scores,
    enumerate_collapse_table,
    forward_ctc,
    lse2,
    read_emissions,
    synth_emissions,
    write_emissions,
)

from conftest import (
    EMPTY_PREFIX_PAIR,
    CTCScorePair,
    brute_force_ctc_prefix,
    block_rows,
    closed_form_child,
    ctc_step_extend,
    greedy_labels,
    join_blocks,
    one_row,
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
        score = float(scorer.candidate_scores(scorer.root())[0, eos])
        assert score == pytest.approx(float(em.log_probs[:, BLANK_ID].sum()), abs=1e-9)

    def test_eos_column_is_the_full_ctc_probability(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            em = EmissionMatrix(random_emissions(rng, 5, 5))
            eos = 4
            seq = [int(x) for x in rng.integers(1, 4, size=3)]
            scorer = CtcPrefixScorer(em, eos)
            state = scorer.root()
            for c in seq:
                state = scorer.child(state, [0], [c])
            end = float(scorer.candidate_scores(state)[0, eos])
            assert end == pytest.approx(brute_force_ctc(em, seq), abs=1e-9)

    def test_extension_scores_match_prefix_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(8):
            em = EmissionMatrix(random_emissions(rng, 4, 4))
            eos = 3
            scorer = CtcPrefixScorer(em, eos)
            state = scorer.root()
            prefix = []
            for c in [int(x) for x in rng.integers(1, 3, size=2)]:
                assert scorer.candidate_scores(state)[0, c] == pytest.approx(
                    brute_force_ctc_prefix(em, prefix + [c]), abs=1e-9
                )
                state = scorer.child(state, [0], [c])
                prefix.append(c)

    def test_candidate_scores_subnormalized(self):
        # the extensions and </s> of a prefix split its own probability
        rng = np.random.default_rng(12)
        em = EmissionMatrix(random_emissions(rng, 5, 5))
        scorer = CtcPrefixScorer(em, 4)
        parent = float(scorer.candidate_scores(scorer.root())[0, 1])
        state = scorer.child(scorer.root(), [0], [1])
        scores = scorer.candidate_scores(state)[0]
        finite = scores[np.isfinite(scores)]
        total = float(np.log(np.exp(finite - finite.max()).sum()) + finite.max())
        assert total <= parent + 1e-9

    def test_blank_disallowed(self):
        rng = np.random.default_rng(14)
        em = EmissionMatrix(random_emissions(rng, 3, 4))
        scorer = CtcPrefixScorer(em, 3)
        assert scorer.candidate_scores(scorer.root())[0, BLANK_ID] == NEG_INF
        with pytest.raises(ValueError):
            scorer.child(scorer.root(), [0], [BLANK_ID])


def _equals_oracle(got, want) -> bool:
    """Equal to an enumeration oracle: -inf exactly, anything else within 1e-9."""
    return got == want if want == NEG_INF else abs(got - want) <= 1e-9


class TestScoresArePrefixProbabilities:
    """Every ``candidate_scores`` entry is an absolute log-probability, against enumeration."""

    @pytest.mark.parametrize("frames, vocab", [(1, 4), (2, 4), (3, 5), (4, 4), (5, 5)])
    def test_every_column_at_depths_0_to_3(self, frames, vocab):
        rng = np.random.default_rng(30 + frames)
        em = EmissionMatrix(random_emissions(rng, frames, vocab))
        eos = vocab - 1
        scorer = CtcPrefixScorer(em, eos)
        labels = range(1, eos)
        # every prefix of up to 3 labels: repeats, and dead ones where T is short
        prefixes = [()]
        for depth in range(1, 4):
            prefixes += [p + (c,) for p in prefixes if len(p) == depth - 1 for c in labels]
        states = {(): scorer.root()}
        for prefix in prefixes[1:]:
            states[prefix] = scorer.child(states[prefix[:-1]], [0], [prefix[-1]])
        block = join_blocks([states[p] for p in prefixes])
        got = scorer.candidate_scores(block)
        dead = 0
        for prefix, row in zip(prefixes, got):
            assert row[BLANK_ID] == NEG_INF
            for c in labels:
                assert _equals_oracle(row[c], brute_force_ctc_prefix(em, [*prefix, c]))
            assert _equals_oracle(row[eos], brute_force_ctc(em, prefix))
            dead += bool(np.all(row == NEG_INF))
        # 1, 1, 1 needs 5 frames, so only T=5 reaches every prefix
        assert (dead > 0) == (frames < 5)
        assert np.array_equal(_dead(block), np.all(got == NEG_INF, axis=1))


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


def _dead(block) -> np.ndarray:
    """Which rows are dead prefixes: forward variables all -inf."""
    return np.all(block.r_blank == NEG_INF, axis=1) & np.all(block.r_nonblank == NEG_INF, axis=1)


def _same_neg_inf(a, b) -> bool:
    return np.array_equal(a == NEG_INF, b == NEG_INF)


def _drift(got, want) -> float:
    """Largest |got - want| over the finite entries, relative to max(1, |want|)."""
    got, want = np.atleast_1d(got), np.atleast_1d(want)
    finite = want > NEG_INF
    if not finite.any():
        return 0.0
    return float(np.max(np.abs(got[finite] - want[finite]) / np.maximum(1.0, np.abs(want[finite]))))


def assert_scores_match_reference(scorer, block):
    """Each batched row is bit-equal to that row scored alone, which is within
    1e-9·max(1, |ref|) of the log-space reference with the same -inf entries."""
    got = scorer.candidate_scores(block)
    assert got.shape == (len(block.last_label), scorer.V)
    for i, row in enumerate(got):
        state = block_rows(block, [i])
        alone = scorer.candidate_scores(state)[0]
        assert row.tobytes() == alone.tobytes()
        want = reference_candidate_scores(scorer, state)
        assert not np.isnan(alone).any() and _same_neg_inf(alone, want)
        assert _drift(alone, want) <= 1e-9
    return got


class TestScorerMatchesReference:
    """The closed-form ``child`` and exp-space ``candidate_scores`` against the loops."""

    def test_candidate_scores_bit_equal_at_every_depth(self):
        rng = np.random.default_rng(20)
        dead = 0
        for frames in (1, 2, 3, 5, 9):
            em = EmissionMatrix(random_emissions(rng, frames, 6))
            scorer = CtcPrefixScorer(em, 5, disallowed=(4,))
            for _ in range(4):
                # deeper than T, so the chain reaches -inf prefix probabilities
                chain = [scorer.root()]
                for label in _label_chain(rng, [1, 2, 3], frames + 2):
                    chain.append(scorer.child(chain[-1], [0], [label]))
                # every depth in one batch, each row as scored alone
                assert_scores_match_reference(scorer, join_blocks(chain))
                dead += sum(_dead(state)[0] for state in chain)
        assert dead > 0

    def test_candidate_scores_bit_equal_on_reference_states(self):
        rng = np.random.default_rng(21)
        em = EmissionMatrix(random_emissions(rng, 12, 7))
        scorer = CtcPrefixScorer(em, 6)
        for _ in range(10):
            chain = [scorer.root()]
            for label in _label_chain(rng, [1, 2, 3, 4, 5], 8):
                chain.append(reference_child(scorer, chain[-1], label))
            assert_scores_match_reference(scorer, join_blocks(chain))

    def test_repeat_with_no_blank_ending_path_is_impossible(self):
        # at T=1 the prefix (1,) only ends non-blank, so (1, 1) cannot be reached
        em = EmissionMatrix(random_emissions(np.random.default_rng(22), 1, 4))
        scorer = CtcPrefixScorer(em, 3)
        state = scorer.child(scorer.child(scorer.root(), [0], [1]), [0], [1])
        assert _dead(state)[0]
        got = scorer.candidate_scores(state)[0]
        assert got.tobytes() == reference_candidate_scores(scorer, state).tobytes()
        assert np.all(got == NEG_INF)

    def test_underflowed_product_is_recomputed_in_log_space(self):
        # root, c = 2: both = (0, -800) over the two frames and F[:, 2] =
        # (-900, ~0), so each term of the scaled product underflows to 0
        # while the true score is log(e^-900 + e^-800), about -800
        rows = np.array([[-800.0, 0.0, -900.0, -50.0], [-40.0, -40.0, 0.0, -40.0]])
        rows -= np.logaddexp.reduce(rows, axis=1, keepdims=True)
        scorer = CtcPrefixScorer(EmissionMatrix(rows), 3)
        root = scorer.root()
        beam = join_blocks([root, scorer.child(root, [0], [1]), root])
        got = assert_scores_match_reference(scorer, beam)
        want = reference_candidate_scores(scorer, root)[2]
        assert -801 < want < -799
        assert np.isfinite(got[0, 2]) and _drift(got[0, 2], want) <= 1e-9

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
                # the child's prefix log-probability is its parent's score for it
                score = scorer.candidate_scores(got)[0, label]
                ref = reference_candidate_scores(scorer, want)[label]
                got = scorer.child(got, [0], [label])
                want = reference_child(scorer, want, label)
                for a, b in (
                    (got.r_nonblank, want.r_nonblank),
                    (got.r_blank, want.r_blank),
                    (score, ref),
                ):
                    assert _same_neg_inf(a, b)
                    # rounding grows with the magnitude of the sums, so the
                    # bound is relative above 1 (values reach -7e5 when peaked)
                    assert _drift(a, b) <= 1e-9


def _ragged_beam(rng, scorer, size, max_depth=10):
    """A block of mixed depths, hence mixed start frames, with repeats and one dead row."""
    labels = range(1, scorer.V - 1)
    beam = []
    for _ in range(size):
        state = scorer.root()
        depth = int(rng.integers(0, min(scorer.T + 2, max_depth) + 1))
        for label in _label_chain(rng, labels, depth):
            state = closed_form_child(scorer, state, label)
        beam.append(state)
    dead = np.full(scorer.T + 1, NEG_INF)
    last = int(rng.choice(labels))
    beam.insert(int(rng.integers(0, size + 1)), one_row(dead, dead.copy(), last))
    return join_blocks(beam)


def _next_labels(rng, beam, labels):
    """One label per row; about a third repeat the row's last label."""
    out = []
    for last in beam.last_label.tolist():
        repeat = last >= 0 and rng.random() < 1 / 3
        out.append(last if repeat else int(rng.choice(labels)))
    return out


def _starts(beam) -> set[int]:
    """The first frame each live row's prefix is complete at."""
    out = set()
    for both, dead in zip(beam.both, _dead(beam).tolist()):
        reached = np.flatnonzero(both > NEG_INF)
        if not dead:
            out.add(int(reached[0]) if reached.size else len(both))
    return out


def assert_batch_rows_equal_references(scorer, beam, labels, rows=None):
    """Every batched row equals that row scored alone, bit for bit, and is
    within 1e-9 of the reference; each child of ``beam``'s row ``rows[i]``
    (default: row i) equals the closed form exactly, ``both`` included."""
    assert_scores_match_reference(scorer, beam)
    if rows is None:
        rows = range(len(beam.last_label))
    children = scorer.child(beam, rows, labels)
    assert children.r_blank.shape == (len(labels), scorer.T + 1)
    for i, (row, label) in enumerate(zip(rows, labels)):
        want = closed_form_child(scorer, block_rows(beam, [row]), label)
        assert children.r_nonblank[i].tobytes() == want.r_nonblank[0].tobytes()
        assert children.r_blank[i].tobytes() == want.r_blank[0].tobytes()
        assert children.both[i].tobytes() == want.both[0].tobytes()
        assert children.last_label[i] == label
    return children


class TestBatchedScorer:
    """One call over a beam gives, row by row, what each state gives alone."""

    @pytest.mark.parametrize("frames", [1, 60, 129, 1000])
    def test_ragged_beams_bit_equal(self, frames):
        rng = np.random.default_rng(50 + frames)
        vocab = 8
        em = EmissionMatrix(random_emissions(rng, frames, vocab))
        scorer = CtcPrefixScorer(em, vocab - 1, disallowed=(vocab - 2,))
        labels = range(1, vocab - 2)
        starts = repeats = 0
        for _ in range(4):
            beam = _ragged_beam(rng, scorer, 7)
            for _ in range(3):
                nxt = _next_labels(rng, beam, labels)
                starts = max(starts, len(_starts(beam)))
                repeats += int(np.sum(beam.last_label == nxt))
                beam = assert_batch_rows_equal_references(scorer, beam, nxt)
        assert repeats > 0
        assert starts > (1 if frames == 1 else 3)

    def test_empty_batch(self):
        em = EmissionMatrix(random_emissions(np.random.default_rng(51), 4, 5))
        scorer = CtcPrefixScorer(em, 4)
        root = scorer.root()
        assert scorer.candidate_scores(block_rows(root, [])).shape == (0, 5)
        empty = scorer.child(root, [], [])
        assert empty.r_blank.shape == empty.r_nonblank.shape == (0, 5)
        assert empty.both.shape == (0, 4) and empty.last_label.shape == (0,)

    def test_dead_rows_are_neg_inf(self):
        # at T=1 the prefix (1,) only ends non-blank, so (1, 1) cannot be reached
        em = EmissionMatrix(random_emissions(np.random.default_rng(52), 1, 4))
        scorer = CtcPrefixScorer(em, 3)
        root = scorer.root()
        one = scorer.child(root, [0], [1])
        beam = join_blocks([root, scorer.child(one, [0], [1]), one])
        assert _dead(beam)[1]
        assert_batch_rows_equal_references(scorer, beam, [2, 2, 2])
        got = scorer.candidate_scores(beam)
        assert np.all(got[1] == NEG_INF) and np.any(got[0] > NEG_INF)

    @pytest.mark.parametrize("frames", [1, 5, 60])
    def test_end_scores_equal_the_eos_column(self, frames):
        # the root, live states of several depths and a dead state, bit for bit
        rng = np.random.default_rng(54 + frames)
        scorer = CtcPrefixScorer(EmissionMatrix(random_emissions(rng, frames, 6)), 5, (4,))
        beam = join_blocks([scorer.root(), _ragged_beam(rng, scorer, 6)])
        got = end_scores(beam)
        assert got.tobytes() == scorer.candidate_scores(beam)[:, 5].tobytes()
        dead = _dead(beam)
        assert any(dead) and not all(dead)
        assert np.all(got[dead] == NEG_INF) and got[0] > NEG_INF
        assert end_scores(block_rows(beam, [])).shape == (0,)

    def test_invalid_label_anywhere_in_the_batch(self):
        em = EmissionMatrix(random_emissions(np.random.default_rng(53), 3, 5))
        scorer = CtcPrefixScorer(em, 4)
        root = scorer.root()
        for bad in (BLANK_ID, 4, 5, -1):
            with pytest.raises(ValueError, match="invalid extension label"):
                scorer.child(root, [0, 0], [1, bad])

    @settings(max_examples=150, deadline=None)
    @given(
        frames=st.sampled_from([1, 2, 3, 7, 40, 129, 130]),
        size=st.integers(0, 8),
        seed=st.integers(0, 2**32 - 1),
        scale=st.sampled_from([0.5, 1.0, 4.0, 12.0]),
    )
    def test_random_beams_bit_equal(self, frames, size, seed, scale):
        rng = np.random.default_rng(seed)
        logits = scale * rng.normal(size=(frames, 6))
        rows = logits - np.logaddexp.reduce(logits, axis=1, keepdims=True)
        scorer = CtcPrefixScorer(EmissionMatrix(rows), 5)
        beam = _ragged_beam(rng, scorer, size)
        for _ in range(2):
            labels = _next_labels(rng, beam, [1, 2, 3, 4])
            beam = assert_batch_rows_equal_references(scorer, beam, labels)


class TestBlockBitIdentity:
    """What holding the beam as one block rests on: row-wise sums equal the scalar ones."""

    def test_logaddexp_equals_lse2_bit_for_bit(self):
        # ``end_scores`` and ``both`` use np.logaddexp where the per-state
        # code used lse2; -inf on either side, both -inf and equal arguments
        rng = np.random.default_rng(60)
        n = 20_000
        a = rng.normal(scale=rng.choice([1.0, 30.0, 800.0], size=n), size=n)
        b = a + rng.normal(scale=rng.choice([1e-12, 1.0, 40.0], size=n), size=n)
        equal = rng.random(n) < 0.1
        b[equal] = a[equal]
        a[rng.random(n) < 0.1] = NEG_INF
        b[rng.random(n) < 0.1] = NEG_INF
        got = np.logaddexp(a, b)
        want = np.array([lse2(x, y) for x, y in zip(a.tolist(), b.tolist())])
        assert got.tobytes() == want.tobytes()
        kinds = {
            "a -inf": (a == NEG_INF) & (b > NEG_INF),
            "b -inf": (b == NEG_INF) & (a > NEG_INF),
            "both -inf": (a == NEG_INF) & (b == NEG_INF),
            "equal": (a == b) & (a > NEG_INF),
        }
        assert all(mask.sum() > 100 for mask in kinds.values()), kinds

    @pytest.mark.parametrize("frames", [1, 7, 63, 200])
    def test_block_rows_equal_rows_scored_alone(self, frames):
        # candidate_scores row by row, and child over gathered rows: out of
        # order, repeated, some parents dropped, each as its row alone
        rng = np.random.default_rng(61 + frames)
        scorer = CtcPrefixScorer(EmissionMatrix(random_emissions(rng, frames, 9)), 8, (7,))
        repeats = 0
        for _ in range(3):
            beam = _ragged_beam(rng, scorer, 8)
            for _ in range(3):
                n = len(beam.last_label)
                rows = rng.integers(0, n, size=int(rng.integers(1, 2 * n))).tolist()
                parents = block_rows(beam, rows)
                labels = _next_labels(rng, parents, range(1, 7))
                repeats += int(np.sum(parents.last_label == labels))
                beam = assert_batch_rows_equal_references(scorer, beam, labels, rows)
        assert repeats > 0


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
        for label in labels:
            # the child's prefix log-probability is its parent's score for it
            score = scorer.candidate_scores(got)[0, label]
            ref = reference_candidate_scores(scorer, want)[label]
            got = scorer.child(got, [0], [label])
            want = reference_child(scorer, want, label)
            for a, b in (
                (got.r_nonblank, want.r_nonblank),
                (got.r_blank, want.r_blank),
                (score, ref),
            ):
                assert _same_neg_inf(a, b)
                finite = np.atleast_1d(b) > NEG_INF
                assert np.all(np.abs(np.atleast_1d(a)[finite] - np.atleast_1d(b)[finite]) <= 1e-9)
        end = float(scorer.candidate_scores(got)[0, eos])
        expected = forward_ctc(em, labels)
        if expected == NEG_INF:
            assert end == NEG_INF
        else:
            assert end == pytest.approx(expected, abs=1e-9)


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
