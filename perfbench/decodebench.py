"""Closed-loop decode benchmark: workloads, timing, correctness checks.

One process, one thread: utterances are decoded back to back, each one
only after the previous decode returned.

Corpus, vocabularies and LMs come from ``beamfuse.harness.prepare_bench``
with the ``run_bench`` defaults at the fixed corpus seed 7.  The
benchmark's seed draws the utterances: which eval-split sentences, and
their emissions.  Sentences are drawn one per token-length quantile bin,
so that every seed decodes the same length profile: shallow-fusion cost
per frame grows with hypothesis length, and a plain random draw moved it
by more than a bound could absorb.  The decoder only ever sees the
generated emissions.
"""

from __future__ import annotations

import gc
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, replace

import numpy as np

import beamfuse
import beamfuse.decoder as decoder_mod
from beamfuse.acoustic import CtcPrefixScorer, forward_ctc
from beamfuse.decoder import DecodeConfig, FusionPolicy, LMSpec
from beamfuse.harness import BenchConfig, prepare_bench, synth_dataset, wer
from beamfuse.tokenization import BOS_ID, EOS_ID, UNK_ID

from layertrace import TracedPrefixScorer, Tracer

CORPUS_SEED = 7
NOISE = 0.47
FRAMES_PER_TOKEN = (1, 2)
LM_WEIGHT = 0.5
SETUP_REPEATS = 5
TOLERANCE = 1e-9
TAIL_BEYOND = 10
# Median time of one ``probe()`` on the host the baseline was recorded on
# (2-core x86-64 container, CPython 3.11); reported times are rescaled to it.
PROBE_REFERENCE_S = 0.0035
# Probe time spent after each timed section, as a share of that section.
PROBE_SHARE = 0.05


@dataclass(frozen=True)
class Workload:
    mode: str
    policy: str
    beam: int
    matched_lm: bool
    # Utterances per pass, sized so one untraced pass takes at most about
    # 30 s at the parent commit.
    pool: int


# Why each workload exists is recorded in BENCHMARK.json and NOTES.md.
WORKLOADS = {
    "ctc_shortest": Workload("ctc", "shortest", 20, False, 49),
    "ctc_shallow": Workload("ctc", "shallow", 10, True, 28),
    "labelsync_shortest": Workload("labelsync", "shortest", 10, False, 63),
}


@dataclass
class Inputs:
    assets: object
    config: DecodeConfig
    setup_s: list[float]
    setup_wall_s: list[float]


def prepare(workload: Workload, seed: int, utterances: int | None = None) -> Inputs:
    """Build corpus, tokenizers, LMs and utterances; time it several times."""
    cfg = BenchConfig(
        seed=CORPUS_SEED,
        utterances=1,
        noise=NOISE,
        frames_per_token=FRAMES_PER_TOKEN,
        mode=workload.mode,
    )
    rescale = Rescaler()
    wall, scaled = [], []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        assets = prepare_bench(cfg)
        assets.utts = length_balanced_utterances(assets, utterances or workload.pool, seed)
        wall.append(time.perf_counter() - started)
        scaled.append(rescale(wall[-1]))
    return Inputs(assets, decode_config(workload, assets), scaled, wall)


def length_balanced_utterances(assets, count: int, seed: int) -> list:
    """``count`` eval utterances with the same token-length profile for every seed.

    Eval sentences are ordered by their ASR token count and cut into
    ``count`` equal bins; the seed draws one sentence per bin and its
    emissions.
    """
    ranked = sorted(assets.eval_lines, key=lambda line: (len(assets.asr_tok.encode(line)), line))
    utts = []
    for j in range(count):
        bin_lines = ranked[j * len(ranked) // count : (j + 1) * len(ranked) // count]
        (utt,) = synth_dataset(bin_lines, assets.asr_tok, 1, NOISE, FRAMES_PER_TOKEN,
                               seed=seed * 1000 + j)
        utts.append(replace(utt, utt_id=f"bin{j:02d}"))
    return utts


def decode_config(workload: Workload, assets, scorer_proxy=None) -> DecodeConfig:
    """The ``run_cell`` configuration for this workload's policy."""
    if workload.matched_lm:
        scorer, tokenizer = assets.asr_scorer, assets.asr_tok
    else:
        scorer, tokenizer = assets.scorer, assets.lm_tok
    if scorer_proxy is not None:
        scorer = scorer_proxy(scorer)
    return DecodeConfig(
        beam=workload.beam,
        policy=FusionPolicy(workload.policy),
        lms=[LMSpec(scorer, tokenizer, LM_WEIGHT)],
        mode=workload.mode,
    )


# -- correctness ---------------------------------------------------------------


def fingerprint(result) -> tuple:
    """Everything a repeated decode of the same input must reproduce exactly."""
    best, c = result.best, result.counters
    return (
        best.tokens,
        best.e2e_score,
        best.lm_scores,
        best.combined_score,
        c.steps,
        c.hyps_expanded,
        c.lm_calls,
        c.lm_tokens,
    )


def check(result, utt, inputs: Inputs) -> tuple[float, float]:
    """Raise AssertionError unless the best hypothesis scores are exact.

    Returns (LM score error, acoustic score excess over the forward oracle).
    """
    spec = inputs.config.lms[0]
    best = result.best
    seq = (BOS_ID, *spec.tokenizer.encode(best.text), EOS_ID)
    lm_err = abs(best.lm_scores[0] - spec.scorer.sequence_logprob(seq))
    assert lm_err <= TOLERANCE, f"{utt.utt_id}: LM score off by {lm_err:.3g}"

    labels = best.tokens[1:]
    if inputs.config.mode == "labelsync":
        assert labels and labels[-1] == EOS_ID, f"{utt.utt_id}: label-sync best lacks </s>"
        labels = labels[:-1]
    excess = best.e2e_score - forward_ctc(utt.emissions, labels)
    if inputs.config.mode == "labelsync":
        assert abs(excess) <= TOLERANCE, f"{utt.utt_id}: e2e off oracle by {excess:.3g}"
    else:
        # pruning can only lose paths, never add probability
        assert excess <= TOLERANCE, f"{utt.utt_id}: e2e exceeds oracle by {excess:.3g}"
    return lm_err, excess


def _fail(utt, exc: BaseException) -> None:
    print(f"{utt.utt_id}: {exc!r}", file=sys.stderr)
    if not isinstance(exc, AssertionError):
        traceback.print_exception(exc, file=sys.stderr)


# -- untraced timed run ------------------------------------------------------------


def probe() -> float:
    """Seconds taken by a fixed pure-Python task shaped like the decoder's work.

    Tuple slicing and concatenation, dict lookups on tuple keys, log-sum
    arithmetic and a keyed sort.  It does not touch beamfuse, so no change
    to the package can move it.
    """
    started = time.perf_counter()
    base = tuple(range(20))
    cands: dict = {}
    for i in range(3000):
        key = base[: 10 + (i & 7)] + (i & 63,)
        old = cands.get(key)
        new = -0.001 * i
        cands[key] = new if old is None else max(old, new) + math.log1p(math.exp(-abs(old - new)))
    sorted((-v, len(k), k) for k, v in cands.items())
    return time.perf_counter() - started


class Rescaler:
    """Rescales timed sections to the reference machine speed.

    On a shared host the speed of a core drifts by 20-40% between runs and
    within a minute.  After each timed section the probe runs for about
    PROBE_SHARE of the section's time; the section is divided by the mean
    of the probes just before and just after it.  On a shared 2-core
    x86-64 container that cut the seed-to-seed spread of ms/frame from
    10-15% to 2-5%.
    """

    def __init__(self):
        self.last = self._probe(PROBE_REFERENCE_S / PROBE_SHARE)

    @staticmethod
    def _probe(elapsed: float) -> float:
        reps = max(1, round(PROBE_SHARE * elapsed / PROBE_REFERENCE_S))
        return sum(probe() for _ in range(reps)) / reps

    def __call__(self, elapsed: float) -> float:
        after = self._probe(elapsed)
        speed = 0.5 * (self.last + after)
        self.last = after
        return elapsed * PROBE_REFERENCE_S / speed


def harrell_davis(values, q: float) -> float:
    """Harrell-Davis estimate of quantile ``q``: a Beta-weighted mean of all
    order statistics.

    The pool is stratified by length, so a plain order statistic is the
    latency of one utterance and carries all of that utterance's
    seed-to-seed variation; this estimate spreads the weight over its
    neighbours.
    """
    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    a, b = q * (n + 1), (1.0 - q) * (n + 1)
    grid = np.linspace(0.0, 1.0, 4001)
    inner = grid[1:-1]
    log_pdf = (a - 1.0) * np.log(inner) + (b - 1.0) * np.log1p(-inner)
    pdf = np.concatenate(([0.0], np.exp(log_pdf - log_pdf.max()), [0.0]))
    cdf = np.concatenate(([0.0], np.cumsum(0.5 * (pdf[1:] + pdf[:-1]))))
    weights = np.diff(np.interp(np.arange(n + 1) / n, grid, cdf / cdf[-1]))
    return float(weights @ x)


def _settle() -> None:
    """Collect set-up garbage and keep the collector off long-lived objects."""
    gc.collect()
    gc.freeze()


def timed_run(inputs: Inputs, seconds: float) -> dict:
    """Decode the pool in passes until ``seconds`` have passed (one pass at least)."""
    utts, config, asr_tok = inputs.assets.utts, inputs.config, inputs.assets.asr_tok
    decode = decoder_mod.decode
    decode(utts[0].emissions, config, asr_tok)  # warm-up, not timed
    _settle()
    rescale = Rescaler()

    n = len(utts)
    times: list[list[float]] = [[] for _ in utts]
    scaled: list[list[float]] = [[] for _ in utts]
    first: list = [None] * n
    prints: list = [None] * n
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    i = 0
    while i < n or time.perf_counter() < deadline:
        k = i % n
        i += 1
        attempted += 1
        try:
            started = time.perf_counter()
            result = decode(utts[k].emissions, config, asr_tok)
            elapsed = time.perf_counter() - started
            seconds_scaled = rescale(elapsed)
        except Exception as exc:  # a failed decode is counted, not fatal
            _fail(utts[k], exc)
            failed += 1
            continue
        if first[k] is None:
            first[k], prints[k] = result, fingerprint(result)
        elif fingerprint(result) != prints[k]:
            _fail(utts[k], AssertionError("repeated decode differs from the first"))
            failed += 1
            continue
        times[k].append(elapsed)
        scaled[k].append(seconds_scaled)

    worst_lm = worst_excess = 0.0
    for k, result in enumerate(first):
        if result is None:
            continue
        try:
            lm_err, excess = check(result, utts[k], inputs)
        except AssertionError as exc:
            _fail(utts[k], exc)
            failed += len(times[k])
            first[k] = None
            continue
        worst_lm, worst_excess = max(worst_lm, lm_err), max(worst_excess, excess)

    good = [k for k in range(n) if first[k] is not None]
    if not good:
        raise RuntimeError("no utterance decoded correctly")
    frames = sum(utts[k].emissions.num_frames for k in good)
    medians = [statistics.median(scaled[k]) for k in good]
    wall = [statistics.median(times[k]) for k in good]
    # the highest quantile with TAIL_BEYOND utterances beyond it
    tail_q = max(0.5, 1.0 - TAIL_BEYOND / len(good))
    quality = corpus_wer([(utts[k], first[k]) for k in good])
    nll = -sum(first[k].best.combined_score for k in good)
    calls = sum(first[k].counters.lm_calls for k in good)
    tokens = sum(first[k].counters.lm_tokens for k in good)
    steps = sum(first[k].counters.steps for k in good)
    metrics = {
        "ms_per_frame": (1000.0 * sum(medians) / frames, "ms"),
        "utt_ms_p50": (1000.0 * harrell_davis(medians, 0.5), "ms"),
        "utt_ms_tail": (1000.0 * harrell_davis(medians, tail_q), "ms"),
        "nll_per_frame": (nll / frames, "nats/frame"),
        "lm_calls": (calls / frames, "calls/frame"),
        "lm_tokens": (tokens / frames, "tokens/frame"),
        "setup_s": (statistics.median(inputs.setup_s), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    info = {
        "pool_utterances": n,
        "checked_utterances": len(good),
        "frames_per_pass": frames,
        "decodes": sum(len(t) for t in times),
        "passes": round(i / n, 2),
        "tail_percentile": round(100.0 * tail_q, 2),
        "tail_samples": len(medians),
        "wer": quality,
        "label_steps_per_frame": steps / frames if inputs.config.mode == "labelsync" else None,
        "failed_frac": failed / attempted,
        "max_lm_score_error": worst_lm,
        "max_e2e_minus_oracle": worst_excess,
        "wall_ms_per_frame": 1000.0 * sum(wall) / frames,
        "wall_utt_ms_p50": 1000.0 * harrell_davis(wall, 0.5),
        "wall_utt_ms_tail": 1000.0 * harrell_davis(wall, tail_q),
        "wall_setup_s": statistics.median(inputs.setup_wall_s),
        "setup_runs_s": inputs.setup_s,
    }
    per_utterance = [
        {"id": utts[k].utt_id, "frames": utts[k].emissions.num_frames,
         "decodes": len(times[k]), "ms": 1000.0 * m, "wall_ms": 1000.0 * w}
        for k, m, w in zip(good, medians, wall)
    ]
    return {"attempted": attempted, "failed": failed, "metrics": metrics, "info": info,
            "utterances": per_utterance}


def corpus_wer(pairs, score=wer) -> float:
    """Pooled word error rate over (utterance, result) pairs."""
    errors = words = 0
    for utt, result in pairs:
        ref = utt.reference.split()
        errors += score(ref, result.best.text.split()).errors
        words += len(ref)
    return errors / max(1, words)


# -- traced run ---------------------------------------------------------------------


def traced_run(workload: Workload, inputs: Inputs) -> dict:
    """Decode each utterance untraced and traced, alternating which goes first.

    Per-layer values cover one traced pass over the pool; the untraced twin
    of every decode gives the tracing overhead and the reference counts the
    traced ones must reconcile with.
    """
    assets = inputs.assets
    utts = assets.utts
    tracer = Tracer()
    traced_config = decode_config(workload, assets, tracer.lm_proxy)
    tokenizers = (assets.asr_tok, traced_config.lms[0].tokenizer)
    traced_decode = tracer.wrap("decoder.decode", decoder_mod.decode)
    traced_wer = tracer.wrap("harness.wer", wer)

    def run_plain(utt):
        started = time.perf_counter()
        result = decoder_mod.decode(utt.emissions, inputs.config, assets.asr_tok)
        return result, time.perf_counter() - started

    def run_traced(utt):
        source = utt.emissions
        if workload.mode == "labelsync":
            # the scorer decode would build itself, behind a timing proxy
            scorer = CtcPrefixScorer(utt.emissions, EOS_ID, disallowed=(BOS_ID, UNK_ID))
            source = TracedPrefixScorer(scorer, tracer)
        tracer.request = utt.utt_id
        with tracer.patched(tokenizers):
            started = time.perf_counter()
            result = traced_decode(source, traced_config, assets.asr_tok)
            elapsed = time.perf_counter() - started
        return result, elapsed

    run_plain(utts[0])  # warm-up, not recorded
    with Tracer().patched(tokenizers):
        run_plain(utts[0])
    _settle()

    plain_s = traced_s = 0.0
    plain, traced = [], []
    attempted = failed = 0
    for k, utt in enumerate(utts):
        attempted += 1
        try:
            if k % 2:
                (b, tb), (a, ta) = run_traced(utt), run_plain(utt)
            else:
                (a, ta), (b, tb) = run_plain(utt), run_traced(utt)
            assert fingerprint(a) == fingerprint(b), "tracing changed the decode"
            check(a, utt, inputs)
        except Exception as exc:  # a failed decode is counted, not fatal
            _fail(utt, exc)
            failed += 1
            continue
        plain_s += ta
        traced_s += tb
        plain.append((utt, a))
        traced.append((utt, b))

    tracer.request = None
    traced_wer_value = corpus_wer(traced, traced_wer)
    layer = tracer.metrics()
    reference = {
        "lm.calls": sum(r.counters.lm_calls for _, r in plain),
        "lm.tokens_scored": sum(r.counters.lm_tokens for _, r in plain),
        "decoder.candidates": (
            sum(r.counters.hyps_expanded for _, r in plain) if workload.mode == "ctc" else 0
        ),
    }
    untraced_wer = corpus_wer(plain)
    mismatched = {k: (layer[k], v) for k, v in reference.items() if layer[k] != v}
    if traced_wer_value != untraced_wer:
        mismatched["wer"] = (traced_wer_value, untraced_wer)
    if mismatched:
        print(f"traced counts do not reconcile: {mismatched}", file=sys.stderr)
        failed = attempted
    layer["trace_overhead_frac"] = traced_s / plain_s - 1.0 if plain_s else 0.0
    total_self = sum(v for name, v in layer.items() if name.endswith(".self_s"))
    shares = {
        name: round(v / total_self, 4)
        for name, v in sorted(layer.items(), key=lambda kv: -kv[1])
        if name.endswith(".self_s") and total_self
    }
    info = {
        "pool_utterances": len(utts),
        "untraced_s": plain_s,
        "traced_s": traced_s,
        "wer": untraced_wer,
        "traced_wer": traced_wer_value,
        "reference_counts": reference,
        "self_time_shares": shares,
        "failed_frac": failed / attempted,
    }
    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: (value, unit_of(name)) for name, value in layer.items()},
        "info": info,
        "trace": tracer.dump(),
    }


def unit_of(name: str) -> str:
    if name.endswith("self_s"):
        return "s"
    if name.endswith(("_ratio", "_frac")):
        return "ratio"
    if name.endswith("_per_s"):
        return "tokens/s"
    return "count"


def environment(seed: int) -> dict:
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "beamfuse": beamfuse.__version__,
    }
