"""The traced run must count what the untraced decoder counts, and change nothing.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

import dataclasses
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

import beamfuse.decoder as decoder_mod  # noqa: E402
import decodebench as bench  # noqa: E402

ORIGINALS = {name: getattr(decoder_mod, name) for name in
             ("extend_frame", "prune_frame_candidates", "advance_views", "fusable",
              "apply_lm_scores", "finalize_beam", "tokenizable_prefix_len")}


@pytest.fixture(scope="module", params=sorted(bench.WORKLOADS))
def traced(request):
    workload = bench.WORKLOADS[request.param]
    inputs = bench.prepare(workload, seed=7, utterances=3)
    return workload, inputs, bench.traced_run(workload, inputs)


def test_traced_counts_equal_untraced_counters(traced):
    workload, inputs, out = traced
    assets = inputs.assets
    plain = [decoder_mod.decode(u.emissions, inputs.config, assets.asr_tok) for u in assets.utts]
    layer = {name: value for name, (value, _) in out["metrics"].items()}

    assert out["failed"] == 0
    assert layer["lm.calls"] == sum(r.counters.lm_calls for r in plain)
    assert layer["lm.tokens_scored"] == sum(r.counters.lm_tokens for r in plain)
    # hyps_expanded counts frame-step candidates in ctc mode; label-sync
    # search never runs the frame step
    expanded = sum(r.counters.hyps_expanded for r in plain)
    assert layer["decoder.candidates"] == (expanded if workload.mode == "ctc" else 0)
    assert out["info"]["traced_wer"] == bench.corpus_wer(zip(assets.utts, plain))


def test_layers_match_the_workload(traced):
    workload, _, out = traced
    layer = {name: value for name, (value, _) in out["metrics"].items()}
    frame_step = layer["decoder.extend_frame.self_s"]
    prefix_scorer = layer["acoustic.child.self_s"] + layer["acoustic.candidate_scores.self_s"]
    if workload.mode == "ctc":
        assert frame_step > 0 and prefix_scorer == 0
        assert 0 < layer["decoder.prune_keep_ratio"] < 1
    else:
        assert frame_step == 0 and prefix_scorer > 0
    assert layer["lm.tokens_per_s"] > 0
    assert 0 < layer["lm.request_useful_ratio"] <= 1


def test_tracing_is_removed_afterwards(traced):
    _, inputs, _ = traced
    for name, fn in ORIGINALS.items():
        assert getattr(decoder_mod, name) is fn
    for tok in (inputs.assets.asr_tok, inputs.assets.lm_tok):
        assert "encode" not in tok.__dict__ and "decode" not in tok.__dict__


def test_check_rejects_a_wrong_lm_score(traced):
    _, inputs, _ = traced
    utt = inputs.assets.utts[0]
    result = decoder_mod.decode(utt.emissions, inputs.config, inputs.assets.asr_tok)
    bench.check(result, utt, inputs)
    best = result.best
    result.best = dataclasses.replace(best, lm_scores=(best.lm_scores[0] + 1e-6,))
    with pytest.raises(AssertionError):
        bench.check(result, utt, inputs)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ctc_shortest", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
