"""Fingerprint a fixed grid of decodes, to show a refactor leaves every decode unchanged.

Run from the repository root:  PYTHONPATH=src python3 tools/decode_grid.py

The grid decodes 8 seeded utterances in both modes under every fusion
policy, with no LM, the matched LM, the cross-vocabulary LM and both, at
ctc beams 1/5/10/20/40 and label-sync beams 1/5/10/20, keeping the step
trace: 1,440 decodes.  Each result is reduced to plain values (``wall_seconds``
zeroed, numpy floats turned into Python floats) and the ``repr`` of the
list is hashed, so two checkouts print the same line exactly when every
hypothesis, score, counter and trace entry is bit-identical.
"""

from __future__ import annotations

import dataclasses
import hashlib

import numpy as np

from beamfuse.decoder import POLICY_KINDS, DecodeConfig, FusionPolicy, LMSpec, decode
from beamfuse.harness import BenchConfig, prepare_bench

BEAMS = {"ctc": (1, 5, 10, 20, 40), "labelsync": (1, 5, 10, 20)}
INTERVAL = 3


def plain(value):
    """``value`` with numpy floats as Python floats, containers rebuilt."""
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, dict):
        return {k: plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return type(value)(plain(v) for v in value)
    return value


def lm_sets(assets) -> dict[str, list[LMSpec]]:
    matched = LMSpec(assets.asr_scorer, assets.asr_tok, 0.5)
    cross = LMSpec(assets.scorer, assets.lm_tok, 0.5)
    # the second LM of "both" is left out of the final selection
    second = LMSpec(assets.scorer, assets.lm_tok, 0.3, use_in_final=False)
    return {"none": [], "matched": [matched], "cross": [cross], "both": [matched, second]}


def main() -> None:
    assets = prepare_bench(BenchConfig(seed=7, utterances=8, noise=0.47, frames_per_token=(1, 2)))
    records = []
    for mode, beams in BEAMS.items():
        for kind in POLICY_KINDS:
            policy = FusionPolicy(kind, INTERVAL if kind == "interval" else 0)
            for name, lms in lm_sets(assets).items():
                for beam in beams:
                    config = DecodeConfig(beam, policy, lms, mode=mode, keep_trace=True)
                    for utt in assets.utts:
                        result = decode(utt.emissions, config, assets.asr_tok)
                        result.counters.wall_seconds = 0.0
                        records.append((mode, kind, name, beam, plain(dataclasses.asdict(result))))
    digest = hashlib.sha256(repr(records).encode()).hexdigest()
    print(f"{len(records)} decodes sha256 {digest}")


if __name__ == "__main__":
    main()
