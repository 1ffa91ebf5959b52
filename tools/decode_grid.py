"""Fingerprint a fixed grid of decodes, to show a refactor leaves every decode unchanged.

Run from the repository root:  PYTHONPATH=src python3 tools/decode_grid.py

The grid decodes 8 seeded utterances in both modes under every fusion
policy, with no LM, the matched LM, the cross-vocabulary LM and both, at
ctc beams 1/5/10/20/40 and label-sync beams 1/5/10/20, keeping the step
trace: 1,440 decodes.  Each result is reduced to plain values (``wall_seconds``
zeroed, numpy floats turned into Python floats) and the ``repr`` of the
list is hashed, so two checkouts print the same line exactly when every
hypothesis, score, counter and trace entry is bit-identical.

A change that moves scores by rounding changes the hash, so the records can
also be kept and compared with a tolerance:

    PYTHONPATH=src python3 tools/decode_grid.py --save grid.json      # in the parent
    PYTHONPATH=src python3 tools/decode_grid.py --against grid.json   # in the change

``--save`` writes the plain records as JSON.  ``--against`` compares them
record by record: every value that is not a float (n-best tokens and texts,
counters, trace lengths, ``scored_len``, ...) must be equal, and every
float within ``TOLERANCE``·max(1, |ref|), infinities equal.  It prints how
many decodes were compared and how many are bit-identical, and the worst
drift; the exit status is 1 when any record differs beyond that.

A path ending in ``.gz`` holds the grid's origin instead: for each decode
its key ``(mode, policy kind, LM set, beam, utterance)``, best hypothesis
and counters (``wall_seconds`` zeroed), gzipped.  The committed origin,
``grid_origin.json.gz`` next to this script, bounds drift across changes
rather than against the parent alone; ``tests/test_decode_grid.py``
decodes a slice of the grid against it.  Regenerating it is a change of
decoding behaviour:

    PYTHONPATH=src python3 tools/decode_grid.py --save tools/grid_origin.json.gz
    PYTHONPATH=src python3 tools/decode_grid.py --against tools/grid_origin.json.gz
"""

from __future__ import annotations

import argparse
import dataclasses
import gzip
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np

from beamfuse.decoder import POLICY_KINDS, DecodeConfig, FusionPolicy, LMSpec, decode
from beamfuse.harness import BenchConfig, prepare_bench

BEAMS = {"ctc": (1, 5, 10, 20, 40), "labelsync": (1, 5, 10, 20)}
INTERVAL = 3
TOLERANCE = 1e-9
ORIGIN = Path(__file__).with_name("grid_origin.json.gz")


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


def grid_records(beams=BEAMS, utterances: int | None = None, reverse: bool = False) -> list[tuple]:
    """``(mode, policy kind, LM set, beam, plain result)`` for every decode of the grid.

    ``beams`` and ``utterances`` (the first that many) select a slice of it.
    ``reverse`` decodes the slice last decode first; the records keep the grid's order.
    """
    assets = prepare_bench(BenchConfig(seed=7, utterances=8, noise=0.47, frames_per_token=(1, 2)))
    jobs = []
    for mode, mode_beams in beams.items():
        for kind in POLICY_KINDS:
            policy = FusionPolicy(kind, INTERVAL if kind == "interval" else 0)
            for name, lms in lm_sets(assets).items():
                for beam in mode_beams:
                    config = DecodeConfig(beam, policy, lms, mode=mode, keep_trace=True)
                    for utt in assets.utts[:utterances]:
                        jobs.append(((mode, kind, name, beam), utt.emissions, config))
    records = [None] * len(jobs)
    for i in sorted(range(len(jobs)), reverse=reverse):
        key, emissions, config = jobs[i]
        result = decode(emissions, config, assets.asr_tok)
        result.counters.wall_seconds = 0.0
        records[i] = (*key, plain(dataclasses.asdict(result)))
    return records


def origin(records: list[tuple]) -> list[tuple]:
    """``(mode, policy kind, LM set, beam, utterance, {best, counters})`` per grid record."""
    out, seen = [], {}
    for *key, result in records:
        utt = seen[tuple(key)] = seen.get(tuple(key), -1) + 1
        out.append((*key, utt, {"best": result["best"], "counters": result["counters"]}))
    return out


def write_records(path: Path, records: list[tuple]) -> None:
    """Plain JSON, or the gzipped origin for a ``.gz`` path."""
    if path.suffix == ".gz":
        path.write_bytes(gzip.compress(json.dumps(origin(records)).encode(), mtime=0))
    else:
        path.write_text(json.dumps(records) + "\n")


def read_records(path: Path) -> list:
    """What ``write_records`` wrote; JSON keeps floats exactly and turns tuples into lists."""
    raw = gzip.decompress(path.read_bytes()) if path.suffix == ".gz" else path.read_bytes()
    return json.loads(raw)


def drift(got, ref, path: str = "") -> float:
    """The largest float drift between two plain values, relative to max(1, |ref|).

    Raises ``ValueError`` naming the first path where they differ in
    anything but float rounding within ``TOLERANCE``.
    """
    if isinstance(ref, float) and isinstance(got, float):
        if got == ref:
            return 0.0
        if math.isfinite(ref) and math.isfinite(got):
            d = abs(got - ref) / max(1.0, abs(ref))
            if d <= TOLERANCE:
                return d
        raise ValueError(f"{path}: {got!r} against {ref!r}")
    if isinstance(ref, dict) and isinstance(got, dict):
        if got.keys() != ref.keys():
            raise ValueError(f"{path}: keys {sorted(got)} against {sorted(ref)}")
        return max((drift(got[k], ref[k], f"{path}.{k}") for k in ref), default=0.0)
    if isinstance(ref, (list, tuple)) and isinstance(got, (list, tuple)):
        if len(got) != len(ref):
            raise ValueError(f"{path}: length {len(got)} against {len(ref)}")
        return max((drift(g, r, f"{path}[{i}]") for i, (g, r) in enumerate(zip(got, ref))),
                   default=0.0)
    if type(got) is not type(ref) or got != ref:
        raise ValueError(f"{path}: {got!r} against {ref!r}")
    return 0.0


def compare(records: list, refs: list) -> tuple[list[str], list[float | None]]:
    """Each record against its reference: the mismatches, and each record's drift or None."""
    if len(records) != len(refs):
        return [f"{len(records)} decodes against {len(refs)}"], [None] * len(records)
    problems, drifts = [], []
    for i, (got, ref) in enumerate(zip(records, refs)):
        try:
            drifts.append(drift(got, ref, f"decode {i} {tuple(ref[:-1])}"))
        except ValueError as exc:
            problems.append(str(exc))
            drifts.append(None)
    return problems, drifts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--save", type=Path,
                        help="write the plain records to this JSON file (.gz: the origin)")
    parser.add_argument("--against", type=Path,
                        help="compare the records with a file written by --save")
    args = parser.parse_args(argv)
    records = grid_records()
    digest = hashlib.sha256(repr(records).encode()).hexdigest()
    print(f"{len(records)} decodes sha256 {digest}")
    if args.save:
        write_records(args.save, records)
    if args.against is None:
        return 0
    if args.against.suffix == ".gz":
        records = origin(records)
    problems, drifts = compare(records, read_records(args.against))
    for line in problems[:10]:
        print(f"differs: {line}")
    exact = {mode: 0 for mode in BEAMS}
    for (mode, *_), d in zip(records, drifts):
        exact[mode] += d == 0.0
    identical = ", ".join(f"{n} {mode}" for mode, n in exact.items())
    worst = max((d for d in drifts if d is not None), default=0.0)
    print(f"compared {len(records)} decodes against {args.against}: {len(problems)} differ,"
          f" bit-identical {identical}, worst drift {worst:.3g}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
