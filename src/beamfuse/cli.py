"""Command-line interface: data preparation, decoding, benchmarks, oracles."""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from . import acoustic, harness, lm
from .decoder import MODES, POLICY_KINDS, DecodeConfig, DecodeError, FusionPolicy, LMSpec, decode
from .tokenization import Tokenizer, VocabularyError, build_vocab, read_vocab, write_vocab


class CommandError(ValueError):
    """Raised for command-line arguments that parse but cannot be used."""


# errors that report bad input, unreadable input files or configuration, not a bug
_INPUT_ERRORS = (
    CommandError,
    DecodeError,
    acoustic.EmissionError,
    lm.ArpaFormatError,
    VocabularyError,
    lm.LMError,
    harness.HarnessError,
    OSError,
    UnicodeError,
)


def _cmd_build_vocab(args) -> int:
    vocab = build_vocab(harness.read_corpus(args.corpus), args.size)
    write_vocab(vocab, args.out)
    print(f"wrote {vocab.size} tokens to {args.out}")
    return 0


def _cmd_train_lm(args) -> int:
    vocab = read_vocab(args.vocab)
    tok = Tokenizer(vocab)
    sequences = [tok.encode(line) for line in harness.read_corpus(args.corpus)]
    model = lm.train_ngram(sequences, vocab, order=args.order, discount=args.discount)
    lm.write_arpa(model, args.out)
    print(f"trained order-{args.order} model on {len(sequences)} sentences -> {args.out}")
    return 0


def _cmd_gen_data(args) -> int:
    vocab = read_vocab(args.vocab)
    tok = Tokenizer(vocab)
    lines = harness.read_corpus(args.corpus)
    rows = harness.gen_dataset(
        lines, tok, args.out, args.count, args.noise, (1, 3), args.seed
    )
    print(f"wrote {len(rows)} utterances and manifest.tsv under {args.out}")
    return 0


def _hypothesis_json(hyp) -> dict:
    return {
        "text": hyp.text,
        "e2e": hyp.e2e_score,
        "lm_raw": list(hyp.lm_scores),
        "combined": hyp.combined_score,
    }


def _cmd_decode(args) -> int:
    emissions = acoustic.read_emissions(args.emissions)
    asr_tok = Tokenizer(read_vocab(args.asr_vocab))
    # an ARPA file lists its whole vocabulary in id order: each LM's tokenizer comes from it
    sources = [(args.lm, args.lm_weight, True)]
    if args.second_lm:
        sources.append((args.second_lm, args.second_weight, args.second_final == "yes"))
    lms = []
    for path, weight, use_in_final in sources:
        model = lm.read_arpa(path)
        lms.append(LMSpec(model, Tokenizer(model.vocab), weight, use_in_final=use_in_final))
    policy = FusionPolicy(args.policy, args.interval)
    config = DecodeConfig(beam=args.beam, policy=policy, lms=lms, mode=args.mode)
    result = decode(emissions, config, asr_tok)
    if args.json:
        payload = {
            "best": _hypothesis_json(result.best),
            "nbest": [_hypothesis_json(h) for h in result.nbest],
            "counters": dataclasses.asdict(result.counters),
        }
        print(json.dumps(payload, indent=2))
    else:
        print(result.best.text)
    return 0


def _cmd_bench(args) -> int:
    cfg = harness.parse_bench_config(args.config)
    rows = harness.run_bench(cfg, args.out)
    print(f"wrote {len(rows)} rows to {args.out}")
    failures = [row for row in rows if row.status != "ok"]
    for row in failures:
        print(f"  failed cell {row.policy}/beam={row.beam}: {row.status}", file=sys.stderr)
    return 1 if failures else 0


def _cmd_oracle(args) -> int:
    em = acoustic.read_emissions(args.emissions)
    try:
        labels = [int(x) for x in args.labels.split()]
    except ValueError:
        raise CommandError(
            f"--labels must be space-separated integer ids, got {args.labels!r}"
        ) from None
    for label in labels:
        if not 0 < label < em.vocab_size:
            raise CommandError(f"--labels: id {label} is not a label in 1..{em.vocab_size - 1}")
    enumerated = acoustic.brute_force_ctc(em, labels)
    forward = acoustic.forward_ctc(em, labels)
    delta = abs(enumerated - forward)
    print(f"enumeration : {enumerated:.12f}")
    print(f"forward DP  : {forward:.12f}")
    print(f"|delta|     : {delta:.3e}")
    if not (delta < 1e-9 or (enumerated == forward)):
        print("MISMATCH", file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="beamfuse",
        description="Beam-search decoding with policy-timed external LM fusion",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-vocab", help="build a wordpiece vocabulary from a corpus")
    p.add_argument("--corpus", required=True)
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_build_vocab)

    p = sub.add_parser("train-lm", help="train a backoff n-gram model, write ARPA")
    p.add_argument("--corpus", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--discount", type=float, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_train_lm)

    p = sub.add_parser("gen-data", help="synthesize emission files plus a manifest")
    p.add_argument("--corpus", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--noise", type=float, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen_data)

    p = sub.add_parser("decode", help="decode one emission file")
    p.add_argument("--emissions", required=True)
    p.add_argument("--asr-vocab", required=True)
    p.add_argument("--lm", required=True)
    p.add_argument("--policy", required=True, choices=POLICY_KINDS)
    p.add_argument("--interval", type=int, default=16)
    p.add_argument("--beam", type=int, default=10)
    p.add_argument("--lm-weight", type=float, default=0.5)
    p.add_argument("--second-lm")
    p.add_argument("--second-weight", type=float, default=0.5)
    p.add_argument("--second-final", choices=["yes", "no"], default="yes")
    p.add_argument("--mode", choices=MODES, default="ctc")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_decode)

    p = sub.add_parser("bench", help="run a WER/cost sweep and write a CSV")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("oracle", help="exact small-instance checks")
    p.add_argument("which", choices=["ctc"])
    p.add_argument("--emissions", required=True)
    p.add_argument("--labels", required=True, help="space-separated label ids")
    p.set_defaults(func=_cmd_oracle)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
