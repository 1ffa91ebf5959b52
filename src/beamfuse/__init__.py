"""beamfuse: beam-search ASR decoding with policy-timed external LM fusion.

The package decodes CTC-style emissions with an external language model
whose vocabulary need not match the acoustic one: hypothesis prefixes are
re-tokenized at word boundaries and scored incrementally against a prefix
cache, at times chosen by a fusion policy.  A benchmark harness sweeps
policies, beams, and fusion intervals over synthetic data and reports WER
alongside LM cost counters.
"""

from .acoustic import (
    CtcPrefixScorer,
    EmissionMatrix,
    brute_force_ctc,
    brute_force_ctc_prefix,
    forward_ctc,
    greedy_labels,
    read_emissions,
    synth_emissions,
    write_emissions,
)
from .decoder import (
    DecodeConfig,
    DecodeResult,
    FusionPolicy,
    Hypothesis,
    LMSpec,
    ScoredHypothesis,
    decode,
)
from .harness import BenchConfig, generate_corpus, run_bench, split_corpus, wer
from .lm import (
    NGramModel,
    PrefixCacheEntry,
    ScoreRequest,
    ScoreResult,
    read_arpa,
    train_ngram,
    write_arpa,
)
from .tokenization import (
    Tokenizer,
    Vocabulary,
    build_vocab,
    read_vocab,
    tokenizable_prefix_len,
    write_vocab,
)

__version__ = "0.1.0"
