import dataclasses
import json
import re

import numpy as np
import pytest

from beamfuse.cli import main
from beamfuse.acoustic import read_emissions
from beamfuse.decoder import DecodeConfig, DecodeCounters, FusionPolicy, LMSpec, decode
from beamfuse.harness import generate_corpus
from beamfuse.lm import read_arpa
from beamfuse.tokenization import Tokenizer, read_vocab

from conftest import random_emissions


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A corpus, vocabularies, a model, and one decoded utterance on disk."""
    root = tmp_path_factory.mktemp("cli")
    lines = generate_corpus(5, 300, 80)
    (root / "corpus.txt").write_text("\n".join(lines[:240]) + "\n")
    (root / "eval.txt").write_text("\n".join(lines[240:]) + "\n")

    def run(*argv):
        assert main([str(a) for a in argv]) == 0

    run("build-vocab", "--corpus", root / "corpus.txt", "--size", 64, "--out", root / "asr.vocab")
    run("build-vocab", "--corpus", root / "corpus.txt", "--size", 128, "--out", root / "lm.vocab")
    run(
        "train-lm",
        "--corpus", root / "corpus.txt",
        "--vocab", root / "lm.vocab",
        "--order", 3,
        "--discount", 0.4,
        "--out", root / "lm.arpa",
    )
    run(
        "train-lm",
        "--corpus", root / "corpus.txt",
        "--vocab", root / "asr.vocab",
        "--order", 2,
        "--discount", 0.4,
        "--out", root / "second.arpa",
    )
    run(
        "gen-data",
        "--corpus", root / "eval.txt",
        "--vocab", root / "asr.vocab",
        "--count", 2,
        "--noise", 0.4,
        "--seed", 9,
        "--out", root / "data",
    )
    return root


class TestPipeline:
    def test_artifacts_exist(self, workspace):
        vocab = read_vocab(str(workspace / "asr.vocab"))
        assert vocab.size == 64
        model = read_arpa(str(workspace / "lm.arpa"))
        assert model.order == 3
        assert (workspace / "data" / "manifest.tsv").exists()

    def test_decode_plain(self, workspace, capsys):
        assert (
            main(
                [
                    "decode",
                    "--emissions", str(workspace / "data" / "utt0000.em"),
                    "--asr-vocab", str(workspace / "asr.vocab"),
                    "--lm", str(workspace / "lm.arpa"),
                    "--policy", "shortest",
                    "--beam", "8",
                    "--lm-weight", "0.5",
                    "--mode", "ctc",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out.strip()
        manifest = (workspace / "data" / "manifest.tsv").read_text().splitlines()
        reference = manifest[0].split("\t")[2]
        assert out == reference  # low noise: the decode should be exact

    def test_decode_json_payload(self, workspace, capsys):
        argv = [
            "decode",
            "--emissions", str(workspace / "data" / "utt0000.em"),
            "--asr-vocab", str(workspace / "asr.vocab"),
            "--lm", str(workspace / "lm.arpa"),
            "--policy", "interval",
            "--interval", "8",
            "--beam", "5",
            "--lm-weight", "0.5",
            "--mode", "ctc",
            "--json",
        ]
        assert main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"best", "nbest", "counters"}
        assert set(payload["best"]) == {"text", "e2e", "lm_raw", "combined"}
        assert len(payload["nbest"]) <= 5
        assert list(payload["counters"]) == [f.name for f in dataclasses.fields(DecodeCounters)]
        assert payload["counters"]["lm_calls"] >= 1
        assert payload["counters"]["lm_calls_final"] == 1

    def test_decode_with_second_lm(self, workspace, capsys):
        argv = [
            "decode",
            "--emissions", str(workspace / "data" / "utt0001.em"),
            "--asr-vocab", str(workspace / "asr.vocab"),
            "--lm", str(workspace / "lm.arpa"),
            "--policy", "shortest",
            "--beam", "5",
            "--lm-weight", "0.3",
            "--second-lm", str(workspace / "second.arpa"),
            "--second-weight", "0.3",
            "--second-final", "no",
            "--mode", "ctc",
            "--json",
        ]
        assert main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["best"]["lm_raw"]) == 2

    @pytest.mark.parametrize("mode", ["ctc", "labelsync"])
    def test_lm_tokenizers_come_from_the_arpa_files(self, workspace, capsys, mode):
        # the tokenizer read from lm.arpa decodes as the one read from lm.vocab
        argv = [
            "decode",
            "--emissions", str(workspace / "data" / "utt0001.em"),
            "--asr-vocab", str(workspace / "asr.vocab"),
            "--lm", str(workspace / "lm.arpa"),
            "--policy", "shortest",
            "--beam", "5",
            "--lm-weight", "0.3",
            "--second-lm", str(workspace / "second.arpa"),
            "--second-weight", "0.4",
            "--second-final", "no",
            "--mode", mode,
            "--json",
        ]
        assert main(argv) == 0
        payload = json.loads(capsys.readouterr().out)

        second = read_arpa(str(workspace / "second.arpa"))
        lms = [
            LMSpec(
                read_arpa(str(workspace / "lm.arpa")),
                Tokenizer(read_vocab(str(workspace / "lm.vocab"))),
                0.3,
            ),
            LMSpec(second, Tokenizer(second.vocab), 0.4, use_in_final=False),
        ]
        config = DecodeConfig(beam=5, policy=FusionPolicy("shortest"), lms=lms, mode=mode)
        result = decode(
            read_emissions(str(workspace / "data" / "utt0001.em")),
            config,
            Tokenizer(read_vocab(str(workspace / "asr.vocab"))),
        )

        def as_json(hyp):
            return {
                "text": hyp.text,
                "e2e": hyp.e2e_score,
                "lm_raw": list(hyp.lm_scores),
                "combined": hyp.combined_score,
            }

        # floats survive the JSON round trip exactly; only the wall time differs
        assert payload["best"] == as_json(result.best)
        assert payload["nbest"] == [as_json(h) for h in result.nbest]
        counters = dataclasses.asdict(result.counters)
        del counters["wall_seconds"], payload["counters"]["wall_seconds"]
        assert payload["counters"] == counters

    def test_decode_labelsync(self, workspace, capsys):
        argv = [
            "decode",
            "--emissions", str(workspace / "data" / "utt0000.em"),
            "--asr-vocab", str(workspace / "asr.vocab"),
            "--lm", str(workspace / "lm.arpa"),
            "--policy", "never",
            "--beam", "4",
            "--lm-weight", "0.5",
            "--mode", "labelsync",
        ]
        assert main(argv) == 0
        assert capsys.readouterr().out.strip()

    @pytest.mark.parametrize(
        "extra, message",
        [
            (["--policy", "never", "--beam", "0"], "beam must be an int >= 1"),
            (["--policy", "interval", "--interval", "0"], "interval policy needs interval >= 1"),
        ],
        ids=["beam-0", "interval-0"],
    )
    def test_invalid_config_reports_error(self, workspace, capsys, extra, message):
        argv = [
            "decode",
            "--emissions", str(workspace / "data" / "utt0000.em"),
            "--asr-vocab", str(workspace / "asr.vocab"),
            "--lm", str(workspace / "lm.arpa"),
            *extra,
        ]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "content",
        [
            "not an emission file\n",
            "two 5\n",
            "1 5\n-1 -2 x -3 -4\n",
            "1 0\n\n",
            "\u00b2 2\n-0.7 -0.7\n",
        ],
        ids=["bad-header", "non-integer-header", "non-numeric-value", "no-columns", "superscript-digit"],
    )
    def test_malformed_emissions_reports_error(self, workspace, capsys, content):
        bad = workspace / "bad.em"
        bad.write_text(content, encoding="utf-8")
        argv = [
            "decode",
            "--emissions", str(bad),
            "--asr-vocab", str(workspace / "asr.vocab"),
            "--lm", str(workspace / "lm.arpa"),
            "--policy", "never",
        ]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize(
        "pattern, replacement, message",
        [
            (r"ngram 1=", "ngram 1=x", "expected int 'x"),
            (r"\\2-grams:", r"\\two-grams:", "expected int 'two'"),
            (r"(\\1-grams:\n)[^\t]+", r"\1abc", "expected float 'abc'"),
            (r"ngram 1=", "ngram 99999999999=1\nngram 1=", "orders not contiguous"),
        ],
        ids=["non-integer-count", "non-integer-section", "non-numeric-probability", "huge-order"],
    )
    def test_malformed_arpa_reports_error(self, workspace, capsys, pattern, replacement, message):
        text = (workspace / "lm.arpa").read_text(encoding="utf-8")
        text, edits = re.subn(pattern, replacement, text, count=1)
        assert edits == 1
        bad = workspace / "bad.arpa"
        bad.write_text(text, encoding="utf-8")
        argv = [
            "decode",
            "--emissions", str(workspace / "data" / "utt0000.em"),
            "--asr-vocab", str(workspace / "asr.vocab"),
            "--lm", str(bad),
            "--policy", "never",
        ]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert "Traceback" not in err


class TestOracle:
    def test_ctc_oracle_agrees(self, workspace, capsys):
        from beamfuse.acoustic import synth_emissions, write_emissions

        em = synth_emissions([1, 2], 5, (1, 2), noise=0.6, seed=4)
        path = workspace / "small.em"
        write_emissions(em, str(path))
        assert main(["oracle", "ctc", "--emissions", str(path), "--labels", "1 2"]) == 0
        out = capsys.readouterr().out
        assert "enumeration" in out and "forward DP" in out

    @pytest.mark.parametrize(
        "frames, vocab, labels, message",
        [
            (16, 10, "1 2", "too large for enumeration: T=16, V=10"),
            (4, 5, "x", "--labels must be space-separated integer ids"),
            (4, 5, "1 5", "id 5 is not a label in 1..4"),
        ],
        ids=["too-large", "non-integer-labels", "label-out-of-range"],
    )
    def test_bad_input_reports_error(self, workspace, capsys, frames, vocab, labels, message):
        from beamfuse.acoustic import EmissionMatrix, write_emissions

        em = EmissionMatrix(random_emissions(np.random.default_rng(3), frames, vocab))
        path = workspace / f"oracle_{frames}x{vocab}.em"
        write_emissions(em, str(path))
        assert main(["oracle", "ctc", "--emissions", str(path), "--labels", labels]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert "Traceback" not in err


class TestBenchCommand:
    def test_bench_writes_csv(self, workspace, capsys):
        cfg = workspace / "bench.cfg"
        cfg.write_text(
            "corpus =\n"
            "corpus_sentences = 300\n"
            "corpus_vocabulary = 80\n"
            "utterances = 2\n"
            "noise = 0.45\n"
            "policies = never\n"
            "beams = 4\n"
            "seed = 5\n"
        )
        out = workspace / "bench.csv"
        assert main(["bench", "--config", str(cfg), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("policy,beam,interval")
        assert len(lines) == 4  # header + baseline + shallow + never

    @pytest.mark.parametrize(
        "line, message",
        [
            ("beams = ten", "beams = 'ten': expected int values"),
            ("noise = loud", "noise = 'loud': expected float values"),
            ("frames_per_token = 1:x", "frames_per_token = '1:x': expected int values"),
            ("frames_per_token = 2:1", "1 <= lo <= hi, got 2:1"),
            ("frames_per_token = 0:2", "1 <= lo <= hi, got 0:2"),
            ("beam = 5", "unknown key(s): beam"),
            ("beams = ten\nbeam = 5", "unknown key(s): beam"),
            ("beams = 10\nmode = ctc\nbeams = 20", "beams is set on lines 2 and 4"),
            ("beams = ,", "at least one beam required"),
            ("beams = 0", "beams must be ints >= 1, got 0"),
            ("intervals = 16, 0", "intervals must be ints >= 1, got 0"),
            ("mode = frame", "mode must be ctc or labelsync, got 'frame'"),
            ("per_call_ms = -5", "per_call_ms must be >= 0, got -5.0"),
            ("policies = interval\nintervals = ,", "policy interval needs at least one interval"),
            ("beams = 5, 5", "beams lists 5 more than once"),
            ("intervals = 8, 16, 8", "intervals lists 8 more than once"),
            ("policies = never, never", "policies lists never more than once"),
            ("lm_weight = nan", "lm_weight must be a finite number, got nan"),
            ("lm_weight = inf", "lm_weight must be a finite number, got inf"),
            ("lm_weight = -inf", "lm_weight must be a finite number, got -inf"),
        ],
        ids=[
            "beams-not-int",
            "noise-not-float",
            "range-not-int",
            "range-reversed",
            "range-zero",
            "unknown-key",
            "unknown-key-before-bad-value",
            "key-repeated",
            "beams-empty",
            "beams-zero",
            "interval-zero",
            "unknown-mode",
            "negative-call-cost",
            "interval-without-intervals",
            "beams-repeated",
            "intervals-repeated",
            "policies-repeated",
            "nan-lm-weight",
            "inf-lm-weight",
            "minus-inf-lm-weight",
        ],
    )
    def test_bad_config_reports_error(self, workspace, capsys, line, message):
        cfg = workspace / "bad_bench.cfg"
        cfg.write_text("utterances = 2\n" + line + "\n")
        argv = ["bench", "--config", str(cfg), "--out", str(workspace / "bad.csv")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cfg}: ") and message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "line, message",
        [
            ("seed = -1", "seed must be >= 0, got -1"),
            ("noise = -1", "noise must be a finite number >= 0, got -1.0"),
            ("noise = nan", "noise must be a finite number >= 0, got nan"),
            ("corpus_vocabulary = 3", "corpus vocabulary must be >= 4 words, got 3"),
        ],
        ids=["negative-seed", "negative-noise", "nan-noise", "three-word-corpus"],
    )
    def test_bad_data_settings_report_error(self, workspace, capsys, line, message):
        cfg = workspace / "bad_data.cfg"
        # ``line`` replaces its key's default here: a key given twice is an error
        settings = {"corpus_sentences": "300", "corpus_vocabulary": "80", "utterances": "2"}
        key, _, value = line.partition(" = ")
        settings[key] = value
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in settings.items()))
        argv = ["bench", "--config", str(cfg), "--out", str(workspace / "bad.csv")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert "Traceback" not in err


class TestGenDataCommand:
    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--seed", -1, "seed must be >= 0, got -1"),
            ("--noise", -1, "noise must be a finite number >= 0, got -1.0"),
        ],
        ids=["negative-seed", "negative-noise"],
    )
    def test_bad_values_report_error(self, workspace, capsys, flag, value, message):
        args = {"--count": 2, "--noise": 0.4, "--seed": 9, flag: value}
        argv = ["gen-data", "--corpus", workspace / "eval.txt", "--vocab", workspace / "asr.vocab",
                "--out", workspace / "bad_data", *(str(x) for kv in args.items() for x in kv)]
        assert main([str(a) for a in argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert "Traceback" not in err
        assert not (workspace / "bad_data").exists()


class TestUnreadableInput:
    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                ["decode", "--emissions", "{ws}/missing.em", "--asr-vocab", "{ws}/asr.vocab",
                 "--lm", "{ws}/lm.arpa", "--policy", "never"],
                "No such file or directory",
            ),
            (["bench", "--config", "{ws}/missing.cfg", "--out", "{ws}/bad.csv"],
             "No such file or directory"),
            (["build-vocab", "--corpus", "{ws}/data", "--size", "64", "--out", "{ws}/bad.vocab"],
             "Is a directory"),
            (["build-vocab", "--corpus", "{ws}/latin1.txt", "--size", "64",
              "--out", "{ws}/bad.vocab"],
             "can't decode byte 0xe9"),
            (["bench", "--config", "{ws}/missing_corpus.cfg", "--out", "{ws}/bad.csv"],
             "No such file or directory"),
        ],
        ids=["missing-emissions", "missing-config", "directory-corpus", "non-utf8-corpus",
             "missing-bench-corpus"],
    )
    def test_reports_error(self, workspace, capsys, argv, message):
        (workspace / "latin1.txt").write_bytes("caf\u00e9 au lait\n".encode("latin-1"))
        (workspace / "missing_corpus.cfg").write_text(f"corpus = {workspace / 'missing.txt'}\n")
        assert main([a.format(ws=workspace) for a in argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert "Traceback" not in err
