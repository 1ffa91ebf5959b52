"""Planted mutations of the fast paths, and the tests that must catch each one.

Each mutant is one exact text edit of one file: ``old``, which must occur
exactly once in it, becomes ``new``.  ``tests`` are pytest node ids, and
each of them must fail under the mutant; a class, a module or a
parametrized function fails when any test in it fails.  A refactor that
moves a mutated line carries its mutant along or retires it, and
``tests/test_mutants.py`` checks that every ``old`` text is still there.

    python3 tools/mutants.py [--workdir DIR] [NAME ...]

copies the tree (without ``.git`` and run outputs) into a temporary
directory, or into DIR, applies one mutant at a time there, runs only that
mutant's tests, and prints each mutant as killed or survived.  A mutant is
killed when every one of its tests fails; one whose tests pass, error or
time out survived.  The script exits 1 if any mutant survived.  The whole
run takes minutes, so it is not part of tier-1.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
TIMEOUT_S = 900
IGNORED = shutil.ignore_patterns(
    ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".benchmarks", "out", "*.egg-info"
)


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    old: str
    new: str
    tests: tuple[str, ...]


_DECODER = "src/beamfuse/decoder.py"
_LM = "src/beamfuse/lm.py"
_TOKENIZATION = "src/beamfuse/tokenization.py"
_TESTS = "tests/test_decoder.py::"
_RESUMED = "tests/test_tokenization.py::TestResumedEncoding::test_resume_equals_encode_word"

MUTANTS = (
    Mutant(
        "held keyed on tokens alone",
        _DECODER,
        "        key = (tokens, id(views))\n",
        "        key = tokens\n",
        (
            _TESTS + "TestOneRequestTable::test_stay_with_other_views_gets_its_own_entry",
            _TESTS + "TestShallowRequestsPerParent::test_every_shape",
            _TESTS + "TestShallowRequestsAcrossSteps::test_consecutive_blocks_of_real_decodes",
        ),
    ),
    Mutant(
        "held updated without clear",
        _DECODER,
        "    held.clear()\n    held.update(kept)\n",
        "    held.update(kept)\n",
        (
            _TESTS + "TestShallowRequestsPerParent::test_every_shape",
            _TESTS + "TestShallowRequestsAcrossSteps::test_consecutive_blocks_of_real_decodes",
        ),
    ),
    Mutant(
        "family count also counts children with no new tokens",
        _DECODER,
        "        hypotheses += len(tails) if d > 0 else len(tails) - tails.count(())\n",
        "        hypotheses += len(tails) if d >= 0 else len(tails) - tails.count(())\n",
        (
            _TESTS + "TestFamilyCounts::test_a_family_batch_counts_as_its_requests",
            _TESTS + "TestFamilyCounts::test_children_with_no_new_tokens_count_nothing",
            _TESTS + "TestDecoderCounters::test_counts_equal_scorer_boundary",
        ),
    ),
    Mutant(
        "delayed family without its empty tail",
        _DECODER,
        "h.views[i].lm_tokens, ((),)) for h in beam])\n",
        "h.views[i].lm_tokens, ()) for h in beam])\n",
        (
            _TESTS + "TestDecodeMatchesReference::test_decode_equals_reference",
            "tests/test_decode_grid.py::test_slice_matches_the_committed_origin",
            _TESTS + "TestApplyLmScores::test_scores_cover_current_words",
        ),
    ),
    Mutant(
        "finalization's tails without the </s> append",
        _DECODER,
        "(cache, base, (tails[0] + (EOS_ID,),))",
        "(cache, base, tails)",
        (
            _TESTS + "TestFinalization::test_requests_equal_from_scratch_retokenization",
            _TESTS + "TestDecodeMatchesReference::test_decode_equals_reference",
        ),
    ),
    Mutant(
        "family reused though its labels changed",
        _DECODER,
        "        if last_sent is None or last_sent[0] != labels:\n",
        "        if last_sent is None or len(last_sent[0]) != len(labels):\n",
        (
            _TESTS + "TestShallowRequestsPerParent::test_every_shape",
            _TESTS + "TestShallowRequestsAcrossSteps::test_consecutive_blocks_of_real_decodes",
        ),
    ),
    Mutant(
        "shortest fires on >=",
        _DECODER,
        "        return shortest > prev_shortest\n",
        "        return shortest >= prev_shortest\n",
        (
            _TESTS + "TestFusable",
            "tests/test_decode_grid.py::test_slice_matches_the_committed_origin",
        ),
    ),
    Mutant(
        "DecodeCounters.steps starts at 1",
        _DECODER,
        "    steps: int = 0\n",
        "    steps: int = 1\n",
        (
            _TESTS + "TestLabelSync::test_one_scorer_call_per_step",
            "tests/test_decode_grid.py::test_slice_matches_the_committed_origin",
        ),
    ),
    Mutant(
        "family cache one token short of its base",
        _LM,
        "family, _record(PrefixCacheEntry, (len(base), top[1], top[2], base)), scores",
        "family, _record(PrefixCacheEntry, (len(base) - 1, top[1], top[2], base)), scores",
        ("tests/test_lm.py::TestSiblingShortcut::test_batch_equals_reference",),
    ),
    Mutant(
        "view cache one token short of its base",
        _LM,
        "caches.append(_record(PrefixCacheEntry, (len(base), top[1], top[2], base)))",
        "caches.append(_record(PrefixCacheEntry, (len(base) - 1, top[1], top[2], base)))",
        (
            "tests/test_lm.py::TestSiblingShortcut::test_batch_equals_reference",
            "tests/test_lm.py::TestSharedPrefixProperty::test_batch_equals_reference",
        ),
    ),
    Mutant(
        "sibling step without the vocabulary-range guard",
        _LM,
        "            if 0 <= token < size:\n",
        "            if True:\n",
        (
            "tests/test_lm.py::TestSiblingRows"
            "::test_a_token_outside_the_vocabulary_raises_on_either_path",
        ),
    ),
    Mutant(
        "row slot off by 1e-12",
        _LM,
        "                    lp = row[token] = step(ctx, token)[0]\n",
        "                    lp = step(ctx, token)[0]\n"
        "                    row[token] = lp + 1e-12\n",
        ("tests/test_lm.py::TestSiblingRows::test_every_filled_slot_is_the_step",),
    ),
    Mutant(
        "tail-stem node reused without comparing the stem",
        _LM,
        "            if tail[:-1] != stem:\n",
        "            if stem is None:\n",
        ("tests/test_lm.py::TestSiblingShortcut::test_batch_equals_reference",),
    ),
    Mutant(
        "tails type check removed",
        _LM,
        "        if not isinstance(tails, tuple):\n"
        "            raise LMError(f\"a family's tails must be a tuple, got {type(tails).__name__}\")\n",
        "",
        ("tests/test_lm.py::TestFamilyBatch::test_tails_that_are_not_a_tuple_raise",),
    ),
    Mutant(
        "memo hit without the identity check",
        _LM,
        # the memo keyed by an id alone: it neither checks nor holds the family
        "            if known is None or known[0] is not family:\n"
        "                known = answer(roots, family)\n",
        "            if known is None:\n"
        "                known = (None, *answer(roots, family)[1:])\n",
        ("tests/test_lm.py::TestAnswerMemo::test_a_reused_id_gets_its_own_answer",),
    ),
    Mutant(
        "base type check removed",
        _LM,
        "        if not isinstance(tokens, tuple):\n"
        "            raise LMError(f\"a family's base must be a tuple, got {type(tokens).__name__}\")\n",
        "",
        ("tests/test_lm.py::TestFamilyBatch::test_a_base_that_is_not_a_tuple_raises",),
    ),
    Mutant(
        "open word fixes no piece within the longest piece of its end",
        _TOKENIZATION,
        "    fixed, offset = greedy(text, len(text) - reach + 1)\n",
        "    fixed, offset = greedy(text, len(text) - reach)\n",
        (_RESUMED,),
    ),
    Mutant(
        "stub cut one character late",
        _TOKENIZATION,
        "    return tuple(fixed), text[offset:]\n",
        "    return tuple(fixed), text[offset + 1 :]\n",
        (_RESUMED, _TESTS + "TestShallowRequestsPerParent::test_every_shape"),
    ),
    Mutant(
        "suffix keyed without its glue",
        _DECODER,
        "built[c] = fixed + lm_tok.encode_rest(stub + glue) + rest\n",
        "built[c] = fixed + lm_tok.encode_rest(stub) + rest\n",
        (
            _TESTS + "TestShallowRequestsPerParent::test_every_shape",
            _TESTS + "TestShallowRequestsAcrossSteps::test_consecutive_blocks_of_real_decodes",
        ),
    ),
    Mutant(
        "piece table of the first LM for every LM",
        _DECODER,
        "    tables = [_piece_table(asr_tok, spec.tokenizer) for spec in lms]\n",
        "    tables = [_piece_table(asr_tok, lms[0].tokenizer) for spec in lms]\n",
        (
            _TESTS + "TestShallowRequestsPerParent::test_every_shape",
            _TESTS + "TestShallowRequestsAcrossSteps::test_consecutive_blocks_of_real_decodes",
        ),
    ),
)


def failed_ids(output: str) -> list[str]:
    """The node ids that pytest's ``-rf`` short summary lists as failed."""
    prefix = "FAILED "
    return [
        line[len(prefix) :].split(" - ", 1)[0]
        for line in output.splitlines()
        if line.startswith(prefix)
    ]


def caught(test: str, failed: list[str]) -> bool:
    """Whether node ``test`` failed: it, or a test inside it, is among ``failed``."""
    return any(f == test or f.startswith((test + "::", test + "[")) for f in failed)


def run_mutant(tree: Path, mutant: Mutant) -> tuple[bool, list[str], float]:
    """Apply ``mutant`` in ``tree``, run its tests, restore the file.

    Returns whether it was killed, the named tests that did not fail, and
    the seconds its tests took.
    """
    path = tree / mutant.path
    original = path.read_text(encoding="utf-8")
    if original.count(mutant.old) != 1:
        raise SystemExit(f"{mutant.name}: `old` occurs {original.count(mutant.old)} times")
    path.write_text(original.replace(mutant.old, mutant.new), encoding="utf-8")
    cmd = [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider", *mutant.tests]
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    started = time.perf_counter()
    try:
        proc = subprocess.run(
            cmd, cwd=tree, env=env, capture_output=True, text=True, timeout=TIMEOUT_S
        )
        failed = failed_ids(proc.stdout) if proc.returncode == 1 else []
    except subprocess.TimeoutExpired:
        failed = []
    finally:
        path.write_text(original, encoding="utf-8")
    missed = [test for test in mutant.tests if not caught(test, failed)]
    return not missed, missed, time.perf_counter() - started


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("names", nargs="*", help="run only these mutants (default: all)")
    parser.add_argument("--workdir", type=Path,
                        help="make the temporary copy of the tree here (default: the system's)")
    args = parser.parse_args(argv)
    known = {m.name: m for m in MUTANTS}
    unknown = [name for name in args.names if name not in known]
    if unknown:
        parser.error(f"unknown mutants: {unknown}")
    chosen = [known[name] for name in args.names] or list(MUTANTS)

    with tempfile.TemporaryDirectory(dir=args.workdir) as scratch:
        tree = Path(scratch) / "tree"
        shutil.copytree(ROOT, tree, ignore=IGNORED)
        survived = 0
        for mutant in chosen:
            killed, missed, seconds = run_mutant(tree, mutant)
            survived += not killed
            verdict = "killed" if killed else "SURVIVED"
            print(f"{verdict:8}  {seconds:6.1f} s  {mutant.name}", flush=True)
            for test in missed:
                print(f"          did not fail: {test}", flush=True)
    print(f"{len(chosen) - survived} of {len(chosen)} mutants killed")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
