"""The tolerant record comparison of ``tools/decode_grid.py --against``."""

import copy
import importlib.util
import json
from pathlib import Path

import pytest


_PATH = Path(__file__).resolve().parents[1] / "tools" / "decode_grid.py"
_SPEC = importlib.util.spec_from_file_location("decode_grid", _PATH)
decode_grid = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(decode_grid)

NEG_INF = float("-inf")


def _record():
    best = {"text": "ab c", "tokens": (1, 5, 7, 2), "e2e_score": -3.25,
            "lm_scores": (-12.5, NEG_INF), "combined_score": -9.5}
    return ("labelsync", "shortest", "both", 5, {
        "best": best,
        "nbest": [best, {**best, "tokens": (1, 6, 2), "e2e_score": -4.0}],
        "counters": {"steps": 3, "lm_calls": 4, "lm_tokens": 9, "wall_seconds": 0.0},
        "trace": [{"step": 0, "fused": True, "shortest_len": 1,
                   "lm_state": ((1, -0.5), (2, -1.75))}],
    })


def _saved(records):
    # what --save writes and --against reads back: tuples become lists
    return json.loads(json.dumps(records))


def test_saved_records_compare_bit_identical():
    problems, drifts = decode_grid.compare([_record()], _saved([_record()]))
    assert problems == [] and drifts == [0.0]


def test_rounding_within_the_tolerance_is_its_drift():
    got = _record()
    got[4]["nbest"][1]["e2e_score"] = -4.0 * (1 + 2e-10)
    got[4]["trace"][0]["lm_state"] = ((1, -0.5 + 3e-10), (2, -1.75))
    problems, drifts = decode_grid.compare([got], _saved([_record()]))
    assert problems == []
    # 2e-10 on the e2e score (relative to 4), 3e-10 on the cum_logprob (below 1)
    assert drifts[0] == pytest.approx(3e-10, rel=1e-3)


def _change(path, value):
    def apply(record):
        *keys, last = path
        node = record[4]
        for key in keys:
            node = node[key]
        node[last] = value
    return apply


@pytest.mark.parametrize("change", [
    _change(("nbest", 1, "tokens"), (1, 7, 2)),
    _change(("best", "text"), "ab  c"),
    _change(("counters", "lm_calls"), 5),
    _change(("trace", 0, "shortest_len"), 2),
    _change(("trace", 0, "lm_state"), ((1, -0.5),)),
    _change(("trace", 0, "lm_state"), ((3, -0.5), (2, -1.75))),
    _change(("best", "e2e_score"), -3.25 - 1e-8),
    _change(("best", "lm_scores"), (-12.5, -1e300)),
    _change(("best", "combined_score"), NEG_INF),
    _change(("counters", "steps"), 3.0),
    _change(("trace",), []),
], ids=["nbest-tokens", "text", "counter", "shortest-len", "trace-length", "scored-len",
        "float-beyond-tolerance", "finite-where-inf", "inf-where-finite", "int-as-float",
        "trace-dropped"])
def test_differences_are_reported(change):
    got = copy.deepcopy(_record())
    change(got)
    problems, drifts = decode_grid.compare([got], _saved([_record()]))
    assert len(problems) == 1 and problems[0].startswith("decode 0 ")
    assert drifts == [None]


def test_a_missing_decode_is_reported():
    problems, drifts = decode_grid.compare([_record()], _saved([_record(), _record()]))
    assert problems == ["1 decodes against 2"] and drifts == [None]


def test_the_origin_keys_each_decode_by_its_utterance():
    other_beam = (*_record()[:3], 10, _record()[4])
    keys = [tuple(r[:5]) for r in decode_grid.origin([_record(), _record(), other_beam])]
    prefix = ("labelsync", "shortest", "both")
    assert keys == [(*prefix, 5, 0), (*prefix, 5, 1), (*prefix, 10, 0)]
    kept = {k: _record()[4][k] for k in ("best", "counters")}
    assert decode_grid.origin([_record()])[0][5] == kept


def test_origin_round_trip(tmp_path):
    path = tmp_path / "origin.json.gz"
    decode_grid.write_records(path, [_record()])
    problems, drifts = decode_grid.compare(decode_grid.origin([_record()]),
                                           decode_grid.read_records(path))
    assert problems == [] and drifts == [0.0]


# 2 utterances x both modes x every policy x every LM set at beam 10: 80 decodes
SLICE = {"ctc": (10,), "labelsync": (10,)}


@pytest.fixture(scope="module")
def slice_records():
    return decode_grid.grid_records(SLICE, utterances=2)


def test_slice_matches_the_committed_origin(slice_records):
    got = decode_grid.origin(slice_records)
    refs = {tuple(r[:5]): r for r in decode_grid.read_records(decode_grid.ORIGIN)}
    assert len(refs) == 1440 and len(got) == 80
    problems, _ = decode_grid.compare(got, [refs[tuple(g[:5])] for g in got])
    assert problems == []


def test_decode_order_does_not_matter(slice_records):
    # the encoding memos and the scorers' answers outlive a decode: one keyed too
    # coarsely could hide behind the order the decodes happen to run in; each
    # ``grid_records`` builds its own tokenizers and scorers, so their memos start cold
    backward = decode_grid.grid_records(SLICE, utterances=2, reverse=True)
    assert repr(backward) == repr(slice_records)
