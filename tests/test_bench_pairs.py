"""The claim rule and the seed refusal of ``tools/bench_pairs.py``."""

import importlib.util
import json
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

END_TO_END = json.loads((_ROOT / "BENCHMARK.json").read_text())["end_to_end"]
CLAIMED = "labelsync_shortest"
OTHER = "ctc_shortest"
# ten parent runs 1.00 .. 1.09: median 1.045, quartiles 1.0175 and 1.0725
PARENT = [1.0 + 0.01 * i for i in range(10)]
SPREAD = 0.055


def _runs(workload, parent, change, other=None, correct=True):
    """Paired records of one workload: ``ms_per_frame`` as given, every other metric 1.0.

    ``other`` maps a metric name to the change side's value of it.
    """
    records = []
    for pair, (p, c) in enumerate(zip(parent, change)):
        for side, value in (("parent", p), ("change", c)):
            metrics = {m["name"]: {"value": 1.0} for m in END_TO_END}
            metrics["ms_per_frame"] = {"value": value}
            if side == "change":
                metrics.update({k: {"value": v} for k, v in (other or {}).items()})
            records.append({"workload": workload, "pair": pair, "side": side,
                            "result": {"correct": correct, "metrics": metrics}})
    return records


def _verdict(change, parent=PARENT, others=()):
    records = _runs(CLAIMED, parent, change) + [r for o in others for r in o]
    return bench_pairs.verdict(records, CLAIMED, END_TO_END)


def _faster(gain):
    return [p - gain for p in PARENT]


def test_a_clear_gain_is_claimed():
    got = _verdict(_faster(0.2), others=[_runs(OTHER, [1.0] * 3, [1.0] * 3)])
    assert got["verdict"] == "claimed"
    assert got["checks"]["margin"]["parent_quartile_spread"] == pytest.approx(SPREAD)


@pytest.mark.parametrize("pairs, ok", [(10, True), (9, False)])
def test_pairs_threshold(pairs, ok):
    got = _verdict(_faster(0.2)[:pairs], parent=PARENT[:pairs])
    assert got["checks"]["pairs"]["ok"] is ok
    assert (got["verdict"] == "claimed") is ok


@pytest.mark.parametrize("losses, ok", [(1, True), (2, False)])
def test_wins_threshold(losses, ok):
    change = _faster(0.2)
    for i in range(losses):
        change[i] = PARENT[i] + 0.001
    got = _verdict(change)
    assert got["checks"]["wins"]["wins"] == 10 - losses
    assert got["checks"]["wins"]["ok"] is ok
    assert (got["verdict"] == "claimed") is ok


@pytest.mark.parametrize("gain, ok", [(SPREAD + 0.002, True), (SPREAD - 0.002, False)])
def test_margin_threshold(gain, ok):
    got = _verdict(_faster(gain))
    assert got["checks"]["wins"]["wins"] == 10
    assert got["checks"]["margin"]["ok"] is ok
    assert (got["verdict"] == "claimed") is ok


@pytest.mark.parametrize("metric", [m["name"] for m in END_TO_END])
@pytest.mark.parametrize("factor, ok", [(0.9, True), (1.1, False)])
def test_every_metric_of_every_workload_within_its_bound(metric, factor, ok):
    spec = next(m for m in END_TO_END if m["name"] == metric)
    sign = 1 if spec["better"] == "lower" else -1
    worse = 1.0 + sign * factor * spec["bound"]
    ms = worse if metric == "ms_per_frame" else 1.0
    other = _runs(OTHER, [1.0] * 3, [ms] * 3, other={metric: worse})
    got = _verdict(_faster(0.2), others=[other])
    assert got["checks"]["bounds"]["ok"] is ok
    assert (got["verdict"] == "claimed") is ok
    if not ok:
        (beyond,) = got["checks"]["bounds"]["beyond_bound"]
        assert (beyond["workload"], beyond["metric"]) == (OTHER, metric)


def test_an_incorrect_run_is_no_claim():
    other = _runs(OTHER, [1.0] * 3, [1.0] * 3, correct=False)
    got = _verdict(_faster(0.2), others=[other])
    assert got["checks"]["bounds"]["incorrect_runs"] == 6
    assert got["verdict"] == "not claimed"


def test_summary_says_which_deterministic_metrics_are_identical():
    same = _runs(OTHER, [1.0] * 3, [0.9] * 3)
    # a last-bit difference within its bound, in one pair only
    moved = _runs(CLAIMED, PARENT, _faster(0.2))
    change = next(r for r in moved if r["pair"] == 4 and r["side"] == "change")
    change["result"]["metrics"]["lm_tokens"]["value"] = 1.0 + 1e-12
    records = same + moved
    assert bench_pairs.identical(records, OTHER) == dict.fromkeys(bench_pairs.DETERMINISTIC, True)
    assert bench_pairs.identical(records, CLAIMED) == {
        "nll_per_frame": True, "lm_calls": True, "lm_tokens": False
    }
    lines = bench_pairs.summarize(records, END_TO_END)
    assert f"{OTHER:20s} identical in every pair: nll_per_frame, lm_calls, lm_tokens;" \
        " differ: none" in lines
    assert f"{CLAIMED:20s} identical in every pair: nll_per_frame, lm_calls;" \
        " differ: lm_tokens" in lines
    # the line only reports: the verdict does not read it
    assert bench_pairs.verdict(records, CLAIMED, END_TO_END)["verdict"] == "claimed"


@pytest.mark.parametrize("name, workload, want", [
    ("BENCH_19.json", None, "claimed"),
    ("BENCH_20.json", CLAIMED, "not claimed"),
    ("BENCH_21.json", None, "claimed"),
    ("BENCH_23.json", None, "claimed"),
    ("BENCH_24.json", None, "claimed"),
    ("BENCH_25.json", None, "claimed"),
    ("BENCH_26.json", None, "claimed"),
])
def test_committed_records(name, workload, want, capsys):
    claimed, records = bench_pairs.file_records(json.loads((_ROOT / name).read_text()))
    assert bench_pairs.verdict(records, workload or claimed, END_TO_END)["verdict"] == want
    # and as ``bench_pairs.py --verdict FILE [--workload W]`` prints it
    argv = ["--verdict", str(_ROOT / name)] + (["--workload", workload] if workload else [])
    assert bench_pairs.main(argv) == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == want


def test_recorded_verdicts_recompute():
    # a verdict written into a BENCH file is what the rule gives on its records today
    recorded = 0
    for path in sorted(_ROOT.glob("BENCH_*.json")):
        bench = json.loads(path.read_text())
        if "verdict" not in bench:
            continue
        _, records = bench_pairs.file_records(bench)
        got = bench_pairs.verdict(records, bench["verdict"]["workload"], END_TO_END)
        assert json.loads(json.dumps(got)) == bench["verdict"], path.name
        recorded += 1
    assert recorded >= 4


def test_used_seeds_are_refused():
    used = bench_pairs.used_seeds(_ROOT)
    # recorded in BENCH_10.json's superseded batch, BENCH_12.json's batches, BENCH_20.json
    assert {61, 131, 137, 1307} <= used
    assert bench_pairs.UNRECORDED_SEEDS <= used
    for seed in (61, 5003):
        with pytest.raises(SystemExit, match=f"seed {seed} is used"):
            bench_pairs.main(["--parent", ".", "--pr", "0", "--seed", str(seed)])
