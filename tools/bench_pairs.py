"""Run the decode benchmark in alternating parent/change pairs and record every run.

The change is the checkout that holds this script; the parent is a second
checkout of the parent commit (made with ``git archive`` or ``git clone``):

    python3 tools/bench_pairs.py --parent ../parent --pr 12 \\
        --workload ctc_shortest --seed 101 --pairs 10 --change "what changed"

Each run is one ``python3 perfbench/run.py --workload W --seed S --seconds T
--trace 0`` process in one checkout, and only one process runs at a time.
Pair ``i`` runs the parent first when ``i`` is even and the change first
when it is odd.  After the claimed workload, every other workload named in
``BENCHMARK.json`` gets ``--other-pairs`` pairs at the same seed.  Without
``--workload`` nothing is claimed: every workload gets ``--pairs`` pairs.
With ``--grid`` both checkouts also fingerprint ``tools/decode_grid.py``'s
decode grid, labelled with the decode count it prints.  The records go to
``BENCH_<pr>.json`` in the change's checkout, with ``ms_per_frame`` as the
claimed metric, or ``"claimed": null`` and the records at the top level
when nothing is claimed.  An existing file is never overwritten: with
``--append`` the runs are added to its ``batches`` list as one more batch,
and without it the script stops before running anything.  A summary of the runs just made,
per workload and end-to-end metric (medians, the parent's quartile spread,
the pairs the change won), is printed, with a line per workload that says
whether ``DETERMINISTIC``'s metrics are identical on both sides of every
pair.  That line only reports; the verdict does not read it.

A claimed gain also gets the claim rule's verdict (``verdict``), written
into the file with the inputs it was decided on.  The rule: at least
``MIN_PAIRS`` pairs of the claimed workload; the change wins at least
``MIN_WIN_SHARE`` of them; its median beats the parent's by more than the
parent's quartile spread; every run is correct, and on every workload no
end-to-end metric's median is worse than the parent's by more than its
``BENCHMARK.json`` bound.  The verdict of a committed file's records is
printed without running anything by

    python3 tools/bench_pairs.py --verdict BENCH_19.json [--workload W]

A seed that a committed ``BENCH_*.json`` records, or one of
``UNRECORDED_SEEDS``, is refused: a gain is claimed on a workload no
earlier run was tuned against.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

CHANGE = Path(__file__).resolve().parents[1]
MIN_PAIRS = 10
MIN_WIN_SHARE = 0.9
CLAIMED_METRIC = "ms_per_frame"
# end-to-end metrics a seed fixes: a change that keeps decoding as it was keeps them exactly
DETERMINISTIC = ("nll_per_frame", "lm_calls", "lm_tokens")
# seeds used for benchmarks before every run was recorded in a BENCH_*.json
UNRECORDED_SEEDS = frozenset(
    [*range(1, 18), 71, 229, 419, 421, 431, 433, 439, 991, 999, 1001, 1002, 1103, 1201, 3001,
     5003]
)
ORDER = (
    "pair i runs the parent first when i is even and the change first when i is odd; "
    "'position' is 0 for the side that ran first, 'started' is the Unix start time"
)


def _env() -> dict:
    # each checkout imports its own sources; nothing from the caller's path
    return {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """One benchmark process in ``checkout``: its info line and its result line."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, env=_env(), capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{checkout}: {' '.join(cmd)} failed:\n{proc.stderr}")
    return json.loads(lines[-2]), json.loads(lines[-1])


def run_pairs(sides: dict, workload: str, seed: int, seconds: float, pairs: int) -> list[dict]:
    records = []
    for pair in range(pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for position, side in enumerate(order):
            started = time.time()
            info, result = run_once(sides[side], workload, seed, seconds)
            records.append({"workload": workload, "pair": pair, "side": side,
                            "position": position, "started": started,
                            "info": info, "result": result})
            value = result["metrics"]["ms_per_frame"]["value"]
            print(f"{workload} pair {pair} {side}: ms_per_frame {value:.4f}"
                  f" correct {result['correct']}", file=sys.stderr)
    return records


def grid_hash(checkout: Path) -> tuple[str, str]:
    """``tools/decode_grid.py`` in ``checkout``: its ``<n> decodes`` label and its digest."""
    proc = subprocess.run([sys.executable, "tools/decode_grid.py"], cwd=checkout,
                          env={**_env(), "PYTHONPATH": "src"}, capture_output=True, text=True,
                          check=True)
    label, digest = proc.stdout.strip().splitlines()[-1].split(" sha256 ")
    return f"tools/decode_grid.py: {label}", digest


def _seeds(value) -> set[int]:
    """Every ``seed`` recorded anywhere in a BENCH file's JSON."""
    if isinstance(value, dict):
        found = {value["seed"]} if isinstance(value.get("seed"), int) else set()
        return found.union(*(_seeds(v) for v in value.values()))
    if isinstance(value, list):
        return set().union(*(_seeds(v) for v in value))
    return set()


def used_seeds(root: Path) -> set[int]:
    """The seeds the ``BENCH_*.json`` files under ``root`` record, and ``UNRECORDED_SEEDS``."""
    seeds = set(UNRECORDED_SEEDS)
    for path in root.glob("BENCH_*.json"):
        seeds |= _seeds(json.loads(path.read_text()))
    return seeds


def _paired(records: list[dict], workload: str, metric: str) -> tuple[list, list]:
    """The parent's and the change's values of ``metric`` on ``workload``, in pair order."""
    runs = {(r["pair"], r["side"]): r["result"]["metrics"][metric]["value"]
            for r in records if r["workload"] == workload}
    pairs = sorted(p for p, side in runs if side == "parent" and (p, "change") in runs)
    return [runs[(p, "parent")] for p in pairs], [runs[(p, "change")] for p in pairs]


def _spread(values: list[float]) -> float:
    """The distance between the quartiles, 0 for fewer than two values."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def verdict(records: list[dict], workload: str, end_to_end: list[dict]) -> dict:
    """The claim rule on ``records`` for a lower ``CLAIMED_METRIC`` on ``workload``.

    Returns ``{"verdict": "claimed" | "not claimed", "checks": ...}``, each
    check with its inputs and ``ok``.  ``end_to_end`` is ``BENCHMARK.json``'s
    list of metrics with their ``better`` direction and relative ``bound``.
    """
    parent, change = _paired(records, workload, CLAIMED_METRIC)
    wins = sum(c < p for p, c in zip(parent, change))
    p_med = statistics.median(parent) if parent else None
    c_med = statistics.median(change) if change else None
    gain = p_med - c_med if parent else None
    spread = _spread(parent)
    worse = []
    for name in dict.fromkeys(r["workload"] for r in records):
        for metric in end_to_end:
            p_vals, c_vals = _paired(records, name, metric["name"])
            if not p_vals:
                continue
            p, c = statistics.median(p_vals), statistics.median(c_vals)
            sign = 1 if metric["better"] == "lower" else -1
            loss = sign * (c - p)
            rel = loss / abs(p) if p else (math.inf if loss > 0 else 0.0)
            if rel > metric["bound"]:
                worse.append({"workload": name, "metric": metric["name"], "parent": p,
                              "change": c, "relative": rel, "bound": metric["bound"]})
    failed = sum(not r["result"]["correct"] for r in records)
    checks = {
        "pairs": {"pairs": len(parent), "min": MIN_PAIRS, "ok": len(parent) >= MIN_PAIRS},
        "wins": {"wins": wins, "pairs": len(parent), "min_share": MIN_WIN_SHARE,
                 "ok": bool(parent) and wins >= MIN_WIN_SHARE * len(parent)},
        "margin": {"parent_median": p_med, "change_median": c_med, "gain": gain,
                   "parent_quartile_spread": spread, "ok": gain is not None and gain > spread},
        "bounds": {"beyond_bound": worse, "incorrect_runs": failed,
                   "ok": not worse and failed == 0},
    }
    ok = all(check["ok"] for check in checks.values())
    return {"workload": workload, "metric": CLAIMED_METRIC,
            "verdict": "claimed" if ok else "not claimed", "checks": checks}


def file_records(bench: dict) -> tuple[str | None, list[dict]]:
    """A BENCH file's claimed workload (or None) and its first batch of records."""
    claimed = bench.get("claimed")
    if claimed:
        return claimed["workload"], claimed["records"]
    return None, bench["records"]


def identical(records: list[dict], workload: str) -> dict[str, bool]:
    """Per ``DETERMINISTIC`` metric: whether both sides of every pair of ``workload`` agree."""
    out = {}
    for name in DETERMINISTIC:
        parent, change = _paired(records, workload, name)
        out[name] = bool(parent) and parent == change
    return out


def summarize(records: list[dict], metrics: list[dict]) -> list[str]:
    """Per workload and metric: medians, the parent's quartile spread, pairs won.

    Each workload's last line says which ``DETERMINISTIC`` metrics are
    identical on both sides of every pair and which differ.
    """
    lines = []
    for workload in dict.fromkeys(r["workload"] for r in records):
        for metric in metrics:
            name = metric["name"]
            parent, change = _paired(records, workload, name)
            sign = 1 if metric["better"] == "lower" else -1
            wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
            p_med, c_med = statistics.median(parent), statistics.median(change)
            rel = (c_med - p_med) / p_med if p_med else 0.0
            lines.append(f"{workload:20s} {name:14s} parent {p_med:.6g} change {c_med:.6g}"
                         f" ({rel:+.1%}) parent IQR {_spread(parent):.3g}"
                         f" change wins {wins}/{len(parent)}")
        same = identical(records, workload)
        lines.append(f"{workload:20s} identical in every pair: "
                     + (", ".join(n for n in DETERMINISTIC if same[n]) or "none")
                     + "; differ: " + (", ".join(n for n in DETERMINISTIC if not same[n]) or "none"))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, help="checkout of the parent")
    parser.add_argument("--pr", type=int, help="writes BENCH_<pr>.json")
    parser.add_argument("--workload", help="the workload the gain is claimed on (default: none)")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--other-pairs", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--change", default="", help="one sentence on what the change does")
    parser.add_argument("--grid", action="store_true", help="also hash the decode grid")
    parser.add_argument("--append", action="store_true",
                        help="add the runs to an existing BENCH_<pr>.json as one more batch")
    parser.add_argument("--verdict", type=Path,
                        help="print the claim rule's verdict on this BENCH file's records and stop")
    args = parser.parse_args(argv)
    bench = json.loads((CHANGE / "BENCHMARK.json").read_text())

    if args.verdict is not None:
        claimed, records = file_records(json.loads(args.verdict.read_text()))
        workload = args.workload or claimed
        if workload is None:
            raise SystemExit(f"{args.verdict} claims nothing; name a --workload")
        print(json.dumps(verdict(records, workload, bench["end_to_end"]), indent=1))
        return 0
    if args.parent is None or args.pr is None or args.seed is None:
        parser.error("--parent, --pr and --seed are required unless --verdict is given")
    if args.seed in used_seeds(CHANGE):
        raise SystemExit(f"seed {args.seed} is used: a BENCH_*.json records it, or it is one of"
                         " bench_pairs.UNRECORDED_SEEDS")
    sides = {"parent": args.parent.resolve(), "change": CHANGE}
    for checkout in sides.values():
        if not (checkout / "perfbench" / "run.py").is_file():
            raise SystemExit(f"no perfbench/run.py under {checkout}")
    path = sides["change"] / f"BENCH_{args.pr}.json"
    if path.exists() != args.append:
        raise SystemExit(f"{path} exists; pass --append to add a batch to it" if path.exists()
                         else f"--append needs an existing {path}")
    if args.append and args.grid:
        raise SystemExit("--grid records the decode grid with the first batch only")
    others = [w["name"] for w in bench["workloads"] if w["name"] != args.workload]

    if args.workload is None:
        pairs = {w: args.pairs for w in others}
    else:
        pairs = {args.workload: args.pairs, **{w: args.other_pairs for w in others}}
    records = []
    for workload, count in pairs.items():
        records += run_pairs(sides, workload, args.seed, args.seconds, count)
    if args.append:
        out = json.loads(path.read_text())
        out.setdefault("batches", []).append(
            {"seed": args.seed, "seconds": args.seconds, "pairs": pairs, "records": records})
    else:
        out = {
            "change": args.change,
            "command": (f"python3 perfbench/run.py --workload W --seed S --seconds {args.seconds:g}"
                        " --trace 0, run in a checkout of the parent and of the change,"
                        " one process at a time"),
            "nproc": os.cpu_count(),
            "order": ORDER,
        }
        if args.workload is None:
            out.update(claimed=None, seed=args.seed, pairs=pairs, records=records)
        else:
            out["claimed"] = {"metric": CLAIMED_METRIC, "workload": args.workload,
                              "seed": args.seed, "pairs": args.pairs, "records": records}
            out["verdict"] = verdict(records, args.workload, bench["end_to_end"])
    if args.grid:
        out["decode_grid"] = {}
        for side, checkout in sides.items():
            label, digest = grid_hash(checkout)
            out["decode_grid"].setdefault(label, {})[side] = digest
    path.write_text(json.dumps(out, indent=1) + "\n")
    print("\n".join(summarize(records, bench["end_to_end"])))
    if "verdict" in out and not args.append:
        print(f"verdict: {out['verdict']['verdict']}")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
