"""Run the decode benchmark in alternating parent/change pairs and record every run.

The change is the checkout that holds this script; the parent is a second
checkout of the parent commit (made with ``git archive`` or ``git clone``):

    python3 tools/bench_pairs.py --parent ../parent --pr 12 \\
        --workload ctc_shortest --seed 101 --pairs 10 --change "what changed"

Each run is one ``python3 perfbench/run.py --workload W --seed S --seconds T
--trace 0`` process in one checkout, and only one process runs at a time.
Pair ``i`` runs the parent first when ``i`` is even and the change first
when it is odd.  After the claimed workload, every other workload named in
``BENCHMARK.json`` gets ``--other-pairs`` pairs at the same seed.  With
``--grid`` both checkouts also fingerprint ``tools/decode_grid.py``'s decode
grid, labelled with the decode count it prints.  The records go to
``BENCH_<pr>.json`` in the change's checkout, with ``ms_per_frame`` as the
claimed metric.  An existing file is never overwritten: with ``--append``
the runs are added to its ``batches`` list as one more batch, and without it
the script stops before running anything.  A summary of the runs just made,
per workload and end-to-end metric (medians, the parent's quartile spread,
the pairs the change won), is printed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

CHANGE = Path(__file__).resolve().parents[1]
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


def summarize(records: list[dict], metrics: list[dict]) -> list[str]:
    """Per workload and metric: medians, the parent's quartile spread, pairs won."""
    lines = []
    for workload in dict.fromkeys(r["workload"] for r in records):
        runs = {}
        for r in records:
            if r["workload"] == workload:
                runs[(r["pair"], r["side"])] = r["result"]["metrics"]
        pairs = sorted({pair for pair, _ in runs})
        for metric in metrics:
            name = metric["name"]
            parent = [runs[(p, "parent")][name]["value"] for p in pairs]
            change = [runs[(p, "change")][name]["value"] for p in pairs]
            sign = 1 if metric["better"] == "lower" else -1
            wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
            spread = 0.0
            if len(parent) >= 2:
                q1, _, q3 = statistics.quantiles(parent, n=4)
                spread = q3 - q1
            p_med, c_med = statistics.median(parent), statistics.median(change)
            rel = (c_med - p_med) / p_med if p_med else 0.0
            lines.append(f"{workload:20s} {name:14s} parent {p_med:.6g} change {c_med:.6g}"
                         f" ({rel:+.1%}) parent IQR {spread:.3g} change wins {wins}/{len(pairs)}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent")
    parser.add_argument("--pr", type=int, required=True, help="writes BENCH_<pr>.json")
    parser.add_argument("--workload", required=True, help="the workload the gain is claimed on")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--other-pairs", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--change", default="", help="one sentence on what the change does")
    parser.add_argument("--grid", action="store_true", help="also hash the decode grid")
    parser.add_argument("--append", action="store_true",
                        help="add the runs to an existing BENCH_<pr>.json as one more batch")
    args = parser.parse_args(argv)

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
    bench = json.loads((sides["change"] / "BENCHMARK.json").read_text())
    others = [w["name"] for w in bench["workloads"] if w["name"] != args.workload]

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
            "claimed": {"metric": "ms_per_frame", "workload": args.workload, "seed": args.seed,
                        "pairs": args.pairs, "records": records},
        }
    if args.grid:
        out["decode_grid"] = {}
        for side, checkout in sides.items():
            label, digest = grid_hash(checkout)
            out["decode_grid"].setdefault(label, {})[side] = digest
    path.write_text(json.dumps(out, indent=1) + "\n")
    print("\n".join(summarize(records, bench["end_to_end"])))
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
