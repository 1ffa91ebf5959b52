"""Decode benchmark entry point.

    python3 perfbench/run.py --workload ctc_shortest --seed 7 --seconds 20 --trace 0

Run from the root of a checkout: the package is imported from its ``src``
directory, not from anything installed.  The last line of standard output
is the result object; the line before it describes the run (environment,
sample counts, WER, check errors).  Both, and with ``--trace 1`` the spans,
are also written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("ctc_shortest", "ctc_shallow", "labelsync_shortest"))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "beamfuse" / "__init__.py").is_file():
        print(f"error: no beamfuse sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import beamfuse

    if Path(beamfuse.__file__).resolve().parent != SRC / "beamfuse":
        print(f"error: imported beamfuse from {beamfuse.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import decodebench as bench

    workload = bench.WORKLOADS[args.workload]
    inputs = bench.prepare(workload, args.seed)
    if args.trace:
        outcome = bench.traced_run(workload, inputs)
    else:
        outcome = bench.timed_run(inputs, args.seconds)

    info = {"workload": args.workload, "trace": args.trace, "seconds": args.seconds,
            **bench.environment(args.seed), **outcome["info"]}
    result = {
        "correct": outcome["failed"] == 0,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in outcome["metrics"].items()},
    }
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"info": info, "result": result, "utterances": outcome.get("utterances", [])}
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if args.trace:
        (out_dir / f"{stem}-spans.json").write_text(json.dumps(outcome["trace"]))
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
