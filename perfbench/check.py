"""Self-checks of the photonbox benchmark.

    python3 perfbench/check.py spread --workload run_batch --seeds 1-10
    python3 perfbench/check.py counters --workload sweep_dense --seed 1 --other-seed 2

``spread`` runs the untraced benchmark once per seed, for BENCHMARK.json's
run_seconds (the run length the bounds were set for), and prints, for every
end-to-end metric, the median, the quartiles and the spread (distance
between the quartiles as a share of the median) next to the metric's bound
in BENCHMARK.json; it fails when any spread exceeds its bound.  ``counters``
runs the traced benchmark twice on one seed and once on another; it fails
unless every exact counter repeats on the first seed and every run is
correct.  Both print one JSON object and exit 1 when a check fails.  Runs
are sequential, one process at a time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EXACT_SUFFIXES = (".calls", ".rows", ".steps", "_computed", "reintegration_ratio", "validate_per_state")
EXACT_NAMES = ("cli.out_bytes", "fail_ratio", "known_defect.failed")


def bench(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True, timeout=600)
    return json.loads(proc.stdout.splitlines()[-1])


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(args: argparse.Namespace) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs = [bench(args.workload, seed, seconds, 0) for seed in _seeds(args.seeds)]
    report = {"workload": args.workload, "seeds": args.seeds, "seconds": seconds,
              "correct": all(r["correct"] for r in runs), "metrics": {}}
    ok = report["correct"]
    for name in bounds:
        values = [r["metrics"][name]["value"] for r in runs]
        q1, q2, q3 = statistics.quantiles(values, n=4)
        share = (q3 - q1) / q2
        report["metrics"][name] = {"median": q2, "q1": q1, "q3": q3, "spread": share,
                                   "bound": bounds[name], "values": values}
        if share > bounds[name]:
            ok = False
    print(json.dumps(report, indent=1))
    return 0 if ok else 1


def _exact(result: dict) -> dict:
    exact = {k: v["value"] for k, v in result["metrics"].items()
             if k.endswith(EXACT_SUFFIXES) or k in EXACT_NAMES}
    exact["attempted"] = result["attempted"]
    exact["failed"] = result["failed"]
    return exact


def counters(args: argparse.Namespace) -> int:
    first, again, other = (bench(args.workload, s, 1, 1) for s in (args.seed, args.seed, args.other_seed))
    a, b = _exact(first), _exact(again)
    differ = {k: (a[k], b[k]) for k in a if a[k] != b[k]}
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "other_seed": args.other_seed,
        "correct": [first["correct"], again["correct"], other["correct"]],
        "exact_counters": len(a),
        "differ": differ,
        "counters_seed": a,
        "counters_other_seed": _exact(other),
    }
    print(json.dumps(report, indent=1))
    return 0 if not differ and all(report["correct"]) else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("spread")
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10")
    p.set_defaults(func=spread)
    c = sub.add_parser("counters")
    c.add_argument("--workload", required=True)
    c.add_argument("--seed", type=int, default=1)
    c.add_argument("--other-seed", type=int, default=2)
    c.set_defaults(func=counters)
    args = parser.parse_args()
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
