"""Self-test: the traced counts of a workload repeat exactly.

    python3 perfbench/selftest.py [--workload witness] [--seed 0] [--record FILE]

Run from the repository root.  Runs one traced workload twice, in two fresh
processes with the same seed, and fails unless every machine-independent
per-layer metric (all but the `bench.*` ones and the `s` timings) is
identical.  With --record, the counts are stored under the workload's name
in FILE, a JSON object (see baseline_counts.json).
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def traced_counts(workload: str, seed: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", "1"]
    res = subprocess.run(cmd, cwd=BENCH.parent, capture_output=True, text=True, timeout=600, check=True)
    result = json.loads(res.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: {result['failed']} failed ops")
    return {
        name: m["value"]
        for name, m in result["metrics"].items()
        if not name.startswith("bench.") and m["unit"] != "s"
    }


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", default="witness", choices=["witness", "atlas", "ideal"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--record", type=Path, help="JSON file to store the counts in")
    args = p.parse_args()
    first = traced_counts(args.workload, args.seed)
    second = traced_counts(args.workload, args.seed)
    diff = {k: (first[k], second.get(k)) for k in first if first[k] != second.get(k)}
    if diff or first.keys() != second.keys():
        print(f"counts differ between two traced runs: {diff}")
        return 1
    print(f"{len(first)} counts identical across two traced {args.workload} runs, seed {args.seed}")
    if args.record:
        data = json.loads(args.record.read_text()) if args.record.exists() else {}
        data[args.workload] = {"seed": args.seed, "counts": first}
        args.record.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
