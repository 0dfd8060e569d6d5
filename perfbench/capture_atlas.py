"""Regenerate atlas_table.csv, the verdict table the `atlas` workload checks.

Run from the repository root:  python3 perfbench/capture_atlas.py

It records status and rule (not the certificate digest, which depends on the
sampling seeds) of every row of `rncurves atlas -n 3` and `-n 4`.  Rerun it
only when a verdict is meant to change, and commit the table on its own.
"""

from __future__ import annotations

import contextlib
import csv
import io
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from rncurves import cli  # noqa: E402

from oracles import ATLAS_TABLE  # noqa: E402


def main() -> int:
    rows = []
    for n in (3, 4):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(["atlas", "-n", str(n), "--format", "csv"])
        if rc != 0:
            raise SystemExit(f"atlas -n {n} exited {rc}")
        for r in csv.DictReader(io.StringIO(buf.getvalue())):
            rows.append({"n": n, "counts": r["counts"], "status": r["status"], "rule": r["rule"]})
    with ATLAS_TABLE.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=["n", "counts", "status", "rule"], lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    print(f"wrote {len(rows)} rows to {ATLAS_TABLE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
