"""Independent answers every benchmark output is checked against.

None of these reads rncurves: the Hilbert values come from theorems in closed
form, the atlas verdicts from a table captured once and committed next to
this file, and witnesses are judged by the program's own `verify` command
run on the files the `witness` command wrote.  A legitimate change to any
verdict here is a change to the benchmark and lands on its own.
"""

from __future__ import annotations

import csv
from math import comb
from pathlib import Path

ATLAS_TABLE = Path(__file__).with_name("atlas_table.csv")

# Alexander-Hirschowitz (J. Algebraic Geom. 4, 1995): outside the quadrics,
# generic double points impose independent conditions except in these
# (n, d, s) cases, where they impose exactly one condition fewer.
AH_EXCEPTIONS = frozenset({(2, 4, 5), (3, 4, 9), (4, 3, 7), (4, 4, 14)})


def ah_double_points(n: int, d: int, s: int) -> int:
    """Hilbert function in degree d >= 3 of s generic double points of P^n."""
    if d < 3:
        raise ValueError("the quadric exceptions are not tabulated here")
    expected = min(comb(n + d, d), s * (n + 1))
    return expected - 1 if (n, d, s) in AH_EXCEPTIONS else expected


def hh_lines(n: int, d: int, l: int) -> int:
    """Hartshorne-Hirschowitz (1982): l generic lines of P^n, n >= 3, have
    maximal rank in every degree d."""
    if n < 3:
        raise ValueError("the theorem needs n >= 3")
    return min(comb(n + d, d), l * (d + 1))


def two_codim3_quadrics(n: int) -> int:
    """Hilbert function in degree 2 of two generic (n-3)-spaces of P^n."""
    return (n * n + 3 * n - 16) // 2


def check_defect_report(m: int, s: int, report: dict) -> str | None:
    """Closed-form rules for the quartic family of `rncurves.defectivity`:
    base dimension 3(m+1)^2, each double point expected to drop 2m+2, and
    defective exactly for m+2 <= s <= 2m+1."""
    base = 3 * (m + 1) ** 2
    expected = max(0, base - s * (2 * m + 2))
    if report.get("m") != m or report.get("s") != s:
        return f"report is for m={report.get('m')} s={report.get('s')}"
    if report.get("expected") != expected:
        return f"expected {report.get('expected')} != closed form {expected}"
    actual = report.get("actual")
    if s == 0 and actual != base:
        return f"s=0 dimension {actual} != 3(m+1)^2 = {base}"
    defective = m + 2 <= s <= 2 * m + 1
    if report.get("defective") is not defective:
        return f"defective={report.get('defective')}, rule says {defective}"
    if defective and not actual > expected:
        return f"defective report with actual {actual} <= expected {expected}"
    if not defective and actual != expected:
        return f"actual {actual} != expected {expected}"
    return None


def load_atlas_table() -> dict[tuple[int, tuple[int, ...]], tuple[str, str]]:
    """(n, counts) -> (status, rule) as captured by capture_atlas.py."""
    table = {}
    with ATLAS_TABLE.open(newline="") as fh:
        for row in csv.DictReader(fh):
            counts = tuple(int(x) for x in row["counts"].split(","))
            table[(int(row["n"]), counts)] = (row["status"], row["rule"])
    return table
