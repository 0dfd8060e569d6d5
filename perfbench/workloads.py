"""The three workloads: their inputs, made from the workload seed, and the
oracle each output is checked against.

An op is one `rncurves` command line.  The workload seed and the index of an
input set only pick the `--seed` values and the `seed` fields of `hilbert`
input files; the grids of weight vectors and arrangements are fixed, so
every input set gives the same kind and amount of work and the oracles stay
seed-free.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from math import comb
from pathlib import Path
from typing import Callable, Optional

import oracles

# (n, counts): interpolation path (total contact <= n+3) and block (Segre)
# path, P^2..P^6.  The P^6 ops are the latency tail.
WITNESS_VECTORS = [
    (2, "3"), (2, "5"),
    (3, "3,1"), (3, "6,0"), (3, "1,3"), (3, "5,1"),
    (4, "3,2,0"), (4, "7,0,0"), (4, "0,4,0"), (4, "2,2,1"), (4, "6,0,1"),
    (5, "8,0,0,0"), (5, "2,1,1,0"), (5, "5,1,1,0"), (5, "1,1,1,1"),
    (5, "1,4,0,0"), (5, "2,0,0,2"), (5, "0,2,2,0"),
    (6, "9,0,0,0,0"), (6, "3,1,1,0,0"), (6, "2,0,0,0,2"),
    (6, "0,5,0,0,0"), (6, "1,1,1,1,0"), (6, "8,0,0,0,1"), (6, "2,4,0,0,0"),
]
WITNESS_SEEDS_PER_VECTOR = 1

# Alexander-Hirschowitz grid: (n, d, offsets of s around C(n+d,d)/(n+1)).
# It keeps all four exceptional (n, d, s).  Cheap cells get many values of
# s, so latencies near p50 are dense.  Cells that cost 0.5 s or more per op
# are left out, so that a pass stays short and a run holds several passes;
# of the (4, 4) cell only the exception (4, 4, 14), about 2 s, is kept.
WIDE, NEAR = (-2, -1, 0, 1, 2, 3), (-1, 0, 1, 2)
AH_GRID = [(2, d, WIDE) for d in (3, 4, 5)] + [(2, d, NEAR) for d in (6, 7)]
AH_GRID += [(3, 3, WIDE), (3, 4, NEAR), (4, 3, NEAR), (4, 4, (0,))]
# Hartshorne-Hirschowitz grid: (n, d, offsets of l around C(n+d,d)/(d+1)).
HH_GRID = [(3, 2, WIDE[:-1]), (3, 3, WIDE[:-1]), (3, 4, (-1, 0, 1))]
HH_GRID += [(4, 2, WIDE[:-1]), (4, 3, (-1, 0, 1))]
CODIM3_PAIRS_N = range(4, 8)
# s=0 checks the base dimension; the rest span the defective window
# m+2 <= s <= 2m+1 and one value on each side of it.
DEFECT_S = {1: range(0, 5), 2: (0, 3, 4, 5, 6)}


@dataclass(frozen=True)
class Op:
    """One command line and the oracle for its stdout (None means correct)."""

    kind: str
    argv: list[str]
    check: Callable[[str], Optional[str]]


def _seeds(workload: str, seed: int, index: int) -> Callable[[], int]:
    # Set 0 keeps the plain name, so its inputs are those baseline_counts.json
    # was recorded on.
    rng = random.Random(f"{workload}/{seed}/{index}" if index else f"{workload}/{seed}")
    return lambda: rng.randrange(2**31)


def witness_ops(seed: int, index: int, workdir: Path) -> list[Op]:
    """`witness` on both constructive paths, each followed by `verify` of the
    curve and configuration it emitted."""
    next_seed = _seeds("witness", seed, index)
    ops = []
    for n, counts in WITNESS_VECTORS:
        for _ in range(WITNESS_SEEDS_PER_VECTOR):
            i = len(ops) // 2
            curve = workdir / f"curve-{i}.json"
            config = workdir / f"config-{i}.json"

            def check_witness(out, n=n, counts=counts, curve=curve, config=config):
                res = json.loads(out)
                if res.get("n") != n or res.get("counts") != [int(c) for c in counts.split(",")]:
                    return f"witness echoed n={res.get('n')} counts={res.get('counts')}"
                if res["certificate"]["rule"] != "witness-verified":
                    return f"certificate rule {res['certificate']['rule']}"
                curve.write_text(json.dumps(res["curve"]))
                config.write_text(json.dumps(res["config"]))
                return None

            def check_verify(out):
                res = json.loads(out)
                return None if res.get("verified") is True else "verify did not report verified"

            argv = ["--seed", str(next_seed()), "witness", "-n", str(n), counts]
            ops.append(Op("witness", argv, check_witness))
            ops.append(Op("verify", ["verify", "--curve", str(curve), "--config", str(config)], check_verify))
    return ops


def atlas_ops(seed: int, index: int, workdir: Path) -> list[Op]:
    """Every in-range row of `atlas -n 3` and `-n 4` as its own `classify`."""
    next_seed = _seeds("atlas", seed, index)
    ops = []
    for (n, counts), (status, rule) in sorted(oracles.load_atlas_table().items()):

        def check(out, want=(status, rule)):
            verdict = json.loads(out)["verdict"]
            cert = verdict["certificate"]
            got = (verdict["status"], cert["rule"] if cert else "")
            return None if got == want else f"verdict {got}, table says {want}"

        argv = ["--seed", str(next_seed()), "classify", "-n", str(n), ",".join(map(str, counts))]
        ops.append(Op("classify", argv, check))
    return ops


def _hilbert_op(workdir: Path, index: int, next_seed, n: int, d: int, comps: list[dict], want: int) -> Op:
    path = workdir / f"hilbert-{index}.json"
    path.write_text(json.dumps({"n": n, "d": d, "components": comps, "seed": next_seed()}))

    def check(out):
        res = json.loads(out)
        if (res.get("n"), res.get("d")) != (n, d):
            return f"hilbert echoed n={res.get('n')} d={res.get('d')}"
        if res["hf"] != want:
            return f"hf {res['hf']} != closed form {want}"
        if res["ideal_dim"] != comb(n + d, d) - want:
            return f"ideal_dim {res['ideal_dim']} != C(n+d,d) - hf"
        return None

    return Op("hilbert", ["hilbert", "--input", str(path)], check)


def ideal_ops(seed: int, index: int, workdir: Path) -> list[Op]:
    """Exact Hilbert functions of fat arrangements against closed forms, and
    the quartic defect reports against their rules."""
    next_seed = _seeds("ideal", seed, index)
    ops = []
    for n, d, offsets in AH_GRID:
        s0 = comb(n + d, d) // (n + 1)
        for s in (s0 + off for off in offsets):
            comps = [{"dim": 0, "mult": 2}] * s
            ops.append(_hilbert_op(workdir, len(ops), next_seed, n, d, comps, oracles.ah_double_points(n, d, s)))
    for n, d, offsets in HH_GRID:
        l0 = comb(n + d, d) // (d + 1)
        for off in offsets:
            comps = [{"dim": 1, "mult": 1}] * (l0 + off)
            ops.append(_hilbert_op(workdir, len(ops), next_seed, n, d, comps, oracles.hh_lines(n, d, l0 + off)))
    for n in CODIM3_PAIRS_N:
        comps = [{"dim": n - 3, "mult": 1}] * 2
        ops.append(_hilbert_op(workdir, len(ops), next_seed, n, 2, comps, oracles.two_codim3_quadrics(n)))
    for m in DEFECT_S:
        for s in DEFECT_S[m]:

            def check(out, m=m, s=s):
                return oracles.check_defect_report(m, s, json.loads(out))

            argv = ["--seed", str(next_seed()), "defect", "--m", str(m), "--s", str(s)]
            ops.append(Op("defect", argv, check))
    return ops


WORKLOADS = {"witness": witness_ops, "atlas": atlas_ops, "ideal": ideal_ops}


def build(workload: str, seed: int, workdir: Path, index: int = 0) -> list[Op]:
    """The op list of input set `index`, one pass; writes the input files it
    needs to workdir."""
    workdir.mkdir(parents=True, exist_ok=True)
    return WORKLOADS[workload](seed, index, workdir)


def build_sets(workload: str, seed: int, workdir: Path, count: int) -> list[list[Op]]:
    """`count` input sets of one pass each, in subdirectories of workdir."""
    return [build(workload, seed, workdir / f"set-{i}", i) for i in range(count)]
