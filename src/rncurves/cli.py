"""Command-line interface.

Subcommands: classify, witness, verify, atlas, hilbert, defect.  Output is
JSON (CSV available for atlas); rationals appear as [numerator, denominator]
pairs.  Exit codes: 0 success, 2 bad input, 3 no constructive path,
4 verification failure.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import sys
from pathlib import Path

from .arrangements import BACKENDS, WeightVector, generic_hilbert
from .defectivity import DefectQuery, defect_check, defect_sweep
from .errors import NoConstructivePath, RncError
from .feasibility import DEFAULTS, RunConfig, atlas, atlas_summary, build_witness, classify, verify_witness
from . import serialize

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NO_PATH = 3
EXIT_VERIFY = 4

SEED_ENV = "RNCURVES_SEED"


def _default_seed() -> int:
    raw = os.environ.get(SEED_ENV)
    if raw is None:
        return 0
    try:
        return int(raw)
    except ValueError:
        raise SystemExit(f"invalid {SEED_ENV}={raw!r}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once: ``parse_args`` leaves it unchanged."""
    p = argparse.ArgumentParser(prog="rncurves")
    p.add_argument("--seed", type=int, default=None, help=f"sampling seed (default: ${SEED_ENV} or 0)")
    p.add_argument("--backend", choices=BACKENDS, default="exact", help="rank backend; every value is exact")
    p.add_argument("--d-max", type=int, default=DEFAULTS.d_max, help="max degree for the Bezout-style rule")
    p.add_argument("--depth", type=int, default=DEFAULTS.projection_depth, help="max projection chain length")
    p.add_argument("--budget", type=int, default=DEFAULTS.resample_budget, help="resampling budget for constructions")
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("classify", help="decide a weight vector")
    c.add_argument("-n", type=int, required=True, help="ambient projective dimension")
    c.add_argument("weights", help="comma-separated counts l_0,...,l_(n-2)")

    w = sub.add_parser("witness", help="construct and verify a curve")
    w.add_argument("-n", type=int, required=True)
    w.add_argument("weights")

    v = sub.add_parser("verify", help="re-check a stored curve against a configuration")
    v.add_argument("--curve", required=True, help="path to a curve JSON file")
    v.add_argument("--config", required=True, help="path to a configuration JSON file")

    a = sub.add_parser("atlas", help="classify every in-range vector")
    a.add_argument("-n", type=int, required=True)
    a.add_argument("--format", choices=["json", "csv"], default="json")

    h = sub.add_parser("hilbert", help="triple-seeded Hilbert function of a sampled configuration")
    h.add_argument("--input", default="-", help="JSON file ('-' for stdin)")

    d = sub.add_parser("defect", help="ideal-dimension defect reports")
    d.add_argument("--m", type=int, required=True)
    d.add_argument("--s", type=int, default=None, help="single report instead of a sweep")
    return p


def parse_weights(n: int, text: str) -> WeightVector:
    try:
        counts = tuple(int(x) for x in text.split(","))
    except ValueError:
        raise SystemExit(f"cannot parse weights {text!r}")
    try:
        return WeightVector(n, counts)
    except ValueError as e:
        raise SystemExit(str(e))


def _emit(obj) -> None:
    sys.stdout.write(serialize.canonical_json(obj) + "\n")


def cmd_classify(args, opts: RunConfig) -> int:
    w = parse_weights(args.n, args.weights)
    verdict = classify(w, opts)
    _emit({"n": w.n, "counts": list(w.counts), "verdict": verdict.to_json()})
    return EXIT_OK


def cmd_witness(args, opts: RunConfig) -> int:
    w = parse_weights(args.n, args.weights)
    try:
        curve, cfg, cert = build_witness(w, opts)
    except NoConstructivePath as e:
        _emit({"error": "no-constructive-path", "detail": str(e)})
        return EXIT_NO_PATH
    except RncError as e:
        _emit({"error": "verification-failed", "detail": f"{type(e).__name__}: {e}"})
        return EXIT_VERIFY
    _emit(
        {
            "n": w.n,
            "counts": list(w.counts),
            "curve": serialize.enc_curve(curve),
            "config": serialize.enc_config(cfg),
            "certificate": cert.to_json(),
        }
    )
    return EXIT_OK


def cmd_verify(args, _opts: RunConfig) -> int:
    try:
        with open(args.curve) as fh:
            curve = serialize.dec_curve(json.load(fh))
        with open(args.config) as fh:
            cfg = serialize.dec_config(json.load(fh))
    except (OSError, ValueError, KeyError, TypeError, ZeroDivisionError) as e:
        raise SystemExit(f"cannot read inputs: {e}")
    for idx, (space, mult) in enumerate(cfg.components):
        if mult != 1:
            raise SystemExit(f"cannot verify: component {idx} has multiplicity {mult}, not 1")
        if space.dim == cfg.n:
            raise SystemExit(f"cannot verify: component {idx} fills the ambient space P^{cfg.n}")
    ok, report = verify_witness(curve, cfg)
    _emit(report)
    return EXIT_OK if ok else EXIT_VERIFY


def cmd_atlas(args, opts: RunConfig) -> int:
    try:
        rows = atlas(args.n, opts)
    except ValueError as e:
        raise SystemExit(str(e))
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["counts", "status", "rule", "digest"])
        for r in rows:
            writer.writerow([",".join(map(str, r.counts)), r.status, r.rule, r.digest])
        sys.stdout.write(buf.getvalue())
    else:
        _emit(
            {
                "n": args.n,
                "summary": atlas_summary(rows),
                "rows": [
                    {"counts": list(r.counts), "status": r.status, "rule": r.rule, "digest": r.digest}
                    for r in rows
                ],
            }
        )
    return EXIT_OK


def cmd_hilbert(args, opts: RunConfig) -> int:
    try:
        raw = sys.stdin.read() if args.input == "-" else Path(args.input).read_text()
        data = json.loads(raw)
        n = serialize.dec_int(data["n"])
        d = serialize.dec_int(data["d"])
        spec = [(serialize.dec_int(c["dim"]), serialize.dec_int(c.get("mult", 1))) for c in data["components"]]
        seed = serialize.dec_int(data.get("seed", opts.seed))
        hf, ideal = generic_hilbert(n, spec, d, seed, backend=args.backend)
    except (OSError, ValueError, KeyError, TypeError) as e:
        raise SystemExit(f"bad hilbert input: {e}")
    _emit(
        {
            "n": n,
            "d": d,
            "components": [{"dim": k, "mult": m} for k, m in spec],
            "hf": hf.value,
            "ideal_dim": ideal.value,
            "seeds": list(hf.seeds),
            "seeds_agreed": hf.agreed,
        }
    )
    return EXIT_OK


def cmd_defect(args, opts: RunConfig) -> int:
    def enc(report):
        return {
            "m": report.query.m,
            "s": report.query.s,
            "ambient_dim": report.query.n,
            "actual": report.actual,
            "expected": report.expected,
            "expected_raw": report.query.expected_raw,
            "defective": report.defective,
            "seeds": list(report.seeds),
            "seeds_agreed": report.agreed,
        }

    try:
        if args.s is None:
            reports = defect_sweep(args.m, seed=opts.seed, backend=args.backend)
            _emit({"m": args.m, "reports": [enc(r) for r in reports]})
        else:
            report = defect_check(DefectQuery(args.m, args.s), seed=opts.seed, backend=args.backend)
            _emit(enc(report))
    except RncError as e:
        raise SystemExit(str(e))
    return EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "classify": cmd_classify,
        "witness": cmd_witness,
        "verify": cmd_verify,
        "atlas": cmd_atlas,
        "hilbert": cmd_hilbert,
        "defect": cmd_defect,
    }
    try:
        # 0 switches the Bezout and projection rules off; a budget needs one attempt
        bounds = (("--d-max", args.d_max, 0), ("--depth", args.depth, 0), ("--budget", args.budget, 1))
        for flag, value, low in bounds:
            if value < low:
                raise SystemExit(f"{flag} must be at least {low}")
        opts = RunConfig(
            seed=args.seed if args.seed is not None else _default_seed(),
            d_max=args.d_max,
            projection_depth=args.depth,
            resample_budget=args.budget,
        )
        return handlers[args.command](args, opts)
    except SystemExit as e:
        if isinstance(e.code, str):
            print(e.code, file=sys.stderr)
            return EXIT_USAGE
        raise


if __name__ == "__main__":
    sys.exit(main())
