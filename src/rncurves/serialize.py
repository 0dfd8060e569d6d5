"""JSON encoding of the exact types.

Rationals are encoded as ``[numerator, denominator]`` pairs so round-trips
are lossless; every encoder sorts keys through :func:`canonical_json`, which
makes digests and CLI output byte-stable for fixed inputs.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction

from .arrangements import Configuration
from .binforms import BinaryForm
from .exactgeom import LinearSubspace
from .rnc import ParamCurve


def enc_fraction(x) -> list[int]:
    f = Fraction(x)
    return [f.numerator, f.denominator]


def dec_int(v) -> int:
    """A JSON integer as read; a float, bool or string raises ``ValueError``."""
    if type(v) is not int:
        raise ValueError(f"expected an integer, got {v!r}")
    return v


def dec_list(v) -> list:
    """A JSON list as read; an object, string or number raises ``ValueError``."""
    if type(v) is not list:
        raise ValueError(f"expected a list, got {v!r}")
    return v


def dec_fraction(v) -> Fraction:
    """A JSON list of exactly two integers, numerator then denominator; any
    other value or length raises ``ValueError``."""
    pair = dec_list(v)
    if len(pair) != 2:
        raise ValueError(f"expected a [numerator, denominator] pair, got {v!r}")
    return Fraction(dec_int(pair[0]), dec_int(pair[1]))


def enc_curve(c: ParamCurve) -> dict:
    return {
        "ambient_dim": c.ambient,
        "degree": c.degree,
        "coefficients": [[enc_fraction(x) for x in f.coeffs] for f in c.forms],
    }


def dec_curve(d) -> ParamCurve:
    n = dec_int(d["ambient_dim"])
    deg = dec_int(d["degree"])
    forms = tuple(BinaryForm(deg, tuple(dec_fraction(x) for x in row)) for row in d["coefficients"])
    return ParamCurve(n, forms)


def enc_config(cfg: Configuration) -> dict:
    return {
        "ambient_dim": cfg.n,
        "components": [
            {"dim": s.dim, "mult": m, "basis": [[enc_fraction(x) for x in row] for row in s.basis]}
            for s, m in cfg.components
        ],
    }


def dec_config(d) -> Configuration:
    n = dec_int(d["ambient_dim"])
    comps = []
    for c in dec_list(d["components"]):
        rows = [[dec_fraction(x) for x in row] for row in c["basis"]]
        space = LinearSubspace.from_rows(n, rows)
        if dec_int(c["dim"]) != space.dim:
            raise ValueError(f"component says dim {c['dim']}, its basis spans dim {space.dim}")
        comps.append((space, dec_int(c.get("mult", 1))))
    return Configuration(n, tuple(comps))


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def digest(obj) -> str:
    """Short stable fingerprint of a JSON-encodable object."""
    return hashlib.sha256(canonical_json(obj).encode()).hexdigest()[:16]
