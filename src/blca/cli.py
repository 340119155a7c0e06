"""Datum files and the command line.

A datum file is a JSON document with top-level keys

    domain     group record
    targets    list of group records, one per map
    homs       list of block objects keyed RR/RT/TT/ZR/ZT/ZZ/ZF/FT/FF
    exponents  list of rationals, or "inf"

or, alternatively, the single key "tower" holding a list of such documents
for a finite approximation tower.  Group records carry a, b, c, torsion and a
haar object (vector_scale, torus_total, z_point, f_point).  Rationals are
integers or "n/d" strings; floats are rejected so files stay exact, and an
exponent below 1 is rejected at its path.  Unknown keys are rejected
everywhere.

Commands:

    analyze FILE    properness, normalization ledger, sector split
    constant FILE   the constant with factor breakdown (tower files too)
    dual FILE       dual datum on stdout, duality check on stderr
    reduce FILE     structure.reduce_exponents: drop infinite exponents, fold
                    unit exponents into the kernels of their maps
    verify FILE     pipeline values against the independent oracles

dual and reduce print the resulting datum file on stdout (text mode) so the
output can be piped back in; commentary goes to stderr.  With --json a
single object with everything, including "schema_version", goes to stdout.

Exit codes: 0 success, 1 infinite constant with witness, 2 unknown or
inconclusive, 3 input error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction
from typing import List, Optional, Sequence

from .errors import BlcaError, NotProper
from .exact import ExactValue
from .finite import tower_limit
from .groups import _SCALES, ElementaryGroup, HaarRecord
from .homs import BLOCKS, BlockHom, Datum
from .structure import (FINITE, INFINITE, analyze, bl_constant, duality_check,
                        reduce_exponents, verify)

SCHEMA_VERSION = 1

_GROUP_KEYS = ("a", "b", "c", "torsion", "haar")


class DatumFormatError(BlcaError):
    """A datum file failed to parse; the message names the offending key."""


# -- parsing ----------------------------------------------------------------

def _fail(where: str, what: str):
    raise DatumFormatError(f"{where}: {what}")


def _rational(v, where: str) -> Fraction:
    if isinstance(v, bool):
        _fail(where, f"expected a rational, got {v!r}")
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, str):
        try:
            return Fraction(v)
        except (ValueError, ZeroDivisionError):
            _fail(where, f"not a rational: {v!r}")
    if isinstance(v, float):
        _fail(where, f"floats are not exact; write {v!r} as an 'n/d' string")
    _fail(where, f"expected an integer or 'n/d' string, got {type(v).__name__}")


def _nonneg_int(v, where: str) -> int:
    if isinstance(v, bool) or not isinstance(v, int) or v < 0:
        _fail(where, f"expected a nonnegative integer, got {v!r}")
    return v


def _check_keys(obj: dict, allowed: Sequence[str], where: str):
    if not isinstance(obj, dict):
        _fail(where, f"expected an object, got {type(obj).__name__}")
    for key in obj:
        if key not in allowed:
            _fail(where, f"unknown key {key!r} (allowed: {', '.join(allowed)})")


def _parse_group(obj, where: str) -> ElementaryGroup:
    _check_keys(obj, _GROUP_KEYS, where)
    a = _nonneg_int(obj.get("a", 0), f"{where}.a")
    b = _nonneg_int(obj.get("b", 0), f"{where}.b")
    c = _nonneg_int(obj.get("c", 0), f"{where}.c")
    torsion = obj.get("torsion", [])
    if not isinstance(torsion, list):
        _fail(f"{where}.torsion", "expected a list of integers")
    torsion = tuple(_nonneg_int(t, f"{where}.torsion[{i}]")
                    for i, t in enumerate(torsion))
    haar_obj = obj.get("haar", {})
    _check_keys(haar_obj, _SCALES, f"{where}.haar")
    scales = {key: _rational(haar_obj.get(key, 1), f"{where}.haar.{key}")
              for key in _SCALES}
    try:
        haar = HaarRecord(**scales)
    except ValueError as exc:
        _fail(f"{where}.haar", str(exc))
    try:
        return ElementaryGroup(a=a, b=b, c=c, torsion=torsion, haar=haar)
    except ValueError as exc:
        _fail(where, str(exc))


def _parse_matrix(obj, where: str) -> List[List[Fraction]]:
    if not isinstance(obj, list) or any(not isinstance(r, list) for r in obj):
        _fail(where, "expected a list of rows")
    return [[_rational(v, f"{where}[{r}][{i}]") for i, v in enumerate(row)]
            for r, row in enumerate(obj)]


def _parse_exponent(v, where: str) -> Optional[Fraction]:
    if v == "inf":
        return None
    p = _rational(v, where)
    if p < 1:
        _fail(where, f"exponent {_rat_doc(p)} is below 1")
    return p


def _parse_datum(doc, where: str = "datum") -> Datum:
    _check_keys(doc, ("domain", "targets", "homs", "exponents"), where)
    for key in ("domain", "targets", "homs", "exponents"):
        if key not in doc:
            _fail(where, f"missing key {key!r}")
    domain = _parse_group(doc["domain"], f"{where}.domain")
    targets_obj = doc["targets"]
    homs_obj = doc["homs"]
    exps_obj = doc["exponents"]
    for name, val in (("targets", targets_obj), ("homs", homs_obj),
                      ("exponents", exps_obj)):
        if not isinstance(val, list):
            _fail(f"{where}.{name}", "expected a list")
    if not len(targets_obj) == len(homs_obj) == len(exps_obj):
        _fail(where, f"targets ({len(targets_obj)}), homs ({len(homs_obj)}) "
                     f"and exponents ({len(exps_obj)}) must have equal length")
    targets = [_parse_group(t, f"{where}.targets[{j}]")
               for j, t in enumerate(targets_obj)]
    homs = []
    for j, blocks in enumerate(homs_obj):
        _check_keys(blocks, BLOCKS, f"{where}.homs[{j}]")
        kw = {name: _parse_matrix(blocks[name], f"{where}.homs[{j}].{name}")
              for name in BLOCKS if name in blocks}
        homs.append(BlockHom(domain, targets[j], **kw))
    exponents = [_parse_exponent(p, f"{where}.exponents[{j}]")
                 for j, p in enumerate(exps_obj)]
    return Datum(domain, homs, exponents)


def load_document(path: str):
    """The raw JSON document of a datum file, with diagnostics."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise DatumFormatError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DatumFormatError(
            f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: "
            f"{exc.msg}") from exc


def load_datum(path: str) -> Datum:
    doc = load_document(path)
    if isinstance(doc, dict) and "tower" in doc:
        raise DatumFormatError(
            f"{path}: this is a tower file; only the constant command "
            f"accepts towers")
    return _parse_datum(doc, path)


def load_tower(path: str) -> List[Datum]:
    doc = load_document(path)
    _check_keys(doc, ("tower",), path)
    levels = doc.get("tower")
    if not isinstance(levels, list) or not levels:
        _fail(f"{path}.tower", "expected a nonempty list of datum documents")
    return [_parse_datum(level, f"{path}.tower[{i}]")
            for i, level in enumerate(levels)]


# -- canonical serialization ------------------------------------------------

def _rat_doc(q: Fraction):
    return int(q) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _group_doc(g: ElementaryGroup) -> dict:
    return {
        "a": g.a, "b": g.b, "c": g.c, "torsion": list(g.torsion),
        "haar": {key: _rat_doc(getattr(g.haar, key)) for key in _SCALES},
    }


def _hom_doc(h: BlockHom) -> dict:
    out = {}
    for name in BLOCKS:
        block = getattr(h, name)
        if any(any(row) for row in block):
            out[name] = [[_rat_doc(Fraction(v)) for v in row] for row in block]
    return out


def datum_document(d: Datum) -> dict:
    """Canonical document for a datum; serializing it is byte-stable."""
    return {
        "domain": _group_doc(d.domain),
        "targets": [_group_doc(h.codomain) for h in d.homs],
        "homs": [_hom_doc(h) for h in d.homs],
        "exponents": ["inf" if p is None else _rat_doc(p)
                      for p in d.exponents],
    }


def dump_datum(d: Datum) -> str:
    return json.dumps(datum_document(d), indent=2) + "\n"


# -- reporting helpers ------------------------------------------------------

class _Out:
    """Collects report lines; text mode prints them, json mode keeps data."""

    def __init__(self, as_json: bool, command: str, seed: int):
        self.as_json = as_json
        self.lines: List[str] = []
        self.data = {"schema_version": SCHEMA_VERSION, "command": command,
                     "seed": seed}
        if not as_json:
            self.lines.append(f"blca {command} (seed {seed})")

    def say(self, text: str):
        if not self.as_json:
            self.lines.append(text)

    def put(self, key: str, value):
        self.data[key] = value

    def flush(self, stream=None):
        stream = stream or sys.stdout
        if self.as_json:
            json.dump(self.data, stream, indent=2)
            stream.write("\n")
        else:
            for line in self.lines:
                stream.write(line + "\n")


def _exit_for(kind: str) -> int:
    if kind == FINITE:
        return 0
    if kind == INFINITE:
        return 1
    return 2


def _value_text(rep) -> str:
    if rep.kind == INFINITE:
        return "infinite"
    if rep.value is None:
        return "unknown"
    return _number_text(rep.value, rep.exact)


def _number_text(value: float, exact: Optional[ExactValue]) -> str:
    if exact is not None:
        return f"{value:.12g} (exact: {exact})"
    return f"{value:.12g}"


def _describe_factors(out: _Out, rep):
    for f in rep.factors:
        val = "infinite" if f.kind == INFINITE else (
            "unknown" if f.value is None else f"{f.value:.12g}")
        out.say(f"  {f.name:<7} {f.kind:<9} {val:<22} [{f.certification}]")
        for note in f.notes:
            out.say(f"          - {note}")
        if f.witness is not None:
            out.say(f"          witness: {f.witness}")


# -- commands ---------------------------------------------------------------

def _cmd_analyze(args) -> int:
    d = load_datum(args.file)
    out = _Out(args.json, "analyze", args.seed)
    try:
        norm, why, parts = analyze(d)
    except NotProper as exc:
        out.put("proper", False)
        out.say("proper: no")
        out.put("reason", str(exc))
        out.say(f"  {exc}")
        out.say("the constant is infinite for improper data")
        out.flush()
        return 1
    out.put("proper", True)
    out.say("proper: yes")
    out.put("ledger", list(norm.ledger))
    for note in norm.ledger:
        out.say(f"normalize: {note}")
    out.put("nondegenerate", why is None)
    if why is not None:
        out.put("obstruction", why)
        out.say(f"degenerate after normalization: {why}")
        out.say("the constant is infinite at finite exponents")
        out.flush()
        return 1
    names = ("torus", "vector", "finite", "free")
    desc = []
    for name, part in zip(names, parts):
        entry = {
            "part": name,
            "domain": part.domain.describe(),
            "targets": [h.codomain.describe() for h in part.homs],
        }
        desc.append(entry)
        out.say(f"{name:<7} {part.domain.describe():<20} -> "
                + ", ".join(h.codomain.describe() for h in part.homs))
    out.put("parts", desc)
    out.put("exponents", ["inf" if p is None else str(p) for p in d.exponents])
    out.flush()
    return 0


def _cmd_constant(args) -> int:
    doc = load_document(args.file)
    if isinstance(doc, dict) and "tower" in doc:
        return _cmd_tower(args)
    d = _parse_datum(doc, args.file)
    rep = bl_constant(d)
    out = _Out(args.json, "constant", args.seed)
    out.put("report", rep.to_dict())
    out.say(f"constant: {_value_text(rep)}")
    out.say(f"verdict: {rep.kind} [{rep.certification}]")
    for note in rep.ledger:
        out.say(f"normalize: {note}")
    _describe_factors(out, rep)
    for w in rep.witnesses:
        out.say(f"witness: {w}")
    out.flush()
    return _exit_for(rep.kind)


def _cmd_tower(args) -> int:
    levels = load_tower(args.file)
    res = tower_limit(levels)
    out = _Out(args.json, "constant", args.seed)
    floats = res.floats()
    missing = [None] * (len(levels) - len(floats))
    out.put("tower", {
        "values": [str(v) for v in res.values] + missing,
        "floats": list(floats) + missing,
        "monotone": res.monotone,
        "first_violation": res.first_violation,
    })
    for i, v in enumerate(floats):
        out.say(f"level {i}: {v:.12g}")
    for i in range(len(floats), len(levels)):
        why = res.reason if i == res.unpriced else f"level {res.unpriced} is UNKNOWN"
        out.say(f"level {i}: UNKNOWN ({why})")
    if not res.monotone:
        out.say(f"value drops at level {res.first_violation}; the level "
                f"measures are inconsistent")
    elif floats:
        out.say(f"nondecreasing; best lower bound {floats[-1]:.12g}")
    out.flush()
    return 0 if res.monotone and not missing else 2


def _cmd_dual(args) -> int:
    chk = duality_check(load_datum(args.file), tol=args.tol)
    dd = chk.dual_datum
    if dd is None:
        raise DatumFormatError(f"{args.file}: no dual form: {chk.dual.ledger[0]}")
    if args.json:
        out = _Out(True, "dual", args.seed)
        out.put("dual", datum_document(dd))
        out.put("duality", chk.to_dict())
        out.flush()
    else:
        sys.stdout.write(dump_datum(dd))
        err = _Out(False, "dual", args.seed)
        status = {True: "pass", False: "FAIL", None: "inconclusive"}[chk.passed]
        err.say(f"duality: {status}")
        if chk.ratio is not None:
            err.say(f"  lhs {chk.lhs:.12g}  rhs {chk.rhs:.12g}  "
                    f"ratio {chk.ratio:.12g}  (scale {chk.scale:.12g})")
        else:
            err.say(f"  primal {chk.primal.kind}, dual {chk.dual.kind}")
        for note in chk.notes:
            err.say(f"  {note}")
        err.flush(sys.stderr)
    if chk.passed is True:
        return 0
    return 2


def _cmd_reduce(args) -> int:
    red = reduce_exponents(load_datum(args.file))
    ledger = list(red.ledger) + ([red.blocked] if red.blocked else [])
    resolved = red.datum is None
    infinite = resolved and red.resolution == math.inf
    exact = ExactValue.of(red.resolution) if resolved and not infinite else None
    if args.json:
        out = _Out(True, "reduce", args.seed)
        out.put("ledger", ledger)
        if resolved:
            out.put("resolved", "inf" if infinite else float(exact))
            out.put("exact", None if infinite else str(exact))
        else:
            out.put("datum", datum_document(red.datum))
        out.flush()
    else:
        err = _Out(False, "reduce", args.seed)
        for note in ledger:
            err.say(f"  {note}")
        if resolved:
            err.say(f"  nothing left; the constant is "
                    f"{'infinite' if infinite else _number_text(float(exact), exact)}")
        err.flush(sys.stderr)
        if not resolved:
            sys.stdout.write(dump_datum(red.datum))
    return 1 if infinite else 0


def _cmd_verify(args) -> int:
    d = load_datum(args.file)
    out = _Out(args.json, "verify", args.seed)
    rep, rows = verify(d, tol=args.tol, seed=args.seed)
    out.put("report", rep.to_dict())
    out.put("rows", rows)
    out.say(f"pipeline: {rep.kind}, {_value_text(rep)}")
    if rep.kind == INFINITE:
        for w in rep.witnesses:
            out.say(f"witness: {w}")
        out.flush()
        return 1
    for row in rows:
        line = f"  {row['part']:<7} {row['status']:<9}"
        if "pipeline" in row:
            line += f" pipeline {row['pipeline']:.10g}  oracle {row['oracle']:.10g}"
        line += f"  ({row['note']})"
        out.say(line)
    out.flush()
    bad = any(r["status"] == "MISMATCH" for r in rows)
    if bad:
        return 2
    return 0 if rep.kind == FINITE else 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blca",
        description="Finiteness and values of product-form integral "
                    "inequality constants on groups R^a x T^b x Z^c x F.")
    parser.add_argument("command",
                        choices=("analyze", "constant", "dual", "reduce",
                                 "verify"))
    parser.add_argument("file", help="datum file (JSON)")
    parser.add_argument("--json", action="store_true",
                        help="machine-readable output on stdout")
    parser.add_argument("--tol", type=float, default=1e-6,
                        help="comparison tolerance of dual and verify")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for verify's oracle restarts")
    return parser


_COMMANDS = {
    "analyze": _cmd_analyze,
    "constant": _cmd_constant,
    "dual": _cmd_dual,
    "reduce": _cmd_reduce,
    "verify": _cmd_verify,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if not (math.isfinite(args.tol) and args.tol > 0):
        print(f"error: --tol must be a positive finite number, got {args.tol}",
              file=sys.stderr)
        return 3
    try:
        return _COMMANDS[args.command](args)
    except DatumFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except BlcaError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
