#!/usr/bin/env python3
"""Run the full decision pipeline over every datum file in data/.

Prints one block per file: the finiteness verdict, the value, the
certification level, and the per-factor breakdown.  Tower files get their
level-by-level values instead.
"""
import argparse
import sys
from pathlib import Path

from blca.cli import load_document, load_tower, load_datum
from blca.finite import tower_limit
from blca.structure import bl_constant


def describe_datum(path):
    d = load_datum(str(path))
    rep = bl_constant(d)
    print(f"{path.name}: {rep.kind} ({rep.certification})")
    if rep.value is not None:
        exact = f"  = {rep.exact}" if rep.exact is not None else ""
        print(f"  value {rep.value:.12g}{exact}")
    for f in rep.factors:
        val = "inf" if f.kind == "INFINITE" else (
            "?" if f.value is None else f"{f.value:.9g}")
        print(f"  {f.name:<7} {f.kind:<9} {val} [{f.certification}]")
    for w in rep.witnesses:
        print(f"  witness: {w}")


def describe_tower(path):
    levels = load_tower(str(path))
    res = tower_limit(levels)
    print(f"{path.name}: tower of {len(levels)} levels")
    for i, v in enumerate(res.floats()):
        print(f"  level {i}: {v:.12g}")
    if res.monotone:
        print(f"  nondecreasing; best lower bound {res.floats()[-1]:.12g}")
    else:
        print(f"  NOT monotone, first drop at level {res.first_violation}")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--data", default=None,
                    help="directory of datum files (default: repo data/)")
    args = ap.parse_args()
    root = Path(args.data) if args.data else (
        Path(__file__).resolve().parent.parent / "data")
    files = sorted(root.glob("*.json"))
    if not files:
        print(f"no datum files under {root}", file=sys.stderr)
        return 1
    for path in files:
        doc = load_document(str(path))
        if "tower" in doc:
            describe_tower(path)
        else:
            describe_datum(path)
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
